"""The fourteen-line derivation as a checkable script.

Each line carries a statement, a rule tag with cited premises, and a
hypothesis scope.  `check_rule` verifies single steps by structural
matching (prediction lines are checked against the model's zero and
nonzero cells instead), and `audit` adds a per-line semantic reading in
two strengths plus the closing contradiction that discharges the
hypothesis.

Everything that reads only the script is worked out once per script
and temporal order, into a plan the script keeps (`_Plan`): the scope
check, every structural rule verdict and the cell each prediction line
pins, which `check_rule` and `audit` read, and, on the first audit,
the script compiled into one mask program, with the slots of each
line's statement, the side conditions, the complementary line pairs
and the hypothesis's counterpart, and each line's finished report for
each pair of readings and state of its pinned cell (all but a possible
zero cell, whose verdict quotes the model's probability).  What is
left per model is one run of the program, which gives the two
readings, the side condition, the bridge world, whether the
counterpart is tested and the hypothesis fails, and the bit of each
pinned cell.

Rule schemas, with E ranging over earlier-region atoms and c over
later-region choice atoms:

    PRED21/22/23  zero-cell prediction: the strict conditional's sole
                  escaping outcome cell carries zero probability
    PRED24        nonzero-cell prediction: the negated conditional has
                  a possible witness cell
    B6            pinned-history axiom:  (E ^ r ^ o) => [c []-> (E ^ c ^ o)]
    B5 / B7       from X => [c []-> D]: strengthen the antecedent by a
                  cited B => X, and/or weaken inside the box by a cited
                  D => F
    A5            import/export between (A ^ B) => C and A => (B -> C);
                  on export, conjuncts inside the box that restate a
                  pinned earlier-region atom from the antecedent may be
                  elided (they are invariant across accessible worlds)
    LOC1_COMMUTE  from X => [E -> (c []-> D)] infer X => [c []-> (E -> D)]:
                  a pinned earlier outcome keeps its truth value in
                  every accessible world
    DEF           from A => (c -> Y), all of A earlier-region, infer
                  (A ^ r) => [c []-> Y] with r a later-region choice that
                  c contradicts: accessible worlds satisfy A and c
    HYPOTHESIS    assumed for refutation
"""

from __future__ import annotations

from functools import cache

from .formula import (
    And,
    Atom,
    Counterfactual,
    Formula,
    MatImp,
    Not,
    StrictImp,
    Value,
    parse,
    unparse,
)
from .semantics import (
    DEFAULT_OPTIONS,
    LINE5,
    LINE6,
    CfOptions,
    MaskProgram,
    TemporalOrder,
)
from .semantics import SrRow, sr_truth_table  # noqa: F401  SR's table, importable from here too
from .worlds import FORBIDDEN_WORLDS, PARADOX_WORLD, WORLD_INDEX, WORLDS, Model, World, worlds_in

VALID = "valid"
INVALID = "invalid"


class ProofLine(Value):
    __slots__ = _fields = ("index", "statement", "rule", "premises", "hypothesis_scope", "note")
    _defaults = ((), frozenset(), None)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.rule not in RULE_TAGS:
            raise ValueError(f"unknown rule tag {self.rule!r}")
        if any(p >= self.index for p in self.premises):
            raise ValueError(f"line {self.index} cites a premise at or after itself")


class SideCondition(Value):
    """A nonemptiness claim: some possible world satisfies the formula."""

    __slots__ = _fields = ("formula", "description")


class ProofScript(Value):
    """Derivation lines: each index once, each premise a line of the script, or ValueError."""

    _fields = ("lines", "side_conditions", "notes")
    # `_plans`: audit plans by earlier region, built on first use (`_plan`);
    # not a field, so equality, hashing, repr, pickling and copies ignore them
    __slots__ = (*_fields, "_plans", "__weakref__")

    def __init__(
        self,
        lines: tuple[ProofLine, ...],
        side_conditions: tuple[SideCondition, ...],
        notes: tuple[str, ...] = (),
    ):
        indices = [ln.index for ln in lines]
        for ln in lines:
            if indices.count(ln.index) > 1:
                raise ValueError(f"line {ln.index} appears more than once")
            for p in ln.premises:
                if p not in indices:
                    raise ValueError(f"line {ln.index} cites line {p}, which the script lacks")
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "side_conditions", side_conditions)
        object.__setattr__(self, "notes", notes)
        object.__setattr__(self, "_plans", {})

    def line(self, index: int) -> ProofLine:
        for ln in self.lines:
            if ln.index == index:
                return ln
        raise KeyError(f"no line {index}")


def _interned(f: Formula, nodes: dict) -> Formula:
    """`f` rebuilt bottom-up so that each subformula is the first equal one in `nodes`."""
    if isinstance(f, Not):
        f = Not(_interned(f.arg, nodes))
    elif not isinstance(f, Atom):
        f = type(f)(_interned(f.left, nodes), _interned(f.right, nodes))
    return nodes.setdefault(f, f)


@cache
def builtin_script() -> ProofScript:
    """The fourteen derivation lines, hypothesis scopes, and side condition.

    Built once and shared: the script and every node in it are frozen.
    Its formulas are interned, so equal subformulas, within a line and
    across lines, are one object, and so one slot of the mask program
    an audit compiles.

    Two normalizations from the printed source are applied and logged in
    the script notes: the mislabeled prediction citation on line 12 is
    read as the fourth prediction, and a stray R2- in the companion
    set-form argument for line 12 is read as R1-.
    """
    nodes: dict[Formula, Formula] = {}

    def formula(text: str) -> Formula:
        return _interned(parse(text), nodes)

    h = frozenset({6})
    lines = (
        ProofLine(1, formula("(L2 & R2 & L2+) => (R1 []-> L2 & R1 & L2+)"), "B6"),
        ProofLine(2, formula("(L2 & R2 & R2+) => (L2 & R2 & L2+)"), "PRED21"),
        ProofLine(3, formula("(L2 & R1 & L2+) => (L2 & R1 & R1-)"), "PRED22"),
        ProofLine(4, formula("(L2 & R2 & R2+) => (R1 []-> L2 & R1 & R1-)"), "B7", (1, 2, 3)),
        ProofLine(
            5,
            _interned(LINE5, nodes),
            "A5",
            (4,),
            note="export plus elision of the pinned L2 inside the box",
        ),
        ProofLine(
            6,
            _interned(LINE6, nodes),
            "HYPOTHESIS",
            note="line 5 with L2 replaced by L1; assumed, then refuted",
        ),
        ProofLine(7, formula("(L1 & R2 & R2+) => (R1 []-> R1 & R1-)"), "A5", (6,), h),
        ProofLine(8, formula("(L1 & R2 & L1-) => (L1 & R2 & R2+)"), "PRED23", (), h),
        ProofLine(9, formula("(L1 & R2 & L1-) => (R1 []-> R1 & R1-)"), "B5", (7, 8), h),
        ProofLine(10, formula("(L1 & R2) => (L1- -> (R1 []-> R1 & R1-))"), "A5", (9,), h),
        ProofLine(11, formula("(L1 & R2) => (R1 []-> (L1- -> R1 & R1-))"), "LOC1_COMMUTE", (10,), h),
        ProofLine(
            12,
            formula("(L1 & R1) => ~(L1- -> R1 & R1-)"),
            "PRED24",
            note="prediction citation normalized to PRED24",
        ),
        ProofLine(13, formula("L1 => (R1 -> ~(L1- -> R1 & R1-))"), "A5", (12,)),
        ProofLine(14, formula("(L1 & R2) => (R1 []-> ~(L1- -> R1 & R1-))"), "DEF", (13,)),
    )
    side = SideCondition(
        formula=formula("L1 & R1 & L1-"),
        description=(
            "some possible world performs L1 and R1 and records the minus "
            "outcome on the L side"
        ),
    )
    notes = (
        "normalized from the printed source: the line-12 prediction citation, "
        "and a stray R2- read as R1- in the companion set-form argument",
    )
    return ProofScript(lines=lines, side_conditions=(side,), notes=notes)


# ---------------------------------------------------------------------------
# Structural helpers

def _conjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, And):
        return _conjuncts(f.left) + _conjuncts(f.right)
    return [f]


def _strict(f: Formula) -> tuple[Formula, Formula] | None:
    return (f.left, f.right) if isinstance(f, StrictImp) else None


def _box(f: Formula) -> tuple[Atom, Formula] | None:
    if isinstance(f, Counterfactual) and isinstance(f.left, Atom):
        return (f.left, f.right)
    return None


def _is_choice(f: Formula, region: str) -> bool:
    return isinstance(f, Atom) and f.is_choice and f.region == region


def _is_subsequence(short: list[Formula], long: list[Formula]) -> bool:
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


class RuleVerdict(Value):
    __slots__ = _fields = ("status", "detail")

    @property
    def ok(self) -> bool:
        return self.status == VALID


def check_rule(
    model: Model,
    script: ProofScript,
    index: int,
    opts: CfOptions = DEFAULT_OPTIONS,
) -> RuleVerdict:
    """Is the line derivable from its cited premises under its rule tag?

    Prediction tags are checked against the model's possibility pattern;
    every other tag is checked by structural matching.  The matching is
    done once per script and temporal order, into the script's plan.
    """
    rules = _plan(script, opts.order).rules
    if index not in rules:
        raise KeyError(f"no line {index}")
    rule = rules[index]
    if not isinstance(rule, World):
        return rule
    bit = WORLD_INDEX[rule]
    return _prediction_verdict(rule, model.mask >> bit & 1, model.table.cells[bit])


# the cell each prediction tag pins: PRED21-23 the vanishing ones, in
# order, PRED24 the paradox cell
_PREDICTED = dict(
    zip(("PRED21", "PRED22", "PRED23", "PRED24"), (*FORBIDDEN_WORLDS, PARADOX_WORLD))
)

_FLIP = {"+": "-", "-": "+"}


def _cell(world: World) -> tuple[str, str, str]:
    """A cell as reported in rule details: ('L2', 'R2', '-+')."""
    return (world.choice_l, world.choice_r, world.outcome_pair)


def _check_prediction(line, premises, order):
    """The cell a prediction line pins, if its shape and the tag agree on it."""
    parts = _strict(line.statement)
    if parts is None:
        return RuleVerdict(INVALID, "prediction lines must be strict conditionals")
    ant, zero = _conjuncts(parts[0]), line.rule != "PRED24"
    if zero:
        world = _prediction_shape(ant, _conjuncts(parts[1]))
        shape = "(choices ^ outcome) => (same choices ^ other region's outcome)"
    else:
        world = _negated_conditional_cell(ant, parts[1])
        shape = "(choices) => ~(earlier outcome -> later choice ^ outcome)"
    if world is None:
        return RuleVerdict(INVALID, f"expected {shape}, found {unparse(line.statement)}")
    expected = _PREDICTED[line.rule]
    if world != expected:
        return RuleVerdict(
            INVALID,
            f"statement demands {'zero' if zero else 'witness'} cell {_cell(world)}, "
            f"but {line.rule} pins {_cell(expected)}",
        )
    return world


def _prediction_shape(ant, cons):
    """The escaping cell of a prediction line, as a world, or None."""
    if len(ant) != 3 or len(cons) != 3:
        return None
    if not all(isinstance(a, Atom) for a in ant + cons):
        return None
    if ant[0] != cons[0] or ant[1] != cons[1]:
        return None
    cl, cr, ant_out = ant
    cons_out = cons[2]
    if not (_is_choice(cl, "L") and _is_choice(cr, "R")):
        return None
    if not (ant_out.is_outcome and cons_out.is_outcome):
        return None
    if ant_out.region == cons_out.region:
        return None
    choices = {"L": cl.name, "R": cr.name}
    if ant_out.setting != choices[ant_out.region] or cons_out.setting != choices[cons_out.region]:
        return None
    signs = {ant_out.region: ant_out.sign, cons_out.region: _FLIP[cons_out.sign]}
    return World(cl.name, cr.name, signs["L"], signs["R"])


def _negated_conditional_cell(ant, cons):
    if len(ant) != 2:
        return None
    cl, cr = ant
    if not (_is_choice(cl, "L") and _is_choice(cr, "R")):
        return None
    if not (isinstance(cons, Not) and isinstance(cons.arg, MatImp)):
        return None
    inner = cons.arg
    out_a = inner.left
    rest = _conjuncts(inner.right)
    if not (isinstance(out_a, Atom) and out_a.is_outcome):
        return None
    if len(rest) != 2 or not all(isinstance(a, Atom) for a in rest):
        return None
    later_choice, out_b = rest
    if not (later_choice.is_choice and out_b.is_outcome):
        return None
    choices = {"L": cl.name, "R": cr.name}
    if out_a.setting != choices[out_a.region]:
        return None
    if later_choice.name != choices[later_choice.region]:
        return None
    if out_b.setting != later_choice.name or out_b.region == out_a.region:
        return None
    signs = {out_a.region: out_a.sign, out_b.region: _FLIP[out_b.sign]}
    return World(cl.name, cr.name, signs["L"], signs["R"])


def _check_b6(line, premises, order):
    earlier, later = order.earlier_region, order.later_region
    parts = _strict(line.statement)
    if parts is None:
        return RuleVerdict(INVALID, "expected a strict conditional")
    ant = _conjuncts(parts[0])
    box = _box(parts[1])
    if box is None:
        return RuleVerdict(INVALID, "consequent must be a counterfactual")
    c, cons = box
    if len(ant) != 3:
        return RuleVerdict(INVALID, "antecedent must conjoin choice, choice, outcome")
    e, r, o = ant
    shape_ok = (
        _is_choice(e, earlier)
        and _is_choice(r, later)
        and isinstance(o, Atom)
        and o.is_outcome
        and o.region == earlier
        and o.setting == e.name
        and _is_choice(c, later)
        and c != r
        and _conjuncts(cons) == [e, c, o]
    )
    if not shape_ok:
        return RuleVerdict(
            INVALID,
            "expected (E ^ r ^ o) => [c []-> (E ^ c ^ o)] with E, o pinned in the "
            f"earlier region, found {unparse(line.statement)}",
        )
    return RuleVerdict(VALID, "pinned-history axiom instance")


def _check_b5_b7(line, premises, order):
    concl = _strict(line.statement)
    if concl is None:
        return RuleVerdict(INVALID, "expected a strict conditional")
    b, concl_box = concl
    box = _box(concl_box)
    if box is None:
        return RuleVerdict(INVALID, "consequent must be a counterfactual")
    c, f_cons = box
    for prem in premises:
        parts = _strict(prem)
        if parts is None:
            continue
        prem_box = _box(parts[1])
        if prem_box is None or prem_box[0] != c:
            continue
        x, d = parts[0], prem_box[1]
        others = [p for p in premises if p is not prem]
        ant_ok = x == b or any(
            (sp := _strict(p)) is not None and sp[0] == b and sp[1] == x for p in others
        )
        cons_ok = d == f_cons or any(
            (sp := _strict(p)) is not None and sp[0] == d and sp[1] == f_cons for p in others
        )
        if ant_ok and cons_ok:
            return RuleVerdict(
                VALID, "box premise matched with cited strengthening/weakening"
            )
    return RuleVerdict(
        INVALID,
        "no cited premise chain yields this conclusion: need X => [c []-> D] plus "
        "B => X and/or D => F",
    )


def _check_a5(line, premises, order):
    if len(premises) != 1:
        return RuleVerdict(INVALID, "import/export cites exactly one premise")
    prem = _strict(premises[0])
    concl = _strict(line.statement)
    if prem is None or concl is None:
        return RuleVerdict(INVALID, "premise and conclusion must be strict conditionals")

    # import: from A => (B -> C) infer (A ^ B) => C
    if isinstance(prem[1], MatImp):
        a, inner = prem
        if _conjuncts(concl[0]) == _conjuncts(a) + _conjuncts(inner.left) and concl[1] == inner.right:
            return RuleVerdict(VALID, "import: hypothesis folded into the antecedent")

    # export: from (A ^ B) => C infer A => (B -> C), with optional elision of
    # pinned earlier-region conjuncts inside a counterfactual consequent
    if isinstance(concl[1], MatImp):
        ab = _conjuncts(prem[0])
        a, inner = concl[0], concl[1]
        if _conjuncts(a) + _conjuncts(inner.left) == ab:
            if inner.right == prem[1]:
                return RuleVerdict(VALID, "export: antecedent split around the arrow")
            elided = _elision_ok(prem[1], inner.right, ab, order.earlier_region)
            if elided is not None:
                return RuleVerdict(
                    VALID,
                    "export with elision of pinned earlier-region conjuncts "
                    f"{', '.join(unparse(e) for e in elided)} inside the box",
                )
    return RuleVerdict(
        INVALID,
        f"no import/export match between premise {unparse(premises[0])} and "
        f"conclusion {unparse(line.statement)}",
    )


def _elision_ok(prem_cons, concl_cons, antecedent_conjuncts, earlier):
    """Dropped box conjuncts, if the transformation is a legal elision."""
    pb, cb = _box(prem_cons), _box(concl_cons)
    if pb is None or cb is None or pb[0] != cb[0]:
        return None
    full, reduced = _conjuncts(pb[1]), _conjuncts(cb[1])
    if not _is_subsequence(reduced, full):
        return None
    dropped = [x for x in full if x not in reduced]
    if not dropped:
        return None
    for atom in dropped:
        if not (isinstance(atom, Atom) and atom.region == earlier):
            return None
        if atom not in antecedent_conjuncts:
            return None
    return dropped


def _check_loc1_commute(line, premises, order):
    earlier, later = order.earlier_region, order.later_region
    if len(premises) != 1:
        return RuleVerdict(INVALID, "commute cites exactly one premise")
    prem = _strict(premises[0])
    concl = _strict(line.statement)
    if prem is None or concl is None or prem[0] != concl[0]:
        return RuleVerdict(INVALID, "antecedents must match across the commute")
    if not isinstance(prem[1], MatImp):
        return RuleVerdict(INVALID, "premise consequent must be (E -> [c []-> D])")
    e, prem_box = prem[1].left, _box(prem[1].right)
    concl_box = _box(concl[1])
    if prem_box is None or concl_box is None:
        return RuleVerdict(INVALID, "both sides must carry a counterfactual")
    c, d = prem_box
    c2, inner = concl_box
    shape_ok = (
        c2 == c
        and _is_choice(c, later)
        and isinstance(inner, MatImp)
        and inner.left == e
        and inner.right == d
        and isinstance(e, Atom)
        and e.is_outcome
        and e.region == earlier
        and e.choice() in _conjuncts(concl[0])
    )
    if not shape_ok:
        return RuleVerdict(
            INVALID,
            "expected X => [E -> (c []-> D)] commuting to X => [c []-> (E -> D)] "
            "with E a pinned earlier-region outcome",
        )
    return RuleVerdict(VALID, f"earlier outcome {unparse(e)} is invariant across accessible worlds")


def _check_def(line, premises, order):
    earlier, later = order.earlier_region, order.later_region
    if len(premises) != 1:
        return RuleVerdict(INVALID, "definition step cites exactly one premise")
    prem = _strict(premises[0])
    concl = _strict(line.statement)
    if prem is None or concl is None:
        return RuleVerdict(INVALID, "premise and conclusion must be strict conditionals")
    if not isinstance(prem[1], MatImp):
        return RuleVerdict(INVALID, "premise consequent must be (c -> Y)")
    c, y = prem[1].left, prem[1].right
    box = _box(concl[1])
    if box is None:
        return RuleVerdict(INVALID, "conclusion consequent must be a counterfactual")
    if not (_is_choice(c, later) and box[0] == c and box[1] == y):
        return RuleVerdict(INVALID, "imposed choice and box consequent must match the premise")
    a = _conjuncts(prem[0])
    b = _conjuncts(concl[0])
    if not _is_subsequence(a, b):
        return RuleVerdict(INVALID, "conclusion antecedent must extend the premise antecedent")
    if not all(isinstance(x, Atom) and x.region == earlier for x in a):
        return RuleVerdict(
            INVALID, "premise antecedent must contain only earlier-region atoms"
        )
    extra = [x for x in b if x not in a]
    if not all(isinstance(x, Atom) and x.region == later for x in extra):
        return RuleVerdict(
            INVALID, "extra conclusion conjuncts must be later-region atoms"
        )
    contradicted = [x for x in extra if x.is_choice]
    if len(contradicted) != 1 or contradicted[0] == c:
        return RuleVerdict(
            INVALID,
            "the conclusion must fix exactly one later-region choice that the "
            "imposed choice contradicts",
        )
    return RuleVerdict(
        VALID,
        "accessible worlds satisfy the pinned earlier-region atoms and the imposed choice",
    )


def _check_hypothesis(line, premises, order):
    if premises:
        return RuleVerdict(INVALID, "a hypothesis cites no premises")
    return RuleVerdict(VALID, "assumed for refutation; discharged by the closing contradiction")


# each rule tag and its checker, called as checker(line, premises, order)
# once per script and order (see `_Plan`); the prediction checker returns
# the cell its line pins, or an invalid verdict
_CHECKERS = {
    "PRED21": _check_prediction,
    "PRED22": _check_prediction,
    "PRED23": _check_prediction,
    "PRED24": _check_prediction,
    "B6": _check_b6,
    "A5": _check_a5,
    "B5": _check_b5_b7,
    "B7": _check_b5_b7,
    "LOC1_COMMUTE": _check_loc1_commute,
    "DEF": _check_def,
    "HYPOTHESIS": _check_hypothesis,
}
RULE_TAGS = tuple(_CHECKERS)


def validate_scopes(script: ProofScript) -> list[str]:
    """Structural scope discipline: scopes propagate from cited premises."""
    problems = []
    by_index = {ln.index: ln for ln in script.lines}
    for ln in script.lines:
        required: set[int] = set()
        for p in ln.premises:
            prem = by_index[p]
            required |= set(prem.hypothesis_scope)
            if prem.rule == "HYPOTHESIS":
                required.add(p)
        if not required <= set(ln.hypothesis_scope):
            missing = sorted(required - set(ln.hypothesis_scope))
            problems.append(f"line {ln.index} must carry hypothesis scope {missing}")
        for h in ln.hypothesis_scope:
            if h not in by_index or by_index[h].rule != "HYPOTHESIS":
                problems.append(f"line {ln.index} scoped to non-hypothesis line {h}")
    return problems


class _Plan:
    """What an audit reads off the script alone, for one temporal order.

    `rules` maps each line index to its verdict or, for a prediction
    line, to the cell it pins, which each model confirms or refutes.
    `rules_ok` is the share of `rules_all_valid` that no model changes:
    the scopes, and every verdict but the pinned cells'.
    `program` is None until the first audit compiles the script
    (`compile`); `check_rule` never does.
    """

    def __init__(self, script: ProofScript, order: TemporalOrder):
        self.scope_problems = validate_scopes(script)
        by_index = {ln.index: ln for ln in script.lines}
        self.rules: dict[int, RuleVerdict | World] = {
            ln.index: _CHECKERS[ln.rule](ln, [by_index[i].statement for i in ln.premises], order)
            for ln in script.lines
        }
        self.rules_ok = not self.scope_problems and all(
            rule.ok
            for index, rule in self.rules.items()
            if by_index[index].rule != "HYPOTHESIS" and not isinstance(rule, World)
        )
        self.program: MaskProgram | None = None

    def compile(self, script: ProofScript, order: TemporalOrder) -> MaskProgram:
        """The script as one mask program, keeping the slot of each part an audit reads.

        `lines` has, per line: the slots of its statement and of the two
        parts its existential reading meets (a strict conditional's
        antecedent and consequent, else the statement twice), whether
        the hypothesis scopes it, and its finished `LineAudit`s (see
        `_line_audits`).  `hyp` has the hypothesis's three slots.  Then
        come each side condition's slot, each clash's line pair with
        the slots of its shared antecedent X and of `c []-> c`, and
        `counterpart`: the hypothesis's counterpart's index, its slot
        and the slots of its premise (see `_premise`).  `hyp_index` is
        the hypothesis's index.
        """
        hyp = next((ln.index for ln in script.lines if ln.rule == "HYPOTHESIS"), None)
        clashes, counterpart = (), None
        if hyp is not None:
            clashes = _clashes(script, hyp)
            counterpart = next((ln for ln in script.lines if ln.index == hyp - 1), None)
        formulas = []
        for ln in script.lines:
            formulas += (ln.statement, *(_strict(ln.statement) or (ln.statement,) * 2))
        formulas += [sc.formula for sc in script.side_conditions]
        for _, x, reaches in clashes:
            formulas += (x, reaches)
        if counterpart is not None:
            formulas += (counterpart.statement, *_premise(counterpart.statement))
        program = MaskProgram(formulas, order)  # raises here for an unsupported antecedent
        slots = iter(program.slots)
        self.lines = tuple(
            (next(slots), next(slots), next(slots), hyp in ln.hypothesis_scope,
             *_line_audits(ln, self.rules[ln.index]))
            for ln in script.lines
        )
        self.hyp = next((e[:3] for e, ln in zip(self.lines, script.lines) if ln.index == hyp), None)
        self.sides = tuple(next(slots) for _ in script.side_conditions)
        self.clashes = tuple((pair, next(slots), next(slots)) for pair, _, _ in clashes)
        self.hyp_index = hyp
        self.counterpart = None
        if counterpart is not None:
            self.counterpart = (counterpart.index, next(slots), tuple(slots))
        self.program = program
        return program


def _premise(f: Formula) -> tuple[Formula, ...]:
    """The parts of `f` that a world must satisfy to test it.

    A strict conditional's antecedent and, where its consequent (or `f`,
    if not strict) is a material conditional, that one's antecedent too:
    for line 5, `L2` and `R2 & R2+`.  A statement no possible world
    tests holds vacuously.
    """
    strict = _strict(f)
    parts, body = ((strict[0],), strict[1]) if strict else ((), f)
    return (*parts, body.left) if isinstance(body, MatImp) else parts


def _plan(script: ProofScript, order: TemporalOrder) -> _Plan:
    """The script's plan for `order`, built on first use and kept on the script."""
    plan = script._plans.get(order.earlier_region)
    if plan is None:
        plan = script._plans[order.earlier_region] = _Plan(script, order)
    return plan


def _prediction_verdict(world: World, possible: bool, prob: float | None = None) -> RuleVerdict:
    """A prediction line's verdict on the cell it pins, possible or not, with its probability."""
    cell = _cell(world)
    if world == PARADOX_WORLD:
        if possible:
            return RuleVerdict(VALID, f"witness cell {cell} confirmed possible in the model")
        return RuleVerdict(
            INVALID, f"witness cell {cell} carries no probability above the threshold"
        )
    if possible:
        return RuleVerdict(INVALID, f"cell {cell} carries probability {prob!r}; not a zero cell")
    return RuleVerdict(VALID, f"zero cell {cell} confirmed in the model")


def _line_audits(ln: ProofLine, rule: RuleVerdict | World) -> tuple:
    """A line's `LineAudit`s, as (bit, table) with `table[sem_every, sem_some]`.

    For a fixed verdict the bit is None.  A prediction line has its
    pinned cell's bit and one table for the cell impossible and one for
    it possible; a zero cell has None for the second, since its verdict
    then quotes the model's probability.
    """
    scope = tuple(sorted(ln.hypothesis_scope))

    def table(v):
        table = {
            (e, s): LineAudit(
                ln.index, ln.rule, ln.premises, scope, v.status, v.detail, e, s, ln.note
            )
            for e in (False, True) for s in (False, True)
        }
        for la in table.values():  # each stored report's JSON row, made with the plan
            la._json_row()
        return table

    if not isinstance(rule, World):
        return None, table(rule)
    witness = table(_prediction_verdict(rule, True)) if rule == PARADOX_WORLD else None
    return WORLD_INDEX[rule], (table(_prediction_verdict(rule, False)), witness)


def _clashes(script: ProofScript, hyp_index: int) -> tuple:
    """Scoped/unscoped line pairs asserting D and ~D inside one box.

    Each is ((scoped, unscoped) indices, the shared antecedent X, and
    `c []-> c` for the shared imposed choice c), in the order tried.
    """
    scoped, unscoped = [], []
    for ln in script.lines:
        parts = _strict(ln.statement)
        if parts is None:
            continue
        box = _box(parts[1])
        if box is None:
            continue
        entry = (ln.index, parts[0], box[0], box[1])
        if hyp_index in ln.hypothesis_scope:
            scoped.append(entry)
        elif ln.index != hyp_index:
            unscoped.append(entry)
    return tuple(
        ((i, j), x1, Counterfactual(c1, c1))
        for i, x1, c1, d1 in scoped
        for j, x2, c2, d2 in unscoped
        if x1 == x2 and c1 == c2 and (d2 == Not(d1) or d1 == Not(d2))
    )


# ---------------------------------------------------------------------------
# Semantic audit

class LineAudit(Value):
    """One line's report.  `_row` keeps its JSON row once made, and is not a field."""

    _fields = (
        "index",
        "rule",
        "premises",
        "scope",
        "rule_status",
        "rule_detail",
        "sem_every",
        "sem_some",
        "note",
    )
    __slots__ = (*_fields, "_row")
    _defaults = (None,)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "_row", None)

    @property
    def rule_ok(self) -> bool:
        return self.rule_status == VALID

    @property
    def divergence(self) -> bool:
        return self.sem_every != self.sem_some

    def _json_row(self) -> dict:
        """The line's JSON row, `premises` and `scope` as tuples; made once, so callers copy it."""
        if self._row is None:
            row = {
                "index": self.index,
                "rule": self.rule,
                "premises": self.premises,
                "scope": self.scope,
                "rule_ok": self.rule_ok,
                "rule_status": self.rule_status,
                "rule_detail": self.rule_detail,
                "sem_every": self.sem_every,
                "sem_some": self.sem_some,
                "divergence": self.divergence,
                "note": self.note,
            }
            object.__setattr__(self, "_row", row)
        return self._row


class FinalVerdict(Value):
    """The closing refutation of the hypothesis (line 6) on one model.

    `line5_vacuous` says that no possible world tests the hypothesis's
    counterpart (line 5), and `line6_holds` that the hypothesis itself
    holds under the audit's reading.
    """

    __slots__ = _fields = (
        "line5_true",
        "rules_all_valid",
        "side_conditions_hold",
        "contradiction_lines",
        "bridge_world",
        "detail",
        "line5_vacuous",
        "line6_holds",
    )

    @property
    def line6_refuted(self) -> bool:
        """The derivation goes through, and the model lets it refute line 6.

        Every rule valid, the side conditions met and a clash with a
        bridge world, on a model where line 5 is not vacuous and line 6
        fails, as `check_theorem` asks.
        """
        return bool(
            self.rules_all_valid
            and self.side_conditions_hold
            and self.contradiction_lines
            and self.bridge_world
            and not self.line5_vacuous
            and not self.line6_holds
        )


class AuditReport(Value):
    __slots__ = _fields = ("lines", "final", "notes")

    def to_dict(self) -> dict:
        lines = []
        for la in self.lines:  # a copy of the line's row, with lists of its own
            row = la._json_row().copy()
            row["premises"], row["scope"] = list(la.premises), list(la.scope)
            lines.append(row)
        return {
            "lines": lines,
            "final": {
                "line5_true": self.final.line5_true,
                "line6_refuted": self.final.line6_refuted,
                "rules_all_valid": self.final.rules_all_valid,
                "side_conditions_hold": self.final.side_conditions_hold,
                "contradiction_lines": (
                    list(self.final.contradiction_lines)
                    if self.final.contradiction_lines
                    else None
                ),
                "bridge_world": (
                    f"{self.final.bridge_world.choice_l},{self.final.bridge_world.choice_r},"
                    f"{self.final.bridge_world.outcome_l},{self.final.bridge_world.outcome_r}"
                    if self.final.bridge_world
                    else None
                ),
                "detail": self.final.detail,
            },
            "notes": list(self.notes),
        }

    def render(self) -> str:
        out = ["line  rule          verdict  every  some   flags"]
        for la in self.lines:
            flags = []
            if la.divergence:
                flags.append("DIVERGENT")
            if la.scope:
                flags.append("scope " + ",".join(str(s) for s in la.scope))
            out.append(
                f"{la.index:>4}  {la.rule:<12}  {la.rule_status:<7}  "
                f"{str(la.sem_every):<5}  {str(la.sem_some):<5}  {' '.join(flags)}"
            )
        for note in self.notes:
            out.append(f"note: {note}")
        f = self.final
        out.append(f"final: {f.detail}")
        out.append(
            f"final: line 5 true: {f.line5_true}; line 6 refuted: {f.line6_refuted}"
        )
        return "\n".join(out)


def audit(
    model: Model,
    script: ProofScript | None = None,
    opts: CfOptions = DEFAULT_OPTIONS,
) -> AuditReport:
    """Rule-check every line and read each one semantically, both strengths.

    Hypothesis-scoped lines are reported as material consequences of the
    hypothesis under the same reading.  The final section checks the
    refutation: a scoped and an unscoped line assert complementary
    counterfactual consequents over one antecedent, the side condition
    and a bridging world make them jointly unsatisfiable, and every
    derivation step is rule-valid, so the hypothesis is refuted.  The
    hypothesis's unconditional counterpart (the line just before it)
    must hold outright.  As `check_theorem` asks, the refutation also
    needs that counterpart tested by some possible world (see
    `_premise`) and the hypothesis false under `opts`'s reading; where
    the derivation goes through without them, the detail says which
    failed.

    What reads only the script comes from its plan for `opts.order`,
    including the script compiled into one mask program on the first
    audit, and each line's finished `LineAudit`s; each model runs that
    program once, its counterfactual nodes once per reading, reads the
    pinned cells' bits and looks each line's audit up.
    """
    if script is None:
        script = builtin_script()
    plan = _plan(script, opts.order)
    program = plan.program if plan.program is not None else plan.compile(script, opts.order)
    every, some = program.run(model, ("every", "some"), opts.self_world_when_consistent)
    # each slot's mask lies within the possible worlds, so a mask equal to
    # `mask` holds everywhere, and a nonzero one somewhere
    mask = model.mask
    if plan.hyp is not None:  # scoped lines read as material consequences of it
        s, a, c = plan.hyp
        not_hyp = (every[s] != mask, not some[a] & some[c])

    rules_ok, audits = plan.rules_ok, []
    for s, a, c, scoped, bit, reports in plan.lines:
        # universal reading: no escaping world; existential: a conforming world
        sem_every, sem_some = every[s] == mask, some[a] & some[c] != 0
        if scoped:
            sem_every, sem_some = not_hyp[0] or sem_every, not_hyp[1] or sem_some
        table = reports
        if bit is not None:  # a prediction line: the table for its cell, possible or not
            table = reports[mask >> bit & 1]
            if table is None:  # a possible zero cell: the verdict quotes its probability
                la = reports[0][sem_every, sem_some]
                v = _prediction_verdict(WORLDS[bit], True, model.table.cells[bit])
                fields = (la.index, la.rule, la.premises, la.scope, v.status, v.detail)
                audits.append(LineAudit(*fields, sem_every, sem_some, la.note))
                rules_ok = False
                continue
            rules_ok = rules_ok and table[False, False].rule_ok
        audits.append(table[sem_every, sem_some])

    reading = every if opts.quantifier == "every" else some  # `opts`'s own reading
    side_ok = all(reading[slot] for slot in plan.sides)

    contradiction = None
    bridge = None
    for pair, x, reaches in plan.clashes:
        # the imposed choice holds throughout what it reaches, so `c []-> c`
        # read existentially marks the worlds whose accessible set is nonempty
        bridges = worlds_in(reading[x] & some[reaches])
        if bridges:
            contradiction, bridge = pair, bridges[0]
            break

    # true at every possible world, as `holds_globally` reads
    line5_true = line5_vacuous = False
    if plan.counterpart is not None:
        index, slot, premise = plan.counterpart
        line5_true, tested = reading[slot] == mask, mask
        for part in premise:
            tested &= reading[part]
        line5_vacuous = not tested
    line6_holds = plan.hyp is not None and reading[plan.hyp[0]] == mask

    details = ["scope problems: " + "; ".join(plan.scope_problems)] if plan.scope_problems else []
    details.append(
        f"lines {contradiction[0]} and {contradiction[1]} impose complementary "
        f"box consequents; bridge world {bridge} reaches the clash"
        if contradiction
        else "no complementary counterfactual pair found"
    )
    details.append(f"side conditions hold: {side_ok}; all rules valid: {rules_ok}")
    if rules_ok and side_ok and bridge:  # the derivation goes through: say what withholds it
        reasons = []
        if line5_vacuous:
            reasons.append(f"line {index} holds vacuously: no possible world tests it")
        if line6_holds:
            reasons.append(
                f"line {plan.hyp_index} holds in this model, so the clash at lines "
                f"{contradiction[0]} and {contradiction[1]} does not refute it"
            )
        if reasons:
            details.append("derivation goes through, but " + ", and ".join(reasons))

    final = FinalVerdict(
        line5_true, rules_ok, side_ok, contradiction, bridge, "; ".join(details),
        line5_vacuous, line6_holds,
    )
    return AuditReport(tuple(audits), final, script.notes)

