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
names, which `check_rule` and `audit` read, and each line's finished
report for each pair of readings and state of its named cell.  A
possible zero cell's verdict quotes the model's probability, so for it
the plan keeps a template instead: the report's fixed fields, the
verdict text before and after the probability, and the JSON row for
each pair of readings.  On the first audit under each reading the plan
lays out a mask program of exactly the formulas that reading reads,
each in the reading it is read in (universally, or as its dual, see
`semantics._duals`), and generates one straight-line function that
runs the program and reads the line reports off the plan by the two
readings and the named cells' bits, and the few discrete values the
closing verdict is made from: whether the rules hold, the side
condition, the clash and its bridge world, whether the counterpart
holds and is tested, and whether the hypothesis holds.  The closing
verdict depends on the model only through those values, so the plan
keeps it too, in a table keyed by them and filled as each key is first
met, and the verdict keeps its JSON section once made.

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
    _duals,
    _function,
)
from .semantics import SrRow, sr_truth_table  # noqa: F401  SR's table, importable from here too
from .worlds import WORLDS, Model, World

VALID = "valid"
INVALID = "invalid"


def _is_index(value) -> bool:
    """A line index is an int; a bool is not one."""
    return isinstance(value, int) and value.__class__ is not bool


class ProofLine(Value):
    __slots__ = _fields = ("index", "statement", "rule", "premises", "hypothesis_scope", "note")
    _defaults = ((), frozenset(), None)

    def _check(self):
        if not _is_index(self.index):
            raise ValueError(f"index must be an int, got {self.index!r}")
        if not isinstance(self.statement, Formula):
            raise ValueError(f"statement must be a formula, got {self.statement!r}")
        if not isinstance(self.premises, tuple):
            raise ValueError(f"premises must be a tuple, got {self.premises!r}")
        if not all(map(_is_index, self.premises)):
            raise ValueError(f"premises must be line indices, got {self.premises!r}")
        if not isinstance(self.hypothesis_scope, frozenset):
            raise ValueError(f"hypothesis_scope must be a frozenset, got {self.hypothesis_scope!r}")
        if self.rule not in RULE_TAGS:
            raise ValueError(f"unknown rule tag {self.rule!r}")
        if any(p >= self.index for p in self.premises):
            raise ValueError(f"line {self.index} cites a premise at or after itself")


class SideCondition(Value):
    """A nonemptiness claim: some possible world satisfies the formula."""

    __slots__ = _fields = ("formula", "description")

    def _check(self):
        if not isinstance(self.formula, Formula):
            raise ValueError(f"formula must be a formula, got {self.formula!r}")


class ProofScript(Value):
    """Derivation lines: each index once, each premise a line of the script, or ValueError."""

    _fields = ("lines", "side_conditions", "notes")
    _defaults = ((),)
    # `_plans`: audit plans by earlier region, set empty by `_check`, each built on
    # first use (`_plan`); not a field, so equality, hashing, repr, pickling and
    # copies ignore them
    __slots__ = (*_fields, "_plans", "__weakref__")

    def _check(self):
        parts = (self.lines, self.side_conditions, self.notes)
        for name, value, kind in zip(self._fields, parts, (ProofLine, SideCondition, str)):
            if not isinstance(value, tuple):
                raise ValueError(f"{name} must be a tuple, got {value!r}")
            for item in value:
                if not isinstance(item, kind):
                    raise ValueError(f"{name} must hold {kind.__name__} values, got {item!r}")
        indices = [ln.index for ln in self.lines]
        for ln in self.lines:
            if indices.count(ln.index) > 1:
                raise ValueError(f"line {ln.index} appears more than once")
            for p in ln.premises:
                if p not in indices:
                    raise ValueError(f"line {ln.index} cites line {p}, which the script lacks")
        ProofScript._plans.__set__(self, {})

    def line(self, index: int) -> ProofLine:
        """The line with that index; KeyError if none, as for a non-index such as `True`."""
        if _is_index(index):
            for ln in self.lines:
                if ln.index == index:
                    return ln
        raise KeyError(f"no line {index}")


@cache
def builtin_script() -> ProofScript:
    """The fourteen derivation lines, hypothesis scopes, and side condition.

    Built once and shared: the script and every node in it are frozen.
    Each line is parsed on its own; an audit's mask program gives equal
    subformulas, within a line and across lines, one slot.

    Two normalizations from the printed source are applied and logged in
    the script notes: the mislabeled prediction citation on line 12 is
    read as the fourth prediction, and a stray R2- in the companion
    set-form argument for line 12 is read as R1-.
    """
    h = frozenset({6})
    lines = (
        ProofLine(1, parse("(L2 & R2 & L2+) => (R1 []-> L2 & R1 & L2+)"), "B6"),
        ProofLine(2, parse("(L2 & R2 & R2+) => (L2 & R2 & L2+)"), "PRED21"),
        ProofLine(3, parse("(L2 & R1 & L2+) => (L2 & R1 & R1-)"), "PRED22"),
        ProofLine(4, parse("(L2 & R2 & R2+) => (R1 []-> L2 & R1 & R1-)"), "B7", (1, 2, 3)),
        ProofLine(
            5,
            LINE5,
            "A5",
            (4,),
            note="export plus elision of the pinned L2 inside the box",
        ),
        ProofLine(
            6,
            LINE6,
            "HYPOTHESIS",
            note="line 5 with L2 replaced by L1; assumed, then refuted",
        ),
        ProofLine(7, parse("(L1 & R2 & R2+) => (R1 []-> R1 & R1-)"), "A5", (6,), h),
        ProofLine(8, parse("(L1 & R2 & L1-) => (L1 & R2 & R2+)"), "PRED23", (), h),
        ProofLine(9, parse("(L1 & R2 & L1-) => (R1 []-> R1 & R1-)"), "B5", (7, 8), h),
        ProofLine(10, parse("(L1 & R2) => (L1- -> (R1 []-> R1 & R1-))"), "A5", (9,), h),
        ProofLine(11, parse("(L1 & R2) => (R1 []-> (L1- -> R1 & R1-))"), "LOC1_COMMUTE", (10,), h),
        ProofLine(
            12,
            parse("(L1 & R1) => ~(L1- -> R1 & R1-)"),
            "PRED24",
            note="prediction citation normalized to PRED24",
        ),
        ProofLine(13, parse("L1 => (R1 -> ~(L1- -> R1 & R1-))"), "A5", (12,)),
        ProofLine(14, parse("(L1 & R2) => (R1 []-> ~(L1- -> R1 & R1-))"), "DEF", (13,)),
    )
    side = SideCondition(
        formula=parse("L1 & R1 & L1-"),
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
    if not _is_index(index) or index not in rules:  # `True in rules` finds line 1
        raise KeyError(f"no line {index}")
    rule = rules[index]
    if not isinstance(rule, World):
        return rule
    bit, witness = rule.index, script.line(index).rule == "PRED24"
    return _prediction_verdict(rule, witness, model.mask >> bit & 1, model.table.cells[bit])


_FLIP = {"+": "-", "-": "+"}
_ZERO_SHAPE = "(choices ^ outcome) => (same choices ^ other region's outcome)"
_WITNESS_SHAPE = "(choices) => ~(earlier outcome -> later choice ^ outcome)"


def _cell(world: World) -> tuple[str, str, str]:
    """A cell as reported in rule details: ('L2', 'R2', '-+')."""
    return (world.choice_l, world.choice_r, world.outcome_pair)


def _check_prediction(line, premises, order):
    """The cell a prediction line's statement names, if it has its tag's shape.

    The tag says only what kind of cell: PRED21-23 a zero cell, the
    escaping cell of `_ZERO_SHAPE`, and PRED24 the witness cell of
    `_WITNESS_SHAPE`.  Each shape gives the line's two choices, the
    outcome that holds in the cell and the one that fails (`_named_cell`).
    """
    parts = _strict(line.statement)
    if parts is None:
        return RuleVerdict(INVALID, "prediction lines must be strict conditionals")
    ant, cons, world = _conjuncts(parts[0]), parts[1], None
    if line.rule == "PRED24":  # (cl ^ cr) => ~(holds -> c ^ fails), with c the choice of fails
        shape = _WITNESS_SHAPE
        inner = cons.arg if isinstance(cons, Not) else None
        rest = _conjuncts(inner.right) if isinstance(inner, MatImp) else ()
        c, fails = rest if len(rest) == 2 else (None, None)
        if len(ant) == 2 and isinstance(fails, Atom) and fails.choice() == c:
            world = _named_cell(*ant, inner.left, fails)
    else:  # (cl ^ cr ^ holds) => (cl ^ cr ^ fails)
        shape, cons = _ZERO_SHAPE, _conjuncts(cons)
        if len(ant) == 3 == len(cons) and ant[:2] == cons[:2]:
            world = _named_cell(*ant, cons[2])
    if world is None:
        return RuleVerdict(INVALID, f"expected {shape}, found {unparse(line.statement)}")
    return world


def _named_cell(cl, cr, holds, fails) -> World | None:
    """The cell of choices `cl` and `cr` where `holds` holds and `fails` fails, or None.

    Each outcome must be one of the choice made in its region, and the
    two must lie in different regions; so `cl` is an L choice and `cr`
    an R choice.
    """
    choices = {"L": cl, "R": cr}
    for out in (holds, fails):
        if not (isinstance(out, Atom) and out.is_outcome and out.choice() == choices[out.region]):
            return None
    if holds.region == fails.region:
        return None
    signs = {holds.region: holds.sign, fails.region: _FLIP[fails.sign]}
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
# the cell its line names, or an invalid verdict
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
    line, to the cell it names, which each model confirms or refutes.
    `rules_ok` is the share of `rules_all_valid` that no model changes:
    the scopes, and every verdict but the named cells'.  `hyp_index`
    is the hypothesis's index and `counterpart` the line just before
    it, each None if the script lacks it.  `line_audits` has each
    line's finished `LineAudit`s and zero-cell template (`_line_audits`).
    `audits` maps each reading an audit has met, (quantifier,
    self_world), to the function `compile` generated for it;
    `check_rule` never compiles.
    `finals` maps the discrete values a closing verdict is made from
    (see `audit`) to that `FinalVerdict`, each built when its key is
    first met (`_final_verdict`); its size is bounded by that key
    space, not by the models audited.
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
        hyp = next((ln.index for ln in script.lines if ln.rule == "HYPOTHESIS"), None)
        self.hyp_index = hyp
        self.counterpart = None if hyp is None else by_index.get(hyp - 1)
        self.line_audits = tuple(_line_audits(ln, self.rules[ln.index]) for ln in script.lines)
        self.audits: dict[tuple, object] = {}
        self.finals: dict[tuple, FinalVerdict] = {}

    def compile(self, script: ProofScript, order: TemporalOrder, quantifier: str, self_world: bool):
        """The audit of one model under one reading, as one generated straight-line function.

        The function takes the model's possible-world mask `p` and its
        sixteen cells, and returns the line reports and the key of the
        closing verdict (see `audit`).  Its body is a mask program of
        exactly the formulas the readout reads, each in the reading it
        is read in (`MaskProgram.body`), followed by the readout.  A
        line's statement is read universally and the two parts its
        existential reading meets (`_parts`) as their duals; each line's
        report is its table on the plan indexed by the two readings,
        `T[every == p][some_a & some_c != 0]`; a prediction line
        picks its table by its cell's bit, and a possible zero cell's
        report is made from its template.  The rules hold when the
        plan's verdicts do, no zero cell is possible and every witness
        cell is.  The side conditions, each clash's antecedent, the
        counterpart and the hypothesis are read under `quantifier`, and
        each clash's `c []-> c` as its dual.  The source holds only
        locals, operators, int literals and the plan's named constants
        (`T<i>`, `Z<i>`, `zero_cell`).
        """
        hyp = None if self.hyp_index is None else script.line(self.hyp_index)
        clashes = () if hyp is None else _clashes(script, hyp.index)
        # the formulas each reading reads: the closing verdict's under `quantifier`
        read = {
            "every": [ln.statement for ln in script.lines],
            "some": [part for ln in script.lines for part in _parts(ln.statement)],
        }
        read["some"] += (reaches for _, _, reaches in clashes)
        read[quantifier] += (sc.formula for sc in script.side_conditions)
        read[quantifier] += (x for _, x, _ in clashes)
        if self.counterpart is not None:
            read[quantifier] += (self.counterpart.statement, *_premise(self.counterpart.statement))
        if hyp is not None:
            read[quantifier].append(hyp.statement)
        # raises, as `truth_mask` would, on an antecedent outside the fragment
        program = MaskProgram([*read["every"], *_duals(read["some"])], order)
        local = [f"m{n}" for n in program.slots]
        every = dict(zip(read["every"], local))
        some = dict(zip(read["some"], local[len(read["every"]):]))
        own = every if quantifier == "every" else some  # the closing verdict's reading
        readout, constants = [], {"zero_cell": _zero_cell_audit}
        if hyp is not None:  # scoped lines read as material consequences of it
            a, c = _parts(hyp.statement)
            readout += [
                f"hyp_e = {every[hyp.statement]} != p", f"hyp_s = not {some[a]} & {some[c]}"
            ]
        reports, zero_bits, witness_bits = [], 0, 0
        for i, (ln, (bit, tables, zero)) in enumerate(zip(script.lines, self.line_audits)):
            # universal reading: no escaping world; existential: a conforming world.
            # Each local's mask lies within the possible worlds, so a mask equal
            # to `p` holds everywhere, and a nonzero one somewhere
            a, c = _parts(ln.statement)
            sem_every, sem_some = f"{every[ln.statement]} == p", f"{some[a]} & {some[c]} != 0"
            if self.hyp_index in ln.hypothesis_scope:
                sem_every, sem_some = f"hyp_e or {sem_every}", f"hyp_s or {sem_some}"
            constants[f"T{i}"] = tables
            report = f"T{i}[{sem_every}][{sem_some}]"
            if bit is not None and zero is None:  # a witness cell: its table, possible or not
                report = f"T{i}[p >> {bit} & 1][{sem_every}][{sem_some}]"
                witness_bits |= 1 << bit
            elif bit is not None:  # a possible zero cell: the verdict quotes its probability
                constants[f"Z{i}"] = zero
                report = (
                    f"(zero_cell(Z{i}, cells[{bit}], {sem_every}, {sem_some})"
                    f" if p >> {bit} & 1 else {report})"
                )
                zero_bits |= 1 << bit
            reports.append(report)
        rules_ok = "False"
        if self.rules_ok:
            rules_ok = f"not p & {zero_bits} and p & {witness_bits} == {witness_bits}"
        side_ok = " and ".join(f"{own[sc.formula]} != 0" for sc in script.side_conditions) or "True"
        # the imposed choice holds throughout what it reaches, so `c []-> c`
        # read existentially marks the worlds whose accessible set is nonempty
        found = "(None, 0)"
        for k, (pair, x, reaches) in reversed(tuple(enumerate(clashes))):
            readout.append(f"b{k} = {own[x]} & {some[reaches]}")
            found = f"({pair}, b{k}) if b{k} else {found}"
        readout += [  # the first bridge world, in canonical order, is the lowest bit
            f"contradiction, bridges = {found}",
            "bridge = (bridges & -bridges).bit_length() - 1 if bridges else None",
        ]
        # true at every possible world, as `holds_globally` reads
        line5_true = line5_vacuous = "False"
        if self.counterpart is not None:
            statement = self.counterpart.statement
            line5_true = f"{own[statement]} == p"
            line5_vacuous = "not " + " & ".join(["p", *(own[f] for f in _premise(statement))])
        line6_holds = "False" if hyp is None else f"{own[hyp.statement]} == p"
        key = (rules_ok, side_ok, "contradiction", "bridge", line5_true, line5_vacuous, line6_holds)
        result = "(" + "".join(f"{r}, " for r in reports) + "), (" + ", ".join(key) + ")"
        body = program.body(self_world) + readout
        run = _function("p, cells", body, result, "<proof audit>", **constants)
        self.audits[quantifier, self_world] = run
        return run


def _parts(f: Formula) -> tuple[Formula, Formula]:
    """The two parts `f`'s existential reading meets: a strict conditional's
    antecedent and consequent, else `f` twice."""
    return _strict(f) or (f, f)


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
    if not isinstance(script, ProofScript):
        raise ValueError(f"script must be a ProofScript, got {script!r}")
    plan = script._plans.get(order.earlier_region)
    if plan is None:
        plan = script._plans[order.earlier_region] = _Plan(script, order)
    return plan


def _prediction_verdict(world: World, witness: bool, possible: bool, prob=None) -> RuleVerdict:
    """A prediction line's verdict on the witness or zero cell it names, possible or not,
    with its probability."""
    cell = _cell(world)
    if witness:
        if possible:
            return RuleVerdict(VALID, f"witness cell {cell} confirmed possible in the model")
        return RuleVerdict(
            INVALID, f"witness cell {cell} carries no probability above the threshold"
        )
    if possible:
        head, tail = _not_a_zero_cell(world)
        return RuleVerdict(INVALID, f"{head}{prob!r}{tail}")
    return RuleVerdict(VALID, f"zero cell {cell} confirmed in the model")


def _not_a_zero_cell(world: World) -> tuple[str, str]:
    """The verdict on a possible zero cell, before and after the probability it quotes."""
    return f"cell {_cell(world)} carries probability ", "; not a zero cell"


def _line_audits(ln: ProofLine, rule: RuleVerdict | World) -> tuple:
    """A line's `LineAudit`s, as (bit, tables, zero), each table `table[sem_every][sem_some]`.

    For a fixed verdict the bit and `zero` are None, and `tables` is its
    one table.  A prediction line has its named cell's bit.  A witness
    cell (PRED24) has a pair of tables, one for the cell impossible and
    one for it possible, and `zero` None.  A zero cell has the table for
    it impossible alone, since its verdict when possible quotes the
    model's probability, and `zero` is its template instead (see
    `_zero_cell_audit`): the report's fixed fields, the verdict before
    and after the probability, and its JSON row for each pair of
    readings, indexed as a table is, with no detail.
    """
    scope = tuple(sorted(ln.hypothesis_scope))

    def table(status, detail):
        return tuple(
            tuple(
                LineAudit(ln.index, ln.rule, ln.premises, scope, status, detail, e, s, ln.note)
                for s in (False, True)
            )
            for e in (False, True)
        )

    if not isinstance(rule, World):
        return None, table(rule.status, rule.detail), None
    witness = ln.rule == "PRED24"
    impossible = _prediction_verdict(rule, witness, False)
    reports = table(impossible.status, impossible.detail)
    if witness:
        possible = _prediction_verdict(rule, witness, True)
        return rule.index, (reports, table(possible.status, possible.detail)), None
    rows = tuple(tuple(la._json_row() for la in pair) for pair in table(INVALID, None))
    fixed = (ln.index, ln.rule, ln.premises, scope, ln.note)
    return rule.index, reports, (fixed, *_not_a_zero_cell(rule), rows)


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
    """One line's report.

    `_row` keeps its JSON row once made (`_json_row`), is unset until
    then, and is not a field.
    """

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

    @property
    def rule_ok(self) -> bool:
        return self.rule_status == VALID

    @property
    def divergence(self) -> bool:
        return self.sem_every != self.sem_some

    def _json_row(self) -> dict:
        """The line's JSON row, `premises` and `scope` as tuples; made once, so callers copy it."""
        try:
            return self._row
        except AttributeError:
            _set_row(self, {
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
            })
            return self._row


_set_row = LineAudit._row.__set__


def _zero_cell_audit(zero: tuple, prob: float, sem_every: bool, sem_some: bool) -> LineAudit:
    """A zero-cell line's report on a model where its cell is possible, with probability `prob`.

    `zero` is the line's template from the plan (`_line_audits`); the
    report and its JSON row are its fields and row with the verdict
    that quotes `prob`.
    """
    (index, rule, premises, scope, note), head, tail, rows = zero
    detail = f"{head}{prob!r}{tail}"
    la = LineAudit(index, rule, premises, scope, INVALID, detail, sem_every, sem_some, note)
    row = rows[sem_every][sem_some].copy()
    row["rule_detail"] = detail
    _set_row(la, row)
    return la


class FinalVerdict(Value):
    """The closing refutation of the hypothesis (line 6) on one model.

    `line5_vacuous` says that no possible world tests the hypothesis's
    counterpart (line 5), and `line6_holds` that the hypothesis itself
    holds under the audit's reading.  `_section` keeps its JSON section
    once made (`_json_section`), is unset until then, and is not a field.
    """

    _fields = (
        "line5_true",
        "rules_all_valid",
        "side_conditions_hold",
        "contradiction_lines",
        "bridge_world",
        "detail",
        "line5_vacuous",
        "line6_holds",
    )
    __slots__ = (*_fields, "_section")

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

    def _json_section(self) -> dict:
        """The verdict's JSON section, `contradiction_lines` a tuple; made once, so callers copy it."""
        try:
            return self._section
        except AttributeError:
            world = self.bridge_world
            _set_section(self, {
                "line5_true": self.line5_true,
                "line6_refuted": self.line6_refuted,
                "rules_all_valid": self.rules_all_valid,
                "side_conditions_hold": self.side_conditions_hold,
                "contradiction_lines": self.contradiction_lines or None,
                "bridge_world": (
                    f"{world.choice_l},{world.choice_r},{world.outcome_l},{world.outcome_r}"
                    if world
                    else None
                ),
                "detail": self.detail,
            })
            return self._section


_set_section = FinalVerdict._section.__set__


class AuditReport(Value):
    __slots__ = _fields = ("lines", "final", "notes")

    def to_dict(self) -> dict:
        lines = []
        for la in self.lines:  # a copy of the line's row, with lists of its own
            row = la._json_row().copy()
            row["premises"], row["scope"] = list(la.premises), list(la.scope)
            lines.append(row)
        final = self.final._json_section().copy()  # and of the closing verdict's section
        if final["contradiction_lines"] is not None:
            final["contradiction_lines"] = list(final["contradiction_lines"])
        return {"lines": lines, "final": final, "notes": list(self.notes)}

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

    What reads only the script comes from its plan for `opts.order`:
    on the first audit under `opts`'s reading, the plan generates one
    function that runs the mask program of the parts that reading
    reads, and reads each line's finished `LineAudit` off the plan by
    the two readings and the named cells' bits, and
    the values the closing verdict is made from (see `_Plan.compile`).
    The verdict is looked up by those values in a table on the plan.
    Only a possible zero cell's report is built for the model, from its
    line's template.
    """
    if script is None:
        script = builtin_script()
    plan = _plan(script, opts.order)
    reading = (opts.quantifier, opts.self_world_when_consistent)
    run = plan.audits.get(reading) or plan.compile(script, opts.order, *reading)
    audits, key = run(model.mask, model.table.cells)
    final = plan.finals.get(key)
    if final is None:
        final = plan.finals[key] = _final_verdict(plan, *key)
    return AuditReport(audits, final, script.notes)


def _final_verdict(
    plan: _Plan,
    rules_ok: bool,
    side_ok: bool,
    contradiction: tuple[int, int] | None,
    bridge: int | None,
    line5_true: bool,
    line5_vacuous: bool,
    line6_holds: bool,
) -> FinalVerdict:
    """The closing verdict from the values `audit` reads off a model; `bridge` is a world's bit."""
    world = None if bridge is None else WORLDS[bridge]
    details = ["scope problems: " + "; ".join(plan.scope_problems)] if plan.scope_problems else []
    details.append(
        f"lines {contradiction[0]} and {contradiction[1]} impose complementary "
        f"box consequents; bridge world {world} reaches the clash"
        if contradiction
        else "no complementary counterfactual pair found"
    )
    details.append(f"side conditions hold: {side_ok}; all rules valid: {rules_ok}")
    if rules_ok and side_ok and world:  # the derivation goes through: say what withholds it
        reasons = []
        if line5_vacuous:
            reasons.append(
                f"line {plan.counterpart.index} holds vacuously: no possible world tests it"
            )
        if line6_holds:
            reasons.append(
                f"line {plan.hyp_index} holds in this model, so the clash at lines "
                f"{contradiction[0]} and {contradiction[1]} does not refute it"
            )
        if reasons:
            details.append("derivation goes through, but " + ", and ".join(reasons))
    return FinalVerdict(
        line5_true, rules_ok, side_ok, contradiction, world, "; ".join(details),
        line5_vacuous, line6_holds,
    )
