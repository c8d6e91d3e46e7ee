"""Evaluation of formulas at worlds and across a whole model.

A formula denotes a set of possible worlds, held as a 16-bit mask in
the canonical world order (`truth_mask`); truth at a world, global
truth, counterexamples and the theorem check are all read off that one
set.  Counterfactual antecedents are checked for the whole formula up
front: an antecedent outside the fragment is an error wherever it sits,
even under a connective whose other side already settles the value.

The walk (`truth_mask`) evaluates everything but the proof audit, the
theorem check included.  Only the audit's fixed script is compiled,
once per reading, into a `MaskProgram` of the parts that reading
reads: a straight-line list of their distinct subformulas, one slot
for each value however many objects spell it, written out into the
reading's one generated function (`proof`).

Three conditionals with three different scopes:

* material (->): world-local, false antecedent or true consequent;
* strict (=>): global, the antecedent's worlds are contained in the
  consequent's worlds over all physically possible worlds;
* counterfactual ([]->): at a world w, the consequent must hold in the
  worlds that differ from w only by the effects of imposing the
  antecedent choice.  Read existentially ('some': in one of them), it
  is the universal reading of its dual `~(c []-> ~B)`, Lewis's "might"
  counterfactual, so the rule is stated once (`_emit`, `_duals`).

The accessibility relation encodes the one-frame no-backward-influence
condition: imposing a later-region choice keeps the earlier region's
choice and recorded outcome fixed, while the later region's outcome
ranges over everything the table leaves possible.

The region-R statement SR and the two conclusion lines, 5 and 6, live
here: each as its text (`SR_TEXT`, `LINE5_TEXT`, `LINE6_TEXT`), and
the two lines as formulas parsed once at import (`LINE5`, `LINE6`),
which `check_theorem` and the proof script read; SR's sixteen-row
truth table (`sr_truth_table`) lives here too.
The prediction cells that `hardy_conformance` checks live in `worlds`.
"""

from __future__ import annotations

from functools import cache

from .formula import (
    OUTCOME_ATOMS,
    And,
    Atom,
    Counterfactual,
    Formula,
    MatImp,
    Not,
    Or,
    StrictImp,
    Value,
    parse,
)
from .worlds import (
    ATOM_MASKS,
    FORBIDDEN_WORLDS,
    PARADOX_WORLD,
    Model,
    World,
    worlds_in,
)


class UnsupportedCounterfactualError(ValueError):
    """Counterfactual antecedent outside the defined fragment."""


class TemporalOrder(Value):
    """Which region precedes the cut time in the preferred frame."""

    __slots__ = _fields = ("earlier_region",)
    _defaults = ("L",)

    def _check(self):
        if self.earlier_region not in ("L", "R"):
            raise ValueError(f"earlier_region must be 'L' or 'R', got {self.earlier_region!r}")

    @property
    def later_region(self) -> str:
        return "R" if self.earlier_region == "L" else "L"


L_EARLIER = TemporalOrder("L")


class CfOptions(Value):
    __slots__ = _fields = ("order", "quantifier", "self_world_when_consistent")
    # `quantifier` is 'every' or 'some', over accessible worlds
    _defaults = (L_EARLIER, "every", True)

    def _check(self):
        if self.order.__class__ is not TemporalOrder:
            raise ValueError(f"order must be a TemporalOrder, got {self.order!r}")
        if self.quantifier not in ("every", "some"):
            raise ValueError(f"quantifier must be 'every' or 'some', got {self.quantifier!r}")
        if self.self_world_when_consistent.__class__ is not bool:
            raise ValueError(
                "self_world_when_consistent must be True or False, "
                f"got {self.self_world_when_consistent!r}"
            )


DEFAULT_OPTIONS = CfOptions()


def _possible_index(model: Model, world: World) -> int:
    """The world's bit in the canonical order, if the world is possible in `model`."""
    i = world.index if type(world) is World else None
    if i is None or not model.mask >> i & 1:
        raise ValueError(f"world {world} is not possible in this model")
    return i


def _imposable(choice: Formula, order: TemporalOrder) -> Atom:
    """The antecedent as a choice the temporal order lets be imposed."""
    if not (isinstance(choice, Atom) and choice.is_choice):
        raise UnsupportedCounterfactualError(
            f"counterfactual antecedent must be a choice atom, got {choice}"
        )
    if choice.region != order.later_region:
        raise UnsupportedCounterfactualError(
            f"counterfactual antecedent {choice.name} picks the earlier region; "
            "only later-region choices can be imposed"
        )
    return choice


# each region's four (choice, outcome) cells, as world masks
_CELL_MASKS = {r: tuple(ATOM_MASKS[a] for a in OUTCOME_ATOMS if a[0] == r) for r in ("L", "R")}


def truth_mask(model: Model, f: Formula, opts: CfOptions = DEFAULT_OPTIONS) -> int:
    """The possible worlds where `f` holds, as a world-set mask.

    A strict conditional denotes all possible worlds or none.  A
    counterfactual holds at a world when the worlds its antecedent
    reaches lie inside the consequent's set ('every', `_reach_rule`).
    'some', where they meet it, is read as the dual `~(c []-> ~B)` of
    that one rule.  A node of any other class, a subclass included, is
    a TypeError.
    """
    possible = model.mask
    kind = type(f)
    if kind is Atom:
        return ATOM_MASKS[f.name] & possible
    if kind is Not:
        return possible & ~truth_mask(model, f.arg, opts)
    if kind is Counterfactual:
        left, self_world = f.left, opts.self_world_when_consistent
        # only an exact Atom is looked up by name: `_REACH` keys are names already checked
        key = (left.name, opts.order.earlier_region, self_world) if type(left) is Atom else None
        rule = _REACH.get(key)
        if rule is None:
            rule = _reach_rule(left, opts.order, self_world)
        consequent = truth_mask(model, f.right, opts)
        if opts.quantifier == "every":
            return rule(possible, consequent)
        return possible & ~rule(possible, possible & ~consequent)
    if kind is And:
        return truth_mask(model, f.left, opts) & truth_mask(model, f.right, opts)
    if kind is Or:
        return truth_mask(model, f.left, opts) | truth_mask(model, f.right, opts)
    if kind is MatImp:
        return possible & (~truth_mask(model, f.left, opts) | truth_mask(model, f.right, opts))
    if kind is StrictImp:
        bad = truth_mask(model, f.left, opts) & ~truth_mask(model, f.right, opts)
        return 0 if bad else possible
    raise TypeError(f"not a formula node: {f!r}")


# (checked antecedent's name, earlier region, self-world) -> its `_reach_rule`, at most 8
_REACH: dict[tuple, object] = {}


def _reach_rule(choice: Formula, order: TemporalOrder, self_world: bool):
    """`c []-> B` read universally, from the possible-world mask and B's, for the antecedent c.

    Generated from `_emit`'s template once per key, which is stored only after `_imposable`.
    """
    name = _imposable(choice, order).name
    key = (name, order.earlier_region, self_world)
    if key not in _REACH:
        code = [(1, (_CF, 0, (ATOM_MASKS[name], _CELL_MASKS[order.earlier_region])))]
        _REACH[key] = _function("p, m0", _emit(code, self_world), "m1", "<counterfactual>")
    return _REACH[key]


def _duals(formulas) -> list[Formula]:
    """Each formula with each `c []-> B` in it turned into `~(c []-> ~B')`, B' B's dual.

    `~(c []-> ~B)` is Lewis's "might" counterfactual: a formula holds
    under 'some' exactly where its dual holds under 'every', so one
    reach rule serves both readings.  A counterfactual-free subformula
    is its own dual, returned as it is, and `~~x` is written `x`.
    Equal subformulas have equal duals, which a `MaskProgram` gives one
    slot whatever objects they are.  Antecedents are kept as they are,
    in the same order, so a dual raises the error its formula raises; a
    node of a foreign class is left for the evaluator to refuse.
    """
    def negated(f: Formula) -> Formula:
        return f.arg if type(f) is Not else Not(f)

    def dual(f: Formula) -> Formula:
        kind = type(f)
        if kind is Counterfactual:
            return Not(Counterfactual(f.left, negated(dual(f.right))))
        if kind is Not:
            arg = dual(f.arg)
            return f if arg is f.arg else negated(arg)
        if kind in _BINARY:
            left, right = dual(f.left), dual(f.right)
            return f if left is f.left and right is f.right else kind(left, right)
        return f

    return [dual(f) for f in formulas]


# a mask program's opcodes; an instruction is (op, a, b): an atom's mask
# and None for _ATOM, the consequent's slot and (imposed choice mask, cell
# masks) for _CF, the operand slots for the others (b None for _NOT)
_AND, _OR, _MATIMP, _STRICT, _NOT, _CF, _ATOM = range(7)
_BINARY = {And: _AND, Or: _OR, MatImp: _MATIMP, StrictImp: _STRICT}


class MaskProgram:
    """A fixed set of formulas compiled into a straight-line world-mask program.

    Each distinct node has one slot, its place in `code`, which lists
    the nodes children first.  A node's slot is looked up by its
    instruction, made from its operands' slots, so equal subformulas
    share a slot whether or not they are one object.  `slots[i]` is the
    slot of `formulas[i]`.  Every slot's mask lies within the model's
    possible worlds.  A counterfactual is read universally: the
    existential reading of a formula is the universal reading of its
    dual (`_duals`), so a formula read that way is laid out as its
    dual, and a slot has one reading.

    `body` writes the whole program out as straight-line Python
    (`_emit`): slot n the local `m<n>`, each instruction one
    assignment.  The program is never run on its own: the audit lays
    out only what a reading reads, appends its readout to the body and
    compiles the two into one function (see `proof._Plan.compile`).

    An antecedent outside the fragment raises the error `truth_mask`
    raises, for the first such counterfactual `truth_mask` would meet
    evaluating the formulas in order.
    """

    __slots__ = ("code", "slots")

    def __init__(self, formulas, order: TemporalOrder = L_EARLIER):
        cells = _CELL_MASKS[order.earlier_region]
        numbered: dict[tuple, int] = {}  # an instruction met -> its slot

        def number(f) -> int:  # visits nodes in `truth_mask`'s order, so errors match
            if type(f) is Atom:
                node = (_ATOM, ATOM_MASKS[f.name], None)
            elif type(f) is Not:
                node = (_NOT, number(f.arg), None)
            elif type(f) is Counterfactual:
                imposed = ATOM_MASKS[_imposable(f.left, order).name]
                node = (_CF, number(f.right), (imposed, cells))
            else:
                op = _BINARY.get(type(f))
                if op is None:
                    raise TypeError(f"not a formula node: {f!r}")
                node = (op, number(f.left), number(f.right))
            return numbered.setdefault(node, len(numbered))

        self.slots = tuple(number(f) for f in formulas)
        self.code = tuple(numbered)  # the instructions, in slot order

    def __len__(self) -> int:
        return len(self.code)

    def body(self, self_world: bool) -> list[str]:
        """Source lines that set every slot's local from the possible-world mask `p`."""
        return _emit(enumerate(self.code), self_world)


def _emit(instructions, self_world: bool) -> list[str]:
    """Numbered instructions, (n, instruction), as straight-line assignments to locals.

    Slot n is the local `m<n>`, and each instruction one assignment,
    reading the possible-world mask `p`.  A counterfactual has one
    template, the universal reading: a cell of the earlier region, all
    of whose worlds reach the same worlds, holds it unless what it
    reaches escapes the consequent; the existential reading is the
    universal reading of the dual (`_duals`).  `self_world` is fixed
    here, so the code never branches on it.  The worlds a cell reaches,
    `p & imposed & cell`, are the local `r<imposed & cell>`, set before
    the choice's first counterfactual.  The lines hold only locals,
    operators and int literals.
    """
    lines, imposed_seen = [], set()
    for n, (op, a, b) in instructions:
        if op == _ATOM:
            value = f"{a} & p"
        elif op == _NOT:
            value = f"p & ~m{a}"
        elif op == _AND:
            value = f"m{a} & m{b}"
        elif op == _OR:
            value = f"m{a} | m{b}"
        elif op == _MATIMP:
            value = f"p & (~m{a} | m{b})"
        elif op == _STRICT:
            value = f"0 if m{a} & ~m{b} else p"
        else:  # _CF
            imposed, cells = b
            if imposed not in imposed_seen:
                imposed_seen.add(imposed)
                lines += [f"r{imposed & c} = p & {imposed & c}" for c in cells]
            # with the self world, a world where the choice holds reaches itself,
            # so the cells give only the worlds outside the choice
            kept = [c & ~imposed if self_world else c for c in cells]
            value = " | ".join(
                f"(0 if r{imposed & c} & ~m{a} else {k})" for c, k in zip(cells, kept)
            )
            if self_world:
                value = f"{value} | {imposed} & m{a}"
            value = f"({value}) & p"
        lines.append(f"m{n} = {value}")
    return lines


def _function(params: str, body: list[str], result: str, name: str, **constants):
    """`def f(<params>): <body>; return <result>`, compiled under the file name `name`.

    It runs in a namespace of its own with no builtins, holding only
    `constants`.
    """
    source = "\n    ".join([f"def generated({params}):", *body, f"return {result}"])
    namespace = {**constants, "__builtins__": {}}
    exec(compile(source, name, "exec"), namespace)
    return namespace["generated"]


def eval_at(model: Model, world: World, f: Formula, opts: CfOptions = DEFAULT_OPTIONS) -> bool:
    """Truth of `f` at a possible world.

    Strict conditionals are world-independent and evaluate to their
    global value, so the evaluator is total on the whole language.
    """
    i = _possible_index(model, world)
    return bool(truth_mask(model, f, opts) >> i & 1)


class GlobalCheck(Value):
    __slots__ = _fields = ("holds", "witness", "counterexamples")


def holds_globally(
    model: Model, f: Formula, opts: CfOptions = DEFAULT_OPTIONS
) -> GlobalCheck:
    """Global truth with a counterexample witness on failure.

    A strict conditional holds iff no possible world satisfies its
    antecedent together with the negated consequent.  Any other formula
    holds globally iff it is true at every possible world.  The witness
    is the first counterexample in canonical world order.  Formulas that
    fail at the same worlds get the same check, one shared value per
    counterexample mask (`_global_check`).
    """
    if type(f) is StrictImp:
        bad = truth_mask(model, f.left, opts) & ~truth_mask(model, f.right, opts)
    else:
        bad = model.mask & ~truth_mask(model, f, opts)
    return _global_check(bad)


@cache
def _global_check(bad: int) -> GlobalCheck:
    """The check whose counterexamples are the worlds of the mask `bad`, made once per mask.

    A check is frozen and fixed by its mask, so every call with the mask
    shares it, and an evaluation keeps no new object alive for the
    garbage collector to trace.  A mask is a set of the sixteen worlds,
    so the table holds at most 65,536 checks.  Its counterexamples are
    listed once, by `worlds_in`, on the mask's first use.
    """
    worlds = tuple(worlds_in(bad))
    return GlobalCheck(not worlds, worlds[0] if worlds else None, worlds)


# ---------------------------------------------------------------------------
# The dependence theorem: one region's statement flips with the faraway choice

SR_TEXT = "(R2 & R2+) -> (R1 []-> R1 & R1-)"
LINE5_TEXT = f"L2 => {SR_TEXT}"
LINE6_TEXT = f"L1 => {SR_TEXT}"
LINE5 = parse(LINE5_TEXT)
LINE6 = parse(LINE6_TEXT)


class TheoremReport(Value):
    """Both conclusion lines on one model, and whether they show the dependence.

    The dependence is confirmed only on a table that realizes Hardy's
    four predictions, where line 5 holds with some possible world
    satisfying its premise (an L2 world with R2+) and line 6 fails.
    Without the predictions a table of local strategies can satisfy
    both lines, and a line 5 that no world tests holds vacuously.
    """

    __slots__ = _fields = (
        "hardy_conforming", "conformance_detail", "line5", "line6", "line5_vacuous"
    )

    @property
    def sr_true_on_all_l2_worlds(self) -> bool:
        """Line 5, `L2 => SR`, holds exactly when no possible L2 world falsifies SR."""
        return self.line5.holds

    @property
    def sr_false_l1_witness(self) -> World | None:
        """Line 6's witness is the first possible L1 world where SR is false."""
        return self.line6.witness

    @property
    def confirmed(self) -> bool:
        return (
            self.hardy_conforming
            and not self.line5_vacuous
            and self.line5.holds
            and not self.line6.holds
        )

    def render(self) -> str:
        lines = [
            f"hardy-conforming table: {'yes' if self.hardy_conforming else 'NO'}"
            + ("" if self.hardy_conforming else f"  ({self.conformance_detail})"),
            f"line 5  {LINE5_TEXT}",
            f"        holds: {self.line5.holds}"
            + ("" if self.line5.holds else f"  witness {self.line5.witness}")
            + ("  (vacuously: no possible L2 world has R2+)" if self.line5_vacuous else ""),
            f"line 6  {LINE6_TEXT}",
            f"        holds: {self.line6.holds}"
            + ("" if self.line6.holds else f"  witness {self.line6.witness}"),
        ]
        if self.line6.counterexamples:
            worlds = ", ".join(str(w) for w in self.line6.counterexamples)
            lines.append(f"        all counterexamples: {worlds}")
        lines.append(
            f"SR true at every possible L2 world: {self.sr_true_on_all_l2_worlds}"
        )
        if self.sr_false_l1_witness is not None:
            lines.append(f"SR false at L1 world: {self.sr_false_l1_witness}")
        lines.append(
            "dependence confirmed: "
            + ("yes" if self.confirmed else "NO")
            + " (the R-region statement's truth tracks the faraway L choice)"
        )
        return "\n".join(lines)


# each forbidden cell's problem text and bit, then the paradox cell's
_FORBIDDEN_BITS = tuple(
    (f"forbidden world {w} is possible", 1 << w.index) for w in FORBIDDEN_WORLDS
)
_PARADOX_PROBLEM = f"paradox world {PARADOX_WORLD} is not possible"
_PARADOX_BIT = 1 << PARADOX_WORLD.index


def hardy_conformance(model: Model) -> tuple[bool, str]:
    """Does the model's possibility pattern realize the four predictions?"""
    mask = model.mask
    problems = [problem for problem, bit in _FORBIDDEN_BITS if mask & bit]
    if not mask & _PARADOX_BIT:
        problems.append(_PARADOX_PROBLEM)
    if problems:
        return False, "; ".join(problems)
    return True, "all four prediction cells conform"


def check_theorem(model: Model, opts: CfOptions = DEFAULT_OPTIONS) -> TheoremReport:
    """Evaluate both conclusion lines and the dependence they exhibit.

    Proceeds even on a non-conforming model; the report records the
    conformance check separately, and confirms the dependence only on a
    conforming model where line 5 is not vacuous.  SR, both lines'
    consequent, is walked once, and each line read off it as
    `holds_globally` reads a strict conditional.
    """
    conforming, detail = hardy_conformance(model)
    sr = truth_mask(model, LINE5.right, opts)  # line 6's consequent is the same SR
    return TheoremReport(
        conforming,
        detail,
        _global_check(truth_mask(model, LINE5.left, opts) & ~sr),
        _global_check(truth_mask(model, LINE6.left, opts) & ~sr),
        not model.mask & ATOM_MASKS["L2"] & ATOM_MASKS["R2+"],  # line 5 vacuous
    )


# ---------------------------------------------------------------------------
# The sixteen-row truth table behind the dependence claim

class SrRow(Value):
    __slots__ = _fields = ("ra", "ra_plus", "rc", "rc_minus")

    @property
    def sr(self) -> bool:
        return (not (self.ra and self.ra_plus and self.rc)) or self.rc_minus


def sr_truth_table() -> list[SrRow]:
    """All assignments to (RA, RA+, RC, RC-); exactly one makes SR false."""
    values = (True, False)
    return [
        SrRow(ra, ra_plus, rc, rc_minus)
        for ra in values
        for ra_plus in values
        for rc in values
        for rc_minus in values
    ]


__all__ = [
    "CfOptions",
    "DEFAULT_OPTIONS",
    "GlobalCheck",
    "L_EARLIER",
    "MaskProgram",
    "SrRow",
    "TemporalOrder",
    "TheoremReport",
    "UnsupportedCounterfactualError",
    "check_theorem",
    "eval_at",
    "hardy_conformance",
    "holds_globally",
    "sr_truth_table",
    "truth_mask",
]
