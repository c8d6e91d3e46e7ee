"""Evaluation of formulas at worlds and across a whole model.

A formula denotes a set of possible worlds, held as a 16-bit mask in
the canonical world order (`truth_mask`); truth at a world, global
truth, counterexamples and the theorem check are all read off that one
set.  Counterfactual antecedents are checked for the whole formula up
front: an antecedent outside the fragment is an error wherever it sits,
even under a connective whose other side already settles the value.

A fixed set of formulas read on many models, such as the proof script
or the two conclusion lines, is compiled once into a `MaskProgram`: a
straight-line list of the set's distinct nodes that each model runs
without walking a tree.

Three conditionals with three different scopes:

* material (->): world-local, false antecedent or true consequent;
* strict (=>): global, the antecedent's worlds are contained in the
  consequent's worlds over all physically possible worlds;
* counterfactual ([]->): at a world w, the consequent must hold in the
  worlds that differ from w only by the effects of imposing the
  antecedent choice.

The accessibility relation encodes the one-frame no-backward-influence
condition: imposing a later-region choice keeps the earlier region's
choice and recorded outcome fixed, while the later region's outcome
ranges over everything the table leaves possible.

The region-R statement SR and the two conclusion lines, 5 and 6, live
here: each as its text (`SR_TEXT`, `LINE5_TEXT`, `LINE6_TEXT`), and
the two lines as formulas built once at import (`LINE5`, `LINE6`, one
SR node between them), which `check_theorem` and the proof script
read; SR's sixteen-row truth table (`sr_truth_table`) lives here too.
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
    WORLD_INDEX,
    _HIGH,
    _LOW,
    Model,
    World,
    worlds_in,
)


class UnsupportedCounterfactualError(ValueError):
    """Counterfactual antecedent outside the defined fragment."""


class TemporalOrder(Value):
    """Which region precedes the cut time in the preferred frame."""

    __slots__ = _fields = ("earlier_region",)

    def __init__(self, earlier_region: str = "L"):
        if earlier_region not in ("L", "R"):
            raise ValueError(f"earlier_region must be 'L' or 'R', got {earlier_region!r}")
        object.__setattr__(self, "earlier_region", earlier_region)

    @property
    def later_region(self) -> str:
        return "R" if self.earlier_region == "L" else "L"


L_EARLIER = TemporalOrder("L")


class CfOptions(Value):
    __slots__ = _fields = ("order", "quantifier", "self_world_when_consistent")

    def __init__(
        self,
        order: TemporalOrder = L_EARLIER,
        quantifier: str = "every",  # 'every' or 'some', over accessible worlds
        self_world_when_consistent: bool = True,
    ):
        if quantifier not in ("every", "some"):
            raise ValueError(f"quantifier must be 'every' or 'some', got {quantifier!r}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "quantifier", quantifier)
        object.__setattr__(self, "self_world_when_consistent", self_world_when_consistent)


DEFAULT_OPTIONS = CfOptions()


def _possible_index(model: Model, world: World) -> int:
    """The world's bit in the canonical order, if the world is possible in `model`."""
    i = WORLD_INDEX.get(world)
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


def accessible(
    model: Model,
    world: World,
    choice: Atom,
    order: TemporalOrder = L_EARLIER,
    self_world_when_consistent: bool = True,
) -> list[World]:
    """Worlds reachable from `world` by imposing a later-region choice.

    If the choice already holds, nothing is contradicted and the world
    itself is the only member (when `self_world_when_consistent`).
    Otherwise: the earlier region's choice and outcome are pinned, the
    imposed choice holds, and the later outcome is unconstrained.
    Returned in canonical world order.
    """
    _imposable(choice, order)
    i = _possible_index(model, world)
    imposed = ATOM_MASKS[choice.name]
    if self_world_when_consistent and imposed >> i & 1:
        return [world]
    if order.earlier_region == "L":
        pinned = world.choice_l + world.outcome_l
    else:
        pinned = world.choice_r + world.outcome_r
    return worlds_in(model.mask & imposed & ATOM_MASKS[pinned])


# each region's four (choice, outcome) cells, as world masks
_CELL_MASKS = {r: tuple(ATOM_MASKS[a] for a in OUTCOME_ATOMS if a[0] == r) for r in ("L", "R")}


def _counterfactual_mask(
    possible: int, imposed: int, cells: tuple, consequent: int, every: bool, self_world: bool
) -> int:
    """The worlds from which imposing a choice reaches only worlds of `consequent`.

    With `every` false, some world of it instead.  `imposed` is the
    choice's mask and `cells` the earlier region's four cell masks.
    """
    out = 0
    # every world of one earlier-region (choice, outcome) cell reaches the same worlds
    for cell in cells:
        reach = possible & imposed & cell
        if not reach & ~consequent if every else reach & consequent:
            out |= cell
    if self_world:  # a world where the choice holds reaches itself
        out = out & ~imposed | imposed & consequent
    return out & possible


def truth_mask(model: Model, f: Formula, opts: CfOptions = DEFAULT_OPTIONS) -> int:
    """The possible worlds where `f` holds, as a world-set mask.

    A strict conditional denotes all possible worlds or none.  A
    counterfactual holds at a world when the worlds its antecedent
    reaches lie inside the consequent's set ('every') or meet it
    ('some').  A node of any other class, a subclass included, is a TypeError.
    """
    possible = model.mask
    kind = type(f)
    if kind is Atom:
        return ATOM_MASKS[f.name] & possible
    if kind is Not:
        return possible & ~truth_mask(model, f.arg, opts)
    if kind is Counterfactual:
        imposed = ATOM_MASKS[_imposable(f.left, opts.order).name]
        return _counterfactual_mask(
            possible,
            imposed,
            _CELL_MASKS[opts.order.earlier_region],
            truth_mask(model, f.right, opts),
            opts.quantifier == "every",
            opts.self_world_when_consistent,
        )
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


# a mask program's opcodes; an instruction is (op, a, b): an atom's mask
# and None for _ATOM, the consequent's slot and (imposed choice mask, cell
# masks) for _CF, the operand slots for the others (b None for _NOT)
_AND, _OR, _MATIMP, _STRICT, _NOT, _CF, _ATOM = range(7)
_BINARY = {And: _AND, Or: _OR, MatImp: _MATIMP, StrictImp: _STRICT}


class MaskProgram:
    """A fixed set of formulas compiled into a straight-line world-mask program.

    Each distinct node, by identity, has one slot, so the repeated
    subformulas of an interned formula set are computed once.  The
    instructions list the nodes children first: `free`, the nodes that
    contain no counterfactual, which `run` computes once per model, then
    `tail`, the nodes that do, which it computes once per reading.
    `slots[i]` is the slot of `formulas[i]`.

    An antecedent outside the fragment raises the error `truth_mask`
    raises, for the first such counterfactual `truth_mask` would meet
    evaluating the formulas in order.
    """

    __slots__ = ("free", "tail", "slots")

    def __init__(self, formulas, order: TemporalOrder = L_EARLIER):
        cells = _CELL_MASKS[order.earlier_region]
        numbers: dict[int, int] = {}  # id of a node met -> its number, in post-order
        nodes: list[tuple] = []  # by number: op, a, b over numbers, and whether it has a []->

        def number(f) -> int:  # visits nodes in `truth_mask`'s order, so errors match
            n = numbers.get(id(f))
            if n is not None:
                return n
            if type(f) is Atom:
                node = (_ATOM, ATOM_MASKS[f.name], None, False)
            elif type(f) is Not:
                arg = number(f.arg)
                node = (_NOT, arg, None, nodes[arg][3])
            elif type(f) is Counterfactual:
                imposed = ATOM_MASKS[_imposable(f.left, order).name]
                node = (_CF, number(f.right), (imposed, cells), True)
            else:
                op = _BINARY.get(type(f))
                if op is None:
                    raise TypeError(f"not a formula node: {f!r}")
                left, right = number(f.left), number(f.right)
                node = (op, left, right, nodes[left][3] or nodes[right][3])
            numbers[id(f)] = len(nodes)
            nodes.append(node)
            return len(nodes) - 1

        given = [number(f) for f in formulas]
        slot: dict[int, int] = {}  # number -> slot: the free nodes first, each part in post-order
        free: list[tuple] = []
        tail: list[tuple] = []
        for in_tail, code in ((False, free), (True, tail)):
            for n, (op, a, b, has_cf) in enumerate(nodes):
                if has_cf == in_tail:
                    slot[n] = len(slot)
                    code.append((op, a if op == _ATOM else slot[a], slot[b] if op < _NOT else b))
        self.free, self.tail = tuple(free), tuple(tail)
        self.slots = tuple(slot[n] for n in given)

    def __len__(self) -> int:
        return len(self.free) + len(self.tail)

    def run(
        self, model: Model, quantifiers: tuple[str, ...], self_world: bool = True
    ) -> list[Denotation]:
        """Every slot's mask in `model`, one `Denotation` per quantifier."""
        possible = model.mask
        masks: list[int] = []
        _execute(self.free, masks, possible, True, self_world)
        readings = []
        for quantifier in quantifiers:
            reading = masks[:]
            _execute(self.tail, reading, possible, quantifier == "every", self_world)
            readings.append(Denotation(possible, reading))
        return readings


def _execute(code: tuple, masks: list, possible: int, every: bool, self_world: bool) -> None:
    """Append the mask of each instruction of `code` to `masks`."""
    append = masks.append
    for op, a, b in code:
        if op == _AND:
            append(masks[a] & masks[b])
        elif op == _ATOM:
            append(a & possible)
        elif op == _CF:
            append(_counterfactual_mask(possible, *b, masks[a], every, self_world))
        elif op == _NOT:
            append(possible & ~masks[a])
        elif op == _MATIMP:
            append(possible & (~masks[a] | masks[b]))
        elif op == _OR:
            append(masks[a] | masks[b])
        else:
            append(0 if masks[a] & ~masks[b] else possible)


class Denotation:
    """A mask program's slots in one model under one reading."""

    __slots__ = ("possible", "masks")

    def __init__(self, possible: int, masks: list[int]):
        self.possible = possible
        self.masks = masks

    def everywhere(self, slot: int) -> bool:
        """Does the slot hold at every possible world?"""
        return self.masks[slot] == self.possible

    def somewhere(self, *slots: int) -> bool:
        """Does some possible world satisfy every one of the slots?"""
        common = self.possible
        for slot in slots:
            common &= self.masks[slot]
        return bool(common)


def worlds_where(*terms: tuple[Denotation, int]) -> list[World]:
    """The worlds where each (denotation, slot) term holds, in canonical order."""
    common = -1
    for denotation, slot in terms:
        common &= denotation.masks[slot]
    return worlds_in(common)


def eval_at(model: Model, world: World, f: Formula, opts: CfOptions = DEFAULT_OPTIONS) -> bool:
    """Truth of `f` at a possible world.

    Strict conditionals are world-independent and evaluate to their
    global value, so the evaluator is total on the whole language.
    """
    i = _possible_index(model, world)
    return bool(truth_mask(model, f, opts) >> i & 1)


class GlobalCheck(Value):
    __slots__ = _fields = ("holds", "witness", "counterexamples")

    def __init__(self, holds: bool, witness: World | None, counterexamples: tuple[World, ...]):
        _set_holds(self, holds)
        _set_witness(self, witness)
        _set_counterexamples(self, counterexamples)


# the slots' own setters: every global check builds one, and these skip
# the name lookup `object.__setattr__` makes
_set_holds = GlobalCheck.holds.__set__
_set_witness = GlobalCheck.witness.__set__
_set_counterexamples = GlobalCheck.counterexamples.__set__


def holds_globally(
    model: Model, f: Formula, opts: CfOptions = DEFAULT_OPTIONS
) -> GlobalCheck:
    """Global truth with a counterexample witness on failure.

    A strict conditional holds iff no possible world satisfies its
    antecedent together with the negated consequent.  Any other formula
    holds globally iff it is true at every possible world.  The witness
    is the first counterexample in canonical world order.
    """
    if type(f) is StrictImp:
        bad = truth_mask(model, f.left, opts) & ~truth_mask(model, f.right, opts)
    else:
        bad = model.mask & ~truth_mask(model, f, opts)
    return _global_check(bad)


def _global_check(bad: int) -> GlobalCheck:
    """The check whose counterexamples are the worlds of the mask `bad`."""
    worlds = _LOW[bad & 0xFF] + _HIGH[bad >> 8 & 0xFF]  # `worlds_in`, as a tuple
    return GlobalCheck(not worlds, worlds[0] if worlds else None, worlds)


# ---------------------------------------------------------------------------
# The dependence theorem: one region's statement flips with the faraway choice

SR_TEXT = "(R2 & R2+) -> (R1 []-> R1 & R1-)"
LINE5_TEXT = f"L2 => {SR_TEXT}"
LINE6_TEXT = f"L1 => {SR_TEXT}"
LINE5 = parse(LINE5_TEXT)
# line 6 shares line 5's SR node, so a program over both computes SR once
LINE6 = StrictImp(Atom("L1"), LINE5.right)


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

    def __init__(
        self,
        hardy_conforming: bool,
        conformance_detail: str,
        line5: GlobalCheck,
        line6: GlobalCheck,
        line5_vacuous: bool,
    ):
        object.__setattr__(self, "hardy_conforming", hardy_conforming)
        object.__setattr__(self, "conformance_detail", conformance_detail)
        object.__setattr__(self, "line5", line5)
        object.__setattr__(self, "line6", line6)
        object.__setattr__(self, "line5_vacuous", line5_vacuous)

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


_FORBIDDEN_BITS = tuple((w, 1 << WORLD_INDEX[w]) for w in FORBIDDEN_WORLDS)
_PARADOX_BIT = 1 << WORLD_INDEX[PARADOX_WORLD]


def hardy_conformance(model: Model) -> tuple[bool, str]:
    """Does the model's possibility pattern realize the four predictions?"""
    mask = model.mask
    problems = [f"forbidden world {w} is possible" for w, bit in _FORBIDDEN_BITS if mask & bit]
    if not mask & _PARADOX_BIT:
        problems.append(f"paradox world {PARADOX_WORLD} is not possible")
    if problems:
        return False, "; ".join(problems)
    return True, "all four prediction cells conform"


def check_theorem(model: Model, opts: CfOptions = DEFAULT_OPTIONS) -> TheoremReport:
    """Evaluate both conclusion lines and the dependence they exhibit.

    Proceeds even on a non-conforming model; the report records the
    conformance check separately, and confirms the dependence only on a
    conforming model where line 5 is not vacuous.
    """
    conforming, detail = hardy_conformance(model)
    program = _theorem_program(opts.order.earlier_region)
    (reading,) = program.run(model, (opts.quantifier,), opts.self_world_when_consistent)
    masks = [reading.masks[s] for s in program.slots]
    return TheoremReport(
        hardy_conforming=conforming,
        conformance_detail=detail,
        line5=_global_check(masks[0] & ~masks[1]),
        line6=_global_check(masks[2] & ~masks[3]),
        line5_vacuous=not model.mask & ATOM_MASKS["L2"] & ATOM_MASKS["R2+"],
    )


@cache
def _theorem_program(earlier_region: str) -> MaskProgram:
    """Both lines' antecedents and consequents, compiled once per temporal order."""
    return MaskProgram(
        (LINE5.left, LINE5.right, LINE6.left, LINE6.right), TemporalOrder(earlier_region)
    )


# ---------------------------------------------------------------------------
# The sixteen-row truth table behind the dependence claim

class SrRow(Value):
    __slots__ = _fields = ("ra", "ra_plus", "rc", "rc_minus")

    def __init__(self, ra: bool, ra_plus: bool, rc: bool, rc_minus: bool):
        object.__setattr__(self, "ra", ra)
        object.__setattr__(self, "ra_plus", ra_plus)
        object.__setattr__(self, "rc", rc)
        object.__setattr__(self, "rc_minus", rc_minus)

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
    "Denotation",
    "GlobalCheck",
    "L_EARLIER",
    "MaskProgram",
    "SrRow",
    "TemporalOrder",
    "TheoremReport",
    "UnsupportedCounterfactualError",
    "accessible",
    "check_theorem",
    "eval_at",
    "hardy_conformance",
    "holds_globally",
    "sr_truth_table",
    "truth_mask",
    "worlds_where",
]
