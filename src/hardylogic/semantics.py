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
without walking a tree.  The program runs as generated straight-line
Python code, one function built on its first run under each set of
readings.

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

from functools import cache, partial

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
)


class UnsupportedCounterfactualError(ValueError):
    """Counterfactual antecedent outside the defined fragment."""


class TemporalOrder(Value):
    """Which region precedes the cut time in the preferred frame."""

    __slots__ = _fields = ("earlier_region",)
    _defaults = ("L",)

    def __init__(self, *args, **kwargs):
        self._store(*args, **kwargs)
        if self.earlier_region not in ("L", "R"):
            raise ValueError(f"earlier_region must be 'L' or 'R', got {self.earlier_region!r}")

    @property
    def later_region(self) -> str:
        return "R" if self.earlier_region == "L" else "L"


L_EARLIER = TemporalOrder("L")


def _check_quantifier(quantifier: str) -> None:
    if quantifier not in ("every", "some"):
        raise ValueError(f"quantifier must be 'every' or 'some', got {quantifier!r}")


class CfOptions(Value):
    __slots__ = _fields = ("order", "quantifier", "self_world_when_consistent")
    # `quantifier` is 'every' or 'some', over accessible worlds
    _defaults = (L_EARLIER, "every", True)

    def __init__(self, *args, **kwargs):
        self._store(*args, **kwargs)
        if self.order.__class__ is not TemporalOrder:
            raise ValueError(f"order must be a TemporalOrder, got {self.order!r}")
        _check_quantifier(self.quantifier)
        if self.self_world_when_consistent.__class__ is not bool:
            raise ValueError(
                "self_world_when_consistent must be True or False, "
                f"got {self.self_world_when_consistent!r}"
            )


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


# each region's four (choice, outcome) cells, as world masks
_CELL_MASKS = {r: tuple(ATOM_MASKS[a] for a in OUTCOME_ATOMS if a[0] == r) for r in ("L", "R")}


def _counterfactual_mask(
    possible: int, imposed: int, cells: tuple, consequent: int, every: bool, self_world: bool
) -> int:
    """The worlds from which imposing a choice reaches only worlds of `consequent`.

    With `every` false, some world of it instead.  `imposed` is the
    choice's mask and `cells` the earlier region's four cell masks.
    A mask program's generated code unrolls this same rule (`_emit`),
    so a change here is made there too.
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
    contain no counterfactual, then `tail`, the nodes that do.
    `slots[i]` is the slot of `formulas[i]`.  Every slot's mask lies
    within the model's possible worlds.

    `body` writes the program out as straight-line Python (`_emit`):
    each slot a local (`local`), each instruction one assignment, the
    free nodes once and the tail once per quantifier.  `run` compiles
    that body into one function per (quantifiers, self_world), on the
    first run with them, and keeps it on the program; the audit appends
    its own readout to the same body (see `proof._Plan.compile`).

    An antecedent outside the fragment raises the error `truth_mask`
    raises, for the first such counterfactual `truth_mask` would meet
    evaluating the formulas in order.
    """

    __slots__ = ("free", "tail", "slots", "_runs")

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
        self._runs: dict[tuple, object] = {}  # (quantifiers, self_world) -> generated function

    def __len__(self) -> int:
        return len(self.free) + len(self.tail)

    def local(self, quantifier: str, slot: int) -> str:
        """The local that holds `slot` under `quantifier` in the generated code."""
        return f"m{slot}" if slot < len(self.free) else f"{quantifier[0]}{slot}"

    def body(
        self, quantifiers: tuple[str, ...], self_world: bool, reads: set | None = None
    ) -> list[str]:
        """Source lines that set the slots' locals under each quantifier, from the mask `p`.

        Every slot's, or with `reads`, a set of (quantifier, slot) pairs,
        those slots' and the slots they are computed from only.
        """
        for quantifier in quantifiers:
            _check_quantifier(quantifier)
        code, free = self.free + self.tail, len(self.free)
        if reads is None:
            reads = {(q, n) for q in quantifiers for n in range(len(code))}
        wanted = {q: {n for r, n in reads if r == q} for q in dict.fromkeys(quantifiers)}
        reach = set()  # the `imposed & cell` masks of the counterfactuals kept
        for slots in wanted.values():  # an instruction's operands have lower slots
            for n in range(len(code) - 1, -1, -1):
                op, a, b = code[n]
                if n in slots and op != _ATOM:
                    slots.update((a, b) if op < _NOT else (a,))
                    if op == _CF:
                        reach.update(b[0] & cell for cell in b[1])
        lines = [f"r{k} = p & {k}" for k in sorted(reach)]
        kept = set().union(*wanted.values())
        lines += _emit(code, [n for n in range(free) if n in kept], "m{}".format)
        for quantifier, slots in wanted.items():
            reading = (quantifier == "every", self_world)
            tail = [n for n in range(free, len(code)) if n in slots]
            lines += _emit(code, tail, partial(self.local, quantifier), reading)
        return lines

    def run(
        self, model: Model, quantifiers: tuple[str, ...], self_world: bool = True
    ) -> list[list[int]]:
        """Every slot's mask in `model`, one list per quantifier."""
        run = self._runs.get((quantifiers, self_world))
        if run is None:
            body = self.body(quantifiers, self_world)
            masks = ", ".join(
                "[" + ", ".join(self.local(q, n) for n in range(len(self))) + "]"
                for q in quantifiers
            )
            run = self._runs[quantifiers, self_world] = _function(
                "p", body, f"[{masks}]", "<mask program>"
            )
        return run(model.mask)


def _emit(code: tuple, slots: list, local, reading: tuple[bool, bool] | None = None) -> list[str]:
    """The instructions of `code` at `slots`, as straight-line assignments to locals.

    Slot n is the local `local(n)`, and each instruction one
    assignment, reading the possible-world mask `p`.  A counterfactual
    is `_counterfactual_mask` unrolled over the earlier region's four
    cells, with `reading`, (every, self_world), fixed here, so the code
    never branches on it; the worlds a cell reaches, `p & imposed &
    cell`, are the local `r<imposed & cell>`, which `MaskProgram.body`
    sets first.  The lines hold only locals, operators and int literals.
    """
    lines = []
    for n in slots:
        op, a, b = code[n]
        if op == _ATOM:
            value = f"{a} & p"
        elif op == _NOT:
            value = f"p & ~{local(a)}"
        elif op == _AND:
            value = f"{local(a)} & {local(b)}"
        elif op == _OR:
            value = f"{local(a)} | {local(b)}"
        elif op == _MATIMP:
            value = f"p & (~{local(a)} | {local(b)})"
        elif op == _STRICT:
            value = f"0 if {local(a)} & ~{local(b)} else p"
        else:  # _CF: a cell whose reach escapes the consequent ('every') or meets it ('some')
            (every, self_world), consequent, (imposed, cells) = reading, local(a), b
            # with the self world, a world where the choice holds reaches itself,
            # so the cells give only the worlds outside the choice
            kept = [c & ~imposed if self_world else c for c in cells]
            if every:
                terms = [f"(0 if r{imposed & c} & ~{consequent} else {k})" for c, k in zip(cells, kept)]
            else:
                terms = [f"({k} if r{imposed & c} & {consequent} else 0)" for c, k in zip(cells, kept)]
            value = " | ".join(terms)
            if self_world:
                value = f"{value} | {imposed} & {consequent}"
            value = f"({value}) & p"
        lines.append(f"{local(n)} = {value}")
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
    (f"forbidden world {w} is possible", 1 << WORLD_INDEX[w]) for w in FORBIDDEN_WORLDS
)
_PARADOX_PROBLEM = f"paradox world {PARADOX_WORLD} is not possible"
_PARADOX_BIT = 1 << WORLD_INDEX[PARADOX_WORLD]


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
    conforming model where line 5 is not vacuous.
    """
    conforming, detail = hardy_conformance(model)
    program = _theorem_program(opts.order.earlier_region)
    (reading,) = program.run(model, (opts.quantifier,), opts.self_world_when_consistent)
    masks = [reading[s] for s in program.slots]
    return TheoremReport(
        conforming,
        detail,
        _global_check(masks[0] & ~masks[1]),  # line 5
        _global_check(masks[2] & ~masks[3]),  # line 6
        not model.mask & ATOM_MASKS["L2"] & ATOM_MASKS["R2+"],  # line 5 vacuous
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
