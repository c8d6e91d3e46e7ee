"""Logically possible worlds and probability-table-backed models.

A world history fixes a measurement choice and an outcome in each of the
two regions; there are exactly sixteen.  A model pairs a per-choice-pair
outcome distribution with a possibility threshold: the physically
possible worlds are those whose outcome cell carries probability above
the threshold.  A table is its sixteen cells in world order: cell i is
the probability of `WORLDS[i]` and bit i of a model's mask, and its
`rows` are a read-only view of them.

The four prediction cells of the Hardy argument live here, as worlds:
`FORBIDDEN_WORLDS`, the three cells that must vanish, and
`PARADOX_WORLD`, the one that must not.  The conformance check in
`semantics` reads them, and `quantum.verify_hardy` states those cells
as fixed expressions (`test_cells_agree_bit_for_bit` pins each to its
world here).  A prediction line in `proof` names its own cell instead.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Mapping
from functools import total_ordering

from .formula import ATOM_NAMES, Value

CHOICES_L = ("L1", "L2")
CHOICES_R = ("R1", "R2")
SIGNS = ("+", "-")

CHOICE_PAIRS = tuple((cl, cr) for cl in CHOICES_L for cr in CHOICES_R)
OUTCOME_PAIRS = tuple(sl + sr for sl in SIGNS for sr in SIGNS)  # L sign first

DISTRIBUTION_TOL = 1e-9
DEFAULT_EPSILON = 1e-12


class TableError(ValueError):
    """Probability table violating its invariants or schema."""


@total_ordering
class World(Value):
    """One history; worlds order as their field tuples."""

    _fields = ("choice_l", "choice_r", "outcome_l", "outcome_r")
    # `index`, its place in WORLDS and so its bit in every mask, is worked out from
    # the fields by `_check`, so it is not one: equality, hashing, repr and pickling ignore it
    __slots__ = (*_fields, "index")

    def _check(self):
        if self.choice_l not in CHOICES_L or self.choice_r not in CHOICES_R:
            raise ValueError(f"bad choices ({self.choice_l}, {self.choice_r})")
        if self.outcome_l not in SIGNS or self.outcome_r not in SIGNS:
            raise ValueError(f"bad outcomes ({self.outcome_l}, {self.outcome_r})")
        _set_index(self, (self.choice_l == "L2") << 3 | (self.choice_r == "R2") << 2
                   | (self.outcome_l == "-") << 1 | (self.outcome_r == "-"))

    def __lt__(self, other):  # `total_ordering` derives the other three from it
        if other.__class__ is self.__class__:
            return World._values(self) < World._values(other)
        return NotImplemented

    @property
    def choice_pair(self) -> tuple[str, str]:
        return (self.choice_l, self.choice_r)

    @property
    def outcome_pair(self) -> str:
        return self.outcome_l + self.outcome_r

    def __str__(self) -> str:
        return f"({self.choice_l},{self.choice_r},{self.outcome_l},{self.outcome_r})"


_set_index = World.index.__set__

# The canonical world order (L choice, R choice, L outcome, R outcome).
# It doubles as the bit order of world-set masks: bit i is WORLDS[i].
WORLDS = tuple(
    World(cl, cr, ol, outcome_r)
    for cl in CHOICES_L
    for cr in CHOICES_R
    for ol in SIGNS
    for outcome_r in SIGNS
)
# each world by its field tuple, so a parsed literal is the shared instance
_BY_FIELDS = {World._values(w): w for w in WORLDS}

# Hardy's four predictions (PRL 71, 1665, 1993), in order: the three
# cells that vanish, then the paradox cell that carries probability.
FORBIDDEN_WORLDS = (
    World("L2", "R2", "-", "+"),
    World("L2", "R1", "+", "+"),
    World("L1", "R2", "-", "-"),
)
PARADOX_WORLD = World("L1", "R1", "-", "+")


def worlds_in(mask: int) -> list[World]:
    """Each world whose `index` bit the mask sets, in canonical order; higher bits are ignored.

    A negative mask, such as `~model.mask` or -1, reads as its two's
    complement, so its sixteen low bits count as for any other mask.
    """
    return [w for w in WORLDS if mask >> w.index & 1]


def parse_world(text: str) -> World:
    """Parse a world literal like 'L1,R2,-,+' into the shared instance in `WORLDS`."""
    if not isinstance(text, str):
        raise ValueError(f"world literal must be a string, got {text!r}")
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"world literal needs 4 comma-separated fields, got {text!r}")
    world = _BY_FIELDS.get(tuple(parts))
    return world if world is not None else World(*parts)  # a miss raises World's own error


# A choice atom holds where that region's choice is made.  An outcome
# atom such as R1- holds where R1 is the performed choice AND the
# recorded outcome is minus: an unperformed experiment has no outcome.
ATOM_MASKS = {
    name: sum(
        1 << i
        for i, w in enumerate(WORLDS)
        if name in (w.choice_l, w.choice_r, w.choice_l + w.outcome_l, w.choice_r + w.outcome_r)
    )
    for name in ATOM_NAMES
}


def _to_float(value: int | float, what: str) -> float:
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond float range
        raise TableError(f"{what} is out of range") from None


class _ReadOnlyDict(dict):
    """A dict that refuses writes and hashes by value, order-free."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):  # pickle and copy rebuild it, not write into it
        return (type(self), (dict(self),))


# a model file's exact choice-pair keys, and the one cell type a table keeps as it is
_PAIR_KEYS = {f"{cl},{cr}": (cl, cr) for cl, cr in CHOICE_PAIRS}
_FLOAT = frozenset({float})
# a table's rows, by choice pair or by model-file key, in CHOICE_PAIRS
# order, and a row's four cells, in OUTCOME_PAIRS order
_pair_rows = operator.itemgetter(*CHOICE_PAIRS)
_file_rows = operator.itemgetter(*_PAIR_KEYS)
_row_cells = operator.itemgetter(*OUTCOME_PAIRS)
_BITS = tuple(1 << i for i in range(len(WORLDS)))


def _flat(table) -> tuple[float, ...] | None:
    """A model file table's cells in world order if it is the four rows under
    their exact keys, four cells each, all exact floats, and nothing else; else None."""
    try:
        a, b, c, d = _file_rows(table)
        cells = (*_row_cells(a), *_row_cells(b), *_row_cells(c), *_row_cells(d))
    except (KeyError, TypeError):  # a row or cell missing, or not a mapping
        return None
    exact = len(table) == len(a) == len(b) == len(c) == len(d) == 4
    return cells if exact and _FLOAT.issuperset(map(type, cells)) else None


def _accepted(cells: tuple[float, ...]) -> tuple[float, ...]:
    """Sixteen float cells in world order, or the first TableError.

    One test passes the usual table: no cell below 0.0, and each row's
    total, summed left to right as `_checked` sums it, within tolerance,
    so no NaN (which `min` may skip) and no inf.  Only `_checked` rejects.
    """
    a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p = cells
    if not (min(cells) >= 0.0
            and abs(a + b + c + d - 1.0) <= DISTRIBUTION_TOL
            and abs(e + f + g + h - 1.0) <= DISTRIBUTION_TOL
            and abs(i + j + k + l - 1.0) <= DISTRIBUTION_TOL
            and abs(m + n + o + p - 1.0) <= DISTRIBUTION_TOL):
        _checked(_rows_of(cells))  # raises: it sums each row as above
    return cells


def _checked(rows: dict) -> tuple[float, ...]:
    """The cells of `rows`, each made a float, in world order, or the first TableError.

    `ProbabilityTable` lists the rules.
    """
    if not isinstance(rows, Mapping):
        raise TableError(f"table must be a mapping, got {type(rows).__name__}")
    for pair in CHOICE_PAIRS:
        if pair not in rows:
            raise TableError(f"missing distribution for choice pair {pair}")
    if len(rows) != len(CHOICE_PAIRS):
        extra = next(pair for pair in rows if pair not in CHOICE_PAIRS)
        raise TableError(f"unknown choice pair {extra!r}")
    for pair in CHOICE_PAIRS:
        row = rows[pair]
        if not isinstance(row, Mapping):
            raise TableError(f"row for {pair} must be a mapping")
        for key in OUTCOME_PAIRS:
            if key not in row:
                raise TableError(f"choice pair {pair} missing outcome cell {key!r}")
            p = row[key]
            # a float, the usual case, passes the first test alone
            if p.__class__ is not float and (
                isinstance(p, bool) or not isinstance(p, (int, float))
            ):
                raise TableError(f"non-numeric probability {p!r} in {pair} cell {key!r}")
            try:
                finite = math.isfinite(p)
            except OverflowError:  # an int beyond float range
                raise TableError(f"out-of-range probability in {pair} cell {key!r}") from None
            if not finite:
                raise TableError(f"non-finite probability {p} in {pair} cell {key!r}")
            if p < 0:
                raise TableError(f"negative probability {p} in {pair} cell {key!r}")
        if len(row) != len(OUTCOME_PAIRS):
            extra = next(key for key in row if key not in OUTCOME_PAIRS)
            raise TableError(f"choice pair {pair} has unknown outcome cell {extra!r}")
        a, b, c, d = _row_cells(row)
        total = a + b + c + d  # left to right: from 3.12 `sum` over floats is compensated
        if abs(total - 1.0) > DISTRIBUTION_TOL:
            raise TableError(f"distribution for {pair} sums to {total!r}, not 1")
    return tuple(float(p) for row in _pair_rows(rows) for p in _row_cells(row))


def _rows_of(cells: tuple[float, ...]) -> _ReadOnlyDict:
    """Sixteen cells in world order as read-only rows, by choice pair and outcome pair."""
    return _ReadOnlyDict({pair: _ReadOnlyDict(zip(OUTCOME_PAIRS, cells[i:i + 4], strict=True))
                          for i, pair in zip(range(0, 16, 4), CHOICE_PAIRS, strict=True)})


class ProbabilityTable(Value):
    """Joint outcome distribution for each of the four choice pairs.

    A table is its sixteen float cells, `cells`, in canonical world
    order: cell i is the probability of `WORLDS[i]`, and bit i of a
    model's mask.  The one field, `rows`, maps (choice_l, choice_r) to
    {outcome pair: probability}, outcome pairs written L sign first
    ('+-' means L got +, R got -).  It is a read-only view of `cells`,
    made on first read, pairs and cells in canonical order; equality,
    hashing, repr and pickling read it.
    The constructor checks that the rows are a mapping of the four
    choice pairs and no other, each row a mapping of the four cells and
    no other, each cell a finite nonnegative int or float, summing to 1,
    and raises TableError if not.  So a table, and a model built from
    it, cannot change after the fact.
    """

    _fields = ("rows",)
    __slots__ = ("cells", "_rows")

    def __init__(self, rows: dict[tuple[str, str], dict[str, float]]):
        _set_cells(self, _checked(rows))

    @classmethod
    def _from_cells(cls, cells: tuple[float, ...]) -> "ProbabilityTable":
        """A table of sixteen float cells in world order, checked as the constructor checks."""
        table = cls.__new__(cls)
        _set_cells(table, _accepted(cells))
        return table

    @property
    def rows(self) -> dict[tuple[str, str], dict[str, float]]:
        if not hasattr(self, "_rows"):  # the first read
            object.__setattr__(self, "_rows", _rows_of(self.cells))
        return self._rows

    def prob(self, world: World) -> float:
        if type(world) is not World:
            raise ValueError(f"not a world: {world!r}")
        return self.cells[world.index]

    def cell(self, choice_l: str, choice_r: str, outcomes: str) -> float:
        pair = (choice_l, choice_r)
        if pair not in CHOICE_PAIRS:
            raise ValueError(f"not a choice pair: {pair!r}")
        if outcomes not in OUTCOME_PAIRS:
            raise ValueError(f"not an outcome pair: {outcomes!r}")
        return self.cells[_BY_FIELDS[(*pair, *outcomes)].index]

    def no_signaling_gap(self) -> float:
        """Largest discrepancy between same-region marginals across faraway choices."""
        c = self.cells
        # rows (L1,R1), (L1,R2), (L2,R1), (L2,R2) start at cells 0, 4, 8, 12, each
        # ++, +-, -+, --: a sign's marginal is a row's cells i and j, and the
        # faraway choice moves it from row r to row s
        return max(
            abs((c[r + i] + c[r + j]) - (c[s + i] + c[s + j]))
            for r, s, i, j in (
                (0, 4, 0, 1), (0, 4, 2, 3), (8, 12, 0, 1), (8, 12, 2, 3),  # L1, L2
                (0, 8, 0, 2), (0, 8, 1, 3), (4, 12, 0, 2), (4, 12, 1, 3),  # R1, R2
            )
        )

    def to_dict(self) -> dict:
        cells = self.cells
        return {key: dict(zip(OUTCOME_PAIRS, cells[i:i + 4], strict=True))
                for i, key in zip(range(0, 16, 4), _PAIR_KEYS, strict=True)}

    @classmethod
    def from_dict(cls, data: dict) -> "ProbabilityTable":
        """A table from a model file's `table` mapping, each cell checked once.

        The usual file, the four exact keys with four float cells each,
        is read straight into the sixteen cells.  Any other is read row
        by row in file order, for keys, cell names and number types, and
        each cell is made a float; the rows then go to the constructor,
        whose checks are the only ones they pass through.
        """
        cells = _flat(data)
        if cells is not None:
            return cls._from_cells(cells)
        if not isinstance(data, dict):
            raise TableError(f"table must be a mapping, got {type(data).__name__}")
        rows, keys = {}, {}
        for key, row in data.items():
            pair = _PAIR_KEYS.get(key)
            if pair is None:
                pair = tuple(p.strip() for p in str(key).split(","))
                if pair not in CHOICE_PAIRS:
                    raise TableError(f"bad choice-pair key {key!r}")
            if pair in keys:
                raise TableError(f"choice-pair keys {keys[pair]!r} and {key!r} name the same pair")
            keys[pair] = key
            if not isinstance(row, dict):
                raise TableError(f"row for {key!r} must be a mapping")
            rows[pair] = cells = {}
            for outcomes, value in row.items():
                if outcomes not in OUTCOME_PAIRS:
                    raise TableError(f"bad outcome key {outcomes!r} in row {key!r}")
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise TableError(f"cell {key!r}/{outcomes!r} is not a number")
                cells[outcomes] = _to_float(value, f"cell {key!r}/{outcomes!r}")
        return cls(rows)

    @classmethod
    def uniform(cls) -> "ProbabilityTable":
        return cls({pair: {key: 0.25 for key in OUTCOME_PAIRS} for pair in CHOICE_PAIRS})


_set_cells = ProbabilityTable.cells.__set__  # every model load builds a table through it


class Model(Value):
    """The worlds whose cell exceeds `epsilon`, as the mask `mask`.

    The mask is worked out from the table, so it is not a field:
    equality, hashing and repr ignore it.  `possible` is the same worlds
    as a frozenset, made from the mask each time it is read.
    """

    _fields = ("table", "epsilon")
    __slots__ = (*_fields, "mask")

    def __init__(self, table: ProbabilityTable, epsilon: float):
        # save_model writes JSON: a bool would be a JSON boolean, and a Decimal
        # or Fraction no JSON at all
        if epsilon.__class__ is not float and (  # a float, the usual case, passes here
            epsilon.__class__ is bool or not isinstance(epsilon, (int, float))
        ):
            raise ValueError(f"epsilon must be a number, got {epsilon!r}")
        if not 0.0 <= epsilon <= 1e-3:
            raise ValueError(f"epsilon must lie in [0, 1e-3], got {epsilon}")
        if table.__class__ is not ProbabilityTable:
            raise ValueError(f"table must be a ProbabilityTable, got {table!r}")
        # every choice pair keeps a possible world: a row sums to 1 over four
        # cells, so its largest is at least about 0.25, far above 1e-3
        mask = 0
        for bit, p in zip(_BITS, table.cells):  # cell i is bit i
            if p > epsilon:
                mask |= bit
        _set_table(self, table)
        _set_epsilon(self, epsilon)
        _set_mask(self, mask)

    @property
    def possible(self) -> frozenset[World]:
        return frozenset(worlds_in(self.mask))

    def possible_in_order(self) -> list[World]:
        return worlds_in(self.mask)

    def excluded_in_order(self) -> list[World]:
        return worlds_in(~self.mask)


# every model load builds a model: its slots' own setters skip the name lookup
_set_table, _set_epsilon, _set_mask = Model.table.__set__, Model.epsilon.__set__, Model.mask.__set__


def build_model(table: ProbabilityTable, epsilon: float = DEFAULT_EPSILON) -> Model:
    """Filter the sixteen worlds down to those with probability above epsilon."""
    return Model(table, epsilon)


# ---------------------------------------------------------------------------
# Model file schema: {"epsilon": number, "table": {"L1,R1": {"++": p, ...}, ...}}

def model_to_dict(model: Model) -> dict:
    return {"epsilon": model.epsilon, "table": model.table.to_dict()}


def model_from_dict(data: dict) -> Model:
    if not isinstance(data, dict) or "table" not in data:
        raise TableError("model file must be a mapping with a 'table' entry")
    extra = [key for key in data if key not in ("epsilon", "table")]
    if extra:  # a misspelt 'epsilon' must not load at the default
        raise TableError(
            f"unknown model file entry {extra[0]!r}: only 'epsilon' and 'table' are read"
        )
    epsilon = data.get("epsilon", DEFAULT_EPSILON)
    if not isinstance(epsilon, (int, float)) or isinstance(epsilon, bool):
        raise TableError("'epsilon' must be a number")
    return build_model(ProbabilityTable.from_dict(data["table"]), _to_float(epsilon, "'epsilon'"))


def save_model(model: Model, path: str) -> None:
    text = json.dumps(model_to_dict(model), indent=2)  # before the file is opened
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_json(path: str):
    """Parse a JSON file; bad text, deep nesting or a huge integer is a ValueError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:  # a ValueError that does not name the file
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
        except json.JSONDecodeError as exc:  # nor does this one
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
        except ValueError:  # nor does an integer too long to convert, which names a Python call
            raise ValueError(f"{path}: a number has too many digits") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nests too deeply") from None


def load_model(path: str) -> Model:
    return model_from_dict(read_json(path))
