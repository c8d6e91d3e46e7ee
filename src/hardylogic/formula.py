"""Formula language for the two-region experiment logic.

Twelve atoms: four measurement choices (L1, L2, R1, R2) and eight
outcomes (L1+, L1-, ..., R2-).  An outcome atom such as ``R1-`` is a
single token and asserts both that R1 is performed and that its result
is minus.  Connectives, tightest to loosest:

    ~        negation
    &        conjunction
    |        disjunction
    ->       material conditional   (world-local)
    []->     counterfactual conditional
    =>       strict conditional     (global)

``->`` and ``[]->`` share one precedence level and do not associate,
with each other or with themselves; mixing them without parentheses is
a parse error.  ``=>`` is likewise non-associative.  Unicode aliases
are accepted on input.
"""

from __future__ import annotations

import re
from operator import attrgetter

CHOICE_ATOMS = ("L1", "L2", "R1", "R2")
OUTCOME_ATOMS = ("L1+", "L1-", "L2+", "L2-", "R1+", "R1-", "R2+", "R2-")
ATOM_NAMES = CHOICE_ATOMS + OUTCOME_ATOMS


class ParseError(ValueError):
    """Malformed formula text; `position` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LexError(ParseError):
    """Character sequence that is not a token of the language."""


class Value:
    """Base of the package's frozen value classes.

    A subclass names its fields, in constructor order, in `_fields`,
    keeps them in `__slots__`, and stores them in an explicit `__init__`
    with `object.__setattr__`.  From the field tuple the base derives
    equality (same class and equal fields), a hash of the field tuple, a
    repr in the form `Atom(name='L1')`, and pickling and copying that
    call the constructor again.  Assigning or deleting an attribute
    raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            get = attrgetter(*cls._fields)
            # the field tuple; attrgetter returns a lone field bare
            cls._values = get if len(cls._fields) > 1 else lambda obj: (get(obj),)
            cls.__match_args__ = cls._fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self.__class__._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.__class__._values(self))

    def __repr__(self):
        values = self.__class__._values(self)
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, values))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # pickle and copy call the constructor, not __setattr__
        return (self.__class__, self.__class__._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Formula(Value):
    """Base class for formula AST nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return unparse(self)


class Atom(Formula):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        if name not in ATOM_NAMES:
            raise ValueError(f"unknown atom {name!r}; expected one of {ATOM_NAMES}")
        object.__setattr__(self, "name", name)

    @property
    def region(self) -> str:
        """'L' or 'R'."""
        return self.name[0]

    @property
    def setting(self) -> str:
        """The choice this atom refers to, e.g. 'R1' for atom 'R1-'."""
        return self.name[:2]

    @property
    def sign(self) -> str | None:
        """'+' or '-' for outcome atoms, None for choice atoms."""
        return self.name[2] if len(self.name) == 3 else None

    @property
    def is_choice(self) -> bool:
        return len(self.name) == 2

    @property
    def is_outcome(self) -> bool:
        return len(self.name) == 3

    def choice(self) -> "Atom":
        """The choice atom this atom presupposes (identity on choice atoms)."""
        return Atom(self.setting)


class Not(Formula):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: Formula):
        object.__setattr__(self, "arg", arg)


class _Binary(Formula):
    """The fields and constructor the five binary connectives share."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class MatImp(_Binary):
    __slots__ = ()


class StrictImp(_Binary):
    __slots__ = ()


class Counterfactual(_Binary):
    __slots__ = ()


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<ATOM>[LR][12][+-]?)
  | (?P<CF>\[\]->|□→)
  | (?P<STRICT>=>|⇒)
  | (?P<MATIMP>->|→)
  | (?P<NOT>~|¬)
  | (?P<AND>&|∧)
  | (?P<OR>\||∨)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
    """,
    re.VERBOSE,
)


# a token is the tuple (kind, text, position)
_Token = tuple[str, str, int]


def _lex(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LexError(f"unknown token starting at {text[pos:pos + 4]!r}", pos)
        if m.lastgroup != "WS":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent, one function per grammar level)

# Deepest nesting `parse` accepts, counting both the formula tree's
# height and open '(' and '~'.  Parsing one '(' level takes six Python
# frames and printing or evaluating one tree level takes at most two,
# so accepted formulas stay well inside the default recursion limit.
MAX_NESTING = 100


class _Parser:
    """Recursive descent; each method returns (formula, tree height)."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.open = 0  # '(' and '~' the parser is currently inside

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def kind(self) -> str:
        return self.tokens[self.i][0]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def node(self, cls, pos: int, left: tuple, right: tuple | None = None) -> tuple:
        """A node over one or two (formula, height) pairs, rejected past MAX_NESTING."""
        if right is None:
            f, height = cls(left[0]), left[1] + 1
        else:
            f, height = cls(left[0], right[0]), max(left[1], right[1]) + 1
        if height > MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", pos)
        return f, height

    def formula(self) -> tuple[Formula, int]:
        f = self.strict()
        kind, text, pos = self.peek()
        if kind == "STRICT":
            raise ParseError("'=>' does not associate; parenthesize one side", pos)
        if kind in ("MATIMP", "CF"):
            raise ParseError(
                f"conditional {text!r} cannot follow a strict conditional without parentheses",
                pos,
            )
        return f

    def strict(self) -> tuple[Formula, int]:
        left = self.binary()
        if self.kind() == "STRICT":
            pos = self.take()[2]
            return self.node(StrictImp, pos, left, self.binary())
        return left

    def binary(self) -> tuple[Formula, int]:
        left = self.disj()
        kind, text, pos = self.peek()
        if kind in ("MATIMP", "CF"):
            self.take()
            right = self.disj()
            nxt_kind, nxt_text, nxt_pos = self.peek()
            if nxt_kind in ("MATIMP", "CF"):
                raise ParseError(
                    f"'{text}' and '{nxt_text}' do not associate; parenthesize to disambiguate",
                    nxt_pos,
                )
            return self.node(MatImp if kind == "MATIMP" else Counterfactual, pos, left, right)
        return left

    def disj(self) -> tuple[Formula, int]:
        f = self.conj()
        while self.kind() == "OR":
            pos = self.take()[2]
            f = self.node(Or, pos, f, self.conj())
        return f

    def conj(self) -> tuple[Formula, int]:
        f = self.neg()
        while self.kind() == "AND":
            pos = self.take()[2]
            f = self.node(And, pos, f, self.neg())
        return f

    def neg(self) -> tuple[Formula, int]:
        kind, text, pos = self.take()
        if kind in ("NOT", "LPAREN"):
            self.open += 1
            if self.open > MAX_NESTING:
                raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", pos)
            if kind == "NOT":
                f = self.node(Not, pos, self.neg())
            else:
                f = self.formula()
                closing, closing_text, closing_pos = self.take()
                if closing != "RPAREN":
                    raise ParseError(
                        f"expected ')', found {closing_text or 'end of input'!r}", closing_pos
                    )
            self.open -= 1
            return f
        if kind == "ATOM":
            return Atom(text), 0
        if kind == "EOF":
            raise ParseError("missing operand: unexpected end of input", pos)
        raise ParseError(f"expected an atom, '~' or '(', found {text!r}", pos)


def parse(text: str) -> Formula:
    """Parse `text` into a Formula; raises LexError/ParseError with a position.

    Formulas nested deeper than MAX_NESTING are rejected with ParseError.
    """
    parser = _Parser(_lex(text))
    f, _ = parser.formula()
    kind, trailing, pos = parser.peek()
    if kind != "EOF":
        raise ParseError(f"expected end of input, found {trailing!r}", pos)
    return f


# ---------------------------------------------------------------------------
# Printer

_PRECEDENCE = {
    Atom: 5,
    Not: 5,
    And: 4,
    Or: 3,
    MatImp: 2,
    Counterfactual: 2,
    StrictImp: 1,
}

_INFIX = {And: "&", Or: "|", MatImp: "->", Counterfactual: "[]->", StrictImp: "=>"}


def unparse(f: Formula) -> str:
    """Canonical text with minimal parentheses; parse(unparse(f)) == f."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "~" + _wrap(f.arg, 5)
    op = _INFIX[type(f)]
    if isinstance(f, And):
        # right-nested same-operator trees keep parentheses so the
        # left-associating parser rebuilds the identical AST
        return f"{_wrap(f.left, 4)} {op} {_wrap(f.right, 5)}"
    if isinstance(f, Or):
        return f"{_wrap(f.left, 3)} {op} {_wrap(f.right, 4)}"
    if isinstance(f, (MatImp, Counterfactual)):
        return f"{_wrap(f.left, 3)} {op} {_wrap(f.right, 3)}"
    return f"{_wrap(f.left, 2)} {op} {_wrap(f.right, 2)}"


def _wrap(f: Formula, min_prec: int) -> str:
    text = unparse(f)
    return f"({text})" if _PRECEDENCE[type(f)] < min_prec else text


# ---------------------------------------------------------------------------
# Normal form used by the derivation lines

class PaperNormalReport(Value):
    """The first violation of the normal form, or None when there is none."""

    __slots__ = _fields = ("violation",)

    def __init__(self, violation: str | None = None):
        object.__setattr__(self, "violation", violation)

    @property
    def ok(self) -> bool:
        return self.violation is None

    def __bool__(self) -> bool:
        return self.ok


def check_paper_normal(f: Formula) -> PaperNormalReport:
    """Check the one-strict-conditional-per-line discipline.

    Holds iff a strict conditional appears at most once, and only at the
    root, and every counterfactual antecedent is a single choice atom.
    """
    return PaperNormalReport(_first_violation(f, at_root=True))


def _first_violation(f: Formula, at_root: bool) -> str | None:
    if isinstance(f, Atom):
        return None
    if isinstance(f, StrictImp):
        if not at_root:
            return f"nested strict conditional: {unparse(f)}"
        return _first_violation(f.left, False) or _first_violation(f.right, False)
    if isinstance(f, Counterfactual):
        ant = f.left
        if not (isinstance(ant, Atom) and ant.is_choice):
            return f"counterfactual antecedent is not a choice atom: {unparse(ant)}"
        return _first_violation(f.right, False)
    if isinstance(f, Not):
        return _first_violation(f.arg, False)
    return _first_violation(f.left, False) or _first_violation(f.right, False)
