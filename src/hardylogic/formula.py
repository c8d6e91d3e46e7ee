"""Formula language for the two-region experiment logic.

Twelve atoms: four measurement choices (L1, L2, R1, R2) and eight
outcomes (L1+, L1-, ..., R2-).  An outcome atom such as ``R1-`` is a
single token and asserts both that R1 is performed and that its result
is minus.  ``~`` (negation) binds tightest.  The binary connectives,
with their binding, associativity and Unicode alias, are listed once, in
`_CONNECTIVES`; the lexer, the parser and the printer all read that
table.  The three conditionals, ``->`` (material, world-local), ``[]->``
(counterfactual) and ``=>`` (strict, global), do not associate: chaining
or mixing ``->`` and ``[]->``, or chaining ``=>``, without parentheses
is a parse error.
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
# Connectives

# The binary connectives, tightest first: token kind, class, binding,
# whether a chain of them associates (to the left), printed symbol and
# Unicode alias.  Atoms and negation bind tighter than all of them.
_CONNECTIVES = (
    ("AND", And, 4, True, "&", "∧"),
    ("OR", Or, 3, True, "|", "∨"),
    ("MATIMP", MatImp, 2, False, "->", "→"),
    ("CF", Counterfactual, 2, False, "[]->", "□→"),
    ("STRICT", StrictImp, 1, False, "=>", "⇒"),
)
_ATOMIC = 5  # the binding of atoms and negations

# token kind -> (binding, class, associates); class -> (binding, symbol, associates)
_BY_KIND = {kind: (b, cls, assoc) for kind, cls, b, assoc, _, _ in _CONNECTIVES}
_BY_CLASS = {cls: (b, symbol, assoc) for _, cls, b, assoc, symbol, _ in _CONNECTIVES}


# ---------------------------------------------------------------------------
# Lexer

# Each match skips whitespace and then takes one token.  EOF matches only
# at the end of the text; BAD matches the empty string, so it is reached
# only where no token starts.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ATOM>[LR][12][+-]?)|"
    + "".join(
        f"(?P<{kind}>{re.escape(symbol)}|{alias})|" for kind, _, _, _, symbol, alias in _CONNECTIVES
    )
    + r"(?P<NOT>~|¬)|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<EOF>\Z)|(?P<BAD>))"
)


# a token is the tuple (kind, text, position)
_Token = tuple[str, str, int]


def _lex(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        pos = m.start(kind)
        if kind == "BAD":
            raise LexError(f"unknown token starting at {text[pos:pos + 4]!r}", pos)
        tokens.append((kind, m[kind], pos))
        if kind == "EOF":
            return tokens


# ---------------------------------------------------------------------------
# Parser (precedence climbing over _CONNECTIVES)

# Deepest nesting `parse` accepts, counting both the formula tree's
# height and open '(' and '~'.  Parsing one '(' level takes two Python
# frames, or up to six while connectives of every binding wait on their
# right operands; printing or evaluating one tree level takes at most
# two.  So accepted formulas stay well inside the default recursion limit.
MAX_NESTING = 100


def _node(cls, pos: int, height: int, *parts) -> tuple[Formula, int]:
    """The node `cls(*parts)` of tree height `height`, rejected past MAX_NESTING."""
    if height > MAX_NESTING:
        raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", pos)
    return cls(*parts), height


class _Parser:
    """Precedence climbing; each method returns (formula, tree height).

    The state lives on the instance, not in closures, so a parse leaves
    no reference cycle for the garbage collector.
    """

    __slots__ = ("tokens", "i")

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def operand(self, depth: int) -> tuple[Formula, int]:
        """An atom, '~' operand or '( formula )', inside `depth` open '(' and '~'."""
        kind, text, pos = self.tokens[self.i]
        self.i += 1
        if kind == "ATOM":
            return Atom(text), 0
        if kind == "NOT" or kind == "LPAREN":
            if depth == MAX_NESTING:
                raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", pos)
            if kind == "NOT":
                f, height = self.operand(depth + 1)
                return _node(Not, pos, height + 1, f)
            inner = self.binary(0, depth + 1)
            kind, text, pos = self.tokens[self.i]
            if kind != "RPAREN":
                raise ParseError(f"expected ')', found {text or 'end of input'!r}", pos)
            self.i += 1
            return inner
        if kind == "EOF":
            raise ParseError("missing operand: unexpected end of input", pos)
        raise ParseError(f"expected an atom, '~' or '(', found {text!r}", pos)

    def binary(self, loosest: int, depth: int) -> tuple[Formula, int]:
        """Operands joined by connectives that bind tighter than `loosest`."""
        tokens = self.tokens
        left, height = self.operand(depth)
        while True:
            kind, text, pos = tokens[self.i]
            connective = _BY_KIND.get(kind)
            if connective is None or connective[0] <= loosest:
                return left, height
            binding, cls, associates = connective
            self.i += 1
            right, right_height = self.binary(binding, depth)
            # the right operand stopped at a connective binding no tighter
            # than this one; the same binding there makes a chain, which only
            # `&` and `|` allow.  A chain of conditionals is reported before
            # this node's height check and a chain of `=>` after it.
            chained = not associates and _BY_KIND.get(tokens[self.i][0], (0,))[0] == binding
            if chained and cls is not StrictImp:
                _, nxt, nxt_pos = tokens[self.i]
                raise ParseError(
                    f"'{text}' and '{nxt}' do not associate; parenthesize to disambiguate", nxt_pos
                )
            left, height = _node(cls, pos, max(height, right_height) + 1, left, right)
            if chained:
                raise ParseError("'=>' does not associate; parenthesize one side", tokens[self.i][2])


def parse(text: str) -> Formula:
    """Parse `text` into a Formula; raises LexError/ParseError with a position.

    Formulas nested deeper than MAX_NESTING are rejected with ParseError.
    """
    parser = _Parser(_lex(text))
    f, _ = parser.binary(0, 0)
    kind, trailing, pos = parser.tokens[parser.i]
    if kind != "EOF":
        raise ParseError(f"expected end of input, found {trailing!r}", pos)
    return f


# ---------------------------------------------------------------------------
# Printer

def unparse(f: Formula) -> str:
    """Canonical text with minimal parentheses; parse(unparse(f)) == f."""
    return _text(f, 0)


def _text(f: Formula, binding: int) -> str:
    """`f` printed, in parentheses if it binds looser than `binding`."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "~" + _text(f.arg, _ATOMIC)
    # a left-associating chain nests to the left, so only there may the
    # left operand bind as loosely as the connective itself
    own, symbol, associates = _BY_CLASS[type(f)]
    text = f"{_text(f.left, own if associates else own + 1)} {symbol} {_text(f.right, own + 1)}"
    return f"({text})" if own < binding else text


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
