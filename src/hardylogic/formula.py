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

`parse` lexes the whole text before it parses any of it, so a lex error
wins over any parse error.  The lexer splits the text at whitespace once
the one-character tokens are padded, and falls back on one regex pass,
the sole judge of rejected text, when a piece is no token.  Parsed
formulas share the twelve atom instances, and the parser builds each
negation and binary node through its slots' setters, not its
constructor.
"""

from __future__ import annotations

import re
from functools import cache
from operator import attrgetter
from types import CodeType, FunctionType

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


# the file name of every store's code: it tells a store from a constructor written by hand
_STORE = "<value store>"


class Value:
    """Base of the package's frozen value classes.

    A subclass names its fields, in constructor order, in `_fields` and
    keeps them in `__slots__`; `_defaults` gives the trailing fields'
    defaults.  When the class is defined it gets its constructor, its
    store: a plain `__init__(self, <fields>, <field>=<default>, ...)`,
    named for the class, that stores each field through its slot's own
    setter and then calls `self._check()`, so Python binds the arguments
    and raises TypeError, naming the class, for a bad call, and a class
    that checks its fields does so in `_check`.  A subclass gets a store
    of its own, as the five binary connectives under `_Binary` do,
    unless it inherits a constructor written by hand: `Model` and
    `ProbabilityTable` keep such constructors, since each works out a
    slot that is not a field, the mask and the cells.  `parse` fills
    bare `Not` and binary nodes through the slots' setters.

    The base also derives equality (same class and equal fields), a
    hash of the field tuple, a repr in the form `Atom(name='L1')`, and
    pickling and copying that call the constructor again.  Assigning or
    deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init__(self):
        raise TypeError(f"{self.__class__.__qualname__} has no fields to store")

    def _check(self):
        """Check the fields once the store has set them; here there is nothing to check."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            get = attrgetter(*cls._fields)
            # the field tuple; attrgetter returns a lone field bare
            cls._values = get if len(cls._fields) > 1 else lambda obj: (get(obj),)
            cls.__match_args__ = cls._fields
            inherited = cls.__init__
            if "__init__" not in cls.__dict__ and (
                inherited is Value.__init__ or inherited.__code__.co_filename == _STORE
            ):
                cls.__init__ = _constructor(cls)

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


@cache
def _template(count: int) -> CodeType:
    """The code of a store of `count` fields.

    Its parameters are `self`, `f0`, `f1`, ..., it stores field i
    through the global `_set<i>`, and it ends with `self._check()`.
    """
    params = ", ".join(f"f{i}" for i in range(count))
    body = "".join(f"    _set{i}(self, f{i})\n" for i in range(count))
    source = f"def __init__(self, {params}):\n{body}    self._check()\n"
    namespace = {}
    exec(compile(source, _STORE, "exec"), namespace)
    return namespace["__init__"].__code__


def _constructor(cls: type) -> FunctionType:
    """`cls`'s store: its field count's template, with the parameters renamed to its fields."""
    fields = cls._fields
    code = _template(len(fields)).replace(co_varnames=("self", *fields))
    setters = {f"_set{i}": getattr(cls, name).__set__ for i, name in enumerate(fields)}
    store = FunctionType(code, {"__builtins__": {}, **setters}, "__init__", cls._defaults or None)
    store.__qualname__ = f"{cls.__qualname__}.__init__"
    return store


class Formula(Value):
    """Base class for formula AST nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return unparse(self)


class Atom(Formula):
    __slots__ = _fields = ("name",)

    def _check(self):
        if self.name not in ATOM_NAMES:
            raise ValueError(f"unknown atom {self.name!r}; expected one of {ATOM_NAMES}")

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
        """The choice atom this atom presupposes, as the shared instance `parse` gives."""
        return _ATOMS[self.setting]


class Not(Formula):
    __slots__ = _fields = ("arg",)


class _Binary(Formula):
    """The fields the five binary connectives share."""

    __slots__ = _fields = ("left", "right")


# A parse builds a node per negation and connective without calling its
# constructor: a bare instance, then the slots' own setters.  Parsing
# through the generated constructors instead took about 15% longer.
_new = object.__new__
_set_arg = Not.arg.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__


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

# The binary connectives, tightest first: class, binding, whether a chain
# of them associates (to the left), printed symbol and Unicode alias.
# Atoms and negation bind tighter than all of them.
_CONNECTIVES = (
    (And, 4, True, "&", "∧"),
    (Or, 3, True, "|", "∨"),
    (MatImp, 2, False, "->", "→"),
    (Counterfactual, 2, False, "[]->", "□→"),
    (StrictImp, 1, False, "=>", "⇒"),
)
_ATOMIC = 5  # the binding of atoms and negations

# token text -> (binding, class, associates); class -> (binding, symbol, associates)
_BY_TEXT = {text: (b, cls, assoc) for cls, b, assoc, *texts in _CONNECTIVES for text in texts}
_BY_CLASS = {cls: (b, symbol, assoc) for cls, b, assoc, symbol, _ in _CONNECTIVES}


# ---------------------------------------------------------------------------
# Lexer

# A token is its text.  A character that starts no token of the language
# matches the final \S on its own, and `_tokens` rejects it; whitespace
# matches nothing, so it only separates tokens.
_SYMBOLS = (*_BY_TEXT, "~", "¬", "(", ")")
_TOKEN_RE = re.compile("|".join([r"[LR][12][+-]?", *map(re.escape, _SYMBOLS), r"\S"]))
_KNOWN = frozenset(ATOM_NAMES + _SYMBOLS)


def _tokens(text: str) -> list[str]:
    """The token texts of `text`, as `_TOKEN_RE.findall` gives them.

    Raises LexError at the first character that starts no token.  Most
    texts need no regex: padding the one-character tokens that may touch
    a neighbour and splitting at whitespace gives the same list whenever
    every piece is a known token.  Each known piece is one `_TOKEN_RE`
    token, no longer token contains a padded character, and `split`
    cuts at exactly the `str.isspace` characters the regex skips.  Any
    other text, and anything that is not a `str`, goes to the regex,
    which alone decides what is rejected and where.
    """
    if type(text) is str:
        padded = text.replace("(", " ( ").replace(")", " ) ")
        tokens = padded.replace("~", " ~ ").replace("¬", " ¬ ").split()
        if _KNOWN.issuperset(tokens):
            return tokens
    tokens = _TOKEN_RE.findall(text)
    if not _KNOWN.issuperset(tokens):
        pos = next(m.start() for m in _TOKEN_RE.finditer(text) if m[0] not in _KNOWN)
        raise LexError(f"unknown token starting at {text[pos:pos + 4]!r}", pos)
    return tokens


# ---------------------------------------------------------------------------
# Parser (precedence climbing over _CONNECTIVES)

# Deepest nesting `parse` accepts, counting both the tree's height and
# open '(' and '~'.  Parsing takes two frames per open '(', one per '~'
# and one per connective awaiting a right operand that is not a lone atom
# (302 with `parse` itself for `L1 & (` or `(L1 & ` nested 100 deep, the
# most found); printing or evaluating one per tree level.  So accepted
# formulas stay well inside the default recursion limit.
MAX_NESTING = 100
_TOO_DEEP = f"formula nests deeper than {MAX_NESTING} levels"

# the twelve atoms, one shared instance each: formulas are immutable
_ATOMS = {name: Atom(name) for name in ATOM_NAMES}


class _Parser:
    """Precedence climbing; the reducing methods return (formula, tree height).

    The state lives on the instance, not in closures, so a parse leaves
    no reference cycle for the garbage collector.
    """

    __slots__ = ("text", "tokens", "i")

    def __init__(self, text: str, tokens: list[str]):
        self.text = text
        self.tokens = tokens
        self.i = 0

    def error(self, message: str, k: int) -> ParseError:
        """`message` at token `k`; tokens carry no positions, so this lexes the text again."""
        starts = (m.start() for j, m in enumerate(_TOKEN_RE.finditer(self.text)) if j == k)
        return ParseError(message, next(starts, len(self.text)))

    def operand(self, depth: int) -> tuple[Formula, int]:
        """An atom, '~' operand or '( formula )', inside `depth` open '(' and '~'."""
        k = self.i
        text = self.tokens[k]
        self.i = k + 1
        if (atom := _ATOMS.get(text)) is not None:
            return atom, 0
        if not text:
            raise self.error("missing operand: unexpected end of input", k)
        if text != "(" and text != "~" and text != "¬":
            raise self.error(f"expected an atom, '~' or '(', found {text!r}", k)
        if depth == MAX_NESTING:
            raise self.error(_TOO_DEEP, k)
        if text != "(":
            f, height = self.operand(depth + 1)
            if height >= MAX_NESTING:  # the negation is one level higher
                raise self.error(_TOO_DEEP, k)
            node = _new(Not)
            _set_arg(node, f)
            return node, height + 1
        inner = self.binary(0, depth + 1)
        text = self.tokens[self.i]
        if text != ")":
            raise self.error(f"expected ')', found {text or 'end of input'!r}", self.i)
        self.i += 1
        return inner

    def binary(self, loosest: int, depth: int) -> tuple[Formula, int]:
        """Operands joined by connectives that bind tighter than `loosest`.

        An atom operand is taken here rather than through `operand`.  On
        the right that holds only when the token after the atom binds no
        tighter than the connective, so that the atom is the whole right
        operand, as `self.binary(binding, depth)` would find.
        """
        tokens = self.tokens
        k = self.i
        left = _ATOMS.get(tokens[k])
        if left is None:
            left, height = self.operand(depth)
        else:
            self.i = k + 1
            height = 0
        while True:
            k = self.i
            connective = _BY_TEXT.get(tokens[k])
            if connective is None or connective[0] <= loosest:
                return left, height
            binding, cls, associates = connective
            right = _ATOMS.get(tokens[k + 1])  # an atom is never the end of input
            if right is not None and _BY_TEXT.get(tokens[k + 2], (0,))[0] <= binding:
                self.i = k + 2
                right_height = 0
            else:
                self.i = k + 1
                right, right_height = self.binary(binding, depth)
            # the right operand stopped at a connective binding no tighter
            # than this one; the same binding there makes a chain, which only
            # `&` and `|` allow.  A chain of conditionals is reported before
            # this node's height check and a chain of `=>` after it.
            chained = not associates and _BY_TEXT.get(tokens[self.i], (0,))[0] == binding
            if chained and cls is not StrictImp:
                pair = f"'{tokens[k]}' and '{tokens[self.i]}'"
                raise self.error(f"{pair} do not associate; parenthesize to disambiguate", self.i)
            height = (height if height > right_height else right_height) + 1
            if height > MAX_NESTING:
                raise self.error(_TOO_DEEP, k)
            node = _new(cls)
            _set_left(node, left)
            _set_right(node, right)
            left = node
            if chained:
                raise self.error("'=>' does not associate; parenthesize one side", self.i)


def parse(text: str) -> Formula:
    """Parse `text` into a Formula; raises LexError/ParseError with a position.

    Formulas nested deeper than MAX_NESTING are rejected with ParseError.
    """
    tokens = _tokens(text)
    tokens.append("")  # the end of input
    parser = _Parser(text, tokens)
    f, _ = parser.binary(0, 0)
    if tokens[parser.i]:
        raise parser.error(f"expected end of input, found {tokens[parser.i]!r}", parser.i)
    return f


# ---------------------------------------------------------------------------
# Printer

def unparse(f: Formula) -> str:
    """Canonical text with minimal parentheses; parse(unparse(f)) == f."""
    return _text(f, 0)


def _text(f: Formula, binding: int) -> str:
    """`f` printed, in parentheses if it binds looser than `binding`."""
    kind = type(f)
    if kind is Atom:
        return f.name
    if kind is Not:
        return "~" + _text(f.arg, _ATOMIC)
    if kind not in _BY_CLASS:
        raise TypeError(f"not a formula node: {f!r}")
    # a left-associating chain nests to the left, so only there may the
    # left operand bind as loosely as the connective itself
    own, symbol, associates = _BY_CLASS[kind]
    text = f"{_text(f.left, own if associates else own + 1)} {symbol} {_text(f.right, own + 1)}"
    return f"({text})" if own < binding else text
