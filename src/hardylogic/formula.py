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
from operator import attrgetter
from types import FunctionType

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


class _Generated:
    """`Value.__init__` or `Value._store`, which a lookup reaches until the store exists.

    A class's first build, or any other read of either name, such as
    `inspect.signature`'s, calls `_generate`, which puts the store on
    the classes where later lookups find it first, and then reads the
    name again.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __get__(self, obj, cls):
        _generate(cls)
        return getattr(cls, self.name).__get__(obj, cls)


class Value:
    """Base of the package's frozen value classes.

    A subclass names its fields, in constructor order, in `_fields` and
    keeps them in `__slots__`; `_defaults` gives the trailing fields'
    defaults.  Each value is built through one route, its class's
    store: a plain `__init__(self, <fields>, <field>=<default>, ...)`
    that stores each field through its slot's own setter.  The store is
    generated from `_fields` the first time the class is built, so a
    command pays only for the classes it builds, and Python binds the
    arguments and raises TypeError, naming the class, for a bad call.
    It is generated once, on the class that names the fields.  A class
    with no constructor of its own takes the store as its `__init__`,
    and each of its direct subclasses that has none either, as the five
    binary connectives under `_Binary`, a function of its own over the
    store's code, named for it, so that a bad call names the subclass.
    One that checks its fields calls `self._store(...)` and then checks
    them, or, as `Atom` and `ProofScript` do, checks first.  `Model`
    and `ProbabilityTable` keep constructors that store without it,
    since each works out a slot that is not a field: the mask, and the
    cells.  `parse` fills
    bare `Not` and binary nodes through the slots' setters, and the
    audit stores a bare `LineAudit` through `LineAudit._store` and then
    sets its JSON row.

    The base also derives equality (same class and equal fields), a
    hash of the field tuple, a repr in the form `Atom(name='L1')`, and
    pickling and copying that call the constructor again.  Assigning or
    deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()
    __init__, _store = _Generated("__init__"), _Generated("_store")

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


def _generate(cls: type):
    """Generate the store of the class that names `cls`'s fields, and put it on that class.

    The store becomes that class's `_store` and, unless the class has a
    constructor of its own, its `__init__`, and each direct subclass
    without a constructor gets its own function over the store's code
    as its `__init__`; an own constructor gets the store as
    `__wrapped__`, so that `help` and `inspect.signature` show the
    fields once the store exists.
    """
    for owner in cls.__mro__:
        if owner.__dict__.get("_fields"):
            break
    else:
        raise TypeError(f"{cls.__qualname__} has no fields to store")
    fields, defaults = owner._fields, owner._defaults
    first = len(fields) - len(defaults)  # the first field with a default
    params = [f"{name}=_defaults[{i - first}]" if i >= first else name
              for i, name in enumerate(fields)]
    body = [f"_set_{name}(self, {name})" for name in fields]
    namespace = {f"_set_{name}": getattr(owner, name).__set__ for name in fields}
    namespace.update(__builtins__={}, _defaults=defaults)
    source = "\n    ".join([f"def __init__(self, {', '.join(params)}):", *body])
    exec(compile(source, f"<{owner.__qualname__} store>", "exec"), namespace)
    store = namespace["__init__"]
    store.__qualname__ = f"{owner.__qualname__}.__init__"
    owner._store = store
    if "__init__" in owner.__dict__:
        owner.__init__.__wrapped__ = store
        return store
    owner.__init__ = store
    for sub in owner.__subclasses__():
        if "__init__" not in sub.__dict__:
            init = FunctionType(store.__code__, store.__globals__, "__init__", store.__defaults__)
            init.__qualname__ = f"{sub.__qualname__}.__init__"
            sub.__init__ = init
    return store


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
        self._store(name)

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
