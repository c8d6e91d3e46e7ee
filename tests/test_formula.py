import copy
import gc
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylogic.formula import (
    ATOM_NAMES,
    And,
    Atom,
    Counterfactual,
    MAX_NESTING,
    LexError,
    MatImp,
    Not,
    Or,
    ParseError,
    StrictImp,
    _KNOWN,
    _TOKEN_RE,
    _tokens,
    check_paper_normal,
    parse,
    unparse,
)
from oracles import random_formula

L1, L2, R1, R2 = Atom("L1"), Atom("L2"), Atom("R1"), Atom("R2")


def test_parse_derivation_line_1():
    f = parse("L2 & R2 & L2+ => (R1 []-> L2 & R1 & L2+)")
    assert f == StrictImp(
        And(And(L2, R2), Atom("L2+")),
        Counterfactual(R1, And(And(L2, R1), Atom("L2+"))),
    )


def test_parse_single_atom():
    assert parse("L1") == L1


def test_parse_negated_conditional():
    f = parse("~(L1- -> R1 & R1-)")
    assert f == Not(MatImp(Atom("L1-"), And(R1, Atom("R1-"))))


def test_parse_unicode_aliases():
    ascii_form = parse("L2 & R2 & L2+ => (R1 []-> ~(L1 | L2))")
    unicode_form = parse("L2 ∧ R2 ∧ L2+ ⇒ (R1 □→ ¬(L1 ∨ L2))")
    assert ascii_form == unicode_form


def test_precedence_and_binds_tighter_than_or():
    assert parse("L1 & L2 | R1") == Or(And(L1, L2), R1)


def test_precedence_or_binds_tighter_than_arrow():
    assert parse("L1 | L2 -> R1") == MatImp(Or(L1, L2), R1)


def test_mixed_conditionals_without_parens_rejected():
    with pytest.raises(ParseError):
        parse("L1 -> L2 []-> R1")
    with pytest.raises(ParseError):
        parse("L1 []-> L2 -> R1")


def test_chained_conditionals_rejected():
    with pytest.raises(ParseError):
        parse("L1 -> L2 -> R1")
    with pytest.raises(ParseError):
        parse("L1 => L2 => R1")


def test_parenthesized_conditionals_accepted():
    f = parse("(L1 -> L2) []-> R1")
    assert f == Counterfactual(MatImp(L1, L2), R1)


def test_lex_error_reports_position():
    with pytest.raises(LexError) as err:
        parse("L1 & $L2")
    assert err.value.position == 5


def test_unknown_setting_is_a_lex_error():
    with pytest.raises(LexError):
        parse("L3")


def test_outcome_atom_is_one_token():
    # longest-match lexing: 'L1-' swallows the minus, leaving a bare '>'
    with pytest.raises(LexError):
        parse("L1->R1")
    assert parse("L1 -> R1") == MatImp(L1, R1)


def test_missing_operand():
    with pytest.raises(ParseError):
        parse("L1 &")
    with pytest.raises(ParseError):
        parse("~")


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse("(L1 & L2")
    with pytest.raises(ParseError):
        parse("L1 & L2)")


def test_empty_input():
    with pytest.raises(ParseError):
        parse("")


def test_unparse_atom():
    assert unparse(L1) == "L1"


def test_unparse_counterfactual():
    assert unparse(Counterfactual(R1, And(R1, Atom("R1-")))) == "R1 []-> R1 & R1-"


def test_roundtrip_derivation_line_9():
    text = "(L1 & R2 & L1-) => (R1 []-> R1 & R1-)"
    f = parse(text)
    assert parse(unparse(f)) == f


def test_unparse_right_nested_conjunction_keeps_parens():
    f = And(L1, And(L2, R1))
    assert unparse(f) == "L1 & (L2 & R1)"
    assert parse(unparse(f)) == f


def test_parsed_formulas_share_the_twelve_atoms():
    assert parse("L1 & L1").left is parse("R1 -> L1").right
    assert parse("R1-").choice() is parse("R1")
    f = parse("(L1 & R2+) => (R1 []-> ~L1 | R2+)")
    assert f.left.left is f.right.right.left.arg
    copies = [pickle.loads(pickle.dumps(f, protocol)) for protocol in (2, 3, 4, 5)]
    for again in copies + [copy.copy(f), copy.deepcopy(f)]:
        assert again == f and unparse(again) == unparse(f)


def test_atom_accessors():
    a = Atom("R1-")
    assert a.region == "R" and a.setting == "R1" and a.sign == "-"
    assert a.is_outcome and not a.is_choice
    assert a.choice() == R1
    assert R2.is_choice and R2.sign is None


def test_exactly_twelve_atoms():
    assert len(ATOM_NAMES) == 12
    with pytest.raises(ValueError):
        Atom("L3")
    with pytest.raises(ValueError):
        Atom("R1*")


def test_paper_normal_on_derivation_line_4():
    f = parse("(L2 & R2 & R2+) => (R1 []-> L2 & R1 & R1-)")
    report = check_paper_normal(f)
    assert report.ok and report.violation is None


def test_paper_normal_rejects_nested_strict():
    f = StrictImp(StrictImp(L1, L2), R1)
    report = check_paper_normal(f)
    assert not report.ok
    assert "strict" in report.violation


def test_paper_normal_rejects_compound_counterfactual_antecedent():
    report = check_paper_normal(Counterfactual(And(R1, L1), Atom("R1-")))
    assert not report.ok
    assert "antecedent" in report.violation


def test_paper_normal_rejects_outcome_antecedent():
    assert not check_paper_normal(Counterfactual(Atom("R1-"), R1)).ok


def test_nesting_bound():
    n = MAX_NESTING
    for text in ("~" * n + "L1", "(" * n + "L1" + ")" * n, " & ".join(["L1"] * (n + 1))):
        f = parse(text)
        assert parse(unparse(f)) == f
    too_deep = (
        "~" * (n + 1) + "L1",
        "(" * (n + 1) + "L1" + ")" * (n + 1),
        " & ".join(["L1"] * (n + 2)),
        "~" * 1000 + "L1",
        "(" * 1000 + "L1" + ")" * 1000,
        " & ".join(["L1"] * 500),
    )
    for text in too_deep:
        with pytest.raises(ParseError, match="nests deeper"):
            parse(text)


def _stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deepest_formulas_parse_within_the_stated_frames():
    # the MAX_NESTING comment counts at most 302 frames for a parse,
    # `parse` itself included; a parser that needs many more fails here
    n = MAX_NESTING
    deepest = (
        "~" * n + "L1",
        "(" * n + "L1" + ")" * n,
        " & ".join(["L1"] * (n + 1)),
        "L1 & (" * n + "L1" + ")" * n,
        "(L1 & " * n + "L1" + ")" * n,
    )
    limit = sys.getrecursionlimit()
    for text in deepest:
        sys.setrecursionlimit(_stack_depth() + 350)
        try:
            f = parse(text)
        finally:
            sys.setrecursionlimit(limit)
        assert parse(unparse(f)) == f


def test_roundtrip_seeded_random_formulas():
    rng = random.Random(42)
    for _ in range(2000):
        f = random_formula(rng)
        assert parse(unparse(f)) == f


_atoms = st.sampled_from(ATOM_NAMES).map(Atom)
_formulas = st.recursive(
    _atoms,
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda t: And(*t)),
        st.tuples(sub, sub).map(lambda t: Or(*t)),
        st.tuples(sub, sub).map(lambda t: MatImp(*t)),
        st.tuples(sub, sub).map(lambda t: StrictImp(*t)),
        st.tuples(sub, sub).map(lambda t: Counterfactual(*t)),
    ),
    max_leaves=25,
)


@given(_formulas)
@settings(max_examples=300)
def test_roundtrip_property(f):
    assert parse(unparse(f)) == f


@given(st.text(max_size=30))
@settings(max_examples=300)
def test_parser_is_total(text):
    try:
        parse(text)
    except ParseError:
        pass  # includes LexError; anything else is a genuine crash


# Every token text and alias, whitespace that `str.split` and the regex
# both skip (ASCII and Unicode), and characters that start no token
_LEXER_PIECES = (
    *ATOM_NAMES,
    *("&", "∧", "|", "∨", "->", "→", "[]->", "□→", "=>", "⇒", "~", "¬", "(", ")"),
    *(" ", "\t", "\x1c", "\u00a0", "\u2028", "\u3000"),
    *("-", ">", "[", "x", "L3"),
)


@given(st.lists(st.sampled_from(_LEXER_PIECES), max_size=24).map("".join))
@settings(max_examples=500)
def test_lexer_gives_the_regex_tokens(text):
    expected = _TOKEN_RE.findall(text)
    try:
        tokens = _tokens(text)
    except LexError as err:
        unknown = [m.start() for m in _TOKEN_RE.finditer(text) if m[0] not in _KNOWN]
        assert unknown and err.position == unknown[0]
    else:
        assert tokens == expected and _KNOWN.issuperset(tokens)
    try:
        f = parse(text)
    except ParseError:
        return
    assert parse(unparse(f)) == f


@pytest.mark.parametrize("text", [None, 3, ["L1"], b"L1"])
def test_parse_rejects_what_is_not_text(text):
    with pytest.raises(TypeError):
        parse(text)


# Every error text of the language, with the exact message and position.
# The last three inputs have two defects each; the one reported first is
# part of the contract.
_AND_CHAIN_101 = " & ".join(["L1"] * 101)  # a tree of height 100, the most allowed


@pytest.mark.parametrize(
    "text, error, message, position",
    [
        ("L1 & $L2", LexError, "unknown token starting at '$L2'", 5),
        ("L1->R1", LexError, "unknown token starting at '>R1'", 3),
        ("L1 &", ParseError, "missing operand: unexpected end of input", 4),
        ("", ParseError, "missing operand: unexpected end of input", 0),
        ("L1 & & L2", ParseError, "expected an atom, '~' or '(', found '&'", 5),
        ("L1 & )", ParseError, "expected an atom, '~' or '(', found ')'", 5),
        ("(L1 & L2", ParseError, "expected ')', found 'end of input'", 8),
        ("(L1 L2)", ParseError, "expected ')', found 'L2'", 4),
        ("L1 & L2)", ParseError, "expected end of input, found ')'", 7),
        ("L1 => L2 => R1", ParseError, "'=>' does not associate; parenthesize one side", 9),
        ("(L1 ⇒ L2 ⇒ R1)", ParseError, "'=>' does not associate; parenthesize one side", 9),
        (
            "L1 -> L2 []-> R1",
            ParseError,
            "'->' and '[]->' do not associate; parenthesize to disambiguate",
            9,
        ),
        (
            "L1 => L2 □→ R1 → R2",
            ParseError,
            "'□→' and '→' do not associate; parenthesize to disambiguate",
            15,
        ),
        (_AND_CHAIN_101 + " & L1", ParseError, "formula nests deeper than 100 levels", 503),
        ("~" * 101 + "L1", ParseError, "formula nests deeper than 100 levels", 100),
        ("(" * 101 + "L1" + ")" * 101, ParseError, "formula nests deeper than 100 levels", 100),
        (_AND_CHAIN_101 + " => L2 => R2", ParseError, "formula nests deeper than 100 levels", 503),
        (
            _AND_CHAIN_101 + " -> L2 -> R2",
            ParseError,
            "'->' and '->' do not associate; parenthesize to disambiguate",
            509,
        ),
        ("(L1 -> L2 -> $", LexError, "unknown token starting at '$'", 13),
        # whitespace other than spaces separates tokens and counts in positions
        ("L1\t& $L2", LexError, "unknown token starting at '$L2'", 5),
        ("L1 &\n", ParseError, "missing operand: unexpected end of input", 5),
        ("L1\u00a0&\u3000", ParseError, "missing operand: unexpected end of input", 5),
        # end of input lies past any trailing whitespace
        ("(L1 & L2 \t ", ParseError, "expected ')', found 'end of input'", 11),
        # the whole text is lexed first, so a lex error beats the nesting bound
        ("(" * 101 + "L1 & $", LexError, "unknown token starting at '$'", 106),
    ],
)
def test_error_texts_and_positions(text, error, message, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert type(err.value) is error
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


_BINARIES = {"&": And, "|": Or, "->": MatImp, "[]->": Counterfactual, "=>": StrictImp}


# (outer, inner, side of outer the inner sits on, printed text)
@pytest.mark.parametrize(
    "outer, inner, side, text",
    [
        ("&", "&", "left", "L1 & L2 & R1"),
        ("&", "&", "right", "R1 & (L1 & L2)"),
        ("&", "|", "left", "(L1 | L2) & R1"),
        ("&", "|", "right", "R1 & (L1 | L2)"),
        ("&", "->", "left", "(L1 -> L2) & R1"),
        ("&", "->", "right", "R1 & (L1 -> L2)"),
        ("&", "[]->", "left", "(L1 []-> L2) & R1"),
        ("&", "[]->", "right", "R1 & (L1 []-> L2)"),
        ("&", "=>", "left", "(L1 => L2) & R1"),
        ("&", "=>", "right", "R1 & (L1 => L2)"),
        ("|", "&", "left", "L1 & L2 | R1"),
        ("|", "&", "right", "R1 | L1 & L2"),
        ("|", "|", "left", "L1 | L2 | R1"),
        ("|", "|", "right", "R1 | (L1 | L2)"),
        ("|", "->", "left", "(L1 -> L2) | R1"),
        ("|", "->", "right", "R1 | (L1 -> L2)"),
        ("|", "[]->", "left", "(L1 []-> L2) | R1"),
        ("|", "[]->", "right", "R1 | (L1 []-> L2)"),
        ("|", "=>", "left", "(L1 => L2) | R1"),
        ("|", "=>", "right", "R1 | (L1 => L2)"),
        ("->", "&", "left", "L1 & L2 -> R1"),
        ("->", "&", "right", "R1 -> L1 & L2"),
        ("->", "|", "left", "L1 | L2 -> R1"),
        ("->", "|", "right", "R1 -> L1 | L2"),
        ("->", "->", "left", "(L1 -> L2) -> R1"),
        ("->", "->", "right", "R1 -> (L1 -> L2)"),
        ("->", "[]->", "left", "(L1 []-> L2) -> R1"),
        ("->", "[]->", "right", "R1 -> (L1 []-> L2)"),
        ("->", "=>", "left", "(L1 => L2) -> R1"),
        ("->", "=>", "right", "R1 -> (L1 => L2)"),
        ("[]->", "&", "left", "L1 & L2 []-> R1"),
        ("[]->", "&", "right", "R1 []-> L1 & L2"),
        ("[]->", "|", "left", "L1 | L2 []-> R1"),
        ("[]->", "|", "right", "R1 []-> L1 | L2"),
        ("[]->", "->", "left", "(L1 -> L2) []-> R1"),
        ("[]->", "->", "right", "R1 []-> (L1 -> L2)"),
        ("[]->", "[]->", "left", "(L1 []-> L2) []-> R1"),
        ("[]->", "[]->", "right", "R1 []-> (L1 []-> L2)"),
        ("[]->", "=>", "left", "(L1 => L2) []-> R1"),
        ("[]->", "=>", "right", "R1 []-> (L1 => L2)"),
        ("=>", "&", "left", "L1 & L2 => R1"),
        ("=>", "&", "right", "R1 => L1 & L2"),
        ("=>", "|", "left", "L1 | L2 => R1"),
        ("=>", "|", "right", "R1 => L1 | L2"),
        ("=>", "->", "left", "L1 -> L2 => R1"),
        ("=>", "->", "right", "R1 => L1 -> L2"),
        ("=>", "[]->", "left", "L1 []-> L2 => R1"),
        ("=>", "[]->", "right", "R1 => L1 []-> L2"),
        ("=>", "=>", "left", "(L1 => L2) => R1"),
        ("=>", "=>", "right", "R1 => (L1 => L2)"),
    ],
)
def test_unparse_parenthesizes_minimally(outer, inner, side, text):
    nested = _BINARIES[inner](L1, L2)
    f = _BINARIES[outer](nested, R1) if side == "left" else _BINARIES[outer](R1, nested)
    assert unparse(f) == text
    assert parse(text) == f
    if "(" in text:  # the parentheses are needed: without them the text reads otherwise
        try:
            assert parse(text.replace("(", "").replace(")", "")) != f
        except ParseError:
            pass


def test_parsing_leaves_no_reference_cycles():
    # a cycle per parse would be freed only by the cyclic collector,
    # whose pauses then land inside callers' timed work
    rng = random.Random(7)
    texts = [unparse(random_formula(rng)) for _ in range(300)]
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            parse(text)
        assert gc.collect() == 0
    finally:
        gc.enable()
