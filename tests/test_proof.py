import copy
import gc
import itertools
import json
import pickle
import random
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylogic import proof, semantics
from hardylogic.formula import Atom, Not, StrictImp, parse, unparse
from hardylogic.proof import (
    ProofLine,
    ProofScript,
    SideCondition,
    audit,
    builtin_script,
    check_rule,
    sr_truth_table,
    validate_scopes,
)
from hardylogic.semantics import CfOptions, TemporalOrder, check_theorem
from hardylogic.worlds import (
    CHOICE_PAIRS,
    FORBIDDEN_WORLDS,
    OUTCOME_PAIRS,
    WORLDS,
    ProbabilityTable,
    World,
    build_model,
    worlds_in,
)
from conftest import pattern_models
from oracles import random_table_rows


@pytest.fixture(scope="module")
def script():
    return builtin_script()


def test_script_has_fourteen_lines(script):
    assert [ln.index for ln in script.lines] == list(range(1, 15))


EXPECTED_LINES = [
    "(L2 & R2 & L2+) => (R1 []-> L2 & R1 & L2+)",
    "(L2 & R2 & R2+) => (L2 & R2 & L2+)",
    "(L2 & R1 & L2+) => (L2 & R1 & R1-)",
    "(L2 & R2 & R2+) => (R1 []-> L2 & R1 & R1-)",
    "L2 => ((R2 & R2+) -> (R1 []-> R1 & R1-))",
    "L1 => ((R2 & R2+) -> (R1 []-> R1 & R1-))",
    "(L1 & R2 & R2+) => (R1 []-> R1 & R1-)",
    "(L1 & R2 & L1-) => (L1 & R2 & R2+)",
    "(L1 & R2 & L1-) => (R1 []-> R1 & R1-)",
    "(L1 & R2) => (L1- -> (R1 []-> R1 & R1-))",
    "(L1 & R2) => (R1 []-> (L1- -> R1 & R1-))",
    "(L1 & R1) => ~(L1- -> R1 & R1-)",
    "L1 => (R1 -> ~(L1- -> R1 & R1-))",
    "(L1 & R2) => (R1 []-> ~(L1- -> R1 & R1-))",
]


def test_statements_match_their_frozen_forms(script):
    for ln, text in zip(script.lines, EXPECTED_LINES):
        assert ln.statement == parse(text), f"line {ln.index}"


def test_line5_statement(script):
    line5 = script.line(5)
    assert unparse(line5.statement) == "L2 => R2 & R2+ -> (R1 []-> R1 & R1-)"
    assert line5.statement == parse("L2 => ((R2 & R2+) -> (R1 []-> R1 & R1-))")


def test_line6_is_the_hypothesis(script):
    line6 = script.line(6)
    assert line6.rule == "HYPOTHESIS"
    assert line6.hypothesis_scope == frozenset()
    # line 6 is line 5 with the L2 antecedent replaced by L1
    assert line6.statement == StrictImp(Atom("L1"), script.line(5).statement.right)


def test_hypothesis_scopes(script):
    for ln in script.lines:
        expected = frozenset({6}) if 7 <= ln.index <= 11 else frozenset()
        assert ln.hypothesis_scope == expected, f"line {ln.index}"


def test_side_condition(script):
    (side,) = script.side_conditions
    assert side.formula == parse("L1 & R1 & L1-")
    assert "possible world" in side.description


def test_scope_validation_passes(script):
    assert validate_scopes(script) == []


def test_scope_validation_catches_missing_scope(script):
    lines = tuple(
        ProofLine(ln.index, ln.statement, ln.rule, ln.premises, frozenset(), ln.note)
        for ln in script.lines
    )
    broken = ProofScript(lines, script.side_conditions)
    problems = validate_scopes(broken)
    assert any("line 7" in p for p in problems)


def test_unknown_rule_tag_rejected():
    with pytest.raises(ValueError):
        ProofLine(1, parse("L1"), "MODUS_WAT")


def test_forward_premise_rejected():
    with pytest.raises(ValueError):
        ProofLine(3, parse("L1"), "A5", premises=(3,))


def test_repeated_line_index_rejected(script):
    lines = (*script.lines, script.line(4))
    with pytest.raises(ValueError, match="^line 4 appears more than once$"):
        ProofScript(lines, script.side_conditions)


def test_premise_naming_an_absent_line_rejected(script):
    lines = tuple(ln for ln in script.lines if ln.index != 1)  # line 4 cites 1
    with pytest.raises(ValueError, match="^line 4 cites line 1, which the script lacks$"):
        ProofScript(lines, script.side_conditions)


def test_proof_line_takes_its_premises_and_scope_frozen():
    # a list of premises could be appended to after the line checked them
    with pytest.raises(ValueError, match=r"^premises must be a tuple, got \[1\]$"):
        ProofLine(2, parse("L1 => L1"), "A5", [1])
    with pytest.raises(ValueError, match=r"^hypothesis_scope must be a frozenset, got \{1\}$"):
        ProofLine(2, parse("L1 => L1"), "A5", (1,), {1})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ProofLine(1, "L1 => L1", "B6"), "statement must be a formula, got 'L1 => L1'"),
        (lambda: ProofLine(True, parse("L1"), "B6"), "index must be an int, got True"),
        (lambda: ProofLine(1.0, parse("L1"), "B6"), "index must be an int, got 1.0"),
        (lambda: ProofLine(2, parse("L1"), "A5", ("a",)), "premises must be line indices, got ('a',)"),
        (lambda: ProofLine(2, parse("L1"), "A5", (False,)), "premises must be line indices, got (False,)"),
        (lambda: ProofScript((1,), ()), "lines must hold ProofLine values, got 1"),
        (lambda: ProofScript((), ("L1",)), "side_conditions must hold SideCondition values, got 'L1'"),
        (lambda: ProofScript((), (), (None,)), "notes must hold str values, got None"),
        (lambda: SideCondition("L1", "d"), "formula must be a formula, got 'L1'"),
    ],
    ids=[
        "text-statement", "bool-index", "float-index", "text-premise", "bool-premise",
        "int-line", "text-side-condition", "none-note", "text-formula",
    ],
)
def test_proof_values_refuse_a_field_of_the_wrong_type(build, message):
    # each a ValueError naming the field, at once: not a TypeError or
    # AttributeError later, from a comparison or an audit
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


@pytest.mark.parametrize("field", ["lines", "side_conditions", "notes"])
def test_proof_script_takes_its_parts_as_tuples(script, field):
    # a list of lines could take a duplicate index after the script checked them
    parts = {"lines": script.lines, "side_conditions": script.side_conditions, "notes": ()}
    parts[field] = list(parts[field])
    with pytest.raises(ValueError, match=f"^{field} must be a tuple, got \\["):
        ProofScript(**parts)


# Single edits of the frozen prediction lines, each failing one operand of
# one `or`/`and` guard in the one shape matcher, `_check_prediction` and
# its tail `_named_cell`, and passing every other check, so that a guard
# that joined its operands the other way would give a cell verdict or
# raise instead
_ZERO_SHAPE = "(choices ^ outcome) => (same choices ^ other region's outcome)"
_WITNESS_SHAPE = "(choices) => ~(earlier outcome -> later choice ^ outcome)"
_GUARD_EDITS = {
    # PRED21, line 2: (L2 & R2 & R2+) => (L2 & R2 & L2+)
    "ant-has-four-conjuncts": (2, "(L2 & R2 & R2+ & R2) => (L2 & R2 & L2+)"),
    "cons-has-four-conjuncts": (2, "(L2 & R2 & R2+) => (L2 & R2 & L2+ & L2)"),
    "cons-changes-the-left-choice": (2, "(L2 & R2 & R2+) => (L1 & R2 & L2+)"),
    # PRED22, line 3: (L2 & R1 & L2+) => (L2 & R1 & R1-)
    "cons-changes-the-right-choice": (3, "(L2 & R1 & L2+) => (L2 & R2 & R1-)"),
    # PRED23, line 8: (L1 & R2 & L1-) => (L1 & R2 & R2+)
    "left-choice-is-an-outcome": (8, "(L1+ & R2 & L1-) => (L1+ & R2 & R2+)"),
    "right-choice-is-an-outcome": (8, "(L1 & R2- & L1-) => (L1 & R2- & R2+)"),
    "ant-outcome-of-the-other-setting": (8, "(L1 & R2 & L2-) => (L1 & R2 & R2+)"),
    "cons-outcome-of-the-other-setting": (8, "(L1 & R2 & L1-) => (L1 & R2 & R1+)"),
    # PRED24, line 12: (L1 & R1) => ~(L1- -> R1 & R1-)
    "left-choice-negated": (12, "(~L1 & R1) => ~(L1- -> R1 & R1-)"),
    "right-choice-negated": (12, "(L1 & ~R1) => ~(L1- -> R1 & R1-)"),
    "cons-not-negated": (12, "(L1 & R1) => (L1- -> R1 & R1-)"),
    "negated-disjunction": (12, "(L1 & R1) => ~(L1- | R1 & R1-)"),
    "three-later-conjuncts": (12, "(L1 & R1) => ~(L1- -> R1 & R1- & R1)"),
    "later-outcome-negated": (12, "(L1 & R1) => ~(L1- -> R1 & ~R1-)"),
    "later-choice-is-an-outcome": (12, "(L1 & R1) => ~(L1- -> R1+ & R1-)"),
    "later-outcome-is-a-choice": (12, "(L1 & R1) => ~(L1- -> R1 & R1)"),
    "later-outcome-of-the-other-setting": (12, "(L1 & R1) => ~(L1- -> R1 & R2-)"),
    "later-outcome-in-the-earlier-region": (12, "(L1 & R1) => ~(L1- -> L1 & L1+)"),
    # a guard of its own, each
    "ant-outcome-negated": (2, "(L2 & R2 & ~R2+) => (L2 & R2 & L2+)"),
    "three-antecedent-conjuncts": (12, "(L1 & R1 & L1-) => ~(L1- -> R1 & R1-)"),
    "later-choice-not-the-lines-own": (12, "(L1 & R1) => ~(L1- -> R2 & R2-)"),
}


@pytest.mark.parametrize("index, text", _GUARD_EDITS.values(), ids=_GUARD_EDITS)
def test_a_prediction_line_failing_one_guard_operand_is_invalid(hardy_model, script, index, text):
    ln = script.line(index)
    statement = parse(text)
    edited = _with_line(
        script,
        ProofLine(index, statement, ln.rule, ln.premises, ln.hypothesis_scope, ln.note),
    )
    shape = _WITNESS_SHAPE if ln.rule == "PRED24" else _ZERO_SHAPE
    verdict = check_rule(hardy_model, edited, index)
    assert verdict.status == proof.INVALID
    assert verdict.detail == f"expected {shape}, found {unparse(statement)}"


# Single edits of the frozen A5, LOC1_COMMUTE and DEF lines or of the line
# each cites, each failing one operand of one `or`/`and` guard in
# `_check_a5`, `_check_loc1_commute` or `_check_def` and passing every
# other check before it: a guard that joined its operands the other way
# would raise on the edit, or give it another verdict.  Each is (the line
# edited, its new statement, the line checked, the checked line's detail).
_STRICT_BOTH = "premise and conclusion must be strict conditionals"
_RULE_GUARD_EDITS = {
    # A5, line 7 from line 6: (L1 & R2 & R2+) => (R1 []-> R1 & R1-)
    "a5-conclusion-not-strict": (
        7, "(L1 & R2 & R2+) -> (R1 []-> R1 & R1-)", 7, _STRICT_BOTH,
    ),
    "a5-premise-not-strict": (
        6, "L1 -> ((R2 & R2+) -> (R1 []-> R1 & R1-))", 7, _STRICT_BOTH,
    ),
    # LOC1_COMMUTE, line 11 from line 10: (L1 & R2) => (R1 []-> (L1- -> R1 & R1-))
    "commute-conclusion-not-strict": (
        11, "(L1 & R2) -> (R1 []-> (L1- -> R1 & R1-))", 11,
        "antecedents must match across the commute",
    ),
    "commute-premise-not-strict": (
        10, "(L1 & R2) -> (L1- -> (R1 []-> R1 & R1-))", 11,
        "antecedents must match across the commute",
    ),
    "commute-antecedents-reordered": (
        11, "(R2 & L1) => (R1 []-> (L1- -> R1 & R1-))", 11,
        "antecedents must match across the commute",
    ),
    "commute-conclusion-box-made-material": (
        11, "(L1 & R2) => (R1 -> (L1- -> R1 & R1-))", 11,
        "both sides must carry a counterfactual",
    ),
    "commute-premise-box-made-material": (
        10, "(L1 & R2) => (L1- -> (R1 -> R1 & R1-))", 11,
        "both sides must carry a counterfactual",
    ),
    # DEF, line 14 from line 13: (L1 & R2) => (R1 []-> ~(L1- -> R1 & R1-))
    "def-conclusion-not-strict": (
        14, "(L1 & R2) -> (R1 []-> ~(L1- -> R1 & R1-))", 14, _STRICT_BOTH,
    ),
    "def-premise-not-strict": (
        13, "L1 -> (R1 -> ~(L1- -> R1 & R1-))", 14, _STRICT_BOTH,
    ),
    "def-box-imposes-another-choice": (
        14, "(L1 & R2) => (R2 []-> ~(L1- -> R1 & R1-))", 14,
        "imposed choice and box consequent must match the premise",
    ),
    "def-box-consequent-changed": (
        14, "(L1 & R2) => (R1 []-> ~(L1- -> R1 & R1+))", 14,
        "imposed choice and box consequent must match the premise",
    ),
    "def-premise-antecedent-has-a-later-atom": (
        13, "(L1 & R2) => (R1 -> ~(L1- -> R1 & R1-))", 14,
        "premise antecedent must contain only earlier-region atoms",
    ),
    "def-extra-conjunct-in-the-earlier-region": (
        14, "(L1 & R2 & L1+) => (R1 []-> ~(L1- -> R1 & R1-))", 14,
        "extra conclusion conjuncts must be later-region atoms",
    ),
    "def-extra-conjunct-not-an-atom": (
        14, "(L1 & R2 & ~R2+) => (R1 []-> ~(L1- -> R1 & R1-))", 14,
        "extra conclusion conjuncts must be later-region atoms",
    ),
    # and single edits that fail a check outside any such guard
    "prediction-not-strict": (
        2, "(L2 & R2 & R2+) -> (L2 & R2 & L2+)", 2,
        "prediction lines must be strict conditionals",
    ),
    # B6, line 1: (L2 & R2 & L2+) => (R1 []-> L2 & R1 & L2+)
    "b6-not-strict": (
        1, "(L2 & R2 & L2+) -> (R1 []-> L2 & R1 & L2+)", 1, "expected a strict conditional",
    ),
    "b6-box-made-material": (
        1, "(L2 & R2 & L2+) => (R1 -> L2 & R1 & L2+)", 1, "consequent must be a counterfactual",
    ),
    "b6-two-antecedent-conjuncts": (
        1, "(L2 & R2) => (R1 []-> L2 & R1 & L2+)", 1,
        "antecedent must conjoin choice, choice, outcome",
    ),
    # B7, line 4, and B5, line 9: each's conclusion
    "b7-not-strict": (
        4, "(L2 & R2 & R2+) -> (R1 []-> L2 & R1 & R1-)", 4, "expected a strict conditional",
    ),
    "b5-box-made-material": (
        9, "(L1 & R2 & L1-) => (R1 -> R1 & R1-)", 9, "consequent must be a counterfactual",
    ),
    # A5, line 5 from line 4: the box's conjuncts rebracketed, none dropped
    "a5-box-rebracketed": (
        5, "L2 => ((R2 & R2+) -> (R1 []-> L2 & (R1 & R1-)))", 5,
        "no import/export match between premise L2 & R2 & R2+ => R1 []-> L2 & R1 & R1- "
        "and conclusion L2 => R2 & R2+ -> (R1 []-> L2 & (R1 & R1-))",
    ),
    "commute-premise-consequent-a-conjunction": (
        10, "(L1 & R2) => (L1- & (R1 []-> R1 & R1-))", 11,
        "premise consequent must be (E -> [c []-> D])",
    ),
    "def-premise-consequent-a-conjunction": (
        13, "L1 => (R1 & ~(L1- -> R1 & R1-))", 14, "premise consequent must be (c -> Y)",
    ),
    "def-box-made-material": (
        14, "(L1 & R2) => (R1 -> ~(L1- -> R1 & R1-))", 14,
        "conclusion consequent must be a counterfactual",
    ),
}


@pytest.mark.parametrize(
    "edited, text, checked, detail", _RULE_GUARD_EDITS.values(), ids=_RULE_GUARD_EDITS
)
def test_a_rule_line_failing_one_guard_operand_is_invalid(
    hardy_model, script, edited, text, checked, detail
):
    ln = script.line(edited)
    edit = ProofLine(edited, parse(text), ln.rule, ln.premises, ln.hypothesis_scope, ln.note)
    verdict = check_rule(hardy_model, _with_line(script, edit), checked)
    assert verdict == proof.RuleVerdict(proof.INVALID, detail)


def test_a_def_line_imposing_an_earlier_choice_is_invalid(hardy_model, script):
    # under order R the builtin line 14 fails only the first operand of its
    # guard: R1 is the premise's choice and the box's, but not a later one
    verdict = check_rule(hardy_model, script, 14, CfOptions(TemporalOrder("R")))
    assert verdict == proof.RuleVerdict(
        proof.INVALID, "imposed choice and box consequent must match the premise"
    )


def test_a_line_the_script_lacks_is_a_key_error(hardy_model, script):
    with pytest.raises(KeyError, match="no line 15"):
        script.line(15)
    with pytest.raises(KeyError, match="no line 15"):
        check_rule(hardy_model, script, 15)


@pytest.mark.parametrize("index", [True, False, 1.0, 6.0, "1", None])
def test_an_index_that_is_not_an_int_names_no_line(hardy_model, script, index):
    # `True == 1` and `1.0 == 1`, but a line index is an int, as `ProofLine` demands
    for lookup in (script.line, lambda i: check_rule(hardy_model, script, i)):
        with pytest.raises(KeyError) as raised:
            lookup(index)
        assert raised.value.args == (f"no line {index}",)


@pytest.mark.parametrize("bad", [5, "builtin", ()])
def test_a_script_that_is_not_a_proof_script_is_refused(hardy_model, bad):
    message = re.escape(f"script must be a ProofScript, got {bad!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        audit(hardy_model, bad)
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_rule(hardy_model, bad, 1)


def test_a_hypothesis_citing_a_premise_is_invalid(hardy_model, script):
    ln = script.line(6)
    edit = ProofLine(6, ln.statement, ln.rule, (5,), ln.hypothesis_scope, ln.note)
    verdict = check_rule(hardy_model, _with_line(script, edit), 6)
    assert verdict == proof.RuleVerdict(proof.INVALID, "a hypothesis cites no premises")


def test_a_line_that_is_not_strict_takes_no_part_in_a_clash(hardy_model, script):
    # line 13 made material: its own rule fails, and the clash of lines 11 and
    # 14 still refutes the hypothesis
    ln = script.line(13)
    statement = parse("L1 -> (R1 -> ~(L1- -> R1 & R1-))")
    edited = _with_line(script, ProofLine(13, statement, ln.rule, ln.premises))
    report = audit(hardy_model, edited)
    line13 = next(la for la in report.lines if la.index == 13)
    assert (line13.rule_status, line13.rule_detail) == (proof.INVALID, _STRICT_BOTH)
    assert report.final.contradiction_lines == (11, 14)
    assert report.final.contradiction_lines == audit(hardy_model, script).final.contradiction_lines


@pytest.mark.parametrize(
    "scope, problem",
    [
        ({6, 99}, "line 11 scoped to non-hypothesis line 99"),  # no such line
        ({6, 5}, "line 11 scoped to non-hypothesis line 5"),  # a line, not the hypothesis
    ],
    ids=["absent-line", "not-the-hypothesis"],
)
def test_a_scope_failing_one_guard_operand_is_a_problem(script, scope, problem):
    # line 11, the last scoped line, which no line cites
    ln = script.line(11)
    edit = ProofLine(11, ln.statement, ln.rule, ln.premises, frozenset(scope), ln.note)
    assert validate_scopes(_with_line(script, edit)) == [problem]


def test_all_rules_valid_on_hardy_model(hardy_model, script):
    for ln in script.lines:
        verdict = check_rule(hardy_model, script, ln.index)
        assert verdict.ok, f"line {ln.index} ({ln.rule}): {verdict.detail}"


def test_prediction_rule_checks_cells(hardy_model, script):
    v = check_rule(hardy_model, script, 2)
    assert v.ok and "L2" in v.detail
    v12 = check_rule(hardy_model, script, 12)
    assert v12.ok and "witness" in v12.detail


def test_prediction_rules_fail_on_uniform_model(uniform_model, script):
    for index in (2, 3, 8):
        assert not check_rule(uniform_model, script, index).ok
    assert check_rule(uniform_model, script, 12).ok  # witness cell still possible


@pytest.mark.parametrize("quantifier", ["every", "some"])
def test_a_prediction_tag_says_only_what_kind_of_cell_its_statement_names(
    hardy_model, script, quantifier
):
    # No tag stands for one of Hardy's cells: lines 2 and 3 with their tags
    # swapped are each checked against their own zero cell, and a witness
    # or zero line naming another cell is judged by the model's cell
    edits = [ProofLine(2, script.line(2).statement, "PRED22"),
             ProofLine(3, script.line(3).statement, "PRED21")]
    expected = {index: check_rule(hardy_model, script, index) for index in (2, 3)}
    paradox = hardy_model.table.prob(World("L1", "R1", "-", "+"))
    for index, text, rule, status, detail in [
        (8, "(L2 & R2) => ~(L2+ -> R2 & R2+)", "PRED24", proof.VALID,
         "witness cell ('L2', 'R2', '+-') confirmed possible in the model"),
        (8, "(L2 & R2) => ~(R2+ -> L2 & L2+)", "PRED24", proof.INVALID,
         "witness cell ('L2', 'R2', '-+') carries no probability above the threshold"),
        (12, "(L1 & R1 & R1+) => (L1 & R1 & L1+)", "PRED23", proof.INVALID,
         f"cell ('L1', 'R1', '-+') carries probability {paradox!r}; not a zero cell"),
    ]:
        edits.append(ProofLine(index, parse(text), rule))
        expected[index] = proof.RuleVerdict(status, detail)
    edited = script
    for ln in edits:
        edited = _with_line(edited, ln)
    report = audit(hardy_model, edited, CfOptions(quantifier=quantifier))
    for index, verdict in expected.items():
        assert check_rule(hardy_model, edited, index) == verdict
        la = report.lines[index - 1]
        assert (la.rule_status, la.rule_detail) == (verdict.status, verdict.detail)


def test_line4_without_weakening_premise_is_invalid(hardy_model, script):
    line4 = script.line(4)
    mutated = _with_line(script, ProofLine(4, line4.statement, "B7", (1, 2)))
    assert not check_rule(hardy_model, mutated, 4).ok


def test_line7_citing_wrong_premise_is_invalid(hardy_model, script):
    line7 = script.line(7)
    mutated = _with_line(
        script, ProofLine(7, line7.statement, "A5", (5,), line7.hypothesis_scope)
    )
    assert not check_rule(hardy_model, mutated, 7).ok


def _with_line(script, new_line):
    lines = tuple(new_line if ln.index == new_line.index else ln for ln in script.lines)
    return ProofScript(lines, script.side_conditions, script.notes)


def _flip_atom(f, position, replacement, counter=None):
    """Replace the atom at pre-order `position` with `replacement`."""
    if counter is None:
        counter = [0]
    if isinstance(f, Atom):
        counter[0] += 1
        return replacement if counter[0] - 1 == position else f
    if isinstance(f, Not):
        return Not(_flip_atom(f.arg, position, replacement, counter))
    kind = type(f)
    return kind(
        _flip_atom(f.left, position, replacement, counter),
        _flip_atom(f.right, position, replacement, counter),
    )


def _count_atoms(f):
    if isinstance(f, Atom):
        return 1
    if isinstance(f, Not):
        return _count_atoms(f.arg)
    return _count_atoms(f.left) + _count_atoms(f.right)


def test_mutation_robustness_atom_flips(hardy_model, script):
    # flipping any single atom occurrence anywhere in the script must
    # invalidate at least one rule verdict
    for ln in script.lines:
        n = _count_atoms(ln.statement)
        for pos in range(n):
            for new_name in ("L1", "R2-", "L2+"):
                mutated_stmt = _flip_atom(ln.statement, pos, Atom(new_name))
                if mutated_stmt == ln.statement:
                    continue
                mutated = _with_line(
                    script,
                    ProofLine(
                        ln.index, mutated_stmt, ln.rule, ln.premises, ln.hypothesis_scope
                    ),
                )
                verdicts = [
                    check_rule(hardy_model, mutated, other.index)
                    for other in mutated.lines
                    if other.rule != "HYPOTHESIS"
                ]
                assert not all(v.ok for v in verdicts), (
                    f"flip at line {ln.index} pos {pos} -> {new_name} went undetected: "
                    f"{unparse(mutated_stmt)}"
                )


def test_mutation_robustness_premise_sets(hardy_model, script):
    for ln in script.lines:
        if not ln.premises:
            continue
        for drop in range(len(ln.premises)):
            reduced = ln.premises[:drop] + ln.premises[drop + 1 :]
            mutated = _with_line(
                script,
                ProofLine(ln.index, ln.statement, ln.rule, reduced, ln.hypothesis_scope),
            )
            verdicts = [
                check_rule(hardy_model, mutated, other.index)
                for other in mutated.lines
                if other.rule != "HYPOTHESIS"
            ]
            assert not all(v.ok for v in verdicts), (
                f"dropping premise {ln.premises[drop]} from line {ln.index} went undetected"
            )


def test_audit_final_on_hardy_model(hardy_model):
    report = audit(hardy_model)
    assert report.final.line5_true
    assert report.final.line6_refuted
    assert report.final.rules_all_valid
    assert report.final.side_conditions_hold
    assert report.final.contradiction_lines == (11, 14)
    assert report.final.bridge_world is not None


def test_audit_line1_true_under_both_readings(hardy_model):
    report = audit(hardy_model)
    line1 = report.lines[0]
    assert line1.sem_every and line1.sem_some and not line1.divergence


def test_audit_line12_divergence(hardy_model):
    report = audit(hardy_model)
    line12 = next(la for la in report.lines if la.index == 12)
    assert not line12.sem_every
    assert line12.sem_some
    assert line12.divergence


def test_audit_lines13_and_14_also_diverge(hardy_model):
    report = audit(hardy_model)
    for idx in (13, 14):
        la = next(la for la in report.lines if la.index == idx)
        assert la.divergence, f"line {idx}"


def test_audit_scoped_lines_reported_as_consequences_of_the_hypothesis(hardy_model):
    report = audit(hardy_model)
    for la in report.lines:
        if la.scope:
            # line 6 fails its universal reading, so the material
            # consequence is vacuously true under that reading
            assert la.sem_every


def test_audit_divergence_flag_matches_fields(hardy_model):
    report = audit(hardy_model)
    for la in report.lines:
        assert la.divergence == (la.sem_every != la.sem_some)


def test_audit_stable_across_epsilon(hardy_table):
    outcomes = set()
    for eps in (1e-14, 1e-12, 1e-9, 1e-6):
        model = build_model(hardy_table, epsilon=eps)
        report = audit(model)
        outcomes.add(
            (
                report.final.line5_true,
                report.final.line6_refuted,
                report.final.rules_all_valid,
            )
        )
    assert outcomes == {(True, True, True)}


def test_audit_on_control_model_does_not_refute(control_model):
    # zeroing the paradox cell breaks the fourth-prediction rule check,
    # so the refutation of line 6 must not go through
    report = audit(control_model)
    line12 = next(la for la in report.lines if la.index == 12)
    assert not line12.rule_ok
    assert not report.final.line6_refuted
    assert not report.final.rules_all_valid


def test_audit_json_shape(hardy_model):
    report = audit(hardy_model)
    data = report.to_dict()
    assert len(data["lines"]) == 14
    first = data["lines"][0]
    assert first["index"] == 1 and first["rule"] == "B6"
    assert first["rule_ok"] is True
    assert {"sem_every", "sem_some", "divergence"} <= set(first)
    assert set(data["final"]) >= {"line5_true", "line6_refuted"}
    json.dumps(data)  # serializable as-is


def test_audit_render_mentions_divergence(hardy_model):
    text = audit(hardy_model).render()
    assert "DIVERGENT" in text
    assert "line 6 refuted: True" in text


def test_sr_truth_table_has_exactly_one_false_row():
    rows = sr_truth_table()
    assert len(rows) == 16
    false_rows = [r for r in rows if not r.sr]
    assert len(false_rows) == 1
    row = false_rows[0]
    assert (row.ra, row.ra_plus, row.rc, row.rc_minus) == (True, True, True, False)


def test_sr_truth_table_spot_values():
    by_quad = {(r.ra, r.ra_plus, r.rc, r.rc_minus): r.sr for r in sr_truth_table()}
    assert by_quad[(True, True, True, True)] is True
    assert by_quad[(False, False, False, False)] is True
    assert by_quad[(True, True, True, False)] is False


def test_builtin_script_is_built_once(hardy_model, control_model):
    assert builtin_script() is builtin_script()
    fresh = builtin_script.__wrapped__()
    assert fresh == builtin_script()
    for model in (hardy_model, control_model):
        shared, rebuilt = audit(model), audit(model, fresh)
        assert shared.render() == rebuilt.render()
        assert json.dumps(shared.to_dict()) == json.dumps(rebuilt.to_dict())


# ---------------------------------------------------------------------------
# The plan an audit keeps on its script, and the mask program it compiles

_SWAP = {"L": "R", "R": "L"}


def _renamed(f, rename):
    """`f` with each atom's name passed through `rename`."""
    if isinstance(f, Atom):
        return Atom(rename(f.name))
    if isinstance(f, Not):
        return Not(_renamed(f.arg, rename))
    return type(f)(_renamed(f.left, rename), _renamed(f.right, rename))


def _mirrored(f):
    return _renamed(f, lambda name: _SWAP[name[0]] + name[1:])


def _rebuilt(script, transform):
    """`script` with every formula passed through `transform`."""
    lines = tuple(
        ProofLine(ln.index, transform(ln.statement), ln.rule, ln.premises, ln.hypothesis_scope, ln.note)
        for ln in script.lines
    )
    sides = tuple(SideCondition(transform(sc.formula), sc.description) for sc in script.side_conditions)
    return ProofScript(lines, sides, script.notes)


def _flat(f):
    """`f` parsed afresh: no two of its nodes are one object."""
    return parse(unparse(f))


@pytest.fixture(scope="module")
def mirrored_script():
    # the builtin script with L and R swapped: under TemporalOrder("R")
    # its counterfactuals impose L choices, as they must
    return _rebuilt(builtin_script(), _mirrored)


# a relabeling that keeps L earlier: the L settings swapped, R1's signs flipped
_RELABEL = {
    "L1": "L2", "L2": "L1", "L1+": "L2+", "L1-": "L2-", "L2+": "L1+", "L2-": "L1-",
    "R1+": "R1-", "R1-": "R1+",
}


def _relabelled(f):
    return _renamed(f, lambda name: _RELABEL.get(name, name))


def _relabelled_world(world):
    left, right = (
        _RELABEL.get(name, name)
        for name in (world.choice_l + world.outcome_l, world.choice_r + world.outcome_r)
    )
    return World(left[:2], right[:2], left[2], right[2])


def _relabelled_model(model):
    """`model` with each world's cell moved to the world's relabelling."""
    rows = {pair: {} for pair in CHOICE_PAIRS}
    for world in WORLDS:
        moved = _relabelled_world(world)
        rows[moved.choice_pair][moved.outcome_pair] = model.table.cells[world.index]
    relabelled = build_model(ProbabilityTable(rows), model.epsilon)
    assert relabelled.possible == {_relabelled_world(w) for w in model.possible}
    return relabelled


@pytest.mark.parametrize("kind", ["hardy", "control", "local", "line6_holds"])
@pytest.mark.parametrize("quantifier", ["every", "some"])
def test_a_relabelled_script_audits_the_relabelled_model_as_the_builtin_one_does(
    request, kind, quantifier
):
    # Each prediction line is checked against the cell its own statement
    # names, so relabelling the script and the model together changes no
    # line's rule status or readings and no part of the closing verdict,
    # and on Hardy's table the relabelled derivation refutes line 6 too
    model = request.getfixturevalue(f"{kind}_model")
    opts = CfOptions(quantifier=quantifier)
    canonical = audit(model, builtin_script(), opts)
    relabelled = audit(_relabelled_model(model), _rebuilt(builtin_script(), _relabelled), opts)

    def lines(report):
        return [(la.index, la.rule_status, la.sem_every, la.sem_some) for la in report.lines]

    assert lines(relabelled) == lines(canonical)
    final, expected = relabelled.final, canonical.final
    assert (final.line5_true, final.line6_refuted, final.rules_all_valid) == (
        expected.line5_true, expected.line6_refuted, expected.rules_all_valid
    )
    assert (final.side_conditions_hold, final.contradiction_lines) == (
        expected.side_conditions_hold, expected.contradiction_lines
    )
    bridge = expected.bridge_world
    assert final.bridge_world == (bridge and _relabelled_world(bridge))
    if kind == "hardy" and quantifier == "every":
        assert final.line6_refuted


def _outcome(call, show=lambda report: (report.render(), json.dumps(report.to_dict()))):
    try:
        result = call()
    except Exception as exc:  # the error must match as well
        return (type(exc), str(exc))
    return show(result)


def _line_readings(model, script, opts):
    """Each line's (every, some) reading, `truth_mask` evaluated line by line.

    Universal: the statement holds at every possible world.  Existential:
    some possible world satisfies it or, for a strict conditional, both
    its antecedent and its consequent.  Scoped lines are read as material
    consequences of the hypothesis, and then come the final verdict's
    line 5, side conditions and first clash with a bridge world: one
    satisfying the clash's antecedent, all under `opts`, and `c []-> c`
    read existentially.  A script without a hypothesis, or without the
    line before it, has line 5 false and no clash.
    """
    truth = {
        q: lambda f, q=q: semantics.truth_mask(
            model, f, CfOptions(opts.order, q, opts.self_world_when_consistent)
        )
        for q in ("every", "some")
    }
    raw = {}
    for ln in script.lines:
        stmt = ln.statement
        parts = (stmt.left, stmt.right) if isinstance(stmt, StrictImp) else (stmt,)
        common = model.mask
        for part in parts:
            common &= truth["some"](part)
        raw[ln.index] = (truth["every"](stmt) == model.mask, bool(common))
    hyp = next((ln.index for ln in script.lines if ln.rule == "HYPOTHESIS"), None)
    lines = [
        tuple((not h) or r for h, r in zip(raw[hyp], raw[ln.index]))
        if hyp in ln.hypothesis_scope
        else raw[ln.index]
        for ln in script.lines
    ]
    counterpart = next((ln for ln in script.lines if hyp and ln.index == hyp - 1), None)
    line5 = counterpart is not None and truth[opts.quantifier](counterpart.statement) == model.mask
    sides = all(truth[opts.quantifier](sc.formula) for sc in script.side_conditions)
    clash = next(
        (
            (pair, worlds[0])
            for pair, x, reaches in (proof._clashes(script, hyp) if hyp else ())
            if (worlds := worlds_in(truth[opts.quantifier](x) & truth["some"](reaches)))
        ),
        (None, None),
    )
    return lines, line5, sides, clash


def _readings(report):
    lines = [(la.sem_every, la.sem_some) for la in report.lines]
    final = report.final
    clash = (final.contradiction_lines, final.bridge_world)
    return lines, final.line5_true, final.side_conditions_hold, clash


def _verdicts(model, script, opts):
    return [check_rule(model, script, ln.index, opts) for ln in script.lines]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("hardy", "control", "local", "uniform", "random")),
    quantifier=st.sampled_from(("every", "some")),
    self_world=st.booleans(),
)
def test_planned_audit_matches_a_fresh_one(
    request, mirrored_script, seed, kind, quantifier, self_world
):
    # The kept scripts keep their plans and compiled programs and share
    # their nodes.  Their line readings are checked against `truth_mask`
    # evaluated line by line, and their reports against a freshly built
    # script, which has no plan yet, and against a flattened one, which
    # shares no node.
    # Each order runs twice, the other in between.  The builtin script
    # raises under "R" (R1 is an earlier choice there) and the mirrored
    # one under "L", and the errors must match too.
    if kind == "random":
        model = build_model(ProbabilityTable(random_table_rows(random.Random(seed))))
    else:
        model = request.getfixturevalue(f"{kind}_model")
    for earlier in ("L", "R", "L", "R"):
        opts = CfOptions(TemporalOrder(earlier), quantifier, self_world)
        for kept in (builtin_script(), mirrored_script):
            got = _outcome(lambda: audit(model, kept, opts))
            assert _outcome(lambda: audit(model, kept, opts), _readings) == _outcome(
                lambda: _line_readings(model, kept, opts), lambda readings: readings
            )
            fresh = [_rebuilt(kept, _flat)]
            if kept is builtin_script():
                fresh.append(builtin_script.__wrapped__())
            for other in fresh:
                assert got == _outcome(lambda: audit(model, other, opts))
                assert _verdicts(model, kept, opts) == _verdicts(model, other, opts)
    # the mirrored script reads under "R": reports were compared, not only errors
    assert isinstance(_outcome(lambda: audit(model, mirrored_script, opts))[0], str)


def _record_compiles(monkeypatch):
    """Each audit compile from now on, as [formulas laid out, program, body, result]."""
    compiles = []

    class Recorded(semantics.MaskProgram):
        __slots__ = ()

        def __init__(self, formulas, order):
            compiles.append([formulas])
            super().__init__(formulas, order)
            compiles[-1].append(self)

    def spy(params, body, result, name, **constants):
        compiles[-1] += (body, result)
        return semantics._function(params, body, result, name, **constants)

    monkeypatch.setattr(proof, "MaskProgram", Recorded)
    monkeypatch.setattr(proof, "_function", spy)
    return compiles


@pytest.mark.parametrize("earlier", ["L", "R"])
def test_a_script_parsed_afresh_compiles_to_the_same_program(hardy_model, earlier, monkeypatch):
    # the builtin script under L, its mirror under R: with each statement
    # parsed afresh no two lines share a node, and the audit still compiles
    # the same instructions, with the same local for each part it reads
    order = TemporalOrder(earlier)
    script = builtin_script.__wrapped__()
    if earlier == "R":
        script = _rebuilt(script, _mirrored)
    compiles = _record_compiles(monkeypatch)
    for kept in (script, _rebuilt(script, _flat)):
        audit(hardy_model, kept, CfOptions(order))
    (formulas, program, body, result), (_, fresh, fresh_body, fresh_result) = compiles
    assert (program.code, program.slots) == (fresh.code, fresh.slots)
    assert (body, result) == (fresh_body, fresh_result)
    assert len(formulas) == 49 and len(program) == 61


def _nodes(formulas):
    """The distinct subformulas of `formulas`, by value."""
    seen = set()

    def walk(f):
        seen.add(f)
        if isinstance(f, Not):
            walk(f.arg)
        elif not isinstance(f, Atom):
            walk(f.left)
            walk(f.right)

    for f in formulas:
        walk(f)
    return seen


@pytest.mark.parametrize("quantifier", ["every", "some"])
@pytest.mark.parametrize("self_world", [True, False], ids=["self-world", "no-self-world"])
def test_each_local_an_audit_assigns_is_read(hardy_model, monkeypatch, quantifier, self_world):
    # a reading's program holds only what its readout reads: every `m<n>` its
    # body assigns is read by a later line or by the result.  The builtin
    # script under L, its mirror under R, and a script cut after line 6
    full = builtin_script.__wrapped__()
    cut = ProofScript(full.lines[:6], full.side_conditions, full.notes)
    compiles = _record_compiles(monkeypatch)
    for script, earlier in ((full, "L"), (_rebuilt(full, _mirrored), "R"), (cut, "L")):
        audit(hardy_model, script, CfOptions(TemporalOrder(earlier), quantifier, self_world))
    assert len(compiles) == 3
    for _, program, body, result in compiles:
        assigned = [line.split(" = ")[0] for line in body]
        locals_ = [name for name in assigned if re.fullmatch(r"m\d+", name)]
        assert len(locals_) == len(set(locals_)) == len(program)
        for k, name in enumerate(assigned):
            if name in locals_:
                later = [line.split(" = ", 1)[1] for line in body[k + 1:]] + [result]
                assert any(re.search(rf"\b{name}\b", text) for text in later), name


# the lines whose rule fails under TemporalOrder("R"), where R1 is an
# earlier choice, and how each verdict's detail begins; the rest are valid
_R_ORDER_INVALID = {
    1: "expected (E ^ r ^ o) => [c []-> (E ^ c ^ o)] with E, o pinned in the earlier region",
    5: "no import/export match between premise",
    11: "expected X => [E -> (c []-> D)] commuting to X => [c []-> (E -> D)]",
    14: "imposed choice and box consequent must match the premise",
}


# builtin scripts cut short: no hypothesis or no counterpart, or no clash
_TRUNCATED = {
    "line-1-alone": lambda index: index == 1,
    "lines-1-to-5": lambda index: index <= 5,
    "without-line-11": lambda index: index != 11,
    "without-line-14": lambda index: index != 14,
}


@pytest.mark.parametrize("keep", _TRUNCATED.values(), ids=_TRUNCATED)
@pytest.mark.parametrize("quantifier", ["every", "some"])
@pytest.mark.parametrize("self_world", [True, False], ids=["self-world", "no-self-world"])
def test_a_truncated_script_is_read_line_by_line_and_finds_no_clash(
    hardy_model, control_model, local_model, uniform_model, keep, quantifier, self_world
):
    full = builtin_script()
    lines = tuple(ln for ln in full.lines if keep(ln.index))
    script = ProofScript(lines, full.side_conditions, full.notes)
    opts = CfOptions(quantifier=quantifier, self_world_when_consistent=self_world)
    for model in (hardy_model, control_model, local_model, uniform_model):
        report = audit(model, script, opts)
        assert [la.index for la in report.lines] == [ln.index for ln in lines]
        assert _readings(report) == _line_readings(model, script, opts)
        assert report.final.contradiction_lines is None and report.final.bridge_world is None
        assert report.final.detail.split("; ")[0] == "no complementary counterfactual pair found"
        assert not report.final.line6_refuted
        assert report.to_dict()["final"]["contradiction_lines"] is None


def test_audit_and_theorem_generate_one_function_per_program_and_reading(
    hardy_model, control_model, monkeypatch
):
    # The audit reads no `truth_mask`: on the first audit under each reading
    # it lays out one mask program of the formulas that reading reads, and
    # generates one function, in which each node value runs once.  The
    # theorem check walks its lines, generating at most SR's reach function.
    calls = []
    real = semantics.truth_mask
    monkeypatch.setattr(semantics, "truth_mask", lambda *args: calls.append(args) or real(*args))
    generated = []
    real_function = semantics._function

    def spy(params, body, result, name, **constants):
        generated.append(name)
        return real_function(params, body, result, name, **constants)

    monkeypatch.setattr(semantics, "_function", spy)
    compiles = _record_compiles(monkeypatch)  # its functions are generated through the spy
    assert not hasattr(proof, "truth_mask")

    semantics.check_theorem(hardy_model)
    theorem = len(generated)  # none if an earlier walk generated SR's reach function
    assert generated == ["<counterfactual>"] * theorem and theorem <= 1
    assert compiles == [] and calls != []
    calls.clear()
    script = builtin_script.__wrapped__()
    for ln in script.lines:
        check_rule(hardy_model, script, ln.index)
    assert compiles == []  # rule checks never compile the script
    audit(hardy_model, script)
    assert len(compiles) == 1
    formulas, program, body, _ = compiles[0]
    # 14 statements, 28 parts read as duals, the clash's `c []-> c` as its
    # dual, then what the closing verdict reads universally: the side
    # condition, the clash's antecedent, line 5 and its premise's two parts,
    # and line 6.  61 distinct node values, 8 of them atoms
    assert len(formulas) == 14 + 28 + 1 + 6
    assert len(program) == 61 == len(_nodes(formulas))
    assert sum(code[0] == semantics._ATOM for code in program.code) == 8
    assert len(set(program.code)) == len(program)  # one slot per instruction
    # `R1 []-> R1` is laid out as its dual only
    reaches = semantics.Counterfactual(Atom("R1"), Atom("R1"))
    every_nodes = _nodes(formulas)
    assert reaches not in every_nodes and semantics._duals([reaches])[0] in every_nodes
    # the worlds `R1` reaches in each earlier cell once, then one assignment per node
    assert [line.split(" = ")[0] for line in body if line.startswith("r")] == [
        "r3", "r12", "r768", "r3072"
    ]
    assert program.body(True) == body[: 4 + 61]
    # the audit's one function runs the program itself: no function of the program's own
    assert generated[theorem:] == ["<proof audit>"]
    audit(control_model, script)
    assert calls == []
    semantics.check_theorem(control_model)
    calls.clear()
    assert len(compiles) == 1  # a second audit compiles nothing
    assert generated[theorem:] == ["<proof audit>"]  # and generates nothing, nor does a check
    # another reading gets a program and a function of its own, on its first audit only
    for opts in (CfOptions(quantifier="some"), CfOptions(self_world_when_consistent=False)):
        for model in (hardy_model, control_model):
            audit(model, script, opts)
    assert generated[theorem:] == ["<proof audit>"] * 3
    assert len(compiles) == 3
    assert calls == []
    # under 'some' the closing verdict reads the duals of lines 5 and 6 as well
    some, no_self_world = compiles[1][1], compiles[2][1]
    assert len(some) == 63 and _nodes(compiles[1][0]) - every_nodes == set(
        semantics._duals([semantics.LINE5, semantics.LINE6])
    )
    assert (no_self_world.code, no_self_world.slots) == (program.code, program.slots)

    r_order = CfOptions(TemporalOrder("R"))
    for ln in script.lines:
        verdict = check_rule(hardy_model, script, ln.index, r_order)
        assert verdict.ok == (ln.index not in _R_ORDER_INVALID), ln.index
        assert verdict.detail.startswith(_R_ORDER_INVALID.get(ln.index, "")), ln.index
    for _ in range(2):  # nothing is kept from a compile that failed
        with pytest.raises(
            semantics.UnsupportedCounterfactualError,
            match=r"^counterfactual antecedent R1 picks the earlier region; "
            r"only later-region choices can be imposed$",
        ):
            audit(hardy_model, script, r_order)
    assert proof._plan(script, r_order.order).audits == {}
    assert [len(c) for c in compiles] == [4, 4, 4, 1, 1]  # each failed before a program was made


def test_second_audit_runs_no_rule_checker(hardy_model, monkeypatch):
    runs = []
    for tag, checker in proof._CHECKERS.items():

        def counted(*args, checker=checker):
            runs.append(args)
            return checker(*args)

        monkeypatch.setitem(proof._CHECKERS, tag, counted)
    script = builtin_script.__wrapped__()
    audit(hardy_model, script)
    assert len(runs) == 14  # one per line
    audit(hardy_model, script)
    for ln in script.lines:
        check_rule(hardy_model, script, ln.index)
    assert len(runs) == 14
    r_order = CfOptions(TemporalOrder("R"))
    for _ in range(2):
        for ln in script.lines:
            check_rule(hardy_model, script, ln.index, r_order)
    assert len(runs) == 28  # the other order has a plan of its own


def test_plans_leave_the_script_as_it_was(hardy_model):
    script = builtin_script()
    audit(hardy_model, script)
    with pytest.raises(semantics.UnsupportedCounterfactualError):
        # R1 is an earlier-region choice under this order
        audit(hardy_model, script, CfOptions(TemporalOrder("R")))
    fresh = builtin_script.__wrapped__()
    assert script == fresh
    assert hash(script) == hash(fresh)
    assert repr(script) == repr(fresh)
    assert pickle.dumps(script) == pickle.dumps(fresh)  # no plan is pickled
    for twin in (pickle.loads(pickle.dumps(script)), copy.deepcopy(script)):
        assert twin == script
        assert audit(hardy_model, twin).render() == audit(hardy_model, script).render()

    line4 = script.line(4)
    mutated = _with_line(script, ProofLine(4, line4.statement, "B7", (1, 2)))
    assert not audit(hardy_model, mutated).final.rules_all_valid
    ref = weakref.ref(mutated)
    del mutated
    gc.collect()
    assert ref() is None  # its plan does not keep it alive


# ---------------------------------------------------------------------------
# The finished line reports a plan keeps


def _held_audits(plan):
    """The `LineAudit`s the plan holds, through its tuples and dicts."""

    def walk(x):
        if isinstance(x, proof.LineAudit):
            return [x]
        if isinstance(x, dict):
            x = tuple(x.values())
        return [la for y in x for la in walk(y)] if isinstance(x, (tuple, list)) else []

    return walk(tuple(vars(plan).values()))


def _stored_audits(plan):
    """How many `LineAudit`s the plan holds."""
    return len(_held_audits(plan))


def test_second_audit_builds_line_reports_only_for_possible_zero_cells(
    hardy_model, hardy_table, uniform_model, monkeypatch
):
    script = builtin_script.__wrapped__()
    audit(hardy_model, script)
    built = []
    for cls in (proof.LineAudit, proof.RuleVerdict, proof.FinalVerdict):

        def counted(self, *args, init=cls.__init__):
            built.append(type(self).__name__)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    for model in (hardy_model, build_model(hardy_table, 1e-6)):
        report = audit(model, script)
        assert report.final.rules_all_valid
    assert built == []
    # every forbidden cell is possible in the uniform model: each of the
    # three zero-cell lines gets a report of its own, quoting the cell's
    # probability, built with the line's template's fields; the closing
    # verdict is built on its first sight only
    report = audit(uniform_model, script)
    assert built == ["LineAudit"] * 3 + ["FinalVerdict"]
    assert audit(build_model(uniform_model.table, 1e-6), script) == report
    assert built == ["LineAudit"] * 3 + ["FinalVerdict"] + ["LineAudit"] * 3
    assert [la.rule_detail for la in report.lines[1:3]] == [
        "cell ('L2', 'R2', '-+') carries probability 0.25; not a zero cell",
        "cell ('L2', 'R1', '++') carries probability 0.25; not a zero cell",
    ]


def test_stored_line_reports_are_bounded_by_the_script():
    # 200 tables that differ only in the probability of the forbidden cell
    # (L2,R2,-,+) that line 2 pins, the mass taken from the (L2,R2,+,+) cell
    script = builtin_script.__wrapped__()
    plan = proof._plan(script, semantics.L_EARLIER)
    uniform = ProbabilityTable.uniform().rows
    for k in range(1, 201):
        p = 0.25 + k / 1000
        rows = {**uniform, ("L2", "R2"): {**uniform[("L2", "R2")], "-+": p, "++": 0.5 - p}}
        report = audit(build_model(ProbabilityTable(rows)), script)
        assert report.lines[1].rule_detail == (
            f"cell ('L2', 'R2', '-+') carries probability {p!r}; not a zero cell"
        )
        if k == 1:
            stored = _stored_audits(plan)
    # four per line and reading pair, eight for the witness line 12
    assert stored == _stored_audits(plan) == 60


def test_reports_that_share_line_reports_survive_pickle_and_copy(hardy_model, hardy_table):
    reports = (audit(hardy_model), audit(build_model(hardy_table, 1e-6)))
    assert all(a is b for a, b in zip(reports[0].lines, reports[1].lines))
    for twins in (pickle.loads(pickle.dumps(reports)), copy.deepcopy(reports)):
        assert twins == reports
        for twin, report in zip(twins, reports):
            assert twin.render() == report.render()
            assert json.dumps(twin.to_dict()) == json.dumps(report.to_dict())


# ---------------------------------------------------------------------------
# The rows of a report's JSON


def _reference_row(la):
    """A line report's JSON row, read off its fields one by one."""
    return {
        "index": la.index,
        "rule": la.rule,
        "premises": list(la.premises),
        "scope": list(la.scope),
        "rule_ok": la.rule_status == "valid",
        "rule_status": la.rule_status,
        "rule_detail": la.rule_detail,
        "sem_every": la.sem_every,
        "sem_some": la.sem_some,
        "divergence": la.sem_every != la.sem_some,
        "note": la.note,
    }


@pytest.mark.parametrize("earlier", ["L", "R"])
def test_report_rows_are_the_line_fields(earlier, hardy_model, local_model, uniform_model):
    # the builtin script under L, its mirror under R with Hardy's own four
    # prediction lines kept: the plan's 60 stored line reports and the
    # zero-cell ones each model builds for itself
    script = builtin_script.__wrapped__()
    if earlier == "R":
        kept = {ln.statement for ln in script.lines if ln.rule.startswith("PRED")}
        script = _rebuilt(script, lambda f: f if f in kept else _mirrored(f))
    opts = CfOptions(TemporalOrder(earlier))
    reports = [audit(model, script, opts) for model in (hardy_model, local_model, uniform_model)]
    held = _held_audits(proof._plan(script, opts.order))
    assert len(held) == 60
    own = [la for report in reports for la in report.lines if not any(la is h for h in held)]
    assert len(own) == 5  # two possible forbidden cells in the local table, three in the uniform
    assert all("; not a zero cell" in la.rule_detail for la in own)
    final, notes = reports[0].final, reports[0].notes
    for la in held + own:
        row = proof.AuditReport((la,), final, notes).to_dict()["lines"][0]
        assert json.dumps(row) == json.dumps(_reference_row(la))  # key order and types too
    for report in reports:
        rows = report.to_dict()["lines"]
        assert json.dumps(rows) == json.dumps([_reference_row(la) for la in report.lines])


def test_report_dicts_are_fresh(hardy_model, hardy_table, uniform_model):
    # two models with the same possible worlds share their line reports;
    # writing into one report's dict changes neither report's next encoding
    script = builtin_script.__wrapped__()
    for model, epsilon in ((hardy_model, 1e-6), (uniform_model, 1e-6)):
        first, second = audit(model, script), audit(build_model(model.table, epsilon), script)
        assert sum(a is b for a, b in zip(first.lines, second.lines)) >= 11
        expected = json.dumps(second.to_dict())
        data = first.to_dict()
        assert json.dumps(data) == expected and data["notes"]
        for row in data["lines"]:
            row["premises"].append(99)
            row["scope"].append(98)
            row["rule_detail"] = "changed"
            row["extra"] = True
        data["notes"].clear()
        data["final"]["contradiction_lines"].append(97)
        data["final"]["detail"] = "changed"
        assert json.dumps(second.to_dict()) == expected
        assert json.dumps(first.to_dict()) == expected


# the forbidden cells, as (choice pair, outcome pair), in FORBIDDEN_WORLDS order
_FORBIDDEN_CELLS = [(w.choice_pair, w.outcome_pair) for w in FORBIDDEN_WORLDS]


def _rows_with_possible_forbidden(rng, possible):
    """Seeded rows in which forbidden cell i is possible exactly for i in `possible`.

    Every other cell is possible or zero at random, each row keeping a
    possible cell.
    """
    rows = {}
    for pair in CHOICE_PAIRS:
        weights = [0] * 4
        while not any(weights):
            weights = []
            for key in OUTCOME_PAIRS:
                if (pair, key) in _FORBIDDEN_CELLS:
                    on = _FORBIDDEN_CELLS.index((pair, key)) in possible
                else:
                    on = rng.random() >= 0.3
                weights.append(rng.randint(1, 9) if on else 0)
        rows[pair] = {key: w / sum(weights) for key, w in zip(OUTCOME_PAIRS, weights)}
    return rows


def test_a_warm_plan_audits_as_a_fresh_script_does(
    hardy_model, control_model, local_model, line6_holds_model
):
    # Through a warm plan, a possible zero cell's report comes from a
    # template and the closing verdict from a table that earlier models
    # made; a fresh script makes its plan anew.  Seeded tables with 0-3
    # forbidden cells possible and the four named tables, under both
    # quantifiers.
    rng = random.Random(22)
    models = [hardy_model, control_model, local_model, line6_holds_model]
    for k in range(48):
        possible = rng.sample(range(3), k % 4)
        model = build_model(ProbabilityTable(_rows_with_possible_forbidden(rng, possible)))
        assert [bool(model.mask & 1 << w.index) for w in FORBIDDEN_WORLDS] == [
            i in possible for i in range(3)
        ]
        models.append(model)
    warm = builtin_script.__wrapped__()
    for opts in (CfOptions(quantifier="every"), CfOptions(quantifier="some")):
        for model in models:
            audit(model, warm, opts)
        for model in models:
            got, fresh = audit(model, warm, opts), audit(model, builtin_script.__wrapped__(), opts)
            assert got.render() == fresh.render()
            assert json.dumps(got.to_dict()) == json.dumps(fresh.to_dict())
            assert got == fresh
            rows = got.to_dict()["lines"]  # a template's row against the report's fields
            assert json.dumps(rows) == json.dumps([_reference_row(la) for la in got.lines])
    # one distinct verdict per key, and each key the values its verdict was made from
    finals = proof._plan(warm, semantics.L_EARLIER).finals
    assert len(set(finals.values())) == len(finals) > 4
    for key, final in finals.items():
        bridge = None if final.bridge_world is None else final.bridge_world.index
        assert key == (
            final.rules_all_valid,
            final.side_conditions_hold,
            final.contradiction_lines,
            bridge,
            final.line5_true,
            final.line5_vacuous,
            final.line6_holds,
        )


def test_audit_certifies_exactly_the_dependences_check_theorem_confirms(
    hardy_model, control_model, local_model, line6_holds_model
):
    # `proof audit` exits 0 on a line 5 that holds and a refuted line 6.
    # Over the named tables and every possibility pattern, under both
    # quantifiers, that certificate is given exactly where `check_theorem`
    # confirms the dependence and the derivation finds a clash with a
    # bridge world.  Under `every` each confirmed pattern has one; under
    # `some`, 64 patterns have no world from which R1 is reachable, so
    # the derivation cannot close there, and the audit says so.
    readings = {q: CfOptions(quantifier=q) for q in ("every", "some")}
    counts = {q: [0, 0, 0] for q in readings}  # models, confirmed, certified
    named = [hardy_model, control_model, local_model, line6_holds_model]
    for k, model in enumerate(itertools.chain(named, pattern_models())):
        for q, opts in readings.items():
            count = counts[q]
            final = audit(model, opts=opts).final
            certified = final.line5_true and final.line6_refuted
            confirmed = check_theorem(model, opts).confirmed
            assert certified == (confirmed and final.bridge_world is not None), (k, q)
            if k < len(named):  # only Hardy's table, and only under `every`
                assert certified == (k == 0 and q == "every"), (k, q)
            count[0] += 1
            count[1] += confirmed
            count[2] += certified
    assert counts == {"every": [50629, 1121, 1121], "some": [50629, 448, 384]}
