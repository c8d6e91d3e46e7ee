import copy
import gc
import json
import pickle
import random
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
    _interned,
    audit,
    builtin_script,
    check_rule,
    sr_truth_table,
    validate_scopes,
)
from hardylogic.semantics import CfOptions, TemporalOrder
from hardylogic.worlds import ProbabilityTable, build_model, worlds_in
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


def test_every_statement_is_paper_normal(script):
    from hardylogic.formula import check_paper_normal

    for ln in script.lines:
        assert check_paper_normal(ln.statement).ok, f"line {ln.index}"


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


def _mirrored(f):
    if isinstance(f, Atom):
        return Atom(_SWAP[f.name[0]] + f.name[1:])
    if isinstance(f, Not):
        return Not(_mirrored(f.arg))
    return type(f)(_mirrored(f.left), _mirrored(f.right))


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
    # the builtin script with L and R swapped, interned: under
    # TemporalOrder("R") its counterfactuals impose L choices, as they must
    nodes = {}
    return _rebuilt(builtin_script(), lambda f: _interned(_mirrored(f), nodes))


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
    read existentially.
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
    hyp = next(ln.index for ln in script.lines if ln.rule == "HYPOTHESIS")
    lines = [
        tuple((not h) or r for h, r in zip(raw[hyp], raw[ln.index]))
        if hyp in ln.hypothesis_scope
        else raw[ln.index]
        for ln in script.lines
    ]
    line5 = truth[opts.quantifier](script.line(hyp - 1).statement) == model.mask
    sides = all(truth[opts.quantifier](sc.formula) for sc in script.side_conditions)
    clash = next(
        (
            (pair, worlds[0])
            for pair, x, reaches in proof._clashes(script, hyp)
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


# the lines whose rule fails under TemporalOrder("R"), where R1 is an
# earlier choice, and how each verdict's detail begins; the rest are valid
_R_ORDER_INVALID = {
    1: "expected (E ^ r ^ o) => [c []-> (E ^ c ^ o)] with E, o pinned in the earlier region",
    5: "no import/export match between premise",
    11: "expected X => [E -> (c []-> D)] commuting to X => [c []-> (E -> D)]",
    14: "imposed choice and box consequent must match the premise",
}


def test_audit_and_theorem_evaluate_each_node_once_per_reading(hardy_model, monkeypatch):
    # Neither reads `truth_mask`: each runs a mask program compiled once,
    # whose nodes free of counterfactuals run once per model and the rest
    # once per reading.
    calls = []
    real = semantics.truth_mask
    monkeypatch.setattr(semantics, "truth_mask", lambda *args: calls.append(args) or real(*args))
    compiled = []

    class Counted(semantics.MaskProgram):
        __slots__ = ()

        def __init__(self, *args):
            compiled.append(args)
            super().__init__(*args)

    monkeypatch.setattr(proof, "MaskProgram", Counted)
    assert not hasattr(proof, "truth_mask")

    semantics.check_theorem(hardy_model)
    script = builtin_script.__wrapped__()
    for ln in script.lines:
        check_rule(hardy_model, script, ln.index)
    assert compiled == []  # rule checks never compile the script
    audit(hardy_model, script)
    assert len(compiled) == 1
    program = proof._plan(script, semantics.L_EARLIER).program
    # the 45 distinct nodes of the lines and the side condition, and `R1 []-> R1`
    assert len(program) == 46
    assert len(program.free) == 29  # free of counterfactuals, 8 of them atoms
    assert len(program.tail) == 17
    audit(hardy_model, script)
    semantics.check_theorem(hardy_model)
    assert len(compiled) == 1  # a second audit compiles nothing
    assert calls == []

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
    assert proof._plan(script, r_order.order).program is None
    assert len(compiled) == 3


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


def test_second_audit_of_a_conforming_model_builds_no_line_report(
    hardy_model, hardy_table, uniform_model, monkeypatch
):
    script = builtin_script.__wrapped__()
    audit(hardy_model, script)
    built = []
    for cls in (proof.LineAudit, proof.RuleVerdict):

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
    # probability
    report = audit(uniform_model, script)
    assert built == ["RuleVerdict", "LineAudit"] * 3
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
    nodes = {}
    script = builtin_script.__wrapped__()
    if earlier == "R":
        kept = {ln.statement for ln in script.lines if ln.rule.startswith("PRED")}
        script = _rebuilt(script, lambda f: f if f in kept else _interned(_mirrored(f), nodes))
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
        data["final"]["detail"] = "changed"
        assert json.dumps(second.to_dict()) == expected
        assert json.dumps(first.to_dict()) == expected
