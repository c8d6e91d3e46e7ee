import functools
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardylogic import semantics
from hardylogic.formula import (
    CHOICE_ATOMS,
    MAX_NESTING,
    And,
    Atom,
    Counterfactual,
    Not,
    Or,
    StrictImp,
    parse,
    unparse,
)
from hardylogic.semantics import (
    CfOptions,
    GlobalCheck,
    L_EARLIER,
    TemporalOrder,
    UnsupportedCounterfactualError,
    check_theorem,
    eval_at,
    holds_globally,
)
from hardylogic.worlds import (
    CHOICE_PAIRS,
    OUTCOME_PAIRS,
    WORLDS,
    ProbabilityTable,
    World,
    build_model,
    save_model,
    worlds_in,
)
from conftest import pattern_models
from oracles import (
    brute_accessible,
    brute_counterexamples,
    brute_eval,
    brute_line5_counterexamples,
    brute_line6_counterexamples,
    brute_supported,
    locally_realisable_patterns,
    possible_worlds,
    random_formula,
    random_rudimentary,
    random_table_rows,
)

R1 = Atom("R1")
SR = parse("(R2 & R2+) -> (R1 []-> R1 & R1-)")


def _as_tuple(w: World):
    return (w.choice_l, w.choice_r, w.outcome_l, w.outcome_r)


def _only(v: World):
    """The formula true at `v` alone: its two outcome atoms."""
    return And(Atom(v.choice_l + v.outcome_l), Atom(v.choice_r + v.outcome_r))


def _any_of(worlds):
    """The formula true at exactly `worlds`; with none, one true nowhere."""
    return functools.reduce(Or, map(_only, worlds)) if worlds else And(Atom("L1"), Atom("L2"))


def _reach(model, w, choice, order=L_EARLIER, self_world=True):
    """The worlds that imposing `choice` reaches from `w`, read off `choice []-> φ`.

    Under 'some' the counterfactual holds where the reach meets φ, so
    with φ true at one world only it holds at `w` exactly when that
    world is reached.  Under 'every' it holds where the reach lies
    inside φ: inside the reached worlds, and inside no set that drops
    one of them.
    """
    c = Atom(choice)
    some, every = (CfOptions(order, q, self_world) for q in ("some", "every"))
    reach = [v for v in WORLDS if eval_at(model, w, Counterfactual(c, _only(v)), some)]
    assert eval_at(model, w, Counterfactual(c, _any_of(reach)), every)
    for v in reach:
        rest = [x for x in reach if x != v]
        assert not eval_at(model, w, Counterfactual(c, _any_of(rest)), every)
    return reach


def test_reach_prunes_outcomes_forbidden_by_the_table(hardy_model):
    got = _reach(hardy_model, World("L2", "R2", "+", "+"), "R1")
    assert got == [World("L2", "R1", "+", "-")]


def test_reach_keeps_both_open_outcomes(hardy_model):
    got = _reach(hardy_model, World("L1", "R2", "-", "+"), "R1")
    assert got == [World("L1", "R1", "-", "+"), World("L1", "R1", "-", "-")]


def test_reach_is_the_self_world_when_nothing_contradicted(hardy_model):
    w = World("L1", "R1", "+", "+")
    assert _reach(hardy_model, w, "R1") == [w]


def test_reach_without_self_world_shortcut(hardy_model):
    w = World("L1", "R1", "+", "+")
    got = _reach(hardy_model, w, "R1", self_world=False)
    assert got == [World("L1", "R1", "+", "+"), World("L1", "R1", "+", "-")]


def test_reach_matches_brute_force_oracle(hardy_model):
    live = possible_worlds(hardy_model.table.rows)
    for w in hardy_model.possible_in_order():
        for choice in ("R1", "R2"):
            got = _reach(hardy_model, w, choice)
            expected = brute_accessible(live, _as_tuple(w), choice)
            assert [_as_tuple(x) for x in got] == expected


@pytest.mark.parametrize("quantifier", ["every", "some"])
@pytest.mark.parametrize("antecedent", ["L2", "R1-"])  # an earlier-region choice, an outcome
def test_counterfactual_rejects_an_antecedent_that_cannot_be_imposed(
    hardy_model, antecedent, quantifier
):
    f = Counterfactual(Atom(antecedent), Atom("R1+"))
    opts = CfOptions(quantifier=quantifier)
    with pytest.raises(UnsupportedCounterfactualError):
        eval_at(hardy_model, World("L1", "R2", "-", "+"), f, opts)
    with pytest.raises(UnsupportedCounterfactualError):
        semantics.truth_mask(hardy_model, f, opts)


def test_reach_respects_temporal_order(hardy_model):
    # with R earlier, imposing an L choice pins the R choice and outcome
    order = TemporalOrder("R")
    w = World("L1", "R2", "-", "+")
    got = _reach(hardy_model, w, "L2", order)
    assert got == [World("L2", "R2", "+", "+")]  # (L2,R2,-,+) is a zero cell
    with pytest.raises(UnsupportedCounterfactualError):
        eval_at(hardy_model, w, Counterfactual(R1, Atom("R1+")), CfOptions(order))


def test_counterfactual_requires_possible_world(hardy_model):
    with pytest.raises(ValueError, match="not possible in this model"):
        eval_at(hardy_model, World("L1", "R2", "-", "-"), Counterfactual(R1, Atom("R1+")))


def test_sr_true_where_sole_accessible_world_conforms(hardy_model):
    assert eval_at(hardy_model, World("L2", "R2", "+", "+"), SR)


def test_sr_false_where_an_accessible_world_escapes(hardy_model):
    assert not eval_at(hardy_model, World("L1", "R2", "-", "+"), SR)


def test_trivial_material_conditional(hardy_model):
    f = parse("L1 -> L1")
    for w in hardy_model.possible_in_order():
        assert eval_at(hardy_model, w, f)


def test_eval_requires_possible_world(hardy_model):
    with pytest.raises(ValueError):
        eval_at(hardy_model, World("L2", "R1", "+", "+"), parse("L1"))


def test_some_quantifier(hardy_model):
    w = World("L1", "R2", "-", "+")
    box = parse("R1 []-> R1 & R1-")
    assert not eval_at(hardy_model, w, box)
    assert eval_at(hardy_model, w, box, CfOptions(quantifier="some"))


def test_counterfactual_vacuity():
    rows = {
        ("L1", "R1"): {"++": 1.0, "+-": 0.0, "-+": 0.0, "--": 0.0},
        ("L1", "R2"): {"++": 0.5, "+-": 0.0, "-+": 0.5, "--": 0.0},
        ("L2", "R1"): {"++": 0.25, "+-": 0.25, "-+": 0.25, "--": 0.25},
        ("L2", "R2"): {"++": 0.25, "+-": 0.25, "-+": 0.25, "--": 0.25},
    }
    model = build_model(ProbabilityTable(rows))
    w = World("L1", "R2", "-", "+")
    assert _reach(model, w, "R1") == []
    box = Counterfactual(R1, Atom("R1+"))
    assert eval_at(model, w, box)  # empty set, universal quantifier
    assert not eval_at(model, w, box, CfOptions(quantifier="some"))


def test_nested_strict_evaluates_globally(hardy_model):
    f = parse("~(L1 => R1)")
    inner_holds = holds_globally(hardy_model, parse("L1 => R1")).holds
    for w in hardy_model.possible_in_order():
        assert eval_at(hardy_model, w, f) == (not inner_holds)


def test_strict_line_2_holds(hardy_model):
    check = holds_globally(hardy_model, parse("(L2 & R2 & R2+) => (L2 & R2 & L2+)"))
    assert check.holds and check.witness is None


def test_strict_line_5_holds(hardy_model):
    assert holds_globally(hardy_model, parse("L2 => (R2 & R2+ -> (R1 []-> R1 & R1-))")).holds


def test_strict_line_6_fails_with_witness(hardy_model):
    check = holds_globally(hardy_model, parse("L1 => (R2 & R2+ -> (R1 []-> R1 & R1-))"))
    assert not check.holds
    live = possible_worlds(hardy_model.table.rows)
    expected = brute_line6_counterexamples(live)
    assert [_as_tuple(w) for w in check.counterexamples] == expected
    assert check.witness == check.counterexamples[0]
    # the informal argument's paradigm world is among the counterexamples
    assert World("L1", "R2", "-", "+") in check.counterexamples


def test_deepest_nested_conditionals_evaluate(hardy_model):
    # a per-world evaluator re-evaluates each nested strict conditional
    # at every world, which is exponential in this depth
    n = MAX_NESTING
    strict = parse("L1 => (" * (n - 1) + "L1" + ")" * (n - 1))
    assert holds_globally(hardy_model, strict).holds
    box = parse("R1 []-> (" * (n - 1) + "R1" + ")" * (n - 1))
    assert holds_globally(hardy_model, box).holds


def test_non_strict_formula_holds_globally_iff_true_everywhere(hardy_model):
    assert holds_globally(hardy_model, parse("L1 | L2")).holds
    check = holds_globally(hardy_model, parse("L1"))
    assert not check.holds
    assert check.witness == World("L2", "R1", "+", "-")


def test_empty_intersection_and_containment_routes_agree():
    # the oracle's two set readings of a strict conditional against the package
    rng = random.Random(2024)
    for _ in range(40):
        model = build_model(ProbabilityTable(random_table_rows(rng)))
        live = possible_worlds(model.table.rows)
        for _ in range(10):
            a = random_rudimentary(rng)
            b = random_rudimentary(rng)
            check = holds_globally(model, StrictImp(a, b))
            intersection = brute_counterexamples(live, StrictImp(a, b))
            a_worlds = {w for w in live if brute_eval(live, w, a)}
            b_worlds = {w for w in live if brute_eval(live, w, b)}
            assert check.holds == (not intersection) == (a_worlds <= b_worlds)
            assert [_as_tuple(w) for w in check.counterexamples] == intersection


def test_import_export_equivalence():
    from hardylogic.formula import MatImp

    rng = random.Random(99)
    for _ in range(30):
        model = build_model(ProbabilityTable(random_table_rows(rng)))
        for _ in range(10):
            a, b, c = (random_rudimentary(rng) for _ in range(3))
            folded = holds_globally(model, StrictImp(And(a, b), c)).holds
            arrowed = holds_globally(model, StrictImp(a, MatImp(b, c))).holds
            assert folded == arrowed


def test_antecedent_strengthening_sound():
    rng = random.Random(4)
    nonvacuous = 0
    for _ in range(40):
        model = build_model(ProbabilityTable(random_table_rows(rng)))
        for _ in range(5):
            a = random_rudimentary(rng, depth=2)
            b = And(a, random_rudimentary(rng, depth=2))  # guarantees b => a
            d = random_rudimentary(rng, depth=2)
            c = Atom(rng.choice(("R1", "R2")))
            if holds_globally(model, StrictImp(b, a)).holds and holds_globally(
                model, StrictImp(a, Counterfactual(c, d))
            ).holds:
                nonvacuous += 1
                assert holds_globally(model, StrictImp(b, Counterfactual(c, d))).holds
    assert nonvacuous > 20


def test_consequent_weakening_sound():
    from hardylogic.formula import Or

    rng = random.Random(8)
    nonvacuous = 0
    for _ in range(40):
        model = build_model(ProbabilityTable(random_table_rows(rng)))
        for _ in range(5):
            a = random_rudimentary(rng, depth=2)
            d = random_rudimentary(rng, depth=2)
            f = Or(d, random_rudimentary(rng, depth=2))  # guarantees d => f
            c = Atom(rng.choice(("R1", "R2")))
            if holds_globally(model, StrictImp(a, Counterfactual(c, d))).holds and holds_globally(
                model, StrictImp(d, f)
            ).holds:
                nonvacuous += 1
                assert holds_globally(model, StrictImp(a, Counterfactual(c, f))).holds
    assert nonvacuous > 20


def test_pinned_history_axiom_instance_on_random_models():
    text = "(L2 & R2 & L2+) => (R1 []-> L2 & R1 & L2+)"
    rng = random.Random(77)
    for _ in range(60):
        model = build_model(ProbabilityTable(random_table_rows(rng)))
        assert holds_globally(model, parse(text)).holds


def test_check_theorem_on_hardy_model(hardy_model):
    report = check_theorem(hardy_model)
    assert report.hardy_conforming
    assert report.line5.holds
    assert not report.line6.holds
    assert report.confirmed
    assert report.sr_true_on_all_l2_worlds
    assert report.sr_false_l1_witness is not None
    assert World("L1", "R2", "-", "+") in report.line6.counterexamples


def test_check_theorem_parses_nothing_per_call(hardy_model, monkeypatch):
    # the conclusion lines are parsed once, when the module loads
    expected = check_theorem(hardy_model)

    def refuse(text):
        raise AssertionError(f"check_theorem parsed {text!r}")

    monkeypatch.setattr(semantics, "parse", refuse)
    assert check_theorem(hardy_model) == expected


def test_check_theorem_on_uniform_model(uniform_model):
    report = check_theorem(uniform_model)
    assert not report.hardy_conforming
    assert not report.line5.holds
    # from (L2,R2,+,+) the accessible set now includes an R1+ world
    assert not report.confirmed


def test_check_theorem_on_control_model(control_model):
    # with the paradox cell zeroed, the region-R statement no longer
    # depends on the faraway choice: line 6 comes out true
    report = check_theorem(control_model)
    assert not report.hardy_conforming
    assert report.line5.holds
    assert report.line6.holds
    assert not report.confirmed


def test_line5_witnesses_absent_in_hardy_model(hardy_model):
    live = possible_worlds(hardy_model.table.rows)
    assert brute_line5_counterexamples(live) == []


def test_unsupported_antecedent_rejected_behind_a_short_circuit(hardy_model):
    # the left side settles each value, yet the earlier-region antecedent
    # on the right is still an error
    w = World("L1", "R2", "-", "+")
    with pytest.raises(UnsupportedCounterfactualError):
        eval_at(hardy_model, w, parse("L1 | (L2 []-> R1)"))
    with pytest.raises(UnsupportedCounterfactualError):
        holds_globally(hardy_model, parse("L1 | L2 | (L2 []-> R1)"))
    with pytest.raises(UnsupportedCounterfactualError):
        holds_globally(hardy_model, parse("L1 & ~L1 => (R1- []-> R1)"))


_KNOWN_MODELS = ("hardy", "control", "uniform", "random")


def _case_model(request, kind, rng):
    if kind == "random":
        return build_model(ProbabilityTable(random_table_rows(rng)))
    return request.getfixturevalue(f"{kind}_model")


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(_KNOWN_MODELS),
    earlier=st.sampled_from("LR"),
    quantifier=st.sampled_from(("every", "some")),
    self_world=st.booleans(),
)
# `R1 []-> R1+` read with `some`: an R1 world outside R1+ reaches only
# itself, while other worlds of its earlier-region cell reach R1+ worlds
@example(seed=299, kind="hardy", earlier="L", quantifier="some", self_world=True)
def test_truth_sets_match_per_world_oracle(request, seed, kind, earlier, quantifier, self_world):
    rng = random.Random(seed)
    model = _case_model(request, kind, rng)
    order = TemporalOrder(earlier)
    # one antecedent in three picks the earlier region, which is unsupported
    later = tuple(c for c in CHOICE_ATOMS if c[0] == order.later_region)
    f = random_formula(rng, antecedents=later + (earlier + "1",))
    opts = CfOptions(order, quantifier, self_world)
    live = possible_worlds(model.table.rows)
    assert [_as_tuple(w) for w in model.possible_in_order()] == live

    if not brute_supported(f, earlier):
        with pytest.raises(UnsupportedCounterfactualError):
            holds_globally(model, f, opts)
        with pytest.raises(UnsupportedCounterfactualError):
            eval_at(model, model.possible_in_order()[0], f, opts)
        return

    check = holds_globally(model, f, opts)
    expected = brute_counterexamples(live, f, earlier, quantifier, self_world)
    assert check.holds == (not expected)
    assert [_as_tuple(w) for w in check.counterexamples] == expected
    assert (check.witness and _as_tuple(check.witness)) == (expected[0] if expected else None)
    for w in model.possible_in_order():
        world = _as_tuple(w)
        assert eval_at(model, w, f, opts) == brute_eval(
            live, world, f, earlier, quantifier, self_world
        )
        for choice in later:
            got = _reach(model, w, choice, order, self_world)
            assert [_as_tuple(x) for x in got] == brute_accessible(
                live, world, choice, earlier, self_world
            )


def _bit_loop_counterexamples(model, f, opts) -> tuple:
    """The reference: each possible world, taken bit by bit, at which `f` fails.

    A strict conditional fails where its antecedent holds and its
    consequent does not; any other formula where it is false.
    """
    def fails(w):
        if type(f) is StrictImp:
            return eval_at(model, w, f.left, opts) and not eval_at(model, w, f.right, opts)
        return not eval_at(model, w, f, opts)

    return tuple(w for i, w in enumerate(WORLDS) if model.mask >> i & 1 and fails(w))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(_KNOWN_MODELS),
    quantifier=st.sampled_from(("every", "some")),
)
def test_global_checks_list_the_worlds_a_bit_loop_finds(request, seed, kind, quantifier):
    rng = random.Random(seed)
    model = _case_model(request, kind, rng)
    opts = CfOptions(quantifier=quantifier)
    f, g = (random_formula(rng, depth=4, antecedents=("R1", "R2")) for _ in range(2))
    report = check_theorem(model, opts)
    cases = [
        (holds_globally(model, f, opts), f),
        (holds_globally(model, StrictImp(f, g), opts), StrictImp(f, g)),
        (report.line5, semantics.LINE5),
        (report.line6, semantics.LINE6),
    ]
    for check, line in cases:
        expected = _bit_loop_counterexamples(model, line, opts)
        assert check.counterexamples == expected
        assert check.witness == (expected[0] if expected else None)
        assert check.holds == (not expected)
        assert all(w is WORLDS[WORLDS.index(w)] for w in check.counterexamples)


# ---------------------------------------------------------------------------
# A global check is one shared value per counterexample mask

def test_formulas_failing_at_the_same_worlds_share_one_check(hardy_model, control_model):
    for model in (hardy_model, control_model):
        # each fails at exactly the possible L2 worlds; the last is a strict conditional
        checks = [holds_globally(model, parse(text)) for text in ("L1", "~L2", "L2 => L1")]
        assert not checks[0].holds and checks[0].counterexamples
        assert all(check is checks[0] for check in checks)


def test_every_formula_that_holds_shares_one_check(hardy_model, control_model, uniform_model):
    holding = GlobalCheck(True, None, ())
    for model in (hardy_model, control_model, uniform_model):
        for text in ("L1 | L2", "R1 | R2", "L1 => L1", "R1 []-> R1"):
            check = holds_globally(model, parse(text))
            assert check == holding and check is semantics._global_check(0)


@pytest.mark.parametrize("quantifier", ["every", "some"])
@pytest.mark.parametrize("self_world", [True, False])
def test_check_theorem_shares_the_checks_holds_globally_gives(
    hardy_model, control_model, local_model, line6_holds_model, quantifier, self_world
):
    opts = CfOptions(quantifier=quantifier, self_world_when_consistent=self_world)
    for model in (hardy_model, control_model, local_model, line6_holds_model):
        report = check_theorem(model, opts)
        assert report.line5 is holds_globally(model, semantics.LINE5, opts)
        assert report.line6 is holds_globally(model, semantics.LINE6, opts)


def test_a_shared_check_equals_the_check_built_from_its_worlds():
    # every mask of the first eight worlds or of the last eight, and the
    # full mask; not all 65,536, which would keep every check alive in
    # this process
    masks = sorted({0xFFFF, *range(256), *(b << 8 for b in range(256))})
    for mask in masks:
        worlds = tuple(worlds_in(mask))
        fresh = GlobalCheck(not worlds, worlds[0] if worlds else None, worlds)
        shared = semantics._global_check(mask)
        assert shared is semantics._global_check(mask)
        assert shared == fresh and type(shared.counterexamples) is tuple
        assert repr(shared) == repr(fresh) and hash(shared) == hash(fresh)
        assert pickle.loads(pickle.dumps(shared)) == fresh


_SWAP = {"L": "R", "R": "L"}


def _mirror_name(name: str) -> str:
    return _SWAP[name[0]] + name[1:]


def _mirror_formula(f):
    if isinstance(f, Atom):
        return Atom(_mirror_name(f.name))
    if isinstance(f, Not):
        return Not(_mirror_formula(f.arg))
    return type(f)(_mirror_formula(f.left), _mirror_formula(f.right))


def _mirror_world(w: World) -> World:
    return World(_mirror_name(w.choice_r), _mirror_name(w.choice_l), w.outcome_r, w.outcome_l)


def _mirror_model(model):
    rows = {
        (_mirror_name(cr), _mirror_name(cl)): {o[1] + o[0]: p for o, p in row.items()}
        for (cl, cr), row in model.table.rows.items()
    }
    return build_model(ProbabilityTable(rows), model.epsilon)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(_KNOWN_MODELS),
    earlier=st.sampled_from("LR"),
    quantifier=st.sampled_from(("every", "some")),
    self_world=st.booleans(),
)
def test_mirroring_regions_and_order_preserves_verdicts(
    request, seed, kind, earlier, quantifier, self_world
):
    # swapping L and R in the table, formula and worlds, together with
    # the temporal order, is a symmetry of the semantics
    rng = random.Random(seed)
    model = _case_model(request, kind, rng)
    later = tuple(c for c in CHOICE_ATOMS if c[0] == _SWAP[earlier])
    f = random_formula(rng, antecedents=later)
    opts = CfOptions(TemporalOrder(earlier), quantifier, self_world)
    mirror_opts = CfOptions(TemporalOrder(_SWAP[earlier]), quantifier, self_world)
    mirror = _mirror_model(model)
    mirror_f = _mirror_formula(f)

    check = holds_globally(model, f, opts)
    mirror_check = holds_globally(mirror, mirror_f, mirror_opts)
    assert check.holds == mirror_check.holds
    assert {_mirror_world(w) for w in check.counterexamples} == set(mirror_check.counterexamples)
    assert mirror.possible == {_mirror_world(w) for w in model.possible}
    for w in model.possible_in_order():
        mirrored = eval_at(mirror, _mirror_world(w), mirror_f, mirror_opts)
        assert eval_at(model, w, f, opts) == mirrored



def _distinct_nodes(formulas) -> list:
    """Every node of `formulas`, each value once, children before parents."""
    nodes = {}

    def visit(f):
        if isinstance(f, Not):
            visit(f.arg)
        elif not isinstance(f, Atom):
            visit(f.left)
            visit(f.right)
        nodes.setdefault(f)

    for f in formulas:
        visit(f)
    return list(nodes)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(_KNOWN_MODELS),
    earlier=st.sampled_from("LR"),
    self_world=st.booleans(),
    unsupported=st.booleans(),
)
def test_mask_program_matches_truth_mask_and_the_oracle(
    request, seed, kind, earlier, self_world, unsupported
):
    # a formula set whose later members hold earlier ones as subformulas,
    # by object, and a copy parsed afresh, which shares no object with it:
    # the program computes each node value once
    rng = random.Random(seed)
    model = _case_model(request, kind, rng)
    order = TemporalOrder(earlier)
    later = [c for c in CHOICE_ATOMS if c[0] == order.later_region]
    # without a fixed antecedent most counterfactuals are outside the fragment
    parts = [random_formula(rng, 2, None if unsupported else later) for _ in range(5)]
    formulas = parts + [And(f, g) for f, g in zip(parts, parts[1:])]
    formulas += [Counterfactual(Atom(later[i % 2]), f) for i, f in enumerate(formulas[::2])]
    formulas += [StrictImp(f, g) for f, g in zip(parts, reversed(formulas))]
    if unsupported:  # an antecedent checked before the consequent's own antecedents
        outer = Counterfactual(Atom(rng.choice(CHOICE_ATOMS)), rng.choice(formulas))
        formulas.insert(rng.randrange(len(formulas) + 1), outer)

    try:  # the first error `truth_mask` meets, formula by formula
        for f in formulas:
            semantics.truth_mask(model, f, CfOptions(order, "every", self_world))
    except UnsupportedCounterfactualError as exc:
        with pytest.raises(UnsupportedCounterfactualError) as raised:
            semantics.MaskProgram(formulas + semantics._duals(formulas), order)
        assert str(raised.value) == str(exc)
        return

    # every node value once, with its universal slot and its dual's, then the
    # same parts parsed afresh
    nodes = _distinct_nodes(formulas)
    parts = formulas + nodes
    duals = semantics._duals(parts)
    flat = [parse(unparse(f)) for f in parts]
    program = semantics.MaskProgram(parts + duals + flat, order)
    universal, existential = program.slots[: len(parts)], program.slots[len(parts) :]
    existential, copies = existential[: len(parts)], existential[len(parts) :]
    assert copies == universal  # equal nodes share a slot, whatever objects they are
    node_slots = universal[len(formulas) :]
    assert len(set(node_slots)) == len(nodes)
    assert len(program) == len(_distinct_nodes(parts + duals))  # each value once, no other
    slot_of = dict(zip(nodes, node_slots))
    assert universal[: len(formulas)] == tuple(slot_of[f] for f in formulas)
    result = "[" + ", ".join(f"m{n}" for n in range(len(program))) + "]"
    runs = {  # every slot's mask, as one generated function per flag
        flag: semantics._function("p", program.body(flag), result, "<test>")
        for flag in (self_world, not self_world)
    }
    for flag, run in runs.items():
        masks = run(model.mask)
        every, some = (CfOptions(order, q, flag) for q in ("every", "some"))
        for f, u, e in zip(parts, universal, existential):
            assert masks[u] == semantics.truth_mask(model, f, every)
            assert masks[e] == semantics.truth_mask(model, f, some)
    # the oracle, under the first flag, by its own rule for each quantifier:
    # it re-evaluates every subtree
    masks = runs[self_world](model.mask)
    live = [_as_tuple(w) for w in model.possible_in_order()]
    for f, u, e in zip(nodes, node_slots, existential[len(formulas) :]):
        for quantifier, slot in (("every", u), ("some", e)):
            got = [_as_tuple(w) for w in worlds_in(masks[slot])]
            oracle = [w for w in live if brute_eval(live, w, f, earlier, quantifier, self_world)]
            assert got == oracle
            # every slot lies within the possible worlds: all of them, or some
            assert (masks[slot] == model.mask) == (got == live)
            assert bool(masks[slot]) == bool(got)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(_KNOWN_MODELS),
    earlier=st.sampled_from("LR"),
    self_world=st.booleans(),
    supported=st.booleans(),
)
def test_some_is_every_over_the_dual(request, seed, kind, earlier, self_world, supported):
    # Lewis's "might" duality: `c []-> B` read existentially is
    # `~(c []-> ~B)` read universally, with nested counterfactuals too
    rng = random.Random(seed)
    model = _case_model(request, kind, rng)
    order = TemporalOrder(earlier)
    later = [c for c in CHOICE_ATOMS if c[0] == order.later_region] if supported else None
    f = random_formula(rng, 4, later)
    (dual,) = semantics._duals([f])
    some, every = CfOptions(order, "some", self_world), CfOptions(order, "every", self_world)
    try:
        expected = semantics.truth_mask(model, f, some)
    except UnsupportedCounterfactualError as exc:
        with pytest.raises(UnsupportedCounterfactualError) as raised:
            semantics.truth_mask(model, dual, every)
        assert str(raised.value) == str(exc)
        return
    assert semantics.truth_mask(model, dual, every) == expected


def test_duals_keep_what_has_no_counterfactual_and_share_what_is_shared():
    plain = parse("L1 & ~(R2+ -> L2-) => R1 | ~~L2")
    assert semantics._duals([plain])[0] == plain
    # SR's dual: only the counterfactual and what holds it are new, no `~~`
    line5, line6 = semantics._duals([semantics.LINE5, semantics.LINE6])
    assert str(line5) == "L2 => R2 & R2+ -> ~(R1 []-> ~(R1 & R1-))"
    assert line5.left == semantics.LINE5.left
    assert line5.right.left == semantics.LINE5.right.left
    assert line5.right.right.arg.right.arg == semantics.LINE5.right.right.right
    assert line6.right == line5.right  # equal SRs have equal duals
    shared = Counterfactual(R1, Atom("R1-"))
    (both,) = semantics._duals([And(shared, Or(shared, R1))])
    assert both.left == both.right.left
    # `~(R1 []-> ~R1-)` is `~~(R1 []-> ~~R1-)`, written with neither `~~`
    assert semantics._duals([parse("~(R1 []-> ~R1-)")]) == [parse("R1 []-> R1-")]


def test_a_one_shot_eval_generates_one_counterfactual_function(tmp_path, hardy_model):
    # a fresh interpreter, so nothing is cached: `eval` of one counterfactual
    # generates the reach rule's function once, for its choice and flag
    path = tmp_path / "model.json"
    save_model(hardy_model, path)
    script = (
        "import sys\n"
        "from hardylogic import cli, semantics\n"
        "names, real = [], semantics._function\n"
        "semantics._function = lambda *a, **k: names.append(a[3]) or real(*a, **k)\n"
        "code = cli.main(['eval', sys.argv[1], 'R1 []-> R1 & R1-'])\n"
        "print(code, names)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        env=dict(os.environ, PYTHONPATH=str(Path(semantics.__file__).parents[1])),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert done.stdout.splitlines()[-1] == "1 ['<counterfactual>']"


def test_the_walk_generates_at_most_eight_counterfactual_functions(monkeypatch, hardy_model):
    # one per (imposed choice, earlier region, self-world): two later-region
    # choices per order, two orders, two flags, and both quantifiers share them
    generated = []
    real = semantics._function
    monkeypatch.setattr(
        semantics, "_function", lambda *args, **kw: generated.append(args[3]) or real(*args, **kw)
    )
    monkeypatch.setattr(semantics, "_REACH", {})
    rng = random.Random(28)
    for earlier in "LR":
        later = [c for c in CHOICE_ATOMS if c[0] == _SWAP[earlier]]
        formulas = [random_formula(rng, 4, later) for _ in range(60)]
        for quantifier in ("every", "some"):
            for self_world in (True, False):
                opts = CfOptions(TemporalOrder(earlier), quantifier, self_world)
                for f in formulas:
                    holds_globally(hardy_model, f, opts)
    assert generated == ["<counterfactual>"] * 8
    assert sorted(semantics._REACH) == [
        (name, earlier, self_world)
        for name, earlier in (("L1", "R"), ("L2", "R"), ("R1", "L"), ("R2", "L"))
        for self_world in (False, True)
    ]


_EARLIER_L1 = (
    "counterfactual antecedent L1 picks the earlier region; only later-region choices can be imposed"
)


@pytest.mark.parametrize("self_world", [True, False])
def test_an_antecedent_checked_under_one_order_is_refused_under_the_other(
    monkeypatch, hardy_model, self_world
):
    # the reach functions are found by the antecedent's name, and each key
    # carries the earlier region, so a name checked under R is checked again under L
    monkeypatch.setattr(semantics, "_REACH", {})
    f = parse("L1 []-> L1")
    for quantifier in ("every", "some"):
        r_earlier = CfOptions(TemporalOrder("R"), quantifier, self_world)
        for _ in range(2):  # a miss, then a hit
            assert semantics.truth_mask(hardy_model, f, r_earlier) == hardy_model.mask
            for order, flag in (("L", self_world), ("L", not self_world)):
                opts = CfOptions(TemporalOrder(order), quantifier, flag)
                for evaluate in (
                    lambda: semantics.truth_mask(hardy_model, f, opts),
                    lambda: eval_at(hardy_model, WORLDS[0], f, opts),
                    lambda: holds_globally(hardy_model, Or(Atom("L1"), f), opts),
                ):
                    with pytest.raises(UnsupportedCounterfactualError) as raised:
                        evaluate()
                    assert str(raised.value) == _EARLIER_L1
    assert set(semantics._REACH) == {("L1", "R", self_world)}


class _Choice(Atom):
    __slots__ = ()


class _Earlier(Atom):  # names a later-region choice, but says it is in the earlier region
    __slots__ = ()
    region = "L"


def test_an_atom_subclass_antecedent_never_lets_a_non_atom_through(monkeypatch, hardy_model):
    # an Atom subclass is checked as today, on every use; only an exact Atom is looked up
    monkeypatch.setattr(semantics, "_REACH", {})
    every = semantics.truth_mask(hardy_model, Counterfactual(R1, Atom("R1+")))
    assert semantics.truth_mask(hardy_model, Counterfactual(_Choice("R1"), Atom("R1+"))) == every
    assert set(semantics._REACH) == {("R1", "L", True)}
    for left, message in (
        (Not(R1), "counterfactual antecedent must be a choice atom, got ~R1"),
        (Atom("R1-"), "counterfactual antecedent must be a choice atom, got R1-"),
        (Atom("L1"), _EARLIER_L1),
        (_Earlier("R1"), _EARLIER_L1.replace("L1", "R1")),
    ):
        with pytest.raises(UnsupportedCounterfactualError) as raised:
            semantics.truth_mask(hardy_model, Counterfactual(left, Atom("R1+")))
        assert str(raised.value) == message
    assert set(semantics._REACH) == {("R1", "L", True)}


class _World(World):
    __slots__ = ()


@pytest.mark.parametrize(
    "world", [_World("L1", "R1", "+", "+"), ("L1", "R1", "+", "+")], ids=["World subclass", "tuple"]
)
def test_eval_at_refuses_what_is_not_exactly_a_world(hardy_model, world):
    assert eval_at(hardy_model, WORLDS[0], parse("L1"))  # the world itself is possible
    with pytest.raises(ValueError) as raised:
        eval_at(hardy_model, world, parse("L1"))
    assert str(raised.value) == f"world {world} is not possible in this model"


@pytest.mark.parametrize("quantifier", ["evry", "Every", ""])
def test_options_refuse_an_unknown_quantifier(quantifier):
    # checked, not read as 'some'
    with pytest.raises(ValueError) as raised:
        CfOptions(quantifier=quantifier)
    assert str(raised.value) == f"quantifier must be 'every' or 'some', got {quantifier!r}"


def test_temporal_order_refuses_an_unknown_region():
    with pytest.raises(ValueError) as raised:
        TemporalOrder("X")
    assert str(raised.value) == "earlier_region must be 'L' or 'R', got 'X'"


@pytest.mark.parametrize("order", ["L", None, ("L",)])
def test_options_refuse_an_order_that_is_not_a_temporal_order(order):
    with pytest.raises(ValueError) as raised:
        CfOptions(order=order)
    assert str(raised.value) == f"order must be a TemporalOrder, got {order!r}"


@pytest.mark.parametrize("flag", ["no", 0, 1, None])
def test_options_refuse_a_self_world_flag_that_is_not_a_bool(flag):
    with pytest.raises(ValueError) as raised:
        CfOptions(self_world_when_consistent=flag)
    assert str(raised.value) == f"self_world_when_consistent must be True or False, got {flag!r}"


def test_an_empty_mask_program_runs():
    # no instructions: an empty body under either flag
    program = semantics.MaskProgram([])
    assert len(program) == 0 and program.slots == ()
    assert program.body(True) == program.body(False) == []


def test_check_theorem_refuses_local_strategies(local_model):
    # both lines come out as on the Hardy model, but the table is
    # classical: none of the four predictions holds
    report = check_theorem(local_model)
    assert report.line5.holds and not report.line6.holds
    assert not report.hardy_conforming
    assert not report.line5_vacuous
    assert not report.confirmed
    assert "dependence confirmed: NO" in report.render()


def test_check_theorem_refuses_a_vacuous_line5(hardy_table):
    # every prediction holds, but no possible L2 world records R2+, so
    # line 5 holds with no world to test it
    rows = {pair: dict(row) for pair, row in hardy_table.rows.items()}
    row = rows[("L2", "R2")]
    rows[("L2", "R2")] = {"++": 0.0, "+-": row["++"] + row["+-"], "-+": 0.0, "--": row["--"]}
    report = check_theorem(build_model(ProbabilityTable(rows)))
    assert report.hardy_conforming
    assert report.line5.holds and not report.line6.holds
    assert report.line5_vacuous
    assert not report.confirmed
    assert "holds: True  (vacuously: no possible L2 world has R2+)" in report.render()


def test_no_even_mixture_of_two_local_strategies_is_confirmed():
    # a strategy fixes the sign of every setting in advance; a mixture of
    # strategies is a classical table, which must never confirm (the
    # mixture of +++- and +--+ did, before conformance was required)
    strategies = [
        dict(zip(("L1", "L2", "R1", "R2"), signs)) for signs in itertools.product("+-", repeat=4)
    ]
    lines_as_in_hardy = 0
    for i, a in enumerate(strategies):
        for b in strategies[i:]:
            rows = {pair: dict.fromkeys(("++", "+-", "-+", "--"), 0.0) for pair in CHOICE_PAIRS}
            for s in (a, b):
                for (cl, cr), row in rows.items():
                    row[s[cl] + s[cr]] += 0.5
            report = check_theorem(build_model(ProbabilityTable(rows)))
            lines_as_in_hardy += report.line5.holds and not report.line6.holds
            assert not report.confirmed, (a, b)
    assert lines_as_in_hardy > 0


def test_no_locally_realisable_pattern_is_confirmed():
    # A local hidden-variable model makes possible a union of the
    # supports of deterministic strategies.  Truth depends only on the
    # possible worlds, so one table per such pattern, each row uniform on
    # its possible cells, covers every local model.  Lines 5 and 6 come
    # out as in Hardy on 92 patterns under 'every' and 276 under 'some'
    # (the Mermin/Unruh objection), yet no pattern realizes the four
    # predictions, so none confirms.
    patterns = locally_realisable_patterns()
    assert len(patterns) == 1721
    lines_as_in_hardy = {"every": 0, "some": 0}
    for pattern in patterns:
        rows = {}
        for pair in CHOICE_PAIRS:
            cells = [w[2] + w[3] for w in pattern if w[:2] == pair]
            rows[pair] = {k: 1 / len(cells) if k in cells else 0.0 for k in OUTCOME_PAIRS}
        model = build_model(ProbabilityTable(rows))
        assert {_as_tuple(w) for w in model.possible} == pattern
        for quantifier in lines_as_in_hardy:
            report = check_theorem(model, CfOptions(quantifier=quantifier))
            lines_as_in_hardy[quantifier] += report.line5.holds and not report.line6.holds
            assert not report.hardy_conforming, (sorted(pattern), quantifier)
            assert not report.confirmed, (sorted(pattern), quantifier)
    assert lines_as_in_hardy == {"every": 92, "some": 276}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), quantifier=st.sampled_from(("every", "some")))
def test_confirmed_needs_conformance_and_a_tested_line5(seed, quantifier):
    model = build_model(ProbabilityTable(random_table_rows(random.Random(seed))))
    report = check_theorem(model, CfOptions(quantifier=quantifier))
    tested = any(w.choice_pair == ("L2", "R2") and w.outcome_r == "+" for w in model.possible)
    assert report.line5_vacuous == (not tested)
    assert report.confirmed == (
        report.hardy_conforming and tested and report.line5.holds and not report.line6.holds
    )


class _Conjunction(And):
    __slots__ = ()


@pytest.mark.parametrize(
    "foreign", [_Conjunction(Atom("L1"), Atom("R1")), object()], ids=["And subclass", "object"]
)
def test_foreign_nodes_are_rejected_alike(hardy_model, foreign):
    # both evaluators and the printer dispatch on the exact node class
    f = Or(Atom("L2"), foreign)
    message = f"not a formula node: {foreign!r}"
    for evaluate in (
        lambda: semantics.truth_mask(hardy_model, f),
        lambda: semantics.MaskProgram([f]),
        lambda: holds_globally(hardy_model, StrictImp(Atom("L2"), f)),
        lambda: unparse(f),
        lambda: str(Not(f)),
    ):
        with pytest.raises(TypeError) as raised:
            evaluate()
        assert str(raised.value) == message


def test_conclusion_lines_share_one_sr_node(hardy_model, monkeypatch):
    # each line is parsed on its own, and the theorem check still walks SR
    # once, as line 5's consequent, then the two antecedents, under either
    # quantifier
    assert semantics.LINE5 == parse(semantics.LINE5_TEXT)
    assert semantics.LINE6 == parse(semantics.LINE6_TEXT)
    assert semantics.LINE6.right == semantics.LINE5.right
    assert semantics.LINE6.right is not semantics.LINE5.right
    walked = []
    real = semantics.truth_mask
    monkeypatch.setattr(
        semantics, "truth_mask", lambda model, f, opts: walked.append(f) or real(model, f, opts)
    )
    for quantifier in ("every", "some", "every"):
        walked.clear()
        report = check_theorem(hardy_model, CfOptions(quantifier=quantifier))
        assert report.confirmed == (quantifier == "every")  # under 'some' line 6 holds
        roots = [f for f in walked if f in (semantics.LINE5.right, Atom("L1"), Atom("L2"))]
        assert roots == [semantics.LINE5.right, Atom("L2"), Atom("L1")]
        assert roots[0] is semantics.LINE5.right
        # SR's eight nodes, each walked once, and the two antecedents
        assert len(walked) == 8 + 2


def test_theorem_over_every_possibility_pattern():
    # Truth depends only on the possible worlds, so these models cover
    # every table.  Per quantifier: confirmed, Hardy-conforming,
    # conforming with lines 5 and 6 as in Hardy, and of those, the ones
    # whose line 5 no possible world tests.
    opts = {q: CfOptions(quantifier=q) for q in ("every", "some")}
    counts = {q: [0, 0, 0, 0] for q in opts}
    sample = set(random.Random(10).sample(range(15**4), 250))
    for k, model in enumerate(pattern_models()):
        for q, count in counts.items():
            report = check_theorem(model, opts[q])
            as_in_hardy = report.hardy_conforming and report.line5.holds and not report.line6.holds
            count[0] += report.confirmed
            count[1] += report.hardy_conforming
            count[2] += as_in_hardy
            count[3] += as_in_hardy and report.line5_vacuous
            if report.confirmed:
                assert report.hardy_conforming and not report.line5_vacuous
            if k in sample:
                live = possible_worlds(model.table.rows)
                assert list(map(_as_tuple, report.line5.counterexamples)) == (
                    brute_line5_counterexamples(live, q)
                )
                assert list(map(_as_tuple, report.line6.counterexamples)) == (
                    brute_line6_counterexamples(live, q)
                )
    assert k + 1 == 15**4
    assert counts == {"every": [1120, 2744, 1960, 840], "some": [448, 2744, 1036, 588]}
    # under the other order R1 is an earlier choice, which no line can impose
    with pytest.raises(
        UnsupportedCounterfactualError, match="^counterfactual antecedent R1 picks the earlier region"
    ):
        check_theorem(model, CfOptions(TemporalOrder("R")))
