import itertools
import random

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
    check_paper_normal,
    parse,
    unparse,
)
from hardylogic.semantics import (
    CfOptions,
    TemporalOrder,
    UnsupportedCounterfactualError,
    accessible,
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
)
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


def test_accessible_prunes_outcomes_forbidden_by_the_table(hardy_model):
    got = accessible(hardy_model, World("L2", "R2", "+", "+"), R1)
    assert got == [World("L2", "R1", "+", "-")]


def test_accessible_keeps_both_open_outcomes(hardy_model):
    got = accessible(hardy_model, World("L1", "R2", "-", "+"), R1)
    assert got == [World("L1", "R1", "-", "+"), World("L1", "R1", "-", "-")]


def test_accessible_self_world_when_nothing_contradicted(hardy_model):
    w = World("L1", "R1", "+", "+")
    assert accessible(hardy_model, w, R1) == [w]


def test_accessible_without_self_world_shortcut(hardy_model):
    w = World("L1", "R1", "+", "+")
    got = accessible(hardy_model, w, R1, self_world_when_consistent=False)
    assert got == [World("L1", "R1", "+", "+"), World("L1", "R1", "+", "-")]


def test_accessible_matches_brute_force_oracle(hardy_model):
    live = possible_worlds(hardy_model.table.rows)
    for w in hardy_model.possible_in_order():
        for choice in ("R1", "R2"):
            got = accessible(hardy_model, w, Atom(choice))
            expected = brute_accessible(live, _as_tuple(w), choice)
            assert [_as_tuple(x) for x in got] == expected


def test_accessible_rejects_earlier_region_choice(hardy_model):
    with pytest.raises(UnsupportedCounterfactualError):
        accessible(hardy_model, World("L1", "R2", "-", "+"), Atom("L2"))


def test_accessible_rejects_outcome_antecedent(hardy_model):
    with pytest.raises(UnsupportedCounterfactualError):
        accessible(hardy_model, World("L1", "R2", "-", "+"), Atom("R1-"))


def test_accessible_respects_temporal_order(hardy_model):
    # with R earlier, imposing an L choice pins the R choice and outcome
    order = TemporalOrder("R")
    got = accessible(hardy_model, World("L1", "R2", "-", "+"), Atom("L2"), order)
    assert got == [World("L2", "R2", "+", "+")]  # (L2,R2,-,+) is a zero cell
    with pytest.raises(UnsupportedCounterfactualError):
        accessible(hardy_model, World("L1", "R2", "-", "+"), R1, order)


def test_accessible_requires_possible_world(hardy_model):
    with pytest.raises(ValueError):
        accessible(hardy_model, World("L1", "R2", "-", "-"), R1)


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
    assert accessible(model, w, R1) == []
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
            got = accessible(model, w, Atom(choice), order, self_world)
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
    """Every node of `formulas`, each object once, children before parents."""
    seen, nodes = set(), []

    def visit(f):
        if id(f) in seen:
            return
        seen.add(id(f))
        if isinstance(f, Not):
            visit(f.arg)
        elif not isinstance(f, Atom):
            visit(f.left)
            visit(f.right)
        nodes.append(f)

    for f in formulas:
        visit(f)
    return nodes


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(_KNOWN_MODELS),
    earlier=st.sampled_from("LR"),
    quantifiers=st.sampled_from((("every", "some"), ("some", "every"))),
    self_world=st.booleans(),
    unsupported=st.booleans(),
)
def test_mask_program_matches_truth_mask_and_the_oracle(
    request, seed, kind, earlier, quantifiers, self_world, unsupported
):
    # a formula set whose later members hold earlier ones as subformulas,
    # by object, so the program computes each shared node once
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
    readings = [CfOptions(order, q, self_world) for q in quantifiers]

    try:  # the first error `truth_mask` meets, formula by formula
        for f in formulas:
            semantics.truth_mask(model, f, readings[0])
    except UnsupportedCounterfactualError as exc:
        with pytest.raises(UnsupportedCounterfactualError) as raised:
            semantics.MaskProgram(formulas, order)
        assert str(raised.value) == str(exc)
        return

    nodes = _distinct_nodes(formulas)
    program = semantics.MaskProgram(formulas + nodes, order)
    node_slots = program.slots[len(formulas) :]
    assert len(program) == len(set(node_slots)) == len(nodes)  # each object once, no other
    slot_of = dict(zip(map(id, nodes), node_slots))
    assert program.slots[: len(formulas)] == tuple(slot_of[id(f)] for f in formulas)
    runs = program.run(model, quantifiers, self_world)
    for opts, reading in zip(readings, runs):  # the second reading reuses the first's prefix
        for f, slot in zip(formulas + nodes, program.slots):
            assert reading.masks[slot] == semantics.truth_mask(model, f, opts)
    # the oracle, under the first reading only: it re-evaluates every subtree
    live = [_as_tuple(w) for w in model.possible_in_order()]
    for f, slot in zip(nodes, node_slots):
        got = [_as_tuple(w) for w in semantics.worlds_where((runs[0], slot))]
        oracle = [w for w in live if brute_eval(live, w, f, earlier, quantifiers[0], self_world)]
        assert got == oracle
        assert runs[0].everywhere(slot) == (got == live)
        assert runs[0].somewhere(slot) == bool(got)


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
    # both evaluators, the printer and the normal-form check dispatch on
    # the exact node class; the check visits every node, also past a
    # violation or inside a counterfactual's antecedent
    f = Or(Atom("L2"), foreign)
    message = f"not a formula node: {foreign!r}"
    for evaluate in (
        lambda: semantics.truth_mask(hardy_model, f),
        lambda: semantics.MaskProgram([f]),
        lambda: holds_globally(hardy_model, StrictImp(Atom("L2"), f)),
        lambda: unparse(f),
        lambda: str(Not(f)),
        lambda: check_paper_normal(f),
        lambda: check_paper_normal(StrictImp(Atom("L2"), f)),
        lambda: check_paper_normal(And(StrictImp(Atom("L1"), Atom("R1")), f)),
        lambda: check_paper_normal(Counterfactual(Or(foreign, Atom("L1")), Atom("R1"))),
    ):
        with pytest.raises(TypeError) as raised:
            evaluate()
        assert str(raised.value) == message


def test_conclusion_lines_share_one_sr_node():
    # line 6 is built on line 5's SR, so the theorem program computes SR
    # once: L2, L1 and SR's eight nodes
    assert semantics.LINE5 == parse(semantics.LINE5_TEXT)
    assert semantics.LINE6 == parse(semantics.LINE6_TEXT)
    assert semantics.LINE6.right is semantics.LINE5.right
    assert len(semantics._theorem_program("L")) == 10


def _pattern_models():
    """One model per possibility pattern with a possible world in each choice pair.

    A row may make possible any of the 15 nonempty sets of its four
    cells, and is uniform on that set: 15**4 = 50,625 patterns.
    """
    cell_sets = [cells for n in range(1, 5) for cells in itertools.combinations(OUTCOME_PAIRS, n)]
    rows = [{k: 1 / len(cells) if k in cells else 0.0 for k in OUTCOME_PAIRS} for cells in cell_sets]
    for choice in itertools.product(rows, repeat=len(CHOICE_PAIRS)):
        yield build_model(ProbabilityTable(dict(zip(CHOICE_PAIRS, choice))))


def test_theorem_over_every_possibility_pattern():
    # Truth depends only on the possible worlds, so these models cover
    # every table.  Per quantifier: confirmed, Hardy-conforming,
    # conforming with lines 5 and 6 as in Hardy, and of those, the ones
    # whose line 5 no possible world tests.
    opts = {q: CfOptions(quantifier=q) for q in ("every", "some")}
    counts = {q: [0, 0, 0, 0] for q in opts}
    sample = set(random.Random(10).sample(range(15**4), 250))
    for k, model in enumerate(_pattern_models()):
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
