import json
import math
import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylogic import quantum
from hardylogic.quantum import (
    HARDY_CONFIG,
    HARDY_REPORT,
    ZERO_CLAMP,
    HardyConfig,
    PredictionReport,
    SearchParams,
    _project,
    config_from_dict,
    config_to_dict,
    export_table,
    find_hardy,
    load_config,
    save_config,
    verify_hardy,
)
from hardylogic.worlds import (
    CHOICE_PAIRS,
    DISTRIBUTION_TOL,
    FORBIDDEN_WORLDS,
    OUTCOME_PAIRS,
    PARADOX_WORLD,
    ProbabilityTable,
    TableError,
    build_model,
    load_model,
    model_to_dict,
)
from oracles import (
    OPTIMAL_PARADOX,
    born_probability_matrix,
    full_table,
    grid_refine_optimum,
    possible_worlds,
)


def _random_config(rng):
    return HardyConfig(
        theta=rng.uniform(0, math.pi / 2),
        angle_l1=rng.uniform(-math.pi, math.pi),
        angle_l2=rng.uniform(-math.pi, math.pi),
        angle_r1=rng.uniform(-math.pi, math.pi),
        angle_r2=rng.uniform(-math.pi, math.pi),
    )


def _constraints(cfg):
    """(c1, c2, c3, c4), the three must-vanish cells and the paradox cell, as reported."""
    report = verify_hardy(cfg)
    return report.c1, report.c2, report.c3, report.c4


def test_product_state_computational_basis():
    cfg = HardyConfig(0.0, 0.0, 0.0, 0.0, 0.0)
    assert export_table(cfg).cell("L1", "R1", "++") == pytest.approx(1.0)


def test_aligned_maximally_entangled_state_correlates():
    cfg = HardyConfig(math.pi / 4, 0.0, 0.0, 0.0, 0.0)
    assert export_table(cfg).cell("L1", "R1", "+-") == pytest.approx(0.0, abs=1e-15)


def test_outcomes_complete_for_every_choice_pair():
    rng = random.Random(3)
    for _ in range(50):
        table = export_table(_random_config(rng))
        for cl, cr in CHOICE_PAIRS:
            total = sum(table.cell(cl, cr, key) for key in OUTCOME_PAIRS)
            assert total == pytest.approx(1.0, abs=1e-12)


def test_matches_matrix_route_oracle():
    rng = random.Random(11)
    for _ in range(50):
        cfg = _random_config(rng)
        cl = rng.choice(("L1", "L2"))
        cr = rng.choice(("R1", "R2"))
        sl, sr = rng.choice("+-"), rng.choice("+-")
        expected = born_probability_matrix(
            cfg.theta, cfg.angle(cl), cfg.angle(cr), sl, sr
        )
        assert export_table(cfg).cell(cl, cr, sl + sr) == pytest.approx(expected, abs=1e-12)


def _scalar_cell(cfg, choice_l, choice_r, sign_l, sign_r):
    """The documented cell formula, written out: the engine must match it bit for bit."""
    def vector(angle, sign):
        return (math.cos(angle), math.sin(angle)) if sign == "+" else (-math.sin(angle), math.cos(angle))

    vl, vr = vector(cfg.angle(choice_l), sign_l), vector(cfg.angle(choice_r), sign_r)
    amp = math.cos(cfg.theta) * vl[0] * vr[0] + math.sin(cfg.theta) * vl[1] * vr[1]
    return amp * amp


# angles whose cos or sin is exactly or nearly zero, huge angles, signed
# zeros and a negative theta
_HALF_PI = [k * math.pi / 2 for k in range(-4, 5)]
_EDGE_CONFIGS = [
    HardyConfig(1e300, 1e300, -1e300, 1e300, -1e300),
    HardyConfig(0.3, -1e300, 1e300, -1e300, 1e300),
    HardyConfig(0.0, -0.0, 0.0, -0.0, 0.0),
    HardyConfig(-0.0, 0.0, -0.0, 0.0, -0.0),
    HardyConfig(-0.0, 0.1, -0.0, 0.7, -0.0),
    *(HardyConfig(x, x, -x, x, -x) for x in _HALF_PI),
    *(HardyConfig(0.3, x, y, -y, x) for x in _HALF_PI for y in (0.0, math.pi / 2, math.pi)),
    HardyConfig(-0.4, 0.1, 0.2, 0.3, 0.5),
    HardyConfig(-HARDY_CONFIG.theta, *(getattr(HARDY_CONFIG, f) for f in HardyConfig._fields[1:])),
]


def test_cells_agree_bit_for_bit():
    # ==, not approx: the goldens print cells as small as 7.704e-34
    rng = random.Random(14)
    prediction_worlds = (*FORBIDDEN_WORLDS, PARADOX_WORLD)
    for cfg in [_random_config(rng) for _ in range(200)] + [HARDY_CONFIG] + _EDGE_CONFIGS:
        table = export_table(cfg)
        for cl, cr in CHOICE_PAIRS:
            for key in OUTCOME_PAIRS:
                exact = _scalar_cell(cfg, cl, cr, key[0], key[1])
                assert table.cell(cl, cr, key) == (0.0 if exact <= ZERO_CLAMP else exact)
        cells = tuple(
            _scalar_cell(cfg, w.choice_l, w.choice_r, w.outcome_l, w.outcome_r)
            for w in prediction_worlds
        )
        report = verify_hardy(cfg)
        assert (report.c1, report.c2, report.c3, report.c4) == cells
        assert report.marginal_l1_minus == cells[3] + _scalar_cell(cfg, "L1", "R1", "-", "-")


def test_a_cell_at_the_clamp_exports_as_zero(monkeypatch):
    # the clamp is inclusive: a Born cell of exactly ZERO_CLAMP exports as
    # 0.0, and the next float up is kept as it is
    cells = list(quantum._born_cells(HARDY_CONFIG))
    monkeypatch.setattr(quantum, "_born_cells", lambda cfg: tuple(cells))
    bit = FORBIDDEN_WORLDS[0].index
    above = math.nextafter(ZERO_CLAMP, 1.0)
    for cell, exported in ((ZERO_CLAMP, 0.0), (above, above)):
        cells[bit] = cell
        assert export_table(HARDY_CONFIG).cells[bit] == exported


def test_the_report_matches_one_built_by_keyword():
    # verify_hardy stores through the slots' setters; a report built by
    # keyword from the documented cell formula must be the same value
    rng = random.Random(14)
    for cfg in [_random_config(rng) for _ in range(200)] + [HARDY_CONFIG]:
        c1, c2, c3, c4 = (
            _scalar_cell(cfg, w.choice_l, w.choice_r, w.outcome_l, w.outcome_r)
            for w in (*FORBIDDEN_WORLDS, PARADOX_WORLD)
        )
        expected = PredictionReport(
            c1=c1, c2=c2, c3=c3, c4=c4,
            marginal_l1_minus=c4 + _scalar_cell(cfg, "L1", "R1", "-", "-"),
            tolerance=quantum.DEFAULT_TOL,
        )
        report = verify_hardy(cfg)
        assert report == expected and hash(report) == hash(expected)
        assert repr(report) == repr(expected)
        copy = pickle.loads(pickle.dumps(report))
        assert type(copy) is PredictionReport and copy == report and repr(copy) == repr(report)
        for name in PredictionReport._fields:
            with pytest.raises(AttributeError):
                setattr(report, name, 0.0)
        assert report == expected  # the refused assignments changed nothing


_BOUNDARY = (0.0, -0.0, 1e-9, 5e-324, math.nan, math.inf, -math.inf)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_passed_is_every_prediction_passing(data):
    # the fields as drawn, with cells exactly at tol or at the fixed floor,
    # NaN and the infinities among them
    tol = data.draw(st.floats() | st.sampled_from(_BOUNDARY))
    cell = st.floats() | st.sampled_from((tol, quantum.POSITIVITY_FLOOR, *_BOUNDARY))
    c1, c2, c3, c4 = (data.draw(cell) for _ in range(4))
    report = PredictionReport(c1, c2, c3, c4, data.draw(cell), tol)
    assert report.passed == (report.pass_c1 and report.pass_c2 and report.pass_c3 and report.pass_c4)
    assert type(report.passed) is bool


class _CountingMath:
    """Stands in for the math module and records each cos and sin argument."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(math, name)

    def cos(self, x):
        self.calls.append(("cos", x))
        return math.cos(x)

    def sin(self, x):
        self.calls.append(("sin", x))
        return math.sin(x)


def test_each_call_takes_cos_and_sin_of_each_parameter_once(monkeypatch):
    counting = _CountingMath()
    monkeypatch.setattr(quantum, "math", counting)
    # the optimum, and an equal configuration that is not the same object:
    # each call does the same trig work, so nothing is cached or memoized
    fresh = HardyConfig(**{name: getattr(HARDY_CONFIG, name) for name in HardyConfig._fields})
    assert fresh == HARDY_CONFIG and fresh is not HARDY_CONFIG
    for cfg in (HardyConfig(0.4, 0.1, 0.2, 0.3, 0.5), HARDY_CONFIG, fresh):
        params = [getattr(cfg, name) for name in HardyConfig._fields]
        expected = sorted((fn, x) for fn in ("cos", "sin") for x in params)
        for call in (export_table, export_table, verify_hardy, verify_hardy):
            counting.calls.clear()
            call(cfg)
            assert sorted(counting.calls) == expected
    # find_hardy reads the report built at import, and does no Born-rule work
    counting.calls.clear()
    assert find_hardy() is HARDY_CONFIG
    assert counting.calls == []


def test_export_rows_sum_to_one():
    rng = random.Random(5)
    for _ in range(20):
        table = export_table(_random_config(rng))
        for row in table.rows.values():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)


_EXTREME_ANGLES = (1e300, -1e300, 5e-324, -5e-324, 1e16, -1e16, 0.0)


def _assert_passes_the_constructor(cfg):
    table = export_table(cfg)
    assert ProbabilityTable(table.rows) == table
    for row in table.rows.values():  # after the ZERO_CLAMP snap
        assert abs(sum(row[key] for key in OUTCOME_PAIRS) - 1.0) <= DISTRIBUTION_TOL


def test_every_exported_table_passes_the_public_constructor():
    rng = random.Random(20)
    for _ in range(200):
        _assert_passes_the_constructor(_random_config(rng))
    for x in _EXTREME_ANGLES:
        _assert_passes_the_constructor(HardyConfig(x, x, -x, x, -x))
        _assert_passes_the_constructor(HardyConfig(0.3, x, x, -x, 1.0))
        _assert_passes_the_constructor(HardyConfig(x, 0.1, 0.2, 0.3, 0.4))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EXTREME_ANGLES),
                min_size=5, max_size=5))
def test_an_exported_table_of_any_finite_configuration_passes_the_constructor(params):
    _assert_passes_the_constructor(HardyConfig(*params))


def test_export_is_no_signaling():
    rng = random.Random(6)
    for _ in range(20):
        assert export_table(_random_config(rng)).no_signaling_gap() <= 1e-9


def test_export_zero_pattern_matches_constraints(hardy_config, hardy_table):
    zero_cells = {
        (cl, cr, key)
        for (cl, cr), row in hardy_table.rows.items()
        for key, p in row.items()
        if p == 0.0
    }
    assert zero_cells == {("L2", "R2", "-+"), ("L2", "R1", "++"), ("L1", "R2", "--")}
    angles = {s: hardy_config.angle(s) for s in ("L1", "L2", "R1", "R2")}
    oracle = full_table(hardy_config.theta, angles)
    live = possible_worlds(oracle, eps=1e-12)
    assert len(live) == 13


def test_verify_hardy_on_found_config(hardy_config):
    report = verify_hardy(hardy_config, tol=1e-9)
    assert report.passed
    assert max(report.c1, report.c2, report.c3) <= 1e-9
    assert report.c4 == pytest.approx(OPTIMAL_PARADOX, abs=1e-6)
    assert report.marginal_l1_minus > 0
    # the closed-form marginal at the optimum is sqrt(5) - 2, not one half
    assert report.marginal_l1_minus == pytest.approx(math.sqrt(5) - 2, abs=1e-6)


def test_verify_tolerance_semantics():
    # maximally entangled state: every constraint cell is at most 1/2
    cfg = HardyConfig(math.pi / 4, 0.1, 0.2, 0.3, 0.4)
    report = verify_hardy(cfg, tol=0.5)
    assert report.pass_c1 and report.pass_c2 and report.pass_c3
    assert report.c1 > 0  # raw values still reported
    assert verify_hardy(cfg, tol=1) == verify_hardy(cfg, tol=1.0)  # an int is a number too
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError):
            verify_hardy(cfg, tol=bad)
    # a bool would read as 1 and pass cells up to 1/2; a str would meet `<` with a TypeError
    for bad in (True, False, "1e-9", None, 1j, Decimal("1e-9")):
        with pytest.raises(ValueError, match=re.escape(f"tol must be a number, got {bad!r}")):
            verify_hardy(cfg, tol=bad)


@pytest.mark.parametrize("floor", [0.0, -1.0, math.nan, True, "1e-9", 1e-9, None])
def test_the_positivity_floor_is_no_keyword(floor):
    # the floor is fixed: no value is taken, the fixed one included
    with pytest.raises(TypeError, match="positivity_floor"):
        verify_hardy(HARDY_CONFIG, positivity_floor=floor)
    assert quantum.POSITIVITY_FLOOR == 1e-9


def test_the_fixed_floor_fails_the_maximally_entangled_state():
    # the maximally entangled state has no paradox: its c4 vanishes up to
    # rounding (about 4.9e-32), which a zero floor would pass
    cfg = _project(math.pi / 4, 0.7)
    report = verify_hardy(cfg)
    assert 0 <= report.c4 < 1e-30 and report.positivity_floor == 1e-9
    assert not report.pass_c4 and not report.passed
    assert report.pass_c1 and report.pass_c2 and report.pass_c3  # only c4 fails


def test_the_optimum_is_verified_once_at_import():
    assert HARDY_REPORT == verify_hardy(HARDY_CONFIG)
    assert HARDY_REPORT.passed
    # every digit as the sixteen-cell route printed it
    assert repr(HARDY_REPORT) == (
        "PredictionReport(c1=0.0, c2=7.703719777548943e-34, c3=0.0, c4=0.09016994374947425, "
        "marginal_l1_minus=0.23606797749978964, tolerance=1e-09)"
    )


def test_product_state_cannot_pass_all_four():
    # with theta = 0 the state is |00>; scan an angle grid and check that
    # whenever the three zero cells are met, the paradox cell vanishes too
    tol = 1e-9
    grid = [i * math.pi / 12 - math.pi / 2 for i in range(13)]
    hits = 0
    for a1 in grid:
        for a2 in grid:
            for b1 in grid:
                for b2 in grid:
                    cfg = HardyConfig(0.0, a1, a2, b1, b2)
                    c1, c2, c3, c4 = _constraints(cfg)
                    if max(c1, c2, c3) <= tol:
                        hits += 1
                        assert c4 <= tol
    assert hits > 0


def test_find_is_deterministic(hardy_config):
    # the closed form ignores its argument: every seed, or none
    for seed in (0, 123, 2**31 - 1):
        assert find_hardy(SearchParams(seed=seed)) == hardy_config
    assert find_hardy() == find_hardy(None) == hardy_config


def test_search_params_has_no_grid():
    with pytest.raises(TypeError, match="SearchParams"):
        SearchParams(seed=0, grid=96)
    with pytest.raises(TypeError, match="SearchParams"):
        SearchParams(0, 96)
    assert SearchParams._fields == ("seed",)


def test_find_returns_the_module_constant(hardy_config):
    assert hardy_config is HARDY_CONFIG
    for seed in (0, 3, 2**31 - 1):
        assert find_hardy(SearchParams(seed=seed)) is HARDY_CONFIG


def test_find_passes_across_seeds():
    from hardylogic.worlds import build_model

    for seed in (1, 99):
        cfg = find_hardy(SearchParams(seed=seed))
        report = verify_hardy(cfg)
        assert report.passed
        assert report.c4 == pytest.approx(OPTIMAL_PARADOX, abs=1e-6)
        assert len(build_model(export_table(cfg)).possible) == 13


def test_project_is_undefined_where_tan_sin_or_cos_vanishes():
    # below 1e-12 in magnitude the solutions would divide by (nearly) zero;
    # at 1e-12 itself, which tan(1e-12) and sin(1e-12) are exactly, they are
    # defined
    for theta, angle_r2 in ((0.3, 0.0), (0.3, 1e-13), (0.0, 0.7), (1e-13, 0.7), (math.pi / 2, 0.7)):
        assert _project(theta, angle_r2) is None, (theta, angle_r2)
    for theta, angle_r2 in ((0.3, 1e-12), (1e-12, 0.7)):
        assert isinstance(_project(theta, angle_r2), HardyConfig), (theta, angle_r2)


def test_find_is_the_closed_form_optimum(hardy_config):
    theta, angle_r2 = hardy_config.theta, hardy_config.angle_r2
    assert math.sin(2 * theta) == pytest.approx(3 - math.sqrt(5), abs=1e-15)
    assert math.tan(theta) * math.tan(angle_r2) ** 2 == pytest.approx(1.0, abs=1e-12)
    c4 = _constraints(hardy_config)[3]
    assert c4 == pytest.approx((5 * math.sqrt(5) - 11) / 2, abs=1e-15)
    # no neighbour on a +-1e-3 grid beats it
    steps = [k * 1e-4 for k in range(-10, 11)]
    for d_theta in steps:
        for d_r2 in steps:
            cfg = _project(theta + d_theta, angle_r2 + d_r2)
            assert _constraints(cfg)[3] <= c4 + 1e-15


def test_find_reaches_grid_refine_optimum(hardy_config):
    oracle_value, _ = grid_refine_optimum()
    assert oracle_value == pytest.approx(OPTIMAL_PARADOX, abs=1e-6)
    c4 = _constraints(hardy_config)[3]
    assert c4 == pytest.approx(oracle_value, abs=2e-6)


def test_perturbing_theta_breaks_a_zero(hardy_config):
    nudged = HardyConfig(
        hardy_config.theta + 0.1,
        hardy_config.angle_l1,
        hardy_config.angle_l2,
        hardy_config.angle_r1,
        hardy_config.angle_r2,
    )
    c1, c2, c3, _ = _constraints(nudged)
    assert max(c1, c2, c3) > 1e-6


def test_config_must_be_finite():
    with pytest.raises(ValueError):
        HardyConfig(math.nan, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        HardyConfig(0, math.inf, 0, 0, 0)


@pytest.mark.parametrize("field", HardyConfig._fields)
def test_config_refuses_an_int_beyond_float_range(field):
    # a ValueError naming the field, not an OverflowError from `math.isfinite`
    values = dict(zip(HardyConfig._fields, (0.1, 0.2, 0.3, 0.4, 0.5)), **{field: -(10**400)})
    with pytest.raises(ValueError, match=f"^{field} is out of range$"):
        HardyConfig(**values)


def test_config_json_roundtrip(tmp_path, hardy_config):
    path = tmp_path / "cfg.json"
    for cfg in (hardy_config, HardyConfig(0, 1, -2, 3, 0), HardyConfig(0.4, -0.1, 2.5, 1e300, -0.0)):
        save_config(cfg, str(path))
        assert load_config(str(path)) == cfg


def test_a_config_file_is_its_dict_as_indented_json(tmp_path, hardy_config):
    path = tmp_path / "cfg.json"
    save_config(hardy_config, str(path))
    text = json.dumps(config_to_dict(hardy_config), indent=2) + "\n"
    assert path.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("field", HardyConfig._fields)
def test_a_config_json_cannot_encode_leaves_no_file(field, tmp_path):
    cfg = HardyConfig(0.1, 0.2, 0.3, 0.4, 0.5)
    object.__setattr__(cfg, field, Fraction(1, 10))  # past the constructor's check
    path = tmp_path / "cfg.json"
    with pytest.raises(TypeError, match="not JSON serializable"):
        save_config(cfg, str(path))
    assert not path.exists()


@pytest.mark.parametrize("field", HardyConfig._fields)
@pytest.mark.parametrize("flag", [True, False])
def test_config_refuses_a_boolean(field, flag):
    # save_config would write a JSON boolean, which load_config refuses
    values = dict(zip(HardyConfig._fields, (0.1, 0.2, 0.3, 0.4, 0.5)), **{field: flag})
    with pytest.raises(ValueError, match=f"^{field} must be a number, got {flag}$"):
        HardyConfig(**values)


@pytest.mark.parametrize("field", HardyConfig._fields)
@pytest.mark.parametrize("value", ["0.1", None, 1j, Decimal("0.1"), Fraction(1, 10)])
def test_config_refuses_a_non_number(field, value):
    # a ValueError naming the field, not a TypeError from `math.isfinite`,
    # nor a Decimal or Fraction that save_config could not write as JSON
    values = dict(zip(HardyConfig._fields, (0.1, 0.2, 0.3, 0.4, 0.5)), **{field: value})
    with pytest.raises(ValueError) as raised:
        HardyConfig(**values)
    assert str(raised.value) == f"{field} must be a number, got {value!r}"


def test_config_dict_schema():
    data = config_to_dict(HardyConfig(0.4, 0.1, 0.2, 0.3, 0.5))
    assert set(data) == {"theta", "angles"}
    assert set(data["angles"]) == {"L1", "L2", "R1", "R2"}
    assert config_from_dict(data) == HardyConfig(0.4, 0.1, 0.2, 0.3, 0.5)
    with pytest.raises(ValueError):
        config_from_dict({"theta": 0.4})


@pytest.mark.parametrize(
    "theta, angles, message",
    [
        ("0.4", {}, "'theta' is not a number"),
        (True, {}, "'theta' is not a number"),
        (None, {}, "'theta' is not a number"),
        (0.4, {"L2": "1e0"}, "angle 'L2' is not a number"),
        (0.4, {"R1": True}, "angle 'R1' is not a number"),
        (0.4, {"R2": [0.5]}, "angle 'R2' is not a number"),
        (0.4, [0.1, 0.2, 0.3, 0.5], "'angles' must be a mapping, got list"),
        (0.4, "0.1", "'angles' must be a mapping, got str"),
    ],
)
def test_config_values_must_be_json_numbers(theta, angles, message):
    data = config_to_dict(HardyConfig(0.4, 0.1, 0.2, 0.3, 0.5))
    data["theta"] = theta
    if isinstance(angles, dict):
        data["angles"].update(angles)
    else:
        data["angles"] = angles
    with pytest.raises(ValueError, match=f"^bad config file structure: {message}$"):
        config_from_dict(data)
    with pytest.raises(ValueError, match="^bad config file structure: the file must be a mapping"):
        config_from_dict([data])


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("angles", None, "missing 'angles'"),
        ("theta", None, "missing 'theta'"),
        ("L1", None, "missing angle 'L1'"),
        ("theta", 10**400, "'theta' is out of range"),
        ("R2", -(10**400), "angle 'R2' is out of range"),
    ],
    ids=["no-angles", "no-theta", "no-L1", "huge-theta", "huge-R2"],
)
def test_config_errors_name_the_entry(key, value, message):
    # None removes the entry
    data = config_to_dict(HardyConfig(0.4, 0.1, 0.2, 0.3, 0.5))
    where = data if key in data else data["angles"]
    if value is None:
        del where[key]
    else:
        where[key] = value
    with pytest.raises(ValueError, match=f"^bad config file structure: {message}$"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "in_angles, key, message",
    [
        (False, "extra", "unknown entry 'extra'; only 'theta' and 'angles' are read"),
        (False, "Theta", "unknown entry 'Theta'; only 'theta' and 'angles' are read"),
        (True, "R3", "unknown angle 'R3'; only 'L1', 'L2', 'R1' and 'R2' are read"),
        (True, "l1", "unknown angle 'l1'; only 'L1', 'L2', 'R1' and 'R2' are read"),
    ],
    ids=["extra", "misspelt-theta", "fifth-angle", "lower-case-angle"],
)
def test_config_rejects_an_unknown_entry(in_angles, key, message):
    # the keys are exact: an entry the reader would skip is an error
    data = config_to_dict(HardyConfig(0.4, 0.1, 0.2, 0.3, 0.5))
    (data["angles"] if in_angles else data)[key] = 1
    with pytest.raises(ValueError, match=f"^bad config file structure: {message}$"):
        config_from_dict(data)


# each file format as (loader, a good file, the error's type and prefix, a number entry,
# a required entry, the entries read)
_FORMATS = {
    "model": (load_model, model_to_dict(build_model(ProbabilityTable.uniform())), TableError, "",
              "epsilon", "table", "'epsilon' and 'table'"),
    "config": (load_config, config_to_dict(HardyConfig(0.4, 0.1, 0.2, 0.3, 0.5)), ValueError,
               "bad config file structure: ", "theta", "angles", "'theta' and 'angles'"),
}


@pytest.mark.parametrize("fmt", list(_FORMATS))
@pytest.mark.parametrize(
    "shape, message",
    [
        (lambda data, number, entry: [data], "the file must be a mapping, got list"),
        (lambda data, number, entry: {**data, "extra": 1},
         "unknown entry 'extra'; only {read} are read"),
        (lambda data, number, entry: {k: v for k, v in data.items() if k != entry},
         "missing '{entry}'"),
        (lambda data, number, entry: {**data, number: True}, "'{number}' is not a number"),
        (lambda data, number, entry: {**data, number: "0.3"}, "'{number}' is not a number"),
        (lambda data, number, entry: {**data, number: 10**400}, "'{number}' is out of range"),
    ],
    ids=["list", "unknown-entry", "missing-entry", "true", "string", "huge-int"],
)
def test_model_and_config_files_refuse_a_shape_alike(fmt, shape, message, tmp_path):
    load, good, error, prefix, number, entry, read = _FORMATS[fmt]
    path = tmp_path / f"{fmt}.json"
    path.write_text(json.dumps(shape(good, number, entry)), encoding="utf-8")
    with pytest.raises(ValueError) as raised:
        load(str(path))
    assert type(raised.value) is error
    assert str(raised.value) == prefix + message.format(number=number, entry=entry, read=read)
