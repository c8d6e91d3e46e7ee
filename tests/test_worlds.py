import copy
import json
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylogic import worlds
from hardylogic.formula import ATOM_NAMES, OUTCOME_ATOMS, Atom
from hardylogic.quantum import export_table
from hardylogic.worlds import (
    ATOM_MASKS,
    CHOICE_PAIRS,
    DISTRIBUTION_TOL,
    OUTCOME_PAIRS,
    WORLDS,
    Model,
    ProbabilityTable,
    TableError,
    World,
    build_model,
    model_from_dict,
    model_to_dict,
    load_model,
    parse_world,
    save_model,
    worlds_in,
)
from oracles import possible_worlds, random_table_rows, sat


def test_enumeration_has_sixteen_distinct_worlds():
    assert len(WORLDS) == 16
    assert len(set(WORLDS)) == 16


def test_enumeration_canonical_order():
    assert WORLDS[0] == World("L1", "R1", "+", "+")
    assert WORLDS[1] == World("L1", "R1", "+", "-")
    assert WORLDS[4] == World("L1", "R2", "+", "+")
    assert WORLDS[8] == World("L2", "R1", "+", "+")
    assert WORLDS[-1] == World("L2", "R2", "-", "-")


def test_world_index_is_its_bit_and_not_a_field():
    for i, w in enumerate(WORLDS):
        fresh = World(w.choice_l, w.choice_r, w.outcome_l, w.outcome_r)
        assert w.index == fresh.index == i
        assert type(fresh.index) is int
        for twin in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
            assert twin == w and twin.index == i
    w = WORLDS[6]
    assert World._fields == ("choice_l", "choice_r", "outcome_l", "outcome_r")
    assert "index" not in repr(w) and w.__reduce__() == (World, ("L1", "R2", "-", "+"))
    assert hash(w) == hash(("L1", "R2", "-", "+"))
    with pytest.raises(AttributeError):
        w.index = 7
    assert w.index == 6


def test_world_validation():
    with pytest.raises(ValueError):
        World("R1", "L1", "+", "+")
    with pytest.raises(ValueError):
        World("L1", "R1", "+", "0")


def test_parse_world_literal():
    assert parse_world("L1,R2,-,+") == World("L1", "R2", "-", "+")
    with pytest.raises(ValueError):
        parse_world("L1,R2,-")


@pytest.mark.parametrize("pad", ["", " ", " \t"])
def test_parse_world_returns_the_shared_instance(pad):
    for w in WORLDS:
        fields = (w.choice_l, w.choice_r, w.outcome_l, w.outcome_r)
        assert parse_world(pad + f"{pad},{pad}".join(fields) + pad) is w


@pytest.mark.parametrize(
    "text, message",
    [
        ("L1,R2,-", "world literal needs 4 comma-separated fields, got 'L1,R2,-'"),
        ("L1,R2", "world literal needs 4 comma-separated fields, got 'L1,R2'"),
        ("", "world literal needs 4 comma-separated fields, got ''"),
        ("R1,L1,+,+", "bad choices (R1, L1)"),
        ("L1,R1,+,0", "bad outcomes (+, 0)"),
    ],
)
def test_parse_world_rejects_a_bad_literal_with_its_message(text, message):
    with pytest.raises(ValueError) as exc:
        parse_world(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("value", [5, None, b"L1,R2,-,+", ("L1", "R2", "-", "+")])
def test_parse_world_refuses_a_literal_that_is_not_a_string(value):
    with pytest.raises(ValueError) as exc:
        parse_world(value)
    assert str(exc.value) == f"world literal must be a string, got {value!r}"


def _holds(name: str, w: World) -> bool:
    """Bit `w` of the atom's world mask."""
    return bool(ATOM_MASKS[name] >> w.index & 1)


def test_outcome_atom_holds_where_performed():
    assert _holds("L1-", World("L1", "R2", "-", "+"))


def test_outcome_atom_false_when_not_performed():
    # R1 is not the performed choice, so R1- fails even though R got an outcome
    assert not _holds("R1-", World("L1", "R2", "-", "+"))


def test_choice_atom():
    assert _holds("R1", World("L2", "R1", "+", "-"))
    assert not _holds("R2", World("L2", "R1", "+", "-"))


def test_outcome_atom_entails_choice_atom():
    for name in OUTCOME_ATOMS:
        mask = ATOM_MASKS[name]
        assert mask & ATOM_MASKS[Atom(name).choice().name] == mask


def test_atom_masks_match_the_oracle():
    assert set(ATOM_MASKS) == set(ATOM_NAMES)
    for name in ATOM_NAMES:
        for w in WORLDS:
            fields = (w.choice_l, w.choice_r, w.outcome_l, w.outcome_r)
            assert _holds(name, w) == sat(fields, name), (name, w)


def test_hardy_model_has_thirteen_worlds(hardy_model):
    assert len(hardy_model.possible) == 13
    assert hardy_model.excluded_in_order() == [
        World("L1", "R2", "-", "-"),
        World("L2", "R1", "+", "+"),
        World("L2", "R2", "-", "+"),
    ]


def test_hardy_possible_set_matches_enumeration_oracle(hardy_table, hardy_model):
    oracle = possible_worlds(hardy_table.rows, eps=1e-12)
    assert {(w.choice_l, w.choice_r, w.outcome_l, w.outcome_r) for w in hardy_model.possible} == set(oracle)


def test_all_l1_r1_cells_possible(hardy_model):
    for ol in "+-":
        for outcome_r in "+-":
            assert World("L1", "R1", ol, outcome_r) in hardy_model.possible


def test_uniform_table_gives_sixteen():
    model = build_model(ProbabilityTable.uniform(), epsilon=1e-12)
    assert len(model.possible) == 16


def test_deterministic_row_gives_one_world():
    rows = {pair: {"++": 0.25, "+-": 0.25, "-+": 0.25, "--": 0.25} for pair in CHOICE_PAIRS}
    rows[("L1", "R1")] = {"++": 1.0, "+-": 0.0, "-+": 0.0, "--": 0.0}
    model = build_model(ProbabilityTable(rows))
    in_pair = [w for w in model.possible if w.choice_pair == ("L1", "R1")]
    assert in_pair == [World("L1", "R1", "+", "+")]


def test_epsilon_monotone():
    rng = random.Random(7)
    for _ in range(25):
        table = ProbabilityTable(random_table_rows(rng))
        sizes = []
        for eps in (0.0, 1e-12, 1e-6, 1e-4, 1e-3):
            sizes.append(len(build_model(table, eps).possible))
        assert sizes == sorted(sizes, reverse=True)


_CELLS = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda cells: sum(cells) > 0)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(_CELLS, min_size=4, max_size=4),
    drift=st.floats(-1e-9, 1e-9),
    epsilon=st.floats(0.0, 1e-3),
)
def test_every_choice_pair_keeps_a_possible_world(rows, drift, epsilon):
    # an accepted row sums to 1 within 1e-9, so its largest cell is about
    # 0.25 or more, and no threshold a model accepts removes all four
    table_rows = {}
    for pair, cells in zip(CHOICE_PAIRS, rows):
        total = sum(cells)
        table_rows[pair] = {key: c / total for key, c in zip(OUTCOME_PAIRS, cells)}
        table_rows[pair]["++"] += drift
    try:
        table = ProbabilityTable(table_rows)
    except TableError:  # a drift below zero or beyond the sum tolerance
        return
    model = build_model(table, epsilon)
    for pair in CHOICE_PAIRS:
        assert any(w.choice_pair == pair for w in model.possible), pair


def test_epsilon_range_checked():
    with pytest.raises(ValueError):
        build_model(ProbabilityTable.uniform(), epsilon=0.01)
    with pytest.raises(ValueError):
        build_model(ProbabilityTable.uniform(), epsilon=-1e-9)


def test_threshold_sensitive_row_and_zero_row():
    rows = {pair: {"++": 0.25, "+-": 0.25, "-+": 0.25, "--": 0.25} for pair in CHOICE_PAIRS}
    rows[("L2", "R2")] = {"++": 1e-13, "+-": 0.0, "-+": 0.0, "--": 1.0 - 1e-13}
    table = ProbabilityTable(rows)
    assert len(build_model(table, epsilon=1e-14).possible) == 14
    assert len(build_model(table, epsilon=1e-12).possible) == 13
    rows2 = {k: dict(v) for k, v in rows.items()}
    rows2[("L2", "R2")] = {"++": 0.0, "+-": 0.0, "-+": 0.0, "--": 0.0}
    with pytest.raises(TableError):
        build_model(ProbabilityTable(rows2))  # sums to 0, caught by validation


def test_table_validation_errors():
    bad_sum = {pair: {"++": 0.5, "+-": 0.25, "-+": 0.25, "--": 0.25} for pair in CHOICE_PAIRS}
    with pytest.raises(TableError):
        ProbabilityTable(bad_sum)
    negative = {pair: {"++": 1.25, "+-": -0.25, "-+": 0.0, "--": 0.0} for pair in CHOICE_PAIRS}
    with pytest.raises(TableError):
        ProbabilityTable(negative)


_ROW = {"++": 0.25, "+-": 0.25, "-+": 0.25, "--": 0.25}


@pytest.mark.parametrize(
    "pair, row, message",
    [
        (("L2", "R1"), None, r"missing distribution for choice pair \('L2', 'R1'\)"),
        (("L1", "R2"), {"++": 0.5, "+-": 0.5}, "choice pair .* missing outcome cell '-\\+'"),
        (("L1", "R1"), {**_ROW, "--": math.nan}, "non-finite probability nan"),
        (("L2", "R2"), {**_ROW, "++": 0.5}, r"sums to 1\.25, not 1"),
        (("L3", "R9"), _ROW, r"unknown choice pair \('L3', 'R9'\)"),
        (("L1", "R1"), {**_ROW, "xx": 7.0}, r"choice pair .* has unknown outcome cell 'xx'"),
        (("L2", "R1"), {**_ROW, "++": "0.25"}, r"non-numeric probability '0\.25' in"),
        (("L2", "R1"), {**_ROW, "+-": True}, r"non-numeric probability True in"),
        # an int beyond float range: an OverflowError from `math.isfinite` if unchecked
        (("L1", "R2"), {**_ROW, "-+": 10**400},
         r"^out-of-range probability in \('L1', 'R2'\) cell '-\+'$"),
    ],
)
def test_table_constructor_rejects_a_bad_row(pair, row, message):
    # the constructor checks the table, so no table in use is unchecked
    rows = dict.fromkeys(CHOICE_PAIRS, _ROW)
    if row is None:
        del rows[pair]
    else:
        rows[pair] = row
    with pytest.raises(TableError, match=message):
        ProbabilityTable(rows)


def test_model_works_out_its_possible_worlds(hardy_table):
    model = Model(hardy_table, 1e-12)
    assert model == build_model(hardy_table)
    assert model.possible == build_model(hardy_table).possible
    assert model.possible == {w for w in WORLDS if hardy_table.prob(w) > 1e-12}
    assert model.mask == sum(1 << WORLDS.index(w) for w in model.possible)
    with pytest.raises(TypeError):  # the possible worlds are the table's, not the caller's
        Model(hardy_table, 1e-12, frozenset(WORLDS))
    with pytest.raises(ValueError, match="epsilon must lie in"):
        Model(hardy_table, 0.01)


def test_worlds_in_lists_the_sixteen_bits_of_any_mask():
    def listed(mask):  # every world whose bit is set, walking all sixteen
        return [w for i, w in enumerate(WORLDS) if mask >> i & 1]

    assert worlds_in(-1) == list(WORLDS)
    for m in range(1 << 16):
        assert worlds_in(m) == listed(m)
        assert worlds_in(~m) == listed(~m)  # a complement has every higher bit set
        assert worlds_in(m | 1 << 20) == listed(m)


def test_no_signaling_gap_uniform():
    assert ProbabilityTable.uniform().no_signaling_gap() == 0.0


def _marginal_gaps(rows):
    """Each same-region marginal's difference across the faraway choice, row by row."""
    for cl in ("L1", "L2"):
        for sign in "+-":
            one, two = (rows[cl, cr][sign + "+"] + rows[cl, cr][sign + "-"] for cr in ("R1", "R2"))
            yield abs(one - two)
    for cr in ("R1", "R2"):
        for sign in "+-":
            one, two = (rows[cl, cr]["+" + sign] + rows[cl, cr]["-" + sign] for cl in ("L1", "L2"))
            yield abs(one - two)


@pytest.mark.parametrize("seed", range(50))
def test_no_signaling_gap_is_the_largest_marginal_difference(seed):
    rows = random_table_rows(random.Random(seed))
    assert ProbabilityTable(rows).no_signaling_gap() == max(_marginal_gaps(rows))


@pytest.mark.parametrize("row", [5, None, [0.25] * 4, "++"])
def test_table_constructor_rejects_a_row_that_is_not_a_mapping(row):
    rows = dict.fromkeys(CHOICE_PAIRS, _ROW)
    rows["L1", "R2"] = row
    with pytest.raises(TableError, match=r"^row for \('L1', 'R2'\) must be a mapping$"):
        ProbabilityTable(rows)


@pytest.mark.parametrize("rows", [5, None, "L1,R1", list(CHOICE_PAIRS)])
def test_table_constructor_rejects_rows_that_are_not_a_mapping(rows):
    with pytest.raises(TableError, match=r"^table must be a mapping, got "):
        ProbabilityTable(rows)


class _Rows:
    """Indexed and sized like a mapping, but not a `Mapping`."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __len__(self):
        return len(self._items)


def test_table_constructor_rejects_rows_indexed_like_a_mapping():
    # all sixteen cells valid, so only the type test can refuse them
    rows = dict.fromkeys(CHOICE_PAIRS, _ROW)
    with pytest.raises(TableError, match=r"^table must be a mapping, got _Rows$"):
        ProbabilityTable(_Rows(rows))
    rows["L1", "R2"] = _Rows(_ROW)
    with pytest.raises(TableError, match=r"^row for \('L1', 'R2'\) must be a mapping$"):
        ProbabilityTable(rows)
    rows["L1", "R2"] = _ROW
    assert ProbabilityTable(rows) == ProbabilityTable.uniform() == ProbabilityTable(dict(rows))


def test_model_file_table_that_is_a_list_is_refused():
    with pytest.raises(TableError) as raised:
        model_from_dict({"table": []})
    assert str(raised.value) == "table must be a mapping, got list"


def test_model_json_roundtrip(tmp_path, hardy_model):
    path = tmp_path / "model.json"
    save_model(hardy_model, str(path))
    loaded = load_model(str(path))
    assert loaded.possible == hardy_model.possible
    assert loaded.epsilon == hardy_model.epsilon
    for pair in CHOICE_PAIRS:
        assert loaded.table.rows[pair] == pytest.approx(hardy_model.table.rows[pair])
    for epsilon in (0, 0.0, 5e-4, 1e-3):
        model = build_model(hardy_model.table, epsilon)
        save_model(model, str(path))
        assert load_model(str(path)) == model


@pytest.mark.parametrize("epsilon", [False, True])
def test_model_refuses_a_boolean_epsilon(hardy_table, epsilon):
    # save_model would write a JSON boolean, which load_model refuses
    with pytest.raises(ValueError, match=f"^epsilon must be a number, got {epsilon}$"):
        build_model(hardy_table, epsilon=epsilon)


@pytest.mark.parametrize("epsilon", [Decimal("1e-6"), Fraction(1, 10**6), "0", None])
def test_model_refuses_an_epsilon_json_cannot_write(hardy_table, epsilon):
    with pytest.raises(ValueError) as raised:
        build_model(hardy_table, epsilon=epsilon)
    assert str(raised.value) == f"epsilon must be a number, got {epsilon!r}"


@pytest.mark.parametrize("table", [None, {}, "uniform", (0.25,) * 16])
def test_model_refuses_a_table_that_is_not_a_probability_table(hardy_table, table):
    # a ValueError naming the field, not a bare AttributeError from `table.cells`
    with pytest.raises(ValueError) as raised:
        Model(table, 1e-12)
    assert str(raised.value) == f"table must be a ProbabilityTable, got {table!r}"
    with pytest.raises(ValueError, match="^table must be a ProbabilityTable, got "):
        build_model(hardy_table.rows)
    with pytest.raises(ValueError, match="^table must be a ProbabilityTable, got None$"):
        build_model(None)


def test_a_model_json_cannot_encode_leaves_no_file(tmp_path, hardy_model):
    model = build_model(hardy_model.table)
    object.__setattr__(model, "epsilon", Decimal("1e-6"))  # past the constructor's check
    path = tmp_path / "model.json"
    with pytest.raises(TypeError, match="not JSON serializable"):
        save_model(model, str(path))
    assert not path.exists()


def test_model_json_writer_emits_canonical_key_order(tmp_path, hardy_model):
    path = tmp_path / "model.json"
    save_model(hardy_model, str(path))
    data = json.loads(path.read_text())
    assert list(data["table"].keys()) == ["L1,R1", "L1,R2", "L2,R1", "L2,R2"]
    assert list(data["table"]["L1,R1"].keys()) == ["++", "+-", "-+", "--"]


def test_model_json_reader_accepts_any_key_order(hardy_model):
    data = model_to_dict(hardy_model)
    shuffled = {
        "table": {
            key: dict(reversed(list(row.items())))
            for key, row in reversed(list(data["table"].items()))
        },
        "epsilon": data["epsilon"],
    }
    loaded = model_from_dict(shuffled)
    assert loaded.possible == hardy_model.possible


def test_model_json_schema_violations():
    with pytest.raises(TableError):
        model_from_dict({"epsilon": 1e-12})
    with pytest.raises(TableError):
        model_from_dict({"table": {"L1,R1": {"++": 1.0}}})
    with pytest.raises(TableError):
        model_from_dict({"table": {"X9,R1": {"++": 1.0, "+-": 0.0, "-+": 0.0, "--": 0.0}}})
    good = model_to_dict(build_model(ProbabilityTable.uniform()))
    bad = json.loads(json.dumps(good))
    bad["table"]["L1,R1"]["++"] = "high"
    with pytest.raises(TableError):
        model_from_dict(bad)


@pytest.mark.parametrize("epsilon", ["1e-5", True, None])
def test_model_file_epsilon_that_is_not_a_number_is_refused(epsilon):
    # a string, a JSON boolean and a JSON null
    data = model_to_dict(build_model(ProbabilityTable.uniform()))
    data["epsilon"] = epsilon
    with pytest.raises(TableError) as raised:
        model_from_dict(data)
    assert str(raised.value) == "'epsilon' must be a number"


def test_a_fallback_load_checks_its_cells_once(hardy_table, monkeypatch):
    # a spaced key sends the file past the direct read: the rows are checked
    # by `_checked` alone, with the same cells and the same messages
    calls = []
    for name in ("_checked", "_accepted"):
        real = getattr(worlds, name)
        monkeypatch.setattr(
            worlds, name, lambda *args, name=name, real=real: calls.append(name) or real(*args)
        )
    spaced = {("L1, R2" if key == "L1,R2" else key): row
              for key, row in hardy_table.to_dict().items()}
    table = ProbabilityTable.from_dict(spaced)
    assert calls == ["_checked"]
    assert table.cells == hardy_table.cells and table == hardy_table
    for cell, value, message in (
        ("++", math.nan, "non-finite probability nan in ('L1', 'R2') cell '++'"),
        ("+-", -0.25, "negative probability -0.25 in ('L1', 'R2') cell '+-'"),
    ):
        calls.clear()
        bad = {**spaced, "L1, R2": {**spaced["L1, R2"], cell: value}}
        with pytest.raises(TableError) as raised:
            ProbabilityTable.from_dict(bad)
        assert str(raised.value) == message
        assert calls == ["_checked"]


@pytest.mark.parametrize("key", ["epsilom", "Epsilon", "tabel", "mask"])
def test_model_json_rejects_an_unknown_entry(key):
    # a misspelt 'epsilon' would otherwise load at the default threshold
    data = model_to_dict(build_model(ProbabilityTable.uniform()))
    data[key] = 5e-4
    with pytest.raises(TableError) as raised:
        model_from_dict(data)
    assert str(raised.value) == (
        f"unknown model file entry {key!r}: only 'epsilon' and 'table' are read"
    )
    del data["epsilon"]
    with pytest.raises(TableError, match=f"unknown model file entry {key!r}"):
        model_from_dict(data)


def test_two_keys_for_one_choice_pair_rejected(hardy_model):
    # keys are stripped, so both name (L1, R1): the second row must not
    # quietly replace the first
    table = model_to_dict(hardy_model)["table"]
    table[" L1,R1"] = {"++": 1.0, "+-": 0.0, "-+": 0.0, "--": 0.0}
    assert len(table) == 5
    with pytest.raises(
        TableError, match=r"^choice-pair keys 'L1,R1' and ' L1,R1' name the same pair$"
    ):
        ProbabilityTable.from_dict(table)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_json_rejects_non_finite_cells(hardy_model, value):
    data = model_to_dict(hardy_model)
    data["table"]["L1,R1"]["-+"] = value
    # json writes and reads the NaN and Infinity literals
    with pytest.raises(TableError, match="non-finite"):
        model_from_dict(json.loads(json.dumps(data)))


def test_model_is_frozen(hardy_model):
    with pytest.raises(AttributeError):
        hardy_model.epsilon = 0.5


def test_table_rows_are_read_only(hardy_model):
    with pytest.raises(TypeError):
        hardy_model.table.rows[("L1", "R1")]["++"] = 0.0
    with pytest.raises(TypeError):
        hardy_model.table.rows[("L1", "R1")] = {"++": 1.0, "+-": 0.0, "-+": 0.0, "--": 0.0}
    assert len(hardy_model.possible) == 13


def test_table_copies_its_rows():
    rows = {pair: {"++": 0.25, "+-": 0.25, "-+": 0.25, "--": 0.25} for pair in CHOICE_PAIRS}
    model = build_model(ProbabilityTable(rows))
    rows[("L1", "R1")]["++"] = 0.0
    assert model.table.cell("L1", "R1", "++") == 0.25
    assert model == build_model(ProbabilityTable.uniform())


def test_equal_models_hash_equal(hardy_model, control_model):
    # the same cells inserted in the opposite order
    rows = reversed(hardy_model.table.rows.items())
    again = build_model(ProbabilityTable({pair: dict(reversed(row.items())) for pair, row in rows}))
    assert again == hardy_model and hash(again) == hash(hardy_model)
    assert len({hardy_model, again, control_model}) == 2


def test_model_survives_pickle_and_copy(hardy_model):
    for again in (pickle.loads(pickle.dumps(hardy_model)), copy.deepcopy(hardy_model), copy.copy(hardy_model)):
        assert again == hardy_model and hash(again) == hash(hardy_model)
        with pytest.raises(TypeError):
            again.table.rows[("L1", "R1")]["++"] = 0.0
    rows = model_to_dict(hardy_model)["table"]
    assert rows == {f"{cl},{cr}": dict(row) for (cl, cr), row in hardy_model.table.rows.items()}


def test_model_json_roundtrip_is_exact(hardy_model, control_model):
    for model in (hardy_model, control_model):
        data = model_to_dict(model)
        loaded = model_from_dict(json.loads(json.dumps(data)))
        assert loaded == model and hash(loaded) == hash(model)
        assert model_to_dict(loaded) == data


# ---------------------------------------------------------------------------
# Loading a table with several defects: the first one found is reported

def _rows_text(**rows):
    """A model file's table, every row uniform but those given by key."""
    table = {f"{cl},{cr}": dict(_ROW) for cl, cr in CHOICE_PAIRS}
    table.update(rows)
    return table


_MULTI_DEFECT = [
    # a row's keys and cells are read in file order before any row is checked as a distribution
    ("bad outcome key + missing pair",
     {"L1,R1": {**_ROW, "xx": 0.0}, "L1,R2": _ROW, "L2,R1": _ROW},
     "bad outcome key 'xx' in row 'L1,R1'"),
    ("missing pair + negative cell",
     {"L1,R1": {**_ROW, "++": -0.25, "+-": 0.75}, "L1,R2": _ROW, "L2,R2": _ROW},
     "missing distribution for choice pair ('L2', 'R1')"),
    ("int and bool cells",
     _rows_text(**{"L1,R2": {"++": 1, "+-": 0, "-+": 0, "--": True}}),
     "cell 'L1,R2'/'--' is not a number"),
    ("int cells, then a bool cell in a later row",
     _rows_text(**{"L1,R1": {"++": 1, "+-": 0, "-+": 0, "--": 0}, "L2,R2": {**_ROW, "-+": False}}),
     "cell 'L2,R2'/'-+' is not a number"),
    ("int cells + negative int",
     _rows_text(**{"L1,R1": {"++": 2, "+-": -1, "-+": 0, "--": 0}}),
     "negative probability -1.0 in ('L1', 'R1') cell '+-'"),
    ("huge int cell + negative cell",
     _rows_text(**{"L2,R1": {**_ROW, "+-": 10**400}, "L2,R2": {**_ROW, "++": -1.0}}),
     "cell 'L2,R1'/'+-' is out of range"),
    ("bad sum + extra cell in a later row",
     _rows_text(**{"L1,R1": {**_ROW, "++": 0.5}, "L2,R2": {**_ROW, "??": 0.0}}),
     "bad outcome key '??' in row 'L2,R2'"),
    ("missing cell + extra cell",
     _rows_text(**{"L1,R2": {"++": 0.5, "+-": 0.5, "xx": 0.0}}),
     "bad outcome key 'xx' in row 'L1,R2'"),
    ("missing cell + negative cell in a later row",
     _rows_text(**{"L2,R1": {"++": 0.5, "+-": 0.5, "-+": -0.0}, "L2,R2": {**_ROW, "--": -1.0}}),
     "choice pair ('L2', 'R1') missing outcome cell '--'"),
    ("negative cell + NaN in a later row",
     _rows_text(**{"L1,R2": {**_ROW, "++": -0.5, "+-": 1.0}, "L2,R1": {**_ROW, "--": math.nan}}),
     "negative probability -0.5 in ('L1', 'R2') cell '++'"),
    ("NaN + negative cell in a later row",
     _rows_text(**{"L1,R1": {**_ROW, "--": math.nan}, "L2,R2": {**_ROW, "++": -0.5, "+-": 1.0}}),
     "non-finite probability nan in ('L1', 'R1') cell '--'"),
    ("duplicate stripped key + bad cell",
     _rows_text(**{"L2,R2 ": {**_ROW, "--": "x"}}),
     "choice-pair keys 'L2,R2' and 'L2,R2 ' name the same pair"),
    ("duplicate stripped key + row not a mapping",
     _rows_text(**{" L1 , R2": [0.25]}),
     "choice-pair keys 'L1,R2' and ' L1 , R2' name the same pair"),
    ("row not a mapping + duplicate stripped key",
     {"L1,R1": 3, " L1,R1": _ROW},
     "row for 'L1,R1' must be a mapping"),
]


@pytest.mark.parametrize(
    "table, message", [case[1:] for case in _MULTI_DEFECT], ids=[case[0] for case in _MULTI_DEFECT]
)
def test_load_reports_the_first_of_several_defects(table, message):
    with pytest.raises(TableError) as raised:
        ProbabilityTable.from_dict(table)
    assert str(raised.value) == message
    with pytest.raises(TableError) as raised:
        model_from_dict({"epsilon": 1e-12, "table": table})
    assert str(raised.value) == message


# the defects a table of float cells can have, each as (kind, pair index,
# cell index); each one applied keeps the table defective
_DEFECTS = st.lists(
    st.tuples(
        st.sampled_from(["missing pair", "missing cell", "nan", "inf", "negative", "sum"]),
        st.integers(0, 3),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_CELLS, min_size=4, max_size=4), defects=_DEFECTS)
def test_constructor_and_loader_report_a_float_table_alike(rows, defects):
    table_rows = {
        pair: {key: c / sum(cells) for key, c in zip(OUTCOME_PAIRS, cells)}
        for pair, cells in zip(CHOICE_PAIRS, rows)
    }
    for kind, p, c in defects:
        pair, key = CHOICE_PAIRS[p], OUTCOME_PAIRS[c]
        row = table_rows.get(pair)
        if kind == "missing pair":
            table_rows.pop(pair, None)
        elif row is None:
            continue
        elif kind == "missing cell":
            row.pop(key, None)
        elif kind in ("nan", "inf"):
            row[key] = math.nan if kind == "nan" else -math.inf * (-1) ** c
        elif kind == "negative":
            row[key] = -abs(row.get(key, 0.5)) - 0.125
        else:  # doubling a row keeps its other defects
            row.update((k, 2 * v) for k, v in row.items())
    with pytest.raises(TableError) as direct:
        ProbabilityTable(table_rows)
    with pytest.raises(TableError) as loaded:
        ProbabilityTable.from_dict({f"{cl},{cr}": row for (cl, cr), row in table_rows.items()})
    assert str(loaded.value) == str(direct.value)


# ---------------------------------------------------------------------------
# The constructor accepts a row in one test, else checks it cell by cell:
# together they accept exactly the rows the cell rules accept

def _cell_rules_accept(cells):
    """Each cell a finite non-negative int or float (not a bool), the row summing to 1.

    The total is `a + b + c + d`, left to right over the cells in
    OUTCOME_PAIRS order, as the constructor takes it: from Python 3.12
    `sum` over floats is compensated, so it can differ in the last bit.
    """
    if any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in cells):
        return False
    if not all(math.isfinite(c) and c >= 0 for c in cells):
        return False
    a, b, c, d = cells
    return abs(a + b + c + d - 1.0) <= DISTRIBUTION_TOL


# 1 - tol and 1 + tol, each with its neighbours one ulp either side
_EDGE_TOTALS = [
    x
    for t in (1.0 - DISTRIBUTION_TOL, 1.0 + DISTRIBUTION_TOL)
    for x in (math.nextafter(t, 0.0), t, math.nextafter(t, 2.0))
]


def _drifted_row(cells, drift, i):
    """`cells` normalized to sum to 1, with `drift` added to cell `i`."""
    return [c / sum(cells) + (drift if j == i else 0.0) for j, c in enumerate(cells)]


def _edge_row(total, first, halves):
    """`total` in cell `first`, or halved exactly into it and the next, zeros elsewhere."""
    shares = {first: total / 2, (first + 1) % 4: total / 2} if halves else {first: total}
    return [shares.get(i, 0.0) for i in range(4)]


_ROW_CELLS = st.one_of(
    st.lists(
        st.floats()  # NaN and both infinities included
        | st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1e308, 5e-324])
        | st.integers(-1, 2)
        | st.booleans()
        | st.sampled_from(["0.25", None]),
        min_size=4,
        max_size=4,
    ),
    st.just([1e308] * 4),  # every cell finite, the total overflows to inf
    st.builds(_edge_row, st.sampled_from(_EDGE_TOTALS), st.integers(0, 3), st.booleans()),
    st.builds(
        _drifted_row,
        _CELLS,
        st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 2e-9, -2e-9]) | st.floats(-2e-9, 2e-9),
        st.integers(0, 3),
    ),
)


@settings(max_examples=600, deadline=None)
@given(cells=_ROW_CELLS, pair=st.sampled_from(CHOICE_PAIRS), reverse=st.booleans())
def test_a_row_is_accepted_exactly_when_the_cell_rules_accept_it(cells, pair, reverse):
    row = dict(zip(OUTCOME_PAIRS, cells))
    if reverse:
        row = dict(reversed(row.items()))
    rows = dict.fromkeys(CHOICE_PAIRS, _ROW)
    rows[pair] = row
    file_table = {f"{cl},{cr}": r for (cl, cr), r in rows.items()}
    accepted = _cell_rules_accept(cells)
    try:
        table = ProbabilityTable(rows)
    except TableError as raised:
        assert not accepted
        message = str(raised)
    else:
        assert accepted
        assert table.rows[pair] == row
    try:
        loaded = ProbabilityTable.from_dict(file_table)
    except TableError as raised:
        assert not accepted
        if all(type(c) is float for c in cells):  # the loader turns ints into floats
            assert str(raised) == message
    else:
        assert accepted and loaded == table


# ---------------------------------------------------------------------------
# The mask, a row at a time, against the sixteen-cell rule

def _sixteen_cell_mask(table, epsilon):
    return sum(1 << i for i, w in enumerate(WORLDS)
               if table.rows[w.choice_pair][w.outcome_pair] > epsilon)


@pytest.mark.parametrize(
    "epsilon, cell, possible",
    [
        (1e-6, 1e-6, False),  # a cell equal to epsilon is impossible
        (1e-6, math.nextafter(1e-6, 1.0), True),  # one ulp above it is possible
        (1e-3, 1e-3, False),
        (0.0, -0.0, False),
        (0.0, 0.0, False),
        (0.0, 5e-324, True),
    ],
)
@pytest.mark.parametrize("index", range(16))
def test_mask_bit_at_the_epsilon_boundary(epsilon, cell, possible, index):
    world = WORLDS[index]
    rows = {pair: dict(_ROW) for pair in CHOICE_PAIRS}
    row = rows[world.choice_pair]
    row[world.outcome_pair] = cell
    neighbour = OUTCOME_PAIRS[(OUTCOME_PAIRS.index(world.outcome_pair) + 1) % 4]
    row[neighbour] = 0.5 - cell  # the row still sums to 1
    model = Model(ProbabilityTable(rows), epsilon)
    assert model.mask == (0xFFFF if possible else 0xFFFF & ~(1 << index))


_SMALL_OR_ANY = st.sampled_from([0.0, 1e-13, 1e-12, 1e-6, 1e-3]) | st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.lists(_SMALL_OR_ANY, min_size=4, max_size=4).filter(lambda cells: sum(cells) > 0.5),
        min_size=4,
        max_size=4,
    ),
    epsilon=st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]) | st.floats(0.0, 1e-3),
    reverse=st.booleans(),
)
def test_mask_is_the_sixteen_cell_rule(rows, epsilon, reverse):
    table_rows = {}
    for pair, cells in zip(CHOICE_PAIRS, rows):
        total = sum(cells)
        table_rows[pair] = {key: c / total for key, c in zip(OUTCOME_PAIRS, cells)}
    if reverse:  # pairs and cells in reversed key order
        table_rows = {
            pair: dict(reversed(row.items())) for pair, row in reversed(table_rows.items())
        }
    try:
        table = ProbabilityTable(table_rows)
    except TableError:  # a rounded row beyond the sum tolerance
        return
    assert Model(table, epsilon).mask == _sixteen_cell_mask(table, epsilon)


# ---------------------------------------------------------------------------
# A table is its sixteen cells in world order; `rows` is a view of them

def _known_and_random_tables(hardy_table, control_table):
    rng = random.Random(21)
    return [hardy_table, control_table, ProbabilityTable.uniform(),
            *(ProbabilityTable(random_table_rows(rng)) for _ in range(20))]


@pytest.mark.parametrize("epsilon", [0.0, 1e-12, 1e-3])
def test_cell_i_is_world_i_and_mask_bit_i(hardy_table, control_table, epsilon):
    for table in _known_and_random_tables(hardy_table, control_table):
        assert type(table.cells) is tuple and len(table.cells) == 16
        mask = build_model(table, epsilon).mask
        for w in WORLDS:
            i = w.index
            assert table.cells[i] == table.rows[w.choice_pair][w.outcome_pair]
            assert table.cells[i] == table.prob(w) == table.cell(*w.choice_pair, w.outcome_pair)
            assert type(table.cells[i]) is float
            assert (mask >> i & 1) == (table.cells[i] > epsilon)


class _World(World):
    __slots__ = ()


@pytest.mark.parametrize(
    "value",
    [("L1", "R1", "+", "+"), "L1,R1,+,+", 0, None, _World("L1", "R1", "+", "+")],
    ids=["tuple", "str", "int", "None", "World subclass"],
)
def test_prob_refuses_what_is_not_a_world(value):
    # a ValueError naming the value, not a bare KeyError from the world index
    with pytest.raises(ValueError) as raised:
        ProbabilityTable.uniform().prob(value)
    assert str(raised.value) == f"not a world: {value!r}"


@pytest.mark.parametrize(
    "args, message",
    [
        (("L1", "R3", "++"), "not a choice pair: ('L1', 'R3')"),
        (("R1", "L1", "++"), "not a choice pair: ('R1', 'L1')"),
        (("L1", "R1", "+"), "not an outcome pair: '+'"),
        (("L1", "R1", "+-+"), "not an outcome pair: '+-+'"),
        (("L1", "R1", None), "not an outcome pair: None"),
    ],
)
def test_cell_refuses_a_bad_choice_or_outcome_pair(args, message):
    # a ValueError naming the bad pair, not a bare KeyError naming a tuple
    with pytest.raises(ValueError) as raised:
        ProbabilityTable.uniform().cell(*args)
    assert str(raised.value) == message


def _with_int_zeros(rows):
    return {pair: {key: 0 if p == 0.0 else p for key, p in row.items()}
            for pair, row in rows.items()}


def test_every_construction_route_gives_the_same_table(hardy_config, hardy_table):
    rows = {pair: dict(row) for pair, row in hardy_table.rows.items()}
    assert 0.0 in rows[("L1", "R2")].values()  # so the int routes hold a 0 that is not a float
    file_table = hardy_table.to_dict()
    rng = random.Random(5)
    shuffled = []
    for _ in range(4):  # pairs and cells inserted in random orders
        pairs = list(rows.items())
        rng.shuffle(pairs)
        shuffled.append({pair: dict(rng.sample(list(row.items()), 4)) for pair, row in pairs})
    spaced = {key.replace(",", " , "): row for key, row in file_table.items()}
    one_spaced = {("L1, R1" if key == "L1,R1" else key): row for key, row in file_table.items()}
    routes = [
        ProbabilityTable(rows),
        ProbabilityTable(dict(reversed(rows.items()))),
        *(ProbabilityTable(r) for r in shuffled),
        ProbabilityTable(_with_int_zeros(rows)),
        ProbabilityTable.from_dict(file_table),
        ProbabilityTable.from_dict(dict(reversed(file_table.items()))),
        ProbabilityTable.from_dict(spaced),
        ProbabilityTable.from_dict(one_spaced),
        ProbabilityTable.from_dict(_with_int_zeros(hardy_table.to_dict())),
        ProbabilityTable.from_dict(json.loads(json.dumps(hardy_table.to_dict()))),
        export_table(hardy_config),
        pickle.loads(pickle.dumps(hardy_table)),
    ]
    for table in routes:
        assert table == hardy_table and hash(table) == hash(hardy_table)
        assert repr(table) == repr(hardy_table)
        assert table.cells == hardy_table.cells
        assert all(type(p) is float for p in table.cells)
        # the rows come out in canonical order, whatever order went in
        assert list(table.rows) == list(CHOICE_PAIRS)
        assert all(list(row) == list(OUTCOME_PAIRS) for row in table.rows.values())


def _bad_cell_table(index, value):
    rows = {pair: dict(_ROW) for pair in CHOICE_PAIRS}
    w = WORLDS[index]
    rows[w.choice_pair][w.outcome_pair] = value
    return rows


def _both_routes_raise(rows, message):
    """The constructor and `from_dict` reject `rows` with exactly `message`."""
    file_table = {f"{cl},{cr}": row for (cl, cr), row in rows.items()}
    for build, table in ((ProbabilityTable, rows), (ProbabilityTable.from_dict, file_table)):
        with pytest.raises(TableError) as raised:
            build(table)
        assert str(raised.value) == message


@pytest.mark.parametrize("index", range(16))
@pytest.mark.parametrize("value, text", [
    (math.nan, "non-finite probability nan"),
    (math.inf, "non-finite probability inf"),
    (-math.inf, "non-finite probability -inf"),
    (-0.25, "negative probability -0.25"),
    (-5e-324, "negative probability -5e-324"),
])
def test_a_bad_cell_anywhere_raises_the_cell_by_cell_message(index, value, text):
    # min() skips a NaN that is not first, so every place is tried
    w = WORLDS[index]
    _both_routes_raise(_bad_cell_table(index, value),
                       f"{text} in {w.choice_pair} cell {w.outcome_pair!r}")


def _last_total_within(direction):
    """The float furthest from 1, toward `direction`, that the sum tolerance accepts."""
    x = 1.0 + direction * DISTRIBUTION_TOL
    while abs(x - 1.0) > DISTRIBUTION_TOL:
        x = math.nextafter(x, 1.0)
    while abs(math.nextafter(x, direction * 2.0) - 1.0) <= DISTRIBUTION_TOL:
        x = math.nextafter(x, direction * 2.0)
    return x


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("pair", CHOICE_PAIRS)
def test_a_row_sum_one_ulp_past_the_tolerance_raises(direction, pair):
    edge = _last_total_within(direction)
    rows = {p: dict(_ROW) for p in CHOICE_PAIRS}
    rows[pair] = {"++": edge, "+-": 0.0, "-+": 0.0, "--": 0.0}
    assert ProbabilityTable(rows).cell(*pair, "++") == edge  # at the edge: accepted
    past = math.nextafter(edge, direction * 2.0)
    rows[pair] = {"++": past, "+-": 0.0, "-+": 0.0, "--": 0.0}
    _both_routes_raise(rows, f"distribution for {pair} sums to {past!r}, not 1")


def test_rows_are_a_read_only_view_made_once(hardy_config):
    table = export_table(hardy_config)  # a fresh table: its rows not yet read
    rows = table.rows
    assert table.rows is rows and table.rows[("L1", "R1")] is rows[("L1", "R1")]
    with pytest.raises(TypeError):
        rows[("L1", "R1")]["++"] = 0.5
    with pytest.raises(TypeError):
        rows.pop(("L1", "R1"))
    for name in ("rows", "cells"):
        with pytest.raises(AttributeError):
            setattr(table, name, None)
    assert table.rows is rows and table == export_table(hardy_config)
