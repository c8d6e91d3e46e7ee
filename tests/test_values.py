"""The value-class contract: what every frozen value type of the package keeps.

Each value class lists its fields, and equality, hashing, repr,
ordering, immutability, pickling and copying follow from them the way
they did when these classes were frozen dataclasses.  The expected
reprs are literal strings in the dataclass form, and `FIELDS` names each
class's fields independently of the classes themselves.  What a value
works out from its fields or its model is not a field; the last section
checks each such value against a source that does not read it.
"""

import copy
import inspect
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import local_strategies, paradox_free
from hardylogic import formula, worlds
from hardylogic.formula import (
    And,
    Atom,
    Counterfactual,
    MatImp,
    Not,
    Or,
    StrictImp,
)
from hardylogic.proof import (
    AuditReport,
    FinalVerdict,
    LineAudit,
    ProofLine,
    ProofScript,
    RuleVerdict,
    SideCondition,
    audit,
)
from hardylogic.quantum import HardyConfig, PredictionReport, SearchParams, export_table, find_hardy
from hardylogic.semantics import (
    CfOptions,
    GlobalCheck,
    SrRow,
    TemporalOrder,
    TheoremReport,
    check_theorem,
    holds_globally,
)
from hardylogic.worlds import (
    CHOICE_PAIRS,
    WORLDS,
    Model,
    ProbabilityTable,
    World,
    build_model,
    model_from_dict,
    model_to_dict,
)
from oracles import (
    brute_line5_counterexamples,
    brute_line6_counterexamples,
    brute_sr,
    possible_worlds,
    random_formula,
    random_table_rows,
)

# each value class and its fields, in constructor order
FIELDS = {
    Atom: ("name",),
    Not: ("arg",),
    And: ("left", "right"),
    Or: ("left", "right"),
    MatImp: ("left", "right"),
    StrictImp: ("left", "right"),
    Counterfactual: ("left", "right"),
    World: ("choice_l", "choice_r", "outcome_l", "outcome_r"),
    ProbabilityTable: ("rows",),
    Model: ("table", "epsilon"),
    HardyConfig: ("theta", "angle_l1", "angle_l2", "angle_r1", "angle_r2"),
    PredictionReport: ("c1", "c2", "c3", "c4", "marginal_l1_minus", "tolerance"),
    SearchParams: ("seed",),
    TemporalOrder: ("earlier_region",),
    CfOptions: ("order", "quantifier", "self_world_when_consistent"),
    GlobalCheck: ("holds", "witness", "counterexamples"),
    TheoremReport: (
        "hardy_conforming",
        "conformance_detail",
        "line5",
        "line6",
        "line5_vacuous",
    ),
    ProofLine: ("index", "statement", "rule", "premises", "hypothesis_scope", "note"),
    SideCondition: ("formula", "description"),
    ProofScript: ("lines", "side_conditions", "notes"),
    RuleVerdict: ("status", "detail"),
    LineAudit: (
        "index",
        "rule",
        "premises",
        "scope",
        "rule_status",
        "rule_detail",
        "sem_every",
        "sem_some",
        "note",
    ),
    FinalVerdict: (
        "line5_true",
        "rules_all_valid",
        "side_conditions_hold",
        "contradiction_lines",
        "bridge_world",
        "detail",
        "line5_vacuous",
        "line6_holds",
    ),
    AuditReport: ("lines", "final", "notes"),
    SrRow: ("ra", "ra_plus", "rc", "rc_minus"),
}

_A, _B = Atom("L1"), Atom("R2-")
_W = World("L1", "R2", "-", "+")
_W_REPR = "World(choice_l='L1', choice_r='R2', outcome_l='-', outcome_r='+')"
_CHECK = GlobalCheck(False, _W, (_W,))
_CHECK_REPR = f"GlobalCheck(holds=False, witness={_W_REPR}, counterexamples=({_W_REPR},))"
# every row gives R the + outcome and L either sign
_TABLE = ProbabilityTable(
    dict.fromkeys(CHOICE_PAIRS, {"++": 0.5, "+-": 0.0, "-+": 0.5, "--": 0.0})
)
_ROW_REPR = "{'++': 0.5, '+-': 0.0, '-+': 0.5, '--': 0.0}"
_TABLE_REPR = (
    f"ProbabilityTable(rows={{('L1', 'R1'): {_ROW_REPR}, ('L1', 'R2'): {_ROW_REPR}, "
    f"('L2', 'R1'): {_ROW_REPR}, ('L2', 'R2'): {_ROW_REPR}}})"
)
_MODEL = Model(_TABLE, 1e-12)
_HYP = ProofLine(1, _A, "HYPOTHESIS")
_HYP_REPR = (
    "ProofLine(index=1, statement=Atom(name='L1'), rule='HYPOTHESIS', premises=(), "
    "hypothesis_scope=frozenset(), note=None)"
)
_LINE = ProofLine(2, StrictImp(_A, _B), "A5", (1,), frozenset({1}), "n")
_LINE_REPR = (
    "ProofLine(index=2, statement=StrictImp(left=Atom(name='L1'), right=Atom(name='R2-')), "
    "rule='A5', premises=(1,), hypothesis_scope=frozenset({1}), note='n')"
)
_AUDIT = LineAudit(1, "B6", (), (6,), "valid", "ok", True, False)
_AUDIT_REPR = (
    "LineAudit(index=1, rule='B6', premises=(), scope=(6,), rule_status='valid', "
    "rule_detail='ok', sem_every=True, sem_some=False, note=None)"
)
_FINAL = FinalVerdict(True, True, True, (11, 14), _W, "d", False, False)
_FINAL_REPR = (
    "FinalVerdict(line5_true=True, rules_all_valid=True, side_conditions_hold=True, "
    f"contradiction_lines=(11, 14), bridge_world={_W_REPR}, detail='d', "
    "line5_vacuous=False, line6_holds=False)"
)
_THEOREM = TheoremReport(True, "all", _CHECK, GlobalCheck(True, None, ()), False)

# one or more instances of every value class, each with its repr in the
# form the frozen dataclasses printed, over the fields the class has
SAMPLES = [
    (_A, "Atom(name='L1')"),
    (Not(_A), "Not(arg=Atom(name='L1'))"),
    (And(_A, _B), "And(left=Atom(name='L1'), right=Atom(name='R2-'))"),
    (Or(_A, _B), "Or(left=Atom(name='L1'), right=Atom(name='R2-'))"),
    (MatImp(_A, _B), "MatImp(left=Atom(name='L1'), right=Atom(name='R2-'))"),
    (StrictImp(_A, _B), "StrictImp(left=Atom(name='L1'), right=Atom(name='R2-'))"),
    (Counterfactual(_A, _B), "Counterfactual(left=Atom(name='L1'), right=Atom(name='R2-'))"),
    (_W, _W_REPR),
    (_TABLE, _TABLE_REPR),
    (_MODEL, f"Model(table={_TABLE_REPR}, epsilon=1e-12)"),
    (
        HardyConfig(0.5, -1.0, 2.0, 0.25, 1e-3),
        "HardyConfig(theta=0.5, angle_l1=-1.0, angle_l2=2.0, angle_r1=0.25, angle_r2=0.001)",
    ),
    (
        PredictionReport(0.0, 1e-17, 0.0, 0.09, 0.5, 1e-9),
        "PredictionReport(c1=0.0, c2=1e-17, c3=0.0, c4=0.09, marginal_l1_minus=0.5, "
        "tolerance=1e-09)",
    ),
    (SearchParams(), "SearchParams(seed=0)"),
    (SearchParams(3), "SearchParams(seed=3)"),
    (TemporalOrder(), "TemporalOrder(earlier_region='L')"),
    (TemporalOrder("R"), "TemporalOrder(earlier_region='R')"),
    (
        CfOptions(),
        "CfOptions(order=TemporalOrder(earlier_region='L'), quantifier='every', "
        "self_world_when_consistent=True)",
    ),
    (
        CfOptions(TemporalOrder("R"), "some", False),
        "CfOptions(order=TemporalOrder(earlier_region='R'), quantifier='some', "
        "self_world_when_consistent=False)",
    ),
    (_CHECK, _CHECK_REPR),
    (
        _THEOREM,
        f"TheoremReport(hardy_conforming=True, conformance_detail='all', line5={_CHECK_REPR}, "
        "line6=GlobalCheck(holds=True, witness=None, counterexamples=()), line5_vacuous=False)",
    ),
    (_LINE, _LINE_REPR),
    (
        SideCondition(And(_A, _B), "desc"),
        "SideCondition(formula=And(left=Atom(name='L1'), right=Atom(name='R2-')), "
        "description='desc')",
    ),
    (
        ProofScript((_HYP, _LINE), (SideCondition(_A, "s"),), ("note",)),
        f"ProofScript(lines=({_HYP_REPR}, {_LINE_REPR}), side_conditions=(SideCondition("
        "formula=Atom(name='L1'), description='s'),), notes=('note',))",
    ),
    (RuleVerdict("invalid", "why"), "RuleVerdict(status='invalid', detail='why')"),
    (_AUDIT, _AUDIT_REPR),
    (_FINAL, _FINAL_REPR),
    (
        AuditReport((_AUDIT,), _FINAL, ("x",)),
        f"AuditReport(lines=({_AUDIT_REPR},), final={_FINAL_REPR}, notes=('x',))",
    ),
    (SrRow(True, False, True, False), "SrRow(ra=True, ra_plus=False, rc=True, rc_minus=False)"),
]
VALUES = [value for value, _ in SAMPLES]
# the same classes as the hot paths build them, through the slots' own
# setters: each connective as parsed, and a check that fails and one that holds
_PARSED = [
    formula.parse(text)
    for text in ("~L1", "L1 & R2-", "L1 | R2-", "L1 -> R2-", "L1 => R2-", "R1 []-> R2-")
]
_BUILT = [
    *(pytest.param(f, id=f"{type(f).__name__}-parsed") for f in _PARSED),
    pytest.param(holds_globally(_MODEL, Atom("L1")), id="GlobalCheck-fails"),
    pytest.param(holds_globally(_MODEL, formula.parse("R1+ | R2+")), id="GlobalCheck-holds"),
]


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


def _key(value) -> tuple:
    return (type(value), _fields(value))


def test_every_value_class_has_a_sample():
    assert {type(value) for value in VALUES} == set(FIELDS)


@pytest.mark.parametrize("value, expected", SAMPLES, ids=lambda x: type(x).__name__)
def test_repr_is_the_dataclass_form(value, expected):
    assert repr(value) == expected


@pytest.mark.parametrize("value", [*VALUES, *_BUILT], ids=lambda x: type(x).__name__)
def test_a_rebuilt_value_is_equal_and_hashes_as_its_field_tuple(value):
    twin = type(value)(*_fields(value))
    assert twin is not value
    assert twin == value and not twin != value
    assert hash(twin) == hash(value) == hash(_fields(value))


# the classes whose every field has a default, so a call may omit any of them
_ALL_DEFAULTS = (SearchParams, TemporalOrder, CfOptions)


@pytest.mark.parametrize("value", VALUES, ids=lambda x: type(x).__name__)
def test_fields_are_taken_by_position_or_name_and_a_bad_call_is_a_type_error(value):
    cls, values, names = type(value), _fields(value), FIELDS[type(value)]
    # every split: the first k fields by position, the rest by name
    for k in range(len(values) + 1):
        assert cls(*values[:k], **dict(zip(names[k:], values[k:]))) == value
    bad_calls = [
        lambda: cls(*values, values[0]),  # one argument too many
        lambda: cls(*values, no_such_field=0),  # an unknown keyword
        lambda: cls(*values, **{names[0]: values[0]}),  # a field given twice
    ]
    if cls not in _ALL_DEFAULTS:  # the first field has no default: leave it out
        bad_calls.append(lambda: cls(**dict(zip(names[1:], values[1:]))))
    for call in bad_calls:
        with pytest.raises(TypeError):
            call()


def test_equality_follows_class_and_fields():
    # And, Or, MatImp, StrictImp and Counterfactual share their fields here
    for a in VALUES:
        for b in VALUES:
            assert (a == b) == (_key(a) == _key(b)), (a, b)
            assert (a != b) == (_key(a) != _key(b)), (a, b)
    assert And(_A, _B) != Or(_A, _B)
    assert _W != ("L1", "R2", "-", "+")
    assert Atom("L1") != "L1"


def test_world_sorts_like_its_field_tuples():
    shuffled = list(WORLDS)
    random.Random(7).shuffle(shuffled)
    assert sorted(shuffled) == sorted(shuffled, key=_fields) == list(WORLDS)
    for a in WORLDS:
        for b in WORLDS:
            assert (a < b, a <= b, a > b, a >= b) == (
                _fields(a) < _fields(b),
                _fields(a) <= _fields(b),
                _fields(a) > _fields(b),
                _fields(a) >= _fields(b),
            )
    with pytest.raises(TypeError):
        _W < ("L1", "R2", "-", "+")


@pytest.mark.parametrize("value", [*VALUES, *_BUILT], ids=lambda x: type(x).__name__)
def test_fields_cannot_be_assigned_or_deleted(value):
    before = _fields(value)
    for name in (*FIELDS[type(value)], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert _fields(value) == before


@pytest.mark.parametrize("value", [*VALUES, *_BUILT], ids=lambda x: type(x).__name__)
def test_pickle_and_copies_round_trip(value):
    copies = [pickle.loads(pickle.dumps(value, protocol)) for protocol in (2, 3, 4, 5)]
    copies += [copy.copy(value), copy.deepcopy(value)]
    for again in copies:
        assert type(again) is type(value)
        assert again == value and hash(again) == hash(value)
        assert repr(again) == repr(value)


def test_model_mask_is_not_a_field():
    twin = copy.copy(_MODEL)
    plus = [w for w in WORLDS if w.outcome_r == "+"]
    assert twin.possible == _MODEL.possible == frozenset(plus)
    assert twin.mask == _MODEL.mask == sum(1 << WORLDS.index(w) for w in plus)
    object.__setattr__(twin, "mask", 0)  # a mask that disagrees with the table
    assert twin == _MODEL and hash(twin) == hash(_MODEL) == hash(_fields(_MODEL))
    assert repr(twin) == repr(_MODEL)
    assert "mask" not in repr(_MODEL) and "possible" not in repr(_MODEL)
    # `possible` is the mask's worlds, worked out when read
    assert twin.possible == frozenset()
    object.__setattr__(twin, "mask", 1 << 5)
    assert twin.possible == {WORLDS[5]}
    # and it cannot be set, through the value class or around it
    for assign in (setattr, object.__setattr__):
        with pytest.raises(AttributeError):
            assign(twin, "possible", frozenset(plus))
    for delete in (delattr, object.__delattr__):
        with pytest.raises(AttributeError):
            delete(twin, "possible")
    assert twin.possible == {WORLDS[5]} and _MODEL.possible == frozenset(plus)


def test_building_a_model_hashes_no_world(monkeypatch):
    # a model keeps its possible worlds as a mask: no world is hashed and
    # no frozenset built until `possible` is read
    hashed, sets, expected = [], [], _MODEL.possible
    world_hash = World.__hash__
    monkeypatch.setattr(World, "__hash__", lambda w: hashed.append(w) or world_hash(w))
    monkeypatch.setattr(
        worlds, "frozenset", lambda *args: sets.append(args) or frozenset(*args), raising=False
    )
    table = _MODEL.table
    built = [Model(table, 1e-12), build_model(table), model_from_dict(model_to_dict(_MODEL))]
    assert hashed == [] and sets == []
    assert all(model.possible == expected for model in built)
    assert len(sets) == 3 and len(hashed) >= 8  # the spies see the reads


# what each former field, now worked out from the fields, reads on its sample
DERIVED = [
    (_MODEL, "possible", frozenset(w for w in WORLDS if w.outcome_r == "+")),
    (PredictionReport(0.0, 1e-17, 0.0, 0.09, 0.5, 1e-9), "positivity_floor", 1e-9),
    (_THEOREM, "sr_true_on_all_l2_worlds", False),
    (_THEOREM, "sr_false_l1_witness", None),
    (TheoremReport(True, "", GlobalCheck(True, None, ()), _CHECK, False), "sr_false_l1_witness", _W),
    (_FINAL, "line6_refuted", True),
    (FinalVerdict(True, True, False, (11, 14), _W, "d", False, False), "line6_refuted", False),
    (FinalVerdict(True, True, True, None, None, "d", False, False), "line6_refuted", False),
    (FinalVerdict(True, True, True, (11, 14), _W, "d", True, False), "line6_refuted", False),
    (FinalVerdict(True, True, True, (11, 14), _W, "d", False, True), "line6_refuted", False),
]


@pytest.mark.parametrize(
    "value, name, expected", DERIVED, ids=[f"{type(v).__name__}.{n}" for v, n, _ in DERIVED]
)
def test_former_fields_read_as_derived_values(value, name, expected):
    assert getattr(value, name) == expected
    with pytest.raises(AttributeError):
        setattr(value, name, expected)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) == expected


def test_fields_match_positional_patterns():
    match StrictImp(_A, Not(_B)):
        case StrictImp(Atom(name), Not(arg)):
            assert (name, arg) == ("L1", _B)
        case _:
            pytest.fail("no match")


def _tree(f) -> tuple:
    """`f` as nested (class, field values) tuples: the equality oracle."""
    return (type(f), *(_tree(x) if isinstance(x, formula.Formula) else x for x in _fields(f)))


@given(st.integers(0, 2**32), st.integers(0, 4))
@settings(max_examples=300)
def test_formula_repr_evaluates_back_and_equality_follows_the_tree(seed, other_depth):
    rng = random.Random(seed)
    f = random_formula(rng, depth=5)
    g = random_formula(rng, depth=other_depth)  # often equal to f when shallow
    again = eval(repr(f), vars(formula))
    assert again == f and hash(again) == hash(f)
    assert (f == g) == (_tree(f) == _tree(g))
    assert (f != g) == (_tree(f) != _tree(g))
    assert hash(f) == hash(_fields(f))
    if f == g:
        assert hash(f) == hash(g)


# ---------------------------------------------------------------------------
# Fields that other fields or the model determine, each checked against a
# source that does not read it: the brute-force oracles, or the fields it
# restates

_HARDY_TABLE = export_table(find_hardy())
_TABLES = {
    "hardy": _HARDY_TABLE,
    "control": paradox_free(_HARDY_TABLE),
    "local": local_strategies(),
}


def _world(w) -> tuple | None:
    return None if w is None else _fields(w)


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("random", *_TABLES)),
    quantifier=st.sampled_from(("every", "some")),
)
@settings(max_examples=120, deadline=None)
def test_derived_fields_agree_with_independent_sources(seed, kind, quantifier):
    rng = random.Random(seed)
    table = ProbabilityTable(random_table_rows(rng)) if kind == "random" else _TABLES[kind]
    model = build_model(table)
    opts = CfOptions(quantifier=quantifier)
    possible = possible_worlds(table.rows)

    report = check_theorem(model, opts)
    line5 = brute_line5_counterexamples(possible, quantifier)
    line6 = brute_line6_counterexamples(possible, quantifier)
    assert [_fields(w) for w in report.line5.counterexamples] == line5
    assert [_fields(w) for w in report.line6.counterexamples] == line6
    l2_true = all(brute_sr(possible, w, quantifier) for w in possible if w[0] == "L2")
    l1_false = [w for w in possible if w[0] == "L1" and not brute_sr(possible, w, quantifier)]
    assert report.sr_true_on_all_l2_worlds == l2_true
    assert _world(report.sr_false_l1_witness) == (l1_false[0] if l1_false else None)

    f = random_formula(rng, depth=4, antecedents=("R1", "R2"))
    for check in (report.line5, report.line6, holds_globally(model, f, opts)):
        cex = check.counterexamples
        assert check.holds == (not cex)
        assert check.witness == (cex[0] if cex else None)

    final = audit(model, opts=opts).final
    assert final.line6_holds == (not line6)
    assert final.line5_vacuous == (
        not any(w[0] == "L2" and w[1] == "R2" and w[3] == "+" for w in possible)
    )
    assert final.line6_refuted == bool(
        final.rules_all_valid
        and final.side_conditions_hold
        and final.contradiction_lines
        and final.bridge_world
        and not final.line5_vacuous
        and not final.line6_holds
    )


# ---------------------------------------------------------------------------
# One constructor route: each class's store is generated from its fields


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_the_signature_lists_the_fields_with_the_defaults_on_the_trailing_ones(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == list(FIELDS[cls])
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    required = len(params) - len(cls._defaults)
    assert [p.default for p in params] == [inspect.Parameter.empty] * required + list(
        cls._defaults
    )


def test_the_checking_constructors_show_their_fields_before_any_build():
    # each class has its store from its definition: a fresh interpreter that
    # has built neither a `ProofLine` nor a `LineAudit` reads their fields
    script = (
        "import inspect\n"
        "from hardylogic.proof import LineAudit, ProofLine\n"
        "print(inspect.signature(ProofLine))\n"
        "print(inspect.signature(LineAudit))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(Path(formula.__file__).parents[1])),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert done.stdout.splitlines() == [
        "(index, statement, rule, premises=(), hypothesis_scope=frozenset(), note=None)",
        "(index, rule, premises, scope, rule_status, rule_detail, sem_every, sem_some, "
        "note=None)",
    ]


@pytest.mark.parametrize("value", VALUES, ids=lambda x: type(x).__name__)
def test_a_bad_call_is_a_type_error_naming_the_class(value):
    cls, values, names = type(value), _fields(value), FIELDS[type(value)]
    bad_calls = [
        lambda: cls(*values, values[0]),
        lambda: cls(*values, no_such_field=0),
        lambda: cls(*values, **{names[0]: values[0]}),
    ]
    if cls not in _ALL_DEFAULTS:
        bad_calls.append(lambda: cls(**dict(zip(names[1:], values[1:]))))
    for call in bad_calls:
        with pytest.raises(TypeError) as caught:
            call()
        assert str(caught.value).startswith(f"{cls.__qualname__}.__init__() ")


_CONNECTIVES = (And, Or, MatImp, StrictImp, Counterfactual)


def test_the_binary_connectives_each_have_a_store_of_their_own():
    binary = formula._Binary
    assert binary.__init__.__qualname__ == "_Binary.__init__"
    for cls in _CONNECTIVES:
        init = vars(cls)["__init__"]
        assert init is not binary.__init__ and init.__code__ == binary.__init__.__code__
        assert init.__qualname__ == f"{cls.__name__}.__init__"


@pytest.mark.parametrize("cls", _CONNECTIVES, ids=lambda cls: cls.__name__)
def test_a_connective_missing_an_operand_names_its_own_class(cls):
    with pytest.raises(TypeError) as caught:
        cls(Atom("L1"))
    assert str(caught.value) == (
        f"{cls.__name__}.__init__() missing 1 required positional argument: 'right'"
    )
    with pytest.raises(TypeError) as caught:
        cls(Atom("L1"), Atom("R1"), left=Atom("L2"))
    assert str(caught.value) == f"{cls.__name__}.__init__() got multiple values for argument 'left'"


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_each_class_has_its_constructor_once_it_is_defined(cls):
    # a store, or for `Model` and `ProbabilityTable` one written by hand;
    # the signature test above reads its parameters
    assert vars(cls)["__init__"].__qualname__ == f"{cls.__name__}.__init__"


def test_each_field_count_compiles_one_template_for_every_class(monkeypatch):
    compiled = []
    monkeypatch.setattr(
        formula, "compile", lambda *args: compiled.append(args[1]) or compile(*args), raising=False
    )
    names = tuple(f"f{i}" for i in range(12))  # more fields than any class of the package names

    class Plain(formula.Value):
        __slots__ = _fields = names

    class Checked(formula.Value):
        __slots__ = _fields = names
        _defaults = (0,)

        def _check(self):
            if self.f11 is None:
                raise ValueError("f11 must not be None")

    class Pair(formula.Value):  # a field count the package's classes use
        __slots__ = _fields = ("first", "second")

    assert compiled == ["<value store>"]  # one compile for both twelve-field stores, none for two
    assert Plain(*range(12)).f11 == 11 and Checked(*range(11)).f11 == 0
    with pytest.raises(ValueError, match="f11 must not be None"):
        Checked(*range(11), None)
    assert Pair(1, second=2) == Pair(1, 2)
    with pytest.raises(TypeError) as caught:
        Checked(*range(10))
    assert str(caught.value) == (
        f"{Checked.__qualname__}.__init__() missing 1 required positional argument: 'f10'"
    )


def test_a_subclass_defined_after_its_parent_is_built_names_itself():
    And(Atom("L1"), Atom("R1"))  # the parent is built before the subclass is defined

    class Conj(And):
        __slots__ = ()

    assert Conj(Atom("L1"), right=Atom("R1")).right == Atom("R1")
    with pytest.raises(TypeError) as caught:
        Conj(Atom("L1"))
    assert str(caught.value) == (
        f"{Conj.__qualname__}.__init__() missing 1 required positional argument: 'right'"
    )

    class Place(World):  # a subclass of a checking class keeps the checks
        __slots__ = ()

    assert Place("L2", "R2", "-", "-").index == 15
    with pytest.raises(ValueError, match="bad choices"):
        Place("L3", "R2", "-", "-")


def test_a_subclass_of_model_keeps_the_model_constructor():
    class Strict(Model):
        __slots__ = ()

    assert Strict.__init__ is Model.__init__
    model = Strict(_TABLE, 0.0)  # the + outcome on R, either on L: cells 0 and 2 of each row
    assert model.mask == Model(_TABLE, 0.0).mask == 0b0101_0101_0101_0101


def test_the_base_classes_build_nothing():
    for cls in (formula.Value, formula.Formula):
        with pytest.raises(TypeError, match=f"{cls.__name__} has no fields to store"):
            cls()
