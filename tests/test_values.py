"""The value-class contract: what every frozen value type of the package keeps.

Each value class lists its fields, and equality, hashing, repr,
ordering, immutability, pickling and copying follow from them the way
they did when these classes were frozen dataclasses.  The expected
reprs are literal strings in the dataclass form, and `FIELDS` names each
class's fields independently of the classes themselves.
"""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylogic import formula
from hardylogic.formula import (
    And,
    Atom,
    Counterfactual,
    MatImp,
    Not,
    Or,
    PaperNormalReport,
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
)
from hardylogic.quantum import HardyConfig, PredictionReport, SearchParams
from hardylogic.semantics import CfOptions, GlobalCheck, SrRow, TemporalOrder, TheoremReport
from hardylogic.worlds import WORLDS, Model, ProbabilityTable, World
from oracles import random_formula

# each value class and its fields, in constructor order
FIELDS = {
    Atom: ("name",),
    Not: ("arg",),
    And: ("left", "right"),
    Or: ("left", "right"),
    MatImp: ("left", "right"),
    StrictImp: ("left", "right"),
    Counterfactual: ("left", "right"),
    PaperNormalReport: ("ok", "violation"),
    World: ("choice_l", "choice_r", "outcome_l", "outcome_r"),
    ProbabilityTable: ("rows",),
    Model: ("table", "epsilon", "possible"),
    HardyConfig: ("theta", "angle_l1", "angle_l2", "angle_r1", "angle_r2"),
    PredictionReport: (
        "c1", "c2", "c3", "c4", "marginal_l1_minus", "tolerance", "positivity_floor"
    ),
    SearchParams: ("seed", "grid"),
    TemporalOrder: ("earlier_region",),
    CfOptions: ("order", "quantifier", "self_world_when_consistent"),
    GlobalCheck: ("holds", "witness", "counterexamples"),
    TheoremReport: (
        "hardy_conforming",
        "conformance_detail",
        "line5",
        "line6",
        "sr_true_on_all_l2_worlds",
        "sr_false_l1_witness",
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
        "line6_refuted",
        "rules_all_valid",
        "side_conditions_hold",
        "contradiction_lines",
        "bridge_world",
        "detail",
    ),
    AuditReport: ("lines", "final", "notes"),
    SrRow: ("ra", "ra_plus", "rc", "rc_minus"),
}

_A, _B = Atom("L1"), Atom("R2-")
_W = World("L1", "R2", "-", "+")
_W_REPR = "World(choice_l='L1', choice_r='R2', outcome_l='-', outcome_r='+')"
_CHECK = GlobalCheck(False, _W, (_W,))
_CHECK_REPR = f"GlobalCheck(holds=False, witness={_W_REPR}, counterexamples=({_W_REPR},))"
_TABLE = ProbabilityTable({("L1", "R1"): {"++": 0.5, "-+": 0.5}})
_TABLE_REPR = "ProbabilityTable(rows={('L1', 'R1'): {'++': 0.5, '-+': 0.5}})"
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
_FINAL = FinalVerdict(True, False, True, True, (11, 14), _W, "d")
_FINAL_REPR = (
    "FinalVerdict(line5_true=True, line6_refuted=False, rules_all_valid=True, "
    f"side_conditions_hold=True, contradiction_lines=(11, 14), bridge_world={_W_REPR}, "
    "detail='d')"
)

# one or more instances of every value class, each with its repr as the
# frozen dataclasses printed it
SAMPLES = [
    (_A, "Atom(name='L1')"),
    (Not(_A), "Not(arg=Atom(name='L1'))"),
    (And(_A, _B), "And(left=Atom(name='L1'), right=Atom(name='R2-'))"),
    (Or(_A, _B), "Or(left=Atom(name='L1'), right=Atom(name='R2-'))"),
    (MatImp(_A, _B), "MatImp(left=Atom(name='L1'), right=Atom(name='R2-'))"),
    (StrictImp(_A, _B), "StrictImp(left=Atom(name='L1'), right=Atom(name='R2-'))"),
    (Counterfactual(_A, _B), "Counterfactual(left=Atom(name='L1'), right=Atom(name='R2-'))"),
    (PaperNormalReport(True), "PaperNormalReport(ok=True, violation=None)"),
    (PaperNormalReport(False, "v"), "PaperNormalReport(ok=False, violation='v')"),
    (_W, _W_REPR),
    (_TABLE, _TABLE_REPR),
    (
        Model(_TABLE, 1e-12, frozenset({_W})),
        f"Model(table={_TABLE_REPR}, epsilon=1e-12, possible=frozenset({{{_W_REPR}}}))",
    ),
    (
        HardyConfig(0.5, -1.0, 2.0, 0.25, 1e-3),
        "HardyConfig(theta=0.5, angle_l1=-1.0, angle_l2=2.0, angle_r1=0.25, angle_r2=0.001)",
    ),
    (
        PredictionReport(0.0, 1e-17, 0.0, 0.09, 0.5, 1e-9, 1e-9),
        "PredictionReport(c1=0.0, c2=1e-17, c3=0.0, c4=0.09, marginal_l1_minus=0.5, "
        "tolerance=1e-09, positivity_floor=1e-09)",
    ),
    (SearchParams(), "SearchParams(seed=0, grid=96)"),
    (SearchParams(3, 10), "SearchParams(seed=3, grid=10)"),
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
        TheoremReport(True, "all", _CHECK, GlobalCheck(True, None, ()), False, None, False),
        f"TheoremReport(hardy_conforming=True, conformance_detail='all', line5={_CHECK_REPR}, "
        "line6=GlobalCheck(holds=True, witness=None, counterexamples=()), "
        "sr_true_on_all_l2_worlds=False, sr_false_l1_witness=None, line5_vacuous=False)",
    ),
    (_LINE, _LINE_REPR),
    (
        SideCondition(And(_A, _B), "desc"),
        "SideCondition(formula=And(left=Atom(name='L1'), right=Atom(name='R2-')), "
        "description='desc')",
    ),
    (
        ProofScript((_LINE,), (SideCondition(_A, "s"),), ("note",)),
        f"ProofScript(lines=({_LINE_REPR},), side_conditions=(SideCondition("
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


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


def _key(value) -> tuple:
    return (type(value), _fields(value))


def test_every_value_class_has_a_sample():
    assert {type(value) for value in VALUES} == set(FIELDS)


@pytest.mark.parametrize("value, expected", SAMPLES, ids=lambda x: type(x).__name__)
def test_repr_is_the_dataclass_form(value, expected):
    assert repr(value) == expected


@pytest.mark.parametrize("value", VALUES, ids=lambda x: type(x).__name__)
def test_a_rebuilt_value_is_equal_and_hashes_as_its_field_tuple(value):
    twin = type(value)(*_fields(value))
    assert twin is not value
    assert twin == value and not twin != value
    assert hash(twin) == hash(value) == hash(_fields(value))


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


@pytest.mark.parametrize("value", VALUES, ids=lambda x: type(x).__name__)
def test_fields_cannot_be_assigned_or_deleted(value):
    before = _fields(value)
    for name in (*FIELDS[type(value)], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert _fields(value) == before


@pytest.mark.parametrize("value", VALUES, ids=lambda x: type(x).__name__)
def test_pickle_and_copies_round_trip(value):
    copies = [pickle.loads(pickle.dumps(value, protocol)) for protocol in (2, 3, 4, 5)]
    copies += [copy.copy(value), copy.deepcopy(value)]
    for again in copies:
        assert type(again) is type(value)
        assert again == value and hash(again) == hash(value)
        assert repr(again) == repr(value)


def test_model_mask_is_not_a_field():
    model = Model(_TABLE, 1e-12, frozenset({_W}))
    twin = copy.copy(model)
    assert twin.mask == model.mask == 1 << WORLDS.index(_W)
    object.__setattr__(twin, "mask", 0)  # a mask that disagrees with `possible`
    assert twin == model and hash(twin) == hash(model) == hash(_fields(model))
    assert repr(twin) == repr(model)
    assert "mask" not in repr(model)


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
