import pytest

from hardylogic import build_model, export_table, find_hardy
from hardylogic.worlds import CHOICE_PAIRS, OUTCOME_PAIRS, ProbabilityTable


@pytest.fixture(scope="session")
def hardy_config():
    return find_hardy()


@pytest.fixture(scope="session")
def hardy_table(hardy_config):
    return export_table(hardy_config)


@pytest.fixture(scope="session")
def hardy_model(hardy_table):
    return build_model(hardy_table)


def paradox_free(hardy_table):
    """The falsifiability control: paradox cell forced to zero.

    The (L1,R1) row is collapsed onto the R-minus column, so the
    fourth-prediction cell carries no probability while P(L1-, R1-)
    stays positive; every other row is untouched.
    """
    rows = {pair: dict(hardy_table.rows[pair]) for pair in CHOICE_PAIRS}
    old = rows[("L1", "R1")]
    rows[("L1", "R1")] = {
        "++": 0.0,
        "+-": old["++"] + old["+-"],
        "-+": 0.0,
        "--": old["-+"] + old["--"],
    }
    assert set(rows[("L1", "R1")]) == set(OUTCOME_PAIRS)
    return ProbabilityTable(rows)


@pytest.fixture(scope="session")
def control_table(hardy_table):
    return paradox_free(hardy_table)


@pytest.fixture(scope="session")
def control_model(control_table):
    return build_model(control_table)


def local_strategies():
    """A classical table: the 50/50 mixture of two local strategies.

    The strategies fix the outcome of each setting in advance, as
    (L1, L2, R1, R2) signs: `+++-` and `+--+`.  Line 5 holds and line 6
    fails on this table, yet none of Hardy's four predictions holds, so
    the dependence must not count as confirmed.
    """
    half = {"++": 0.0, "+-": 0.0, "-+": 0.0, "--": 0.0}
    rows = {pair: dict(half) for pair in CHOICE_PAIRS}
    for strategy in ("+++-", "+--+"):
        signs = dict(zip(("L1", "L2", "R1", "R2"), strategy))
        for cl, cr in CHOICE_PAIRS:
            rows[(cl, cr)][signs[cl] + signs[cr]] += 0.5
    return ProbabilityTable(rows)


@pytest.fixture(scope="session")
def local_model():
    return build_model(local_strategies())


@pytest.fixture(scope="session")
def uniform_model():
    return build_model(ProbabilityTable.uniform())
