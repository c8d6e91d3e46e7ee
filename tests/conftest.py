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


@pytest.fixture(scope="session")
def uniform_model():
    return build_model(ProbabilityTable.uniform())
