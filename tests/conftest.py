import itertools
from pathlib import Path

import pytest

from hardylogic import build_model, export_table, find_hardy
from hardylogic.worlds import CHOICE_PAIRS, OUTCOME_PAIRS, ProbabilityTable, load_model

FIXTURES = Path(__file__).parent / "fixtures"


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
def line6_holds_model():
    """A Hardy-conforming table on which line 6 holds and line 5 is tested.

    Each row is uniform on its possible cells: (L1,R1) and (L2,R1) on
    +-, -+ and --, (L1,R2) on ++ and +-, (L2,R2) on ++, +- and --.
    The derivation goes through, but its clash cannot refute a line 6
    that holds, so neither `check_theorem` nor `audit` may confirm.
    """
    return load_model(str(FIXTURES / "line6-holds-model.json"))


def pattern_models():
    """One model per possibility pattern with a possible world in each choice pair.

    A row may make possible any of the 15 nonempty sets of its four
    cells, and is uniform on that set: 15**4 = 50,625 patterns.
    """
    cell_sets = [cells for n in range(1, 5) for cells in itertools.combinations(OUTCOME_PAIRS, n)]
    rows = [{k: 1 / len(cells) if k in cells else 0.0 for k in OUTCOME_PAIRS} for cells in cell_sets]
    for choice in itertools.product(rows, repeat=len(CHOICE_PAIRS)):
        yield build_model(ProbabilityTable(dict(zip(CHOICE_PAIRS, choice))))


@pytest.fixture(scope="session")
def uniform_model():
    return build_model(ProbabilityTable.uniform())


@pytest.fixture(scope="session", autouse=True)
def _process_end_refused():
    """`cli.main()` with no argv ends its process; in a test or fixture it
    raises instead, so that test fails and the session goes on.  Session
    scope, so that it is in place before any module fixture calls `main`."""

    def refuse(code):
        raise AssertionError(f"main() without argv would end the test process, exit code {code}")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("hardylogic.cli._end", refuse)
        yield
