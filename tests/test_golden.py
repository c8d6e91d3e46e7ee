"""Golden CLI transcripts on the Hardy, the control and a local model.

Each file under `tests/golden/` holds the stdout, stderr and exit code
of one command, byte for byte.  The model files are the conftest
`hardy_model`, `control_model` and `local_model` written with
`save_model`; the configuration is `find_hardy()` written with
`save_config`, and the bad-value one is the same with theta as a
string.  A change
that alters any byte of these outputs fails here.  When an output
change is intended, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import shlex
import tempfile
from pathlib import Path

import pytest

from hardylogic import build_model, export_table, find_hardy, save_config, save_model
from hardylogic.cli import main
from hardylogic.quantum import config_to_dict
from hardylogic.worlds import FORBIDDEN_WORLDS, WORLDS, load_model

GOLDEN = Path(__file__).parent / "golden"

_LINE5 = "L2 => (R2 & R2+ -> (R1 []-> R1 & R1-))"
_LINE6 = "L1 => (R2 & R2+ -> (R1 []-> R1 & R1-))"

_PER_MODEL = {
    "check-theorem": ["check-theorem", "{model}"],
    "proof-audit": ["proof", "audit", "{model}"],
    "proof-audit-json": ["proof", "audit", "{model}", "--json"],
    "eval-line5": ["eval", "{model}", _LINE5],
    "eval-line6": ["eval", "{model}", _LINE6],
    "eval-at": ["eval", "{model}", "R1 []-> R1 & R1-", "--at", "L1,R2,-,+"],
    "eval-at-some": ["eval", "{model}", "R1 []-> R1 & R1-", "--at", "L1,R2,-,+",
                     "--quantifier", "some"],
    "eval-at-paradox-world": ["eval", "{model}", "L1", "--at", "L1,R1,-,+"],
    "eval-parse-error": ["eval", "{model}", "L1 &&& L2"],
    "eval-bad-world": ["eval", "{model}", "L1", "--at", "L1,R2,-"],
    "eval-earlier-antecedent": ["eval", "{model}", "L1 []-> R1"],
}

CASES = {
    f"{name}.{model}": [arg.replace("{model}", "{%s}" % model) for arg in argv]
    for model in ("hardy", "control")
    for name, argv in _PER_MODEL.items()
}
# a classical table: both commands must refuse it
CASES["check-theorem.local"] = ["check-theorem", "{local}"]
CASES["proof-audit.local"] = ["proof", "audit", "{local}"]
# its possible forbidden cells: line reports built per model, quoting each cell's probability
CASES["proof-audit-json.local"] = ["proof", "audit", "{local}", "--json"]
CASES["sr-table"] = ["sr-table"]
CASES["hardy-verify"] = ["hardy", "verify", "{config}"]
CASES["hardy-verify.bad-value"] = ["hardy", "verify", "{bad_value}"]
CASES["model-build"] = ["model", "build", "{config}"]


def write_inputs(where: Path, hardy_model, control_model, local_model) -> dict[str, str]:
    """Save the three models and the configuration; their paths by placeholder."""
    names = ("hardy", "control", "local", "config", "bad_value")
    paths = {name: str(where / f"{name}.json") for name in names}
    save_model(hardy_model, paths["hardy"])
    save_model(control_model, paths["control"])
    save_model(local_model, paths["local"])
    save_config(find_hardy(), paths["config"])
    bad = config_to_dict(find_hardy())
    bad["theta"] = str(bad["theta"])  # a number in a string is not a JSON number
    Path(paths["bad_value"]).write_text(json.dumps(bad), encoding="utf-8")
    return paths


def transcript(argv: list[str], paths: dict[str, str]) -> str:
    """The command line (placeholders kept), its stdout, stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.format(**paths) for arg in argv])
    return (
        f"$ hardylogic {shlex.join(argv)}\n"
        f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}--- exit {code}\n"
    )


@pytest.fixture(scope="module")
def golden_paths(tmp_path_factory, hardy_model, control_model, local_model):
    return write_inputs(
        tmp_path_factory.mktemp("golden"), hardy_model, control_model, local_model
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, golden_paths):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert transcript(CASES[name], golden_paths) == expected


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.txt")} == set(CASES)


def test_local_model_fixture_is_the_local_model(local_model):
    # the model file CI audits with warnings as errors, written by `save_model`
    fixture = Path(__file__).parent / "fixtures" / "local-model.json"
    assert load_model(str(fixture)) == local_model
    assert local_model.mask & sum(1 << WORLDS.index(w) for w in FORBIDDEN_WORLDS)


if __name__ == "__main__":
    from conftest import local_strategies, paradox_free

    table = export_table(find_hardy())
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(
            Path(tmp),
            build_model(table),
            build_model(paradox_free(table)),
            build_model(local_strategies()),
        )
        for name, argv in CASES.items():
            (GOLDEN / f"{name}.txt").write_text(transcript(argv, paths), encoding="utf-8")
