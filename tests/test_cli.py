import json

import pytest

from hardylogic.cli import main
from hardylogic.worlds import save_model


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "cfg.json"
    assert main(["hardy", "find", "--seed", "1", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, cfg_path):
    path = tmp_path_factory.mktemp("cli") / "model.json"
    assert main(["model", "build", cfg_path, "--out", str(path)]) == 0
    return str(path)


@pytest.fixture()
def control_path(tmp_path, control_model):
    path = tmp_path / "control.json"
    save_model(control_model, str(path))
    return str(path)


def test_hardy_verify_passes(cfg_path, capsys):
    assert main(["hardy", "verify", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out


def test_hardy_verify_custom_tolerance(cfg_path):
    assert main(["hardy", "verify", cfg_path, "--tol", "1e-12"]) == 0


def test_model_build_reports_exclusions(cfg_path, capsys, tmp_path):
    out_path = tmp_path / "m.json"
    assert main(["model", "build", cfg_path, "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "possible worlds: 13 of 16" in out
    data = json.loads(out_path.read_text())
    assert set(data) == {"epsilon", "table"}


def test_check_theorem_exit_zero_with_witness(model_path, capsys):
    assert main(["check-theorem", model_path]) == 0
    out = capsys.readouterr().out
    assert "line 5" in out and "line 6" in out
    assert "witness (L1,R2," in out


def test_check_theorem_nonzero_on_control(control_path):
    assert main(["check-theorem", control_path]) == 1


def test_eval_global_true(model_path, capsys):
    assert main(["eval", model_path, "L1 => L1"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_eval_global_false_prints_witness(model_path, capsys):
    code = main(["eval", model_path, "L1 => (R2 & R2+ -> (R1 []-> R1 & R1-))"])
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("false")
    assert "witness" in out


def test_eval_at_world(model_path, capsys):
    assert main(["eval", model_path, "R1 []-> R1 & R1-", "--at", "L2,R2,+,+"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["eval", model_path, "R1 []-> R1 & R1-", "--at", "L1,R2,-,+"]) == 1


def test_eval_some_quantifier(model_path):
    args = ["eval", model_path, "R1 []-> R1 & R1-", "--at", "L1,R2,-,+"]
    assert main(args) == 1
    assert main(args + ["--quantifier", "some"]) == 0


def test_proof_audit_text(model_path, capsys):
    assert main(["proof", "audit", model_path]) == 0
    out = capsys.readouterr().out
    assert "line 6 refuted: True" in out


def test_proof_audit_json(model_path, capsys):
    assert main(["proof", "audit", model_path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["lines"]) == 14
    assert data["final"]["line6_refuted"] is True


def test_proof_audit_nonzero_on_control(control_path):
    assert main(["proof", "audit", control_path]) == 1


def test_sr_table(capsys):
    assert main(["sr-table"]) == 0
    out = capsys.readouterr().out
    assert out.count("|  f") == 1
    assert "false rows: 1 of 16" in out


def test_missing_file_exits_2(capsys):
    assert main(["check-theorem", "/nonexistent/model.json"]) == 2
    assert "file not found" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check-theorem", str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_schema_violation_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"epsilon": 1e-12}))
    assert main(["check-theorem", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_formula_parse_error_exits_2(model_path, capsys):
    assert main(["eval", model_path, "L1 &&& L2"]) == 2
    assert "error" in capsys.readouterr().err


def test_non_finite_cell_exits_2(model_path, tmp_path, capsys):
    with open(model_path) as fh:
        data = json.load(fh)
    data["table"]["L1,R1"]["-+"] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(data))
    assert "NaN" in bad.read_text()
    assert main(["check-theorem", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite") and "Traceback" not in err


@pytest.mark.parametrize("grid", ["0", "1"])
def test_find_rejects_grid_below_two(grid, capsys):
    assert main(["hardy", "find", "--grid", grid]) == 2
    assert capsys.readouterr().err.startswith("error: grid must be at least 2")


@pytest.mark.parametrize("text", ["(" * 1000 + "L1" + ")" * 1000, "~" * 1000 + "L1"])
def test_deep_nesting_exits_2(model_path, text, capsys):
    assert main(["eval", model_path, text]) == 2
    assert capsys.readouterr().err.startswith("error: formula nests deeper")


def test_unsupported_antecedent_behind_short_circuit_exits_2(model_path, capsys):
    # L1 alone settles the disjunction at this world
    assert main(["eval", model_path, "L1 | (L2 []-> R1)", "--at", "L1,R2,-,+"]) == 2
    assert "only later-region choices can be imposed" in capsys.readouterr().err


def test_bad_world_literal_exits_2(model_path, capsys):
    assert main(["eval", model_path, "L1", "--at", "L1,R2"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_flag_rejected(model_path):
    with pytest.raises(SystemExit) as exc:
        main(["check-theorem", model_path, "--frobnicate"])
    assert exc.value.code == 2


def test_find_deterministic_given_seed(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["hardy", "find", "--seed", "7", "--out", str(p1)]) == 0
    assert main(["hardy", "find", "--seed", "7", "--out", str(p2)]) == 0
    assert p1.read_text() == p2.read_text()
