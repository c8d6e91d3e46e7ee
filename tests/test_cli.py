import contextlib
import copy
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylogic import cli, quantum, semantics
from hardylogic.cli import _COMMANDS, main
from hardylogic.quantum import PredictionReport
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


# a configuration that is not Hardy's: its three "zero" cells are 0.12 to 0.5
_NOT_HARDY = {"theta": 0.7, "angles": {"L1": 0.0, "L2": 0.3, "R1": 0.6, "R2": 0.9}}


def test_hardy_verify_fails_a_configuration_that_is_not_hardys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_NOT_HARDY))
    assert main(["hardy", "verify", str(cfg)]) == 1
    assert "overall: FAIL" in capsys.readouterr().out
    assert main(["hardy", "verify", str(cfg), "--tol", "1e-3"]) == 1  # the loosest tolerance


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "0", "-1e-9", "0.0011", "1"])
def test_hardy_verify_tolerance_outside_bounds_exits_2(tmp_path, tol, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_NOT_HARDY))
    assert main(["hardy", "verify", str(cfg), f"--tol={tol}"]) == 2  # '=' for a leading minus
    captured = capsys.readouterr()
    assert captured.err == f"error: --tol must lie in (0, 1e-3], got {float(tol)}\n"
    assert "overall" not in captured.out


def test_verify_refuses_an_infinite_tolerance():
    cfg = quantum.config_from_dict(_NOT_HARDY)
    assert not quantum.verify_hardy(cfg).passed
    with pytest.raises(ValueError, match="tol must be positive and finite, got inf"):
        quantum.verify_hardy(cfg, tol=math.inf)


def test_model_build_reports_exclusions(cfg_path, capsys, tmp_path):
    out_path = tmp_path / "m.json"
    assert main(["model", "build", cfg_path, "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "possible worlds: 13 of 16" in out
    assert out.endswith(f"model written to {out_path}\n")
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


def test_sr_table_exits_1_when_its_false_row_is_another(monkeypatch, capsys):
    # the command checks the table it prints: one false row, and that one is
    # RA, RA+ and RC without RC-
    rows = [
        SimpleNamespace(ra=r.ra, ra_plus=r.ra_plus, rc=r.rc, rc_minus=r.rc_minus,
                        sr=any((r.ra, r.ra_plus, r.rc, r.rc_minus)))
        for r in semantics.sr_truth_table()
    ]
    monkeypatch.setattr(semantics, "sr_truth_table", lambda: rows)
    assert main(["sr-table"]) == 1
    assert capsys.readouterr().out.endswith("false rows: 1 of 16\n")


def test_missing_file_exits_2(capsys):
    assert main(["check-theorem", "/nonexistent/model.json"]) == 2
    assert "file not found" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check-theorem", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: invalid JSON: ")


def test_schema_violation_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"epsilon": 1e-12}))
    assert main(["check-theorem", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_misspelt_epsilon_exits_2(model_path, tmp_path, capsys):
    with open(model_path) as fh:
        data = json.load(fh)
    data["epsilom"] = data.pop("epsilon")
    bad = tmp_path / "misspelt.json"
    bad.write_text(json.dumps(data))
    assert main(["check-theorem", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "error: unknown model file entry 'epsilom': only 'epsilon' and 'table' are read\n"
    )


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


@pytest.mark.parametrize("command", [["check-theorem"], ["proof", "audit"], ["eval"]])
def test_model_file_that_is_not_utf8_names_the_file(model_path, tmp_path, command, capsys):
    bad = tmp_path / "latin1.json"
    with open(model_path, "rb") as fh:  # 'epsilon' with a Latin-1 e-acute
        bad.write_bytes(fh.read().replace(b'"epsilon"', b'"\xe9psilon"'))
    argv = [*command, str(bad), "L1"] if command == ["eval"] else [*command, str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9")


@pytest.mark.parametrize("command", [["hardy", "verify"], ["model", "build"]])
def test_config_file_that_is_not_utf8_names_the_file(tmp_path, command, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main([*command, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("command", [["hardy", "verify"], ["check-theorem"]])
def test_a_number_too_long_to_read_names_the_file(tmp_path, command, capsys):
    # Python refuses to convert an integer of more than 4,300 digits; the
    # message names the file, not the Python call that lifts the limit
    bad = tmp_path / "long.json"
    digits = "1" * 5000
    bad.write_text(
        f'{{"theta": {digits}, "angles": {{"L1": 0, "L2": 0, "R1": 0, "R2": 0}}}}'
        if command == ["hardy", "verify"]
        else f'{{"epsilon": {digits}, "table": {{}}}}'
    )
    assert main([*command, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: a number has too many digits\n"


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100000 + "]" * 100000)
    assert main(["check-theorem", str(bad)]) == 2
    assert "JSON nests too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["epsilon", "cell"])
def test_huge_model_number_exits_2(model_path, tmp_path, where, capsys):
    with open(model_path) as fh:
        data = json.load(fh)
    if where == "epsilon":
        data["epsilon"] = 10**400
    else:
        data["table"]["L1,R1"]["++"] = 10**400
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(data))
    assert main(["check-theorem", str(bad)]) == 2
    assert "is out of range" in capsys.readouterr().err


def test_two_keys_for_one_choice_pair_exit_2(model_path, tmp_path, capsys):
    with open(model_path) as fh:
        data = json.load(fh)
    data["table"]["L1 , R1"] = data["table"]["L1,R1"]
    bad = tmp_path / "twice.json"
    bad.write_text(json.dumps(data))
    assert main(["proof", "audit", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "error: choice-pair keys 'L1,R1' and 'L1 , R1' name the same pair\n"
    )


def test_huge_config_number_exits_2(cfg_path, tmp_path, capsys):
    with open(cfg_path) as fh:
        data = json.load(fh)
    data["theta"] = 10**400
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps(data))
    assert main(["hardy", "verify", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: bad config file structure")


@pytest.mark.parametrize("command", [["hardy", "verify"], ["model", "build"]])
@pytest.mark.parametrize(
    "where, value, field",
    [
        ("theta", "0.3", "'theta'"),
        ("theta", True, "'theta'"),
        ("L2", "1e0", "angle 'L2'"),
        ("L1", True, "angle 'L1'"),
    ],
)
def test_config_value_that_is_not_a_number_exits_2(
    cfg_path, tmp_path, command, where, value, field, capsys
):
    with open(cfg_path) as fh:
        data = json.load(fh)
    if where == "theta":
        data["theta"] = value
    else:
        data["angles"][where] = value
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps(data))
    assert main([*command, str(bad)]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: bad config file structure: {field} is not a number\n",
    )


@pytest.mark.parametrize("command", [["hardy", "verify"], ["model", "build"]])
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda data: data.pop("angles"), "missing 'angles'"),
        (lambda data: data["angles"].pop("L2"), "missing angle 'L2'"),
        (lambda data: data.update(theta=10**400), "'theta' is out of range"),
        (
            lambda data: data.update(extra=1),
            "unknown entry 'extra'; only 'theta' and 'angles' are read",
        ),
        (
            lambda data: data["angles"].update(R3=1),
            "unknown angle 'R3'; only 'L1', 'L2', 'R1' and 'R2' are read",
        ),
    ],
    ids=["angles", "L2", "theta", "extra", "R3"],
)
def test_config_error_names_the_entry(cfg_path, tmp_path, command, edit, message, capsys):
    with open(cfg_path) as fh:
        data = json.load(fh)
    edit(data)
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps(data))
    assert main([*command, str(bad)]) == 2
    assert capsys.readouterr() == ("", f"error: bad config file structure: {message}\n")


@pytest.mark.parametrize("command", [["hardy", "verify"], ["model", "build"]])
def test_config_angles_of_the_wrong_type_exit_2(cfg_path, tmp_path, command, capsys):
    with open(cfg_path) as fh:
        data = json.load(fh)
    data["angles"] = list(data["angles"].values())
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps(data))
    assert main([*command, str(bad)]) == 2
    assert capsys.readouterr().err == (
        "error: bad config file structure: 'angles' must be a mapping, got list\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["check-theorem", "{dir}"],
        ["hardy", "find", "--out", "{dir}"],
        ["model", "build", "{cfg}", "--out", "{dir}"],
    ],
)
def test_directory_path_exits_2(tmp_path, cfg_path, argv, capsys):
    # a failed --out prints no success report
    assert main([a.format(dir=tmp_path, cfg=cfg_path) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot use {tmp_path}:")


@pytest.mark.parametrize(
    "argv",
    [["hardy", "find", "--out", ""], ["model", "build", "{cfg}", "--out", ""],
     ["check-theorem", ""], ["hardy", "verify", ""]],
    ids=["hardy-find", "model-build", "check-theorem", "hardy-verify"],
)
def test_empty_out_path_exits_2(tmp_path, monkeypatch, cfg_path, argv, capsys):
    # an empty path names no file: the command fails as for a missing one,
    # with no report and nothing written, and the message shows the name as ''
    monkeypatch.chdir(tmp_path)
    assert main([a.format(cfg=cfg_path) for a in argv]) == 2
    assert capsys.readouterr() == ("", "error: file not found: ''\n")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# `main()` with no arguments, the console script, in fresh interpreters: it
# ends the process without teardown outside development mode, so it cannot
# run inside the test process.

_BOOT = "import sys; from hardylogic.cli import main; sys.exit(main())"

# The boot line, with an exit handler that writes to both streams with no
# newline, so its text shows only if it runs before both are flushed, and a
# module global whose finalizer writes the file `torn-down`, which only
# interpreter teardown runs.
_MARKED_BOOT = """\
import atexit, sys
atexit.register(lambda: (sys.stdout.write("[atexit]"), sys.stderr.write("[atexit]")))
class Marker:
    def __del__(self, open=open):  # teardown may have cleared the builtins
        open("torn-down", "w").close()
marker = Marker()
""" + _BOOT

# The README walkthrough's ten commands, in order: each reads what those
# before it wrote.
_WALKTHROUGH = [
    ["hardy", "find", "--seed", "7", "--out", "cfg.json"],
    ["hardy", "verify", "cfg.json"],
    ["model", "build", "cfg.json", "--out", "model.json"],
    ["check-theorem", "model.json"],
    ["eval", "model.json", "L1 => L1"],
    ["eval", "model.json", "R1 []-> R1 & R1-", "--at", "L1,R2,-,+"],
    ["proof", "audit", "model.json"],
    ["proof", "audit", "model.json", "--json"],
    ["sr-table"],
    ["check-theorem", "no-such-model.json"],
]


def _spawn(argv, *flags, entry=("-c", _BOOT), cwd=None, stdout=subprocess.PIPE,
           shell_redirect=""):
    """`argv` through `entry` in a fresh interpreter, in development mode only
    if `flags` ask for it, with stdout buffered as it is in a pipeline."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for name in ("PYTHONDEVMODE", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    command = [sys.executable, *flags, *entry, *argv]
    if shell_redirect:
        command = ["sh", "-c", f'exec "$0" "$@" {shell_redirect}', *command]
    return subprocess.run(command, cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=60)


@pytest.mark.parametrize("flags, torn_down", [((), False), (("-X", "dev"), True)],
                         ids=["teardown-skipped", "dev-mode"])
def test_the_console_script_matches_main_in_process(tmp_path, monkeypatch, flags, torn_down, capsys):
    # each command's exit code, stdout, stderr and files are those of
    # `main(argv)` in-process; the exit handlers run before the final flush,
    # and teardown runs in development mode only
    here, there = tmp_path / "in-process", tmp_path / "process"
    here.mkdir()
    there.mkdir()
    monkeypatch.chdir(here)
    for argv in _WALKTHROUGH:
        code = main(argv)
        out, err = capsys.readouterr()
        done = _spawn(argv, *flags, entry=("-c", _MARKED_BOOT), cwd=there)
        assert (done.returncode, done.stdout, done.stderr) == (
            code, out + "[atexit]", err + "[atexit]"
        ), argv
        assert (there / "torn-down").exists() is torn_down, argv
        (there / "torn-down").unlink(missing_ok=True)
    for name in ("cfg.json", "model.json"):
        assert (there / name).read_bytes() == (here / name).read_bytes()


def test_main_reads_sys_argv_without_arguments():
    # through the console script's boot line, and as `python -m hardylogic.cli`
    for entry in (("-c", _BOOT), ("-m", "hardylogic.cli")):
        done = _spawn(["sr-table"], entry=entry)
        assert done.returncode == 0, entry
        assert done.stdout.endswith("false rows: 1 of 16\n"), entry


_MODES = pytest.mark.parametrize("flags", [(), ("-X", "dev"), ("-X", "dev", "-W", "error")],
                                 ids=["teardown-skipped", "dev-mode", "dev-mode-warnings-fail"])


@_MODES
def test_a_closed_stdout_pipe_exits_2_with_one_message(flags):
    # the table fits stdout's buffer, so the reader is found gone only at the
    # final flush, which reports it as a handler's OSError is; in development
    # mode too, where shutdown's own flush then finds nothing left to write
    read, write = os.pipe()
    os.close(read)
    try:
        done = _spawn(["sr-table"], *flags, stdout=write)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (2, "error: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@_MODES
def test_a_full_stdout_exits_2_with_one_message(flags):
    with open("/dev/full", "w") as full:
        done = _spawn(["sr-table"], *flags, stdout=full)
    assert (done.returncode, done.stderr) == (2, "error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("fd", [1, 2])
def test_a_stream_closed_at_start_is_left_alone(fd):
    # the process starts without that stream, so Python sets it to None
    done = _spawn(["sr-table"], shell_redirect=f"{fd}>&-")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.endswith("false rows: 1 of 16\n") is (fd == 2)


@pytest.mark.parametrize(
    "exc", [OSError(errno.ENOSPC, "No space left on device"), BrokenPipeError(errno.EPIPE, "Broken pipe")]
)
def test_os_error_without_a_path_exits_2(tmp_path, monkeypatch, exc, capsys):
    def fail(cfg, path):
        raise exc

    monkeypatch.setattr("hardylogic.quantum.save_config", fail)
    assert main(["hardy", "find", "--out", str(tmp_path / "cfg.json")]) == 2
    assert capsys.readouterr().err == f"error: [Errno {exc.errno}] {exc.strerror}\n"


def test_search_error_exits_2(monkeypatch, capsys):
    r = quantum.HARDY_REPORT
    failing = PredictionReport(
        1.0, r.c2, r.c3, r.c4, r.marginal_l1_minus, r.tolerance, r.positivity_floor
    )
    monkeypatch.setattr(quantum, "HARDY_REPORT", failing)
    assert main(["hardy", "find"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the closed-form optimum failed verification")
    assert "Traceback" not in err


def test_find_prints_the_report_built_at_import_and_verifies_nothing(monkeypatch, capsys):
    # the optimum was verified once, at import; the command verifies nothing again
    calls, verify_hardy = [], quantum.verify_hardy
    monkeypatch.setattr(quantum, "verify_hardy", lambda *args, **kw: calls.append(args))
    assert main(["hardy", "find"]) == 0
    assert calls == []
    lines = capsys.readouterr().out.splitlines()  # theta and four angles, then the report
    assert lines[5:] == verify_hardy(quantum.HARDY_CONFIG).summary().splitlines()


def test_find_has_no_grid_option(capsys):
    # --grid is gone: a usage error, as for any unknown option, and no report
    with pytest.raises(SystemExit) as exc:
        main(["hardy", "find", "--grid", "5"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "usage: hardylogic hardy find [-h]\nhardylogic: error: unknown option '--grid'\n"


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


def test_empty_world_literal_exits_2(model_path, capsys):
    # an empty --at is a literal to parse, not an absent option
    assert main(["eval", model_path, "L1 -> L1", "--at", ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: world literal needs 4 comma-separated fields, got ''\n"


def test_unknown_flag_rejected(model_path):
    with pytest.raises(SystemExit) as exc:
        main(["check-theorem", model_path, "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "missing command"),
        (["frobnicate"], "unknown command 'frobnicate'"),
        ([""], "unknown command ''"),
        (["proof"], "missing command"),
        (["proof", ""], "unknown command ''"),
        (["proof", "check"], "unknown command 'check'"),
        (["proof", "audit"], "takes 1 argument(s), got 0"),
        (["eval", "{model}"], "takes 2 argument(s), got 1"),
        (["check-theorem", "{model}", "extra"], "takes 1 argument(s), got 2"),
        (["sr-table", "--"], "unknown option '--'"),  # no `--` separator
        (["proof", "audit", "{model}", "--js"], "unknown option '--js'"),  # no abbreviation
        (["proof", "audit", "{model}", "--json=yes"], "unknown option '--json=yes'"),
        (["hardy", "find", "--seed"], "option --seed needs a value"),
        (["hardy", "find", "--seed", "x"], "option --seed: invalid value 'x'"),
        (["hardy", "verify", "{cfg}", "--tol", "tiny"], "option --tol: invalid value 'tiny'"),
        (["hardy", "verify", "{cfg}", "--tol="], "option --tol: invalid value ''"),
        (["eval", "{model}", "L1", "--quantifier", "none"],
         "option --quantifier: invalid value 'none'"),
        (["eval", "{model}", "L1", "--at", "--quantifier", "some"], "option --at needs a value"),
    ],
)
def test_usage_error_prints_usage_and_exits_2(argv, message, cfg_path, model_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([a.format(cfg=cfg_path, model=model_path) for a in argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: hardylogic")
    assert "error: " + message in err


# what each level's help names: the commands below a group, the
# positionals and options of a command
_HELP_NAMES = {
    (): ["hardy find", "hardy verify", "model build", "eval", "check-theorem", "proof audit",
         "sr-table"],
    ("hardy",): ["find", "verify"],
    ("hardy", "find"): ["--seed SEED", "--out OUT"],
    ("hardy", "verify"): ["CONFIG", "--tol TOL"],
    ("model",): ["build"],
    ("model", "build"): ["CONFIG", "--epsilon EPSILON", "--out OUT"],
    ("eval",): ["MODEL", "FORMULA", "--at AT", "--quantifier QUANTIFIER"],
    ("check-theorem",): ["MODEL"],
    ("proof",): ["audit"],
    ("proof", "audit"): ["MODEL", "--json"],
    ("sr-table",): [],
}


@pytest.mark.parametrize("words", list(_HELP_NAMES))
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_everything_at_its_level(words, flag, capsys):
    assert set(_COMMANDS) < set(_HELP_NAMES)  # a new command gets a row above
    with pytest.raises(SystemExit) as exc:
        main([*words, flag])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith(" ".join(("usage: hardylogic", *words, "[-h]")))
    for name in [*_HELP_NAMES[words], "-h, --help"]:
        assert name in out, out
    for key, (_, text, _, _) in _COMMANDS.items():  # below a group, each command's help line
        if len(key) > len(words) and key[:len(words)] == words:
            assert text in out, key


def test_help_after_arguments_and_as_a_value(model_path, capsys):
    # -h among the arguments prints the help; as the value of --at it is a world literal
    with pytest.raises(SystemExit) as exc:
        main(["eval", model_path, "L1", "-h"])
    assert exc.value.code == 0
    assert "--quantifier" in capsys.readouterr().out
    assert main(["eval", model_path, "L1", "--at", "-h"]) == 2
    assert capsys.readouterr().err == (
        "error: world literal needs 4 comma-separated fields, got '-h'\n"
    )


def test_find_deterministic_given_seed(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["hardy", "find", "--seed", "7", "--out", str(p1)]) == 0
    assert capsys.readouterr().out.endswith(f"configuration written to {p1}\n")
    assert main(["hardy", "find", "--seed", "7", "--out", str(p2)]) == 0
    assert p1.read_text() == p2.read_text()


# ---------------------------------------------------------------------------
# Fuzz: any argv, formula, world literal or JSON body gives exit 0, 1 or 2
# and never a traceback.

_WEIRD = st.sampled_from(
    [math.nan, math.inf, -math.inf, None, True, "0.25", [], {}, -1, 2, 10**400, 0]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["table", "epsilon", "theta", "angles", "L1,R1", "++"])
                      | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_RAW = st.sampled_from([b"", b"{", b"[" * 5000 + b"]" * 5000, b"\xff\xfe", b"NaN", b"null", b'"x"'])
_FORMULA = st.one_of(
    st.lists(
        st.sampled_from(["L1", "L2", "R1", "R2", "L1+", "L2-", "R1-", "R2+", "&", "|", "~",
                         "->", "=>", "[]->", "(", ")", " ", "X", "<>"]),
        max_size=12,
    ).map("".join),
    st.text(max_size=12),
)
_WORLD = st.one_of(
    st.lists(st.sampled_from(["L1", "L2", "R1", "R2", "+", "-", "x", ""]), max_size=5).map(",".join),
    st.text(max_size=8),
)
_NUMBER_TEXT = st.sampled_from(["0", "1e-9", "-1", "nan", "inf", "1e400", "x", "0.001", "1e-3"])
_WORDS = st.lists(
    st.sampled_from(["hardy", "find", "verify", "model", "build", "eval", "check-theorem",
                     "proof", "audit", "sr-table", "--seed", "--grid", "--tol", "--epsilon",
                     "--at", "--quantifier", "--json", "every", "some", "-h", "1", "-1", "nan"])
    | st.text(max_size=6),
    max_size=6,
)


def _leaves(data):
    """Every (container, key) position in a nested JSON value."""
    if isinstance(data, dict):
        items = list(data.items())
    elif isinstance(data, list):
        items = list(enumerate(data))
    else:
        items = []
    for key, value in items:
        yield (data, key)
        yield from _leaves(value)


def _body(draw, valid):
    kind = draw(st.sampled_from(["mutated", "mutated", "random", "raw"]))  # mostly near-valid
    if kind == "raw":
        return draw(_RAW)
    if kind == "random":
        return json.dumps(draw(_JSON)).encode()
    data = copy.deepcopy(valid)
    for _ in range(draw(st.integers(0, 3))):
        spots = list(_leaves(data))
        if not spots:
            break
        container, key = draw(st.sampled_from(spots))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(_WEIRD)
    return json.dumps(data).encode()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory, cfg_path, model_path):
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    with open(model_path) as fh:
        model = json.load(fh)
    return str(tmp_path_factory.mktemp("fuzz")), cfg, model


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cli_fuzz_exits_cleanly(fuzz_dir, data):
    where, valid_cfg, valid_model = fuzz_dir
    draw = data.draw
    cfg, model = os.path.join(where, "cfg.json"), os.path.join(where, "model.json")
    with open(cfg, "wb") as fh:
        fh.write(_body(draw, valid_cfg))
    with open(model, "wb") as fh:
        fh.write(_body(draw, valid_model))
    out = draw(st.sampled_from([os.path.join(where, "out.json"), where,
                                os.path.join(where, "no", "out.json")]))
    cfg = draw(st.sampled_from([cfg, cfg, where, os.path.join(where, "missing.json")]))
    model = draw(st.sampled_from([model, model, where, os.path.join(where, "missing.json")]))
    command = draw(st.sampled_from(["find", "verify", "build", "eval", "theorem", "audit",
                                    "sr-table", "words"]))
    if command == "find":
        argv = ["hardy", "find", "--seed", draw(_NUMBER_TEXT)]
    elif command == "verify":
        argv = ["hardy", "verify", cfg, "--tol", draw(_NUMBER_TEXT)]
    elif command == "build":
        argv = ["model", "build", cfg, "--epsilon", draw(_NUMBER_TEXT)]
    elif command == "eval":
        argv = ["eval", model, draw(_FORMULA), "--at", draw(_WORLD),
                "--quantifier", draw(st.sampled_from(["every", "some", "none"]))]
        argv = argv[: draw(st.sampled_from([3, 5, 7]))]
    elif command == "theorem":
        argv = ["check-theorem", model]
    elif command == "audit":
        argv = ["proof", "audit", model, "--json"][: draw(st.sampled_from([3, 4]))]
    elif command == "sr-table":
        argv = ["sr-table"]
    else:
        argv = draw(_WORDS)
    if command in ("find", "build") and draw(st.booleans()):
        argv += ["--out", out]

    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(where)  # an --out among random words writes here
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # usage errors and --help
                code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
