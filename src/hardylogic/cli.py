"""Command-line entry point.

The subcommands, their arguments and their help lines are one table,
`_COMMANDS`, which `hardylogic --help` prints.  Exit code 0 means every
check the command performs passed; bad inputs (missing files, schema or
formula errors) exit 2 with a message on the error stream.

The arguments are read from `_COMMANDS` and not by argparse, so no
command loads `argparse`, `gettext` or `locale`.  A command's words come
first, then its positionals and options in any order.  Option names are
exact, written `--name value` or `--name=value`; an option that takes a
value takes the next token unless that token starts with `--`, so
`--tol -1` reaches the range check on `--tol`.  `-h` or `--help` at any
level prints that level's help and exits 0.  Any other malformed argv
prints a usage line and an error to the error stream and exits 2.

`main()` with no arguments is the process entry point: the console
script and `sys.exit(main())`.  Once the command returns it runs the
exit handlers, flushes stdout and stderr and ends the process, so module
teardown and the final garbage collection never run; except in
development mode (`-X dev`), where it returns the exit code and
teardown's checks run.  In-process callers pass `argv`, and get the
exit code back.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
from types import SimpleNamespace

# The layers only some commands run (quantum, semantics, proof) are
# imported inside their handlers, after the files they read are loaded,
# so a command loads no layer it does not run.
from . import worlds
from .formula import parse

USAGE_ERROR = 2


def _cmd_hardy_find(args) -> int:
    from . import quantum

    params = quantum.SearchParams(seed=args.seed, grid=args.grid)
    try:
        cfg = quantum.find_hardy(params)
    except quantum.SearchError as exc:  # main catches ValueError, so needs no quantum
        raise ValueError(str(exc)) from exc
    report = quantum.HARDY_REPORT  # find_hardy returns the constant this report verified
    if args.out is not None:  # written first, so a path that fails prints no report
        quantum.save_config(cfg, args.out)
    print(f"theta    = {cfg.theta!r}")
    for setting in ("L1", "L2", "R1", "R2"):
        print(f"angle {setting} = {cfg.angle(setting)!r}")
    print(report.summary())
    if args.out is not None:
        print(f"configuration written to {args.out}")
    return 0  # a report that fails raised SearchError above


def _cmd_hardy_verify(args) -> int:
    from . import quantum

    if not 0 < args.tol <= 1e-3:  # NaN fails too; a cell above 1e-3 is no zero cell
        raise ValueError(f"--tol must lie in (0, 1e-3], got {args.tol}")
    cfg = quantum.load_config(args.config)
    report = quantum.verify_hardy(cfg, tol=args.tol)
    print(report.summary())
    print(f"overall: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_model_build(args) -> int:
    from . import quantum

    cfg = quantum.load_config(args.config)
    table = quantum.export_table(cfg)
    model = worlds.build_model(table, epsilon=args.epsilon)
    if args.out is not None:  # written first, so a path that fails prints no report
        worlds.save_model(model, args.out)
    print(f"possible worlds: {model.mask.bit_count()} of 16 at epsilon={args.epsilon:g}")
    for w in model.excluded_in_order():
        print(f"excluded: {w}")
    if args.out is not None:
        print(f"model written to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model = worlds.load_model(args.model)
    f = parse(args.formula)
    from . import semantics
    opts = semantics.CfOptions(quantifier=args.quantifier)
    if args.at is not None:
        world = worlds.parse_world(args.at)
        value = semantics.eval_at(model, world, f, opts)
        print("true" if value else "false")
        return 0 if value else 1
    result = semantics.holds_globally(model, f, opts)
    print("true" if result.holds else "false")
    if not result.holds:
        print(f"witness: {result.witness}")
    return 0 if result.holds else 1


def _cmd_check_theorem(args) -> int:
    model = worlds.load_model(args.model)
    from . import semantics
    report = semantics.check_theorem(model)
    print(report.render())
    return 0 if report.confirmed else 1


def _cmd_proof_audit(args) -> int:
    model = worlds.load_model(args.model)
    from . import proof
    report = proof.audit(model)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    # a refuted line 6 already needs every rule valid
    return 0 if report.final.line5_true and report.final.line6_refuted else 1


def _cmd_sr_table(args) -> int:
    from . import semantics

    rows = semantics.sr_truth_table()
    fmt = {True: "t", False: "f"}
    print("RA  RA+  RC  RC-  |  SR")
    false_rows = 0
    for row in rows:
        if not row.sr:
            false_rows += 1
        print(
            f"{fmt[row.ra]:<3} {fmt[row.ra_plus]:<4} {fmt[row.rc]:<3} "
            f"{fmt[row.rc_minus]:<4} |  {fmt[row.sr]}"
        )
    print(f"false rows: {false_rows} of {len(rows)}")
    expected_false = [r for r in rows if r.ra and r.ra_plus and r.rc and not r.rc_minus]
    ok = false_rows == 1 and expected_false and not expected_false[0].sr
    return 0 if ok else 1


# Each command's words map to (handler, help, positionals, options).  The
# positionals are dest names, shown upper-cased.  An option maps its dest,
# its name without the leading `--`, to (converter, default, help).  The
# converter is `int`, `float` or `str`, a tuple of the accepted values, or
# `bool` for a flag, which takes no value.
_HELP = ("-h", "--help")
_TOP = "possible-worlds workbench for two-region counterfactual reasoning"
_COMMANDS = {
    ("hardy", "find"): (_cmd_hardy_find, "print the optimal passing configuration", (), {
        "seed": (int, 0, "accepted for compatibility; no effect"),
        "grid": (int, 96, "accepted for compatibility; no effect"),
        "out": (str, None, "write the configuration to this file"),
    }),
    ("hardy", "verify"): (_cmd_hardy_verify, "verify a configuration file", ("config",), {
        "tol": (float, 1e-9, "zero-cell tolerance, in (0, 1e-3] (default 1e-9)"),
    }),
    ("model", "build"): (
        _cmd_model_build, "build a possibility model from a configuration", ("config",), {
            "epsilon": (float, worlds.DEFAULT_EPSILON, "possibility threshold (default 1e-12)"),
            "out": (str, None, "write the model to this file"),
        }),
    ("eval",): (
        _cmd_eval, "evaluate a formula on a model, e.g. 'L2 => (R2 & R2+ -> (R1 []-> R1 & R1-))'",
        ("model", "formula"), {
            "at": (str, None, "world literal 'L1,R2,-,+'; omit for global evaluation"),
            "quantifier": (("every", "some"), "every",
                           "counterfactual quantifier, every or some (default every)"),
        }),
    ("check-theorem",): (
        _cmd_check_theorem, "check both conclusion lines on a model", ("model",), {}),
    ("proof", "audit"): (
        _cmd_proof_audit, "audit the built-in derivation against a model", ("model",), {
            "json": (bool, False, "emit the report as JSON"),
        }),
    ("sr-table",): (_cmd_sr_table, "print the sixteen-row truth table", (), {}),
}


def _stop(words, error=None):
    """Print the help of the level `words` names and exit 0; or, given an
    `error`, print that level's usage line and the error on stderr and exit 2."""
    _, text, positionals, options = _COMMANDS.get(words, (None, _TOP, ("...",), {}))
    usage = " ".join(("usage: hardylogic", *words, "[-h]", *map(str.upper, positionals)))
    if error:
        print(usage, "hardylogic: error: " + error, sep="\n", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    print(usage, "", text, "", "  -h, --help                 show this help and exit", sep="\n")
    for dest, (convert, _, line) in options.items():
        print("  %-26s %s" % ("--" + dest if convert is bool else f"--{dest} {dest.upper()}", line))
    for key, entry in _COMMANDS.items():  # below a group, its commands
        if key[:len(words)] == words != key:
            print("  %-26s %s" % (" ".join(key), entry[1]))
    raise SystemExit(0)


def _parse(argv):
    """The handler `argv` names and its arguments, read from `_COMMANDS`."""
    words, rest, given = (), list(argv), []
    while words not in _COMMANDS:
        word = rest.pop(0) if rest else None
        if word in _HELP:
            _stop(words)
        if not any(key[:len(words) + 1] == (*words, word) for key in _COMMANDS):
            _stop(words, "missing command" if word is None else f"unknown command {word!r}")
        words += (word,)
    handler, _, positionals, options = _COMMANDS[words]
    values = {dest: spec[1] for dest, spec in options.items()}
    while rest:
        token = rest.pop(0)
        dest, eq, value = token[2:].partition("=")
        convert = options.get(dest, (None,))[0]
        if token in _HELP:
            _stop(words)
        elif token[:2] != "--":
            given.append(token)
        elif convert is None or convert is bool and eq:
            _stop(words, f"unknown option {token!r}")
        elif convert is bool:
            values[dest] = True
        elif not eq and (not rest or rest[0][:2] == "--"):
            _stop(words, f"option --{dest} needs a value")
        else:
            value = value if eq else rest.pop(0)
            try:  # a tuple of choices: `index` raises ValueError for any other value
                values[dest] = convert(value) if callable(convert) else convert[convert.index(value)]
            except ValueError:
                _stop(words, f"option --{dest}: invalid value {value!r}")
    if len(given) != len(positionals):
        _stop(words, f"takes {len(positionals)} argument(s), got {len(given)}")
    values.update(zip(positionals, given))
    return handler, SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    """Run the command `argv` names and return its exit code.

    In-process callers pass `argv`.  Without it `main` is the process entry
    point: it reads `sys.argv[1:]` and ends the process through `_end` once
    the command returns, except in development mode (`-X dev`), where it
    returns the code so that teardown's ResourceWarning and finalizer
    checks still run.
    """
    code = _run(sys.argv[1:] if argv is None else argv)
    if argv is None and not sys.flags.dev_mode:
        _end(code)
    return code


def _run(argv):
    """The exit code of the command `argv` names; a bad input is reported on stderr."""
    handler, args = _parse(argv)
    try:
        return handler(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
    except OSError as exc:
        if exc.filename is None:  # a broken pipe or a full disk, say
            print(f"error: {exc}", file=sys.stderr)
        else:
            print(f"error: cannot use {exc.filename}: {exc.strerror}", file=sys.stderr)
    except ValueError as exc:  # bad formula, table, world or value
        print(f"error: {exc}", file=sys.stderr)
    return USAGE_ERROR


def _end(code):
    """End the process with `code` as interpreter shutdown would, less module
    teardown and the final collection, which no command needs: none starts
    a thread, and each writes its files inside `with`.

    The exit handlers run, then stdout and stderr are flushed.  A stdout
    that cannot be flushed (a closed pipe, say) is reported as a handler's
    `OSError` is, with exit code 2; a failed stderr flush is ignored, as
    shutdown ignores it.
    """
    atexit._run_exitfuncs()
    try:
        if sys.stdout is not None:  # None if the process started without it
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = USAGE_ERROR
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
