"""Command-line entry point.

Subcommands:
    hardy find       the optimal configuration meeting the four constraints
    hardy verify     check a configuration file against the constraints
    model build      turn a configuration into a possibility model file
    eval             evaluate a formula at a world or globally
    check-theorem    both conclusion lines on a model, with witness
    proof audit      full line-by-line audit, text or JSON
    sr-table         the sixteen-row truth table behind the dependence claim

Exit code 0 means every check the command performs passed; bad inputs
(missing files, schema or formula errors) exit 2 with a message on the
error stream.
"""

from __future__ import annotations

import argparse
import json
import sys

# The layers only some commands run (quantum, semantics, proof) are
# imported inside their handlers, after the files they read are loaded,
# so a command loads no layer it does not run.
from . import worlds
from .formula import parse

USAGE_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hardylogic",
        description="possible-worlds workbench for two-region counterfactual reasoning",
    )
    sub = top.add_subparsers(dest="command", required=True)

    hardy = sub.add_parser("hardy", help="configuration optimum and verification")
    hardy_sub = hardy.add_subparsers(dest="hardy_command", required=True)
    find = hardy_sub.add_parser("find", help="print the optimal passing configuration")
    find.add_argument("--seed", type=int, default=0, help="accepted for compatibility; no effect")
    find.add_argument("--grid", type=int, default=96, help="accepted for compatibility; no effect")
    find.add_argument("--out", metavar="CFG.json", help="write the configuration here")
    find.set_defaults(handler=_cmd_hardy_find)
    verify = hardy_sub.add_parser("verify", help="verify a configuration file")
    verify.add_argument("config", metavar="CFG.json")
    verify.add_argument("--tol", type=float, default=1e-9,
                        help="zero-cell tolerance, in (0, 1e-3] (default 1e-9)")
    verify.set_defaults(handler=_cmd_hardy_verify)

    model = sub.add_parser("model", help="model construction")
    model_sub = model.add_subparsers(dest="model_command", required=True)
    build = model_sub.add_parser("build", help="build a possibility model from a configuration")
    build.add_argument("config", metavar="CFG.json")
    build.add_argument("--epsilon", type=float, default=worlds.DEFAULT_EPSILON,
                       help="possibility threshold (default 1e-12)")
    build.add_argument("--out", metavar="MODEL.json", help="write the model here")
    build.set_defaults(handler=_cmd_model_build)

    ev = sub.add_parser("eval", help="evaluate a formula on a model")
    ev.add_argument("model", metavar="MODEL.json")
    ev.add_argument("formula", help="formula text, e.g. 'L2 => (R2 & R2+ -> (R1 []-> R1 & R1-))'")
    ev.add_argument("--at", metavar="W", help="world literal 'L1,R2,-,+'; omit for global evaluation")
    ev.add_argument("--quantifier", choices=("every", "some"), default="every",
                    help="counterfactual quantifier (default every)")
    ev.set_defaults(handler=_cmd_eval)

    thm = sub.add_parser("check-theorem", help="check both conclusion lines on a model")
    thm.add_argument("model", metavar="MODEL.json")
    thm.set_defaults(handler=_cmd_check_theorem)

    pr = sub.add_parser("proof", help="derivation auditing")
    pr_sub = pr.add_subparsers(dest="proof_command", required=True)
    aud = pr_sub.add_parser("audit", help="audit the built-in derivation against a model")
    aud.add_argument("model", metavar="MODEL.json")
    aud.add_argument("--json", action="store_true", help="emit the report as JSON")
    aud.set_defaults(handler=_cmd_proof_audit)

    table = sub.add_parser("sr-table", help="print the sixteen-row truth table")
    table.set_defaults(handler=_cmd_sr_table)
    return top


def _cmd_hardy_find(args) -> int:
    from . import quantum

    params = quantum.SearchParams(seed=args.seed, grid=args.grid)
    try:
        cfg = quantum.find_hardy(params)
    except quantum.SearchError as exc:  # main catches ValueError, so needs no quantum
        raise ValueError(str(exc)) from exc
    report = quantum.HARDY_REPORT  # find_hardy returns the constant this report verified
    if args.out:  # written first, so a path that fails prints no report
        quantum.save_config(cfg, args.out)
    print(f"theta    = {cfg.theta!r}")
    for setting in ("L1", "L2", "R1", "R2"):
        print(f"angle {setting} = {cfg.angle(setting)!r}")
    print(report.summary())
    if args.out:
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
    if args.out:  # written first, so a path that fails prints no report
        worlds.save_model(model, args.out)
    print(f"possible worlds: {model.mask.bit_count()} of 16 at epsilon={args.epsilon:g}")
    for w in model.excluded_in_order():
        print(f"excluded: {w}")
    if args.out:
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


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
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


if __name__ == "__main__":
    sys.exit(main())
