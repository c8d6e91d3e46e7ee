"""Single-site mutation testing of the package against chosen tests.

Opt-in: pytest does not collect this file (it is not named `test_*`),
and no test run or CI step calls it.  Run it from anywhere:

    python tests/mutate.py proof --functions _check_prediction,_named_cell \\
        -- tests/test_proof.py

Each mutant changes one site of one module in `src/hardylogic`: a
comparison flipped (`==`/`!=`, `<`/`<=`, `>`/`>=`, `is`/`is not`,
`in`/`not in`), `and`/`or`, `&`/`|`, `+`/`-` or `<<`/`>>` swapped, a
`not` dropped, a call made as a statement dropped, or an int bumped by
one.  Type annotations are left alone.  Each mutant runs the pytest
arguments given after `--` (default `tests`), with
`-x -q -p no:cacheprovider` before them, from the repository root
against a copy of `src/` that holds it.  A mutant whose run passes
survives.  The unmutated copy runs first and must pass.

`--functions` limits the sites to those functions, by qualified name
(`Class.method`, `outer.inner`); a function takes its nested functions
with it.  Without it every site is a candidate, code outside functions
included (`<module>`, or the class's name).  `--sample N` runs N
candidates drawn with `--seed`; 0, the default, runs them all.

Mutants known to change no behaviour are listed in `EQUIVALENT` and not
run.  A mutant is named by its module, function, mutation and the
source text of the expression it changes, not by line number, so the
list survives edits elsewhere in the module.  The exit code is 1 if an
unlisted mutant survives, else 0.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_COMPARE = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_BINARY = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
}
_BOOL = {ast.And: ast.Or, ast.Or: ast.And}

# A row's total less 1.0 is a multiple of 2**-53 (or at least 0.5 away), and
# DISTRIBUTION_TOL, the double nearest 1e-9, is not one, so no row sits on
# the fast test's bound
_ON_THE_BOUND = "no row total lies exactly DISTRIBUTION_TOL from 1.0"

# cos(theta) comes within 1e-12 of zero only near an odd multiple of pi/2,
# where it moves in steps of 2e-16 or more from one float theta to the
# next, so no known theta makes it exactly 1e-12
_COS_BOUND = "no float theta is known whose cos is exactly 1e-12"

# `hardy find` accepts --seed for compatibility and ignores it, and the help
# does not show its default
_NO_EFFECT = "the default of --seed, an option that has no effect"

# (module, function, mutation, expression) -> why the mutant changes no behaviour
EQUIVALENT = {
    **{
        ("worlds", "_accepted", "LtE->Lt", f"abs({row} - 1.0) <= DISTRIBUTION_TOL"): _ON_THE_BOUND
        for row in ("a + b + c + d", "e + f + g + h", "i + j + k + l", "m + n + o + p")
    },
    ("quantum", "_project", "Lt->LtE", "abs(c) < 1e-12"): _COS_BOUND,
    ("cli", "<module>", "int+1", "0"): _NO_EFFECT,
}


class _Sites(ast.NodeTransformer):
    """Walks a module in a fixed order, listing its mutable sites; mutates the `target`-th.

    Each site is (function, mutation, expression, line).  Only sites in
    `functions` count, or every site if it is empty.
    """

    def __init__(self, functions=(), target=None):
        self.functions, self.target = functions, target
        self.sites, self.scope, self.function = [], [], None

    def _hit(self, node, mutation) -> bool:
        where = self.function or ".".join(self.scope) or "<module>"
        if self.functions and not any(
            where == f or where.startswith(f + ".") for f in self.functions
        ):
            return False
        self.sites.append((where, mutation, ast.unparse(node), node.lineno))
        return len(self.sites) - 1 == self.target

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        node.decorator_list = [self.visit(d) for d in node.decorator_list]
        node.body = [self.visit(stmt) for stmt in node.body]
        self.scope.pop()
        return node

    def visit_FunctionDef(self, node):  # annotations and `returns` are not visited
        outer, prefix = self.function, self.function or ".".join(self.scope)
        self.function = f"{prefix}.{node.name}" if prefix else node.name
        node.decorator_list = [self.visit(d) for d in node.decorator_list]
        node.args.defaults = [self.visit(d) for d in node.args.defaults]
        node.args.kw_defaults = [d and self.visit(d) for d in node.args.kw_defaults]
        node.body = [self.visit(stmt) for stmt in node.body]
        self.function = outer
        return node

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node):
        if node.value is not None:
            node.value = self.visit(node.value)
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            swap = _COMPARE[type(op)]
            if self._hit(node, f"{type(op).__name__}->{swap.__name__}"):
                node.ops[i] = swap()
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        swap = _BOOL[type(node.op)]
        if self._hit(node, f"{type(node.op).__name__}->{swap.__name__}"):
            node.op = swap()
        return node

    def visit_BinOp(self, node):
        self.generic_visit(node)
        swap = _BINARY.get(type(node.op))
        if swap is not None and self._hit(node, f"{type(node.op).__name__}->{swap.__name__}"):
            node.op = swap()
        return node

    visit_AugAssign = visit_BinOp

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self._hit(node, "drop-not"):
            return node.operand
        return node

    def visit_Expr(self, node):  # a call whose value is unused: `print(...)`, `fh.flush()`
        self.generic_visit(node)
        if isinstance(node.value, ast.Call) and self._hit(node.value, "drop-call"):
            return ast.copy_location(ast.Pass(), node)
        return node

    def visit_Constant(self, node):
        if type(node.value) is int and self._hit(node, "int+1"):
            return ast.copy_location(ast.Constant(node.value + 1), node)
        return node


def _source(module: str) -> Path:
    return SRC / "hardylogic" / f"{module.rpartition('.')[2]}.py"


def _mutant(module: str, functions, target=None):
    """The module's sites, and its source with the `target`-th site mutated (or none)."""
    walker = _Sites(functions, target)
    tree = walker.visit(ast.parse(_source(module).read_text(encoding="utf-8")))
    return walker.sites, ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def _run(copy: Path, pytest_args, timeout) -> tuple[bool, float]:
    """Whether the tests pass against the copy of `src/`, and how long they took."""
    env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return done.returncode == 0, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("modules", nargs="+", help="modules of the package, e.g. proof worlds")
    parser.add_argument("--functions", default="", help="comma-separated qualified names")
    parser.add_argument("--sample", type=int, default=0, help="mutants to draw, 0 for all")
    parser.add_argument("--seed", type=int, default=0)
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    pytest_args = argv[split + 1:] or ["tests"]
    functions = tuple(f for f in args.functions.split(",") if f)

    candidates = []
    for module in args.modules:
        sites, _ = _mutant(module, functions)
        candidates += [(module, i, site) for i, site in enumerate(sites)]
    listed = [c for c in candidates if (c[0], *c[2][:3]) in EQUIVALENT]
    runnable = [c for c in candidates if (c[0], *c[2][:3]) not in EQUIVALENT]
    if args.sample:
        size = min(args.sample, len(runnable))
        picked = random.Random(args.seed).sample(range(len(runnable)), size)
        runnable = [runnable[i] for i in sorted(picked)]

    killed = survived = 0
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        for module in args.modules:  # the unmutated modules as the mutants are written
            _, text = _mutant(module, functions)
            (copy / "hardylogic" / _source(module).name).write_text(text, encoding="utf-8")
        ok, baseline = _run(copy, pytest_args, None)
        if not ok:
            print("the tests fail on the unmutated copy", file=sys.stderr)
            return 2
        for module, index, (where, mutation, text, line) in runnable:
            path = copy / "hardylogic" / _source(module).name
            original = path.read_text(encoding="utf-8")
            path.write_text(_mutant(module, functions, index)[1], encoding="utf-8")
            passed, _ = _run(copy, pytest_args, max(60.0, 10 * baseline))
            path.write_text(original, encoding="utf-8")
            status = "SURVIVED" if passed else "killed"
            print(f"{status:8}  {module}.{where}  {mutation}  `{text}`  (line {line})", flush=True)
            survived += passed
            killed += not passed
    print(
        f"{len(candidates)} mutants: {len(runnable)} run, {killed} killed, "
        f"{survived} survived; {len(listed)} listed as equivalent, not run"
    )
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
