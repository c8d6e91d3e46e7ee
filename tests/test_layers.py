"""Imports only go down the package layers.

    formula <- worlds <- {quantum, semantics} <- proof <- cli

A module may import a module of a lower layer, never one of its own
layer or above, so the facts the layers share (the prediction cells in
`worlds`, the conclusion lines in `semantics`) have one home that every
reader can reach without a cycle.

`__init__` imports no package module: its `_EXPORTS` table names the
module that defines each public name, and a module `__getattr__` imports
that module on first use.  So `import hardylogic` loads nothing, and each
command of the command line loads only the layers it runs, and none of
`dataclasses`, `inspect`, `argparse`, `gettext` and `locale`; the tests
below check both in fresh interpreters, and that the package still binds
every name it exported when it imported every layer eagerly.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hardylogic
from hardylogic import build_model, export_table, find_hardy, save_config, save_model

PACKAGE = Path(hardylogic.__file__).parent

LAYER = {"formula": 0, "worlds": 1, "quantum": 2, "semantics": 2, "proof": 3, "cli": 4}


def _package_imports(path: Path) -> set[str]:
    """The package modules a source file imports, by bare name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:  # from .worlds import World
                found.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "hardylogic":  # from . import proof
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("hardylogic."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("hardylogic.")
            )
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER)


@pytest.mark.parametrize("module", sorted(LAYER))
def test_imports_only_go_down(module):
    imported = _package_imports(PACKAGE / f"{module}.py")
    assert imported <= set(LAYER), f"{module} imports unknown modules {imported - set(LAYER)}"
    upward = sorted(m for m in imported if LAYER[m] >= LAYER[module])
    assert not upward, f"{module} (layer {LAYER[module]}) imports {upward}"


def test_the_reader_sees_upward_imports(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from . import proof, cli\n"
        "from .semantics import truth_mask\n"
        "from hardylogic.quantum import find_hardy\n"
        "import hardylogic.worlds\n"
        "import json\n"
    )
    assert _package_imports(source) == {"proof", "cli", "semantics", "quantum", "worlds"}


# the only private names one package module imports from another: the
# audit turns its `some` readings into their duals and compiles its
# generated function with the evaluator's own helpers
PRIVATE_IMPORTS = {("proof", "semantics", "_duals"), ("proof", "semantics", "_function")}


def _private_imports(module: str) -> set[tuple[str, str, str]]:
    """(module, source, name) for each `_`-prefixed name `from .source import` brings in."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {
        (module, node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name.startswith("_")
    }


def test_private_names_stay_in_their_module():
    found = set().union(*(_private_imports(m) for m in LAYER))
    assert found == PRIVATE_IMPORTS


def _defined_names(path: Path) -> set[str]:
    """The names a source file binds at module level by `class`, `def` or assignment."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_init_imports_no_package_module():
    assert _package_imports(PACKAGE / "__init__.py") == set()


def test_every_export_names_the_module_that_defines_it():
    assert set(hardylogic._SUBMODULES) == set(LAYER)
    for name, module in hardylogic._EXPORTS.items():
        assert module in LAYER, f"{name} is exported from unknown module {module}"
        assert name in _defined_names(PACKAGE / f"{module}.py"), f"{module} does not define {name}"


# every name the package exported when `__init__` imported each layer
# eagerly, less `DegenerateModelError`, which no accepted table could raise,
# less `SearchParams`, which only `hardylogic.quantum` keeps, and less the
# retired names below
EXPORTED = (
    "And", "Atom", "AuditReport", "CfOptions", "Counterfactual",
    "Formula", "GlobalCheck", "HardyConfig", "LexError", "MatImp", "Model", "Not", "Or",
    "ParseError", "PredictionReport", "ProbabilityTable", "ProofLine", "ProofScript",
    "RuleVerdict", "SearchError", "StrictImp", "TableError", "TemporalOrder",
    "TheoremReport", "UnsupportedCounterfactualError", "World", "audit",
    "build_model", "builtin_script", "check_rule", "check_theorem",
    "eval_at", "export_table", "find_hardy", "holds_globally",
    "load_config", "load_model", "parse", "parse_world",
    "save_config", "save_model", "sr_truth_table", "unparse",
    "verify_hardy",
)
# public names no command, workload or contract read, retired with their
# tests; each stated a rule that a name still in use states too
RETIRED = {
    "formula": ("check_paper_normal", "PaperNormalReport"),
    "worlds": ("enumerate_worlds", "satisfies_atom", "WORLD_INDEX"),  # `World.index` is the map
    "quantum": ("joint_probability", "constraint_values"),
    "semantics": ("accessible",),
}
LIBRARY_MODULES = ("formula", "worlds", "quantum", "semantics", "proof")


def test_package_surface_is_unchanged():
    star = {}
    exec("from hardylogic import *", star)
    del star["__builtins__"]
    assert set(star) == {*EXPORTED, *LIBRARY_MODULES}
    assert set(star) <= set(dir(hardylogic))
    for name in EXPORTED:
        imported = {}
        exec(f"from hardylogic import {name}", imported)
        assert imported[name] is getattr(hardylogic, name) is star[name]
    for module in (*LIBRARY_MODULES, "cli"):
        assert getattr(hardylogic, module).__name__ == f"hardylogic.{module}"
    with pytest.raises(AttributeError, match="no_such_name"):
        hardylogic.no_such_name
    with pytest.raises(ImportError):
        exec("from hardylogic import no_such_name", {})
    # `SearchParams` is no export, but the quantum layer still defines it
    with pytest.raises(AttributeError, match="SearchParams"):
        hardylogic.SearchParams
    assert "SearchParams" not in dir(hardylogic)
    assert hardylogic.quantum.SearchParams(seed=3).seed == 3


def test_retired_names_are_gone():
    for module, names in RETIRED.items():
        layer = getattr(hardylogic, module)
        for name in names:
            assert not hasattr(hardylogic, name), name
            assert not hasattr(layer, name), f"{module}.{name}"
    assert "accessible" not in hardylogic.semantics.__all__
    assert not hasattr(hardylogic.ProbabilityTable, "marginal")


# stdlib modules no import and no command may load: the value classes
# need no `dataclasses`, which would bring `inspect` with it, and the
# command line reads its arguments from its own table, with no `argparse`,
# which would bring `gettext` and, on its first message, `locale`
AVOIDED = ("dataclasses", "inspect", "argparse", "gettext", "locale")

_REPORT = (
    "import json, sys\n"
    f"avoided = {AVOIDED!r}\n"
    "loaded = [m for m in sys.modules if m.startswith('hardylogic') or m in avoided]\n"
    "print(json.dumps([code, sorted(loaded)]))\n"
)
_RUN_MAIN = (
    "import contextlib, io, sys\n"
    "from hardylogic.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
)


def _loaded(script: str, argv: list[str], cwd: Path) -> tuple[int | None, set[str]]:
    """`code`, and the `hardylogic` and AVOIDED modules loaded, after `script` runs.

    `script` runs in a fresh interpreter.
    """
    done = subprocess.run(
        [sys.executable, "-c", script + _REPORT, *argv],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    code, modules = json.loads(done.stdout)
    return code, set(modules)


@pytest.fixture(scope="module")
def readme_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("readme")
    cfg = find_hardy()
    save_config(cfg, str(path / "cfg.json"))
    save_model(build_model(export_table(cfg)), str(path / "model.json"))
    return path


@pytest.mark.parametrize(
    "statement, loaded",
    [
        ("import hardylogic", set()),
        ("import hardylogic.cli", {"cli", "formula", "worlds"}),
        ("import hardylogic; hardylogic.semantics.truth_mask", {"formula", "worlds", "semantics"}),
        ("import hardylogic; hardylogic.find_hardy", {"formula", "worlds", "quantum"}),
        ("from hardylogic import audit", {"formula", "worlds", "semantics", "proof"}),
    ],
)
def test_importing_loads_only_what_is_used(statement, loaded, tmp_path):
    assert _loaded(f"code = None\n{statement}\n", [], tmp_path) == (
        None,
        {"hardylogic", *(f"hardylogic.{m}" for m in loaded)},
    )


_CLI = {"cli", "formula", "worlds"}
_QUANTUM = {*_CLI, "quantum"}
_SEMANTICS = {*_CLI, "semantics"}
_PROOF = {*_SEMANTICS, "proof"}


@pytest.mark.parametrize(
    "argv, exit_code, loaded",
    [
        (["hardy", "find", "--out", "cfg.json"], 0, _QUANTUM),
        (["hardy", "verify", "cfg.json"], 0, _QUANTUM),
        (["model", "build", "cfg.json", "--out", "model.json"], 0, _QUANTUM),
        (["check-theorem", "model.json"], 0, _SEMANTICS),
        # a model file that is missing stops the command before its layer is imported
        (["check-theorem", "no-such-model.json"], 2, _CLI),
        (["eval", "model.json", "L1 => L1"], 0, _SEMANTICS),
        (["eval", "model.json", "R1 []-> R1 & R1-", "--at", "L1,R2,-,+"], 1, _SEMANTICS),
        (["eval", "no-such-model.json", "L1 => L1"], 2, _CLI),
        # as does a formula that does not parse
        (["eval", "model.json", "L1 & L3"], 2, _CLI),
        (["proof", "audit", "model.json"], 0, _PROOF),
        (["proof", "audit", "no-such-model.json"], 2, _CLI),
        (["proof", "audit", "model.json", "--json"], 0, _PROOF),
        (["sr-table"], 0, _SEMANTICS),
    ],
)
def test_each_command_loads_only_its_layers(argv, exit_code, loaded, readme_dir):
    assert _loaded(_RUN_MAIN, argv, readme_dir) == (
        exit_code,
        {"hardylogic", *(f"hardylogic.{m}" for m in loaded)},
    )
