"""Imports only go down the package layers.

    formula <- worlds <- {quantum, semantics} <- proof <- cli

A module may import a module of a lower layer, never one of its own
layer or above, so the facts the layers share (the prediction cells in
`worlds`, the conclusion lines in `semantics`) have one home that every
reader can reach without a cycle.  `__init__` re-exports everything and
is exempt.
"""

import ast
from pathlib import Path

import pytest

import hardylogic

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
