"""Possible-worlds workbench for two-region counterfactual reasoning.

Builds probability tables from a two-qubit configuration, filters the
sixteen world histories to the physically possible ones, evaluates
material, strict, and counterfactual conditionals over them, and audits
the built-in fourteen-line derivation rule by rule.

Importing the package loads none of its modules.  A public name is
looked up in `_EXPORTS` on first use (PEP 562), which imports the one
module that defines it and the lower layers that module needs, so a
caller pays only for the layers it touches.
"""

import sys

__version__ = "0.1.0"

_SUBMODULES = ("formula", "worlds", "quantum", "semantics", "proof", "cli")

# exported name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "formula": (
            "Atom",
            "And",
            "Counterfactual",
            "Formula",
            "LexError",
            "MatImp",
            "Not",
            "Or",
            "ParseError",
            "StrictImp",
            "parse",
            "unparse",
        ),
        "worlds": (
            "Model",
            "ProbabilityTable",
            "TableError",
            "World",
            "build_model",
            "load_model",
            "parse_world",
            "save_model",
        ),
        "quantum": (
            "HardyConfig",
            "PredictionReport",
            "SearchError",
            "SearchParams",
            "export_table",
            "find_hardy",
            "load_config",
            "save_config",
            "verify_hardy",
        ),
        "semantics": (
            "CfOptions",
            "GlobalCheck",
            "TemporalOrder",
            "TheoremReport",
            "UnsupportedCounterfactualError",
            "check_theorem",
            "eval_at",
            "holds_globally",
            "sr_truth_table",
        ),
        "proof": (
            "AuditReport",
            "ProofLine",
            "ProofScript",
            "RuleVerdict",
            "audit",
            "builtin_script",
            "check_rule",
        ),
    }.items()
    for name in names
}

# what `from hardylogic import *` binds: every export and the library
# modules, but not the command line
__all__ = [*_EXPORTS, *(module for module in _SUBMODULES if module != "cli")]


def _load(module: str):
    """Import a package module the way an import statement does.

    `importlib.import_module` would do the same, but `python -X
    importtime` does not report the modules it loads.
    """
    name = f"{__name__}.{module}"
    __import__(name)
    return sys.modules[name]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _load(name)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_load(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
