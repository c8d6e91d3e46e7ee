"""Seeded input generation: probability tables and formulas as plain data.

Nothing here imports the package under test.  Formulas are nested
tuples (kind, ...) and reach the program only as rendered text; tables
are dicts and reach it only as model JSON text.  The same seed always
gives the same inputs, and `digest` fingerprints them so that two
commits can be shown to run identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import random

CHOICES_L = ("L1", "L2")
CHOICES_R = ("R1", "R2")
CHOICE_PAIRS = tuple((cl, cr) for cl in CHOICES_L for cr in CHOICES_R)
OUTCOME_PAIRS = ("++", "+-", "-+", "--")  # L sign first
ATOMS = ("L1", "L2", "R1", "R2", "L1+", "L1-", "L2+", "L2-", "R1+", "R1-", "R2+", "R2-")

# (choice pair, outcome pair) cells the three vanishing predictions zero,
# and the paradox cell that must stay positive
FORBIDDEN_CELLS = ((("L2", "R2"), "-+"), (("L2", "R1"), "++"), (("L1", "R2"), "--"))
PARADOX_CELL = (("L1", "R1"), "-+")

EPSILON = 1e-12

# Formula node kinds.  ("atom", name), ("not", f), (binary, left, right);
# a counterfactual's left side is always a choice atom.
PROPOSITIONAL = ("not", "and", "or", "imp")
GLOBAL = ("cf", "strict")
_INFIX = {"and": "&", "or": "|", "imp": "->", "cf": "[]->", "strict": "=>"}


# ---------------------------------------------------------------------------
# Tables

def random_table(rng: random.Random, hardy_pattern: bool = False) -> dict:
    """A valid table: each row is integer weights 1..9 around its zero cells, normalized.

    A random table has rows with 0, 1, 1 and 2 zero cells, in random
    order and places, so 12 possible worlds; a Hardy-pattern table has
    exactly its three forbidden cells at zero, so 13, as in the paper's
    model.  A fixed count keeps the evaluation cost, which grows with it,
    the same for every seed.
    """
    zero_counts = [0, 1, 1, 2]
    rng.shuffle(zero_counts)
    table = {}
    for pair, n_zero in zip(CHOICE_PAIRS, zero_counts):
        if hardy_pattern:
            zero = {key for key in OUTCOME_PAIRS if (pair, key) in FORBIDDEN_CELLS}
        else:
            zero = set(rng.sample(OUTCOME_PAIRS, n_zero))
        weights = {key: 0 if key in zero else rng.randint(1, 9) for key in OUTCOME_PAIRS}
        total = sum(weights.values())
        table[pair] = {key: weights[key] / total for key in OUTCOME_PAIRS}
    return table


def model_text(table: dict, epsilon: float = EPSILON) -> str:
    """The model file body the CLI and `model_from_dict` read."""
    return json.dumps(
        {
            "epsilon": epsilon,
            "table": {f"{cl},{cr}": table[(cl, cr)] for cl, cr in CHOICE_PAIRS},
        }
    )


# ---------------------------------------------------------------------------
# Formulas

def random_formula(rng: random.Random, depth: int, later: tuple[str, str], kinds) -> tuple:
    """A random formula of depth at most `depth` over the node kinds given.

    Counterfactual antecedents are the later region's choice atoms, the
    only antecedents the semantics defines.
    """
    if depth == 0 or rng.random() < 0.15:
        return ("atom", rng.choice(ATOMS))
    kind = rng.choice(kinds)
    if kind == "not":
        return ("not", random_formula(rng, depth - 1, later, kinds))
    if kind == "cf":
        return ("cf", ("atom", rng.choice(later)), random_formula(rng, depth - 1, later, kinds))
    return (
        kind,
        random_formula(rng, depth - 1, later, kinds),
        random_formula(rng, depth - 1, later, kinds),
    )


def global_nesting(f: tuple) -> int:
    """Largest number of global operators (=> or []->) on one root-to-leaf path."""
    if f[0] == "atom":
        return 0
    below = max(global_nesting(child) for child in f[1:])
    return below + (1 if f[0] in GLOBAL else 0)


def node_count(f: tuple) -> int:
    if f[0] == "atom":
        return 1
    return 1 + sum(node_count(child) for child in f[1:])


def shaped_formula(rng: random.Random, spine: tuple[str, ...], later: tuple[str, str]) -> tuple:
    """A formula whose global operators are exactly `spine`, each nested in the one before.

    Everything around them is random propositional filler, and each
    global operator may sit under a propositional connective.  Fixing
    the global operators, rather than leaving them to chance, keeps the
    cost mix, which they dominate, the same for every seed.  Filler under
    a nested spine is one level deep: the cost of a nested operator grows
    with the product of its operands' sizes, and deeper filler there
    would let a few seed-dependent formulas set the tail.
    """
    depth = (0, 2) if len(spine) < 2 else (1, 1)
    return _shaped(rng, spine, later, depth)


def _shaped(rng, spine, later, depth) -> tuple:
    if not spine:
        return random_formula(rng, rng.randint(2, 4), later, PROPOSITIONAL)

    def filler():
        return random_formula(rng, rng.randint(*depth), later, PROPOSITIONAL)

    inner = _shaped(rng, spine[1:], later, depth) if spine[1:] else filler()
    if spine[0] == "cf":
        node = ("cf", ("atom", rng.choice(later)), inner)
    elif rng.random() < 0.5:
        node = ("strict", inner, filler())
    else:
        node = ("strict", filler(), inner)
    context = rng.choice(("none", "not") + PROPOSITIONAL[1:])
    if context == "none":
        return node
    if context == "not":
        return ("not", node)
    pair = (node, filler())
    return (context,) + (pair if rng.random() < 0.5 else pair[::-1])


def render(f: tuple) -> str:
    """Formula text; every compound operand is parenthesized."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "not":
        return "~" + _operand(f[1])
    return f"{_operand(f[1])} {_INFIX[kind]} {_operand(f[2])}"


def _operand(f: tuple) -> str:
    return render(f) if f[0] in ("atom", "not") else f"({render(f)})"


def world_text(world: tuple) -> str:
    return ",".join(world)


# ---------------------------------------------------------------------------

def digest(items) -> str:
    """Short SHA-256 fingerprint of a JSON-serializable input list."""
    blob = json.dumps(items, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
