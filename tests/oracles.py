"""Independent brute-force oracles the tests check the library against.

Everything here works on plain tuples and dicts, not package types, and
recomputes results from first principles: matrix-based state overlaps,
exhaustive world enumeration, and a five-parameter grid search with
constrained refinement.  Expected values frozen into tests were derived
with these routines.
"""

import itertools
import random

import numpy as np
from scipy.optimize import minimize

# the refined grid oracle reproduces this paradox-cell optimum to < 1e-6;
# it equals (5*sqrt(5) - 11) / 2
OPTIMAL_PARADOX = 0.09016994374947425

CHOICES_L = ("L1", "L2")
CHOICES_R = ("R1", "R2")
SIGNS = ("+", "-")

WORLDS = [
    (cl, cr, sl, sr)
    for cl in CHOICES_L
    for cr in CHOICES_R
    for sl in SIGNS
    for sr in SIGNS
]


# ---------------------------------------------------------------------------
# Matrix-route state overlap (cross-checks the scalar amplitude formula)

def born_probability_matrix(theta, angle_l, angle_r, sign_l, sign_r):
    psi = np.array([np.cos(theta), 0.0, 0.0, np.sin(theta)])
    vl = _analyzer_vec(angle_l, sign_l)
    vr = _analyzer_vec(angle_r, sign_r)
    amp = np.vdot(np.kron(vl, vr), psi)
    return float(abs(amp) ** 2)


def _analyzer_vec(angle, sign):
    if sign == "+":
        return np.array([np.cos(angle), np.sin(angle)])
    return np.array([-np.sin(angle), np.cos(angle)])


def full_table(theta, angles):
    """{(cl, cr): {outcomes: p}} via the matrix route; `angles` keyed by setting."""
    return {
        (cl, cr): {
            sl + sr: born_probability_matrix(theta, angles[cl], angles[cr], sl, sr)
            for sl in SIGNS
            for sr in SIGNS
        }
        for cl in CHOICES_L
        for cr in CHOICES_R
    }


# ---------------------------------------------------------------------------
# Five-parameter grid search plus constrained refinement

def _constraint_cells(params):
    theta, a_l1, a_l2, b_r1, b_r2 = params
    c, s = np.cos(theta), np.sin(theta)

    def pm(a, sign):
        return (np.cos(a), np.sin(a)) if sign == "+" else (-np.sin(a), np.cos(a))

    def prob(vl, vr):
        amp = c * vl[0] * vr[0] + s * vl[1] * vr[1]
        return amp * amp

    return (
        prob(pm(a_l2, "-"), pm(b_r2, "+")),
        prob(pm(a_l2, "+"), pm(b_r1, "+")),
        prob(pm(a_l1, "-"), pm(b_r2, "-")),
        prob(pm(a_l1, "-"), pm(b_r1, "+")),
    )


def grid_refine_optimum(grid=13, starts=3, rounds=2):
    """Best paradox-cell value over the whole five-parameter family.

    Dense grid with a penalty on the three must-vanish cells, then
    constrained sequential quadratic refinement from the leading grid
    points.  Returns (value, params).
    """
    th = np.linspace(0.06, np.pi / 2 - 0.06, grid)
    ang = np.linspace(-1.5, 1.5, grid)
    mt, m1, m2, mb1, mb2 = np.meshgrid(th, ang, ang, ang, ang, indexing="ij")
    c, s = np.cos(mt), np.sin(mt)

    def pm(a, sign):
        return (np.cos(a), np.sin(a)) if sign == "+" else (-np.sin(a), np.cos(a))

    def prob(vl, vr):
        amp = c * vl[0] * vr[0] + s * vl[1] * vr[1]
        return amp * amp

    z1 = prob(pm(m2, "-"), pm(mb2, "+"))
    z2 = prob(pm(m2, "+"), pm(mb1, "+"))
    z3 = prob(pm(m1, "-"), pm(mb2, "-"))
    win = prob(pm(m1, "-"), pm(mb1, "+"))
    score = (win - 50.0 * (z1 + z2 + z3)).ravel()
    leaders = np.argsort(score)[::-1][:starts]

    constraints = [
        {"type": "eq", "fun": lambda p, i=i: _constraint_cells(p)[i] * 1e3}
        for i in range(3)
    ]
    best_val, best_params = -1.0, None
    for flat in leaders:
        idx = np.unravel_index(flat, mt.shape)
        x = np.array([mt[idx], m1[idx], m2[idx], mb1[idx], mb2[idx]])
        for _ in range(rounds):
            res = minimize(
                lambda p: -_constraint_cells(p)[3],
                x,
                method="SLSQP",
                constraints=constraints,
                options={"maxiter": 260, "ftol": 1e-16},
            )
            x = res.x
        cells = _constraint_cells(x)
        if max(cells[0], cells[1], cells[2]) < 1e-12 and cells[3] > best_val:
            best_val, best_params = cells[3], x
    return best_val, best_params


# ---------------------------------------------------------------------------
# Exhaustive world-level evaluation (plain tuples and dicts, no package
# types; nothing from hardylogic.semantics or hardylogic.worlds)

def possible_worlds(table, eps=1e-12):
    return [w for w in WORLDS if table[(w[0], w[1])][w[2] + w[3]] > eps]


def sat(world, atom):
    cl, cr, sl, sr = world
    if atom in ("L1", "L2"):
        return cl == atom
    if atom in ("R1", "R2"):
        return cr == atom
    setting, sign = atom[:2], atom[2]
    if setting[0] == "L":
        return cl == setting and sl == sign
    return cr == setting and sr == sign


def brute_accessible(possible, world, choice, earlier="L", self_world=True):
    """Impose a later-region choice, pinning the earlier region's choice and outcome."""
    if self_world and sat(world, choice):
        return [world]
    pinned = (0, 2) if earlier == "L" else (1, 3)
    return [
        w for w in possible if sat(w, choice) and all(w[k] == world[k] for k in pinned)
    ]


def brute_sr(possible, world, quantifier="every"):
    """(R2 & R2+) -> (R1 []-> R1 & R1-) at `world`; the box reads `all` or `any`."""
    if not (sat(world, "R2") and sat(world, "R2+")):
        return True
    reachable = brute_accessible(possible, world, "R1")
    box = all if quantifier == "every" else any
    return box(sat(w, "R1") and sat(w, "R1-") for w in reachable)


def brute_line6_counterexamples(possible, quantifier="every"):
    return [w for w in possible if sat(w, "L1") and not brute_sr(possible, w, quantifier)]


def brute_line5_counterexamples(possible, quantifier="every"):
    return [w for w in possible if sat(w, "L2") and not brute_sr(possible, w, quantifier)]


def brute_supported(f, earlier="L"):
    """Is every counterfactual antecedent in `f` a later-region choice atom?"""
    kind = type(f).__name__
    if kind == "Atom":
        return True
    if kind == "Not":
        return brute_supported(f.arg, earlier)
    if kind == "Counterfactual":
        later = CHOICES_R if earlier == "L" else CHOICES_L
        if not (type(f.left).__name__ == "Atom" and f.left.name in later):
            return False
    return brute_supported(f.left, earlier) and brute_supported(f.right, earlier)


def brute_eval(possible, world, f, earlier="L", quantifier="every", self_world=True):
    """Truth of a formula AST at one world, recursing world by world.

    Dispatches on node class names and reads only the AST's fields, so
    it shares no code with the package's evaluator.  A strict
    conditional is re-evaluated globally wherever it occurs.
    """
    def at(w, g):
        return brute_eval(possible, w, g, earlier, quantifier, self_world)

    kind = type(f).__name__
    if kind == "Atom":
        return sat(world, f.name)
    if kind == "Not":
        return not at(world, f.arg)
    if kind == "And":
        return at(world, f.left) and at(world, f.right)
    if kind == "Or":
        return at(world, f.left) or at(world, f.right)
    if kind == "MatImp":
        return not at(world, f.left) or at(world, f.right)
    if kind == "StrictImp":
        return not brute_counterexamples(possible, f, earlier, quantifier, self_world)
    if kind == "Counterfactual":
        reach = brute_accessible(possible, world, f.left.name, earlier, self_world)
        values = [at(w, f.right) for w in reach]
        return all(values) if quantifier == "every" else any(values)
    raise TypeError(f"not a formula node: {f!r}")


def brute_counterexamples(possible, f, earlier="L", quantifier="every", self_world=True):
    """Possible worlds refuting `f` globally, in the order of `possible`.

    For a strict conditional: the worlds satisfying its antecedent and
    not its consequent.  For anything else: the worlds where it is false.
    """
    def at(w, g):
        return brute_eval(possible, w, g, earlier, quantifier, self_world)

    if type(f).__name__ == "StrictImp":
        return [w for w in possible if at(w, f.left) and not at(w, f.right)]
    return [w for w in possible if not at(w, f)]


# ---------------------------------------------------------------------------
# Local realisability: the possibility patterns a local hidden-variable
# model can produce

def strategy_support(strategy):
    """The four worlds a deterministic strategy allows, one per choice pair.

    `strategy` is each setting's fixed sign, in (L1, L2, R1, R2) order.
    """
    sign = dict(zip(CHOICES_L + CHOICES_R, strategy))
    return frozenset((cl, cr, sign[cl], sign[cr]) for cl in CHOICES_L for cr in CHOICES_R)


def locally_realisable_patterns():
    """Every set of worlds that some local hidden-variable model makes possible.

    Such a model mixes the 16 deterministic strategies, so its possible
    worlds are the union of the supports of the strategies it mixes.
    Each distinct nonempty union is returned once.
    """
    bit = {w: 1 << i for i, w in enumerate(WORLDS)}
    unions = {0}  # as bit masks over WORLDS, to keep the closure quick
    for strategy in itertools.product(SIGNS, repeat=4):
        support = sum(bit[w] for w in strategy_support(strategy))
        unions |= {u | support for u in unions}
    unions.discard(0)
    return {frozenset(w for w in WORLDS if u & bit[w]) for u in unions}


# ---------------------------------------------------------------------------
# Randomized inputs for property suites

def random_table_rows(rng: random.Random, allow_zeros=True):
    """Row dicts for a valid table: nonnegative cells, each row sums to 1."""
    rows = {}
    for cl in CHOICES_L:
        for cr in CHOICES_R:
            while True:
                cells = [rng.random() for _ in range(4)]
                if allow_zeros:
                    for i in range(4):
                        if rng.random() < 0.35:
                            cells[i] = 0.0
                total = sum(cells)
                if total > 1e-6:
                    break
            keys = [sl + sr for sl in SIGNS for sr in SIGNS]
            rows[(cl, cr)] = {k: v / total for k, v in zip(keys, cells)}
    return rows


def random_rudimentary(rng: random.Random, depth=3):
    """A formula over atoms, ~, &, |, and the material arrow."""
    from hardylogic.formula import And, Atom, MatImp, Not, Or, ATOM_NAMES

    if depth <= 0 or rng.random() < 0.3:
        return Atom(rng.choice(ATOM_NAMES))
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_rudimentary(rng, depth - 1))
    left = random_rudimentary(rng, depth - 1)
    right = random_rudimentary(rng, depth - 1)
    return (And, Or, MatImp)[kind - 1](left, right)


def random_formula(rng: random.Random, depth=4, antecedents=None):
    """Any AST shape, all seven node kinds.

    With `antecedents`, a sequence of atom names, every counterfactual
    antecedent is one of those atoms instead of a random subformula.
    """
    from hardylogic.formula import (
        And,
        Atom,
        Counterfactual,
        MatImp,
        Not,
        Or,
        StrictImp,
        ATOM_NAMES,
    )

    if depth <= 0 or rng.random() < 0.25:
        return Atom(rng.choice(ATOM_NAMES))
    kind = rng.randrange(6)
    if kind == 0:
        return Not(random_formula(rng, depth - 1, antecedents))
    if kind == 5 and antecedents:
        left = Atom(rng.choice(antecedents))
    else:
        left = random_formula(rng, depth - 1, antecedents)
    right = random_formula(rng, depth - 1, antecedents)
    return (And, Or, MatImp, StrictImp, Counterfactual)[kind - 1](left, right)
