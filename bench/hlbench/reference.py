"""Independent reference results, computed from first principles.

Nothing here imports `hardylogic`.  Worlds are plain tuples
(choice_l, choice_r, outcome_l, outcome_r) in canonical order, formulas
are the tuples of `inputs`, and a formula's meaning is computed as the
set of possible worlds where it is true -- a different route from the
package's recursive per-world evaluator, so the two can disagree only
if one of them is wrong.
"""

from __future__ import annotations

import math

from .inputs import CHOICES_L, CHOICES_R, EPSILON

SIGNS = ("+", "-")
WORLDS = tuple(
    (cl, cr, sl, sr) for cl in CHOICES_L for cr in CHOICES_R for sl in SIGNS for sr in SIGNS
)

# the paradox-cell optimum, (5 sqrt 5 - 11) / 2
OPTIMAL_PARADOX = (5 * math.sqrt(5) - 11) / 2

FORBIDDEN_WORLDS = (("L2", "R2", "-", "+"), ("L2", "R1", "+", "+"), ("L1", "R2", "-", "-"))
PARADOX_WORLD = ("L1", "R1", "-", "+")


def possible_worlds(table: dict, epsilon: float = EPSILON) -> tuple:
    """Worlds whose cell probability exceeds epsilon, in canonical order."""
    return tuple(w for w in WORLDS if table[(w[0], w[1])][w[2] + w[3]] > epsilon)


def atom_holds(world: tuple, name: str) -> bool:
    """A choice atom asserts the choice; an outcome atom also asserts its result."""
    index = 0 if name[0] == "L" else 1
    if world[index] != name[:2]:
        return False
    return len(name) == 2 or world[index + 2] == name[2]


class RefModel:
    """Possible worlds of one table, with the evaluation options fixed.

    `earlier` is the region before the cut ("L" or "R"); `quantifier` is
    "every" or "some" over the worlds a counterfactual reaches;
    `self_world` keeps a world as its own sole successor when the
    imposed choice already holds there.
    """

    def __init__(self, possible, earlier="L", quantifier="every", self_world=True):
        self.possible = tuple(possible)
        self.all = frozenset(self.possible)
        self.earlier = earlier
        self.quantifier = quantifier
        self.self_world = self_world

    def reach(self, world: tuple, choice: str) -> list:
        """Worlds reached from `world` by imposing a later-region choice."""
        if choice[0] == self.earlier:
            raise ValueError(f"{choice} is an earlier-region choice")
        if self.self_world and atom_holds(world, choice):
            return [world]
        pin = 0 if self.earlier == "L" else 1
        return [
            v
            for v in self.possible
            if atom_holds(v, choice) and v[pin] == world[pin] and v[pin + 2] == world[pin + 2]
        ]

    def truth_set(self, f: tuple) -> frozenset:
        kind = f[0]
        if kind == "atom":
            return frozenset(w for w in self.possible if atom_holds(w, f[1]))
        if kind == "not":
            return self.all - self.truth_set(f[1])
        if kind == "cf":
            inner = self.truth_set(f[2])
            test = all if self.quantifier == "every" else any
            return frozenset(
                w for w in self.possible if test(v in inner for v in self.reach(w, f[1][1]))
            )
        left, right = self.truth_set(f[1]), self.truth_set(f[2])
        if kind == "and":
            return left & right
        if kind == "or":
            return left | right
        if kind == "imp":
            return (self.all - left) | right
        if kind == "strict":
            return self.all if left <= right else frozenset()
        raise ValueError(f"unknown node kind {kind!r}")

    def holds_globally(self, f: tuple) -> tuple[bool, tuple | None]:
        """(holds, first counterexample in canonical order or None).

        A strict conditional's counterexamples are the worlds satisfying
        its antecedent but not its consequent; any other formula's are
        the worlds where it is false.
        """
        if f[0] == "strict":
            bad = self.truth_set(f[1]) - self.truth_set(f[2])
        else:
            bad = self.all - self.truth_set(f)
        witness = next((w for w in self.possible if w in bad), None)
        return witness is None, witness


# ---------------------------------------------------------------------------
# The dependence theorem

def _a(name):
    return ("atom", name)


def _and(*parts):
    f = parts[0]
    for p in parts[1:]:
        f = ("and", f, p)
    return f


SR = ("imp", _and(_a("R2"), _a("R2+")), ("cf", _a("R1"), _and(_a("R1"), _a("R1-"))))
LINE5 = ("strict", _a("L2"), SR)
LINE6 = ("strict", _a("L1"), SR)


def theorem(table: dict) -> dict:
    """What `check_theorem` must report for this table (L earlier, every)."""
    m = RefModel(possible_worlds(table))
    line5, line6 = m.holds_globally(LINE5), m.holds_globally(LINE6)
    sr = m.truth_set(SR)
    return {
        "hardy_conforming": all(w not in m.all for w in FORBIDDEN_WORLDS)
        and PARADOX_WORLD in m.all,
        "line5": line5,
        "line6": line6,
        "sr_true_on_all_l2_worlds": all(w in sr for w in m.possible if w[0] == "L2"),
        "sr_false_l1_witness": next(
            (w for w in m.possible if w[0] == "L1" and w not in sr), None
        ),
    }


# ---------------------------------------------------------------------------
# Born rule for cos(theta)|00> + sin(theta)|11>, one real angle per setting

def born(theta: float, angle_l: float, angle_r: float, sign_l: str, sign_r: str) -> float:
    def analyzer(a, sign):
        return (math.cos(a), math.sin(a)) if sign == "+" else (-math.sin(a), math.cos(a))

    (l0, l1), (r0, r1) = analyzer(angle_l, sign_l), analyzer(angle_r, sign_r)
    amplitude = math.cos(theta) * l0 * r0 + math.sin(theta) * l1 * r1
    return amplitude * amplitude


def born_table(theta: float, angles: dict) -> dict:
    return {
        (cl, cr): {
            sl + sr: born(theta, angles[cl], angles[cr], sl, sr) for sl in SIGNS for sr in SIGNS
        }
        for cl in CHOICES_L
        for cr in CHOICES_R
    }
