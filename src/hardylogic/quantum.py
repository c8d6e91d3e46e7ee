"""Two-qubit Born-rule engine and the optimal paradox configuration.

State family: cos(theta)|00> + sin(theta)|11>, with every measurement a
real rotation in the x-z plane, one angle per setting.  For angle a the
analyzer vectors are

    |plus>  =  cos(a)|0> + sin(a)|1>
    |minus> = -sin(a)|0> + cos(a)|1>

This real five-parameter family is rich enough to realize the four
target constraints: three joint-outcome cells at exactly zero and the
remaining paradox cell strictly positive.

The optimum (find_hardy): the three zero constraints are solved in
closed form for (angle_l1, angle_l2, angle_r1) given the two free
parameters (theta, angle_r2), which pins the zero cells at
machine-precision zero.  The paradox cell is then a rational function
of the free pair whose maximum, (5 sqrt(5) - 11) / 2, has a closed form
too, so no search runs; find_hardy derives it.
"""

from __future__ import annotations

import json
import math

from .formula import Value
from .worlds import (
    CHOICE_PAIRS,
    FORBIDDEN_WORLDS,
    OUTCOME_PAIRS,
    PARADOX_WORLD,
    ProbabilityTable,
    read_json,
)

# cells below this are treated as exact Born-rule zeros when exporting
ZERO_CLAMP = 1e-10

DEFAULT_TOL = 1e-9
DEFAULT_POSITIVITY_FLOOR = 1e-9


class SearchError(RuntimeError):
    """The optimal configuration failed verification."""


class HardyConfig(Value):
    """State parameter plus one measurement angle per setting (radians).

    The state is entangled (non-product) exactly when theta lies
    strictly inside (0, pi/2).
    """

    __slots__ = _fields = ("theta", "angle_l1", "angle_l2", "angle_r1", "angle_r2")

    def __init__(
        self, theta: float, angle_l1: float, angle_l2: float, angle_r1: float, angle_r2: float
    ):
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "angle_l1", angle_l1)
        object.__setattr__(self, "angle_l2", angle_l2)
        object.__setattr__(self, "angle_r1", angle_r1)
        object.__setattr__(self, "angle_r2", angle_r2)
        for name in self._fields:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def angle(self, setting: str) -> float:
        return {
            "L1": self.angle_l1,
            "L2": self.angle_l2,
            "R1": self.angle_r1,
            "R2": self.angle_r2,
        }[setting]


def _analyzer(angle: float, sign: str) -> tuple[float, float]:
    if sign == "+":
        return (math.cos(angle), math.sin(angle))
    return (-math.sin(angle), math.cos(angle))


def joint_probability(
    cfg: HardyConfig, choice_l: str, choice_r: str, sign_l: str, sign_r: str
) -> float:
    """Born-rule probability of the (sign_l, sign_r) outcome pair."""
    vl = _analyzer(cfg.angle(choice_l), sign_l)
    vr = _analyzer(cfg.angle(choice_r), sign_r)
    amp = math.cos(cfg.theta) * vl[0] * vr[0] + math.sin(cfg.theta) * vl[1] * vr[1]
    return amp * amp


def export_table(cfg: HardyConfig) -> ProbabilityTable:
    """Full 4x4 probability table, with sub-clamp cells snapped to exact zero."""
    rows = {}
    for cl, cr in CHOICE_PAIRS:
        row = {}
        for key in OUTCOME_PAIRS:
            p = joint_probability(cfg, cl, cr, key[0], key[1])
            row[key] = 0.0 if p <= ZERO_CLAMP else p
        rows[(cl, cr)] = row
    return ProbabilityTable(rows)


# ---------------------------------------------------------------------------
# The four target constraints

def constraint_values(cfg: HardyConfig) -> tuple[float, float, float, float]:
    """(c1, c2, c3, c4): the three must-vanish cells and the paradox cell.

    c1 = P(L2-, R2+ | L2,R2)   c2 = P(L2+, R1+ | L2,R1)
    c3 = P(L1-, R2- | L1,R2)   c4 = P(L1-, R1+ | L1,R1)
    """
    return tuple(
        joint_probability(cfg, w.choice_l, w.choice_r, w.outcome_l, w.outcome_r)
        for w in (*FORBIDDEN_WORLDS, PARADOX_WORLD)
    )


class PredictionReport(Value):
    __slots__ = _fields = (
        "c1", "c2", "c3", "c4", "marginal_l1_minus", "tolerance", "positivity_floor"
    )

    def __init__(
        self,
        c1: float,
        c2: float,
        c3: float,
        c4: float,
        marginal_l1_minus: float,
        tolerance: float,
        positivity_floor: float,
    ):
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "c3", c3)
        object.__setattr__(self, "c4", c4)
        object.__setattr__(self, "marginal_l1_minus", marginal_l1_minus)
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "positivity_floor", positivity_floor)

    @property
    def pass_c1(self) -> bool:
        return self.c1 <= self.tolerance

    @property
    def pass_c2(self) -> bool:
        return self.c2 <= self.tolerance

    @property
    def pass_c3(self) -> bool:
        return self.c3 <= self.tolerance

    @property
    def pass_c4(self) -> bool:
        return self.c4 >= self.positivity_floor

    @property
    def passed(self) -> bool:
        return self.pass_c1 and self.pass_c2 and self.pass_c3 and self.pass_c4

    def summary(self) -> str:
        lines = [
            f"c1 = P(L2-,R2+|L2,R2) = {self.c1:.3e}  "
            f"[{'ok' if self.pass_c1 else 'FAIL'}: must be <= {self.tolerance:.1e}]",
            f"c2 = P(L2+,R1+|L2,R1) = {self.c2:.3e}  "
            f"[{'ok' if self.pass_c2 else 'FAIL'}: must be <= {self.tolerance:.1e}]",
            f"c3 = P(L1-,R2-|L1,R2) = {self.c3:.3e}  "
            f"[{'ok' if self.pass_c3 else 'FAIL'}: must be <= {self.tolerance:.1e}]",
            f"c4 = P(L1-,R1+|L1,R1) = {self.c4:.9f}  "
            f"[{'ok' if self.pass_c4 else 'FAIL'}: must be >= {self.positivity_floor:.1e}]",
            f"P(L1-) marginal       = {self.marginal_l1_minus:.9f}",
        ]
        return "\n".join(lines)


def verify_hardy(
    cfg: HardyConfig,
    tol: float = DEFAULT_TOL,
    positivity_floor: float = DEFAULT_POSITIVITY_FLOOR,
) -> PredictionReport:
    """Check the three vanishing cells and the positive paradox cell."""
    if not tol > 0:  # NaN too
        raise ValueError(f"tol must be positive, got {tol}")
    c1, c2, c3, c4 = constraint_values(cfg)
    marginal = c4 + joint_probability(cfg, "L1", "R1", "-", "-")
    return PredictionReport(
        c1=c1,
        c2=c2,
        c3=c3,
        c4=c4,
        marginal_l1_minus=marginal,
        tolerance=tol,
        positivity_floor=positivity_floor,
    )


# ---------------------------------------------------------------------------
# The paradox optimum

class SearchParams(Value):
    """Accepted for compatibility; neither field has any effect.

    `find_hardy` returns the closed-form optimum, so every seed and grid
    gives the same configuration.  `grid` below 2 is rejected.
    """

    __slots__ = _fields = ("seed", "grid")

    def __init__(self, seed: int = 0, grid: int = 96):
        if grid < 2:
            raise ValueError(f"grid must be at least 2, got {grid}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "grid", grid)


def _project(theta: float, angle_r2: float) -> HardyConfig | None:
    """Solve the three zero constraints exactly for the remaining angles.

    With s = sin(theta), c = cos(theta), t = tan(angle_r2):
      c1 = 0  <=>  tan(angle_l2) =  (s/c) t
      c2 = 0  <=>  tan(angle_r1) = -c^2 / (s^2 t)
      c3 = 0  <=>  tan(angle_l1) = -s / (c t)
    Undefined when t or sin/cos of theta vanish.
    """
    s, c = math.sin(theta), math.cos(theta)
    t = math.tan(angle_r2)
    if abs(t) < 1e-12 or abs(s) < 1e-12 or abs(c) < 1e-12:
        return None
    return HardyConfig(
        theta=theta,
        angle_l1=math.atan(-s / (c * t)),
        angle_l2=math.atan((s / c) * t),
        angle_r1=math.atan(-(c * c) / (s * s * t)),
        angle_r2=angle_r2,
    )


def find_hardy(params: SearchParams = SearchParams()) -> HardyConfig:
    """The configuration with the largest paradox cell, in closed form.

    `params` is accepted for compatibility and has no effect.

    After `_project`, with S = sin(theta), C = cos(theta) and
    u = tan(angle_r2)**2, the paradox cell is

        c4 = u S^2 C^2 cos^2(2 theta) / ((u S^4 + C^4) (u C^2 + S^2)).

    For fixed theta, dc4/du = 0 gives u = C/S: the ridge
    tan(theta) * tan(angle_r2)**2 = 1.  On the ridge, with
    x = sin(2 theta),

        c4 = x^2 (1 - x) / (2 - x)^2,

    which vanishes at x = 0 and x = 1.  d ln(c4)/dx = 0 reduces to
    x^2 - 6x + 4 = 0, whose one root in (0, 1) is x = 3 - sqrt(5), so
    the maximum is c4 = (5 sqrt(5) - 11) / 2 (Hardy, PRL 71, 1665, 1993).
    This takes the theta < pi/4 root; the mirror pi/2 - theta gives the
    same cell.  The zero cells hold by construction, and the returned
    configuration passes verify_hardy at the default tolerance.
    """
    theta = 0.5 * math.asin(3 - math.sqrt(5))
    cfg = _project(theta, math.atan(math.tan(theta) ** -0.5))
    if not verify_hardy(cfg).passed:
        raise SearchError(
            "the closed-form optimum failed verification; "
            "this family is known to contain solutions, so this indicates a bug"
        )
    return cfg


# ---------------------------------------------------------------------------
# Config file schema: {"theta": n, "angles": {"L1": n, "L2": n, "R1": n, "R2": n}}

def config_to_dict(cfg: HardyConfig) -> dict:
    return {
        "theta": cfg.theta,
        "angles": {
            "L1": cfg.angle_l1,
            "L2": cfg.angle_l2,
            "R1": cfg.angle_r1,
            "R2": cfg.angle_r2,
        },
    }


def _entry(mapping: dict, key: str, what: str):
    if key not in mapping:
        raise ValueError(f"bad config file structure: missing {what}")
    return mapping[key]


def _number(mapping: dict, key: str, what: str) -> float:
    """A JSON number as a float; strings and booleans are not numbers."""
    value = _entry(mapping, key, what)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"bad config file structure: {what} is not a number")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond float range
        raise ValueError(f"bad config file structure: {what} is out of range") from None


def _mapping(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(
            f"bad config file structure: {what} must be a mapping, got {type(value).__name__}"
        )
    return value


def config_from_dict(data: dict) -> HardyConfig:
    _mapping(data, "the file")
    angles = _mapping(_entry(data, "angles", "'angles'"), "'angles'")
    return HardyConfig(
        theta=_number(data, "theta", "'theta'"),
        angle_l1=_number(angles, "L1", "angle 'L1'"),
        angle_l2=_number(angles, "L2", "angle 'L2'"),
        angle_r1=_number(angles, "R1", "angle 'R1'"),
        angle_r2=_number(angles, "R2", "angle 'R2'"),
    )


def save_config(cfg: HardyConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")


def load_config(path: str) -> HardyConfig:
    return config_from_dict(read_json(path))
