"""Two-qubit Born-rule engine and the optimal paradox configuration.

State family: cos(theta)|00> + sin(theta)|11>, with every measurement a
real rotation in the x-z plane, one angle per setting.  For angle a the
analyzer vectors are

    |plus>  =  cos(a)|0> + sin(a)|1>
    |minus> = -sin(a)|0> + cos(a)|1>

and every cell is read from a configuration's eight analyzer vectors.
This real five-parameter family is rich enough to realize the four
target constraints: three joint-outcome cells at exactly zero and the
remaining paradox cell strictly positive.

The optimum, HARDY_CONFIG, is built once at import: the three zero
constraints are solved in closed form for (angle_l1, angle_l2,
angle_r1) given the free pair (theta, angle_r2), which pins the zero
cells at machine-precision zero.  The paradox cell's maximum over the
free pair, (5 sqrt(5) - 11) / 2, has a closed form too: no search runs.
The optimum is verified once, at import too, as HARDY_REPORT.
"""

from __future__ import annotations

import json
import math

from .formula import Value
from .worlds import (
    CHOICE_PAIRS,
    CHOICES_L,
    CHOICES_R,
    FORBIDDEN_WORLDS,
    OUTCOME_PAIRS,
    PARADOX_WORLD,
    SIGNS,
    ProbabilityTable,
    read_json,
)

# cells below this are treated as exact Born-rule zeros when exporting
ZERO_CLAMP = 1e-10

DEFAULT_TOL = 1e-9
DEFAULT_POSITIVITY_FLOOR = 1e-9

# setting -> HardyConfig field, in field order; the (plus, minus) labels of each setting
_ANGLES = {"L1": "angle_l1", "L2": "angle_l2", "R1": "angle_r1", "R2": "angle_r2"}
_LABELS = tuple((setting + "+", setting + "-") for setting in _ANGLES)


class SearchError(RuntimeError):
    """The optimal configuration failed verification."""


class HardyConfig(Value):
    """State parameter plus one measurement angle per setting (radians).

    The state is entangled (non-product) exactly when theta lies
    strictly inside (0, pi/2).
    """

    __slots__ = _fields = ("theta", "angle_l1", "angle_l2", "angle_r1", "angle_r2")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for name in self._fields:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def angle(self, setting: str) -> float:
        return getattr(self, _ANGLES[setting])


def _born(cfg: HardyConfig):
    """The cell function of `cfg` over its eight analyzer vectors, labelled "L1+" to "R2-"."""
    cos_t, sin_t = math.cos(cfg.theta), math.sin(cfg.theta)
    vectors = {}
    angles = (cfg.angle_l1, cfg.angle_l2, cfg.angle_r1, cfg.angle_r2)
    for (plus, minus), angle in zip(_LABELS, angles):
        c, s = math.cos(angle), math.sin(angle)
        vectors[plus], vectors[minus] = (c, s), (-s, c)

    def cell(left: str, right: str) -> float:
        vl, vr = vectors[left], vectors[right]
        amp = cos_t * vl[0] * vr[0] + sin_t * vl[1] * vr[1]
        return amp * amp

    return cell


def joint_probability(
    cfg: HardyConfig, choice_l: str, choice_r: str, sign_l: str, sign_r: str
) -> float:
    """Born-rule probability of the (sign_l, sign_r) outcome pair."""
    if choice_l not in CHOICES_L or choice_r not in CHOICES_R:
        raise ValueError(f"no choice pair ({choice_l!r}, {choice_r!r}): L1 or L2, then R1 or R2")
    if sign_l not in SIGNS or sign_r not in SIGNS:
        raise ValueError(f"outcome signs must be '+' or '-', got {sign_l!r} and {sign_r!r}")
    return _born(cfg)(choice_l + sign_l, choice_r + sign_r)


# per row: the choice pair and, per cell, its outcome key and the two labels
_ROWS = tuple(((cl, cr), tuple((k, cl + k[0], cr + k[1]) for k in OUTCOME_PAIRS))
              for cl, cr in CHOICE_PAIRS)


def export_table(cfg: HardyConfig) -> ProbabilityTable:
    """Full 4x4 probability table, with sub-clamp cells snapped to exact zero."""
    cell = _born(cfg)
    rows = {}
    for pair, cells in _ROWS:
        row = rows[pair] = {}
        for key, left, right in cells:
            p = cell(left, right)
            row[key] = 0.0 if p <= ZERO_CLAMP else p
    return ProbabilityTable(rows)


# ---------------------------------------------------------------------------
# The four target constraints

_CONSTRAINTS = tuple((w.choice_l + w.outcome_l, w.choice_r + w.outcome_r)
                     for w in (*FORBIDDEN_WORLDS, PARADOX_WORLD))


def constraint_values(cfg: HardyConfig) -> tuple[float, float, float, float]:
    """(c1, c2, c3, c4): the three must-vanish cells and the paradox cell.

    c1 = P(L2-, R2+ | L2,R2)   c2 = P(L2+, R1+ | L2,R1)
    c3 = P(L1-, R2- | L1,R2)   c4 = P(L1-, R1+ | L1,R1)
    """
    cell = _born(cfg)
    return tuple(cell(left, right) for left, right in _CONSTRAINTS)


class PredictionReport(Value):
    __slots__ = _fields = (
        "c1", "c2", "c3", "c4", "marginal_l1_minus", "tolerance", "positivity_floor"
    )

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
    if not positivity_floor > 0:  # a zero floor would pass an exactly vanishing c4
        raise ValueError(f"positivity_floor must be positive, got {positivity_floor}")
    cell = _born(cfg)
    c1, c2, c3, c4 = (cell(left, right) for left, right in _CONSTRAINTS)
    marginal = c4 + cell("L1-", "R1-")
    return PredictionReport(c1, c2, c3, c4, marginal, tol, positivity_floor)


# ---------------------------------------------------------------------------
# The paradox optimum

class SearchParams(Value):
    """Accepted for compatibility; neither field has any effect.

    `find_hardy` returns HARDY_CONFIG, so every seed and grid gives the
    same configuration.  `grid` below 2 is rejected.
    """

    __slots__ = _fields = ("seed", "grid")
    _defaults = (0, 96)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.grid < 2:
            raise ValueError(f"grid must be at least 2, got {self.grid}")


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


# The optimum.  After `_project`, with S = sin(theta), C = cos(theta) and
# u = tan(angle_r2)**2, the paradox cell is
#
#     c4 = u S^2 C^2 cos^2(2 theta) / ((u S^4 + C^4) (u C^2 + S^2)).
#
# For fixed theta, dc4/du = 0 gives u = C/S: the ridge
# tan(theta) * tan(angle_r2)**2 = 1.  On the ridge, with x = sin(2 theta),
#
#     c4 = x^2 (1 - x) / (2 - x)^2,
#
# which vanishes at x = 0 and x = 1.  d ln(c4)/dx = 0 reduces to
# x^2 - 6x + 4 = 0, whose one root in (0, 1) is x = 3 - sqrt(5), so the
# maximum is c4 = (5 sqrt(5) - 11) / 2 (Hardy, PRL 71, 1665, 1993).  This
# takes the theta < pi/4 root; the mirror pi/2 - theta gives the same cell.
_THETA = 0.5 * math.asin(3 - math.sqrt(5))
HARDY_CONFIG = _project(_THETA, math.atan(math.tan(_THETA) ** -0.5))
HARDY_REPORT = verify_hardy(HARDY_CONFIG)


def find_hardy(params: SearchParams = SearchParams()) -> HardyConfig:
    """HARDY_CONFIG, verified once, at import, as HARDY_REPORT; `params` has no effect."""
    if not HARDY_REPORT.passed:
        raise SearchError(
            "the closed-form optimum failed verification; "
            "this family is known to contain solutions, so this indicates a bug"
        )
    return HARDY_CONFIG


# ---------------------------------------------------------------------------
# Config file schema: {"theta": n, "angles": {"L1": n, "L2": n, "R1": n, "R2": n}}

def config_to_dict(cfg: HardyConfig) -> dict:
    return {"theta": cfg.theta, "angles": {s: getattr(cfg, f) for s, f in _ANGLES.items()}}


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
    theta = _number(data, "theta", "'theta'")
    return HardyConfig(theta, *(_number(angles, s, f"angle {s!r}") for s in _ANGLES))


def save_config(cfg: HardyConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")


def load_config(path: str) -> HardyConfig:
    return config_from_dict(read_json(path))
