"""Two-qubit Born-rule engine and the optimal paradox configuration.

State family: cos(theta)|00> + sin(theta)|11>, with every measurement a
real rotation in the x-z plane, one angle per setting.  For angle a the
analyzer vectors are

    |plus>  =  cos(a)|0> + sin(a)|1>
    |minus> = -sin(a)|0> + cos(a)|1>

and the Born rule gives each cell as one expression in the cos and sin
of the five parameters, each taken once per call.  `export_table` forms
all sixteen, in world order (`_born_cells`); `verify_hardy` forms only
the five it reports, with the same expression per cell, so each of its
values is the table's cell bit for bit.  This real five-parameter
family is rich enough to realize the four target constraints: three
joint-outcome cells at exactly zero and the remaining paradox cell
strictly positive.

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
from .worlds import ProbabilityTable, read_json

# cells below this are treated as exact Born-rule zeros when exporting
ZERO_CLAMP = 1e-10

DEFAULT_TOL = 1e-9
DEFAULT_POSITIVITY_FLOOR = 1e-9

# setting -> HardyConfig field, in field order
_ANGLES = {"L1": "angle_l1", "L2": "angle_l2", "R1": "angle_r1", "R2": "angle_r2"}


class SearchError(RuntimeError):
    """The optimal configuration failed verification."""


class HardyConfig(Value):
    """State parameter plus one measurement angle per setting (radians).

    The state is entangled (non-product) exactly when theta lies
    strictly inside (0, pi/2).
    """

    __slots__ = _fields = ("theta", "angle_l1", "angle_l2", "angle_r1", "angle_r2")

    def _check(self):
        for name in self._fields:
            value = getattr(self, name)
            # save_config writes JSON: a bool would be a JSON boolean, and a
            # Decimal or Fraction no JSON at all
            if value.__class__ is not float and (  # a float, the usual case, passes here
                value.__class__ is bool or not isinstance(value, (int, float))
            ):
                raise ValueError(f"{name} must be a number, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int beyond float range
                raise ValueError(f"{name} is out of range") from None
            if not finite:
                raise ValueError(f"{name} must be finite")

    def angle(self, setting: str) -> float:
        return getattr(self, _ANGLES[setting])


def _born_cells(cfg: HardyConfig) -> tuple[float, ...]:
    """The sixteen cells in world order: cell i is the probability of `WORLDS[i]`.

    A cell is amp * amp, amp = cos(theta) * l[0] * r[0] + sin(theta) * l[1] * r[1]
    for analyzer vectors l and r; moving a minus vector's sign flips out of
    the products changes no magnitude, so each cell is that, bit for bit.
    Each left setting's eight amplitudes are written out; `verify_hardy`
    repeats the expressions of the five cells it reads.
    """
    cos_t, sin_t = math.cos(cfg.theta), math.sin(cfg.theta)
    c1, s1 = math.cos(cfg.angle_r1), math.sin(cfg.angle_r1)
    c2, s2 = math.cos(cfg.angle_r2), math.sin(cfg.angle_r2)
    c, s = math.cos(cfg.angle_l1), math.sin(cfg.angle_l1)
    tc, ss, ts, sc = cos_t * c, sin_t * s, cos_t * s, sin_t * c
    a0, a1 = tc * c1 + ss * s1, ss * c1 - tc * s1  # (L1, R1, +, +), (L1, R1, +, -)
    a2, a3 = sc * s1 - ts * c1, ts * s1 + sc * c1
    a4, a5 = tc * c2 + ss * s2, ss * c2 - tc * s2  # (L1, R2, +, +), (L1, R2, +, -)
    a6, a7 = sc * s2 - ts * c2, ts * s2 + sc * c2
    c, s = math.cos(cfg.angle_l2), math.sin(cfg.angle_l2)
    tc, ss, ts, sc = cos_t * c, sin_t * s, cos_t * s, sin_t * c
    a8, a9 = tc * c1 + ss * s1, ss * c1 - tc * s1  # (L2, R1, +, +), (L2, R1, +, -)
    a10, a11 = sc * s1 - ts * c1, ts * s1 + sc * c1
    a12, a13 = tc * c2 + ss * s2, ss * c2 - tc * s2  # (L2, R2, +, +), (L2, R2, +, -)
    a14, a15 = sc * s2 - ts * c2, ts * s2 + sc * c2
    return (
        a0 * a0, a1 * a1, a2 * a2, a3 * a3, a4 * a4, a5 * a5, a6 * a6, a7 * a7,
        a8 * a8, a9 * a9, a10 * a10, a11 * a11, a12 * a12, a13 * a13, a14 * a14, a15 * a15,
    )


def export_table(cfg: HardyConfig) -> ProbabilityTable:
    """All sixteen Born cells as a table, with sub-clamp cells snapped to exact zero."""
    cells = tuple([0.0 if p <= ZERO_CLAMP else p for p in _born_cells(cfg)])
    return ProbabilityTable._from_cells(cells)


# ---------------------------------------------------------------------------
# The four target constraints

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
    def passed(self) -> bool:  # pass_c1 to pass_c4, written out
        tol, floor = self.tolerance, self.positivity_floor
        return self.c1 <= tol and self.c2 <= tol and self.c3 <= tol and self.c4 >= floor

    def summary(self) -> str:
        return "\n".join([
            f"c1 = P(L2-,R2+|L2,R2) = {self.c1:.3e}  "
            f"[{'ok' if self.pass_c1 else 'FAIL'}: must be <= {self.tolerance:.1e}]",
            f"c2 = P(L2+,R1+|L2,R1) = {self.c2:.3e}  "
            f"[{'ok' if self.pass_c2 else 'FAIL'}: must be <= {self.tolerance:.1e}]",
            f"c3 = P(L1-,R2-|L1,R2) = {self.c3:.3e}  "
            f"[{'ok' if self.pass_c3 else 'FAIL'}: must be <= {self.tolerance:.1e}]",
            f"c4 = P(L1-,R1+|L1,R1) = {self.c4:.9f}  "
            f"[{'ok' if self.pass_c4 else 'FAIL'}: must be >= {self.positivity_floor:.1e}]",
            f"P(L1-) marginal       = {self.marginal_l1_minus:.9f}",
        ])


def verify_hardy(
    cfg: HardyConfig,
    tol: float = DEFAULT_TOL,
    positivity_floor: float = DEFAULT_POSITIVITY_FLOOR,
) -> PredictionReport:
    """Check the three vanishing cells and the positive paradox cell.

    Only the five cells read are formed, each with `_born_cells`' expression
    for its world, so each is that cell bit for bit: c1 to c4, then
    (L1-, R1-), which with c4 makes the P(L1-) marginal.
    """
    if tol.__class__ is not float or positivity_floor.__class__ is not float:  # floats pass here
        for name, value in (("tol", tol), ("positivity_floor", positivity_floor)):
            # a bool would read as 1 or 0, and a str meet `<` with a bare TypeError
            if value.__class__ is bool or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
    if not 0 < tol < math.inf:  # NaN too; an infinite tol would pass any cell
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not positivity_floor > 0:  # a zero floor would pass an exactly vanishing c4
        raise ValueError(f"positivity_floor must be positive, got {positivity_floor}")
    cos_t, sin_t = math.cos(cfg.theta), math.sin(cfg.theta)
    c1, s1 = math.cos(cfg.angle_r1), math.sin(cfg.angle_r1)
    c2, s2 = math.cos(cfg.angle_r2), math.sin(cfg.angle_r2)
    c, s = math.cos(cfg.angle_l2), math.sin(cfg.angle_l2)
    tc, ss, ts, sc = cos_t * c, sin_t * s, cos_t * s, sin_t * c
    amp1 = sc * s2 - ts * c2  # c1: (L2, R2, -, +)
    amp2 = tc * c1 + ss * s1  # c2: (L2, R1, +, +)
    c, s = math.cos(cfg.angle_l1), math.sin(cfg.angle_l1)
    ts, sc = cos_t * s, sin_t * c
    amp3 = ts * s2 + sc * c2  # c3: (L1, R2, -, -)
    amp4 = sc * s1 - ts * c1  # c4: (L1, R1, -, +)
    amp5 = ts * s1 + sc * c1  # (L1, R1, -, -)
    c4 = amp4 * amp4
    return PredictionReport(
        amp1 * amp1, amp2 * amp2, amp3 * amp3, c4, c4 + amp5 * amp5, tol, positivity_floor
    )


# ---------------------------------------------------------------------------
# The paradox optimum

class SearchParams(Value):
    """Accepted for compatibility; `seed` has no effect.

    `find_hardy` returns HARDY_CONFIG, so every seed gives the same
    configuration.
    """

    __slots__ = _fields = ("seed",)
    _defaults = (0,)


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


def find_hardy(params: SearchParams | None = None) -> HardyConfig:
    """HARDY_CONFIG, verified once, at import, as HARDY_REPORT; `params` is ignored."""
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


def _mapping(value, what: str, keys: tuple, kind: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(
            f"bad config file structure: {what} must be a mapping, got {type(value).__name__}"
        )
    for key in value:
        if key not in keys:  # a misspelt key must not pass unread
            only = f"{', '.join(map(repr, keys[:-1]))} and {keys[-1]!r} are read"
            raise ValueError(f"bad config file structure: unknown {kind} {key!r}; only {only}")
    return value


def config_from_dict(data: dict) -> HardyConfig:
    _mapping(data, "the file", ("theta", "angles"), "entry")
    angles = _mapping(_entry(data, "angles", "'angles'"), "'angles'", tuple(_ANGLES), "angle")
    theta = _number(data, "theta", "'theta'")
    return HardyConfig(theta, *(_number(angles, s, f"angle {s!r}") for s in _ANGLES))


def save_config(cfg: HardyConfig, path: str) -> None:
    text = json.dumps(config_to_dict(cfg), indent=2)  # before the file is opened
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_config(path: str) -> HardyConfig:
    return config_from_dict(read_json(path))
