"""Synthetic nonautonomous model generators.

Four scalar-observation models of nonstationary oscillation, all driven by
simple skew-product dynamics:

* kind ``M``  -- cylinder rotation with a drift in the mean,
  ``h = x + cos(theta)``.
* kind ``A``  -- the same dynamics observed as a drift in the amplitude,
  ``h = (a + x) * cos(theta)``.
* kind ``F``  -- metastable frequency switching: a chaotic interval map
  drives the rotation rate between ``alpha1`` and ``alpha2``,
  ``h = cos(theta)``.
* kind ``Fprime`` -- two coexisting rotations on a solid torus, blended in
  the observation, ``h = w(x) cos(2 pi theta1) + (1 - w(x)) cos(2 pi theta2)``.

All simulations are deterministic given the config.  When ``x0`` is left
unset, kinds F/Fprime draw it from a seeded generator; kinds M/A start at 0.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import sys
from typing import Optional

import numpy as np

from ._table import write_table

TWO_PI = 2.0 * math.pi

#: default seed; chosen so that the default Model F run visits both
#: frequency regimes within the default 2000 steps.
DEFAULT_SEED = 11

_KINDS = ("M", "A", "F", "Fprime")

# default run lengths per kind (drifting helices resolve in 1000 steps,
# the switching models want at least one metastable transition)
_DEFAULT_STEPS = {"M": 1000, "A": 1000, "F": 2000, "Fprime": 2000}


def tent_map_step(x: float, delta: float) -> float:
    """One step of the metastability-inducing tent-like interval map.

    Piecewise-expanding map of [0, 1] with three branches::

        f(x) = 2x                          0   <= x < 1/4
        f(x) = (delta + 2(x - 1/4)) mod 1  1/4 <= x < 3/4
        f(x) = 1/2 + 2(x - 3/4)            3/4 <= x <= 1

    It preserves Lebesgue measure, and each of [0, 1/2] and [1/2, 1] is
    almost-invariant: the per-step probability of crossing between the two
    halves is ``delta`` on average.

    Parameters
    ----------
    x : float
        Current state in [0, 1].
    delta : float
        Switching parameter in (0, 1).

    Returns
    -------
    float
        Next state, in [0, 1].
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"tent map state out of domain [0,1]: x={x!r}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta!r}")
    if x < 0.25:
        return 2.0 * x
    if x < 0.75:
        return (delta + 2.0 * (x - 0.25)) % 1.0
    return 0.5 + 2.0 * (x - 0.75)


def switching_weight(x: float, c: float):
    """Smooth regime indicator ``w(x) = (1 + tanh(c (x - 1/2))) / 2``.

    Monotone increasing, ``w(1/2) = 1/2``; for large ``c`` it is close to 0
    on [0, 1/2) and close to 1 on (1/2, 1].  Accepts scalars or arrays.
    """
    if c <= 0:
        raise ValueError(f"sharpness c must be positive, got {c!r}")
    return 0.5 * (1.0 + np.tanh(c * (np.asarray(x, dtype=float) - 0.5)))


def linear_drift(n_steps: int, span: float = 10.0) -> tuple:
    """Increment coefficients for a linear mean drift covering ``span``."""
    return (span / n_steps, 0.0, 0.0)


def quadratic_drift(n_steps: int, peak: float = 10.0, t_peak_frac: float = 0.65) -> tuple:
    """Increment coefficients for an asymmetric rise-then-fall drift.

    The accumulated drift x(t) follows a downward parabola that rises from 0
    to ``peak`` at ``t_peak_frac * n_steps`` and falls off afterwards.
    """
    tp = t_peak_frac * n_steps
    c1 = 2.0 * peak / tp
    c2 = -c1 / (2.0 * tp)
    # x(t) = c1 t + c2 t^2  =>  increment d(t) = x(t+1) - x(t) = (c1 + c2) + 2 c2 t
    return (c1 + c2, 2.0 * c2, 0.0)


def _is_real(value) -> bool:
    """An int, float or NumPy real scalar, but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A real number a float can hold: not NaN or infinite, nor an int too
    large for a float, on which ``math.isfinite`` raises."""
    return abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value)


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    """Parameters of one synthetic run.

    ``drift`` applies to kinds M/A and is either a named preset
    (``"linear"`` or ``"quadratic"``, resolved against ``n_steps``) or a
    coefficient triple ``(d0, d1, d2)`` giving the per-step increment
    ``d(t) = d0 + d1 t + d2 t^2`` of the drift coordinate.  The presets are
    calibrated so the accumulated drift spans roughly ten oscillation
    amplitudes over the run, matching the helix proportions the analysis
    expects.
    """

    kind: str = "M"
    n_steps: Optional[int] = None
    alpha: float = 0.1
    alpha1: float = TWO_PI / 40.0
    alpha2: float = TWO_PI / 97.3537
    drift: object = "linear"
    a: float = 1.0
    delta: float = 7.5e-4
    c: float = 40.0
    seed: int = DEFAULT_SEED
    x0: Optional[float] = None
    theta0: float = 0.0
    theta2_0: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {_KINDS}")
        steps = self.n_steps if self.n_steps is not None else _DEFAULT_STEPS[self.kind]
        if type(steps) is not int or steps <= 0 or not _is_finite(steps):    # rejects bool
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps!r}")
        object.__setattr__(self, "n_steps", steps)
        if not isinstance(self.seed, numbers.Integral) or type(self.seed) is bool or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        for name in ("alpha", "alpha1", "alpha2", "a", "delta", "c", "theta0", "theta2_0", "x0"):
            value = getattr(self, name)
            if value is None and name == "x0":
                continue
            if not _is_real(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not _is_finite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if isinstance(self.drift, str):
            if self.drift not in ("linear", "quadratic"):
                raise ValueError(f"unknown drift preset {self.drift!r}")
        else:
            coeffs = tuple(self.drift) if isinstance(self.drift, (list, tuple, np.ndarray)) else ()
            if len(coeffs) != 3 or not all(_is_real(v) and _is_finite(v) for v in coeffs):
                raise ValueError("drift must be 'linear', 'quadratic' or a (d0, d1, d2) triple "
                                 f"of finite numbers, got {self.drift!r}")
            object.__setattr__(self, "drift", tuple(float(v) for v in coeffs))
        if self.kind in ("F", "Fprime"):
            if not 0.0 < self.delta < 1.0:
                raise ValueError(f"delta must lie in (0,1), got {self.delta!r}")
            if self.alpha1 == self.alpha2:
                raise ValueError("alpha1 and alpha2 must differ for switching models")
            if self.c <= 0:
                raise ValueError(f"sharpness c must be positive, got {self.c!r}")
            if self.x0 is not None and not 0.0 <= self.x0 <= 1.0:
                raise ValueError(f"x0 must lie in [0,1] for kind {self.kind}, got {self.x0!r}")

    def drift_coefficients(self) -> tuple:
        if self.drift == "linear":
            return linear_drift(self.n_steps)
        if self.drift == "quadratic":
            return quadratic_drift(self.n_steps)
        return self.drift


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """Simulation output: per-step state tuples plus the scalar observation."""

    states: np.ndarray          # (n_steps, k) state components per kind
    observations: np.ndarray    # (n_steps,) scalar h_t
    config: ModelConfig

    @property
    def x(self) -> np.ndarray:
        return self.states[:, 0]


def _resolve_x0(config: ModelConfig) -> float:
    if config.x0 is not None:
        return float(config.x0)
    if config.kind in ("M", "A"):
        return 0.0
    return float(np.random.default_rng(config.seed).random())


def _running_sum(start, inc, n: int) -> np.ndarray:
    """start, start + inc, (start + inc) + inc, ...: n sums, added left to right."""
    terms = np.full(n, inc, dtype=float)
    terms[0] = start
    return np.add.accumulate(terms)


def simulate(config: ModelConfig) -> Trajectory:
    """Run one model and return its trajectory.

    The angle coordinates are accumulated in plain floats without modular
    reduction; reduction happens only inside the observation map, which keeps
    runs bitwise reproducible regardless of accumulation order tricks.
    """
    n = config.n_steps
    switching = config.kind in ("F", "Fprime")
    if not switching:
        d0, d1, d2 = config.drift_coefficients()
    # the driver coordinate: the interval map for F/Fprime, a drift for M/A
    x = np.empty(n)
    xv = _resolve_x0(config)
    for t in range(n):
        x[t] = xv
        xv = tent_map_step(xv, config.delta) if switching else xv + d0 + d1 * t + d2 * t * t
    if config.kind == "F":
        # math.tanh, not switching_weight: np.tanh can differ in the last bit
        theta = np.empty(n)
        tv = config.theta0
        for t, xv in enumerate(x.tolist()):
            theta[t] = tv
            w = 0.5 * (1.0 + math.tanh(config.c * (xv - 0.5)))
            tv = tv + w * config.alpha1 + (1.0 - w) * config.alpha2
        h = np.cos(theta)
        states = [x, theta]
    elif config.kind == "Fprime":
        # Both phases advance every step; the observation blends them.
        # Phases are tracked in cycles so that the observation map is
        # literally cos(2 pi theta); alpha1/alpha2 keep radians-per-step
        # semantics via the 1/(2 pi) conversion.
        th1 = _running_sum(config.theta0, config.alpha1 / TWO_PI, n)
        th2 = _running_sum(config.theta2_0, config.alpha2 / TWO_PI, n)
        w = switching_weight(x, config.c)
        h = w * np.cos(TWO_PI * th1) + (1.0 - w) * np.cos(TWO_PI * th2)
        states = [x, th1, th2]
    else:
        theta = _running_sum(config.theta0, config.alpha, n)
        h = x + np.cos(theta) if config.kind == "M" else (config.a + x) * np.cos(theta)
        states = [x, theta]
    return Trajectory(states=np.column_stack(states), observations=h, config=config)


def regime_mask(trajectory: Trajectory) -> np.ndarray:
    """Boolean mask of steps spent in the fast-rotation regime (x > 1/2).

    Only meaningful for kinds F/Fprime, where the first state column is the
    metastable drive.
    """
    if trajectory.config.kind not in ("F", "Fprime"):
        raise ValueError("regime_mask applies to the switching kinds only")
    return trajectory.x > 0.5


def write_trajectory(trajectory: Trajectory, series_path, meta_path) -> None:
    """Export as two-column text (step index, observation) plus a JSON sidecar."""
    h = trajectory.observations
    write_table(series_path, ["step observation"], [np.arange(len(h)), h])
    cfg = dataclasses.asdict(trajectory.config)
    with open(meta_path, "w") as f:
        json.dump({"model": cfg, "n_steps": int(trajectory.config.n_steps)}, f, indent=2)
        f.write("\n")
