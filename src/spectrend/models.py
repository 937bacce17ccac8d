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
        if type(steps) is not int or steps <= 0:    # rejects bool
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps!r}")
        object.__setattr__(self, "n_steps", steps)
        if self.kind in ("F", "Fprime"):
            if not 0.0 < self.delta < 1.0:
                raise ValueError(f"delta must lie in (0,1), got {self.delta!r}")
            if self.alpha1 == self.alpha2:
                raise ValueError("alpha1 and alpha2 must differ for switching models")
            if self.c <= 0:
                raise ValueError(f"sharpness c must be positive, got {self.c!r}")
            if self.x0 is not None and not 0.0 <= self.x0 <= 1.0:
                raise ValueError(f"x0 must lie in [0,1] for kind {self.kind}, got {self.x0!r}")
        if self.kind in ("M", "A"):
            drift = self.drift
            if isinstance(drift, str):
                if drift not in ("linear", "quadratic"):
                    raise ValueError(f"unknown drift preset {drift!r}")
            else:
                coeffs = tuple(float(v) for v in drift)
                if len(coeffs) != 3:
                    raise ValueError("custom drift must be a (d0, d1, d2) triple")
                object.__setattr__(self, "drift", coeffs)

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


def simulate(config: ModelConfig) -> Trajectory:
    """Run one model and return its trajectory.

    The angle coordinates are accumulated in plain floats without modular
    reduction; reduction happens only inside the observation map, which keeps
    runs bitwise reproducible regardless of accumulation order tricks.
    """
    n = config.n_steps
    x0 = _resolve_x0(config)
    if config.kind in ("M", "A"):
        d0, d1, d2 = config.drift_coefficients()
        x = np.empty(n)
        theta = np.empty(n)
        xv, tv = x0, config.theta0
        for t in range(n):
            x[t] = xv
            theta[t] = tv
            xv = xv + d0 + d1 * t + d2 * t * t
            tv = tv + config.alpha
        if config.kind == "M":
            h = x + np.cos(theta)
        else:
            h = (config.a + x) * np.cos(theta)
        states = np.column_stack([x, theta])
    elif config.kind == "F":
        x = np.empty(n)
        theta = np.empty(n)
        xv, tv = x0, config.theta0
        for t in range(n):
            x[t] = xv
            theta[t] = tv
            w = 0.5 * (1.0 + math.tanh(config.c * (xv - 0.5)))
            tv = tv + w * config.alpha1 + (1.0 - w) * config.alpha2
            xv = tent_map_step(xv, config.delta)
        h = np.cos(theta)
        states = np.column_stack([x, theta])
    else:  # Fprime
        # Both phases advance every step; the observation blends them.
        # Phases are tracked in cycles so that the observation map is
        # literally cos(2 pi theta); alpha1/alpha2 keep radians-per-step
        # semantics via the 1/(2 pi) conversion.
        x = np.empty(n)
        th1 = np.empty(n)
        th2 = np.empty(n)
        xv = x0
        t1, t2 = config.theta0, config.theta2_0
        inc1 = config.alpha1 / TWO_PI
        inc2 = config.alpha2 / TWO_PI
        for t in range(n):
            x[t] = xv
            th1[t] = t1
            th2[t] = t2
            t1 += inc1
            t2 += inc2
            xv = tent_map_step(xv, config.delta)
        w = switching_weight(x, config.c)
        h = w * np.cos(TWO_PI * th1) + (1.0 - w) * np.cos(TWO_PI * th2)
        states = np.column_stack([x, th1, th2])
    return Trajectory(states=states, observations=h, config=config)


def regime_mask(trajectory: Trajectory) -> np.ndarray:
    """Boolean mask of steps spent in the fast-rotation regime (x > 1/2).

    Only meaningful for kinds F/Fprime, where the first state column is the
    metastable drive.
    """
    if trajectory.config.kind not in ("F", "Fprime"):
        raise ValueError("regime_mask applies to the switching kinds only")
    return trajectory.x > 0.5


def write_trajectory(trajectory: Trajectory, series_path, meta_path=None) -> None:
    """Export as two-column text (step index, observation) plus a JSON sidecar."""
    h = trajectory.observations
    write_table(series_path, ["step observation"], [np.arange(len(h)), h])
    if meta_path is not None:
        cfg = dataclasses.asdict(trajectory.config)
        with open(meta_path, "w") as f:
            json.dump({"model": cfg, "n_steps": int(trajectory.config.n_steps)}, f, indent=2)
            f.write("\n")
