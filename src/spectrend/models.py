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

# kind -> (default run length, fields read besides kind and n_steps).  The kinds
# that read delta switch, and their default run holds a metastable transition
_KINDS = {"M": (1000, {"alpha", "drift", "x0", "theta0"}),
          "A": (1000, {"alpha", "drift", "x0", "theta0", "a"}),
          "F": (2000, {"alpha1", "alpha2", "delta", "c", "seed", "x0", "theta0"}),
          "Fprime": (2000, {"alpha1", "alpha2", "delta", "c", "seed", "x0", "theta0", "theta2_0"})}
_SWITCHING = {kind for kind, (_steps, reads) in _KINDS.items() if "delta" in reads}

# past 2**52 in magnitude a float's spacing reaches 1, so a phase there makes
# cos(theta) noise, and a drift coordinate there swamps x + cos(theta)
_MAX_REACH = 2.0 ** 52


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
    on [0, 1/2) and close to 1 on (1/2, 1].  Accepts scalars or arrays.  Each
    entry is ``0.5 * (1.0 + math.tanh(c * (x - 0.5)))`` to the bit, since
    ``np.tanh`` can differ from ``math.tanh`` in the last bit.
    """
    if c <= 0:
        raise ValueError(f"sharpness c must be positive, got {c!r}")
    z = np.asarray(c * (np.asarray(x, dtype=float) - 0.5))
    tanh = np.fromiter(map(math.tanh, z.ravel().tolist()), float, z.size)
    return 0.5 * (1.0 + tanh.reshape(z.shape))


def linear_drift(n_steps: int) -> tuple:
    """Increment coefficients for a linear mean drift covering 10 over the run."""
    return (10.0 / n_steps, 0.0, 0.0)


def quadratic_drift(n_steps: int) -> tuple:
    """Increment coefficients for an asymmetric rise-then-fall drift.

    The accumulated drift x(t) follows a downward parabola that rises from 0
    to 10 at ``0.65 * n_steps`` and falls off afterwards.
    """
    tp = 0.65 * n_steps
    c1 = 20.0 / tp
    c2 = -c1 / (2.0 * tp)
    # x(t) = c1 t + c2 t^2  =>  increment d(t) = x(t+1) - x(t) = (c1 + c2) + 2 c2 t
    return (c1 + c2, 2.0 * c2, 0.0)


_DRIFTS = {"linear": linear_drift, "quadratic": quadratic_drift}    # preset -> coefficients


def _is_real(value) -> bool:
    """An int, float or NumPy real scalar, but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A real number a float can hold: not NaN or infinite, nor an int too
    large for a float, on which ``math.isfinite`` raises."""
    return abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value)


def _check_reach(terms: dict, coordinate: str) -> None:
    """Reject a coordinate whose bound, the sum of its named terms, reaches
    ``_MAX_REACH``, naming the field of the largest term."""
    reach = sum(terms.values())
    if reach >= _MAX_REACH:
        raise ValueError(f"{max(terms, key=terms.get)} must be smaller in magnitude: the "
                         f"{coordinate} can reach {reach:.3g} over the run, past 2**52, where "
                         "a float's spacing reaches 1")


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    """Parameters of one synthetic run, of kind F unless ``kind`` says otherwise.

    Besides ``kind`` and ``n_steps``, kind M reads ``alpha``, ``drift``, ``x0``
    and ``theta0``, A those and ``a``, F ``alpha1``, ``alpha2``, ``delta``,
    ``c``, ``seed``, ``x0`` and ``theta0``, and Fprime those and ``theta2_0``.
    Each value is judged, read or not.  ``drift`` is a triple ``(d0, d1, d2)``,
    the drift coordinate growing by ``d0 + d1 t + d2 t^2`` at step t, or a
    preset, ``"linear"`` or ``"quadratic"``, spanning about ten oscillation
    amplitudes over ``n_steps``, the helix proportions the analysis expects.

    A config whose phase can reach 2**52 in magnitude during the run, or, for
    kind M, whose drift coordinate can, is rejected with a ``ValueError``
    naming the field: there a float's spacing reaches 1, so ``cos(theta)`` is
    noise and ``x + cos(theta)`` loses the cosine.  The bounds come from the
    config alone: a phase reaches at most ``|start| + n_steps * max|rate|``
    (for Fprime, whose phases count cycles, 2 pi times that many cycles), and
    kind M's drift coordinate at most ``|x0|`` plus the absolute sum of its
    increments.
    """

    kind: str = "F"
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
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {tuple(_KINDS)}")
        switching = self.kind in _SWITCHING
        steps = self.n_steps if self.n_steps is not None else _KINDS[self.kind][0]
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
            if self.drift not in _DRIFTS:
                raise ValueError(f"unknown drift preset {self.drift!r}")
        else:
            coeffs = tuple(self.drift) if isinstance(self.drift, (list, tuple, np.ndarray)) else ()
            if len(coeffs) != 3 or not all(_is_real(v) and _is_finite(v) for v in coeffs):
                raise ValueError(f"drift must be {', '.join(map(repr, _DRIFTS))} or a (d0, d1, d2) "
                                 f"triple of finite numbers, got {self.drift!r}")
            object.__setattr__(self, "drift", tuple(float(v) for v in coeffs))
        if switching:
            if not 0.0 < self.delta < 1.0:
                raise ValueError(f"delta must lie in (0,1), got {self.delta!r}")
            if self.alpha1 == self.alpha2:
                raise ValueError("alpha1 and alpha2 must differ for switching models")
            if self.c <= 0:
                raise ValueError(f"sharpness c must be positive, got {self.c!r}")
            if self.x0 is not None and not 0.0 <= self.x0 <= 1.0:
                raise ValueError(f"x0 must lie in [0,1] for kind {self.kind}, got {self.x0!r}")
        # each phase as (scale, start, rates); Fprime's phases count cycles
        if self.kind == "Fprime":
            phases = [(TWO_PI, "theta0", ("alpha1",)), (TWO_PI, "theta2_0", ("alpha2",))]
        else:
            phases = [(1.0, "theta0", ("alpha1", "alpha2") if switching else ("alpha",))]
        for scale, start, rates in phases:
            rate = max(rates, key=lambda name: abs(getattr(self, name)))
            _check_reach({start: scale * abs(float(getattr(self, start))),
                          rate: steps * abs(float(getattr(self, rate)))}, "phase")
        if self.kind == "M":
            m = float(steps - 1)    # increments, at t = 0 .. m - 1
            sums = (m, m * (m - 1.0) / 2.0, m * (m - 1.0) * (2.0 * m - 1.0) / 6.0)
            _check_reach({"x0": abs(float(self.x0 or 0.0)),
                          "drift": sum(abs(d) * s for d, s in zip(self.drift_coefficients(), sums)
                                       if d)}, "drift coordinate")

    def drift_coefficients(self) -> tuple:
        return _DRIFTS[self.drift](self.n_steps) if isinstance(self.drift, str) else self.drift


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """Simulation output: per-step state tuples plus the scalar observation."""

    states: np.ndarray          # (n_steps, k) state components per kind
    observations: np.ndarray    # (n_steps,) scalar h_t
    config: ModelConfig

    @property
    def x(self) -> np.ndarray:
        return self.states[:, 0]


def _running_sum(start, steps: np.ndarray) -> np.ndarray:
    """start, then that plus each row of the (n - 1, k) ``steps`` in turn, added one
    term at a time, left to right: a row ``[a, b]`` gives exactly ``v = v + a + b``."""
    return np.add.accumulate(np.append(float(start), steps))[::steps.shape[1]]


def simulate(config: ModelConfig) -> Trajectory:
    """Run one model and return its trajectory.

    One loop steps the driver coordinate x (the tent map or the drift).  Each
    phase, unreduced until the observation map, is a ``_running_sum`` of its
    per-step terms in the order its formula writes them; F and Fprime weigh by
    one ``switching_weight`` of x.
    """
    n = config.n_steps
    switching = config.kind in _SWITCHING
    if not switching:
        d0, d1, d2 = config.drift_coefficients()
    # the driver coordinate: the interval map for F/Fprime, a drift for M/A
    x = np.empty(n)
    xv = (float(config.x0) if config.x0 is not None
          else float(np.random.default_rng(config.seed).random()) if switching else 0.0)
    for t in range(n):
        x[t] = xv
        xv = tent_map_step(xv, config.delta) if switching else xv + d0 + d1 * t + d2 * t * t
    w = switching_weight(x, config.c) if switching else None
    if config.kind == "F":
        theta = _running_sum(config.theta0,
                             np.column_stack([w * config.alpha1, (1.0 - w) * config.alpha2])[:-1])
        h = np.cos(theta)
        states = [x, theta]
    elif config.kind == "Fprime":
        # both phases advance every step, in cycles, so that the observation
        # is literally cos(2 pi theta); alpha1/alpha2 stay radians per step
        th1 = _running_sum(config.theta0, np.full((n - 1, 1), config.alpha1 / TWO_PI))
        th2 = _running_sum(config.theta2_0, np.full((n - 1, 1), config.alpha2 / TWO_PI))
        h = w * np.cos(TWO_PI * th1) + (1.0 - w) * np.cos(TWO_PI * th2)
        states = [x, th1, th2]
    else:
        theta = _running_sum(config.theta0, np.full((n - 1, 1), config.alpha, dtype=float))
        h = x + np.cos(theta) if config.kind == "M" else (config.a + x) * np.cos(theta)
        states = [x, theta]
    return Trajectory(states=np.column_stack(states), observations=h, config=config)


def regime_mask(trajectory: Trajectory) -> np.ndarray:
    """Boolean mask of steps spent in the fast-rotation regime (x > 1/2).

    Only meaningful for kinds F/Fprime, where the first state column is the
    metastable drive.
    """
    if trajectory.config.kind not in _SWITCHING:
        raise ValueError("regime_mask applies to the switching kinds only")
    return trajectory.x > 0.5


def write_trajectory(trajectory: Trajectory, series_path, meta_path) -> None:
    """Export as two-column text (step index, observation) plus a JSON sidecar."""
    h, reads = trajectory.observations, {"kind", "n_steps"} | _KINDS[trajectory.config.kind][1]
    write_table(series_path, ["step observation"], [np.arange(len(h)), h])
    cfg = {k: v for k, v in dataclasses.asdict(trajectory.config).items() if k in reads}
    with open(meta_path, "w") as f:
        json.dump({"model": cfg, "n_steps": int(trajectory.config.n_steps)}, f, indent=2)
        f.write("\n")
