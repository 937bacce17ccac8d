"""Takens delay embedding and the ellipse geometry behind lag selection.

A scalar series sampled from a rotation with per-step angle ``alpha``, once
delay-embedded with lag ``ell`` in three dimensions, traces the closed curve

    gamma_beta(theta) = (cos(theta), cos(theta + beta), cos(theta + 2 beta))

with beta = ell * alpha.  The curve is a planar ellipse whose area is
maximized at beta = pi/3; distinct beta give disjoint ellipses, which is what
lets one operator separate coexisting frequencies.  ``suggest_lag`` picks the
lag so the largest angular rate lands near the top of the useful range.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np


@dataclasses.dataclass(frozen=True)
class EmbeddedSeries:
    """Delay-vector matrix plus the map from its rows to source samples.

    Row ``i`` holds ``(h_t, h_{t-ell}, ..., h_{t-(Q-1) ell})`` for
    ``t = offset + i`` (the newest sample stamps the row), flattened
    snapshot-first when the source is d-dimensional.  ``align`` reads any
    source-indexed array at the same samples; the rows' times are
    ``align(series.times)``.  ``dt`` is the source's sampling interval.
    """

    points: np.ndarray        # (N, d*Q)
    Q: int
    ell: int
    dt: float = 1.0

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def offset(self) -> int:
        """Source index of row 0's newest sample: row ``i`` is stamped by sample
        ``offset + i``."""
        return (self.Q - 1) * self.ell

    def align(self, values, count=None) -> np.ndarray:
        """Entries of source-indexed ``values`` at the first ``count`` rows.

        ``values`` is indexed like the source series, (N~,) or (N~, d), and
        may be any per-sample array: observations, times, masks, targets.
        Returns ``values[offset : offset + count]`` (``count`` defaults to
        every row), a view when ``values`` is an ndarray.
        """
        values = np.asarray(values)
        n = self.n_points if count is None else count
        if not 0 <= n <= self.n_points:
            raise ValueError(f"count must lie in [0, {self.n_points}], got {count!r}")
        if len(values) < self.offset + n:
            raise ValueError(
                f"values of length {len(values)} are too short to align {n} rows: "
                f"need at least {self.offset + n} source samples")
        return values[self.offset:self.offset + n]


def delay_embed(series, Q: int, ell: int) -> EmbeddedSeries:
    """Build delay vectors from a scalar or d-dimensional series.

    Parameters
    ----------
    series : array or TimeSeries
        Shape (N~,) or (N~, d).  A ``TimeSeries`` (see module data) carries
        its ``dt`` into the result; a raw array is sampled at dt = 1.
    Q : int
        Number of delays (Q=1 keeps the series as is).
    ell : int
        Lag between delays, in sampling intervals.

    Returns
    -------
    EmbeddedSeries
        N = N~ - (Q-1) ell rows of dimension d*Q.
    """
    dt = 1.0
    if hasattr(series, "samples"):
        dt, series = series.dt, series.samples
    # C order, so the delay vectors are too: distances run slower on strided rows
    arr = np.ascontiguousarray(series, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if Q < 1 or ell < 1:
        raise ValueError(f"need Q >= 1 and ell >= 1, got Q={Q}, ell={ell}")
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        raise ValueError(f"series has {bad.size} non-finite sample(s) (NaN or inf), "
                         f"first at index {bad[0]}")
    n_src, d = arr.shape
    base = (Q - 1) * ell
    n = n_src - base
    if n <= 0:
        raise ValueError(
            f"series too short for embedding: length {n_src}, "
            f"need at least {base + 1} samples for Q={Q}, ell={ell}")
    cols = [arr[base - q * ell: base - q * ell + n] for q in range(Q)]
    pts = np.hstack(cols)
    return EmbeddedSeries(points=pts, Q=Q, ell=ell, dt=dt)


def ellipse_curve(beta: float, theta) -> np.ndarray:
    """Point(s) of gamma_beta: (cos t, cos(t+beta), cos(t+2 beta))."""
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.cos(theta), np.cos(theta + beta), np.cos(theta + 2.0 * beta)], axis=-1)


def ellipse_axes(beta: float):
    """Semi-axis lengths and unit directions of the embedded ellipse.

    Returns ``(lengths, directions)`` with lengths
    ``(sqrt(2 + cos 2 beta), sqrt(1 - cos 2 beta))`` along the normalized
    directions ``[sin 2 beta, 2 sin beta, sin 2 beta]`` and ``[1, 0, -1]``.
    Valid for 0 < beta <= pi/2.
    """
    if not 0.0 < beta <= math.pi / 2.0:
        raise ValueError(f"beta must lie in (0, pi/2], got {beta!r}")
    c2 = math.cos(2.0 * beta)
    lengths = (math.sqrt(2.0 + c2), math.sqrt(1.0 - c2))
    d1 = np.array([math.sin(2.0 * beta), 2.0 * math.sin(beta), math.sin(2.0 * beta)])
    d2 = np.array([1.0, 0.0, -1.0])
    directions = (d1 / np.linalg.norm(d1), d2 / np.linalg.norm(d2))
    return lengths, directions


def ellipse_area(beta: float) -> float:
    """Area enclosed by gamma_beta: pi sqrt((2 + cos 2b)(1 - cos 2b))."""
    c2 = np.cos(2.0 * np.asarray(beta, dtype=float))
    return np.pi * np.sqrt((2.0 + c2) * (1.0 - c2))


def suggest_lag(alpha_max: float) -> int:
    """Lag such that the fastest rotation advances ~pi/2 per delay.

    round((pi/2) / alpha_max) with half-integer ties rounding down, and a
    floor of 1.
    """
    if not 0.0 < alpha_max <= math.pi:
        raise ValueError(f"alpha_max must lie in (0, pi], got {alpha_max!r}")
    ratio = (math.pi / 2.0) / alpha_max
    return max(1, math.ceil(ratio - 0.5))
