"""Ingestion of real-world records: scalar stacks and gridded field stacks.

Scalar records (e.g. a benthic isotope stack) arrive as delimited text with
a time column in age-before-present units, get linearly interpolated onto a
uniform grid, and are flipped to run forward in physical time so that the
operator's forward step means forward.  Field stacks are flattened snapshot
matrices with a missing-value sentinel; gridpoints missing anywhere are
dropped and a mask remembers how to scatter reconstructions back onto the
grid.
"""

from __future__ import annotations

import dataclasses
import importlib.resources
import math
import warnings

import numpy as np


@dataclasses.dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled series; samples is (N,) scalar or (N, d).

    Sample j lies at time ``t0 + dt * j``; ``dt`` and ``t0`` are stored as
    floats, so ``times`` is a float array whatever numbers they were given as.
    """

    samples: np.ndarray
    dt: float = 1.0
    t0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "t0", float(self.t0))
        if self.samples.ndim not in (1, 2):
            raise ValueError(f"samples must have shape (N,) or (N, d), got {self.samples.shape}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not math.isfinite(self.t0):
            raise ValueError(f"t0 must be finite, got {self.t0!r}")

    def __len__(self):
        return self.samples.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self))


@dataclasses.dataclass(frozen=True)
class NonuniformRecord:
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be equal-length 1-d arrays")
        if len(t) and np.any(np.diff(t) <= 0):
            raise ValueError("record times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


@dataclasses.dataclass(frozen=True)
class FieldMask:
    """Which flattened gridpoints survived sentinel dropping."""

    shape: tuple                 # (ny, nx) of one snapshot
    kept: np.ndarray             # flat indices into the full grid

    @property
    def n_kept(self) -> int:
        return len(self.kept)


def load_scalar_record(path, time_col: int = 0, value_col: int = 1,
                       header_rows: int = 0) -> NonuniformRecord:
    """Parse a delimited text record into (times, values).

    Blank lines and lines starting with ``#`` are skipped, and columns beyond
    the requested two (such as per-sample uncertainty) are ignored.  Times
    are sorted ascending if needed (with a warning); duplicates are an error.
    """
    times, values = [], []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if header_rows > 0:
                header_rows -= 1
                continue
            parts = text.split()
            try:
                t, v = float(parts[time_col]), float(parts[value_col])
            except IndexError:
                name, col = (("value_col", value_col) if -len(parts) <= time_col < len(parts)
                             else ("time_col", time_col))
                raise ValueError(f"{path}: line {lineno} has {len(parts)} column(s), so no "
                                 f"{name} {col} (counting from 0): {text!r}") from None
            except ValueError as exc:
                raise ValueError(f"{path}: parse error at line {lineno}: {text!r}") from exc
            if not (math.isfinite(t) and math.isfinite(v)):
                raise ValueError(f"{path}: non-finite time or value at line {lineno}: {text!r}")
            times.append(t)
            values.append(v)
    t = np.asarray(times)
    v = np.asarray(values)
    if len(t) == 0:
        raise ValueError(f"{path}: no data rows found")
    if np.any(np.diff(t) < 0):
        warnings.warn(f"{path}: times not ascending; sorting", stacklevel=2)
        order = np.argsort(t, kind="stable")
        t, v = t[order], v[order]
    if np.any(np.diff(t) == 0):
        dup = float(t[np.flatnonzero(np.diff(t) == 0)[0]])
        raise ValueError(f"{path}: duplicate time {dup!r} after sorting")
    return NonuniformRecord(times=t, values=v)


def interpolate_uniform(record: NonuniformRecord, dt: float,
                        t_start: float, t_end: float) -> TimeSeries:
    """Linear interpolation onto t_start, t_start+dt, ..., t_end."""
    dt, t_start, t_end = float(dt), float(t_start), float(t_end)
    for name, val in (("dt", dt), ("t_start", t_start), ("t_end", t_end)):
        if not math.isfinite(val):
            raise ValueError(f"{name} must be finite, got {val!r}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if t_end < t_start:
        raise ValueError(f"t_end={t_end!r} lies before t_start={t_start!r}")
    if t_start < record.times[0] or t_end > record.times[-1]:
        raise ValueError(
            f"requested [{t_start}, {t_end}] exceeds record support "
            f"[{record.times[0]}, {record.times[-1]}]; extrapolation not supported")
    n_span = (t_end - t_start) / dt
    if not n_span + 1 <= 1000 * len(record.times):    # checked before allocating it
        raise ValueError(f"a grid of {n_span + 1:.4g} points at dt={dt!r} exceeds 1000 per "
                         f"record sample ({len(record.times)} samples); use a larger dt")
    count = int(round(n_span))
    if not np.isclose(n_span, count, rtol=0.0, atol=1e-9):
        count = int(np.floor(n_span))
    grid = t_start + dt * np.arange(count + 1)
    vals = np.interp(grid, record.times, record.values)
    return TimeSeries(samples=vals, dt=dt, t0=t_start)


def reverse_time(series: TimeSeries) -> TimeSeries:
    """Flip an age-axis series to run forward in physical time.

    A record indexed by age-before-present becomes one indexed by time
    t = -age, so its last sample (the present) comes last.
    """
    t_end = series.t0 + series.dt * (len(series) - 1)
    return TimeSeries(samples=series.samples[::-1].copy(), dt=series.dt, t0=-t_end)


def benthic_fixture_path():
    """Path of the bundled synthetic benthic-stack record."""
    return importlib.resources.files("spectrend").joinpath("datasets/benthic_stack.txt")


def load_benthic_fixture() -> TimeSeries:
    """Bundled stack, interpolated to 1 kyr over [0, 3000] and time-flipped.

    The result runs forward in time (sample 0 is 3000 kyr ago) with
    3001 samples; suitable directly for embedding.
    """
    record = load_scalar_record(benthic_fixture_path())
    return reverse_time(interpolate_uniform(record, 1.0, 0.0, 3000.0))


def load_field_stack(path):
    """Read a snapshot-stack file into (TimeSeries, FieldMask).

    Format: one header line ``ny nx sentinel`` followed by the snapshots,
    each as ny rows of nx values, row major.  Gridpoints equal to the
    sentinel (NaN, for a ``nan`` sentinel) at any time are dropped from every
    snapshot; the mask records the kept flat indices.  Any other NaN or inf
    value is an error.  The samples are a new C-ordered (T, n_kept) array,
    one snapshot per row, so ``embed.delay_embed`` reads them without a copy.
    """
    with open(path) as f:
        header = f.readline().split()
        try:
            if len(header) != 3:
                raise ValueError
            ny, nx, sentinel = int(header[0]), int(header[1]), float(header[2])
        except ValueError:
            raise ValueError(f"{path}: header must be 'ny nx sentinel', got {header!r}") from None
        if ny < 1 or nx < 1:
            raise ValueError(f"{path}: header grid must be at least 1x1, got {ny}x{nx}")
        with warnings.catch_warnings():    # an empty body is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            raw = np.loadtxt(f, ndmin=2)
    if not raw.size:
        raise ValueError(f"{path}: no snapshot rows after the header")
    if raw.size % (ny * nx) != 0 or raw.shape[1] != nx:
        raise ValueError(
            f"{path}: grid mismatch; expected row-major {ny}x{nx} snapshots, "
            f"got {raw.shape[0]} rows of {raw.shape[1]}")
    n_t = raw.shape[0] // ny
    stack = raw.reshape(n_t, ny * nx)
    # one stack-sized mask at a time: the finite check runs before the missing mask
    finite = np.isfinite(stack).all()
    missing = np.isnan(stack) if math.isnan(sentinel) else stack == sentinel
    if not finite:
        bad = np.flatnonzero(~(missing | np.isfinite(stack)))
        if bad.size:
            t, cell = divmod(int(bad[0]), ny * nx)
            raise ValueError(f"{path}: non-finite value {stack.flat[bad[0]]:g} in snapshot {t}, "
                             f"row {cell // nx}, column {cell % nx} (counting from 0)")
    missing = missing.any(axis=0)
    kept = np.flatnonzero(~missing)
    if kept.size == 0:
        raise ValueError(f"{path}: every gridpoint equals the sentinel {sentinel!r} in at "
                         "least one snapshot; no gridpoint is left")
    mask = FieldMask(shape=(ny, nx), kept=kept)
    # take, not stack[:, kept], whose copy is Fortran-ordered
    return TimeSeries(samples=stack.take(kept, axis=1)), mask


def scatter_back(values, mask: FieldMask, fill: float = np.nan) -> np.ndarray:
    """Place kept-gridpoint values back on the full grid.

    ``values`` is (n_kept,) for one snapshot or (T, n_kept) for a stack;
    dropped cells receive ``fill``.
    """
    vals = np.asarray(values)
    if vals.shape[-1] != mask.n_kept:
        raise ValueError(f"expected last axis {mask.n_kept}, got {vals.shape[-1]}")
    full = np.full(vals.shape[:-1] + (mask.shape[0] * mask.shape[1],), fill, dtype=float)
    full[..., mask.kept] = vals
    return full.reshape(vals.shape[:-1] + tuple(mask.shape))


def anomalies(series: TimeSeries, window: tuple, cycle: int) -> TimeSeries:
    """Subtract the per-phase mean computed over a reference window.

    ``window`` is a half-open (start, stop) sample-index range defining the
    climatology; ``cycle`` is the phase count (12 for monthly data).  The
    phase of sample j is j mod cycle.  Every sample of the series gets its
    phase mean subtracted, so a second pass with the window means recomputed
    on the output changes nothing.
    """
    lo, hi = int(window[0]), int(window[1])
    n = len(series)
    if not (0 <= lo < hi <= n):
        raise ValueError(f"window {window!r} outside series of length {n}")
    if cycle < 1:
        raise ValueError(f"cycle must be >= 1, got {cycle}")
    if hi - lo < cycle:
        raise ValueError(f"window shorter than one cycle ({hi - lo} < {cycle})")
    samples = series.samples
    phases = np.arange(n) % cycle
    out = np.array(samples, dtype=float, copy=True)
    # hi - lo >= cycle, so the window holds every phase
    ref, ref_phases = samples[lo:hi], phases[lo:hi]
    for p in range(cycle):
        out[phases == p] -= ref[ref_phases == p].mean(axis=0)
    return TimeSeries(samples=out, dt=series.dt, t0=series.t0)
