"""Physical interpretation of eigenpairs: periods, trends, projections.

Mode indices in this module are 1-based to match the usual eigenvalue
numbering (mode 1 is the constant eigenvector of a row-stochastic matrix).
A conjugate pair encodes an oscillation with period 2 pi s dt / |arg lambda|;
the first nontrivial real eigenvector is the trend mode.  Reconstruction
projects a target series onto chosen modes through the biorthogonal system,
Pi_j = v_j dual_j^dagger, applied componentwise for vector-valued targets.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from ._table import write_table
from .operator import _EIG_TOL, SpectralDecomposition

_BLOCK = 64    # target columns, or output rows, per product in ``project``


@dataclasses.dataclass(frozen=True)
class ModeReport:
    index: int                    # 1-based position in the decomposition
    eigenvalue: complex
    kind: str                     # "constant" | "trend" | "oscillatory"
    period: Optional[float]       # physical units; None for real eigenvalues
    amplitude: float              # |dual^dagger observations|
    time_series: np.ndarray       # Re v_j, one entry per operator row


@dataclasses.dataclass(frozen=True)
class Projection:
    indices: tuple                # 1-based, as requested (sorted)
    series: np.ndarray            # same shape as the target
    realness: bool                # True iff index set closed under conjugation


def eigenperiod(lam: complex, s: int, dt: float = 1.0) -> float:
    """Oscillation period 2 pi s dt / |arg lambda| of a complex eigenvalue.

    Raises for (numerically) real eigenvalues, whose period is undefined;
    report writers show those with an infinity sentinel instead.  Frequencies
    above the Nyquist rate of the s-step map alias into |arg| <= pi and are
    reported as such.
    """
    if abs(np.imag(lam)) <= _EIG_TOL:
        raise ValueError(f"eigenvalue {complex(lam)} is real; period undefined (infinite)")
    return 2.0 * math.pi * s * dt / abs(np.angle(lam))


def _target_array(target, n: int, what: str) -> np.ndarray:
    arr = np.asarray(target, dtype=float)
    if arr.shape[0] != n:
        raise ValueError(f"{what} length {arr.shape[0]} does not match eigenvector length {n}")
    return arr


def classify_modes(dec: SpectralDecomposition, observations) -> list:
    """Tag each mode and attach projection amplitudes a_j = |Y_j|.

    Y_j is the coefficient of ``observations``, an (n,) array aligned to the
    operator's rows by ``EmbeddedSeries.align``, in the biorthogonal expansion.
    Conjugate pairs are reported once, through their positive-frequency
    member, which ``pair_index`` places first.  Mode 1 is tagged ``constant``,
    a pair ``oscillatory`` and any other mode ``trend``, which so means
    "nontrivial real"; ``trend_mode`` returns the first such mode, the
    paper's lambda_2 eigenvector.
    """
    h = _target_array(observations, dec.right_vectors.shape[0], "observations")
    if h.ndim != 1:
        raise ValueError("classify_modes expects a scalar observation series")
    Y = dec.dual_vectors.conj().T @ h
    reports = []
    for j in range(dec.n_modes):
        lam = dec.eigenvalues[j]
        partner = dec.pair_index[j]
        if 0 <= partner < j:
            continue          # the positive member already reported this pair
        if j == 0:
            kind = "constant"
        elif partner < 0:
            kind = "trend"
        else:
            kind = "oscillatory"
        period = eigenperiod(lam, dec.s, dec.dt) if kind == "oscillatory" else None
        reports.append(ModeReport(
            index=j + 1, eigenvalue=complex(lam), kind=kind, period=period,
            amplitude=float(abs(Y[j])), time_series=dec.right_vectors[:, j].real))
    return reports


def conjugate_closure(dec: SpectralDecomposition, indices) -> tuple:
    """Smallest superset of 1-based ``indices`` closed under conjugation."""
    closed = set()
    for i in indices:
        j = int(i) - 1
        if not 0 <= j < dec.n_modes:
            raise ValueError(f"mode index {i} out of range 1..{dec.n_modes}")
        closed.add(j)
        if dec.pair_index[j] >= 0:
            closed.add(int(dec.pair_index[j]))
    return tuple(sorted(k + 1 for k in closed))


def _spans(n: int) -> list:
    """Slices of ``_BLOCK`` consecutive indices covering range(n), with a last
    lone index joined to the slice before it: NumPy multiplies a single row or
    column through another BLAS routine, which may round differently."""
    starts = list(range(0, n - 1, _BLOCK)) or [0]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def project(dec: SpectralDecomposition, indices, target) -> Projection:
    """Project a target series onto the span of the chosen modes.

    ``indices`` are 1-based mode positions.  The target, aligned to the rows
    by ``EmbeddedSeries.align``, is scalar (n,) or d-dimensional (n, d), and
    the projection acts componentwise.  When the index set is closed under
    conjugation the output of a real target is real and returned as such.

    With V and W the chosen right and dual vectors, the projection is
    V (W^H h), and no (n, d) complex array is made for it: W^H h is formed
    over blocks of ``_BLOCK`` columns of the target, and for a closed set
    V (W^H h) over blocks of ``_BLOCK`` rows, written straight into a new
    C-ordered float output.  An open set's output is the one complex array.
    At one BLAS thread every entry equals the unblocked product's to the
    bit; a product that BLAS splits over threads may round differently.
    """
    idx = sorted({int(i) for i in indices})
    realness = conjugate_closure(dec, idx) == tuple(idx)
    n = dec.right_vectors.shape[0]
    h = _target_array(target, n, "target")
    flat = h[:, None] if h.ndim == 1 else h
    zero = [i - 1 for i in idx]
    V = dec.right_vectors[:, zero]
    WH = dec.dual_vectors[:, zero].conj().T
    C = np.empty((len(zero), flat.shape[1]), dtype=complex)
    for cols in _spans(flat.shape[1]):
        C[:, cols] = WH @ flat[:, cols]    # a complex copy of one column block only
    if realness:
        out = np.empty(flat.shape)
        for rows in _spans(n):
            out[rows] = (V[rows] @ C).real
    else:
        out = V @ C
    if h.ndim == 1:
        out = out[:, 0]
    return Projection(indices=tuple(idx), series=out, realness=realness)


def affine_scale(mode_series, reference):
    """Least-squares affine map of a mode onto a reference series.

    Returns ``(offset, gain, scaled)`` minimizing
    ``||gain * mode + offset - reference||``.
    """
    mode = np.asarray(mode_series, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if mode.shape != ref.shape or mode.ndim != 1:
        raise ValueError("mode and reference must be equal-length 1-d arrays")
    if np.ptp(mode) == 0.0:
        raise ValueError("mode series is constant; affine scaling is degenerate")
    A = np.column_stack([mode, np.ones_like(mode)])
    (gain, offset), *_ = np.linalg.lstsq(A, ref, rcond=None)
    return float(offset), float(gain), gain * mode + offset


def regime_localization(mode_series, mask) -> float:
    """Amplitude concentration of a mode on a masked region.

    RMS of |mode| inside the mask divided by RMS outside.  Returns ``inf``
    when the mode vanishes outside the mask.
    """
    mode = np.asarray(mode_series)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != mode.shape:
        raise ValueError(f"mask shape {mask.shape} does not match mode shape {mode.shape}")
    n_in = int(mask.sum())
    if n_in == 0 or n_in == mask.size:
        raise ValueError("mask must select a nonempty strict subset of the series")
    amp2 = np.abs(mode) ** 2
    inside = math.sqrt(amp2[mask].mean())
    outside = math.sqrt(amp2[~mask].mean())
    if outside == 0.0:
        return math.inf
    return inside / outside


def trend_mode(dec: SpectralDecomposition):
    """First nontrivial real mode: returns (1-based index, Re v)."""
    for j in range(1, dec.n_modes):
        if dec.pair_index[j] < 0:
            return j + 1, dec.right_vectors[:, j].real
    raise ValueError("no nontrivial real eigenvalue among the retained modes")


def nearest_pair(dec: SpectralDecomposition, period: float):
    """1-based index of the positive-frequency pair member whose period is
    closest to ``period``; None when the decomposition has no pairs."""
    upper = [j for j in range(dec.n_modes) if dec.pair_index[j] > j]
    best = min(upper, default=None,
               key=lambda j: abs(eigenperiod(dec.eigenvalues[j], dec.s, dec.dt) - period))
    return None if best is None else best + 1


def write_mode_table(reports: Sequence, dest, fmt=None) -> None:
    """Mode table: j, Re, Im, period (inf for real modes), amplitude, kind.

    ``dest`` is a path or an open text file; ``fmt`` overrides the default
    column formats as in ``write_table``.
    """
    write_table(dest, ["j re_lambda im_lambda period amplitude kind"],
                [[r.index for r in reports], [r.eigenvalue for r in reports],
                 [math.inf if r.period is None else r.period for r in reports],
                 [r.amplitude for r in reports], [r.kind for r in reports]], fmt)


def write_projection(proj: Projection, times, path) -> None:
    """Reconstruction table: time, then one value (or Re, Im pair) per component.

    ``times`` holds one time per row of ``proj.series``, such as
    ``emb.align(series.times, op.n)``.
    """
    write_table(path, [f"modes {','.join(str(i) for i in proj.indices)}"
                       f" real={'yes' if proj.realness else 'no'}", "time value..."],
                [times, proj.series])
