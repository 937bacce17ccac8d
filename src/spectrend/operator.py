"""Variable-bandwidth kernel Markov matrix and its eigenpairs.

The operator is built in three steps: per-point bandwidths from the K-th
nearest neighbor, a Gaussian cross-kernel between the point cloud and its
s-step-forward shift,

    S_ij = exp(-||h_i - h_{j+s}||^2 / (d_i d_{j+s})),   i, j = 1..N-s,

and row normalization P_ij = S_ij / sum_j S_ij.  P is row stochastic, so 1 is
always an eigenvalue with constant eigenvector; the rest of the dominant
spectrum carries trends (real eigenvalues) and oscillations (conjugate
pairs).  Right eigenvectors come with dual (left) eigenvectors normalized to
a biorthogonal system, which is what makes spectral projections work.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from ._table import write_table

_PAIR_TOL = 1e-10      # |Im| below this is real; relative gap below this is conjugate
_MOD_DECIMALS = 9      # modulus quantization for ordering ties


class NumericalError(RuntimeError):
    """Numerical failure (degenerate data or solver breakdown)."""


@dataclasses.dataclass(frozen=True)
class MarkovOperator:
    P: np.ndarray                 # (N-s, N-s) row stochastic
    s: int
    K: int
    dt: float = 1.0
    bandwidths: Optional[np.ndarray] = None    # length N
    row_times: Optional[np.ndarray] = None     # physical times of rows

    @property
    def n(self) -> int:
        return self.P.shape[0]


@dataclasses.dataclass(frozen=True)
class SpectralDecomposition:
    """Leading eigenpairs of a Markov operator, ordered by modulus.

    ``pair_index[j]`` holds the position of the conjugate partner of mode j,
    or -1 for (numerically) real eigenvalues.  ``dual_vectors`` are
    eigenvectors of the transposed matrix at the conjugate eigenvalue,
    rescaled so dual_j^dagger v_j = 1.  ``degenerate`` lists mode indices
    where that rescaling was impossible (clustered or defective eigenvalues);
    biorthogonality is not guaranteed there.
    """

    eigenvalues: np.ndarray       # (m,) complex
    right_vectors: np.ndarray     # (n, m) complex, unit norm, phase fixed
    dual_vectors: np.ndarray      # (n, m) complex
    pair_index: np.ndarray        # (m,) int
    residuals: np.ndarray         # (m,) ||P v - lambda v||
    dual_residuals: np.ndarray    # (m,) ||P^T v' - conj(lambda) v'|| / ||v'||
    degenerate: tuple = ()
    s: int = 1
    dt: float = 1.0
    row_times: Optional[np.ndarray] = None

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)


def _as_points(points) -> np.ndarray:
    pts = points.points if hasattr(points, "points") else np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"expected a 2-d point array, got shape {pts.shape}")
    return pts


def knn_bandwidths(points, K: int, duplicate_tol: float = 0.0) -> np.ndarray:
    """Distance from each point to its K-th nearest neighbor (self excluded).

    Neighbors are searched over all N points.  A K-th neighbor distance of
    exactly zero means at least K+1 coincident points and raises
    NumericalError, since a zero bandwidth makes the kernel undefined.
    ``duplicate_tol`` optionally tightens that check to a fraction of the
    data diameter (useful to catch near-duplicates early; default 0 keeps
    legitimately tight clusters usable).
    """
    pts = _as_points(points)
    n = len(pts)
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if K >= n:
        raise ValueError(f"K={K} needs at least K+1={K + 1} points, have {n}")
    if pts.shape[1] <= 25:
        dist, _ = cKDTree(pts).query(pts, k=K + 1)
        d = np.ascontiguousarray(dist[:, K])
    else:
        full = cdist(pts, pts)
        d = np.partition(full, K, axis=1)[:, K]
    threshold = 0.0
    if duplicate_tol > 0.0:
        span = pts.max(axis=0) - pts.min(axis=0)
        threshold = duplicate_tol * float(np.linalg.norm(span))
    bad = np.flatnonzero(d <= threshold)
    if bad.size:
        raise NumericalError(
            f"zero bandwidth: K={K}-th neighbor distance is "
            f"{'0' if threshold == 0 else f'<= {threshold:.3e}'} at "
            f"{bad.size} point(s), first at index {bad[0]} (duplicate points)")
    return d


def kernel_matrix(points, s: int, bandwidths: np.ndarray) -> np.ndarray:
    """Gaussian cross-kernel between the cloud and its s-step shift."""
    pts = _as_points(points)
    n_all = len(pts)
    if s < 0 or s >= n_all:
        raise ValueError(f"forward step s must satisfy 0 <= s < N={n_all}, got {s}")
    d = np.asarray(bandwidths, dtype=float)
    if d.shape != (n_all,):
        raise ValueError(f"bandwidths must have length N={n_all}, got {d.shape}")
    if np.any(d <= 0):
        raise NumericalError("bandwidths must be strictly positive")
    n = n_all - s
    S = cdist(pts[:n], pts[s:], "sqeuclidean")
    S /= np.outer(d[:n], d[s:])
    np.exp(-S, out=S)
    return S


def row_stochastic(S: np.ndarray, s: int = 1, K: int = 0, dt: float = 1.0,
                   bandwidths=None, row_times=None) -> MarkovOperator:
    """Normalize kernel rows to one, yielding the Markov matrix P."""
    S = np.asarray(S, dtype=float)
    sums = S.sum(axis=1)
    dead = np.flatnonzero(sums <= 0.0)
    if dead.size:
        raise NumericalError(
            f"kernel row {dead[0]} sums to zero (isolated point); cannot normalize")
    P = S / sums[:, None]
    return MarkovOperator(P=P, s=s, K=K, dt=dt, bandwidths=bandwidths, row_times=row_times)


def build_operator(emb, s: int, K: int, duplicate_tol: float = 0.0) -> MarkovOperator:
    """Convenience: bandwidths + kernel + normalization from embedded data."""
    d = knn_bandwidths(emb, K, duplicate_tol=duplicate_tol)
    S = kernel_matrix(emb, s, d)
    dt = getattr(emb, "dt", 1.0)
    times = emb.timestamps(len(S)) if hasattr(emb, "timestamps") else None
    return row_stochastic(S, s=s, K=K, dt=dt, bandwidths=d, row_times=times)


def _order_keys(w: np.ndarray):
    # Sort by descending modulus; break ties by descending real part, then
    # positive-imaginary partner first.  The modulus is quantized so that a
    # few ulps of solver noise cannot swap genuinely tied magnitudes (e.g.
    # +1 and -1 on a cyclic permutation).
    return np.lexsort((-w.imag, -w.real, -np.round(np.abs(w), _MOD_DECIMALS)))


def _pair_starts(a, b):
    """Whether b is the conjugate partner of a, with a in the upper half plane."""
    return (np.imag(a) > _PAIR_TOL) & (
        np.abs(b - np.conj(a)) <= _PAIR_TOL * np.maximum(1.0, np.abs(a)))


def eigendecompose(op: MarkovOperator, m: Optional[int] = None) -> SpectralDecomposition:
    """Top-m eigenpairs of P with duals from the transposed matrix.

    Eigenvalues are ordered by descending modulus with conjugate partners
    adjacent (positive imaginary part first).  If position m would split a
    conjugate pair, the partner is kept as well.  Each right eigenvector is
    normalized to unit length with its largest-modulus entry made real
    positive; duals are rescaled for dual^dagger v = 1.
    """
    P = op.P
    n = P.shape[0]
    if m is None:
        m = n
    if not 1 <= m <= n:
        raise ValueError(f"mode count m must lie in [1, {n}], got {m}")
    try:
        w, vl, vr = scipy.linalg.eig(P, left=True, right=True)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    order = _order_keys(w)
    w, vl, vr = w[order], vl[:, order], vr[:, order]
    # do not split a conjugate pair at the retention boundary
    if m < n and _pair_starts(w[m - 1], w[m]):
        m += 1
    w, vl, vr = w[:m], vl[:, :m], vr[:, :m]

    pair = np.full(m, -1, dtype=int)
    starts = np.flatnonzero(_pair_starts(w[:-1], w[1:]))
    pair[starts], pair[starts + 1] = starts + 1, starts
    real = np.abs(w.imag) <= _PAIR_TOL
    w[real] = w[real].real
    degenerate = []
    residuals = np.empty(m)
    dual_residuals = np.empty(m)
    for j in range(m):
        v = vr[:, j]
        v = v / np.linalg.norm(v)
        k = int(np.argmax(np.abs(v)))
        phase = v[k] / abs(v[k])
        v = v / phase
        vr[:, j] = v
        residuals[j] = np.linalg.norm(P @ v - w[j] * v)
        u = vl[:, j]
        dual_residuals[j] = np.linalg.norm(P.T @ u - np.conj(w[j]) * u) / np.linalg.norm(u)
        c = np.vdot(u, v)
        if abs(c) < 1e-12 * np.linalg.norm(u):
            degenerate.append(j)
            vl[:, j] = u / np.linalg.norm(u)
        else:
            vl[:, j] = u / np.conj(c)
    return SpectralDecomposition(
        eigenvalues=w, right_vectors=vr, dual_vectors=vl, pair_index=pair,
        residuals=residuals, dual_residuals=dual_residuals,
        degenerate=tuple(degenerate), s=op.s, dt=op.dt, row_times=op.row_times)


def write_eigenvalue_table(dec: SpectralDecomposition, path) -> None:
    """Text table: index, Re, Im, modulus, argument, residual."""
    lam = dec.eigenvalues
    # hypot, not np.abs: the vectorized complex abs can differ in the last bit
    write_table(path, ["j re_lambda im_lambda modulus argument residual"],
                [np.arange(1, len(lam) + 1), lam, np.hypot(lam.real, lam.imag),
                 np.angle(lam), dec.residuals])
