"""Variable-bandwidth kernel Markov matrix and its eigenpairs.

The operator is built in three steps: per-point bandwidths from the K-th
nearest neighbor, a Gaussian cross-kernel between the point cloud and its
s-step-forward shift,

    S_ij = exp(-||h_i - h_{j+s}||^2 / (d_i d_{j+s})),   i, j = 1..N-s,

and row normalization P_ij = S_ij / sum_j S_ij.  The first two steps read one
N x N matrix of squared distances between all points, computed once; the
kernel overwrites its (N-s) x (N-s) block in place.  P is row stochastic, so
1 is always an eigenvalue with constant eigenvector; the rest of the dominant
spectrum carries trends (real eigenvalues) and oscillations (conjugate
pairs).  Right eigenvectors come with dual (left) eigenvectors normalized to
a biorthogonal system, which is what makes spectral projections work.

Only the leading modes are computed: ARPACK's implicitly restarted Arnoldi
method (``scipy.sparse.linalg.eigs``) runs on P for the right vectors and on
P^T for the left ones, so the cost grows with the requested mode count
rather than as N^3.  ARPACK reads P only through matrix-vector products, so
when at most ``_CSR_DENSITY`` (10%) of P's entries are nonzero, it and the
residual products run on a CSR copy of P.  The full dense LAPACK ``eig`` of
P is the fallback in four cases: the request is too large for ARPACK
(modes + 2 >= N - 1); ARPACK fails or does not converge within
``_KRYLOV_RESTARTS`` restarts; an eigenvalue outside the computed set may tie
in modulus with the last retained mode, so ARPACK's choice among tied values
could differ from the ordering convention; or the left and right eigenvalues
of the retained set do not match.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.spatial.distance import cdist

from ._table import write_table

_PAIR_TOL = 1e-10      # |Im| below this is real; relative gap below this is conjugate
_MOD_DECIMALS = 9      # modulus quantization for ordering ties
_KRYLOV_RESTARTS = 50  # ARPACK restart budget before the dense fallback
# Largest nonzero fraction of P at which ARPACK reads a CSR copy of it.  On a
# 2-core Xeon a CSR matvec beats the dense one below about 0.2 nonzero:
# 0.50 vs 1.9 ms at 0.059 (model F, n = 2979), 4.1 vs 1.7 ms at 0.455
# (benthic, n = 2954), 0.080 vs 0.052 ms at 0.30 (40x40 field, n = 496, one
# BLAS thread).  The cutoff sits well below that crossover.
_CSR_DENSITY = 0.1


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


def _as_sqdist(D2) -> np.ndarray:
    D2 = np.asarray(D2, dtype=float)
    if D2.ndim != 2 or D2.shape[0] != D2.shape[1]:
        raise ValueError(f"expected a square matrix of squared distances, got shape {D2.shape}")
    return D2


def knn_bandwidths(D2, K: int) -> np.ndarray:
    """Distance from each point to its K-th nearest neighbor (self excluded).

    ``D2`` holds the squared distances between all N points, so neighbors
    are searched over all of them.  A K-th neighbor distance of exactly zero
    means at least K+1 coincident points and raises NumericalError, since a
    zero bandwidth makes the kernel undefined; so does an overflowed one.
    """
    D2 = _as_sqdist(D2)
    n = len(D2)
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if K >= n:
        raise ValueError(f"K={K} needs at least K+1={K + 1} points, have {n}")
    d = np.sqrt(np.partition(D2, K, axis=1)[:, K])
    if not np.all(np.isfinite(d)):
        raise NumericalError("squared distances overflow the float range; rescale the data")
    bad = np.flatnonzero(d <= 0.0)
    if bad.size:
        raise NumericalError(
            f"zero bandwidth: K={K}-th neighbor distance is 0 at "
            f"{bad.size} point(s), first at index {bad[0]} (duplicate points)")
    return d


def kernel_matrix(D2, s: int, bandwidths: np.ndarray) -> np.ndarray:
    """Gaussian cross-kernel between the cloud and its s-step shift.

    ``D2`` holds the squared distances between all N points.  The kernel is
    computed in place on its block ``D2[:N-s, s:]``, which is returned, so
    ``D2`` is overwritten.
    """
    D2 = _as_sqdist(D2)
    n_all = len(D2)
    if s < 0 or s >= n_all:
        raise ValueError(f"forward step s must satisfy 0 <= s < N={n_all}, got {s}")
    d = np.asarray(bandwidths, dtype=float)
    if d.shape != (n_all,):
        raise ValueError(f"bandwidths must have length N={n_all}, got {d.shape}")
    if np.any(d <= 0):
        raise NumericalError("bandwidths must be strictly positive")
    n = n_all - s
    S = D2[:n, s:]
    S /= np.outer(d[:n], d[s:])
    np.exp(-S, out=S)
    return S


def row_stochastic(S: np.ndarray, s: int = 1, K: int = 0, dt: float = 1.0,
                   bandwidths=None, row_times=None) -> MarkovOperator:
    """Normalize kernel rows to one, yielding the Markov matrix P."""
    S = np.asarray(S, dtype=float)
    sums = S.sum(axis=1)
    # a NaN or inf entry makes its row sum non-finite
    bad = np.flatnonzero(~np.isfinite(sums))
    if bad.size:
        raise NumericalError(
            f"kernel has non-finite entries in {bad.size} row(s), first row {bad[0]}: "
            "squared distances overflow the float range; rescale the data")
    dead = np.flatnonzero(sums <= 0.0)
    if dead.size:
        raise NumericalError(
            f"kernel row {dead[0]} sums to zero (isolated point); cannot normalize")
    P = S / sums[:, None]
    # Entries below eps are negligible against each row's sum of 1, but the
    # many subnormal ones make every matrix product several times slower.
    P[P < np.finfo(float).eps] = 0.0
    return MarkovOperator(P=P, s=s, K=K, dt=dt, bandwidths=bandwidths, row_times=row_times)


def build_operator(emb, s: int, K: int) -> MarkovOperator:
    """Convenience: bandwidths + kernel + normalization from embedded data."""
    pts = getattr(emb, "points", emb)    # cdist rejects anything but 2-d points
    D2 = cdist(pts, pts, "sqeuclidean")
    d = knn_bandwidths(D2, K)
    S = kernel_matrix(D2, s, d)
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


def _retained(w: np.ndarray, m: int) -> int:
    """Mode count m, widened by one where position m would split a conjugate pair."""
    return m + 1 if m < len(w) and _pair_starts(w[m - 1], w[m]) else m


def _dense_eigs(P: np.ndarray):
    """All eigenvalues of P with left and right vectors, in mode order."""
    try:
        w, vl, vr = scipy.linalg.eig(P, left=True, right=True)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    order = _order_keys(w)
    return w[order], vl[:, order], vr[:, order]


def _leading_eigs(P: np.ndarray, m: int, A=None):
    """Leading eigenvalues of P in mode order, with left and right vectors.

    Returns at least ``_retained(w, m)`` modes.  The left vector of mode j is
    an eigenvector of P^T at conj(w_j), as ``scipy.linalg.eig`` returns it.
    ARPACK reads ``A``, which is P (the default) or a sparse copy of it; the
    dense fallback reads P.
    """
    A = P if A is None else A
    n = P.shape[0]
    k = m + 2
    if k >= n - 1:
        return _dense_eigs(P)
    import scipy.sparse.linalg as sla    # deferred: keeps the CLI import cheap

    # A fixed random start keeps runs reproducible; ones would not do, being
    # the lambda = 1 eigenvector.  ncv = 4k needs far fewer restarts than
    # ARPACK's default 2k + 1 on the clustered spectra near 1.
    opts = dict(k=k, ncv=min(n, 4 * k), maxiter=_KRYLOV_RESTARTS,
                v0=np.random.default_rng(0).standard_normal(n))
    try:
        w, vr = sla.eigs(A, **opts)
        mu, vl = sla.eigs(A.T, **opts)
    except sla.ArpackError:
        return _dense_eigs(P)
    order = _order_keys(w)
    w, vr = w[order], vr[:, order]
    order = _order_keys(np.conj(mu))
    mu, vl = mu[order], vl[:, order]
    r = _retained(w, m)
    rounded = np.round(np.abs(w), _MOD_DECIMALS)
    # an eigenvalue ARPACK did not return has modulus <= min |w|, so the
    # retained set is the leading one only if that bound sorts strictly after it
    if rounded[-1] >= rounded[r - 1] or np.any(
            np.abs(np.conj(mu[:r]) - w[:r]) > _PAIR_TOL):
        return _dense_eigs(P)
    return w, vl, vr


def _matmul(A, V: np.ndarray) -> np.ndarray:
    """A @ V for real (dense or sparse) A and complex V, without a complex copy of A."""
    return A @ V.real + 1j * (A @ V.imag)


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
    # products with P cost less on a CSR copy when P is mostly zero
    A = P
    if m + 2 < n - 1 and np.count_nonzero(P) / P.size <= _CSR_DENSITY:
        A = scipy.sparse.csr_array(P)
    w, vl, vr = _leading_eigs(P, m, A)
    # do not split a conjugate pair at the retention boundary
    m = _retained(w, m)
    w, vl, vr = w[:m], vl[:, :m], vr[:, :m]

    pair = np.full(m, -1, dtype=int)
    starts = np.flatnonzero(_pair_starts(w[:-1], w[1:]))
    pair[starts], pair[starts + 1] = starts + 1, starts
    real = np.abs(w.imag) <= _PAIR_TOL
    w[real] = w[real].real
    vr = vr / np.linalg.norm(vr, axis=0)
    peak = vr[np.argmax(np.abs(vr), axis=0), np.arange(m)]
    vr = vr / (peak / np.abs(peak))
    residuals = np.linalg.norm(_matmul(A, vr) - vr * w, axis=0)
    unorm = np.linalg.norm(vl, axis=0)
    dual_residuals = np.linalg.norm(_matmul(A.T, vl) - vl * np.conj(w), axis=0) / unorm
    c = np.sum(np.conj(vl) * vr, axis=0)
    degenerate = np.abs(c) < 1e-12 * unorm
    vl = vl / np.where(degenerate, unorm, np.conj(c))
    return SpectralDecomposition(
        eigenvalues=w, right_vectors=vr, dual_vectors=vl, pair_index=pair,
        residuals=residuals, dual_residuals=dual_residuals,
        degenerate=tuple(np.flatnonzero(degenerate).tolist()), s=op.s, dt=op.dt,
        row_times=op.row_times)


def write_eigenvalue_table(dec: SpectralDecomposition, path) -> None:
    """Text table: index, Re, Im, modulus, argument, residual."""
    lam = dec.eigenvalues
    # hypot, not np.abs: the vectorized complex abs can differ in the last bit
    write_table(path, ["j re_lambda im_lambda modulus argument residual"],
                [np.arange(1, len(lam) + 1), lam, np.hypot(lam.real, lam.imag),
                 np.angle(lam), dec.residuals])
