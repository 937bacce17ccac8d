"""Variable-bandwidth kernel Markov matrix and its eigenpairs.

The operator is built in three steps: per-point bandwidths from the K-th
nearest neighbor, a Gaussian cross-kernel between the point cloud and its
s-step-forward shift,

    S_ij = exp(-||h_i - h_{j+s}||^2 / (d_i d_{j+s})),   i, j = 1..N-s,

and row normalization P_ij = S_ij / sum_j S_ij.  All three steps work on one
N x N matrix of squared distances between all points, computed once: the
kernel is packed from its (N-s) x (N-s) block to the front of that matrix's
buffer, and P is normalized in place over the kernel.  Each step runs in
blocks of ``_ROW_BLOCK`` rows, so no temporary exceeds that many rows of N
entries and the build holds one N x N array.  P is row stochastic, so
1 is always an eigenvalue with constant eigenvector; the rest of the dominant
spectrum carries trends (real eigenvalues) and oscillations (conjugate
pairs).  Right eigenvectors come with dual (left) eigenvectors normalized to
a biorthogonal system, which is what makes spectral projections work.

Only the leading modes are computed: ARPACK's implicitly restarted Arnoldi
method (``scipy.sparse.linalg.eigs``) runs on P for the right vectors and on
P^T for the left ones, so the cost grows with the requested mode count
rather than as N^3.  ``eigendecompose`` picks one operand for ARPACK and for
every residual product: a CSR copy of P when at most ``_CSR_DENSITY`` (10%)
of P is nonzero, else a ``LinearOperator`` whose products call
``scipy.linalg.blas`` on P itself.  ARPACK asks its caller for every product
with P, so the caller picks the BLAS.  The NumPy and SciPy wheels each bundle
an OpenBLAS; ARPACK and LAPACK link SciPy's and NumPy's ``@`` runs in
NumPy's, so dense products through SciPy's keep the eigensolve in one
OpenBLAS thread pool, not two competing for the same cores.
``_leading_eigs`` alone judges whether ARPACK can answer.  It returns None
for a request ARPACK cannot take (modes + 2 not below N - 1), when ARPACK
failed or did not converge within ``_KRYLOV_RESTARTS`` restarts, when an
eigenvalue outside the computed set may tie in modulus with the last
retained mode, or when the left and right retained eigenvalues differ; the
dense LAPACK ``eig`` of P, called from one line, answers each None.  Both
solvers' answers pass through one mode-order helper, which puts each
conjugate partner, rebuilt by conjugation, right after its upper half-plane
member; ``pair_index`` records that pairing and is the one pairing rule
downstream.  A numerically real pair (|Im| at most ``_PAIR_TOL``) is left
unpaired and given the real basis (Re v, Im v).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.blas import dgemm, dgemv
from scipy.spatial.distance import cdist

from ._table import write_table
from .embed import EmbeddedSeries

_PAIR_TOL = 1e-10      # an eigenvalue with |Im| at most this is real
_LR_TOL = 1e-10        # largest |left - right| eigenvalue gap of a usable ARPACK answer
_MOD_DECIMALS = 9      # modulus quantization for ordering ties
_KRYLOV_RESTARTS = 50  # ARPACK restart budget before the dense fallback
# Largest nonzero fraction of P at which ARPACK reads a CSR copy of it.  On a
# 2-core Xeon a CSR matvec beats the dense one (SciPy's dgemv) below about 0.2
# nonzero: 0.56 vs 2.0 ms at 0.060 (model F, n = 2979), 4.0 vs 1.8 ms at 0.455
# (benthic, n = 2954), 0.053 vs 0.048 ms at 0.30 (40x40 field, n = 496, one
# BLAS thread).  The cutoff sits well below that crossover.
_CSR_DENSITY = 0.1
_ROW_BLOCK = 256       # rows per block of the operator build


class NumericalError(RuntimeError):
    """Numerical failure (degenerate data or solver breakdown)."""


@dataclasses.dataclass(frozen=True)
class MarkovOperator:
    """Row-stochastic P on the first N - s rows of an ``EmbeddedSeries`` emb;
    ``emb.align(values, op.n)`` reads any source-indexed array at P's rows, and
    ``s`` and the source's sampling interval ``dt`` set the unit of eigenperiods."""

    P: np.ndarray                 # (N-s, N-s) row stochastic
    s: int
    dt: float = 1.0

    @property
    def n(self) -> int:
        return self.P.shape[0]


@dataclasses.dataclass(frozen=True)
class SpectralDecomposition:
    """Leading eigenpairs of a Markov operator, ordered by modulus.

    ``pair_index[j]`` holds the position of the conjugate partner of mode j,
    or -1 for (numerically) real eigenvalues, whose vectors are real.
    ``dual_vectors`` are eigenvectors of the transposed matrix at the
    conjugate eigenvalue, rescaled so dual_j^dagger v_j = 1.  ``degenerate``
    lists the modes where that rescaling was refused because the condition
    number kappa_j = |dual_j| |v_j| / |dual_j^dagger v_j| exceeded 1e12
    (clustered or defective eigenvalues).  That is all the flag guarantees:
    outside it kappa_j <= 1e12 and dual_j^dagger v_j = 1.  Biorthogonality
    across modes, dual_i^dagger v_j = 0 for i != j, holds only as far as
    the eigenvalues are apart; near-tied eigenvalues can break it with no mode
    flagged, and a projection onto several of them is then not idempotent.
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

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)


def _as_sqdist(D2) -> np.ndarray:
    D2 = np.ascontiguousarray(D2, dtype=float)
    if D2.ndim != 2 or D2.shape[0] != D2.shape[1]:
        raise ValueError(f"expected a square matrix of squared distances, got shape {D2.shape}")
    return D2


def _row_blocks(n: int):
    """Slices of at most ``_ROW_BLOCK`` consecutive rows covering range(n)."""
    return (slice(i, min(i + _ROW_BLOCK, n)) for i in range(0, n, _ROW_BLOCK))


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
    d = np.empty(n)
    for rows in _row_blocks(n):
        d[rows] = np.partition(D2[rows], K, axis=1)[:, K]
    np.sqrt(d, out=d)
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

    ``D2`` holds the squared distances between all N points.  The kernel of
    its block ``D2[:N-s, s:]`` is packed, C-contiguous, to the front of
    ``D2``'s own buffer and returned, so a C-contiguous float64 ``D2`` is
    overwritten.
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
    S = D2.reshape(-1)[:n * n].reshape(n, n)
    # Row i moves from offset i*N + s to i*n, leftwards and never onto a row
    # not yet read, so each block is read whole before its rows are written.
    for rows in _row_blocks(n):
        block = np.outer(d[rows], d[s:])
        np.divide(D2[rows, s:], block, out=block)
        np.exp(np.negative(block, out=block), out=S[rows])
        del block    # freed before the next one is allocated
    return S


def row_stochastic(S: np.ndarray) -> np.ndarray:
    """Normalize kernel rows to one and return the Markov matrix P.

    A C-contiguous float64 ``S`` is normalized in place and becomes P; any
    other input is copied first.  On a NumericalError ``S`` is left unchanged.
    """
    S = np.ascontiguousarray(S, dtype=float)
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
    for rows in _row_blocks(len(S)):
        block = S[rows]
        block /= sums[rows, None]
        # Entries below eps are negligible against each row's sum of 1, but
        # the many subnormal ones make every matrix product several times slower.
        block[block < np.finfo(float).eps] = 0.0
    return S


def build_operator(emb: EmbeddedSeries, s: int, K: int) -> MarkovOperator:
    """Bandwidths + kernel + normalization on an embedded cloud.

    The operator's rows are the first N - s rows of ``emb``; it carries ``s``
    and ``emb.dt``, which set the unit of eigenperiods.  Row times, or any
    other per-sample values, are ``emb.align(values, op.n)``.
    """
    pts = emb.points
    # P is invariant under scaling by a power of two, which is exact; rescale
    # only a cloud whose squared distances could overflow or underflow
    e = np.frexp(max(pts.max(initial=0.0), -pts.min(initial=0.0)))[1]
    if abs(e) > 400:
        pts = np.ldexp(pts, -e)
    D2 = cdist(pts, pts, "sqeuclidean")
    d = knn_bandwidths(D2, K)
    S = kernel_matrix(D2, s, d)
    return MarkovOperator(row_stochastic(S), s, emb.dt)


def _in_mode_order(w: np.ndarray, *vecs):
    """w and the columns of each of ``vecs`` in mode order.

    Real w and the upper half plane sort by descending modulus, quantized so
    that solver noise cannot swap tied magnitudes (+1 and -1 on a cycle), then
    real part.  Each upper member is followed by its conjugate, rebuilt
    exactly: LAPACK and ARPACK pairs are exact for real P.  That holds for a
    numerically real pair (0 < Im <= ``_PAIR_TOL``) too.
    """
    keep = np.flatnonzero(w.imag >= 0.0)
    keep = keep[np.lexsort((-w[keep].real, -np.round(np.abs(w[keep]), _MOD_DECIMALS)))]
    take = np.repeat(keep, 1 + (w[keep].imag > 0.0))
    ordered = tuple(x[..., take] for x in (w, *vecs))
    for x in ordered:    # conjugate in place the second copy of each upper index
        np.conjugate(x, out=x, where=np.diff(take, prepend=-1) == 0)
    return ordered


def _retained(w: np.ndarray, m: int) -> int:
    """Mode count m, widened by one where position m would split a conjugate pair."""
    return m + 1 if w[m - 1].imag > 0.0 else m


def _dense_eigs(P: np.ndarray):
    """All eigenvalues of P with left and right vectors, in mode order."""
    try:
        w, vl, vr = scipy.linalg.eig(P, left=True, right=True)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    return _in_mode_order(w, vl, vr)


def _leading_eigs(A, m: int):
    """Leading eigenpairs of A, a CSR copy or ``_blas_operator`` of P, in mode order.

    Returns (w, vl, vr) with at least ``_retained(w, m)`` modes, vl[:, j] an
    eigenvector of A^T at conj(w_j) as ``scipy.linalg.eig`` returns it; or None
    when ARPACK cannot take the request (k = m + 2 not below n - 1) or gives an
    unusable answer.
    """
    import scipy.sparse.linalg as sla    # deferred: keeps the CLI import cheap

    n, k = A.shape[0], m + 2
    if k >= n - 1:
        return None
    # A fixed random start keeps runs reproducible; ones would not do, being
    # the lambda = 1 eigenvector.  ncv = 4k needs far fewer restarts than
    # ARPACK's default 2k + 1 on the clustered spectra near 1.
    opts = dict(k=k, ncv=min(n, 4 * k), maxiter=_KRYLOV_RESTARTS,
                v0=np.random.default_rng(0).standard_normal(n))
    try:
        w, vr = sla.eigs(A, **opts)
        mu, vl = sla.eigs(A.T, **opts)
    except sla.ArpackError:
        return None
    # an eigenvalue ARPACK did not return has modulus <= min |w|, so the
    # retained set is the leading one only if that bound sorts strictly after
    # it; read it before the mode order drops a lone member of a split pair
    bound = np.round(np.abs(w), _MOD_DECIMALS).min()
    w, vr = _in_mode_order(w, vr)
    conj_mu, vl = _in_mode_order(np.conj(mu), vl)
    r = _retained(w, m)
    if bound >= np.round(np.abs(w), _MOD_DECIMALS)[r - 1] or np.any(
            np.abs(conj_mu[:r] - w[:r]) > _LR_TOL):
        return None
    return w, vl, vr


def _matmul(A, V: np.ndarray) -> np.ndarray:
    """A @ V for a real array or operator A and complex V, without a complex copy of A."""
    return A @ V.real + 1j * (A @ V.imag)


def _blas_operator(P: np.ndarray):
    """Dense P as a LinearOperator whose products run in ``scipy.linalg.blas``.

    The products read ``P.T``, a Fortran-ordered view of C-ordered float P,
    so such a P is not copied; any other P is copied once.
    """
    import scipy.sparse.linalg as sla    # deferred: keeps the CLI import cheap

    PT = np.asfortranarray(P.T, dtype=float)
    return sla.LinearOperator(
        P.shape, dtype=PT.dtype,
        matvec=lambda x: dgemv(1.0, PT, x, trans=1), rmatvec=lambda x: dgemv(1.0, PT, x),
        matmat=lambda X: dgemm(1.0, PT, X, trans_a=1), rmatmat=lambda X: dgemm(1.0, PT, X))


def eigendecompose(op: MarkovOperator, m: Optional[int] = None) -> SpectralDecomposition:
    """Top-m eigenpairs of P with duals from the transposed matrix.

    Eigenvalues are ordered by descending modulus with conjugate partners
    adjacent (positive imaginary part first).  If position m would split a
    conjugate pair, the partner is kept as well.  Each right eigenvector is
    normalized to unit length with its largest-modulus entry made real
    positive; duals are rescaled for dual^dagger v = 1.  A numerically real
    pair (0 < |Im| <= ``_PAIR_TOL``) becomes two real modes at Re lambda with
    the real basis (Re v, Im v) and duals biorthogonal to it.
    """
    P, n = op.P, op.n
    m = n if m is None else m
    if not 1 <= m <= n:
        raise ValueError(f"mode count m must lie in [1, {n}], got {m}")
    # one operand for ARPACK and every residual product: a CSR copy of a mostly
    # zero P, else dense products in SciPy's BLAS, which ARPACK itself links
    mostly_zero = np.count_nonzero(P) / P.size <= _CSR_DENSITY
    A = scipy.sparse.csr_array(P) if mostly_zero else _blas_operator(P)
    found = _leading_eigs(A, m)
    w, vl, vr = _dense_eigs(P) if found is None else found
    # do not split a conjugate pair at the retention boundary
    m = _retained(w, m)
    w, vl, vr = w[:m], vl[:, :m], vr[:, :m]

    pair = np.full(m, -1, dtype=int)
    upper = np.flatnonzero(w.imag > _PAIR_TOL)
    pair[upper], pair[upper + 1] = upper + 1, upper
    near = np.flatnonzero((w.imag > 0.0) & (pair < 0))    # upper members of numerically real pairs
    for x in (vl, vr):
        x[:, near + 1] = x[:, near].imag
        x[:, near] = x[:, near].real
    real = pair < 0
    w[real] = w[real].real
    vr = vr / np.linalg.norm(vr, axis=0)
    peak = vr[np.argmax(np.abs(vr), axis=0), np.arange(m)]
    vr = vr / (peak / np.abs(peak))
    for j in near:
        # with G = W^H V on the pair, W adj(G)^H gives W^H V = det(G) I, which
        # the rescaling below turns into I, or flags as degenerate if det(G) ~ 0
        G = vl[:, j:j + 2].conj().T @ vr[:, j:j + 2]
        vl[:, j:j + 2] = vl[:, j:j + 2] @ np.array([[G[1, 1], -G[0, 1]],
                                                    [-G[1, 0], G[0, 0]]]).conj().T
    residuals = np.linalg.norm(_matmul(A, vr) - vr * w, axis=0)
    unorm = np.linalg.norm(vl, axis=0)
    dual_residuals = np.linalg.norm(_matmul(A.T, vl) - vl * np.conj(w), axis=0) / unorm
    c = np.sum(np.conj(vl) * vr, axis=0)
    degenerate = np.abs(c) < 1e-12 * unorm
    vl = vl / np.where(degenerate, unorm, np.conj(c))
    return SpectralDecomposition(
        eigenvalues=w, right_vectors=vr, dual_vectors=vl, pair_index=pair,
        residuals=residuals, dual_residuals=dual_residuals,
        degenerate=tuple(np.flatnonzero(degenerate).tolist()), s=op.s, dt=op.dt)


def write_eigenvalue_table(dec: SpectralDecomposition, path) -> None:
    """Text table: index, Re, Im, modulus, argument, residual."""
    lam = dec.eigenvalues
    # hypot, not np.abs: the vectorized complex abs can differ in the last bit
    write_table(path, ["j re_lambda im_lambda modulus argument residual"],
                [np.arange(1, len(lam) + 1), lam, np.hypot(lam.real, lam.imag),
                 np.angle(lam), dec.residuals])
