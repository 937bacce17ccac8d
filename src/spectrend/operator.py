"""Variable-bandwidth kernel Markov matrix and its eigenpairs.

The operator is built in three steps: per-point bandwidths from the K-th
nearest neighbor, a Gaussian cross-kernel between the point cloud and its
s-step-forward shift,

    S_ij = exp(-||h_i - h_{j+s}||^2 / (d_i d_{j+s})),   i, j = 1..N-s,

and row normalization P_ij = S_ij / sum_j S_ij.  The cloud is an
``EmbeddedSeries``, which holds the samples and no (N, dim) matrix: every
step reads it through ``EmbeddedSeries.columns``, so a field run holds its
field once, not Q + 1 times.  ``knn_bandwidths`` and ``kernel_matrix`` also
take a plain (N, dim) array, as its own one-delay embedding,
``delay_embed(pts, 1, 1)``.  The first two steps work in blocks of
``_ROW_BLOCK`` rows: ``knn_bandwidths``
partitions each block's squared distances to all N points in place, and
``_kernel_rows`` turns each block's distances to the shifted points into its
kernel rows.  ``build_operator`` writes those rows into a new dense
(N-s) x (N-s) kernel (``kernel_matrix``) and normalizes it in place into P
(``row_stochastic``), so it holds one N x N array.  ``markov_operator``, which
the CLI calls, holds none while P is sparse: it normalizes each block of rows
in one reused scratch block and appends its nonzeros to CSR arrays.  At the
first block that would pass ``_CSR_DENSITY`` of P, it copies the rows streamed
so far and that block into a new dense P, drops the CSR arrays and the
scratch block, and makes every later block in P's rows, so no block is made
twice.  Both give the same P to the bit.  At the switch the CSR rows, at most
1.2 N^2 bytes, are alive beside the rows of P written so far, which passes the
dense P's own peak only when the switch comes in the last ~15% of rows, for a
P about 10-11.8% nonzero.

One NumPy kernel, ``_sqdist_rows``, fills the squared distances a row block
at a time, in one of two forms chosen by the cloud's dimension.  Up to
``_EXACT_DIM`` coordinates it reads the cloud one coordinate at a time and
sums (x_k - y_k)^2 in order, which rounds as SciPy's
``cdist(..., "sqeuclidean")`` does.  Above it it takes the Gram form
||x||^2 + ||y||^2 - 2 x.y as matrix products over blocks of ``_COL_BLOCK``
coordinates, each read alone and centred on the mean of the points measured
against; a block may straddle a delay boundary, and is then joined from two
slices of the samples.  Best of three, in ms at one BLAS thread on a
2-core Xeon, with the largest relative error of an off-diagonal entry
against ``cdist``:

    cloud                 cdist   per coordinate   Gram form
    model F, 2980 x 3        31       28    0         44   5e-08
    benthic, 2961 x 5        31       40    0         46   1e-12
    normal, 2000 x 3          8       23    0         20   5e-13
    normal, 2000 x 5         12       41    0         19   2e-14
    normal, 2000 x 8         13       59    0         20   8e-15
    normal, 2000 x 16        25      109    0         19   2e-15
    normal, 2000 x 32        47      201    0         22   1e-15
    normal, 2000 x 64       102      420    0         29   1e-15
    40x40 field, 497 x 3196 300     1589    0         40   2e-12

The Gram form rounds against the points' norms rather than their distance,
and does worst on the low-dimensional curves of delay-embedded scalar
records.  Up to 16 coordinates the exact form costs about 0.1 s at N = 2000
and keeps such runs' tables byte for byte; beyond, its cost grows with the
dimension while the Gram form's barely does.  The Gram form's rounding of
an entry is at most about dim * eps * max ||x - mean||^2.  Every kernel
exponent divides by d_i d_j, at least the smallest squared bandwidth.  One
predicate on it, ``_gram_form``, picks the form of both passes: where the
rounding bound exceeds ``_GRAM_TOL`` of it, as near-duplicate points make it,
both take the exact form, the first by recomputing its distances.

P is row stochastic, so
1 is always an eigenvalue with constant eigenvector; the rest of the dominant
spectrum carries trends (real eigenvalues) and oscillations (conjugate
pairs).  Right eigenvectors come with dual (left) eigenvectors normalized to
a biorthogonal system, which is what makes spectral projections work.

Only the leading modes are computed: ARPACK's implicitly restarted Arnoldi
method (``scipy.sparse.linalg.eigs``) runs on P for the right vectors and on
P^T for the left ones, so the cost grows with the requested mode count
rather than as N^3.  The builder picks P's format, and ``eigendecompose``
keeps it: ``markov_operator`` streams P's rows into CSR through ``_CsrRows``
while at most ``_CSR_DENSITY`` (10%) of P is nonzero, and moves them into
a dense P otherwise; ``build_operator`` always builds it dense.  A CSR P is
ARPACK's operand and that of every residual product as it is.  A dense P is read
through one ``LinearOperator`` whose products call ``scipy.linalg.blas`` on P
itself.  ARPACK asks its caller for every product with P, so the caller picks
the BLAS.  The NumPy and SciPy wheels each bundle an OpenBLAS; ARPACK and
LAPACK link SciPy's and NumPy's ``@`` runs in NumPy's, so dense products
through SciPy's keep the eigensolve in one OpenBLAS thread pool, not two
competing for the same cores.
``_leading_eigs`` alone judges whether ARPACK can answer.  It returns None
for a request ARPACK cannot take (modes + 2 not below N - 1), when ARPACK
failed or did not converge within ``_KRYLOV_RESTARTS`` restarts, when an
eigenvalue outside the computed set may tie in modulus with the last
retained mode, or when the left and right retained eigenvalues differ; the
dense LAPACK ``eig`` of P, called from one line, answers each None.  Both
solvers' answers pass through one mode-order helper, which puts each
conjugate partner, rebuilt by conjugation, right after its upper half-plane
member; ``pair_index`` records that pairing and is the one pairing rule
downstream.  A numerically real pair (|Im| at most ``_EIG_TOL``) is left
unpaired and given the real basis (Re v, Im v).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.blas import dgemm, dgemv

from ._table import write_table
from .embed import EmbeddedSeries, delay_embed

# Two eigenvalues this close are numerically equal: an eigenvalue with |Im| at
# most this is real, and a left and right ARPACK answer this close agree.
_EIG_TOL = 1e-10
_MOD_DECIMALS = 9      # modulus quantization for ordering ties
_KRYLOV_RESTARTS = 50  # ARPACK restart budget before the dense fallback
# Largest nonzero fraction of P that is held, and read by ARPACK, in CSR.  On a
# 2-core Xeon a CSR matvec beats the dense one (SciPy's dgemv) below about 0.2
# nonzero: 0.56 vs 2.0 ms at 0.060 (model F, n = 2979), 4.0 vs 1.8 ms at 0.455
# (benthic, n = 2954), 0.053 vs 0.048 ms at 0.30 (40x40 field, n = 496, one
# BLAS thread).  The cutoff sits well below that crossover.
_CSR_DENSITY = 0.1
_ROW_BLOCK = 256       # rows per block of the operator build
_EXP_CAP = 700.0       # largest kernel exponent above its row's smallest (_kernel_rows)
_EXACT_DIM = 16        # largest dimension summed per coordinate (module docstring)
_COL_BLOCK = 256       # coordinates per centred block of the Gram form
_CACHE_ROWS = 16       # rows per pass of the per-coordinate sum and of the kernel's divide;
                       # their (16, N) blocks stay in cache
# Largest Gram rounding bound, as a fraction of the smallest squared bandwidth.
# It reads 6.8e-11 on the 40x40 field (K = 8), 9e-13 on criterion 7's field.
_GRAM_TOL = 1e-9


class NumericalError(RuntimeError):
    """Numerical failure (degenerate data or solver breakdown)."""


@dataclasses.dataclass(frozen=True)
class MarkovOperator:
    """Row-stochastic P on the first N - s rows of an ``EmbeddedSeries`` emb;
    ``emb.align(values, op.n)`` reads any source-indexed array at P's rows, and
    ``s`` and the source's sampling interval ``dt`` set the unit of eigenperiods.

    P is a dense array or a CSR array, as its builder chose; ``eigendecompose``
    solves it in that format."""

    P: np.ndarray | scipy.sparse.csr_array    # (N-s, N-s) row stochastic
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


def _as_cloud(pts) -> EmbeddedSeries:
    """``pts`` as an ``EmbeddedSeries``: a plain (N, dim) array is its own
    embedding with one delay, ``delay_embed(pts, 1, 1)``."""
    embedded = isinstance(pts, EmbeddedSeries)
    shape = (pts.n_points, pts.dim) if embedded else np.shape(pts)
    if len(shape) != 2 or shape[1] < 1:
        raise ValueError(f"expected an (N, dim) point cloud with dim >= 1, got shape {shape}")
    return pts if embedded else delay_embed(pts, 1, 1)


def _blocks(n: int, size: int = _ROW_BLOCK):
    """Slices of at most ``size`` consecutive indices covering range(n)."""
    return (slice(i, min(i + size, n)) for i in range(0, n, size))


def knn_bandwidths(pts, K: int) -> np.ndarray:
    """Distance from each point of the cloud ``pts``, an (N, dim) array or an
    ``EmbeddedSeries``, to its K-th nearest neighbor (self excluded), searched
    over all N points.

    Each block of rows' squared distances is partitioned in place, so no
    N x N array is made.  A K-th neighbor distance of exactly zero means at
    least K+1 coincident points and raises NumericalError, since a zero
    bandwidth makes the kernel undefined; so does an overflowed one.
    """
    cloud = _as_cloud(pts)
    n = cloud.n_points
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if K >= n:
        raise ValueError(f"K={K} needs at least K+1={K + 1} points, have {n}")
    d, block = np.empty(n), np.empty((min(_ROW_BLOCK, n), n))
    with np.errstate(over="ignore"):    # an overflow raises NumericalError below
        # the exact form follows where the Gram form cannot resolve the bandwidths
        for gram in (True, False) if cloud.dim > _EXACT_DIM else (False,):
            for rows in _blocks(n):
                D2 = _sqdist_rows(cloud, rows, slice(None), block[:rows.stop - rows.start], gram)
                D2.partition(K, axis=1)
                d[rows] = D2[:, K]
            np.sqrt(d, out=d)
            if _gram_form(cloud, d.min()):
                break
    if not np.all(np.isfinite(d)):
        raise NumericalError("squared distances overflow the float range; rescale the data")
    bad = np.flatnonzero(d <= 0.0)
    if bad.size:
        raise NumericalError(
            f"zero bandwidth: K={K}-th neighbor distance is 0 at "
            f"{bad.size} point(s), first at index {bad[0]} (duplicate points)")
    return d


def kernel_matrix(pts, s: int, bandwidths: np.ndarray) -> np.ndarray:
    """Gaussian cross-kernel between the cloud ``pts``, an (N, dim) array or an
    ``EmbeddedSeries``, and its s-step shift.

    Returns a new C-ordered (N-s) x (N-s) array S with
    S_ij = exp(-||pts_i - pts_{j+s}||^2 / (d_i d_{j+s})).  Each block of
    rows is written straight into its rows of S by ``_kernel_rows``, so no
    other N x N array is made.
    """
    cloud, d, gram = _kernel_inputs(pts, s, bandwidths)
    n = cloud.n_points - s
    S = np.empty((n, n))
    for rows in _blocks(n):
        _kernel_rows(cloud, s, d, rows, S[rows], gram)
    return S


def _kernel_inputs(pts, s: int, bandwidths):
    """The checked cloud, an ``EmbeddedSeries``, and bandwidths of a kernel at
    step s, and whether its squared distances take the Gram form (``_gram_form``)."""
    cloud = _as_cloud(pts)
    n_all = cloud.n_points
    _check_step(s, n_all)
    d = np.asarray(bandwidths, dtype=float)
    if d.shape != (n_all,):
        raise ValueError(f"bandwidths must have length N={n_all}, got {d.shape}")
    if np.any(d <= 0):
        raise NumericalError("bandwidths must be strictly positive")
    return cloud, d, _gram_form(cloud, d.min())


def _check_step(s: int, n_all: int) -> None:
    """Reject a forward step s outside [0, N) for a cloud of N points.  The
    builders call it before ``knn_bandwidths``, an O(N^2 dim) pass."""
    if s < 0 or s >= n_all:
        raise ValueError(f"forward step s must satisfy 0 <= s < N={n_all}, got {s}")


def _kernel_rows(cloud: EmbeddedSeries, s: int, d: np.ndarray, rows: slice, out: np.ndarray,
                 gram: bool) -> np.ndarray:
    """Kernel rows ``rows`` of ``kernel_matrix(cloud, s, d)``, written into the
    (len(rows), N-s) array ``out`` and returned.

    Each exponent is capped at ``_EXP_CAP`` (700) above its row's smallest,
    which keeps NumPy's ``exp`` on its vector loop: past about 708 it takes a
    scalar path several times slower.  A row i >= s holds its own point, at
    exponent 0, so its cap is 700; each of the first s rows finds its own
    smallest.  A capped entry is at most exp(-700) ~ 1e-304 of its row's
    largest, so ``_normalize_rows`` zeroes it with or without the cap, and P
    is the same to the bit.
    """
    block = _sqdist_rows(cloud, rows, slice(s, None), out, gram)
    for sub in _blocks(len(block), _CACHE_ROWS):    # no block-sized denominator
        block[sub] /= np.outer(-d[rows][sub], d[s:])    # x / -y is -(x / y) exactly
    head = block[:max(0, s - rows.start)]    # the block's rows i < s
    np.maximum(head, head.max(axis=1, keepdims=True) - _EXP_CAP, out=head)
    np.maximum(block[len(head):], -_EXP_CAP, out=block[len(head):])
    np.exp(block, out=block)
    return block


def _row_sums(S: np.ndarray, first: int = 0) -> np.ndarray:
    """Row sums of kernel rows ``S``, the first of which is kernel row ``first``.

    Raises NumericalError, naming kernel rows, for a row that cannot be
    normalized: one with a NaN or inf entry, whose sum is not finite, or one
    that sums to zero.
    """
    sums = S.sum(axis=1)
    bad = np.flatnonzero(~np.isfinite(sums))
    if bad.size:
        raise NumericalError(
            f"kernel has non-finite entries in {bad.size} row(s), first row {first + bad[0]}: "
            "squared distances overflow the float range; rescale the data")
    dead = np.flatnonzero(sums <= 0.0)
    if dead.size:
        raise NumericalError(
            f"kernel row {first + dead[0]} sums to zero (isolated point); cannot normalize")
    return sums


def _normalize_rows(block: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Kernel rows divided in place by their ``sums``, with every entry
    below eps zeroed: negligible against each row's sum of 1, the many
    subnormal ones would make every matrix product several times slower."""
    block /= sums[:, None]
    block[block < np.finfo(float).eps] = 0.0
    return block


def row_stochastic(S: np.ndarray) -> np.ndarray:
    """Normalize kernel rows to one and return the Markov matrix P.

    A C-contiguous float64 ``S`` is normalized in place and becomes P; any
    other input is copied first.  Every row sum is checked before any row is
    normalized, so on a NumericalError ``S`` is left unchanged.
    """
    S = np.ascontiguousarray(S, dtype=float)
    sums = _row_sums(S)
    for rows in _blocks(len(S)):
        _normalize_rows(S[rows], sums[rows])
    return S


def _sqdist_rows(cloud: EmbeddedSeries, rows: slice, others: slice, out: np.ndarray,
                 gram: bool) -> np.ndarray:
    """Squared distances from the cloud's points ``rows`` to its points
    ``others``, written into the (len(rows), len(others)) array ``out`` and
    returned.

    Without ``gram`` each entry is the sum of (x_k - y_k)^2 over the
    coordinates, in order, each read alone, which rounds as SciPy's
    ``cdist(X, Y, "sqeuclidean")`` does.  With ``gram`` it is
    ||x||^2 + ||y||^2 - 2 x.y on coordinates centred on the mean of the
    points ``others``, read one block of ``_COL_BLOCK`` coordinates at a time,
    and clipped at zero.
    """
    dim = cloud.dim
    if not gram:
        # one array per coordinate: a (len(rows), 1) column and a (len(others),) row
        XT = [cloud.columns(slice(k, k + 1), rows) for k in range(dim)]
        YT = [cloud.columns(slice(k, k + 1), others).ravel() for k in range(dim)]
        tmp = np.empty((min(_CACHE_ROWS, len(out)), out.shape[1]))
        for sub in _blocks(len(out), _CACHE_ROWS):
            acc = out[sub]
            for k in range(dim):
                sq = tmp[:len(acc)] if k else acc
                np.subtract(XT[k][sub], YT[k], out=sq)
                np.square(sq, out=sq)
                if k:
                    acc += sq
        return out
    x_norm2, y_norm2 = np.zeros(out.shape[0]), np.zeros(out.shape[1])
    out[...] = 0.0
    for cols in _blocks(dim, _COL_BLOCK):
        yc = cloud.columns(cols, others)
        mean = yc.mean(axis=0)
        yc -= mean
        xc = cloud.columns(cols, rows)
        xc -= mean
        x_norm2 += np.einsum("ij,ij->i", xc, xc)
        y_norm2 += np.einsum("ij,ij->i", yc, yc)
        out += xc @ yc.T
    out *= -2.0
    out += x_norm2[:, None]
    out += y_norm2
    return np.maximum(out, 0.0, out=out)


def _gram_form(cloud: EmbeddedSeries, d_min: float) -> bool:
    """Whether squared distances take the Gram form: above ``_EXACT_DIM``
    coordinates, where its rounding of squared distances between centred
    points, at most dim * eps * max ||x - mean||^2 per entry, is within
    ``_GRAM_TOL`` of d_min^2, the smallest squared bandwidth, which no kernel
    exponent's denominator d_i d_j is below."""
    dim = cloud.dim
    if dim <= _EXACT_DIM:
        return False
    norm2 = np.zeros(cloud.n_points)
    for cols in _blocks(dim, _COL_BLOCK):
        centred = cloud.columns(cols)
        centred -= centred.mean(axis=0)
        norm2 += np.einsum("ij,ij->i", centred, centred)
    return bool(dim * np.finfo(float).eps * norm2.max() <= _GRAM_TOL * d_min ** 2)


def _scaled_cloud(emb: EmbeddedSeries) -> EmbeddedSeries:
    """The embedding, its samples rescaled by a power of two where the
    cloud's squared distances could overflow or underflow.  P is invariant
    under that scaling, which is exact.  The power is read from the cloud's
    largest magnitude, a block of ``_COL_BLOCK`` coordinates at a time."""
    peak = 0.0
    for cols in _blocks(emb.dim, _COL_BLOCK):
        block = emb.columns(cols)
        peak = max(peak, block.max(initial=0.0), -block.min(initial=0.0))
    e = np.frexp(peak)[1]
    return dataclasses.replace(emb, samples=np.ldexp(emb.samples, -e)) if abs(e) > 400 else emb


def build_operator(emb: EmbeddedSeries, s: int, K: int) -> MarkovOperator:
    """Bandwidths + kernel + normalization on an embedded cloud, with a dense P.

    The operator's rows are the first N - s rows of ``emb``; it carries ``s``
    and ``emb.dt``, which set the unit of eigenperiods.  Row times, or any
    other per-sample values, are ``emb.align(values, op.n)``.
    """
    cloud = _scaled_cloud(emb)
    _check_step(s, cloud.n_points)
    d = knn_bandwidths(cloud, K)
    return MarkovOperator(row_stochastic(kernel_matrix(cloud, s, d)), s, emb.dt)


def markov_operator(emb: EmbeddedSeries, s: int, K: int) -> MarkovOperator:
    """``build_operator``'s P, in the format ARPACK reads: CSR when at most
    ``_CSR_DENSITY`` of it is nonzero, else dense.

    Pass 2 makes and normalizes one block of ``_ROW_BLOCK`` rows at a time, in
    a reused scratch block whose nonzeros go to ``_CsrRows``, until a block
    does not fit.  The rows so far and that block are then copied into a new
    dense P, exactly, since every entry not kept is +0.0, and each later block
    is made in P's rows.  ``eigendecompose`` keeps the format chosen here.

    A NumericalError names the first block holding a row that cannot be
    normalized, where ``row_stochastic`` checks all rows before it names one.
    """
    cloud = _scaled_cloud(emb)
    _check_step(s, cloud.n_points)
    cloud, d, gram = _kernel_inputs(cloud, s, knn_bandwidths(cloud, K))
    n = cloud.n_points - s
    rows_out, block, P = _CsrRows((n, n)), np.empty((min(_ROW_BLOCK, n), n)), None
    for rows in _blocks(n):
        out = block[:rows.stop - rows.start] if P is None else P[rows]
        S = _kernel_rows(cloud, s, d, rows, out, gram)
        _normalize_rows(S, _row_sums(S, rows.start))
        if P is None and not rows_out.append(rows, S):
            P = np.empty((n, n))
            rows_out.array(rows.start).toarray(out=P[:rows.start])
            P[rows] = S
            del rows_out, block, out, S    # P alone holds the rows from here on
    return MarkovOperator(rows_out.array(n) if P is None else P, s, emb.dt)


def _in_mode_order(w: np.ndarray, *vecs):
    """w and the columns of each of ``vecs`` in mode order.

    Real w and the upper half plane sort by descending modulus, quantized so
    that solver noise cannot swap tied magnitudes (+1 and -1 on a cycle), then
    real part.  Each upper member is followed by its conjugate, rebuilt
    exactly: LAPACK and ARPACK pairs are exact for real P.  That holds for a
    numerically real pair (0 < Im <= ``_EIG_TOL``) too.
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
    """Leading eigenpairs of A, a CSR P or the ``_blas_operator`` of a dense one, in mode order.

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
            np.abs(conj_mu[:r] - w[:r]) > _EIG_TOL):
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


class _CsrRows:
    """CSR arrays of an (n_rows, n_cols) matrix, filled a block of rows at a
    time, in order, up to ``_CSR_DENSITY`` of its entries nonzero.

    ``data`` and ``indices`` are allocated at that capacity; the pages past
    the rows appended are never written, so only the nonzeros kept take
    memory.  Indices are int32, as ``csr_array`` picks for such shapes,
    wherever the capacity fits in it: up to n_rows = n_cols of about 146,000,
    far past any n whose O(n^2 dim) distance passes are practical.
    """

    def __init__(self, shape):
        self.shape = shape
        self.capacity = int(_CSR_DENSITY * shape[0] * shape[1])
        index = np.int32 if self.capacity <= np.iinfo(np.int32).max else np.int64
        self.data = np.empty(self.capacity)
        self.indices = np.empty(self.capacity, dtype=index)
        self.indptr = np.zeros(shape[0] + 1, dtype=index)

    def append(self, rows: slice, block: np.ndarray) -> bool:
        """Append the nonzeros of ``block``, the matrix's rows ``rows``; False,
        with nothing appended, when they would pass the capacity."""
        nonzero = block != 0.0
        start = self.indptr[rows.start]
        ptr = start + np.cumsum(np.count_nonzero(nonzero, axis=1))
        if ptr[-1] > self.capacity:
            return False
        self.indptr[rows.start + 1:rows.stop + 1] = ptr
        span = slice(start, self.indptr[rows.stop])
        self.data[span] = block[nonzero]
        self.indices[span] = np.flatnonzero(nonzero) % self.shape[1]
        return True

    def array(self, k: int):
        """The CSR array of the first k rows, all appended; k = n_rows gives the matrix."""
        nnz = self.indptr[k]
        return scipy.sparse.csr_array((self.data[:nnz], self.indices[:nnz], self.indptr[:k + 1]),
                                      shape=(k, self.shape[1]))


def eigendecompose(op: MarkovOperator, m: Optional[int] = None) -> SpectralDecomposition:
    """Top-m eigenpairs of P with duals from the transposed matrix.

    Eigenvalues are ordered by descending modulus with conjugate partners
    adjacent (positive imaginary part first).  If position m would split a
    conjugate pair, the partner is kept as well.  Each right eigenvector is
    normalized to unit length with its largest-modulus entry made real
    positive; duals are rescaled for dual^dagger v = 1.  A numerically real
    pair (0 < |Im| <= ``_EIG_TOL``) becomes two real modes at Re lambda with
    the real basis (Re v, Im v) and duals biorthogonal to it.

    P is solved in the format its builder chose.  A CSR P, as
    ``markov_operator`` builds a sparse one, is ARPACK's operand as it is, and
    is densified only if the dense fallback runs.  A dense P is read through
    the one ``_blas_operator`` built here.
    """
    P, n = op.P, op.n
    m = n if m is None else m
    if not 1 <= m <= n:
        raise ValueError(f"mode count m must lie in [1, {n}], got {m}")
    sparse = scipy.sparse.issparse(P)
    A = P if sparse else _blas_operator(P)
    found = _leading_eigs(A, m)
    w, vl, vr = _dense_eigs(P.toarray() if sparse else P) if found is None else found
    # do not split a conjugate pair at the retention boundary
    m = _retained(w, m)
    w, vl, vr = w[:m], vl[:, :m], vr[:, :m]

    pair = np.full(m, -1, dtype=int)
    upper = np.flatnonzero(w.imag > _EIG_TOL)
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
