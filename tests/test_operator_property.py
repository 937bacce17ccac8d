"""Properties of the Markov operator on small random clouds.

Coordinates are multiples of 1/1024 in [-64, 64], so scaling a cloud by any
power of two from 2^-700 to 2^700 is exact and keeps every coordinate a
normal float.  Clouds hold at most 40 points, so an example costs well under
a millisecond of linear algebra.  Mode requests are either all modes (the
LAPACK path) or six (the ARPACK path).
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spectrend.embed import delay_embed
from spectrend.operator import _EIG_TOL, NumericalError, build_operator, eigendecompose
from spectrend.spectral import conjugate_closure, project

COORDS = st.integers(-2**16, 2**16).map(lambda v: v / 1024.0)
CLOUDS = st.tuples(st.integers(12, 40), st.integers(1, 3)).flatmap(
    lambda shape: arrays(float, shape, elements=COORDS))
MODES = st.sampled_from([None, 6])
PICKS = st.lists(st.integers(0, 39), min_size=1, max_size=4)    # mode choices, taken modulo
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
EPS = np.finfo(float).eps


def operator_or_skip(pts, s, K):
    try:
        return build_operator(delay_embed(pts, 1, 1), s, K)
    except NumericalError:    # coincident or isolated points
        assume(False)


@SETTINGS
@given(pts=CLOUDS, s=st.integers(0, 2), K=st.integers(1, 6))
def test_markov_matrix_is_nonnegative_and_row_stochastic(pts, s, K):
    P = operator_or_skip(pts, s, K).P
    assert np.all(P >= 0.0)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@SETTINGS
@given(pts=CLOUDS, s=st.integers(0, 2), K=st.integers(1, 6), k=st.integers(-700, 700))
def test_power_of_two_scaling_changes_nothing(pts, s, K, k):
    op = operator_or_skip(pts, s, K)
    scaled = build_operator(delay_embed(np.ldexp(pts, k), 1, 1), s, K)
    np.testing.assert_array_equal(scaled.P, op.P)
    m = min(6, op.n)
    np.testing.assert_array_equal(eigendecompose(scaled, m).eigenvalues,
                                  eigendecompose(op, m).eigenvalues)


def biorthogonality_bound(dec):
    """Entrywise bound on |W^H V - I| that follows from the residuals.

    With P v_j = lam_j v_j + e_j and P^T u_i = conj(lam_i) u_i + f_i, the
    product u_i^H P v_j gives (lam_j - lam_i) u_i^H v_j = f_i^H v_j - u_i^H e_j,
    so for i != j, as |v_j| = 1 and dual residuals are relative to |u_i|,

        |u_i^H v_j| <= |u_i| (dual_residual_i + residual_j) / |lam_i - lam_j|.

    A residual is computed with error at most gamma_n |P|_2 <= (n + 2) sqrt(n)
    eps, since |P|_2 <= sqrt(|P|_1 |P|_inf) <= sqrt(n) for a row-stochastic
    P; an entry of W^H V with error at most gamma_n |u_i|, which also bounds
    the diagonal, 1 by construction.  Equal eigenvalues give an infinite bound.
    """
    n = dec.right_vectors.shape[0]
    unorm = np.linalg.norm(dec.dual_vectors, axis=0)[:, None]
    w = dec.eigenvalues
    slack = 2 * (n + 2) * np.sqrt(n) * EPS
    with np.errstate(divide="ignore"):
        bound = unorm * (dec.dual_residuals[:, None] + dec.residuals + slack) / abs(
            w[:, None] - w)
    np.fill_diagonal(bound, 0.0)
    return bound + 2 * n * EPS * unorm


@SETTINGS
@given(pts=CLOUDS, s=st.integers(0, 2), K=st.integers(1, 6), m=MODES)
def test_pairs_are_exact_conjugates_by_construction(pts, s, K, m):
    dec = eigendecompose(operator_or_skip(pts, s, K), m)
    pair, w = dec.pair_index, dec.eigenvalues
    np.testing.assert_array_equal(pair < 0, abs(w.imag) <= _EIG_TOL)
    np.testing.assert_array_equal(w.imag[pair < 0], 0.0)
    j = np.flatnonzero(pair >= 0)
    np.testing.assert_array_equal(pair[pair[j]], j)      # an involution without fixed points
    np.testing.assert_array_equal(pair[j] > j, w.imag[j] > 0)    # upper member first
    np.testing.assert_array_equal(w[pair[j]], w[j].conj())
    np.testing.assert_array_equal(dec.right_vectors[:, pair[j]], dec.right_vectors[:, j].conj())
    np.testing.assert_array_equal(dec.dual_vectors[:, pair[j]], dec.dual_vectors[:, j].conj())


@SETTINGS
@given(pts=CLOUDS, s=st.integers(0, 2), K=st.integers(1, 6), m=MODES)
def test_duals_are_biorthogonal_away_from_degenerate(pts, s, K, m):
    dec = eigendecompose(operator_or_skip(pts, s, K), m)
    good = [j for j in range(dec.n_modes) if j not in dec.degenerate]
    G = dec.dual_vectors[:, good].conj().T @ dec.right_vectors[:, good]
    assert np.all(abs(G - np.eye(len(good))) <= biorthogonality_bound(dec)[np.ix_(good, good)])


def closed_mode_set(dec, picks):
    """(0-based modes outside ``degenerate``, a conjugation-closed 1-based set of them)."""
    good = [j for j in range(dec.n_modes) if j not in dec.degenerate]
    assume(good)
    return good, conjugate_closure(dec, [good[i % len(good)] + 1 for i in picks])


def rounding_slack(dec, S):
    """gamma_{n+k} per product of two projections onto the k modes of S, amplified
    by |V_S W_S^H|_2 <= sqrt(k) |W_S|_F, for a target of unit norm."""
    n, k = dec.right_vectors.shape[0], len(S)
    wf = np.linalg.norm(dec.dual_vectors[:, [i - 1 for i in S]])
    return 4 * (n + k) * k * EPS * (1 + wf) ** 2


@SETTINGS
@given(pts=CLOUDS, s=st.integers(0, 2), K=st.integers(1, 6), m=MODES, picks=PICKS)
# LAPACK gives mode 5, at eigenvalue 0, as a member of a pair with |Im| < 1e-16
@example(pts=np.repeat([0, 1 / 1024, -1 / 1024], 6)[:, None], s=0, K=6, m=None, picks=[4])
def test_projection_is_idempotent_away_from_degenerate(pts, s, K, m, picks):
    dec = eigendecompose(operator_or_skip(pts, s, K), m)
    _, S = closed_mode_set(dec, picks)
    n = dec.right_vectors.shape[0]
    h = np.random.default_rng(n).standard_normal(n)
    once = project(dec, S, h)
    assert once.realness
    twice = project(dec, S, once.series).series
    # Exactly, project returns V_S y with y = W_S^H h, and projecting it again
    # adds V_S (G - I) y, G = W_S^H V_S; |V_S|_2 <= sqrt(k) and |y| <= |W_S|_F |h|.
    idx = [i - 1 for i in S]
    wf, hn = np.linalg.norm(dec.dual_vectors[:, idx]), np.linalg.norm(h)
    G_bound = np.linalg.norm(biorthogonality_bound(dec)[np.ix_(idx, idx)])
    limit = (np.sqrt(len(S)) * G_bound * wf + rounding_slack(dec, S)) * hn
    assert np.linalg.norm(twice - once.series) <= limit


@SETTINGS
@given(pts=CLOUDS, s=st.integers(0, 2), K=st.integers(1, 6), m=MODES, picks=PICKS)
def test_projection_annihilates_the_other_modes(pts, s, K, m, picks):
    dec = eigendecompose(operator_or_skip(pts, s, K), m)
    good, S = closed_mode_set(dec, picks)
    idx = [i - 1 for i in S]
    bound = biorthogonality_bound(dec)
    for j in set(good) - set(idx):
        # Re v_j = (v_j + v_p) / 2 for a pair (j, p), else v_j itself; so
        # W_S^H Re v_j is bounded entrywise by the rows S of columns j and p
        pair = [j, dec.pair_index[j]] if dec.pair_index[j] >= 0 else [j]
        out = project(dec, S, dec.right_vectors[:, j].real).series
        limit = (np.sqrt(len(S)) * np.linalg.norm(bound[np.ix_(idx, pair)])
                 + rounding_slack(dec, S))
        assert np.linalg.norm(out) <= limit
