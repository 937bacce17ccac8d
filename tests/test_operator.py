import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.spatial.distance import cdist

import spectrend.operator
from spectrend.data import TimeSeries, load_benthic_fixture
from spectrend.embed import delay_embed
from spectrend.models import ModelConfig, simulate
from spectrend.operator import (
    MarkovOperator,
    NumericalError,
    build_operator,
    eigendecompose,
    kernel_matrix,
    knn_bandwidths,
    markov_operator,
    row_stochastic,
    write_eigenvalue_table,
)
from spectrend.spectral import eigenperiod, nearest_pair, project


def random_cloud(n=50, dim=3, seed=0):
    return np.random.default_rng(seed).random((n, dim))


def two_cluster_cloud():
    # distant clusters make many kernel entries tiny or subnormal
    return np.concatenate([random_cloud(40, 2, seed=3), random_cloud(40, 2, seed=4) + 3.0])


def sqdist(pts):
    return cdist(pts, pts, "sqeuclidean")


def sqdist_matrix(pts, gram):
    """The squared-distance kernel's (N, N) matrix of the (N, dim) cloud ``pts``."""
    return spectrend.operator._sqdist_rows(delay_embed(pts, 1, 1), slice(None), slice(None),
                                           np.empty((len(pts), len(pts))), gram)


@pytest.fixture
def dense_calls(monkeypatch):
    """The shape of each matrix handed to the dense LAPACK ``eig`` fallback."""
    calls = []
    dense = spectrend.operator._dense_eigs

    def spy(P):
        calls.append(P.shape)
        return dense(P)

    monkeypatch.setattr(spectrend.operator, "_dense_eigs", spy)
    return calls


def reference_pairs(w):
    """Conjugate-pair bookkeeping as a plain loop over adjacent eigenvalues."""
    pair = np.full(len(w), -1)
    for j in range(len(w) - 1):
        if (abs(w[j].imag) > 1e-10 and pair[j] < 0
                and abs(w[j + 1] - np.conj(w[j])) <= 1e-9 * max(1.0, abs(w[j]))):
            pair[j], pair[j + 1] = j + 1, j
    return pair


class TestKnnBandwidths:
    def test_line_k1(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        np.testing.assert_allclose(knn_bandwidths(pts, 1), [1.0, 1.0, 2.0])

    def test_line_k2(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        np.testing.assert_allclose(knn_bandwidths(pts, 2), [3.0, 2.0, 3.0])

    @pytest.mark.parametrize("n, dim, seed, K", [(100, 3, 42, 5), (80, 30, 1, 4)],
                             ids=["dim3", "dim30"])
    def test_matches_brute_force_exactly(self, n, dim, seed, K):
        pts = random_cloud(n, dim, seed=seed)
        got = knn_bandwidths(pts, K)
        # a full sort of the same squared distances, which above _EXACT_DIM
        # take the Gram form; column 0 is the self distance
        gram = dim > spectrend.operator._EXACT_DIM
        D2 = sqdist_matrix(pts, gram)
        np.testing.assert_array_equal(got, np.sqrt(np.sort(D2, axis=1)[:, K]))
        # against cdist: its own bits below _EXACT_DIM, within 1e-12 above
        want = np.sort(cdist(pts, pts), axis=1)[:, K]
        np.testing.assert_allclose(got, want, rtol=1e-12 if gram else 0.0, atol=0.0)

    def test_duplicate_points_raise(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(NumericalError, match="duplicate"):
            knn_bandwidths(pts, 1)

    def test_near_duplicates_pass_at_default_tolerance(self):
        pts = np.array([[0.0], [1e-13], [1.0], [2.0]])
        d = knn_bandwidths(pts, 1)
        assert np.all(d > 0)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            knn_bandwidths(random_cloud(10), 10)

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            knn_bandwidths(random_cloud(10), 0)

    def test_infinite_distance_raises(self):
        # every squared distance, about 1e400, overflows to inf
        pts = np.array([[0.0], [1e200], [-1e200]])
        with pytest.raises(NumericalError, match="overflow"):
            knn_bandwidths(pts, 1)


class TestKernelMatrix:
    def test_zero_distance_entry_is_one(self):
        pts = random_cloud(10)
        d = np.full(10, 0.7)
        S = kernel_matrix(pts, 0, d)
        np.testing.assert_allclose(np.diag(S), 1.0, atol=1e-15)

    def test_unit_exponent_entry(self):
        # two points at squared distance d_i * d_j give exp(-1)
        pts = np.array([[0.0], [np.sqrt(6.0)]])
        d = np.array([2.0, 3.0])
        S = kernel_matrix(pts, 0, d)
        assert S[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-15)

    @pytest.mark.parametrize("builder", [build_operator, markov_operator])
    def test_step_checked_before_bandwidths(self, monkeypatch, builder):
        # the bandwidth pass is O(N^2 dim), so a step past the cloud fails first
        def fail(*args):
            raise AssertionError("knn_bandwidths ran before the step was checked")

        monkeypatch.setattr(spectrend.operator, "knn_bandwidths", fail)
        emb = delay_embed(random_cloud(30), 1, 1)
        n = len(emb.points)
        with pytest.raises(ValueError,
                           match=rf"^forward step s must satisfy 0 <= s < N={n}, got {n}$"):
            builder(emb, n, 3)

    def test_matches_direct_formula(self):
        pts = random_cloud(50, 3, seed=3)
        d = knn_bandwidths(pts, 4)
        S = kernel_matrix(pts, 1, d)
        n = 49
        assert S.shape == (n, n)
        for i in (0, 17, 48):
            for j in (0, 5, 48):
                gap = pts[i] - pts[j + 1]
                want = np.exp(-(gap @ gap) / (d[i] * d[j + 1]))
                assert S[i, j] == pytest.approx(want, rel=1e-15)

    def test_bad_step(self):
        pts = random_cloud(10)
        with pytest.raises(ValueError):
            kernel_matrix(pts, 10, np.ones(10))
        with pytest.raises(ValueError):
            kernel_matrix(pts, -1, np.ones(10))

    def test_bad_bandwidths(self):
        pts = random_cloud(10)
        with pytest.raises(ValueError):
            kernel_matrix(pts, 1, np.ones(9))
        with pytest.raises(NumericalError):
            kernel_matrix(pts, 1, np.zeros(10))

    @pytest.mark.parametrize("shape", [(4, 0), (4,), (2, 2, 2)],
                             ids=["no-coordinates", "1-d", "3-d"])
    def test_bad_cloud_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            knn_bandwidths(np.ones(shape), 1)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            kernel_matrix(np.ones(shape), 1, np.ones(4))

    def test_zero_coordinate_embedding_is_not_a_duplicate(self):
        emb = delay_embed(TimeSeries(np.empty((50, 0))), 2, 1)
        with pytest.raises(ValueError, match=re.escape("got shape (49, 0)")):
            build_operator(emb, 1, 3)

    def test_inputs_left_unchanged(self):
        pts = random_cloud(300, 3, seed=2)
        d = knn_bandwidths(pts, 5)
        pts_before, d_before = pts.copy(), d.copy()
        S = kernel_matrix(pts, 2, d)
        np.testing.assert_array_equal(pts, pts_before)
        np.testing.assert_array_equal(d, d_before)
        assert not np.shares_memory(S, pts) and S.flags.c_contiguous

    @pytest.mark.parametrize("dim", [3, 30])
    def test_build_operator_computes_distances_once(self, monkeypatch, dim):
        blocks = []
        sqdist_rows = spectrend.operator._sqdist_rows

        def spy(cloud, rows, others, out, gram):
            blocks.append((*out.shape, gram))
            return sqdist_rows(cloud, rows, others, out, gram)

        monkeypatch.setattr(spectrend.operator, "_sqdist_rows", spy)
        build_operator(delay_embed(random_cloud(300, dim), 1, 1), 1, 5)
        # each pass computes each of its rows once, on one path: the
        # bandwidths' against all 300 points, the kernel's against pts[1:]
        assert [(rows, cols) for rows, cols, _gram in blocks] == [
            (256, 300), (44, 300), (256, 299), (43, 299)]
        assert {gram for *_shape, gram in blocks} == {dim > spectrend.operator._EXACT_DIM}


class TestSquaredDistances:
    """The one squared-distance kernel against SciPy's cdist."""

    @pytest.mark.parametrize("n, dim", [(600, 3), (300, 5), (120, 16)])
    def test_low_dimension_has_cdist_bits(self, n, dim):
        assert dim <= spectrend.operator._EXACT_DIM
        pts = np.random.default_rng(dim).standard_normal((n, dim)) * 10.0 ** np.arange(dim)
        np.testing.assert_array_equal(sqdist_matrix(pts, False), sqdist(pts))

    def test_gram_form_within_1e_12_of_cdist(self):
        pts = np.random.default_rng(5).standard_normal((60, 400)) + 3.0
        assert pts.shape[1] > spectrend.operator._EXACT_DIM
        got, want = sqdist_matrix(pts, True), sqdist(pts)
        off = ~np.eye(len(pts), dtype=bool)
        assert np.all(np.abs(got - want)[off] <= 1e-12 * want[off])
        assert np.all(got.diagonal() <= 1e-12 * want.max())

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("K", [1, 5])
    def test_gram_guard_on_near_duplicates(self, monkeypatch, offset, K):
        # 30 points with a partner 1e-8 away: at K = 1 every bandwidth is
        # 1e-8, far below the Gram form's rounding of squared distances
        base = np.random.default_rng(6).standard_normal((30, 400))
        pts = np.concatenate([base, base + 1e-8 * np.eye(400)[0]]) + offset
        paths = []
        sqdist_rows = spectrend.operator._sqdist_rows

        def spy(cloud, rows, others, out, gram):
            paths.append(gram)
            return sqdist_rows(cloud, rows, others, out, gram)

        monkeypatch.setattr(spectrend.operator, "_sqdist_rows", spy)
        P = build_operator(delay_embed(pts, 1, 1), 1, K).P
        _, _, P_ref = TestRowBlockedBuild.reference(pts, 1, K)
        exact = not paths[-1]
        assert exact or np.max(np.abs(P - P_ref)) <= 1e-10
        assert exact == (K == 1)
        if exact:
            np.testing.assert_array_equal(P, P_ref)


class TestRowStochastic:
    def test_small_example(self):
        P = row_stochastic(np.array([[2.0, 2.0], [1.0, 3.0]]))
        np.testing.assert_allclose(P, [[0.5, 0.5], [0.25, 0.75]])

    def test_rows_sum_to_one(self):
        S = kernel_matrix(random_cloud(50), 1, np.full(50, 0.5))
        P = row_stochastic(S)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(P >= 0)

    def test_zero_row_rejected(self):
        with pytest.raises(NumericalError, match="row 1"):
            row_stochastic(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_nan_row_rejected(self):
        with pytest.raises(NumericalError, match="non-finite entries in 1 row"):
            row_stochastic(np.array([[1.0, 1.0], [np.nan, 1.0]]))

    def test_leading_eigenvalue_one_constant_vector(self):
        S = kernel_matrix(random_cloud(50, seed=5), 1, np.full(50, 0.5))
        dec = eigendecompose(MarkovOperator(row_stochastic(S), 1), 5)
        assert abs(dec.eigenvalues[0] - 1.0) < 1e-10
        v1 = dec.right_vectors[:, 0]
        assert np.max(np.abs(v1 - v1.mean())) < 1e-10


class TestEigendecompose:
    def test_symmetric_two_state(self):
        op = MarkovOperator(P=np.array([[0.9, 0.1], [0.1, 0.9]]), s=1)
        dec = eigendecompose(op)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 0.8], atol=1e-14)
        v1, v2 = dec.right_vectors.T
        np.testing.assert_allclose(v1, [np.sqrt(0.5)] * 2, atol=1e-12)
        np.testing.assert_allclose(np.abs(v2), [np.sqrt(0.5)] * 2, atol=1e-12)
        assert np.sign(v2.real[0]) != np.sign(v2.real[1])

    def test_cyclic_shift_spectrum(self):
        P = np.roll(np.eye(4), 1, axis=1)
        dec = eigendecompose(MarkovOperator(P=P, s=1))
        np.testing.assert_allclose(dec.eigenvalues,
                                   [1.0, 1.0j, -1.0j, -1.0], atol=1e-12)
        assert np.angle(dec.eigenvalues[1]) == pytest.approx(np.pi / 2.0, abs=1e-12)
        assert eigenperiod(dec.eigenvalues[1], s=1, dt=1.0) == pytest.approx(4.0)

    def test_conjugate_pair_bookkeeping(self):
        P = np.roll(np.eye(4), 1, axis=1)
        dec = eigendecompose(MarkovOperator(P=P, s=1))
        assert dec.pair_index[1] == 2 and dec.pair_index[2] == 1
        assert dec.pair_index[0] == -1 and dec.pair_index[3] == -1
        v2, v3 = dec.right_vectors[:, 1], dec.right_vectors[:, 2]
        # conjugate eigenvector equals the conjugate up to a unit phase
        ratio = np.conj(v2) / v3
        assert np.max(np.abs(ratio - ratio[0])) < 1e-10
        assert abs(abs(ratio[0]) - 1.0) < 1e-12

    def test_retention_boundary_never_splits_pair(self):
        P = np.roll(np.eye(4), 1, axis=1)
        dec = eigendecompose(MarkovOperator(P=P, s=1), 2)
        assert dec.n_modes == 3  # extended to keep the conjugate partner
        assert dec.pair_index[1] == 2

    def test_repeated_conjugate_pair_is_paired(self):
        # two disjoint 5-cycles: every complex eigenvalue appears twice
        P = np.kron(np.eye(2), np.roll(np.eye(5), 1, axis=1))
        dec = eigendecompose(MarkovOperator(P=P, s=1))
        np.testing.assert_array_equal(dec.pair_index, [-1, -1, 3, 2, 5, 4, 7, 6, 9, 8])
        upper = dec.eigenvalues[2::2]
        np.testing.assert_array_equal(dec.eigenvalues[3::2], upper.conj())
        np.testing.assert_allclose(upper, np.exp(2j * np.pi * np.array([1, 1, 2, 2]) / 5.0),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [None, 6])
    def test_numerically_real_pair_gets_real_basis(self, m):
        # LAPACK returns part of this operator's 15-fold eigenvalue 0 as
        # conjugate pairs with 0 < |Im| < 1e-16
        op = build_operator(delay_embed(np.repeat([0, 1 / 1024, -1 / 1024], 6), 1, 1), 0, 6)
        dec = eigendecompose(op, m)
        real = np.flatnonzero(dec.pair_index < 0)
        np.testing.assert_array_equal(dec.right_vectors[:, real].imag, 0.0)
        np.testing.assert_array_equal(dec.dual_vectors[:, real].imag, 0.0)
        h = np.random.default_rng(0).standard_normal(op.n)
        for j in real + 1:
            once = project(dec, [j], h)
            assert once.realness
            twice = project(dec, [j], once.series).series
            assert np.linalg.norm(twice - once.series) <= 1e-12 * np.linalg.norm(once.series)

    def test_mode_count_validation(self):
        op = MarkovOperator(P=np.eye(3), s=1)
        with pytest.raises(ValueError):
            eigendecompose(op, 0)
        with pytest.raises(ValueError):
            eigendecompose(op, 4)

    def test_residuals_small_on_random_operator(self):
        pts = random_cloud(80, seed=7)
        S = kernel_matrix(pts, 1, knn_bandwidths(pts, 6))
        dec = eigendecompose(MarkovOperator(row_stochastic(S), 1), 10)
        assert np.all(dec.residuals < 1e-8)
        assert np.all(dec.dual_residuals < 1e-8)

    def test_spectral_radius_bounded(self):
        S = kernel_matrix(random_cloud(60, seed=8), 2, np.full(60, 0.4))
        dec = eigendecompose(MarkovOperator(row_stochastic(S), 2))
        assert np.all(np.abs(dec.eigenvalues) <= 1.0 + 1e-8)

    def test_spectrum_closed_under_conjugation(self):
        S = kernel_matrix(random_cloud(60, seed=9), 1, np.full(60, 0.3))
        dec = eigendecompose(MarkovOperator(row_stochastic(S), 1), 15)
        for j in range(dec.n_modes):
            lam = dec.eigenvalues[j]
            if abs(lam.imag) > 1e-10:
                k = dec.pair_index[j]
                assert k >= 0
                assert dec.eigenvalues[k] == pytest.approx(np.conj(lam), abs=1e-12)

    def test_pairs_match_reference_loop(self):
        for seed in range(12, 17):
            S = kernel_matrix(random_cloud(60, seed=seed), 1, np.full(60, 0.3))
            dec = eigendecompose(MarkovOperator(row_stochastic(S), 1), 15)
            assert np.any(dec.pair_index >= 0)
            np.testing.assert_array_equal(dec.pair_index, reference_pairs(dec.eigenvalues))

    def test_biorthogonality(self):
        S = kernel_matrix(random_cloud(70, seed=10), 1, np.full(70, 0.3))
        dec = eigendecompose(MarkovOperator(row_stochastic(S), 1), 8)
        assert not dec.degenerate
        G = dec.dual_vectors.conj().T @ dec.right_vectors
        np.testing.assert_allclose(np.diag(G), 1.0, atol=1e-10)
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) < 1e-8

    def test_matches_dense_oracle_spectrum(self):
        # production path vs plain dense eigenvalue call, compared as
        # sorted moduli
        S = kernel_matrix(random_cloud(150, seed=11), 1, np.full(150, 0.35))
        op = MarkovOperator(row_stochastic(S), 1)
        dec = eigendecompose(op)
        oracle = np.sort(np.abs(np.linalg.eigvals(op.P)))[::-1]
        np.testing.assert_allclose(np.abs(dec.eigenvalues), oracle, atol=1e-8)

    def test_helix_top_mode_real_at_zero_step(self):
        # with s=0 the operator is a smoothing kernel; the slow mode along a
        # drifting helix is a non-oscillatory (real) eigenvalue
        t = np.arange(600.0)
        h = t / 50.0 + np.cos(0.3 * t)
        emb = delay_embed(h, Q=3, ell=5)
        dec = eigendecompose(markov_operator(emb, 0, 10), 4)
        assert abs(dec.eigenvalues[1].imag) < 1e-6
        assert dec.pair_index[1] == -1

    def test_switching_run_reproduces_published_pair_values(self):
        # frequency-switching pipeline; the two regime pairs land near the
        # published operator eigenvalues
        traj = simulate(ModelConfig(kind="F", n_steps=2000, seed=4))
        emb = delay_embed(traj.observations, Q=3, ell=10)
        dec = eigendecompose(markov_operator(emb, 1, 25), 12)
        j_fast = nearest_pair(dec, 40.0)
        j_slow = nearest_pair(dec, 97.3537)
        lam_fast = dec.eigenvalues[j_fast - 1]
        lam_slow = dec.eigenvalues[j_slow - 1]
        assert lam_fast == pytest.approx(0.9866 + 0.1547j, abs=0.015)
        assert lam_slow == pytest.approx(0.9954 + 0.0660j, abs=0.015)


class TestKrylovPath:
    """The leading-mode ARPACK solve against the full LAPACK decomposition."""

    @staticmethod
    def kernel_operator(seed):
        pts = random_cloud(301, 3, seed=seed)
        return MarkovOperator(
            row_stochastic(kernel_matrix(pts, 1, knn_bandwidths(pts, 8))), 1)

    @staticmethod
    def assert_matches_dense(dec, op):
        full = eigendecompose(op)
        r = dec.n_modes
        np.testing.assert_allclose(dec.eigenvalues, full.eigenvalues[:r], rtol=0, atol=1e-10)
        np.testing.assert_array_equal(dec.pair_index, full.pair_index[:r])
        V, Vd = dec.right_vectors, full.right_vectors[:, :r]
        phase = np.sum(np.conj(Vd) * V, axis=0)
        phase /= np.abs(phase)
        np.testing.assert_allclose(V, Vd * phase, rtol=0, atol=1e-10)
        np.testing.assert_allclose(dec.dual_vectors, full.dual_vectors[:, :r] * phase,
                                   rtol=0, atol=1e-10)
        G = dec.dual_vectors.conj().T @ V
        np.testing.assert_allclose(G, np.eye(r), rtol=0, atol=1e-10)
        np.testing.assert_allclose(dec.residuals, full.residuals[:r], rtol=0, atol=1e-10)
        np.testing.assert_allclose(dec.dual_residuals, full.dual_residuals[:r],
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_leading_modes_match_dense(self, dense_calls, seed):
        op = self.kernel_operator(seed)
        assert op.n == 300
        dec = eigendecompose(op, 10)
        assert dense_calls == []
        assert not dec.degenerate
        self.assert_matches_dense(dec, op)

    def test_normalization_matches_reference_loop(self):
        # reference: one mode at a time, complex matvecs, no block products
        op = self.kernel_operator(2)
        P = op.P
        w, vl, vr = spectrend.operator._leading_eigs(P, 10)
        dec = eigendecompose(op, 10)
        m = dec.n_modes
        w, vl, vr = w[:m].copy(), vl[:, :m].copy(), vr[:, :m].copy()
        w[np.abs(w.imag) <= 1e-10] = w[np.abs(w.imag) <= 1e-10].real
        residuals, dual_residuals, degenerate = np.empty(m), np.empty(m), []
        for j in range(m):
            v = vr[:, j] / np.linalg.norm(vr[:, j])
            k = int(np.argmax(np.abs(v)))
            v = v / (v[k] / abs(v[k]))
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
        np.testing.assert_array_equal(dec.eigenvalues, w)
        np.testing.assert_allclose(dec.right_vectors, vr, rtol=0, atol=1e-14)
        np.testing.assert_allclose(dec.dual_vectors, vl, rtol=1e-12, atol=0)
        np.testing.assert_allclose(dec.residuals, residuals, rtol=0, atol=1e-14)
        np.testing.assert_allclose(dec.dual_residuals, dual_residuals, rtol=0, atol=1e-14)
        assert dec.degenerate == tuple(degenerate)

    @pytest.mark.parametrize("m", [7, 9])
    def test_pair_split_at_arpack_edge(self, dense_calls, monkeypatch, m):
        # the (m+2)-th eigenvalue is the first member of a conjugate pair, so
        # each raw ARPACK answer holds one member of that pair without the other
        import scipy.sparse.linalg as sla

        eigs, raw = sla.eigs, []

        def eigs_spy(A, **kwargs):
            w, vectors = eigs(A, **kwargs)
            raw.append(w)
            return w, vectors

        monkeypatch.setattr(sla, "eigs", eigs_spy)
        op = self.kernel_operator(0)
        dec = eigendecompose(op, m)
        for w in raw:
            nonreal = w[abs(w.imag) > 1e-10]
            assert np.sum(~np.isin(nonreal.conj(), nonreal)) == 1
        assert dense_calls == []
        self.assert_matches_dense(dec, op)

    def test_modulus_tie_across_cut_falls_back(self, dense_calls):
        # 40 eigenvalues of modulus 1: ARPACK does not converge on the cycle
        op = MarkovOperator(P=np.roll(np.eye(40), 1, axis=1), s=1)
        dec = eigendecompose(op, 5)
        assert dense_calls == [(40, 40)]
        z = np.exp(2j * np.pi / 40.0)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, z, z.conjugate(), z**2, z.conjugate()**2],
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(dec.pair_index, [-1, 2, 1, 4, 3])

    def test_converged_tie_across_cut_falls_back(self, dense_calls):
        # 20 disjoint two-state swaps: eigenvalues +1 and -1, twenty each.
        # ARPACK converges to a mix of both, the same on P and P^T.
        op = MarkovOperator(P=np.kron(np.eye(20), [[0.0, 1.0], [1.0, 0.0]]), s=1)
        dec = eigendecompose(op, 8)
        assert dense_calls == [(40, 40)]
        np.testing.assert_allclose(dec.eigenvalues, np.ones(8), rtol=0, atol=1e-12)

    def test_left_right_mismatch_falls_back(self, dense_calls, monkeypatch):
        import scipy.sparse.linalg as sla

        eigs, calls = sla.eigs, []

        def eigs_shifting_left(A, **kwargs):
            calls.append(A.shape)
            mu, vectors = eigs(A, **kwargs)
            return (mu + 1e-6 if len(calls) == 2 else mu), vectors

        monkeypatch.setattr(sla, "eigs", eigs_shifting_left)
        op = self.kernel_operator(0)
        dec = eigendecompose(op, 10)
        assert len(calls) == 2 and dense_calls[0] == (300, 300)
        self.assert_matches_dense(dec, op)

    def test_restart_budget_exhausted_falls_back(self, dense_calls, monkeypatch):
        monkeypatch.setattr(spectrend.operator, "_KRYLOV_RESTARTS", 1)
        op = self.kernel_operator(0)
        dec = eigendecompose(op, 10)
        assert dense_calls[0] == (300, 300)
        self.assert_matches_dense(dec, op)

    def test_dense_solver_failure_is_numerical_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise scipy.linalg.LinAlgError("QR iteration failed")

        monkeypatch.setattr(scipy.linalg, "eig", no_convergence)
        op = MarkovOperator(P=np.array([[0.9, 0.1], [0.1, 0.9]]), s=1)
        with pytest.raises(NumericalError, match="QR iteration failed"):
            eigendecompose(op)

    @pytest.mark.parametrize("m, k", [(296, 298), (297, None), (None, None)])
    def test_arpack_takes_k_below_n_minus_1(self, dense_calls, monkeypatch, m, k):
        # n = 300: ARPACK runs for k = m + 2 up to 298 and LAPACK answers the rest
        import scipy.sparse.linalg as sla

        eigs, ks = sla.eigs, []

        def eigs_spy(A, **kwargs):
            ks.append(kwargs["k"])
            return eigs(A, **kwargs)

        monkeypatch.setattr(sla, "eigs", eigs_spy)
        op = self.kernel_operator(0)
        eigendecompose(op, m)
        assert ks == ([k, k] if k else [])
        if k is None:
            assert dense_calls == [(300, 300)]

    def test_row_stochastic_flushes_entries_below_eps(self):
        pts = two_cluster_cloud()
        S = kernel_matrix(pts, 1, knn_bandwidths(pts, 5))
        eps = np.finfo(float).eps
        raw = S / S.sum(axis=1)[:, None]
        assert np.any((raw > 0) & (raw < eps))
        P = row_stochastic(S)
        assert not np.any((P > 0) & (P < eps))
        kept = raw >= eps
        np.testing.assert_array_equal(P[kept], raw[kept])
        np.testing.assert_array_equal(P[~kept], 0.0)


class TestSampleReader:
    """The build that reads the delay cloud from the samples, through
    ``EmbeddedSeries.columns``, against the same build on the materialized
    cloud, ``delay_embed(emb.points, 1, 1)``: the same bits."""

    CASES = {
        # 429 coordinates: the first two _COL_BLOCK blocks straddle the delay
        # boundaries at 143 and 286
        "gram-straddling": (np.random.default_rng(30).standard_normal((150, 143)), 3, 2, 1, 8),
        "exact-form": (np.random.default_rng(31).standard_normal((300, 4)), 4, 3, 1, 6),
        "rescaled-down": (np.random.default_rng(32).random((200, 2)) * 2.0 ** -450, 3, 4, 1, 5),
        "rescaled-up": (np.random.default_rng(33).random((200, 2)) * 2.0 ** 450, 3, 4, 1, 5),
        "head-rows": (np.random.default_rng(34).standard_normal((300, 2)), 3, 5, 6, 5),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_same_bits_as_the_materialized_cloud(self, case):
        x, Q, ell, s, K = self.CASES[case]
        emb = delay_embed(x, Q, ell)
        flat = delay_embed(emb.points, 1, 1)
        d = knn_bandwidths(emb, K)
        np.testing.assert_array_equal(d, knn_bandwidths(flat, K))
        scaled = spectrend.operator._scaled_cloud(emb)
        assert (scaled is not emb) == case.startswith("rescaled")
        gram = spectrend.operator._gram_form(scaled, knn_bandwidths(scaled, K).min())
        assert gram == (case == "gram-straddling")
        P, P_flat = markov_operator(emb, s, K).P, markov_operator(flat, s, K).P
        assert type(P) is type(P_flat)
        if scipy.sparse.issparse(P):
            P, P_flat = P.toarray(), P_flat.toarray()
        np.testing.assert_array_equal(P, P_flat)


class TestRowBlockedBuild:
    """The row-blocked, in-place build against whole-matrix formulas."""

    @staticmethod
    def reference(pts, s, K):
        D2 = sqdist(pts)
        n = len(pts) - s
        d = np.sqrt(np.partition(D2, K, axis=1)[:, K])
        E = D2[:n, s:] / np.outer(d[:n], d[s:])
        P = np.exp(-E)
        P /= P.sum(axis=1)[:, None]
        P[P < np.finfo(float).eps] = 0.0
        # the kernel caps each exponent at its row's smallest + 700; P is
        # the uncapped formula's
        S = np.exp(-np.minimum(E, E.min(axis=1, keepdims=True) + 700.0))
        return d, S, P

    @pytest.mark.parametrize("s", [0, 1, 7])
    @pytest.mark.parametrize("cloud", ["multi_block", "two_clusters"])
    def test_matches_whole_matrix_formulas(self, cloud, s):
        if cloud == "multi_block":
            pts = random_cloud(600, 3, seed=21)
            block = spectrend.operator._ROW_BLOCK
            assert len(pts) - s > 2 * block and (len(pts) - s) % block
        else:
            pts = two_cluster_cloud()
        d_ref, S_ref, P_ref = self.reference(pts, s, 5)
        d = knn_bandwidths(pts, 5)
        np.testing.assert_array_equal(d, d_ref)
        S = kernel_matrix(pts, s, d)
        np.testing.assert_array_equal(S, S_ref)
        P = row_stochastic(S)
        assert P is S and P.flags.c_contiguous
        np.testing.assert_array_equal(P, P_ref)
        np.testing.assert_array_equal(build_operator(delay_embed(pts, 1, 1), s, 5).P, P_ref)
        # every case is over 10% nonzero, so the stream switches to the dense P
        P = markov_operator(delay_embed(pts, 1, 1), s, 5).P
        assert type(P) is np.ndarray
        np.testing.assert_array_equal(P, P_ref)

    def test_build_holds_one_distance_matrix(self):
        # NumPy reports its buffers to tracemalloc; the kernel, normalized in
        # place into P, is the one N x N array, every other temporary is a
        # block of rows
        emb = delay_embed(random_cloud(1200, 3, seed=23), 1, 1)
        tracemalloc.start()
        try:
            build_operator(emb, 1, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * emb.n_points ** 2 * 8

    def test_streamed_build_holds_no_dense_p(self):
        # model F's P is 6.6% nonzero: the streamed build's largest buffers are
        # its CSR arrays and blocks of rows, where the dense build holds all of P
        emb = TestCsrOperand.streamed_case("model_F")[0]
        peaks = {}
        for build in (markov_operator, build_operator):
            tracemalloc.start()
            try:
                n = build(emb, 1, 10).n
                _, peaks[build] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[markov_operator] <= 0.5 * 8 * n ** 2
        assert peaks[build_operator] >= 8 * n ** 2

    def test_switch_to_dense_p_drops_the_stream(self, monkeypatch):
        # once the rows go into the dense P, neither the CSR arrays nor the
        # 256-row scratch block stay alive beside it: from the first block
        # made in P's rows on, the peak is P and one _CACHE_ROWS temporary,
        # bounded here with the CSR arrays' capacity to spare
        emb = delay_embed(random_cloud(600, 3, seed=21), 1, 1)
        n = emb.n_points - 1
        assert n > 2 * spectrend.operator._ROW_BLOCK
        kernel_rows, in_p = spectrend.operator._kernel_rows, []

        def spy(pts, s, d, rows, out, gram):
            if out.base.shape == (n, n) and not in_p:
                tracemalloc.reset_peak()
                in_p.append(rows)
            return kernel_rows(pts, s, d, rows, out, gram)

        monkeypatch.setattr(spectrend.operator, "_kernel_rows", spy)
        tracemalloc.start()
        try:
            P = markov_operator(emb, 1, 5).P
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert type(P) is np.ndarray and in_p
        capacity = int(spectrend.operator._CSR_DENSITY * n * n)
        assert peak <= P.nbytes + 12 * capacity + spectrend.operator._CACHE_ROWS * n * 8

    def test_exponent_past_700_leaves_p_zero(self):
        # P is exactly 0 wherever the kernel exponent exceeds 700, so a floor
        # on the exponent there would leave P unchanged.  On model F a fifth
        # of the exponents exceed 708, where NumPy's exp leaves its vector loop
        traj = simulate(ModelConfig(kind="F", n_steps=1200, seed=4))
        emb = delay_embed(traj.observations, Q=3, ell=10)
        s, K = 1, 25
        pts, n = emb.points, emb.n_points - s
        d = np.sort(cdist(pts, pts), axis=1)[:, K]
        exponent = cdist(pts[:n], pts[s:], "sqeuclidean") / np.outer(d[:n], d[s:])
        assert (exponent > 708).mean() > 0.2
        P = build_operator(emb, s, K).P
        assert not P[exponent > 700].any()

    @staticmethod
    def far_head_row(L):
        """A line of 10 points and a far point L before them, with the
        exponents of its kernel row at s = 1, K = 2, the smallest about
        (L - 10) / 2; row 0 lacks its own point."""
        pts = np.concatenate([[L], np.arange(10.0)])[:, None]
        d = knn_bandwidths(pts, 2)
        return pts, sqdist(pts)[0, 1:] / (d[0] * d[1:])

    def test_head_row_below_normal_range_is_exact(self):
        # exp(-min) is subnormal, so a global floor at -700 would flatten row 0
        pts, exponent = self.far_head_row(1460.0)
        assert 708 < exponent.min() < 745
        _, _, P_ref = self.reference(pts, 1, 2)
        assert P_ref[0].any()
        np.testing.assert_array_equal(build_operator(delay_embed(pts, 1, 1), 1, 2).P, P_ref)

    def test_head_row_past_745_still_sums_to_zero(self):
        pts, exponent = self.far_head_row(1600.0)
        assert exponent.min() > 745
        for build in (build_operator, markov_operator):
            with pytest.raises(NumericalError, match="row 0 sums to zero"):
                build(delay_embed(pts, 1, 1), 1, 2)

    def test_failed_normalization_leaves_kernel_unchanged(self):
        S = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NumericalError):
            row_stochastic(S)
        np.testing.assert_array_equal(S, [[1.0, 1.0], [0.0, 0.0]])


class TestCsrOperand:
    """ARPACK reads P in the format its builder chose: CSR, as markov_operator
    builds a P at most _CSR_DENSITY nonzero, as it is, and a dense P through BLAS."""

    @pytest.fixture
    def operands(self, monkeypatch):
        """The operands handed to eigs and to the dense fallback."""
        import scipy.sparse.linalg as sla

        calls = {"eigs": [], "dense": []}
        eigs, dense = sla.eigs, spectrend.operator._dense_eigs

        def eigs_spy(A, **kwargs):
            calls["eigs"].append(A)
            return eigs(A, **kwargs)

        def dense_spy(P):
            calls["dense"].append(P)
            return dense(P)

        monkeypatch.setattr(sla, "eigs", eigs_spy)
        monkeypatch.setattr(spectrend.operator, "_dense_eigs", dense_spy)
        return calls

    @staticmethod
    def streamed_case(case):
        """An embedding whose P is under 10% nonzero, with its step s and K:
        the circle operator's (320 rows, two blocks) or model F's (seed 0,
        N=1200, K=10, 6.6% nonzero)."""
        if case == "circle":
            # one tone delay-embedded onto a circle that it winds around many
            # times; with K=3 each point's kernel reaches only its arc of it
            h = np.cos(2.0 * np.pi * np.arange(330.0) / 37.7)
            return delay_embed(h, Q=2, ell=9), 1, 3
        traj = simulate(ModelConfig(kind="F", n_steps=1200, seed=0))
        return delay_embed(traj.observations, Q=3, ell=10), 1, 10

    def test_sparse_operator_runs_on_csr(self, operands):
        op = markov_operator(*self.streamed_case("circle"))
        assert op.n == 320 and scipy.sparse.issparse(op.P)
        assert op.P.nnz / op.n ** 2 < spectrend.operator._CSR_DENSITY
        dec = eigendecompose(op, 10)
        A, AT = operands["eigs"]
        assert A is op.P and scipy.sparse.issparse(AT)
        assert operands["dense"] == []
        TestKrylovPath.assert_matches_dense(dec, op)

    def test_dense_operator_runs_in_scipy_blas(self, operands, monkeypatch):
        from scipy.sparse.linalg import LinearOperator

        op = TestKrylovPath.kernel_operator(0)
        P = op.P
        assert np.count_nonzero(P) / P.size > spectrend.operator._CSR_DENSITY
        dec = eigendecompose(op, 10)
        assert len(operands["eigs"]) == 2
        assert operands["dense"] == []
        A, AT = operands["eigs"]
        assert all(isinstance(B, LinearOperator) for B in (A, AT))

        blas = []
        for name in ("dgemv", "dgemm"):
            def spy(*args, _f=getattr(spectrend.operator, name), _name=name, **kwargs):
                blas.append(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(spectrend.operator, name, spy)
        rng = np.random.default_rng(1)
        x, X = rng.standard_normal(op.n), rng.standard_normal((op.n, 6))
        # SciPy's dgemv gives NumPy's @ bit for bit; dgemm may round
        # differently when the NumPy and SciPy wheels bundle different OpenBLAS
        # builds, so it is held to the bound that covers either rounding
        for B, PB in ((A, P), (AT, P.T)):
            del blas[:]
            np.testing.assert_array_equal(B @ x, PB @ x)
            BX = B @ X
            assert blas == ["dgemv", "dgemm"]
            assert np.all(abs(BX - PB @ X) <= 2 * op.n * np.finfo(float).eps * (abs(PB) @ abs(X)))

        monkeypatch.setattr(spectrend.operator, "_blas_operator", lambda P: P)
        ref = eigendecompose(op, 10)
        assert all(type(B) is np.ndarray for B in operands["eigs"][2:])
        for name in ("eigenvalues", "right_vectors", "dual_vectors", "pair_index"):
            np.testing.assert_array_equal(getattr(dec, name), getattr(ref, name))

    def test_fallback_reads_dense_matrix(self, operands):
        # 2.5% nonzero but dense, so ARPACK tries P through BLAS first and gives up
        from scipy.sparse.linalg import LinearOperator

        op = MarkovOperator(P=np.roll(np.eye(40), 1, axis=1), s=1)
        dec = eigendecompose(op, 5)
        assert operands["eigs"] and all(isinstance(A, LinearOperator) for A in operands["eigs"])
        assert len(operands["dense"]) == 1 and operands["dense"][0] is op.P
        z = np.exp(2j * np.pi / 40.0)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, z, z.conjugate(), z**2, z.conjugate()**2],
                                   rtol=0, atol=1e-12)

    def test_fallback_densifies_a_csr_p(self, operands):
        P = np.roll(np.eye(40), 1, axis=1)
        op = MarkovOperator(P=scipy.sparse.csr_array(P), s=1)
        assert scipy.sparse.issparse(op.P)
        dec = eigendecompose(op, 5)
        assert operands["eigs"] and operands["eigs"][0] is op.P
        (dense,) = operands["dense"]
        assert type(dense) is np.ndarray
        np.testing.assert_array_equal(dense, P)
        z = np.exp(2j * np.pi / 40.0)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, z, z.conjugate(), z**2, z.conjugate()**2],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", ["circle", "model_F"])
    def test_streamed_rows_match_csr_array(self, monkeypatch, case):
        emb, s, K = self.streamed_case(case)
        want = scipy.sparse.csr_array(build_operator(emb, s, K).P)

        def unused(*args):
            raise AssertionError("a sparse P is streamed, not built dense")

        monkeypatch.setattr(spectrend.operator, "kernel_matrix", unused)
        monkeypatch.setattr(spectrend.operator, "row_stochastic", unused)
        op = markov_operator(emb, s, K)
        assert op.n == want.shape[0] and (op.s, op.dt) == (s, emb.dt)
        assert scipy.sparse.issparse(op.P) and op.P.shape == want.shape
        assert want.nnz / np.prod(want.shape) < spectrend.operator._CSR_DENSITY
        for name in ("data", "indices", "indptr"):
            got, ref = getattr(op.P, name), getattr(want, name)
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("switch", ["block_0", "middle_block", "none"])
    def test_p_is_build_operators_wherever_the_switch_comes(self, monkeypatch, switch):
        # each block is made once, streamed into CSR until one does not fit and
        # then into the dense P; the dense build never runs
        if switch == "block_0":
            # TestKrylovPath.kernel_operator(0)'s cloud: P is 98% nonzero
            emb, s, K = delay_embed(random_cloud(301, 3, seed=0), 1, 1), 1, 8
            fits = [False]
        elif switch == "middle_block":
            # criterion 6's operator, 45% nonzero: the switch comes in rows 768-1023
            emb, s, K = delay_embed(load_benthic_fixture(), Q=5, ell=10), 7, 7
            fits = [True, True, True, False]
        else:
            emb, s, K = self.streamed_case("model_F")
            fits = [True] * 5
        want = build_operator(emb, s, K).P
        appended, append = [], spectrend.operator._CsrRows.append

        def append_spy(rows_out, rows, block):
            appended.append(append(rows_out, rows, block))
            return appended[-1]

        def unused(*args):
            raise AssertionError("markov_operator builds no P through the dense build")

        monkeypatch.setattr(spectrend.operator._CsrRows, "append", append_spy)
        monkeypatch.setattr(spectrend.operator, "kernel_matrix", unused)
        monkeypatch.setattr(spectrend.operator, "row_stochastic", unused)
        P = markov_operator(emb, s, K).P
        assert appended == fits
        if switch == "none":
            assert scipy.sparse.issparse(P)
            P = P.toarray()
        else:
            assert type(P) is np.ndarray and P.flags.c_contiguous
        np.testing.assert_array_equal(P.view(np.uint64), want.view(np.uint64))

    @staticmethod
    def streamed(P):
        """P's row blocks appended to the CSR assembler, as the streamed build
        appends them: whether each append fit, and the assembler."""
        rows_out = spectrend.operator._CsrRows(P.shape)
        return [rows_out.append(rows, P[rows])
                for rows in spectrend.operator._blocks(len(P))], rows_out

    def test_format_rule_at_its_edge(self):
        block = spectrend.operator._ROW_BLOCK
        n = 2 * block + 8    # the last block holds 8 rows
        cap = int(spectrend.operator._CSR_DENSITY * n * n)
        rng = np.random.default_rng(0)
        P = np.zeros((n, n))
        P.flat[rng.choice(n * n, cap, replace=False)] = rng.random(cap) + 0.5
        fits, rows_out = self.streamed(P)
        assert fits == [True, True, True]
        A, want = rows_out.array(n), scipy.sparse.csr_array(P)
        assert scipy.sparse.issparse(A) and A.nnz == cap
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(A, name), getattr(want, name))
        # one more nonzero, in the last row: the running count first passes
        # the capacity in the last block
        P[-1, np.flatnonzero(P[-1] == 0.0)[0]] = 1.0
        assert np.count_nonzero(P) == cap + 1
        assert np.count_nonzero(P[:2 * block]) <= cap
        assert self.streamed(P)[0] == [True, True, False]

    @staticmethod
    def modules_after_cli_import() -> set:
        """The modules a fresh interpreter holds after ``import spectrend.cli``."""
        src = os.path.dirname(os.path.dirname(spectrend.operator.__file__))
        code = "import sys, spectrend.cli; print(' '.join(sys.modules))"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        return set(out.split())

    def test_cli_import_defers_sparse_linalg(self):
        assert "scipy.sparse.linalg" not in self.modules_after_cli_import()

    def test_cli_import_leaves_out_scipy_spatial(self):
        loaded = self.modules_after_cli_import()
        assert "spectrend.cli" in loaded
        assert not {name for name in loaded if name.startswith("scipy.spatial")}


class TestEigenvalueTable:
    def test_columns_and_order(self, tmp_path):
        P = np.roll(np.eye(4), 1, axis=1)
        dec = eigendecompose(MarkovOperator(P=P, s=1))
        path = tmp_path / "eigs.txt"
        write_eigenvalue_table(dec, path)
        rows = np.loadtxt(path)
        assert rows.shape == (4, 6)
        np.testing.assert_allclose(rows[:, 0], [1, 2, 3, 4])
        np.testing.assert_allclose(rows[1, 1:3], [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(rows[:, 3], 1.0, atol=1e-12)
