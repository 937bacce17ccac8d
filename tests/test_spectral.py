import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from spectrend.embed import delay_embed
from spectrend.models import ModelConfig, regime_mask, simulate
from spectrend.operator import (
    MarkovOperator,
    build_operator,
    eigendecompose,
    kernel_matrix,
    row_stochastic,
)
from spectrend.spectral import (
    affine_scale,
    classify_modes,
    conjugate_closure,
    eigenperiod,
    nearest_pair,
    project,
    regime_localization,
    trend_mode,
    write_mode_table,
    write_projection,
)


@pytest.fixture(scope="module")
def random_dec():
    pts = np.random.default_rng(12).random((70, 3))
    S = kernel_matrix(cdist(pts, pts, "sqeuclidean"), 1, np.full(70, 0.3))
    return eigendecompose(row_stochastic(S), 9)


@pytest.fixture(scope="module")
def switching_pipeline():
    # default-seed frequency-switching run: visits both regimes, leading
    # oscillatory pair is the slow-rotation one
    traj = simulate(ModelConfig(kind="F", n_steps=2000, seed=11))
    emb = delay_embed(traj.observations, Q=3, ell=10)
    dec = eigendecompose(build_operator(emb, 1, 25), 12)
    h_rows = emb.align(traj.observations, dec.right_vectors.shape[0])
    in_fast = emb.align(regime_mask(traj), dec.right_vectors.shape[0])
    return traj, dec, h_rows, in_fast


@pytest.fixture(scope="module")
def two_cycles_dec():
    # two disjoint 5-cycles: every complex eigenvalue appears twice
    P = np.kron(np.eye(2), np.roll(np.eye(5), 1, axis=1))
    return eigendecompose(MarkovOperator(P=P, s=1))


class TestEigenperiod:
    def test_slow_pair_published_value(self):
        assert eigenperiod(0.7639 + 0.3651j, s=7, dt=1.0) == pytest.approx(98.64, abs=0.05)

    def test_fast_pair_published_value(self):
        assert eigenperiod(0.3869 + 0.7216j, s=7, dt=1.0) == pytest.approx(40.78, abs=0.05)

    def test_quarter_rotation(self):
        assert eigenperiod(1.0j, s=1, dt=1.0) == pytest.approx(4.0, abs=1e-12)

    def test_physical_units_scale(self):
        assert eigenperiod(1.0j, s=2, dt=0.5) == pytest.approx(4.0, abs=1e-12)

    def test_conjugate_has_same_period(self):
        lam = 0.93 + 0.21j
        assert eigenperiod(np.conj(lam), 3) == eigenperiod(lam, 3)

    def test_real_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="infinite"):
            eigenperiod(0.97, s=1)
        with pytest.raises(ValueError, match="infinite"):
            eigenperiod(-0.9, s=1)


class TestClassifyModes:
    def test_constant_input_loads_constant_mode_only(self, random_dec):
        n = random_dec.right_vectors.shape[0]
        reports = classify_modes(random_dec, np.ones(n))
        assert reports[0].kind == "constant"
        assert reports[0].index == 1
        rest = [r.amplitude for r in reports[1:]]
        assert reports[0].amplitude > 1.0
        assert max(rest) < 1e-8

    def test_eigenvector_input_dominates_its_own_mode(self, random_dec):
        v2 = random_dec.right_vectors[:, 1].real
        reports = classify_modes(random_dec, v2)
        by_index = {r.index: r.amplitude for r in reports}
        a2 = by_index[2]
        assert all(a2 > 10 * a for i, a in by_index.items() if i > 3)

    def test_pairs_reported_once_with_positive_member(self, random_dec):
        n = random_dec.right_vectors.shape[0]
        reports = classify_modes(random_dec, np.ones(n))
        for r in reports:
            if r.kind == "oscillatory":
                assert r.eigenvalue.imag > 0
                assert r.period is not None and r.period > 0
            else:
                assert r.period is None
        indices = [r.index for r in reports]
        assert len(indices) == len(set(indices))

    def test_oscillatory_iff_nonreal(self, random_dec):
        n = random_dec.right_vectors.shape[0]
        for r in classify_modes(random_dec, np.ones(n)):
            assert (r.kind == "oscillatory") == (abs(r.eigenvalue.imag) > 1e-10)

    def test_length_mismatch_rejected(self, random_dec):
        with pytest.raises(ValueError, match="length"):
            classify_modes(random_dec, np.ones(7))

    def test_field_observations_rejected(self, random_dec):
        n = random_dec.right_vectors.shape[0]
        with pytest.raises(ValueError, match="scalar observation series"):
            classify_modes(random_dec, np.ones((n, 2)))


class TestConjugateClosure:
    def test_adds_partner(self, random_dec):
        # find a pair member and close over it
        j = next(j for j in range(random_dec.n_modes) if random_dec.pair_index[j] >= 0)
        closed = conjugate_closure(random_dec, [j + 1])
        assert int(random_dec.pair_index[j]) + 1 in closed
        assert j + 1 in closed

    def test_real_mode_unchanged(self, random_dec):
        assert conjugate_closure(random_dec, [1]) == (1,)

    def test_out_of_range(self, random_dec):
        with pytest.raises(ValueError, match="out of range"):
            conjugate_closure(random_dec, [random_dec.n_modes + 1])


class TestProject:
    def test_constant_mode_reproduces_constant_target(self, random_dec):
        n = random_dec.right_vectors.shape[0]
        target = np.full(n, 3.7)
        proj = project(random_dec, [1], target)
        np.testing.assert_allclose(proj.series, target, atol=1e-10)
        assert proj.realness

    def test_idempotent(self, random_dec):
        n = random_dec.right_vectors.shape[0]
        rng = np.random.default_rng(5)
        target = rng.standard_normal(n)
        idx = conjugate_closure(random_dec, [1, 2, 4])
        once = project(random_dec, idx, target).series
        twice = project(random_dec, idx, once).series
        assert np.max(np.abs(twice - once)) < 1e-8

    def test_cross_annihilation(self, random_dec):
        n = random_dec.right_vectors.shape[0]
        pair = conjugate_closure(random_dec, [2])
        others = tuple(i for i in range(1, random_dec.n_modes + 1) if i not in pair)
        target = np.random.default_rng(6).standard_normal(n)
        through_pair = project(random_dec, pair, target).series
        then_others = project(random_dec, others, through_pair).series
        assert np.max(np.abs(then_others)) < 1e-8 * max(1.0, np.max(np.abs(through_pair)))

    def test_closed_set_output_is_real(self, random_dec):
        n = random_dec.right_vectors.shape[0]
        target = np.random.default_rng(7).standard_normal(n)
        idx = conjugate_closure(random_dec, range(1, random_dec.n_modes + 1))
        proj = project(random_dec, idx, target)
        assert proj.realness and not np.iscomplexobj(proj.series)
        # the discarded imaginary residue really was negligible
        zero = [i - 1 for i in idx]
        V = random_dec.right_vectors[:, zero]
        W = random_dec.dual_vectors[:, zero]
        raw = V @ (W.conj().T @ target)
        assert np.max(np.abs(raw.imag)) < 1e-10 * max(1e-30, np.max(np.abs(raw.real)))

    def test_unclosed_set_flagged_complex(self, random_dec):
        n = random_dec.right_vectors.shape[0]
        j = next(j for j in range(random_dec.n_modes) if random_dec.pair_index[j] >= 0)
        proj = project(random_dec, [j + 1], np.ones(n))
        assert not proj.realness
        assert np.iscomplexobj(proj.series)

    def test_componentwise_on_vector_target(self, random_dec):
        n = random_dec.right_vectors.shape[0]
        target = np.random.default_rng(8).standard_normal((n, 3))
        proj = project(random_dec, [1], target)
        assert proj.series.shape == (n, 3)
        for col in range(3):
            ref = project(random_dec, [1], target[:, col]).series
            np.testing.assert_allclose(proj.series[:, col], ref, atol=1e-12)

    def test_bad_index_and_length(self, random_dec):
        n = random_dec.right_vectors.shape[0]
        with pytest.raises(ValueError, match="out of range"):
            project(random_dec, [0], np.ones(n))
        with pytest.raises(ValueError, match="length"):
            project(random_dec, [1], np.ones(n - 1))


class TestRepeatedPairs:
    """A repeated complex eigenvalue is paired with its own conjugate."""

    def test_every_complex_mode_oscillatory(self, two_cycles_dec):
        reports = classify_modes(two_cycles_dec, np.arange(10.0))
        assert [r.kind for r in reports] == ["constant", "trend"] + ["oscillatory"] * 4
        assert [r.index for r in reports[2:]] == [3, 5, 7, 9]
        assert [r.period for r in reports[2:]] == pytest.approx([5.0, 5.0, 2.5, 2.5])

    def test_closure_adds_partner(self, two_cycles_dec):
        assert conjugate_closure(two_cycles_dec, [3]) == (3, 4)

    def test_single_member_projection_is_complex(self, two_cycles_dec):
        proj = project(two_cycles_dec, [3], np.arange(10.0))
        assert proj.realness is False
        assert np.iscomplexobj(proj.series) and np.any(proj.series.imag != 0)


class TestAffineScale:
    def test_identity(self):
        ref = np.sin(np.linspace(0, 5, 50))
        offset, gain, scaled = affine_scale(ref, ref)
        assert gain == pytest.approx(1.0, abs=1e-12)
        assert offset == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(scaled, ref, atol=1e-12)

    def test_exact_affine_relation(self):
        ref = np.linspace(-1, 2, 40)
        mode = 2.0 * ref + 3.0
        offset, gain, scaled = affine_scale(mode, ref)
        assert gain == pytest.approx(0.5, abs=1e-12)
        assert offset == pytest.approx(-1.5, abs=1e-12)
        np.testing.assert_allclose(scaled, ref, atol=1e-12)

    def test_constant_mode_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            affine_scale(np.ones(10), np.arange(10.0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            affine_scale(np.ones(10), np.ones(11))


class TestRegimeLocalization:
    def test_uniform_amplitude_ratio_one(self):
        mode = np.exp(1j * np.linspace(0, 6, 100))
        mask = np.zeros(100, dtype=bool)
        mask[:40] = True
        assert regime_localization(mode, mask) == pytest.approx(1.0, abs=1e-12)

    def test_zero_outside_is_infinite(self):
        mode = np.zeros(50)
        mode[:20] = 1.0
        mask = np.zeros(50, dtype=bool)
        mask[:20] = True
        assert regime_localization(mode, mask) == math.inf

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            regime_localization(np.ones(10), np.ones(10, dtype=bool))
        with pytest.raises(ValueError):
            regime_localization(np.ones(10), np.zeros(10, dtype=bool))
        with pytest.raises(ValueError):
            regime_localization(np.ones(10), np.zeros(9, dtype=bool))


class TestTrendMode:
    def test_drifting_helix_trend_follows_drift(self):
        t = np.arange(700.0)
        h = t / 70.0 + np.cos(0.3 * t)
        emb = delay_embed(h, Q=3, ell=5)
        dec = eigendecompose(build_operator(emb, 1, 10), 6)
        j, series = trend_mode(dec)
        assert j >= 2
        drift = emb.align(t, len(series)) / 70.0
        _, _, scaled = affine_scale(series, drift)
        r = np.corrcoef(scaled, drift)[0, 1]
        assert abs(r) > 0.95

    def test_no_real_mode_raises(self):
        P = np.roll(np.eye(4), 1, axis=1)
        dec = eigendecompose(MarkovOperator(P=P, s=1), 3)
        # modes: 1, +i, -i; drop the trailing real -1 so only pairs remain
        with pytest.raises(ValueError, match="real"):
            trend_mode(dec)


class TestSwitchingRunLocalization:
    def test_leading_pair_suppressed_before_switch(self, switching_pipeline):
        # the dominant oscillatory pair belongs to the regime the run spends
        # more time in (the slow one for this seed); its reconstruction
        # carries >= 2x the RMS amplitude there
        traj, dec, h_rows, in_fast = switching_pipeline
        pair = conjugate_closure(dec, [2])
        assert len(pair) == 2
        slow_period = 2.0 * math.pi / min(traj.config.alpha1, traj.config.alpha2)
        assert eigenperiod(dec.eigenvalues[pair[0] - 1], dec.s, dec.dt) == pytest.approx(
            slow_period, rel=0.05)
        proj = project(dec, pair, h_rows)
        rms_slow = np.sqrt(np.mean(proj.series[~in_fast] ** 2))
        rms_fast = np.sqrt(np.mean(proj.series[in_fast] ** 2))
        assert rms_slow >= 2.0 * rms_fast

    def test_both_pairs_localize_to_their_regimes(self, switching_pipeline):
        traj, dec, h_rows, in_fast = switching_pipeline
        j_fast = nearest_pair(dec, 40.0)
        j_slow = nearest_pair(dec, 97.3537)
        for j, mask in ((j_fast, in_fast), (j_slow, ~in_fast)):
            pr = project(dec, conjugate_closure(dec, [j]), h_rows)
            assert regime_localization(pr.series, mask) > 2.0


class TestReportWriters:
    def test_mode_table_roundtrip(self, random_dec, tmp_path):
        n = random_dec.right_vectors.shape[0]
        reports = classify_modes(random_dec, np.ones(n))
        path = tmp_path / "modes.txt"
        write_mode_table(reports, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("# j ")
        assert len(lines) == len(reports) + 1
        first = lines[1].split()
        assert first[0] == "1" and first[3] == "inf" and first[5] == "constant"

    def test_projection_writer_real_and_complex(self, random_dec, tmp_path):
        n = random_dec.right_vectors.shape[0]
        target = np.random.default_rng(9).standard_normal(n)
        closed = project(random_dec, conjugate_closure(random_dec, [2]), target)
        p1 = tmp_path / "closed.txt"
        write_projection(closed, p1)
        data = np.loadtxt(p1)
        assert data.shape == (n, 2)
        np.testing.assert_allclose(data[:, 1], closed.series, atol=1e-15)
        j = next(j for j in range(random_dec.n_modes) if random_dec.pair_index[j] >= 0)
        open_proj = project(random_dec, [j + 1], target)
        p2 = tmp_path / "open.txt"
        write_projection(open_proj, p2)
        data = np.loadtxt(p2)
        assert data.shape == (n, 3)  # time, re, im
