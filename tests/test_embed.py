import math

import numpy as np
import pytest

from spectrend.data import TimeSeries
from spectrend.embed import (
    delay_embed,
    ellipse_area,
    ellipse_axes,
    ellipse_curve,
    suggest_lag,
)


class TestDelayEmbed:
    def test_two_delay_rows(self):
        emb = delay_embed([1, 2, 3, 4, 5], Q=2, ell=1)
        np.testing.assert_array_equal(
            emb.points, [[2, 1], [3, 2], [4, 3], [5, 4]])

    def test_single_delay_is_identity(self):
        emb = delay_embed([1, 2, 3, 4, 5], Q=1, ell=3)
        np.testing.assert_array_equal(emb.points, [[1], [2], [3], [4], [5]])
        assert emb.n_points == 5

    def test_row_count(self):
        emb = delay_embed(np.arange(100.0), Q=4, ell=7)
        assert emb.n_points == 100 - 3 * 7

    def test_too_short_error_names_minimum(self):
        with pytest.raises(ValueError, match="21"):
            delay_embed(np.arange(20.0), Q=3, ell=10)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            delay_embed(np.arange(10.0), Q=0, ell=1)
        with pytest.raises(ValueError):
            delay_embed(np.arange(10.0), Q=2, ell=0)
        # a raw array's shape is held to the TimeSeries rule
        with pytest.raises(ValueError, match=r"\(N,\) or \(N, d\), got \(10, 2, 2\)"):
            delay_embed(np.zeros((10, 2, 2)), 2, 1)
        with pytest.raises(ValueError, match=r"\(N,\) or \(N, d\), got \(\)"):
            delay_embed(5.0, 1, 1)

    def test_non_finite_sample_rejected(self):
        h = np.sin(np.arange(400.0))
        h[200] = np.nan
        with pytest.raises(ValueError, match="1 non-finite sample.*first at index 200"):
            delay_embed(h, Q=30, ell=2)

    def test_shift_consistency(self):
        h = np.sin(0.37 * np.arange(80.0))
        full = delay_embed(h, Q=3, ell=5).points
        shifted = delay_embed(h[2:], Q=3, ell=5).points
        np.testing.assert_array_equal(shifted, full[2:])

    def test_vector_source_flattens_per_snapshot(self):
        h = np.arange(12.0).reshape(6, 2)
        emb = delay_embed(h, Q=2, ell=1)
        assert emb.points.shape == (5, 4)
        np.testing.assert_array_equal(emb.points[0], [2, 3, 0, 1])

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("Q", [1, 2, 3])
    def test_points_are_the_stacked_delays(self, Q, d):
        arr = np.random.default_rng(10 * Q + d).standard_normal((40, d))
        ell, base = 4, (Q - 1) * 4
        n = len(arr) - base
        emb = delay_embed(arr[:, 0] if d == 1 else arr, Q, ell)
        want = np.hstack([arr[base - q * ell:base - q * ell + n] for q in range(Q)])
        assert emb.points.flags.c_contiguous and emb.dim == d * Q
        np.testing.assert_array_equal(emb.points, want)
        # any block of columns and rows, across delay boundaries too
        for cols in (slice(None), slice(0, 1), slice(d - 1, d * Q), slice(1, d * Q - 1)):
            for rows in (slice(None), slice(3, 17), slice(n - 1, None)):
                block = emb.columns(cols, rows)
                assert block.flags.c_contiguous
                np.testing.assert_array_equal(block, want[rows, cols])
        with pytest.raises(ValueError, match="step 1"):
            emb.columns(slice(0, None, 2))

    def test_samples_are_a_read_only_view_of_the_source(self):
        h = np.arange(24.0).reshape(12, 2)
        emb = delay_embed(h, Q=3, ell=2)
        assert np.shares_memory(emb.samples, h)
        with pytest.raises(ValueError, match="read-only"):
            emb.samples[0, 0] = 1.0
        # the source stays writable, and a change to it is a change to the embedding
        h[4, 1] = -1.0
        assert emb.points[0, 1] == -1.0

    @pytest.mark.parametrize("count", [None, 5])
    def test_timestamps_match_closed_form(self, count):
        ts = TimeSeries(np.arange(30.0), dt=0.1, t0=-7.3)
        emb = delay_embed(ts, Q=3, ell=4)
        n = emb.n_points if count is None else count
        np.testing.assert_array_equal(emb.align(ts.times, count),
                                      -7.3 + (4 * (3 - 1) + np.arange(n)) * 0.1)

    @pytest.mark.parametrize("count", [None, 0, 5, 13])
    def test_align_scalar_values_is_the_offset_slice(self, count):
        h = np.arange(30.0) ** 2
        emb = delay_embed(h, Q=3, ell=4)
        n = emb.n_points if count is None else count
        got = emb.align(h, count)
        assert emb.offset == 8
        np.testing.assert_array_equal(got, h[8:8 + n])
        assert got.base is h
        # row i's newest delay coordinate is the aligned value
        np.testing.assert_array_equal(got, emb.points[:n, 0])

    def test_align_vector_values_keeps_columns(self):
        h = np.arange(40.0).reshape(20, 2)
        emb = delay_embed(h, Q=2, ell=3)
        got = emb.align(h, 10)
        np.testing.assert_array_equal(got, h[3:13])
        np.testing.assert_array_equal(got, emb.points[:10, :2])
        assert np.shares_memory(got, h)

    def test_align_reads_any_source_indexed_array(self):
        emb = delay_embed(np.zeros(12), Q=2, ell=2)
        np.testing.assert_array_equal(emb.align([True, False] * 6, 3), [True, False, True])

    def test_align_rejects_short_values(self):
        emb = delay_embed(np.arange(30.0), Q=3, ell=4)
        with pytest.raises(ValueError, match="length 29 .* need at least 30"):
            emb.align(np.arange(29.0))
        with pytest.raises(ValueError, match="need at least 18"):
            emb.align(np.arange(17.0), 10)
        assert len(emb.align(np.arange(18.0), 10)) == 10

    @pytest.mark.parametrize("count", [-1, 23])
    def test_align_rejects_count_outside_rows(self, count):
        emb = delay_embed(np.arange(30.0), Q=3, ell=4)
        with pytest.raises(ValueError, match=r"count must lie in \[0, 22\]"):
            emb.align(np.arange(100.0), count)

    def test_rotation_rows_lie_in_ellipse_plane(self):
        # cos(j 2 pi / 40) embedded with Q=3, ell=10 has beta = pi/2: every
        # row lies in span{[1, cos b, cos 2b], [0, -sin b, -sin 2b]}
        h = np.cos(np.arange(400) * 2.0 * np.pi / 40.0)
        emb = delay_embed(h, Q=3, ell=10)
        b = np.pi / 2.0
        span = np.column_stack([[1.0, np.cos(b), np.cos(2 * b)],
                                [0.0, -np.sin(b), -np.sin(2 * b)]])
        proj = span @ np.linalg.pinv(span)
        residue = emb.points.T - proj @ emb.points.T
        assert np.max(np.abs(residue)) < 1e-12


class TestEllipseCurve:
    def test_direct_cosines(self):
        np.testing.assert_allclose(
            ellipse_curve(np.pi / 3.0, 0.0), [1.0, 0.5, -0.5], atol=1e-15)

    def test_degenerate_beta_zero_is_diagonal(self):
        for theta in (0.0, 0.7, 2.9):
            p = ellipse_curve(0.0, theta)
            assert p[0] == p[1] == p[2]

    def test_quarter_rotation(self):
        np.testing.assert_allclose(
            ellipse_curve(np.pi / 2.0, np.pi / 2.0), [0.0, -1.0, 0.0], atol=1e-15)

    def test_planarity_over_beta_grid(self):
        thetas = np.linspace(0.0, 2.0 * np.pi, 257)
        for b in np.linspace(0.05, np.pi / 2.0, 12):
            pts = ellipse_curve(b, thetas)
            span = np.column_stack([[1.0, np.cos(b), np.cos(2 * b)],
                                    [0.0, -np.sin(b), -np.sin(2 * b)]])
            proj = span @ np.linalg.pinv(span)
            residue = pts.T - proj @ pts.T
            assert np.max(np.abs(residue)) < 1e-12


class TestEllipseAxes:
    def test_formulas_on_grid(self):
        for b in np.linspace(0.01, np.pi / 2.0, 50):
            (l1, l2), (d1, d2) = ellipse_axes(b)
            assert abs(l1 - math.sqrt(2.0 + math.cos(2 * b))) < 1e-12
            assert abs(l2 - math.sqrt(1.0 - math.cos(2 * b))) < 1e-12
            assert abs(np.linalg.norm(d1) - 1.0) < 1e-12
            assert abs(np.linalg.norm(d2) - 1.0) < 1e-12

    def test_circle_at_pi_third(self):
        (l1, l2), _ = ellipse_axes(np.pi / 3.0)
        assert l1 == pytest.approx(math.sqrt(1.5), abs=1e-12)
        assert l1 / l2 == pytest.approx(1.0, abs=1e-10)

    def test_right_angle_lengths(self):
        (l1, l2), _ = ellipse_axes(np.pi / 2.0)
        assert l1 == pytest.approx(1.0, abs=1e-12)
        assert l2 == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_minor_axis_vanishes_at_zero(self):
        (_, l2), _ = ellipse_axes(1e-9)
        assert l2 < 1e-8

    def test_degenerate_beta_rejected(self):
        with pytest.raises(ValueError):
            ellipse_axes(0.0)

    def test_axes_match_svd_of_sampled_curve(self):
        # independent check: principal semi-axes of the centered curve via
        # SVD of a dense sampling
        thetas = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        for b in (0.4, 0.9, np.pi / 3.0, 1.3):
            pts = ellipse_curve(b, thetas)
            sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
            sv = sv / math.sqrt(len(thetas) / 2.0)  # RMS -> semi-axis
            (l1, l2), _ = ellipse_axes(b)
            want = np.sort([l1, l2])[::-1]
            np.testing.assert_allclose(sv[:2], want, atol=1e-10)
            assert sv[2] < 1e-10

    def test_minor_axis_monotone_in_beta(self):
        betas = np.linspace(0.01, np.pi / 2.0, 200)
        minors = [ellipse_axes(b)[0][1] for b in betas]
        assert np.all(np.diff(minors) > 0)


class TestEllipseArea:
    def test_maximal_area_value(self):
        assert ellipse_area(np.pi / 3.0) == pytest.approx(1.5 * np.pi, abs=1e-12)

    def test_degenerate_area_zero(self):
        assert ellipse_area(0.0) == 0.0

    def test_argmax_on_fine_grid(self):
        betas = np.arange(0.0, np.pi / 2.0 + 1e-12, 1e-5)
        areas = ellipse_area(betas)
        best = betas[np.argmax(areas)]
        assert abs(best - np.pi / 3.0) < 1e-4

    def test_matches_axis_product(self):
        for b in (0.2, 0.8, 1.2):
            (l1, l2), _ = ellipse_axes(b)
            assert ellipse_area(b) == pytest.approx(np.pi * l1 * l2, rel=1e-12)


class TestDisjointness:
    def test_distinct_beta_curves_never_touch(self):
        thetas = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        betas = [0.3, 0.6, 0.9, 1.2, np.pi / 2.0]
        curves = [ellipse_curve(b, thetas) for b in betas]
        for i in range(len(betas)):
            for j in range(i + 1, len(betas)):
                diff = curves[i][:, None, :] - curves[j][None, :, :]
                dmin = np.sqrt((diff ** 2).sum(axis=2)).min()
                assert dmin > 1e-3, (betas[i], betas[j])


class TestSuggestLag:
    def test_fast_rotation_example(self):
        assert suggest_lag(2.0 * np.pi / 40.0) == 10

    def test_quarter_turn_per_step(self):
        assert suggest_lag(np.pi / 2.0) == 1

    def test_slow_rotation_example(self):
        assert suggest_lag(2.0 * np.pi / 97.3537) == 24

    def test_half_integer_tie_rounds_down(self):
        assert suggest_lag((np.pi / 2.0) / 1.5) == 1
        assert suggest_lag((np.pi / 2.0) / 2.5) == 2

    def test_floor_of_one(self):
        assert suggest_lag(np.pi) == 1

    def test_domain_error(self):
        with pytest.raises(ValueError):
            suggest_lag(0.0)
        with pytest.raises(ValueError):
            suggest_lag(4.0)
