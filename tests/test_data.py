import math

import numpy as np
import pytest

from spectrend.data import (
    FieldMask,
    NonuniformRecord,
    TimeSeries,
    anomalies,
    benthic_fixture_path,
    interpolate_uniform,
    load_benthic_fixture,
    load_field_stack,
    load_scalar_record,
    reverse_time,
    scatter_back,
)
from spectrend.embed import delay_embed


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestLoadScalarRecord:
    def test_three_line_file(self, tmp_path):
        p = tmp_path / "rec.txt"
        write_lines(p, ["0 3.2", "1 3.3", "2.5 3.1"])
        rec = load_scalar_record(p)
        np.testing.assert_array_equal(rec.times, [0.0, 1.0, 2.5])
        np.testing.assert_array_equal(rec.values, [3.2, 3.3, 3.1])

    def test_header_rows_skipped(self, tmp_path):
        p = tmp_path / "rec.txt"
        write_lines(p, ["age value err", "0 3.2", "1 3.3"])
        rec = load_scalar_record(p, header_rows=1)
        np.testing.assert_array_equal(rec.times, [0.0, 1.0])

    def test_comment_lines_skipped(self, tmp_path):
        p = tmp_path / "rec.txt"
        write_lines(p, ["# a comment", "0 3.2", "# another", "1 3.3"])
        rec = load_scalar_record(p)
        assert len(rec.times) == 2

    def test_extra_columns_ignored(self, tmp_path):
        p = tmp_path / "rec.txt"
        write_lines(p, ["0 3.2 0.03", "1 3.3 0.04"])
        rec = load_scalar_record(p)
        np.testing.assert_array_equal(rec.values, [3.2, 3.3])

    def test_unsorted_times_sorted_with_warning(self, tmp_path):
        p = tmp_path / "rec.txt"
        write_lines(p, ["1 3.3", "0 3.2", "2 3.1"])
        with pytest.warns(UserWarning, match="sorting"):
            rec = load_scalar_record(p)
        np.testing.assert_array_equal(rec.times, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(rec.values, [3.2, 3.3, 3.1])

    def test_parse_error_reports_line_number(self, tmp_path):
        p = tmp_path / "rec.txt"
        write_lines(p, ["0 3.2", "1 oops", "2 3.1"])
        with pytest.raises(ValueError, match="line 2"):
            load_scalar_record(p)

    def test_duplicate_times_rejected(self, tmp_path):
        p = tmp_path / "rec.txt"
        write_lines(p, ["0 3.2", "1 3.3", "1 3.4"])
        with pytest.raises(ValueError, match=r"duplicate time 1\.0 after sorting"):
            load_scalar_record(p)

    @pytest.mark.parametrize("cols, named", [({"value_col": 4}, "value_col 4"),
                                             ({"time_col": 2}, "time_col 2")])
    def test_missing_column_is_named(self, tmp_path, cols, named):
        p = tmp_path / "rec.txt"
        write_lines(p, ["0 3.2", "1 3.3"])
        with pytest.raises(ValueError, match=f"line 1 has 2 column\\(s\\), so no {named} "):
            load_scalar_record(p, **cols)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "rec.txt"
        write_lines(p, ["# only a comment"])
        with pytest.raises(ValueError, match="no data"):
            load_scalar_record(p)

    def test_column_selection(self, tmp_path):
        p = tmp_path / "rec.txt"
        write_lines(p, ["a 0 9 3.2", "b 1 9 3.3"])
        rec = load_scalar_record(p, time_col=1, value_col=3)
        np.testing.assert_array_equal(rec.times, [0.0, 1.0])
        np.testing.assert_array_equal(rec.values, [3.2, 3.3])


class TestNonuniformRecord:
    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError, match="increasing"):
            NonuniformRecord(times=[0.0, 1.0, 1.0], values=[1.0, 2.0, 3.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            NonuniformRecord(times=[0.0, 1.0], values=[1.0])


class TestInterpolateUniform:
    def test_linear_between_knots(self):
        rec = NonuniformRecord(times=[0.0, 2.0], values=[0.0, 2.0])
        series = interpolate_uniform(rec, 1.0, 0.0, 2.0)
        np.testing.assert_allclose(series.samples, [0.0, 1.0, 2.0])
        assert series.t0 == 0.0 and series.dt == 1.0

    def test_exact_at_knots(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        v = np.array([5.0, -1.0, 2.0, 0.5])
        series = interpolate_uniform(NonuniformRecord(t, v), 1.0, 0.0, 3.0)
        np.testing.assert_array_equal(series.samples, v)

    def test_piecewise_linear_record_reproduced(self):
        # refining a piecewise-linear record is exact
        t = np.array([0.0, 1.0, 3.0, 6.0])
        v = np.array([1.0, 3.0, -1.0, 2.0])
        series = interpolate_uniform(NonuniformRecord(t, v), 0.25, 0.0, 6.0)
        want = np.interp(series.times, t, v)
        np.testing.assert_array_equal(series.samples, want)

    def test_sample_count_on_divisible_span(self):
        t = np.linspace(0.0, 3000.0, 1200)
        v = np.sin(t / 100.0)
        series = interpolate_uniform(NonuniformRecord(t, v), 1.0, 0.0, 3000.0)
        assert len(series) == 3001

    def test_non_divisible_span_floors(self):
        rec = NonuniformRecord(times=[0.0, 10.0], values=[0.0, 10.0])
        series = interpolate_uniform(rec, 3.0, 0.0, 10.0)
        np.testing.assert_allclose(series.times, [0.0, 3.0, 6.0, 9.0])

    def test_extrapolation_rejected(self):
        rec = NonuniformRecord(times=[0.0, 2.0], values=[0.0, 2.0])
        with pytest.raises(ValueError, match="extrapolation"):
            interpolate_uniform(rec, 1.0, -1.0, 2.0)
        with pytest.raises(ValueError, match="extrapolation"):
            interpolate_uniform(rec, 1.0, 0.0, 2.5)

    def test_bad_dt(self):
        rec = NonuniformRecord(times=[0.0, 2.0], values=[0.0, 2.0])
        with pytest.raises(ValueError):
            interpolate_uniform(rec, 0.0, 0.0, 2.0)
        # a non-finite bound is named, not diagnosed as a grid size or support
        for name, bounds in [("dt", (math.nan, 0.0, 2.0)), ("dt", (math.inf, 0.0, 2.0)),
                             ("t_start", (1.0, math.nan, 2.0)), ("t_end", (1.0, 0.0, math.nan)),
                             ("t_start", (1.0, -math.inf, 2.0)), ("t_end", (1.0, 0.0, math.inf))]:
            with pytest.raises(ValueError, match=rf"^{name} must be finite, got "):
                interpolate_uniform(rec, *bounds)

    def test_end_before_start_rejected(self):
        rec = NonuniformRecord(times=[0.0, 1000.0], values=[0.0, 2.0])
        with pytest.raises(ValueError, match="t_end=100.0 lies before t_start=500.0"):
            interpolate_uniform(rec, 1.0, 500.0, 100.0)
        # a bound read off the record is a NumPy scalar; it prints as a number
        with pytest.raises(ValueError, match=r"^t_end=1000\.0 lies before t_start=1e\+300$"):
            interpolate_uniform(rec, 1.0, 1e300, rec.times[-1])
        assert len(interpolate_uniform(rec, 1.0, 500.0, 500.0)) == 1

    def test_oversized_grid_rejected_before_allocating(self, monkeypatch):
        record = load_scalar_record(benthic_fixture_path())

        def no_grid(*args, **kwargs):
            raise AssertionError("np.arange reached")

        monkeypatch.setattr(np, "arange", no_grid)
        with pytest.raises(ValueError, match=r"grid of 3e\+09 points at dt=1e-06"):
            interpolate_uniform(record, 1e-6, 0.0, 3000.0)

    def test_fine_grid_within_limit_accepted(self):
        # about 7 grid points per record sample
        record = load_scalar_record(benthic_fixture_path())
        series = interpolate_uniform(record, 0.25, 0.0, 3000.0)
        assert len(series) == 12001
        np.testing.assert_array_equal(series.samples[::4],
                                      np.interp(np.arange(3001.0), record.times, record.values))


class TestReverseTime:
    def test_flip(self):
        series = TimeSeries(samples=np.array([1.0, 2.0, 3.0]), dt=1.0, t0=0.0)
        rev = reverse_time(series)
        np.testing.assert_array_equal(rev.samples, [3.0, 2.0, 1.0])
        assert rev.t0 == -2.0
        np.testing.assert_array_equal(rev.times, [-2.0, -1.0, 0.0])

    def test_involution(self):
        series = TimeSeries(samples=np.arange(5.0), dt=2.0, t0=4.0)
        back = reverse_time(reverse_time(series))
        np.testing.assert_array_equal(back.samples, series.samples)
        assert back.t0 == pytest.approx(series.t0)


class TestBenthicFixture:
    def test_shape_and_axis(self):
        series = load_benthic_fixture()
        assert len(series) == 3001
        assert series.dt == 1.0
        assert series.t0 == -3000.0
        assert series.times[-1] == 0.0

    def test_plausible_isotope_values(self):
        series = load_benthic_fixture()
        assert 1.5 < series.samples.min() < series.samples.max() < 5.5

    def test_runs_forward_in_time(self):
        # heavier (colder) values dominate late (recent) times
        series = load_benthic_fixture()
        early = series.samples[:500].mean()
        late = series.samples[-500:].mean()
        assert late > early


def write_stack(path, snapshots, ny, nx, sentinel=-999.0):
    lines = [f"{ny} {nx} {sentinel}"]
    for snap in snapshots:
        grid = np.asarray(snap, dtype=float).reshape(ny, nx)
        for row in grid:
            lines.append(" ".join(f"{v}" for v in row))
    write_lines(path, lines)


class TestFieldStack:
    def test_embedded_field_is_c_ordered(self, tmp_path):
        # the kept-cell gather is column-strided; distances over strided
        # delay vectors run several times slower
        p = tmp_path / "stack.txt"
        snaps = np.arange(48.0).reshape(12, 4)
        snaps[:, 2] = -999.0
        write_stack(p, snaps, 2, 2)
        series, _mask = load_field_stack(p)
        for Q in (1, 2):
            assert delay_embed(series, Q=Q, ell=1).points.flags.c_contiguous

    def test_sentinel_cell_dropped(self, tmp_path):
        p = tmp_path / "stack.txt"
        snaps = [[1.0, 2.0, 3.0, -999.0], [5.0, 6.0, 7.0, -999.0]]
        write_stack(p, snaps, 2, 2)
        series, mask = load_field_stack(p)
        assert series.samples.shape == (2, 3)
        np.testing.assert_array_equal(mask.kept, [0, 1, 2])
        assert mask.shape == (2, 2)

    def test_intermittent_missing_dropped_everywhere(self, tmp_path):
        p = tmp_path / "stack.txt"
        snaps = [[1.0, 2.0, 3.0, 4.0], [5.0, -999.0, 7.0, 8.0]]
        write_stack(p, snaps, 2, 2)
        series, mask = load_field_stack(p)
        assert series.samples.shape == (2, 3)
        np.testing.assert_array_equal(mask.kept, [0, 2, 3])

    def test_no_sentinels_keeps_full_grid(self, tmp_path):
        p = tmp_path / "stack.txt"
        snaps = [np.arange(6.0), np.arange(6.0) + 10]
        write_stack(p, snaps, 2, 3)
        series, mask = load_field_stack(p)
        assert series.samples.shape == (2, 6)
        assert mask.n_kept == 6

    def test_grid_mismatch_rejected(self, tmp_path):
        p = tmp_path / "stack.txt"
        write_lines(p, ["2 2 -999.0", "1 2", "3 4", "5 6"])
        with pytest.raises(ValueError, match="grid"):
            load_field_stack(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "stack.txt"
        write_lines(p, ["2 2", "1 2", "3 4"])
        with pytest.raises(ValueError, match="header must be 'ny nx sentinel'"):
            load_field_stack(p)

    def test_no_surviving_gridpoint_rejected(self, tmp_path):
        p = tmp_path / "stack.txt"
        snaps = [[-999.0, 1.0, 2.0, 3.0], [4.0, -999.0, 5.0, 6.0], [7.0, 8.0, -999.0, -999.0]]
        write_stack(p, snaps, 2, 2)
        with pytest.raises(ValueError, match="every gridpoint equals the sentinel -999.0"):
            load_field_stack(p)

    def test_nan_sentinel_drops_nan_cells(self, tmp_path):
        p = tmp_path / "stack.txt"
        snaps = [[1.0, 2.0, 3.0, 4.0], [5.0, np.nan, 7.0, 8.0]]
        write_stack(p, snaps, 2, 2, sentinel=np.nan)
        series, mask = load_field_stack(p)
        np.testing.assert_array_equal(mask.kept, [0, 2, 3])
        np.testing.assert_array_equal(series.samples, [[1.0, 3.0, 4.0], [5.0, 7.0, 8.0]])

    @pytest.mark.parametrize("sentinel, bad", [
        (-999.0, np.nan), (-999.0, np.inf), (np.nan, -np.inf)])
    def test_other_non_finite_cell_rejected(self, tmp_path, sentinel, bad):
        p = tmp_path / "stack.txt"
        snaps = [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, bad]]
        write_stack(p, snaps, 2, 2, sentinel=sentinel)
        with pytest.raises(ValueError, match=f"non-finite value {bad} in snapshot 1, "
                                             "row 1, column 1"):
            load_field_stack(p)

    def test_sentinel_override(self, tmp_path):
        p = tmp_path / "stack.txt"
        snaps = [[1.0, 0.0, 3.0, 4.0]]
        write_stack(p, snaps, 2, 2, sentinel=-999.0)
        series, mask = load_field_stack(p, sentinel=0.0)
        assert mask.n_kept == 3

    def test_scatter_back_roundtrip(self, tmp_path):
        p = tmp_path / "stack.txt"
        snaps = [[1.0, 2.0, -999.0, 4.0], [5.0, 6.0, -999.0, 8.0]]
        write_stack(p, snaps, 2, 2)
        series, mask = load_field_stack(p)
        grid = scatter_back(series.samples[0], mask, fill=0.0)
        np.testing.assert_array_equal(grid, [[1.0, 2.0], [0.0, 4.0]])
        stack = scatter_back(series.samples, mask)
        assert stack.shape == (2, 2, 2)
        assert np.isnan(stack[:, 1, 0]).all()
        np.testing.assert_array_equal(stack[1, 1, 1], 8.0)

    def test_scatter_back_shape_guard(self):
        mask = FieldMask(shape=(2, 2), kept=np.array([0, 1]))
        with pytest.raises(ValueError):
            scatter_back(np.ones(3), mask)


class TestAnomalies:
    def test_constant_series_zeroed(self):
        series = TimeSeries(samples=np.full(48, 7.0))
        out = anomalies(series, (0, 48), 12)
        np.testing.assert_allclose(out.samples, 0.0, atol=1e-15)

    def test_periodic_series_zeroed_over_whole_cycles(self):
        phase = np.arange(120) % 12
        series = TimeSeries(samples=np.sin(2 * np.pi * phase / 12.0))
        out = anomalies(series, (0, 60), 12)
        np.testing.assert_allclose(out.samples, 0.0, atol=1e-12)

    def test_trend_plus_cycle_closed_form(self):
        n, cycle = 96, 12
        j = np.arange(n)
        periodic = np.cos(2 * np.pi * j / cycle)
        trend = 0.25 * j
        series = TimeSeries(samples=periodic + trend)
        lo, hi = 0, 48
        out = anomalies(series, (lo, hi), cycle)
        expected = np.empty(n)
        for p in range(cycle):
            sel = j[(j % cycle == p) & (j >= lo) & (j < hi)]
            mean = (periodic[sel] + trend[sel]).mean()
            expected[j % cycle == p] = (periodic + trend)[j % cycle == p] - mean
        np.testing.assert_allclose(out.samples, expected, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        series = TimeSeries(samples=rng.standard_normal(72))
        once = anomalies(series, (0, 36), 12)
        twice = anomalies(once, (0, 36), 12)
        np.testing.assert_allclose(twice.samples, once.samples, atol=1e-12)

    def test_componentwise_on_fields(self):
        rng = np.random.default_rng(4)
        series = TimeSeries(samples=rng.standard_normal((48, 5)))
        out = anomalies(series, (0, 24), 12)
        assert out.samples.shape == (48, 5)
        ref = anomalies(TimeSeries(samples=series.samples[:, 2]), (0, 24), 12)
        np.testing.assert_allclose(out.samples[:, 2], ref.samples, atol=1e-14)

    def test_window_validation(self):
        series = TimeSeries(samples=np.ones(24))
        with pytest.raises(ValueError, match="window"):
            anomalies(series, (0, 30), 12)
        with pytest.raises(ValueError, match="window"):
            anomalies(series, (-2, 10), 12)
        with pytest.raises(ValueError, match="cycle"):
            anomalies(series, (0, 24), 0)
        with pytest.raises(ValueError, match="shorter"):
            anomalies(series, (0, 6), 12)


class TestTimeSeries:
    def test_times_axis(self):
        series = TimeSeries(samples=np.zeros(4), dt=0.5, t0=2.0)
        np.testing.assert_allclose(series.times, [2.0, 2.5, 3.0, 3.5])

    def test_dt_validation(self):
        for dt, t0, bad in [(0.0, 0.0, "dt"), (math.nan, 0.0, "dt"), (math.inf, 0.0, "dt"),
                            (1.0, math.nan, "t0"), (1.0, -math.inf, "t0")]:
            with pytest.raises(ValueError, match=f"{bad} must be"):
                TimeSeries(samples=np.zeros(4), dt=dt, t0=t0)
        # samples of any rank but 1 and 2 are rejected, naming their shape
        for samples, shape in [(5.0, r"\(\)"), (np.zeros((10, 2, 2)), r"\(10, 2, 2\)")]:
            with pytest.raises(ValueError, match=r"shape \(N,\) or \(N, d\), got " + shape):
                TimeSeries(samples)

    def test_integer_dt_and_t0_give_float_times(self):
        series = TimeSeries(samples=np.zeros(3), dt=2, t0=10)
        assert series.times.dtype == np.float64
        np.testing.assert_array_equal(series.times, [10.0, 12.0, 14.0])
