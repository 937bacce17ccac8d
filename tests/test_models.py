import json
import math
from fractions import Fraction

import numpy as np
import pytest

from spectrend.cli import main
from spectrend.models import (
    ModelConfig,
    linear_drift,
    quadratic_drift,
    regime_mask,
    simulate,
    switching_weight,
    tent_map_step,
    write_trajectory,
)


class TestTentMap:
    def test_first_branch(self):
        assert tent_map_step(0.1, 0.1) == pytest.approx(0.2, abs=1e-15)

    def test_middle_branch(self):
        assert tent_map_step(0.5, 0.1) == pytest.approx(0.6, abs=1e-15)

    def test_third_branch(self):
        assert tent_map_step(0.8, 0.1) == pytest.approx(0.6, abs=1e-15)

    def test_right_endpoint_stays_inside(self):
        assert tent_map_step(1.0, 0.3) == pytest.approx(1.0)

    @pytest.mark.parametrize("x", [-0.1, 1.0001, 2.0])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            tent_map_step(x, 0.1)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, 1.5])
    def test_delta_error(self, delta):
        with pytest.raises(ValueError):
            tent_map_step(0.3, delta)

    def test_orbit_stays_in_unit_interval(self):
        x = 0.3721841
        for _ in range(10000):
            x = tent_map_step(x, 7.5e-4)
            assert 0.0 <= x <= 1.0

    def test_measure_preservation_histogram(self):
        # Lebesgue measure is invariant: a long generic orbit fills [0,1]
        # uniformly, 20-bin histogram flat to 3% relative deviation.  The
        # orbit is iterated in exact rational arithmetic: the branches have
        # slope exactly 2, so float64 orbits degenerate into binary-shift
        # lattices whose statistics misrepresent the map.  The state x is
        # a / D over a fixed denominator D that makes 1/4, 1/2, 3/4 and the
        # shift 1/10 integers over D, so every branch keeps a an integer.
        n = 1_000_000
        D = 100000019 * 20
        a = 37218411 * 20                      # x = 37218411 / 100000019
        delta = D // 10
        quarter, half, three_quarter = D // 4, D // 2, 3 * D // 4
        counts = [0] * 20
        for _ in range(n):
            counts[(20 * a) // D] += 1
            if a < quarter:
                a = 2 * a
            elif a < three_quarter:
                a = (delta + 2 * (a - quarter)) % D
            else:
                a = half + 2 * (a - three_quarter)
        rel = np.abs(np.array(counts) / (n / 20) - 1.0)
        assert rel.max() < 0.03

    def test_step_matches_exact_arithmetic(self):
        # single applications agree with the exact-rational evaluation
        rng = np.random.default_rng(7)
        quarter, half, three_quarter = (Fraction(1, 4), Fraction(1, 2),
                                        Fraction(3, 4))
        for xf in rng.random(500):
            x = Fraction(xf)
            delta = Fraction(0.1)
            if x < quarter:
                want = 2 * x
            elif x < three_quarter:
                want = (delta + 2 * (x - quarter)) % 1
            else:
                want = half + 2 * (x - three_quarter)
            assert tent_map_step(float(xf), 0.1) == pytest.approx(float(want), abs=1e-15)


class TestSwitchingWeight:
    def test_symmetry_point(self):
        assert switching_weight(0.5, 40.0) == pytest.approx(0.5, abs=1e-15)

    def test_saturation(self):
        assert switching_weight(1.0, 40.0) == pytest.approx(1.0, abs=1e-15)

    def test_quarter_point_formula(self):
        w = switching_weight(0.25, 40.0)
        assert w == pytest.approx(0.5 * (1.0 + math.tanh(-10.0)), rel=1e-12)
        assert 0.0 < w < 4.2e-9

    def test_monotone(self):
        xs = np.linspace(0, 1, 101)
        ws = switching_weight(xs, 40.0)
        # nondecreasing everywhere (tanh saturates flat in float64 at the
        # tails), strictly increasing through the interface
        assert np.all(np.diff(ws) >= 0)
        mid = (xs > 0.3) & (xs < 0.7)
        assert np.all(np.diff(ws[mid]) > 0)

    def test_bad_sharpness(self):
        with pytest.raises(ValueError):
            switching_weight(0.5, 0.0)


class TestDriftPresets:
    def test_linear_accumulates_to_span(self):
        d0, d1, d2 = linear_drift(1000)
        assert (d1, d2) == (0.0, 0.0)
        assert d0 * 1000 == pytest.approx(10.0)

    def test_quadratic_peaks_then_falls(self):
        n = 1000
        d0, d1, d2 = quadratic_drift(n)
        t = np.arange(n + 1)
        x = np.concatenate([[0.0], np.cumsum(d0 + d1 * t[:-1] + d2 * t[:-1] ** 2)])
        tp = int(0.65 * n)
        assert x[tp] == pytest.approx(10.0, abs=1e-9)
        assert np.all(np.diff(x[:tp]) > 0)
        assert x[-1] < x[tp]
        assert x[-1] > 0


class TestModelConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ModelConfig(kind="Z")

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            ModelConfig(kind="F", delta=1.5)

    def test_rejects_equal_rates(self):
        with pytest.raises(ValueError):
            ModelConfig(kind="F", alpha1=0.1, alpha2=0.1)

    def test_rejects_bad_x0(self):
        with pytest.raises(ValueError):
            ModelConfig(kind="F", x0=1.5)

    def test_rejects_unknown_drift_preset(self):
        with pytest.raises(ValueError):
            ModelConfig(kind="M", drift="cubic")

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            ModelConfig(kind="M", n_steps=0)

    def test_default_kind_is_f(self):
        assert ModelConfig().kind == "F"

    def test_default_lengths(self):
        assert ModelConfig(kind="M").n_steps == 1000
        assert ModelConfig(kind="F").n_steps == 2000

    def test_rejects_non_numeric_rate(self):
        # None would become NaN in the phase sums instead of failing
        with pytest.raises(ValueError, match="alpha must be a number"):
            ModelConfig(kind="M", alpha=None)

    def test_custom_drift_triple(self):
        cfg = ModelConfig(kind="M", drift=(0.1, 0.0, 0.0))
        assert cfg.drift_coefficients() == (0.1, 0.0, 0.0)

    def test_rejects_short_custom_drift(self):
        with pytest.raises(ValueError, match="triple"):
            ModelConfig(kind="M", drift=(0.1, 0.0))

    def test_rejects_zero_sharpness(self):
        with pytest.raises(ValueError, match="sharpness"):
            ModelConfig(kind="F", c=0)

    @pytest.mark.parametrize("model", [
        {"kind": "F", "seed": "a"},
        {"kind": "F", "seed": -1},
        {"kind": "F", "seed": True},
        {"kind": "F", "x0": "0.3"},
        {"kind": "M", "x0": float("inf")},
        {"kind": "M", "drift": 5},
        {"kind": "M", "drift": [1, "a", 3]},
        {"kind": "M", "drift": [1, 2, float("nan")]},
        {"kind": "F", "drift": "cubic"},
        {"kind": "M", "alpha": float("nan")},
        {"kind": "F", "alpha1": float("inf")},
        {"kind": "Fprime", "theta2_0": float("-inf")},
        # finite, but past 2**52 a phase or kind M's drift coordinate is noise
        {"theta0": 1e300},
        {"kind": "M", "x0": 1e300},
        {"alpha1": 1e300},
    ])
    def test_bad_field_exits_2_naming_it(self, tmp_path, capsys, model):
        # JSON NaN and Infinity parse to floats, so they reach ModelConfig
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"source": {"model": {"n_steps": 300, **model}}}))
        assert main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        field = next(key for key in model if key != "kind")
        name = "unknown drift preset" if model[field] == "cubic" else f"{field} must be"
        err = capsys.readouterr().err
        assert err.startswith(f"error [validate] {name}") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("model, field", [
        ({"kind": "M", "theta0": 2.0**52}, "theta0"),
        ({"kind": "A", "alpha": 2.0**52 / 100}, "alpha"),
        ({"kind": "F", "alpha2": -(2.0**52) / 100}, "alpha2"),
        ({"kind": "Fprime", "theta2_0": 2.0**50}, "theta2_0"),    # 2 pi * 2**50 cycles
        ({"kind": "M", "x0": -(2.0**52)}, "x0"),
        ({"kind": "M", "drift": (0.0, 0.0, 2e10)}, "drift"),      # 2e10 * sum(t^2, t < 99)
    ])
    def test_rejects_coordinate_reaching_2_52(self, model, field):
        with pytest.raises(ValueError, match=f"^{field} must be smaller"):
            ModelConfig(n_steps=100, **model)

    @pytest.mark.parametrize("model", [
        {"kind": "M", "theta0": 2.0**51},
        {"kind": "F", "theta0": 2.0**50},
        {"kind": "Fprime", "theta2_0": 2.0**49},
        {"kind": "A", "x0": 1e300, "drift": (0.0, 0.0, 2e10)},    # A's drift only scales
        {"kind": "F", "drift": (0.0, 0.0, 1e300)},                # F has no drift
    ])
    def test_accepts_coordinate_below_2_52(self, model):
        ModelConfig(n_steps=100, **model)

    def test_numpy_scalars_accepted(self):
        plain = ModelConfig(kind="F", n_steps=200, seed=3, x0=0.25, alpha1=0.2)
        numpy = ModelConfig(kind="F", n_steps=200, seed=np.int64(3), x0=np.float64(0.25),
                            alpha1=np.float64(0.2))
        np.testing.assert_array_equal(simulate(numpy).observations, simulate(plain).observations)
        drift = ModelConfig(kind="M", drift=np.array([0.1, 0.0, 0.0]), a=np.int32(2))
        assert drift.drift_coefficients() == (0.1, 0.0, 0.0)

    @pytest.mark.parametrize("field, value", [
        ("alpha1", np.float32(np.inf)), ("a", np.float16(-np.inf)), ("x0", 10**400),
        ("drift", np.array([0.1, np.inf, 0.0], dtype=np.float32)), ("drift", [0, 10**400, 0]),
    ], ids=["float32-alpha1", "float16-a", "int-x0", "float32-drift", "int-drift"])
    def test_value_no_float_holds_rejected(self, field, value):
        # a float32 infinity compares in float32, where float_info.max is
        # infinite too; an int too large for a float makes math.isfinite raise
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ModelConfig(kind="M", **{field: value})


class TestSimulate:
    def test_model_m_initial_observation(self):
        traj = simulate(ModelConfig(kind="M", n_steps=10, x0=0.0, theta0=0.0))
        assert traj.observations[0] == pytest.approx(1.0, abs=1e-15)

    def test_model_a_initial_observation(self):
        traj = simulate(ModelConfig(kind="A", n_steps=10, a=1.0, x0=0.0, theta0=0.0))
        assert traj.observations[0] == pytest.approx(1.0, abs=1e-15)

    def test_model_f_initial_observation(self):
        traj = simulate(ModelConfig(kind="F", n_steps=10, x0=0.3, theta0=0.0))
        assert traj.observations[0] == pytest.approx(1.0, abs=1e-15)

    def test_model_m_linear_drift_path(self):
        n = 1000
        traj = simulate(ModelConfig(kind="M", n_steps=n))
        t = np.arange(n)
        expected = 10.0 * t / n + np.cos(0.1 * t)
        np.testing.assert_allclose(traj.observations, expected, atol=1e-10)

    def test_model_a_amplitude_law(self):
        n = 500
        traj = simulate(ModelConfig(kind="A", n_steps=n, a=1.0))
        t = np.arange(n)
        expected = (1.0 + 10.0 * t / n) * np.cos(0.1 * t)
        np.testing.assert_allclose(traj.observations, expected, atol=1e-10)

    def test_reproducible_bitwise(self):
        cfg = ModelConfig(kind="F", n_steps=500, seed=3)
        a = simulate(cfg)
        b = simulate(cfg)
        assert np.array_equal(a.observations, b.observations)
        assert np.array_equal(a.states, b.states)

    def test_f_states_stay_in_unit_interval(self):
        traj = simulate(ModelConfig(kind="F", n_steps=5000, seed=1))
        assert np.all(traj.x >= 0.0) and np.all(traj.x <= 1.0)

    def test_fprime_states_and_observation_bounds(self):
        traj = simulate(ModelConfig(kind="Fprime", n_steps=3000, seed=2))
        assert np.all(traj.x >= 0.0) and np.all(traj.x <= 1.0)
        assert np.max(np.abs(traj.observations)) <= 1.0 + 1e-12

    def test_fprime_initial_observation_is_one(self):
        traj = simulate(ModelConfig(kind="Fprime", n_steps=10, x0=0.7,
                                    theta0=0.0, theta2_0=0.0))
        # both phases start at 0, so any blend of the two cosines is 1
        assert traj.observations[0] == pytest.approx(1.0, abs=1e-15)

    def test_phase_increments_two_valued_away_from_interface(self):
        cfg = ModelConfig(kind="F", n_steps=4000, seed=0)
        traj = simulate(cfg)
        dtheta = np.diff(traj.states[:, 1])
        x = traj.x[:-1]
        gap = abs(cfg.alpha1 - cfg.alpha2)
        dev = np.minimum(np.abs(dtheta - cfg.alpha1), np.abs(dtheta - cfg.alpha2))
        # far from the interface the increment is essentially one of the two
        # rates; the tanh profile bounds the deviation by its value at the
        # zone edge
        wide = (x <= 0.25) | (x >= 0.75)
        assert np.all(dev[wide] <= gap * 0.5 * (1.0 + math.tanh(-cfg.c / 4.0)) + 1e-15)
        narrow = (x <= 0.45) | (x >= 0.55)
        assert np.all(dev[narrow] <= gap * 0.5 * (1.0 + math.tanh(-cfg.c * 0.05)) + 1e-15)

    def test_regime_residence_statistics(self):
        # the per-step probability of crossing x=1/2 is about delta, so mean
        # residence time is about 1/delta; Monte-Carlo over 100 seeds
        delta = 7.5e-4
        steps_per_run = 15000
        crossings = 0
        total = 0
        for seed in range(100):
            x = float(np.random.default_rng(seed).random())
            prev_side = x > 0.5
            for _ in range(steps_per_run):
                x = tent_map_step(x, delta)
                side = x > 0.5
                crossings += side != prev_side
                prev_side = side
            total += steps_per_run
        mean_residence = total / crossings
        assert 1333 * 0.7 < mean_residence < 1333 * 1.3
        assert crossings / total == pytest.approx(delta, rel=0.3)

    def test_regime_mask_matches_states(self):
        # seed 11 is known to visit both regimes within 2000 steps
        traj = simulate(ModelConfig(kind="F", n_steps=2000, seed=11))
        mask = regime_mask(traj)
        assert np.array_equal(mask, traj.x > 0.5)
        assert mask.any() and (~mask).any()

    @pytest.mark.parametrize("kind", ["M", "A", "Fprime"])
    def test_phases_equal_stepwise_sums(self, kind):
        cfg = ModelConfig(kind=kind, n_steps=3000, seed=2, theta0=0.3, theta2_0=-1.7)
        starts_incs = ([(cfg.theta0, cfg.alpha)] if kind != "Fprime" else
                       [(cfg.theta0, cfg.alpha1 / (2.0 * math.pi)),
                        (cfg.theta2_0, cfg.alpha2 / (2.0 * math.pi))])
        states = simulate(cfg).states
        for col, (phase, inc) in enumerate(starts_incs, start=1):
            expected = []
            for _ in range(cfg.n_steps):
                expected.append(phase)
                phase = phase + inc
            np.testing.assert_array_equal(states[:, col], expected)

    def test_regime_mask_rejects_drift_kinds(self):
        traj = simulate(ModelConfig(kind="M", n_steps=50))
        with pytest.raises(ValueError):
            regime_mask(traj)


class TestTrajectoryExport:
    def test_roundtrip(self, tmp_path):
        traj = simulate(ModelConfig(kind="F", n_steps=64, seed=9))
        series = tmp_path / "series.txt"
        meta = tmp_path / "series.meta.json"
        write_trajectory(traj, series, meta)
        loaded = np.loadtxt(series)
        assert loaded.shape == (64, 2)
        np.testing.assert_allclose(loaded[:, 1], traj.observations, rtol=0, atol=0)
        assert meta.exists()
