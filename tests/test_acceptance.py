"""End-to-end acceptance suite: seven criteria, one pass/fail line each.

The lines print through the capture bypass so they always show up in the
terminal log, including under plain ``pytest -v``.  Every criterion also
enforces its runtime budget.
"""

import contextlib
import time

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from spectrend.data import load_benthic_fixture, load_field_stack, scatter_back
from spectrend.embed import delay_embed, ellipse_area, ellipse_axes, ellipse_curve
from spectrend.models import ModelConfig, regime_mask, simulate
from spectrend.operator import build_operator, eigendecompose, knn_bandwidths
from spectrend.spectral import (
    affine_scale,
    conjugate_closure,
    eigenperiod,
    nearest_pair,
    project,
    regime_localization,
    trend_mode,
)
from test_operator import dense_calls  # noqa: F401  (fixture)


@contextlib.contextmanager
def criterion(capsys, num, label, budget):
    """Time a criterion body and print its one-line verdict."""
    t0 = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - t0
        status = "PASS" if not failed and elapsed < budget else "FAIL"
        with capsys.disabled():
            print(f"\ncriterion {num} [{label}]: {status}"
                  f" ({elapsed:.1f}s, limit {budget:g}s)")
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, limit {budget}s"


def note(capsys, text):
    with capsys.disabled():
        print(text)


def moving_average(values, window):
    half = window // 2
    n = len(values)
    out = np.empty(n)
    for i in range(n):
        out[i] = values[max(0, i - half):min(n, i + half + 1)].mean()
    return out


def rows_of(traj, emb, n_rows):
    """Observation series and fast-regime mask aligned to operator rows."""
    return emb.align(traj.observations, n_rows), emb.align(regime_mask(traj), n_rows)


def test_criterion_1_ellipse_geometry(capsys):
    with criterion(capsys, 1, "delay-embedding ellipse geometry", 1.0):
        betas = np.linspace(1e-6, np.pi / 2.0, 4001)
        for b in betas[:: 40]:
            (l1, l2), (d1, d2) = ellipse_axes(b)
            assert abs(l1 - np.sqrt(2.0 + np.cos(2 * b))) < 1e-12
            assert abs(l2 - np.sqrt(1.0 - np.cos(2 * b))) < 1e-12
            assert abs(d1 @ d2) < 1e-12  # principal axes are orthogonal
        # independent oracle: SVD semi-axes of a densely sampled curve
        thetas = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
        for b in (0.5, np.pi / 3.0, 1.4):
            pts = ellipse_curve(b, thetas)
            sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
            sv /= np.sqrt(len(thetas) / 2.0)
            (l1, l2), _ = ellipse_axes(b)
            np.testing.assert_allclose(sv[:2], np.sort([l1, l2])[::-1], atol=1e-10)
        # area argmax on a 1e-5 grid sits at pi/3
        grid = np.arange(0.0, np.pi / 2.0 + 1e-12, 1e-5)
        areas = ellipse_area(grid)
        assert abs(grid[np.argmax(areas)] - np.pi / 3.0) < 1e-4
        # circle condition at pi/3
        (l1, l2), _ = ellipse_axes(np.pi / 3.0)
        assert abs(l1 / l2 - 1.0) < 1e-10
        # curves of distinct beta stay apart
        thetas = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        bs = [0.3, 0.6, 0.9, 1.2, np.pi / 2.0]
        curves = [ellipse_curve(b, thetas) for b in bs]
        for i in range(len(bs)):
            for j in range(i + 1, len(bs)):
                assert cdist(curves[i], curves[j]).min() > 1e-3


def test_criterion_2_operator_properties(capsys):
    with criterion(capsys, 2, "Markov operator property suite", 10.0):
        traj = simulate(ModelConfig(kind="F", n_steps=500, seed=6))
        emb = delay_embed(traj.observations, Q=3, ell=10)
        op = build_operator(emb, 1, 8)
        assert np.all(op.P >= 0.0)
        np.testing.assert_allclose(op.P.sum(axis=1), 1.0, atol=1e-12)
        dec = eigendecompose(op, 12)
        assert abs(dec.eigenvalues[0] - 1.0) < 1e-10
        v1 = dec.right_vectors[:, 0]
        assert np.max(np.abs(v1 - v1.mean())) < 1e-8
        for j in range(dec.n_modes):
            lam = dec.eigenvalues[j]
            if abs(lam.imag) > 1e-10:
                k = dec.pair_index[j]
                assert k >= 0 and abs(dec.eigenvalues[k] - np.conj(lam)) < 1e-10
        assert np.all(dec.residuals < 1e-8)
        assert np.all(dec.dual_residuals < 1e-8)
        # kNN oracle equivalence on 100 random points
        pts = np.random.default_rng(0).random((100, 3))
        brute = np.sort(cdist(pts, pts), axis=1)[:, 5]
        np.testing.assert_array_equal(knn_bandwidths(pts, 5), brute)
        # projection idempotence and cross-annihilation
        h, _ = rows_of(traj, emb, op.n)
        pair = conjugate_closure(dec, [2])
        once = project(dec, pair, h).series
        twice = project(dec, pair, once).series
        assert np.max(np.abs(twice - once)) < 1e-8
        others = tuple(i for i in range(1, dec.n_modes + 1) if i not in pair)
        cross = project(dec, others, once).series
        assert np.max(np.abs(cross)) < 1e-8 * max(1.0, np.max(np.abs(once)))


def test_criterion_3_pure_rotation_oracle(capsys):
    with criterion(capsys, 3, "pure-rotation frequency recovery", 30.0):
        h = np.cos(np.arange(2000) * 2.0 * np.pi / 40.0)
        emb = delay_embed(h, Q=3, ell=10)
        dec = eigendecompose(build_operator(emb, 1, 15), 5)
        want = 2.0 * np.pi / 40.0
        got = abs(np.angle(dec.eigenvalues[1]))
        note(capsys, f"  arg(lambda_2)={got:.10f} target={want:.10f} "
                     f"rel err={abs(got - want) / want:.2e}")
        assert abs(got - want) <= 0.02 * want


def test_criterion_4_switching_frequency_reproduction(capsys, dense_calls):  # noqa: F811
    # stochastic x0 => 5 seeded runs, at least 4 must satisfy all checks;
    # run length 3000 keeps the expected no-switch probability near 10%
    with criterion(capsys, 4, "switching-run frequency extraction", 120.0):
        passed = 0
        for seed in range(5):
            traj = simulate(ModelConfig(kind="F", n_steps=3000, seed=seed))
            emb = delay_embed(traj.observations, Q=3, ell=10)
            op = build_operator(emb, 1, 25)
            dec = eigendecompose(op, 24)
            h, fast = rows_of(traj, emb, op.n)
            j40 = nearest_pair(dec, 40.0)
            j97 = nearest_pair(dec, 97.3537)
            p40 = eigenperiod(dec.eigenvalues[j40 - 1], dec.s, dec.dt)
            p97 = eigenperiod(dec.eigenvalues[j97 - 1], dec.s, dec.dt)
            m40 = abs(dec.eigenvalues[j40 - 1])
            m97 = abs(dec.eigenvalues[j97 - 1])
            loc40 = regime_localization(
                project(dec, conjugate_closure(dec, [j40]), h).series, fast)
            loc97 = regime_localization(
                project(dec, conjugate_closure(dec, [j97]), h).series, ~fast)
            ok = (abs(p40 - 40.0) <= 0.05 * 40.0
                  and abs(p97 - 97.35) <= 0.05 * 97.35
                  and m40 > 0.97 and m97 > 0.97
                  and loc40 > 2.0 and loc97 > 2.0)
            passed += ok
            note(capsys, f"  seed {seed}: p40={p40:.2f} p97={p97:.2f} "
                         f"|l40|={m40:.4f} |l97|={m97:.4f} "
                         f"loc40={loc40:.1f} loc97={loc97:.1f}"
                         f" -> {'ok' if ok else 'MISS'}")
        note(capsys, f"  {passed}/5 seeds passed (need >= 4)")
        assert passed >= 4
        # the benchmark's switching_F runs this solve; it never needs the dense eig
        assert dense_calls == []


def test_criterion_5_drift_trend_recovery(capsys):
    with criterion(capsys, 5, "drifting-helix trend recovery", 60.0):
        # mean drift, linear law
        n = 2000
        traj = simulate(ModelConfig(kind="M", n_steps=n, drift="linear"))
        emb = delay_embed(traj.observations, Q=3, ell=16)
        op = build_operator(emb, 1, 15)
        dec = eigendecompose(op, 8)
        jt, mode = trend_mode(dec)
        truth = emb.align(traj.x, op.n)
        _, _, scaled = affine_scale(mode, truth)
        r_lin = np.corrcoef(scaled, truth)[0, 1]
        lam_lin = dec.eigenvalues[jt - 1].real

        # mean drift, rise-then-fall law
        traj = simulate(ModelConfig(kind="M", n_steps=n, drift="quadratic"))
        emb = delay_embed(traj.observations, Q=3, ell=16)
        op = build_operator(emb, 1, 15)
        dec = eigendecompose(op, 8)
        jt, mode = trend_mode(dec)
        truth = emb.align(traj.x, op.n)
        _, _, scaled = affine_scale(mode, truth)
        r_quad = np.corrcoef(scaled, truth)[0, 1]

        # amplitude drift: trend plus the rotation rate off the leading pair
        traj = simulate(ModelConfig(kind="A", n_steps=n, a=1.0))
        emb = delay_embed(traj.observations, Q=2, ell=16)
        op = build_operator(emb, 1, 15)
        dec = eigendecompose(op, 8)
        jt, mode = trend_mode(dec)
        truth = 1.0 + emb.align(traj.x, op.n)
        _, _, scaled = affine_scale(mode, truth)
        r_amp = np.corrcoef(scaled, truth)[0, 1]
        j_pair = nearest_pair(dec, 2.0 * np.pi / 0.1)
        rate = abs(np.angle(dec.eigenvalues[j_pair - 1])) / dec.s
        pair_lam = dec.eigenvalues[j_pair - 1]

        note(capsys, f"  mean drift linear:    |r|={abs(r_lin):.4f}"
                     f" (lambda_trend={lam_lin:.4f})")
        note(capsys, f"  mean drift quadratic: |r|={abs(r_quad):.4f}")
        note(capsys, f"  amplitude drift:      |r|={abs(r_amp):.4f}"
                     f" rotation={rate:.5f}"
                     f" (pair {pair_lam.real:.4f}{pair_lam.imag:+.4f}i)")
        assert abs(r_lin) > 0.95
        assert abs(r_quad) > 0.95
        assert abs(r_amp) > 0.95
        assert abs(rate - 0.1) <= 0.02 * 0.1


def test_criterion_6_isotope_stack_reproduction(capsys, dense_calls):  # noqa: F811
    with criterion(capsys, 6, "isotope-stack glaciation cycles", 120.0):
        series = load_benthic_fixture()
        emb = delay_embed(series, Q=5, ell=10)
        op = build_operator(emb, 7, 7)
        dec = eigendecompose(op, 12)
        lam2 = dec.eigenvalues[1]
        assert abs(lam2.imag) < 1e-10
        assert abs(lam2.real - 0.9632) <= 0.02

        j100 = nearest_pair(dec, 98.64)
        j41 = nearest_pair(dec, 40.78)
        p100 = eigenperiod(dec.eigenvalues[j100 - 1], dec.s, dec.dt)
        p41 = eigenperiod(dec.eigenvalues[j41 - 1], dec.s, dec.dt)
        assert abs(p100 - 98.64) <= 3.0
        assert abs(p41 - 40.78) <= 2.0

        h = emb.align(series.samples, op.n)
        jt, mode = trend_mode(dec)
        r_trend = np.corrcoef(mode, moving_average(h, 300))[0, 1]
        assert r_trend > 0.9

        ages = -emb.align(series.times, op.n)  # kyr before present
        pr100 = project(dec, conjugate_closure(dec, [j100]), h).series
        pr41 = project(dec, conjugate_closure(dec, [j41]), h).series
        loc100 = regime_localization(pr100, ages <= 1500.0)
        loc41 = regime_localization(pr41, ages >= 2000.0)
        note(capsys, f"  lambda_2={lam2.real:.4f} p100={p100:.2f} p41={p41:.2f} "
                     f"r_trend={r_trend:.3f} loc100={loc100:.1f} loc41={loc41:.1f}")
        assert loc100 > 1.5
        assert loc41 > 1.5
        # the benchmark's benthic runs this solve; it never needs the dense eig
        assert dense_calls == []


def test_criterion_7_field_ingestion_substitute(capsys):
    # the published gridded-field eigenvalue needs full reanalysis data and
    # is not reproducible at desk scale; the agreed substitute is the field
    # ingestion round-trip plus componentwise projection realness on a
    # synthetic 10x10 stack
    with criterion(capsys, 7, "field-stack round-trip and projection realness", 60.0):
        ny = nx = 10
        n_t = 240
        yy, xx = np.mgrid[0:ny, 0:nx]
        phase = 0.3 * yy + 0.15 * xx
        t = np.arange(n_t)[:, None, None]
        field = (np.sin(2.0 * np.pi * t / 12.0 + phase)
                 + 0.01 * t * np.exp(-((yy - 5) ** 2 + (xx - 5) ** 2) / 20.0))
        sentinel = -999.0
        field[:, 0, 0] = sentinel
        field[:, 7, 3] = sentinel
        import tempfile, os
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "stack.txt")
            with open(path, "w") as f:
                f.write(f"{ny} {nx} {sentinel}\n")
                for snap in field:
                    for row in snap:
                        f.write(" ".join(f"{v:.17e}" for v in row) + "\n")
            series, mask = load_field_stack(path)
        assert series.samples.shape == (n_t, ny * nx - 2)
        back = scatter_back(series.samples, mask, fill=sentinel)
        np.testing.assert_array_equal(back, field)  # identity incl. sentinels

        emb = delay_embed(series, Q=2, ell=3)
        op = build_operator(emb, 1, 8)
        dec = eigendecompose(op, 10)
        target = emb.align(series.samples, op.n)
        idx = conjugate_closure(dec, range(1, dec.n_modes + 1))
        proj = project(dec, idx, target)
        assert proj.realness
        assert proj.series.shape == target.shape
        # the discarded imaginary residue is negligible componentwise
        V = dec.right_vectors[:, [i - 1 for i in idx]]
        W = dec.dual_vectors[:, [i - 1 for i in idx]]
        raw = V @ (W.conj().T @ target)
        assert np.max(np.abs(raw.imag)) < 1e-10 * max(1e-30, np.max(np.abs(raw.real)))
        note(capsys, f"  kept {series.samples.shape[1]}/{ny * nx} gridpoints;"
                     f" projection realness residue "
                     f"{np.max(np.abs(raw.imag)):.2e}")
