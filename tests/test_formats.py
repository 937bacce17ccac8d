"""Golden byte format of every text table the package writes.

The inputs are built by hand, with no eigensolve, so the expected text does
not depend on the BLAS build.  They cover the corner cases of ``%.17e``
formatting: negative zero, a subnormal, 1e300 and the ``inf`` period, plus
the integer index columns, string columns and complex (re, im) rows.
"""

import functools
import io
import types

import numpy as np
import pytest

from spectrend import _table, cli, operator, spectral
from spectrend.models import ModelConfig, Trajectory, write_trajectory
from spectrend.operator import SpectralDecomposition, write_eigenvalue_table
from spectrend.spectral import ModeReport, Projection, write_mode_table, write_projection

TINY = 5e-324     # smallest subnormal
HUGE = 1e300

REPORTS = [
    ModeReport(1, complex(1.0, 0.0), "constant", None, TINY, np.array([-0.0, TINY, HUGE])),
    ModeReport(2, complex(-0.0, 0.125), "oscillatory", 95.08922712345678, 0.0,
               np.array([1.0, -2.5, 3.0])),
    ModeReport(4, complex(0.75, -0.0), "trend", None, 12.5, np.array([0.1, 0.2, -0.3])),
]


def decomposition(eigenvalues, residuals):
    m = len(eigenvalues)
    zeros = np.zeros((3, m), dtype=complex)    # n = 3, as stub_pipeline's operator
    return SpectralDecomposition(
        eigenvalues=np.asarray(eigenvalues, dtype=complex), right_vectors=zeros,
        dual_vectors=zeros, pair_index=np.full(m, -1), residuals=np.asarray(residuals),
        dual_residuals=np.zeros(m))


def written(tmp_path, writer, *args):
    path = tmp_path / "table.txt"
    writer(*args, path)
    return path.read_text()


def test_eigenvalue_table(tmp_path):
    dec = decomposition([1.0, 0.5 + 0.25j, 0.5 - 0.25j, complex(-0.0, 0.0), -1e-300],
                        [0.0, TINY, HUGE, 2.5e-14, -0.0])
    assert written(tmp_path, write_eigenvalue_table, dec) == (
        "# j re_lambda im_lambda modulus argument residual\n"
        "1 1.00000000000000000e+00 0.00000000000000000e+00 1.00000000000000000e+00"
        " 0.00000000000000000e+00 0.00000000000000000e+00\n"
        "2 5.00000000000000000e-01 2.50000000000000000e-01 5.59016994374947451e-01"
        " 4.63647609000806094e-01 4.94065645841246544e-324\n"
        "3 5.00000000000000000e-01 -2.50000000000000000e-01 5.59016994374947451e-01"
        " -4.63647609000806094e-01 1.00000000000000005e+300\n"
        "4 -0.00000000000000000e+00 0.00000000000000000e+00 0.00000000000000000e+00"
        " 3.14159265358979312e+00 2.50000000000000008e-14\n"
        "5 -1.00000000000000003e-300 0.00000000000000000e+00 1.00000000000000003e-300"
        " 3.14159265358979312e+00 -0.00000000000000000e+00\n")


def test_mode_table(tmp_path):
    assert written(tmp_path, write_mode_table, REPORTS) == (
        "# j re_lambda im_lambda period amplitude kind\n"
        "1 1.00000000000000000e+00 0.00000000000000000e+00 inf"
        " 4.94065645841246544e-324 constant\n"
        "2 -0.00000000000000000e+00 1.25000000000000000e-01 9.50892271234567801e+01"
        " 0.00000000000000000e+00 oscillatory\n"
        "4 7.50000000000000000e-01 -0.00000000000000000e+00 inf"
        " 1.25000000000000000e+01 trend\n")


def test_real_projection_without_row_times(tmp_path):
    proj = Projection((2, 3), np.array([-0.0, TINY, HUGE]), True)
    assert written(tmp_path, write_projection, proj, np.arange(3.0)) == (
        "# modes 2,3 real=yes\n"
        "# time value...\n"
        "0.00000000000000000e+00 -0.00000000000000000e+00\n"
        "1.00000000000000000e+00 4.94065645841246544e-324\n"
        "2.00000000000000000e+00 1.00000000000000005e+300\n")


def test_complex_field_projection(tmp_path):
    series = np.array([[1 - 0.0j, complex(-0.0, TINY)], [complex(HUGE, -1.0), 0.5j]])
    proj = Projection((2,), series, False)
    assert written(tmp_path, write_projection, proj, np.array([10.0, 11.5])) == (
        "# modes 2 real=no\n"
        "# time value...\n"
        "1.00000000000000000e+01 1.00000000000000000e+00 0.00000000000000000e+00"
        " -0.00000000000000000e+00 4.94065645841246544e-324\n"
        "1.15000000000000000e+01 1.00000000000000005e+300 -1.00000000000000000e+00"
        " 0.00000000000000000e+00 5.00000000000000000e-01\n")


def test_trajectory_step_column(tmp_path):
    traj = Trajectory(np.zeros((3, 2)), np.array([-0.0, TINY, HUGE]),
                      ModelConfig(kind="F", n_steps=3))
    meta = tmp_path / "table.meta.json"
    assert written(tmp_path, functools.partial(write_trajectory, meta_path=meta), traj) == (
        "# step observation\n"
        "0 -0.00000000000000000e+00\n"
        "1 4.94065645841246544e-324\n"
        "2 1.00000000000000005e+300\n")


def savetxt_whole(table, header, fmt):
    """The text of one ``np.savetxt`` call on the whole stacked table."""
    buf = io.StringIO()
    np.savetxt(buf, table, fmt=fmt, header="\n".join(header), comments="# ")
    return buf.getvalue()


ROW_COUNTS = [0, 1, _table._ROWS, _table._ROWS + 1]


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_blocked_table_is_one_savetxt_of_the_whole(tmp_path, n):
    rng = np.random.default_rng(n)
    times, field = rng.standard_normal(n), rng.standard_normal((n, 3))
    pair = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    header = ["modes 2 real=no", "time value..."]
    path = tmp_path / "table.txt"
    _table.write_table(path, header, [times, field, pair])
    whole = np.hstack([times[:, None], field,
                       np.stack([pair.real, pair.imag], axis=-1).reshape(n, 4)])
    assert path.read_text() == savetxt_whole(whole, header, "%.17e")


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_blocked_mode_table_is_one_savetxt_of_the_whole(tmp_path, n):
    # int, complex, float and string columns: the rows go through object arrays
    reports = [REPORTS[i % len(REPORTS)] for i in range(n)]
    whole = np.empty((n, 6), dtype=object)
    for row, r in zip(whole, reports):
        row[:] = [r.index, r.eigenvalue.real, r.eigenvalue.imag,
                  np.inf if r.period is None else r.period, r.amplitude, r.kind]
    assert written(tmp_path, write_mode_table, reports) == savetxt_whole(
        whole, ["j re_lambda im_lambda period amplitude kind"],
        ["%d"] + ["%.17e"] * 4 + ["%s"])


@pytest.fixture
def stub_pipeline(monkeypatch):
    """CLI runs whose operator, decomposition and mode reports are hand-built."""
    dec = decomposition([1.0, 0.125j, -0.125j, 0.75], np.zeros(4))

    def markov_operator(emb, s, K, **kw):
        # a real operator has n_points - s rows; a cloud too short for the
        # stub's three is rejected under [operator], never misaligned
        if emb.n_points - s < 3:
            raise ValueError(f"{emb.n_points} points leave fewer than 3 rows at step {s}")
        return types.SimpleNamespace(n=3, P=np.full((3, 3), 1.0 / 3.0))

    monkeypatch.setattr(operator, "markov_operator", markov_operator)
    monkeypatch.setattr(operator, "eigendecompose", lambda op, m: dec)
    monkeypatch.setattr(spectral, "classify_modes", lambda dec, target: REPORTS)


def test_cli_modes_table(stub_pipeline, tmp_path):
    # the rows of the default Q=3, lag=10 embedding start at sample 20
    assert cli.main(["analyze", "--steps", "50", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "modes.txt").read_text() == (
        "# time mode_1 mode_2 mode_4\n"
        "2.00000000000000000e+01 -0.00000000000000000e+00 1.00000000000000000e+00"
        " 1.00000000000000006e-01\n"
        "2.10000000000000000e+01 4.94065645841246544e-324 -2.50000000000000000e+00"
        " 2.00000000000000011e-01\n"
        "2.20000000000000000e+01 1.00000000000000005e+300 3.00000000000000000e+00"
        " -2.99999999999999989e-01\n")


def test_cli_periods_stdout(stub_pipeline, tmp_path, capsys):
    assert cli.main(["periods", "--steps", "50", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "# j re_lambda im_lambda period amplitude kind\n"
        "1 1.000000 0.000000 inf 4.940656e-324 constant\n"
        "2 -0.000000 0.125000 95.089227 0.000000e+00 oscillatory\n"
        "4 0.750000 -0.000000 inf 1.250000e+01 trend\n")
