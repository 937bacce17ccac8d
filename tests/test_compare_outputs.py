import importlib.util
import os
import shutil

import pytest

from spectrend.cli import main

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "compare_outputs.py")
_spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "o"
    assert main(["analyze", "--steps", "300", "--out", str(out)]) == 0
    return out


@pytest.fixture
def two_runs(tmp_path, run_dir):
    """Two copies of one run's outputs whose run_config.json names its own directory."""
    dirs = []
    for name in ("parent", "change"):
        target = tmp_path / name
        shutil.copytree(run_dir, target)
        cfg = target / "run_config.json"
        cfg.write_text(cfg.read_text().replace(str(run_dir), str(target)))
        dirs.append(target)
    return dirs


def edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def eigenvalue_row(path, j):
    return next(line for line in path.read_text().splitlines() if line.split()[0] == str(j))


def test_identical_outputs_match(two_runs, capsys):
    parent, change = two_runs
    assert (parent / "run_config.json").read_text() != (change / "run_config.json").read_text()
    assert compare_outputs.main([str(parent), str(change)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sorted(lines) == sorted(f"same {name}" for name in os.listdir(parent))


@pytest.mark.parametrize("table", ["modes.txt", "periods.txt", "eigenvalues.txt"])
def test_one_changed_digit_fails(two_runs, capsys, table):
    parent, change = two_runs
    path = change / table
    row = path.read_text().splitlines()[1]
    digit = row.index("e") - 1    # the last mantissa digit of the first float
    changed = row[:digit] + ("1" if row[digit] != "1" else "2") + row[digit + 1:]
    edit(path, row, changed)
    assert compare_outputs.main([str(parent), str(change)]) == 1
    assert f"DIFF {table}" in capsys.readouterr().out


def test_changed_config_value_fails(two_runs, capsys):
    parent, change = two_runs
    edit(change / "run_config.json", '"knn": 25', '"knn": 24')
    assert compare_outputs.main([str(parent), str(change)]) == 1
    assert "DIFF run_config.json: differs outside output.dir" in capsys.readouterr().out


def test_missing_file_fails(two_runs, capsys):
    parent, change = two_runs
    (change / "periods.txt").unlink()
    assert compare_outputs.main([str(parent), str(change)]) == 1
    assert f"DIFF periods.txt: only in {parent}" in capsys.readouterr().out


@pytest.mark.parametrize("factor, code", [(1 + 1e-3, 0), (None, 1)])
def test_residual_jitter(two_runs, factor, code):
    # residuals of the leading modes sit near 1e-15, so a relative jitter of
    # 1e-3 is far inside 1e-12 * max(1, |lambda|), and a shift of 1e-9 far outside
    parent, change = two_runs
    path = change / "eigenvalues.txt"
    for j in (1, 2, 3):
        row = eigenvalue_row(path, j)
        head, _, residual = row.rpartition(" ")
        new = float(residual) * factor if factor else float(residual) + 1e-9
        edit(path, row, f"{head} {new:.17e}")
    assert compare_outputs.main([str(parent), str(change)]) == code


def test_missing_directory_is_usage_error(tmp_path):
    assert compare_outputs.main([str(tmp_path), str(tmp_path / "absent")]) == 2


def nudge_first_float(path, relative):
    """Scale the first nonzero float of the first table row by 1 + relative."""
    row = path.read_text().splitlines()[1]
    cells = row.split()
    col = next(i for i, cell in enumerate(cells) if "e" in cell and float(cell) != 0.0)
    cells[col] = f"{float(cells[col]) * (1.0 + relative):.17e}"
    edit(path, row, " ".join(cells))


@pytest.mark.parametrize("numeric, code", [(False, 1), (True, 0)], ids=["bytes", "numeric"])
def test_rounding_change_passes_only_numeric_mode(two_runs, capsys, numeric, code):
    parent, change = two_runs
    for table in ("modes.txt", "periods.txt", "eigenvalues.txt"):
        nudge_first_float(change / table, 1e-14)
    assert compare_outputs.main(["--numeric"] * numeric + [str(parent), str(change)]) == code
    out = capsys.readouterr().out
    assert ("DIFF modes.txt" in out) == (not numeric)


def test_identical_outputs_match_in_numeric_mode(two_runs, capsys):
    parent, change = two_runs
    assert compare_outputs.main(["--numeric", str(parent), str(change)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sorted(lines) == sorted(f"same {name}" for name in os.listdir(parent))


@pytest.mark.parametrize("change_kind", ["beyond_tolerance", "word", "cell_count", "line_count"])
def test_numeric_mode_catches_real_changes(two_runs, capsys, change_kind):
    parent, change = two_runs
    path = change / "periods.txt"
    text = path.read_text()
    if change_kind == "beyond_tolerance":
        nudge_first_float(path, 1e-9)
    elif change_kind == "word":
        edit(path, " trend\n" if " trend\n" in text else " constant\n", " oscillatory\n")
    elif change_kind == "cell_count":
        row = text.splitlines()[1]
        edit(path, row, row + " 0")
    else:
        path.write_text(text + text.splitlines()[1] + "\n")
    assert compare_outputs.main(["--numeric", str(parent), str(change)]) == 1
    assert "DIFF periods.txt" in capsys.readouterr().out
