"""Check that two spectrend output directories hold the same results.

Usage: python tools/compare_outputs.py [--numeric] PARENT_DIR CHANGE_DIR

By default every file under either directory must be byte-identical to its
namesake under the other, with two exceptions:

* ``run_config.json`` is compared as JSON without ``output.dir``, which
  names the directory itself;
* the ``residual`` column of ``eigenvalues.txt`` (the last one) is rounding
  noise that a change of BLAS build or thread count alone moves, so it is
  held to |residual - residual'| <= 1e-12 * max(1, |lambda|) instead; every
  other byte of that table must match.

``--numeric`` is the tolerance mode, for a change that moves results by
rounding only: every numeric cell x of the parent's text tables and its
namesake x' must satisfy |x - x'| <= 1e-12 * max(1, |x|), and every other
cell and the line and cell counts must match exactly.  ``run_config.json``
is compared as above.

Prints one line per file and exits 0 when every file matches, 1 when one
does not, and 2 on a usage error or a missing directory.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import sys

TOL = 1e-12    # relative bound of the residual column, and of every cell under --numeric


def _files(root) -> set:
    return {os.path.relpath(os.path.join(d, name), root)
            for d, _dirs, names in os.walk(root) for name in names}


def _run_config(path) -> dict:
    with open(path) as f:
        cfg = json.load(f)
    cfg.get("output", {}).pop("dir", None)
    return cfg


def _table_problem(a, b, line_problem):
    """None when two text files match line for line, else what differs.

    Equal lines match; ``line_problem(x, y)`` judges each unequal pair and
    returns None or what differs.
    """
    with open(a) as fa, open(b) as fb:
        lines_a, lines_b = fa.read().split("\n"), fb.read().split("\n")
    if len(lines_a) != len(lines_b):
        return f"{len(lines_a)} vs {len(lines_b)} lines"
    for n, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        problem = None if x == y else line_problem(x, y)
        if problem is not None:
            return f"line {n}: {problem}"
    return None


def _residual_only(x, y):
    """None when two eigenvalue table rows differ only within the residual bound."""
    (head_x, _, res_x), (head_y, _, res_y) = x.rpartition(" "), y.rpartition(" ")
    if x.startswith("#") or head_x != head_y:
        return "differs before the residual column"
    try:    # columns: j re_lambda im_lambda modulus argument residual
        bound = TOL * max(1.0, abs(float(head_x.split()[3])))
        delta = abs(float(res_x) - float(res_y))
    except (ValueError, IndexError):
        return "not a table row"
    return None if delta <= bound else f"residuals differ by {delta:.3g} > {bound:.3g}"


def _numeric_cells(x, y):
    """None when two lines' numeric cells agree within TOL * max(1, |x|) and
    their other cells exactly, else what differs."""
    cells_x, cells_y = x.split(), y.split()
    if len(cells_x) != len(cells_y):
        return f"{len(cells_x)} vs {len(cells_y)} cells"
    for col, (u, v) in enumerate(zip(cells_x, cells_y), start=1):
        if u == v:
            continue
        try:
            fu, fv = float(u), float(v)
        except ValueError:
            return f"cell {col} differs"
        bound = TOL * max(1.0, abs(fu))
        if not abs(fu - fv) <= bound:
            return f"cell {col}: {u} vs {v}, more than {bound:.3g} apart"
    return None


def compare(parent, change, numeric=False) -> list:
    """(relative path, None or what differs) for every file under either directory."""
    in_parent, in_change = _files(parent), _files(change)
    results = []
    for name in sorted(in_parent | in_change):
        a, b = os.path.join(parent, name), os.path.join(change, name)
        if name not in in_change or name not in in_parent:
            problem = f"only in {parent if name in in_parent else change}"
        elif os.path.basename(name) == "run_config.json":
            problem = None if _run_config(a) == _run_config(b) else "differs outside output.dir"
        elif numeric:
            problem = _table_problem(a, b, _numeric_cells)
        elif os.path.basename(name) == "eigenvalues.txt":
            problem = _table_problem(a, b, _residual_only)
        else:
            problem = None if filecmp.cmp(a, b, shallow=False) else "differs"
        results.append((name, problem))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--numeric", action="store_true",
                        help="hold numeric cells to 1e-12 * max(1, |x|) instead of their bytes")
    args = parser.parse_args(argv)
    for path in (args.parent_dir, args.change_dir):
        if not os.path.isdir(path):
            print(f"not a directory: {path}", file=sys.stderr)
            return 2
    results = compare(args.parent_dir, args.change_dir, args.numeric)
    for name, problem in results:
        print(f"same {name}" if problem is None else f"DIFF {name}: {problem}")
    return 0 if all(problem is None for _name, problem in results) else 1


if __name__ == "__main__":
    sys.exit(main())
