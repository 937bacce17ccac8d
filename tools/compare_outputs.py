"""Check that two spectrend output directories hold the same results.

Usage: python tools/compare_outputs.py PARENT_DIR CHANGE_DIR

Every file under either directory must be byte-identical to its namesake
under the other, with two exceptions:

* ``run_config.json`` is compared as JSON without ``output.dir``, which
  names the directory itself;
* the ``residual`` column of ``eigenvalues.txt`` (the last one) is rounding
  noise that a change of BLAS build or thread count alone moves, so it is
  held to |residual - residual'| <= 1e-12 * max(1, |lambda|) instead; every
  other byte of that table must match.

Prints one line per file and exits 0 when every file matches, 1 when one
does not, and 2 on a usage error or a missing directory.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import sys

RESIDUAL_TOL = 1e-12


def _files(root) -> set:
    return {os.path.relpath(os.path.join(d, name), root)
            for d, _dirs, names in os.walk(root) for name in names}


def _run_config(path) -> dict:
    with open(path) as f:
        cfg = json.load(f)
    cfg.get("output", {}).pop("dir", None)
    return cfg


def _eigenvalue_table_problem(a, b):
    """None when two eigenvalue tables match, else what differs."""
    with open(a) as fa, open(b) as fb:
        lines_a, lines_b = fa.read().split("\n"), fb.read().split("\n")
    if len(lines_a) != len(lines_b):
        return f"{len(lines_a)} vs {len(lines_b)} lines"
    for n, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x == y:
            continue
        (head_x, _, res_x), (head_y, _, res_y) = x.rpartition(" "), y.rpartition(" ")
        if x.startswith("#") or head_x != head_y:
            return f"line {n} differs before the residual column"
        try:    # columns: j re_lambda im_lambda modulus argument residual
            bound = RESIDUAL_TOL * max(1.0, abs(float(head_x.split()[3])))
            delta = abs(float(res_x) - float(res_y))
        except (ValueError, IndexError):
            return f"line {n} is not a table row"
        if not delta <= bound:
            return f"line {n}: residuals differ by {delta:.3g} > {bound:.3g}"
    return None


def compare(parent, change) -> list:
    """(relative path, None or what differs) for every file under either directory."""
    in_parent, in_change = _files(parent), _files(change)
    results = []
    for name in sorted(in_parent | in_change):
        a, b = os.path.join(parent, name), os.path.join(change, name)
        if name not in in_change or name not in in_parent:
            problem = f"only in {parent if name in in_parent else change}"
        elif os.path.basename(name) == "run_config.json":
            problem = None if _run_config(a) == _run_config(b) else "differs outside output.dir"
        elif os.path.basename(name) == "eigenvalues.txt":
            problem = _eigenvalue_table_problem(a, b)
        else:
            problem = None if filecmp.cmp(a, b, shallow=False) else "differs"
        results.append((name, problem))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    args = parser.parse_args(argv)
    for path in (args.parent_dir, args.change_dir):
        if not os.path.isdir(path):
            print(f"not a directory: {path}", file=sys.stderr)
            return 2
    results = compare(args.parent_dir, args.change_dir)
    for name, problem in results:
        print(f"same {name}" if problem is None else f"DIFF {name}: {problem}")
    return 0 if all(problem is None for _name, problem in results) else 1


if __name__ == "__main__":
    sys.exit(main())
