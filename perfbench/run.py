"""spectrend benchmark: one workload, closed loop, one CLI call per fresh process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload switching_F --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke            # every workload once, reduced size

A run writes the workload's seeded inputs under ``.perfbench_work/``, times
a few import-only interpreters, then starts one child process after another
(closed loop, a single client) until ``--seconds`` have passed.  Each child
is a fresh interpreter that imports ``spectrend.cli`` (timed, and pooled with
the import-only samples into ``setup_s``) and runs ``spectrend.cli.main`` once
(timed: ``wall_s``); its output files are checked and deleted before the next
child starts.  No child is started that would likely end after ``--seconds``
(judged by the longest child so far), but every run holds at least one.
``--trace 1`` runs traced and untraced children alternately, traced first,
until both kinds have run and the time is up; it reports the
per-layer numbers of the traced ones, plus the tracing overhead.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (medians over the children).  The lines before it
give the environment record and each metric with its unit; the full record,
spans included, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(1, SRC)    # after this directory; workloads simulate model F to pick a seed

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 120     # a child that runs longer counts as failed
SETUP_PROBES = 3          # extra fresh-interpreter imports, so setup_s has >= 4 samples

IMPORT_PROBE = ("import sys, time\n"
                "t0 = time.perf_counter()\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "import spectrend.cli\n"
                "print(time.perf_counter() - t0)\n")


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            return next((line.split()[0] for line in f if line.rstrip().endswith(" " + ref)),
                        None)
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            return next((line.split(":", 1)[1].strip() for line in f
                         if line.startswith("model name")), platform.processor())
    except OSError:
        return platform.processor()


def environment(threads: int) -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    # name, version and build flags; the build host's directories say nothing here
    build = {lib: {k: v for k, v in (deps.get(lib) or {}).items() if "directory" not in k}
             for lib in ("blas", "lapack")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": build["blas"],
        "lapack": build["lapack"],
        "blas_threads": threads,
        "git_commit": _git_commit(),
    }


def probe_import_s() -> float:
    """Time for a fresh interpreter to import ``spectrend.cli``, as a child does."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                          text=True, check=True, timeout=CHILD_TIMEOUT_S)
    return float(proc.stdout)


def run_child(index, argv, trace, threads, work_dir, check, inputs):
    """One CLI call in a fresh process; returns (result or None, problems, bytes_out)."""
    out_dir = os.path.join(work_dir, f"out{index}")
    spec_path = os.path.join(work_dir, f"child{index}.json")
    result_path = os.path.join(work_dir, f"result{index}.json")
    with open(spec_path, "w") as f:
        json.dump({"argv": argv + ["--out", out_dir], "src": SRC, "threads": threads,
                   "trace": trace, "run_id": f"child{index}", "result": result_path}, f)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"child timed out after {CHILD_TIMEOUT_S} s"], 0
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None, [f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"], 0
    with open(result_path) as f:
        result = json.load(f)
    problems = []
    if result["exit"] != 0:
        problems.append(f"spectrend exited {result['exit']}: {proc.stderr.strip()[-500:]}")
    else:
        try:
            problems = check(out_dir, inputs)
        except (OSError, ValueError, IndexError) as exc:
            problems = [f"output check could not parse the tables: {exc!r}"]
    bytes_out = sum(entry.stat().st_size for entry in os.scandir(out_dir)) \
        if os.path.isdir(out_dir) else 0
    shutil.rmtree(out_dir, ignore_errors=True)
    return result, problems, bytes_out


def metric_units() -> dict:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def run_workload(name, seed, seconds, trace, smoke, threads, work_dir, units):
    """Closed loop of children; returns the record printed and saved."""
    prepare, check = WORKLOADS[name]
    inputs = prepare(seed, work_dir, smoke)
    threads = min(threads, inputs.max_threads or threads)
    setup = [] if trace or smoke else [probe_import_s() for _ in range(SETUP_PROBES)]

    plain, traced, problems = [], [], []
    attempted = failed = 0
    order = itertools.cycle([True, False]) if trace else itertools.repeat(False)
    start = time.monotonic()
    longest = 0.0    # longest child so far, its output check included
    for index, traced_run in enumerate(order):
        attempted += 1
        child_start = time.monotonic()
        result, issues, bytes_out = run_child(index, inputs.argv, traced_run, threads,
                                              work_dir, check, inputs)
        longest = max(longest, time.monotonic() - child_start)
        if issues:
            failed += 1
            problems.extend(f"child {index}: {issue}" for issue in issues)
        if result is not None:
            result["bytes_out"] = bytes_out
            (traced if traced_run else plain).append(result)
        if result is None:
            break    # the child itself broke; more children would too
        # stop before a child that would likely end past the deadline
        timed_out = smoke or time.monotonic() - start + longest > seconds
        if timed_out and (not trace or (plain and traced)):
            break

    if trace:
        layers = []
        for r in traced:
            row = tracing.layer_metrics(r["spans"], r["counts"])
            row["cli.bytes_out"] = r["bytes_out"]
            layers.append(row)
        metrics = {key: statistics.median(row[key] for row in layers) for key in layers[0]} \
            if layers else {}
        if layers and plain:
            metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                           - statistics.median(r["wall_s"] for r in plain))
    else:
        metrics = {"wall_s": statistics.median(r["wall_s"] for r in plain),
                   "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in plain),
                   "setup_s": statistics.median(setup + [r["import_s"] for r in plain])} \
            if plain else {}
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "blas_threads": threads, "correct": failed == 0, "attempted": attempted,
        "failed": failed,
        "problems": problems, "setup_probes": setup,
        "samples": [{k: v for k, v in r.items() if k not in ("spans", "counts")}
                    for r in plain + traced],
        "spans": [r["spans"] for r in traced],
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def report(record, env) -> None:
    print(json.dumps({"env": env}))
    for problem in record["problems"]:
        print(f"FAIL {record['workload']}: {problem}", file=sys.stderr)
    for key, metric in record["metrics"].items():
        print(f"{record['workload']} {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"{record['workload']} error_rate = "
          f"{record['failed'] / record['attempted']:.6g} failed/attempted "
          f"({record['failed']}/{record['attempted']})")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one child per workload at reduced size (all workloads "
                             "unless --workload is given)")
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required outside --smoke")
    if not os.path.isfile(os.path.join(SRC, "spectrend", "__init__.py")):
        print(f"error: no spectrend package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    threads = len(os.sched_getaffinity(0))    # BLAS threads per child, unless the workload caps it
    env = environment(threads)
    units = metric_units()
    names = [args.workload] if args.workload else list(WORKLOADS)
    out_root = os.path.join(ROOT, ".perfbench_out")
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(out_root, exist_ok=True)
    os.makedirs(work_root, exist_ok=True)
    status = 0
    for name in names:
        work_dir = os.path.join(work_root, f"{name}-{os.getpid()}")
        os.makedirs(work_dir)
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  args.smoke, threads, work_dir, units)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        env = dict(env, blas_threads=record.pop("blas_threads"))
        tag = "smoke" if args.smoke else f"seed{args.seed}"
        with open(os.path.join(out_root, f"{name}-{tag}-trace{args.trace}.json"), "w") as f:
            json.dump(dict(record, env=env), f, indent=1)
        if not record["metrics"]:
            print(f"error: {name}: no child produced a result", file=sys.stderr)
            for problem in record["problems"]:
                print(problem, file=sys.stderr)
            return 1
        report(record, env)
        status = status or (0 if record["correct"] else 1)
    # a timed run reports a wrong answer through "correct"; smoke mode, which
    # the self-test runs, also fails its exit status
    return status if args.smoke else 0


if __name__ == "__main__":
    sys.exit(main())
