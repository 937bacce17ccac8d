"""Command line pipeline driver.

Subcommands:

* ``synth``       -- generate a synthetic model trajectory (series + metadata)
* ``analyze``     -- embedding + operator + spectral analysis, writes tables
* ``reconstruct`` -- project the observation series onto chosen modes
* ``periods``     -- re-emit the mode/period table to stdout

Configuration comes from a JSON file (--config) with sections ``source``,
``preprocess``, ``embedding``, ``operator``, ``reconstruct`` and ``output``;
command line flags override config fields.  Every analysis run writes a
resolved-config sidecar next to its outputs.  Exit status: 0 on success,
2 on validation errors, 3 on numerical failures.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys

from . import _table, data, embed, models, operator, spectral

ENV_OUT = "SPECTREND_OUT"

# kinds of config value as (description, test); type() is exact, so a bool
# is not an int here
_POSITIVE = ("a positive integer", lambda v: type(v) is int and v >= 1)
_NONNEGATIVE = ("a nonnegative integer", lambda v: type(v) is int and v >= 0)
_NUMBER = ("a finite number", lambda v: type(v) in (int, float) and abs(v) < math.inf)
_STRING = ("a string", lambda v: type(v) is str)
_ANOMALY = ('{"window": [start, stop], "cycle": n}',
            lambda v: type(v) is dict and v.keys() == {"window", "cycle"}
            and type(v["cycle"]) is int and type(v["window"]) is list
            and list(map(type, v["window"])) == [int, int])

# section -> key -> (kind,) or (kind, default).  A key without a default
# reaches the resolved config only when the config file sets it.
_SCHEMA = {
    "source": {
        "kind": (("synthetic|scalar|field", lambda v: v in ("synthetic", "scalar", "field")),
                 "synthetic"),
        "model": (("a JSON object", lambda v: type(v) is dict), {"kind": "F"}),
        "path": (_STRING,),
        "time_col": (_NONNEGATIVE,), "value_col": (_NONNEGATIVE,), "header_rows": (_NONNEGATIVE,),
        "t_start": (_NUMBER,), "t_end": (_NUMBER,), "dt": (_NUMBER,), "sentinel": (_NUMBER,),
        "reverse_time": (("true or false", lambda v: type(v) is bool),)},
    "preprocess": {"anomaly": (_ANOMALY,)},
    "embedding": {"Q": (_POSITIVE, 3), "lag": (_POSITIVE, 10)},
    "operator": {"step": (_NONNEGATIVE, 1), "knn": (_POSITIVE, 25), "modes": (_POSITIVE, 12)},
    "reconstruct": {"indices": (("a nonempty list of integers",
                                 lambda v: type(v) is list and set(map(type, v)) == {int}), [1])},
    "output": {"dir": (_STRING,)},
}

# source.kind -> the source keys that kind reads; a config that sets any
# other source key fails validation
_SOURCE_READS = {
    "synthetic": {"kind", "model"},
    "scalar": {"kind", "path", "time_col", "value_col", "header_rows", "t_start", "t_end",
               "dt", "reverse_time"},
    "field": {"kind", "path", "sentinel"},
}

# command line flag -> (config section, key, type, help); section "model" is
# the source's model, and --config, with no section, names the config file
_FLAGS = {
    "config": (None, None, str, "JSON run configuration"),
    "model": ("model", "kind", str, "synthetic model kind (M, A, F, Fprime)"),
    "steps": ("model", "n_steps", int, "synthetic run length"),
    "seed": ("model", "seed", int, "synthetic seed"),
    "out": ("output", "dir", str, f"output directory (default ${ENV_OUT} or ./spectrend_out)"),
    "drift": ("model", "drift", str, "drift preset for kinds M/A (linear|quadratic)"),
    "delta": ("model", "delta", float, "switching parameter for kinds F/Fprime"),
    "Q": ("embedding", "Q", int, "number of delays"),
    "lag": ("embedding", "lag", int, "delay lag (sampling intervals)"),
    "step": ("operator", "step", int, "operator forward step"),
    "knn": ("operator", "knn", int, "neighbor count for bandwidths"),
    "modes": ("operator", "modes", int, "retained eigenpair count"),
    "indices": ("reconstruct", "indices", str, "comma-separated 1-based mode indices"),
}
_COMMON = ("config", "model", "steps", "seed", "out")
_PIPELINE = _COMMON + ("Q", "lag", "step", "knn", "modes")


class StageError(Exception):
    def __init__(self, stage, exc, code):
        super().__init__(f"[{stage}] {exc}")
        self.code = code


def _run_stage(stage, fn, /, *args, **kwargs):
    """Run one pipeline stage, tagging failures with the stage name."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, OSError, KeyError, TypeError, MemoryError) as exc:
        raise StageError(stage, exc, 2) from exc
    except (operator.NumericalError, ArithmeticError) as exc:
        raise StageError(stage, exc, 3) from exc


def load_config(path) -> dict:
    with open(path) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config root must be a JSON object")
    for name, section in cfg.items():
        if name not in _SCHEMA:
            raise ValueError(f"{path}: unknown config section {name!r}")
        if not isinstance(section, dict):
            raise ValueError(f"{path}: config section {name!r} must be a JSON object")
        unknown = section.keys() - _SCHEMA[name].keys()
        if unknown:
            raise ValueError(f"{path}: unknown keys {sorted(unknown)} in config section {name!r}")
    if not isinstance(cfg.get("source", {}).get("model", {}), dict):
        raise ValueError(f"{path}: source model must be a JSON object such as "
                         '{"kind": "F", "n_steps": 2000, "seed": 11}')
    return cfg


def _parse_indices(text) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ValueError(f"--indices must be comma-separated integers, got {text!r}") from None


def resolve_config(args) -> dict:
    cfg = {name: {key: copy.deepcopy(spec[1]) for key, spec in keys.items() if len(spec) > 1}
           for name, keys in _SCHEMA.items()}
    if getattr(args, "config", None):
        for name, section in _run_stage("config", load_config, args.config).items():
            if name == "source" and "model" in section:
                section["model"] = {**cfg["source"]["model"], **section["model"]}
            cfg[name].update(section)
            if name == "source":
                _run_stage("validate", _check_source_keys, cfg["source"]["kind"], section)
    for flag, (section, key, _type, _help) in _FLAGS.items():
        val = getattr(args, flag, None)
        if section is None or val is None:
            continue
        if flag == "indices":
            val = _run_stage("config", _parse_indices, val)
        if section == "model":
            if cfg["source"]["kind"] != "synthetic":
                raise StageError("config", ValueError(
                    f"--{flag} sets the synthetic model, but source.kind is "
                    f"{cfg['source']['kind']!r}"), 2)
            cfg["source"]["model"][key] = val
        else:
            cfg[section][key] = val
    cfg["output"].setdefault("dir", os.environ.get(ENV_OUT) or "spectrend_out")
    return cfg


def _check(name, key, val) -> None:
    (kind, test), *_default = _SCHEMA[name][key]
    if not test(val):
        raise ValueError(f"{name}.{key} must be {kind}, got {val!r}")


def _check_source_keys(kind, section) -> None:
    """Reject a source key that the config file sets but ``kind`` does not read."""
    _check("source", "kind", kind)
    unread = sorted(section.keys() - _SOURCE_READS[kind])
    if unread:
        raise ValueError(f"source.kind {kind!r} does not read source key(s) {unread}")


def _validate(cfg) -> None:
    for name, keys in _SCHEMA.items():
        for key in keys:
            # the anomaly is checked where it is applied, under its own stage
            if key in cfg[name] and key != "anomaly":
                _check(name, key, cfg[name][key])
    src = cfg["source"]
    if src["kind"] != "synthetic" and not os.path.exists(src.get("path", "")):
        raise ValueError(f"source path does not exist: {src.get('path')!r}")


def _simulate(cfg) -> models.Trajectory:
    config = _run_stage("model-config", models.ModelConfig, **cfg["source"]["model"])
    return _run_stage("simulate", models.simulate, config)


def _load_source(cfg) -> data.TimeSeries:
    src = cfg["source"]    # a reader option the config leaves out keeps its default
    if src["kind"] == "synthetic":
        return data.TimeSeries(samples=_simulate(cfg).observations)
    if src["kind"] == "field":
        series, _mask = _run_stage("load", data.load_field_stack, src["path"],
                                   **{k: src[k] for k in ("sentinel",) if k in src})
        return series
    record = _run_stage("load", data.load_scalar_record, src["path"], **{
        k: src[k] for k in ("time_col", "value_col", "header_rows") if k in src})
    series = _run_stage("interpolate", data.interpolate_uniform, record, src.get("dt", 1.0),
                        src.get("t_start", record.times[0]), src.get("t_end", record.times[-1]))
    return data.reverse_time(series) if src.get("reverse_time") else series


def _anomalies(series, anom) -> data.TimeSeries:
    _check("preprocess", "anomaly", anom)
    return data.anomalies(series, tuple(anom["window"]), anom["cycle"])


def _write_run_config(cfg) -> None:
    os.makedirs(cfg["output"]["dir"], exist_ok=True)
    with open(os.path.join(cfg["output"]["dir"], "run_config.json"), "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")


def _analyze(args):
    """Resolve, check and echo the config, then run every stage up to the
    eigenpairs.  Returns (config, series, decomposition, h, times), where h
    is the (n, d) observations and times the (n,) times aligned to the
    operator's n rows."""
    cfg = resolve_config(args)
    _run_stage("validate", _validate, cfg)
    _run_stage("output", _write_run_config, cfg)
    series = _load_source(cfg)
    if "anomaly" in cfg["preprocess"]:
        series = _run_stage("anomalies", _anomalies, series, cfg["preprocess"]["anomaly"])
    emb = _run_stage("embed", embed.delay_embed, series,
                     cfg["embedding"]["Q"], cfg["embedding"]["lag"])
    opr = _run_stage("operator", operator.build_operator, emb,
                     cfg["operator"]["step"], cfg["operator"]["knn"])
    modes = min(cfg["operator"]["modes"], opr.n)
    dec = _run_stage("eigendecompose", operator.eigendecompose, opr, modes)
    h = emb.align(series.samples.reshape(len(series), -1), opr.n)
    return cfg, series, dec, h, emb.align(series.times, opr.n)


def cmd_synth(args) -> int:
    cfg = resolve_config(args)
    if cfg["source"]["kind"] != "synthetic":
        raise StageError("synth", ValueError("synth requires a synthetic source"), 2)
    _run_stage("validate", _validate, cfg)
    traj = _simulate(cfg)
    out_dir = cfg["output"]["dir"]
    _run_stage("output", os.makedirs, out_dir, exist_ok=True)
    series_path = os.path.join(out_dir, "series.txt")
    meta_path = os.path.join(out_dir, "series.meta.json")
    _run_stage("output", models.write_trajectory, traj, series_path, meta_path)
    print(f"wrote {series_path} and {meta_path}")
    return 0


def cmd_analyze(args) -> int:
    cfg, series, dec, h, times = _analyze(args)
    out_dir = cfg["output"]["dir"]
    reports = _run_stage("classify", spectral.classify_modes, dec, h[:, 0])
    _run_stage("output", operator.write_eigenvalue_table, dec,
               os.path.join(out_dir, "eigenvalues.txt"))
    _run_stage("output", spectral.write_mode_table, reports,
               os.path.join(out_dir, "periods.txt"))
    _run_stage("output", _table.write_table, os.path.join(out_dir, "modes.txt"),
               ["time " + " ".join(f"mode_{r.index}" for r in reports)],
               [times] + [r.time_series for r in reports])
    print(f"analyzed {len(series)} samples -> {len(h)} operator rows; "
          f"tables in {out_dir}")
    return 0


def cmd_reconstruct(args) -> int:
    cfg, _series, dec, h, times = _analyze(args)
    target = h[:, 0] if h.shape[1] == 1 else h
    wanted = cfg["reconstruct"]["indices"]
    closed = _run_stage("closure", spectral.conjugate_closure, dec, wanted)
    added = sorted(set(closed) - set(wanted))
    if added:
        print(f"notice: index set extended with conjugate partner(s) {added}")
    proj = _run_stage("project", spectral.project, dec, closed, target)
    path = os.path.join(cfg["output"]["dir"], "reconstruction.txt")
    _run_stage("output", spectral.write_projection, proj, times, path)
    print(f"wrote {path} (modes {','.join(str(i) for i in closed)})")
    return 0


def cmd_periods(args) -> int:
    _cfg, _series, dec, h, _times = _analyze(args)
    reports = _run_stage("classify", spectral.classify_modes, dec, h[:, 0])
    _run_stage("output", spectral.write_mode_table, reports, sys.stdout,
               ["%d", "%.6f", "%.6f", "%.6f", "%.6e", "%s"])
    return 0


# subcommand -> (handler, help, flags)
_COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic trajectory", _COMMON + ("drift", "delta")),
    "analyze": (cmd_analyze, "run the embedding/operator/spectral pipeline", _PIPELINE),
    "reconstruct": (cmd_reconstruct, "project the observations onto chosen modes",
                    _PIPELINE + ("indices",)),
    "periods": (cmd_periods, "print the mode/period table", _PIPELINE),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spectrend",
        description="trend/cycle extraction via delay embedding and transfer-operator spectra")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, description, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=description)
        for flag in flags:
            p.add_argument(f"--{flag}", type=_FLAGS[flag][2], help=_FLAGS[flag][3])
        p.set_defaults(fn=fn)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
