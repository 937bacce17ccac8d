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
import os
import sys

import numpy as np

from . import _table, data, embed, models, operator, spectral

ENV_OUT = "SPECTREND_OUT"

_DEFAULTS = {
    "source": {"kind": "synthetic", "model": {"kind": "F"}},
    "preprocess": {},
    "embedding": {"Q": 3, "lag": 10},
    "operator": {"step": 1, "knn": 25, "modes": 12},
    "reconstruct": {"indices": [1]},
    "output": {"dir": None},
}

# command line flag -> config (section, key); "model" is the source's model
_FLAGS = {"model": ("model", "kind"), "steps": ("model", "n_steps"),
          "seed": ("model", "seed"), "drift": ("model", "drift"),
          "delta": ("model", "delta"), "Q": ("embedding", "Q"),
          "lag": ("embedding", "lag"), "step": ("operator", "step"),
          "knn": ("operator", "knn"), "modes": ("operator", "modes")}

# keys a config section accepts besides those in its defaults
_OPTIONAL = {"source": {"path", "time_col", "value_col", "header_rows", "t_start",
                        "t_end", "dt", "reverse_time", "sentinel"},
             "preprocess": {"anomaly"}}


class StageError(Exception):
    def __init__(self, stage, exc, code):
        super().__init__(f"[{stage}] {exc}")
        self.code = code


def _run_stage(stage, fn, *args, **kwargs):
    """Run one pipeline stage, tagging failures with the stage name."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, OSError, KeyError, TypeError) as exc:
        raise StageError(stage, exc, 2) from exc
    except (operator.NumericalError, ArithmeticError) as exc:
        raise StageError(stage, exc, 3) from exc


def _merge(base, override):
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def load_config(path) -> dict:
    with open(path) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config root must be a JSON object")
    for name, section in cfg.items():
        if name not in _DEFAULTS:
            raise ValueError(f"{path}: unknown config section {name!r}")
        if not isinstance(section, dict):
            raise ValueError(f"{path}: config section {name!r} must be a JSON object")
        unknown = set(section) - set(_DEFAULTS[name]) - _OPTIONAL.get(name, set())
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
    cfg = copy.deepcopy(_DEFAULTS)
    if getattr(args, "config", None):
        cfg = _merge(cfg, _run_stage("config", load_config, args.config))
    for flag, (section, key) in _FLAGS.items():
        val = getattr(args, flag, None)
        if val is None:
            continue
        if section == "model":
            cfg["source"]["kind"] = "synthetic"
            cfg["source"]["model"][key] = val
        else:
            cfg[section][key] = val
    if getattr(args, "indices", None):
        cfg["reconstruct"]["indices"] = _run_stage("config", _parse_indices, args.indices)
    cfg["output"]["dir"] = getattr(args, "out", None) or cfg["output"]["dir"] \
        or os.environ.get(ENV_OUT) or "spectrend_out"
    return cfg


def _validate(cfg) -> None:
    emb = cfg["embedding"]
    op = cfg["operator"]
    for name, val in (("Q", emb["Q"]), ("lag", emb["lag"]),
                      ("knn", op["knn"]), ("modes", op["modes"])):
        if type(val) is not int or val < 1:    # bool is not an int here
            raise ValueError(f"{name} must be a positive integer, got {val!r}")
    if type(op["step"]) is not int or op["step"] < 0:
        raise ValueError(f"step must be a nonnegative integer, got {op['step']!r}")
    indices = cfg["reconstruct"]["indices"]
    if not isinstance(indices, list) or any(type(i) is not int for i in indices):
        raise ValueError(f"reconstruct indices must be a list of integers, got {indices!r}")
    src = cfg["source"]
    if src.get("kind") not in ("synthetic", "scalar", "field"):
        raise ValueError(f"source kind must be synthetic|scalar|field, got {src.get('kind')!r}")
    if src["kind"] in ("scalar", "field"):
        path = src.get("path")
        if not path or not os.path.exists(path):
            raise ValueError(f"source path does not exist: {path!r}")


def _model_config(cfg) -> models.ModelConfig:
    return models.ModelConfig(**cfg["source"].get("model", {}))


def _load_source(cfg) -> data.TimeSeries:
    src = cfg["source"]
    if src["kind"] == "synthetic":
        config = _run_stage("model-config", _model_config, cfg)
        return data.TimeSeries(samples=_run_stage("simulate", models.simulate, config).observations)
    if src["kind"] == "scalar":
        record = _run_stage("load", data.load_scalar_record, src["path"],
                            time_col=src.get("time_col", 0),
                            value_col=src.get("value_col", 1),
                            header_rows=src.get("header_rows", 0))
        t_start = src.get("t_start", record.times[0])
        t_end = src.get("t_end", record.times[-1])
        series = _run_stage("interpolate", data.interpolate_uniform,
                            record, src.get("dt", 1.0), t_start, t_end)
        return data.reverse_time(series) if src.get("reverse_time", False) else series
    series, _mask = _run_stage("load", data.load_field_stack, src["path"],
                               sentinel=src.get("sentinel"))
    return series


def _anomalies(series, anom) -> data.TimeSeries:
    if not isinstance(anom, dict) or not {"window", "cycle"} <= anom.keys():
        raise ValueError('preprocess anomaly must be {"window": [start, stop], '
                         f'"cycle": n}}, got {anom!r}')
    return data.anomalies(series, tuple(anom["window"]), int(anom["cycle"]))


def _write_run_config(cfg) -> None:
    os.makedirs(cfg["output"]["dir"], exist_ok=True)
    with open(os.path.join(cfg["output"]["dir"], "run_config.json"), "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")


def _analyze(args):
    """Resolve, check and echo the config, then run every stage up to the
    eigenpairs.  Returns (config, series, operator, decomposition, h), where
    h is the (n, d) observations aligned to the operator's rows."""
    cfg = resolve_config(args)
    _run_stage("validate", _validate, cfg)
    _run_stage("output", _write_run_config, cfg)
    series = _load_source(cfg)
    anom = cfg["preprocess"].get("anomaly")
    if anom:
        series = _run_stage("anomalies", _anomalies, series, anom)
    emb = _run_stage("embed", embed.delay_embed, series,
                     cfg["embedding"]["Q"], cfg["embedding"]["lag"])
    opr = _run_stage("operator", operator.build_operator, emb,
                     cfg["operator"]["step"], cfg["operator"]["knn"])
    modes = min(cfg["operator"]["modes"], opr.n)
    dec = _run_stage("eigendecompose", operator.eigendecompose, opr, modes)
    base = (emb.Q - 1) * emb.ell
    return cfg, series, opr, dec, np.atleast_2d(series.samples.T).T[base:base + opr.n]


def cmd_synth(args) -> int:
    cfg = resolve_config(args)
    if cfg["source"]["kind"] != "synthetic":
        raise StageError("synth", ValueError("synth requires a synthetic source"), 2)
    config = _run_stage("model-config", _model_config, cfg)
    traj = _run_stage("simulate", models.simulate, config)
    out_dir = cfg["output"]["dir"]
    _run_stage("output", os.makedirs, out_dir, exist_ok=True)
    series_path = os.path.join(out_dir, "series.txt")
    meta_path = os.path.join(out_dir, "series.meta.json")
    _run_stage("output", models.write_trajectory, traj, series_path, meta_path)
    print(f"wrote {series_path} and {meta_path}")
    return 0


def cmd_analyze(args) -> int:
    cfg, series, opr, dec, h = _analyze(args)
    out_dir = cfg["output"]["dir"]
    reports = _run_stage("classify", spectral.classify_modes, dec, h[:, 0])
    _run_stage("output", operator.write_eigenvalue_table, dec,
               os.path.join(out_dir, "eigenvalues.txt"))
    _run_stage("output", spectral.write_mode_table, reports,
               os.path.join(out_dir, "periods.txt"))
    times = dec.row_times if dec.row_times is not None else np.arange(opr.n, dtype=float)
    _run_stage("output", _table.write_table, os.path.join(out_dir, "modes.txt"),
               ["time " + " ".join(f"mode_{r.index}" for r in reports)],
               [times] + [r.time_series for r in reports])
    print(f"analyzed {len(series)} samples -> {opr.n} operator rows; "
          f"tables in {out_dir}")
    return 0


def cmd_reconstruct(args) -> int:
    cfg, _series, _opr, dec, h = _analyze(args)
    target = h[:, 0] if h.shape[1] == 1 else h
    wanted = cfg["reconstruct"]["indices"]
    closed = _run_stage("closure", spectral.conjugate_closure, dec, wanted)
    added = sorted(set(closed) - set(wanted))
    if added:
        print(f"notice: index set extended with conjugate partner(s) {added}")
    proj = _run_stage("project", spectral.project, dec, closed, target)
    path = os.path.join(cfg["output"]["dir"], "reconstruction.txt")
    _run_stage("output", spectral.write_projection, proj, path)
    print(f"wrote {path} (modes {','.join(str(i) for i in closed)})")
    return 0


def cmd_periods(args) -> int:
    _cfg, _series, _opr, dec, h = _analyze(args)
    reports = _run_stage("classify", spectral.classify_modes, dec, h[:, 0])
    spectral._write_modes(reports, sys.stdout, ["%d", "%.6f", "%.6f", "%.6f", "%.6e", "%s"])
    return 0


def _add_common(sp):
    sp.add_argument("--config", help="JSON run configuration")
    sp.add_argument("--model", help="synthetic model kind (M, A, F, Fprime)")
    sp.add_argument("--steps", type=int, help="synthetic run length")
    sp.add_argument("--seed", type=int, help="synthetic seed")
    sp.add_argument("--out", help=f"output directory (default ${ENV_OUT} or ./spectrend_out)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spectrend",
        description="trend/cycle extraction via delay embedding and transfer-operator spectra")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic trajectory")
    _add_common(p_synth)
    p_synth.add_argument("--drift", help="drift preset for kinds M/A (linear|quadratic)")
    p_synth.add_argument("--delta", type=float, help="switching parameter for kinds F/Fprime")
    p_synth.set_defaults(fn=cmd_synth)

    for name, fn, description in (
            ("analyze", cmd_analyze, "run the embedding/operator/spectral pipeline"),
            ("reconstruct", cmd_reconstruct, "project the observations onto chosen modes"),
            ("periods", cmd_periods, "print the mode/period table")):
        p = sub.add_parser(name, help=description)
        _add_common(p)
        p.add_argument("--Q", type=int, help="number of delays")
        p.add_argument("--lag", type=int, help="delay lag (sampling intervals)")
        p.add_argument("--step", type=int, help="operator forward step")
        p.add_argument("--knn", type=int, help="neighbor count for bandwidths")
        p.add_argument("--modes", type=int, help="retained eigenpair count")
        if name == "reconstruct":
            p.add_argument("--indices", help="comma-separated 1-based mode indices")
        p.set_defaults(fn=fn)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return exc.code
    except operator.NumericalError as exc:
        print(f"error [numeric] {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
