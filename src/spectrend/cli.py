"""Command line pipeline driver.

Subcommands:

* ``synth``       -- generate a synthetic model trajectory (series + metadata)
* ``analyze``     -- embedding + operator + spectral analysis, writes tables
* ``reconstruct`` -- project the observation series onto chosen modes
* ``periods``     -- re-emit the mode/period table to stdout

Configuration comes from a JSON file (--config) with sections ``source``,
``preprocess``, ``embedding``, ``operator``, ``reconstruct`` and ``output``;
command line flags override config fields.  Before any input is read,
``[validate]`` judges each value, and each source key and model parameter
against what its kind reads; a few values, such as ``source.dt`` and an
anomaly window, only the stage that uses them judges.  Every analysis run
writes the resolved config, ``run_config.json``, which as --config replays it.
Exit status: 0 on success, 3 on a numerical failure (``NumericalError``)
and 2 on any fault of the command line, config or input, a number no float
can hold included.  Every such failure prints one ``error [stage] message``
line to stderr, and ``main`` returns its exit status; a command line that
argparse rejects is a ``[config]`` failure, and only ``--help`` raises
``SystemExit``.  Any other exception is a bug and ends in a traceback.  A
warning a stage raises prints as one ``warning [stage] message`` line.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import sys
import warnings

from . import _table, data, embed, models, operator, spectral

ENV_OUT = "SPECTREND_OUT"

# kinds of config value as (description, test); type() is exact, so a bool
# is not an int here
_POSITIVE = ("a positive integer", lambda v: type(v) is int and v >= 1)
_NONNEGATIVE = ("a nonnegative integer", lambda v: type(v) is int and v >= 0)
_NUMBER = ("a finite number", lambda v: type(v) in (int, float) and models._is_finite(v))
_STRING = ("a string", lambda v: type(v) is str)
_ANOMALY = ('{"window": [start, stop], "cycle": n}',
            lambda v: type(v) is dict and v.keys() == {"window", "cycle"}
            and type(v["cycle"]) is int and type(v["window"]) is list
            and list(map(type, v["window"])) == [int, int])

# source.kind -> the source keys that kind reads; a config that sets any
# other source key fails validation
_SOURCE_READS = {
    "synthetic": {"kind", "model"},
    "scalar": {"kind", "path", "time_col", "value_col", "header_rows", "t_start", "t_end",
               "dt", "reverse_time"},
    "field": {"kind", "path"},
}

# section -> key -> (kind,) or (kind, default).  A key without a default
# reaches the resolved config only when the config file sets it, except a
# synthetic source's model, which _validate completes.
_SCHEMA = {
    "source": {
        "kind": (("|".join(_SOURCE_READS), lambda v: type(v) is str and v in _SOURCE_READS),
                 "synthetic"),
        "model": (("a JSON object", lambda v: type(v) is dict),),
        "path": (_STRING,),
        "time_col": (_NONNEGATIVE,), "value_col": (_NONNEGATIVE,), "header_rows": (_NONNEGATIVE,),
        "t_start": (_NUMBER,), "t_end": (_NUMBER,), "dt": (_NUMBER,),
        "reverse_time": (("true or false", lambda v: type(v) is bool),)},
    "preprocess": {"anomaly": (_ANOMALY,)},
    "embedding": {"Q": (_POSITIVE, 3), "lag": (_POSITIVE, 10)},
    "operator": {"step": (_NONNEGATIVE, 1), "knn": (_POSITIVE, 25), "modes": (_POSITIVE, 12)},
    "reconstruct": {"indices": (("a nonempty list of integers",
                                 lambda v: type(v) is list and set(map(type, v)) == {int}), [1])},
    "output": {"dir": (_STRING,)},
}


def indices(text) -> list:    # --indices' type; a bad value is an "invalid indices value"
    return [int(tok) for tok in text.split(",") if tok]


# command line flag -> (config section, key, type, help); section "model" is
# the source's model, and --config, with no section, names the config file
_FLAGS = {
    "config": (None, None, str, "JSON run configuration"),
    "model": ("model", "kind", str, f"synthetic model kind ({', '.join(models._KINDS)})"),
    "steps": ("model", "n_steps", int, "synthetic run length"),
    "seed": ("model", "seed", int, "synthetic seed"),
    "out": ("output", "dir", str, f"output directory (default ${ENV_OUT} or ./spectrend_out)"),
    "Q": ("embedding", "Q", int, "number of delays"),
    "lag": ("embedding", "lag", int, "delay lag (sampling intervals)"),
    "step": ("operator", "step", int, "operator forward step"),
    "knn": ("operator", "knn", int, "neighbor count for bandwidths"),
    "modes": ("operator", "modes", int, "retained eigenpair count"),
    "indices": ("reconstruct", "indices", indices, "comma-separated 1-based mode indices"),
}
_COMMON = ("config", "model", "steps", "seed", "out")
_PIPELINE = _COMMON + ("Q", "lag", "step", "knn", "modes")


class StageError(Exception):
    def __init__(self, stage, exc):
        super().__init__(f"[{stage}] {exc}")
        self.code = 3 if isinstance(exc, operator.NumericalError) else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):    # a rejected command line is a [config] error
        raise StageError("config", ValueError(message))


def _run_stage(stage, fn, /, *args, **kwargs):
    """Run one pipeline stage, tagging failures and warnings with the stage name.

    Each warning the warning filters let through prints to stderr as one
    ``warning [stage] message`` line, also when the stage then fails; a
    filter that makes a warning an error still raises it."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            return fn(*args, **kwargs)
        except (ValueError, OSError, MemoryError, operator.NumericalError) as exc:
            raise StageError(stage, exc) from exc
        finally:
            for warning in caught:
                print(f"warning [{stage}] {warning.message}", file=sys.stderr)


def load_config(path) -> dict:
    with open(path) as f:
        try:
            cfg = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None
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
    return cfg


def _validate(cfg):
    """Judge every value by its kind, then the source keys against those its
    kind reads.  A synthetic source's model is judged by ``ModelConfig``,
    whose resolved kind is written back into it, and is returned; any other
    source needs an existing path, and None is returned."""
    for name, keys in _SCHEMA.items():
        for key, ((kind, test), *_default) in keys.items():
            if key in cfg[name] and not test(cfg[name][key]):
                raise ValueError(f"{name}.{key} must be {kind}, got {cfg[name][key]!r}")
    src = cfg["source"]
    unread = sorted(src.keys() - _SOURCE_READS[src["kind"]])
    if unread:
        raise ValueError(f"source.kind {src['kind']!r} does not read source key(s) {unread}")
    if src["kind"] == "synthetic":
        model = src.setdefault("model", {})
        names = [field.name for field in dataclasses.fields(models.ModelConfig)]
        unknown = sorted(model.keys() - set(names))
        if unknown:
            raise ValueError(f"unknown model parameter {unknown[0]!r}; "
                             f"valid names are {', '.join(names)}")
        config = models.ModelConfig(**model)
        if unread := sorted(model.keys() - {"kind", "n_steps"} - models._KINDS[config.kind][1]):
            raise ValueError(f"model kind {config.kind!r} does not read "
                             f"model parameter(s) {unread}")
        model["kind"] = config.kind
        return config
    if "path" not in src:
        raise ValueError(f"source.kind {src['kind']!r} needs source.path")
    if not os.path.exists(src["path"]):
        raise ValueError(f"source path does not exist: {src['path']!r}")


def _configure(args):
    """Merge the config once (defaults, then the file, then the flags) and
    judge it once, before any input is read or output written.  Returns it
    with the synthetic source's ``ModelConfig``, or None."""
    cfg = {name: {key: copy.deepcopy(spec[1]) for key, spec in keys.items() if len(spec) > 1}
           for name, keys in _SCHEMA.items()}
    file_cfg = _run_stage("config", load_config, args.config) if args.config else {}
    for name, section in file_cfg.items():
        cfg[name].update(section)
    for flag, (section, key, _type, _help) in _FLAGS.items():
        val = getattr(args, flag, None)
        if section is None or val is None:
            continue
        if section != "model":
            cfg[section][key] = val
        elif cfg["source"]["kind"] != "synthetic":
            raise StageError("config", ValueError(
                f"--{flag} sets the synthetic model, but source.kind is "
                f"{cfg['source']['kind']!r}"))
        elif type(cfg["source"].setdefault("model", {})) is dict:    # _validate rejects others
            cfg["source"]["model"][key] = val
    cfg["output"].setdefault("dir", os.environ.get(ENV_OUT) or "spectrend_out")
    return cfg, _run_stage("validate", _validate, cfg)


def _load_source(cfg, model) -> data.TimeSeries:
    src = cfg["source"]    # a reader option the config leaves out keeps its default
    if model is not None:
        return data.TimeSeries(samples=_run_stage("simulate", models.simulate, model).observations)
    if src["kind"] == "field":
        series, _mask = _run_stage("load", data.load_field_stack, src["path"])
        return series
    record = _run_stage("load", data.load_scalar_record, src["path"], **{
        k: src[k] for k in ("time_col", "value_col", "header_rows") if k in src})
    series = _run_stage("interpolate", data.interpolate_uniform, record, src.get("dt", 1.0),
                        src.get("t_start", record.times[0]), src.get("t_end", record.times[-1]))
    return data.reverse_time(series) if src.get("reverse_time") else series


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
    cfg, model = _configure(args)
    _run_stage("output", _write_run_config, cfg)
    series = _load_source(cfg, model)
    if "anomaly" in cfg["preprocess"]:
        anom = cfg["preprocess"]["anomaly"]
        series = _run_stage("anomalies", data.anomalies, series, tuple(anom["window"]),
                            anom["cycle"])
    emb = _run_stage("embed", embed.delay_embed, series,
                     cfg["embedding"]["Q"], cfg["embedding"]["lag"])
    opr = _run_stage("operator", operator.markov_operator, emb,
                     cfg["operator"]["step"], cfg["operator"]["knn"])
    # h and the times are views of the series; once they are read, no name
    # holds the embedding, so its cloud is freed before the eigensolve
    h = emb.align(series.samples.reshape(len(series), -1), opr.n)
    times = emb.align(series.times, opr.n)
    del emb
    modes = min(cfg["operator"]["modes"], opr.n)
    dec = _run_stage("eigendecompose", operator.eigendecompose, opr, modes)
    return cfg, series, dec, h, times


def cmd_synth(args) -> int:
    cfg, model = _configure(args)
    if model is None:
        raise StageError("validate", ValueError("synth requires a synthetic source"))
    traj = _run_stage("simulate", models.simulate, model)
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
    wanted = cfg["reconstruct"]["indices"]
    closed = _run_stage("closure", spectral.conjugate_closure, dec, wanted)
    added = sorted(set(closed) - set(wanted))
    if added:
        print(f"notice: index set extended with conjugate partner(s) {added}")
    proj = _run_stage("project", spectral.project, dec, closed, h)
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
    "synth": (cmd_synth, "generate a synthetic trajectory", _COMMON),
    "analyze": (cmd_analyze, "run the embedding/operator/spectral pipeline", _PIPELINE),
    "reconstruct": (cmd_reconstruct, "project the observations onto chosen modes",
                    _PIPELINE + ("indices",)),
    "periods": (cmd_periods, "print the mode/period table", _PIPELINE),
}


def main(argv=None) -> int:
    parser = _Parser(
        prog="spectrend",
        description="trend/cycle extraction via delay embedding and transfer-operator spectra")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, description, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=description)
        for flag in flags:
            p.add_argument(f"--{flag}", type=_FLAGS[flag][2], help=_FLAGS[flag][3])
        p.set_defaults(fn=fn)
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
