import io
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import spectrend
from spectrend import models
from spectrend.cli import main
from spectrend.data import (
    benthic_fixture_path,
    interpolate_uniform,
    load_scalar_record,
    reverse_time,
)
from spectrend.embed import delay_embed
from test_operator import dense_calls  # noqa: F401  (fixture)

BENTHIC = str(benthic_fixture_path())

# every subcommand's flags and help texts, in the order --help lists them
COMMON_HELP = [
    ("--config", "JSON run configuration"),
    ("--model", "synthetic model kind (M, A, F, Fprime)"),
    ("--steps", "synthetic run length"),
    ("--seed", "synthetic seed"),
    ("--out", "output directory (default $SPECTREND_OUT or ./spectrend_out)"),
]
PIPELINE_HELP = COMMON_HELP + [
    ("--Q", "number of delays"),
    ("--lag", "delay lag (sampling intervals)"),
    ("--step", "operator forward step"),
    ("--knn", "neighbor count for bandwidths"),
    ("--modes", "retained eigenpair count"),
]
HELP = {
    "synth": COMMON_HELP + [
        ("--drift", "drift preset for kinds M/A (linear|quadratic)"),
        ("--delta", "switching parameter for kinds F/Fprime"),
    ],
    "analyze": PIPELINE_HELP,
    "reconstruct": PIPELINE_HELP + [("--indices", "comma-separated 1-based mode indices")],
    "periods": PIPELINE_HELP,
}


def read_table(path, **kw):
    return np.loadtxt(path, **kw)


class TestSynth:
    def test_writes_exactly_two_files(self, tmp_path):
        out = tmp_path / "o"
        assert main(["synth", "--model", "F", "--steps", "2000", "--seed", "7",
                     "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["series.meta.json", "series.txt"]

    def test_drift_model_starts_at_one(self, tmp_path):
        out = tmp_path / "o"
        assert main(["synth", "--model", "M", "--drift", "linear",
                     "--out", str(out)]) == 0
        data = read_table(out / "series.txt")
        assert data[0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_invalid_delta_exits_2(self, tmp_path, capsys):
        code = main(["synth", "--model", "F", "--delta", "1.5",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "delta" in capsys.readouterr().err

    def test_metadata_reproduces_series(self, tmp_path):
        out = tmp_path / "o"
        main(["synth", "--model", "F", "--steps", "300", "--seed", "5",
              "--out", str(out)])
        meta = json.loads((out / "series.meta.json").read_text())
        out2 = tmp_path / "o2"
        main(["synth", "--model", meta["model"]["kind"],
              "--steps", str(meta["model"]["n_steps"]),
              "--seed", str(meta["model"]["seed"]), "--out", str(out2)])
        assert (out / "series.txt").read_bytes() == (out2 / "series.txt").read_bytes()

    @pytest.mark.parametrize("kind", ["M", "A", "F", "Fprime"])
    def test_metadata_model_is_a_source_model(self, tmp_path, kind):
        out = tmp_path / "o"
        assert main(["synth", "--model", kind, "--steps", "300", "--out", str(out)]) == 0
        model = json.loads((out / "series.meta.json").read_text())["model"]
        assert model.keys() == {"kind", "n_steps"} | models._KINDS[kind][1]
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"source": {"model": model}}))
        out2 = tmp_path / "o2"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert (out / "series.txt").read_bytes() == (out2 / "series.txt").read_bytes()

    def test_sections_it_does_not_use_are_validated(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"embedding": {"Q": True},
                                        "reconstruct": {"indices": "x"}}))
        code = main(["synth", "--steps", "100", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error [validate]")
        assert not (tmp_path / "o").exists()

    def test_env_var_default_output(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("SPECTREND_OUT", str(target))
        assert main(["synth", "--model", "M", "--steps", "50"]) == 0
        assert (target / "series.txt").exists()

    def test_non_synthetic_source_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"source": {"kind": "scalar", "path": BENTHIC}}))
        out = tmp_path / "o"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error [validate] synth requires a synthetic source")
        assert not out.exists()


@pytest.mark.parametrize("command", list(HELP))
def test_help_lists_each_flag_with_its_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "200")    # one line per flag
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    pairs = [re.fullmatch(r"\s+(--\S+) \S+\s+(.*)", line).groups()
             for line in capsys.readouterr().out.splitlines() if line.lstrip().startswith("--")]
    assert pairs == HELP[command]


TYPED_FLAGS = {"--steps", "--seed", "--delta", "--Q", "--lag", "--step", "--knn", "--modes",
               "--indices"}
REJECTED_COMMAND_LINES = [
    pytest.param(command, [flag, bad], (flag, f"'{bad}'"), id=f"{command}{flag}")
    for command, flags in HELP.items() for flag, _help in flags if flag in TYPED_FLAGS
    for bad in ["2,x" if flag == "--indices" else "abc"]
] + [
    pytest.param("analyze", ["--bogus", "1"], ("--bogus",), id="unknown-flag"),
    pytest.param("analyze", ["--mod", "F"], ("--mod",), id="ambiguous-flag"),
    pytest.param("analyze", ["--Q"], ("--Q",), id="flag-without-value"),
    pytest.param("analyse", [], ("'analyse'",), id="misspelled-command"),
    pytest.param(None, [], ("command",), id="no-command"),
]


@pytest.mark.parametrize("command, rest, named", REJECTED_COMMAND_LINES)
def test_rejected_command_line_is_a_config_error(tmp_path, capsys, monkeypatch, command, rest,
                                                 named):
    # argparse's own rejections take the stage-error path: one line, exit 2, no output
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SPECTREND_OUT", raising=False)
    argv = [] if command is None else [command, "--out", "o", *rest]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [config] ") and err.count("\n") == 1, err
    assert all(name in err for name in named), err
    assert list(tmp_path.iterdir()) == []


def test_module_entry_point_returns_the_exit_code(tmp_path):
    src = str(pathlib.Path(spectrend.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    out = tmp_path / "o"
    proc = subprocess.run([sys.executable, "-m", "spectrend.cli", "analyze", "--Q", "0",
                           "--out", str(out)], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error [validate] embedding.Q must be a positive integer")
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "analyze"])
def test_output_dir_below_a_file_exits_2(tmp_path, capsys, command):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    code = main([command, "--model", "F", "--steps", "300", "--out", str(blocker / "sub")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error [output]")


@pytest.mark.parametrize("command", ["synth", "analyze", "reconstruct", "periods"])
def test_bad_model_parameter_exits_before_any_output(tmp_path, capsys, command):
    out = tmp_path / "o"
    assert main([command, "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error [validate] seed must be a nonnegative integer, got -1")
    assert not out.exists()


@pytest.mark.parametrize("argv, kind, name", [
    # a source.model object stands for a config file whose model it is, with 300 steps
    (["analyze", {"kind": "M", "delta": 0.5}], "M", "delta"),
    (["analyze", {"kind": "M", "seed": 3}], "M", "seed"),
    (["analyze", {"kind": "A", "alpha1": 0.2}], "A", "alpha1"),
    (["analyze", {"kind": "F", "drift": "quadratic"}], "F", "drift"),
    (["analyze", {"kind": "F", "a": 2}], "F", "a"),
    (["analyze", {"kind": "Fprime", "alpha": 0.2}], "Fprime", "alpha"),
    (["analyze", {"kind": "M", "theta2_0": 1}], "M", "theta2_0"),
    (["synth", "--model", "F", "--drift", "linear"], "F", "drift"),
    (["synth", "--model", "M", "--delta", "0.01"], "M", "delta"),
    (["analyze", "--model", "M", "--seed", "3"], "M", "seed"),
])
def test_model_parameter_its_kind_does_not_read_exits_2(tmp_path, capsys, argv, kind, name):
    if isinstance(argv[-1], dict):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"source": {"model": {"n_steps": 300, **argv[-1]}}}))
        argv = argv[:-1] + ["--config", str(cfg_path)]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error [validate] model kind {kind!r} does not read model parameter(s) [{name!r}]\n")
    assert not out.exists()


@pytest.mark.parametrize("command, table", [("synth", "series.txt"),
                                            ("analyze", "eigenvalues.txt"),
                                            ("reconstruct", "reconstruction.txt")])
def test_unwritable_table_exits_2(tmp_path, capsys, command, table):
    out = tmp_path / "o"
    (out / table).mkdir(parents=True)
    code = main([command, "--model", "F", "--steps", "300", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error [output]")


@pytest.mark.parametrize("line, column, bad, reverse", [
    (51, 1, np.nan, True),      # a value, which the reversed grid would put at index 349
    (101, 0, np.nan, False),    # a time
    (11, 0, np.inf, False),     # a time, which sorting would move to the end
])
def test_non_finite_input_is_stage_tagged(tmp_path, capfd, line, column, bad, reverse):
    t = np.arange(400.0)
    rows = np.column_stack([t, np.sin(2.0 * np.pi * t / 23.0)])
    rows[line - 1, column] = bad
    record = tmp_path / "record.txt"
    np.savetxt(record, rows)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"source": {"kind": "scalar", "path": str(record),
                                               "reverse_time": reverse},
                                    "embedding": {"Q": 3, "lag": 2},
                                    "operator": {"knn": 8, "modes": 6}}))
    assert main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    captured = capfd.readouterr()
    # a warning would print its `warning [stage]` line ahead of the error
    assert captured.err.startswith(
        f"error [load] {record}: non-finite time or value at line {line}: ")
    assert "DLASCL" not in captured.out and "illegal value" not in captured.out


def test_stage_warning_prints_one_tagged_line(tmp_path, capsys):
    # a record stored oldest-first warns while it loads, and the run goes on
    t = np.arange(400.0)[::-1]
    record = tmp_path / "record.txt"
    np.savetxt(record, np.column_stack([t, np.sin(2.0 * np.pi * t / 23.0)]))
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"source": {"kind": "scalar", "path": str(record)},
                                    "embedding": {"Q": 3, "lag": 2},
                                    "operator": {"knn": 8, "modes": 6}}))
    assert main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == f"warning [load] {record}: times not ascending; sorting\n"


@pytest.mark.parametrize("command", ["synth", "analyze"])
def test_model_flag_with_record_source_exits_2(tmp_path, capsys, command):
    cfg_path = tmp_path / "scalar.json"
    cfg_path.write_text(json.dumps({"source": {"kind": "scalar", "path": BENTHIC}}))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg_path), "--seed", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error [config] --seed sets the synthetic model, but source.kind is 'scalar'")
    assert not out.exists()


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_extreme_scale_matches_unit_scale(tmp_path, capsys, scale):
    # unscaled, the squared distances of these records overflow or underflow
    eigs = []
    for factor in (1.0, scale):
        t = np.arange(400.0)
        record = tmp_path / f"record_{factor}.txt"
        np.savetxt(record, np.column_stack([t, factor * np.sin(2.0 * np.pi * t / 23.0)]))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"source": {"kind": "scalar", "path": str(record)},
                                        "embedding": {"Q": 3, "lag": 2},
                                        "operator": {"knn": 8, "modes": 6}}))
        out = tmp_path / f"o_{factor}"
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 0
        eigs.append(read_table(out / "eigenvalues.txt", usecols=(1, 2)))
    np.testing.assert_allclose(eigs[1], eigs[0], rtol=0, atol=1e-12)
    # an overflow or underflow warning would print a `warning [stage]` line
    assert capsys.readouterr().err == ""


def test_constant_record_exits_3(tmp_path, capsys):
    # every delay vector coincides, so every K-th neighbor distance is zero
    record = tmp_path / "record.txt"
    np.savetxt(record, np.column_stack([np.arange(200.0), np.full(200, 4.2)]))
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"source": {"kind": "scalar", "path": str(record)},
                                    "embedding": {"Q": 3, "lag": 2},
                                    "operator": {"knn": 8, "modes": 6}}))
    assert main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("error [operator] zero bandwidth")


class TestAnalyze:
    def test_default_switching_run_tables(self, tmp_path, dense_calls):  # noqa: F811
        out = tmp_path / "o"
        assert main(["analyze", "--model", "F", "--out", str(out)]) == 0
        assert dense_calls == []    # the leading modes come from ARPACK alone
        for name in ("eigenvalues.txt", "periods.txt", "modes.txt", "run_config.json"):
            assert (out / name).exists(), name
        eigs = read_table(out / "eigenvalues.txt")
        assert eigs[0, 3] == pytest.approx(1.0, abs=1e-10)  # modulus of mode 1
        periods = read_table(out / "periods.txt", usecols=(0, 1, 2, 4))
        with open(out / "periods.txt") as f:
            rows = [line.split() for line in f if not line.startswith("#")]
        osc = [float(r[3]) for r in rows if r[5] == "oscillatory"]
        assert any(abs(p - 40.39) < 2.5 for p in osc)
        assert any(abs(p - 94.95) < 2.5 for p in osc)

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["analyze", "--model", "F", "--steps", "600", "--knn", "15"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("eigenvalues.txt", "periods.txt", "modes.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = {"source": {"kind": "synthetic",
                          "model": {"kind": "F", "n_steps": 500, "seed": 2}},
               "operator": {"knn": 12, "modes": 8}}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["analyze", "--config", str(cfg_path), "--steps", "600",
                     "--out", str(out)]) == 0
        resolved = json.loads((out / "run_config.json").read_text())
        assert resolved["source"]["model"]["n_steps"] == 600  # flag wins
        assert resolved["operator"]["knn"] == 12              # config survives
        n_rows = read_table(out / "modes.txt").shape[0]
        assert n_rows == 600 - 2 * 10 - 1

    def test_unknown_config_section_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"sources": {}}))
        code = main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown config section" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg", [[1, 2], {"operator": 3}], ids=["root", "section"])
    def test_non_object_config_exits_2(self, tmp_path, capsys, cfg):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error [config]") and "must be a JSON object" in err

    def test_deeply_nested_config_exits_2(self, tmp_path, capsys):
        # json.load recurses once per level and raises RecursionError here
        cfg_path = tmp_path / "deep.json"
        cfg_path.write_text('{"source": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code = main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error [config] {cfg_path}: JSON nested too deeply to parse\n"
        assert not (tmp_path / "o").exists()

    def test_oversized_grid_exits_2_before_allocating(self, tmp_path, capsys, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("np.arange reached")

        monkeypatch.setattr(np, "arange", no_grid)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"source": {"kind": "scalar", "path": BENTHIC,
                                                   "dt": 1e-6}}))
        code = main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error [interpolate] a grid of 3e+09 points at dt=1e-06")

    @pytest.mark.parametrize("cfg, tag", [
        # the config shape an earlier README showed: model as a bare string
        ({"source": {"kind": "synthetic", "model": "F", "n_steps": 2000, "seed": 11}},
         "[config]"),
        ({"source": {"model": "F"}}, "[validate]"),
        ({"operator": {"stepz": 3}}, "[config]"),
        ({"operator": {"knn": True}}, "[validate]"),
        ({"embedding": {"Q": True}}, "[validate]"),
        ({"reconstruct": {"indices": [True]}}, "[validate]"),
        ({"reconstruct": {"indices": []}}, "[validate]"),
        ({"source": {"kind": "scalar", "path": BENTHIC, "reverse_time": "false"}}, "[validate]"),
        ({"source": {"kind": "scalar", "path": BENTHIC, "time_col": True}}, "[validate]"),
        ({"source": {"kind": "scalar", "path": BENTHIC, "header_rows": -1}}, "[validate]"),
        ({"source": {"kind": "scalar", "path": BENTHIC, "dt": "1"}}, "[validate]"),
        ({"source": {"kind": "scalar", "path": BENTHIC, "dt": float("nan")}}, "[validate]"),
        # a grid of 3e15 points exceeds 1000 points per record sample and is
        # rejected before it is allocated
        ({"source": {"kind": "scalar", "path": BENTHIC, "dt": 1e-12}}, "[interpolate]"),
        ({"source": {"kind": "scalar", "path": BENTHIC, "t_start": 500, "t_end": 100}},
         "[interpolate]"),
        pytest.param({"source": {"kind": "scalar"}},
                     "[validate] source.kind 'scalar' needs source.path", id="cfg14-[validate]"),
        pytest.param({"source": {"kind": "field"}},
                     "[validate] source.kind 'field' needs source.path", id="cfg15-[validate]"),
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, cfg, tag):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error {tag}")
        if tag.startswith(("[config]", "[validate]")):
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("anomaly", [
        {"cycle": 12}, {"window": [0, 120]}, 12,
        {"window": [0, 120], "cycle": 12.7}, {"window": [0, 120.5], "cycle": 12},
        {"window": [0, 120], "cycle": True}, {"window": [0, 120], "cycle": 12, "phase": 3},
    ])
    def test_incomplete_anomaly_config_exits_2(self, tmp_path, capsys, monkeypatch, anomaly):
        def no_source(*args, **kwargs):
            raise AssertionError("the source was read")

        monkeypatch.setattr(models, "simulate", no_source)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"preprocess": {"anomaly": anomaly}}))
        code = main(["analyze", "--steps", "300", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error [validate] preprocess.anomaly") and "window" in err
        assert not (tmp_path / "o").exists()

    def test_anomaly_window_outside_series_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"preprocess": {"anomaly": {"window": [0, 400],
                                                                   "cycle": 12}}}))
        code = main(["analyze", "--steps", "300", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error [anomalies] window (0, 400) outside series of length 300")

    def test_anomaly_preprocess(self, tmp_path):
        anomaly = {"window": [0, 120], "cycle": 12}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"preprocess": {"anomaly": anomaly}}))
        out = tmp_path / "o"
        assert main(["analyze", "--steps", "300", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        resolved = json.loads((out / "run_config.json").read_text())
        assert resolved["preprocess"] == {"anomaly": anomaly}
        assert (out / "modes.txt").exists()

    def test_non_string_output_dir_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPECTREND_OUT", str(tmp_path / "o"))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"output": {"dir": False}}))
        assert main(["analyze", "--steps", "300", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error [validate] output.dir")

    def test_json_syntax_error_names_the_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("{bad}")
        code = main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error [config] {cfg_path}: Expecting property name enclosed in double quotes")

    def test_unknown_model_parameter_is_named(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"source": {"model": {"kind": "F", "bogus": 1}}}))
        code = main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error [validate] unknown model parameter 'bogus'; "
                              "valid names are kind, n_steps, alpha,")
        assert not (tmp_path / "o").exists()

    def test_bool_step_count_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"source": {"model": {"kind": "F", "n_steps": True}}}))
        assert main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "[validate]" in capsys.readouterr().err

    def test_embedding_too_long_exits_2(self, tmp_path, capsys):
        code = main(["analyze", "--model", "F", "--Q", "300", "--lag", "10",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "[embed]" in err and "too short" in err

    def test_missing_source_file_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(
            {"source": {"kind": "scalar", "path": str(tmp_path / "absent.txt")}}))
        code = main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_field_stack_without_surviving_gridpoint_exits_2(self, tmp_path, capsys):
        # each cell hits the sentinel in some snapshot, none in all of them
        stack = tmp_path / "stack.txt"
        stack.write_text("2 2 -999\n-999 1\n2 3\n4 -999\n5 6\n7 8\n-999 9\n"
                         "1 2\n3 -999\n")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"source": {"kind": "field", "path": str(stack)}}))
        code = main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error [load]") and "sentinel -999.0" in err

    @pytest.mark.parametrize("sentinel, bad, code", [
        ("nan", np.nan, 0), ("-999", np.nan, 2), ("-999", np.inf, 2)])
    def test_field_stack_non_finite_cell(self, tmp_path, capsys, sentinel, bad, code):
        field = np.random.default_rng(0).standard_normal((300, 3, 4))
        field[5, 1, 2] = bad
        stack = tmp_path / "stack.txt"
        with open(stack, "w") as f:
            f.write(f"3 4 {sentinel}\n")
            np.savetxt(f, field.reshape(-1, 4))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"source": {"kind": "field", "path": str(stack)}}))
        assert main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == code
        if code:
            err = capsys.readouterr().err
            assert err.startswith("error [load]") and "snapshot 5, row 1, column 2" in err

    @pytest.mark.parametrize("header, body, message", [
        ("0 4 -999", "1 2 3 4\n", "header grid must be at least 1x1, got 0x4"),
        ("2 0 -999", "1 2 3 4\n", "header grid must be at least 1x1, got 2x0"),
        ("-2 4 -999", "1 2 3 4\n", "header grid must be at least 1x1, got -2x4"),
        ("2 2 -999", "", "no snapshot rows after the header"),
        ("2.5 4 -999", "1 2 3 4\n", "header must be 'ny nx sentinel', got ['2.5', '4', '-999']"),
        ("2 4 none", "1 2 3 4\n", "header must be 'ny nx sentinel', got ['2', '4', 'none']"),
    ], ids=["zero-rows", "zero-columns", "negative-rows", "header-only", "fractional-rows",
            "text-sentinel"])
    def test_malformed_field_stack_exits_2(self, tmp_path, capsys, header, body, message):
        stack = tmp_path / "stack.txt"
        stack.write_text(f"{header}\n{body}")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"source": {"kind": "field", "path": str(stack)}}))
        assert main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        # the one line is the error: no `warning [stage]` line precedes it
        assert capsys.readouterr().err == f"error [load] {stack}: {message}\n"

    @pytest.mark.parametrize("kind, key, value", [
        ("field", "dt", 0.5), ("field", "reverse_time", True), ("field", "t_start", 0),
        ("synthetic", "dt", 2.0), ("synthetic", "path", "record.txt"),
        ("scalar", "sentinel", -999.0), ("scalar", "model", {"kind": "F"}),
    ])
    def test_source_key_its_kind_does_not_read_exits_2(self, tmp_path, capsys, kind, key,
                                                       value):
        field = np.sin(np.arange(120 * 3 * 3) / 5.0).reshape(120 * 3, 3)
        stack = tmp_path / "stack.txt"
        with open(stack, "w") as f:
            f.write("3 3 -999\n")
            np.savetxt(f, field)
        source = {"kind": kind, **{"field": {"path": str(stack)}, "scalar": {"path": BENTHIC},
                                   "synthetic": {"model": {"n_steps": 300}}}[kind], key: value}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"source": source, "operator": {"knn": 8, "modes": 4}}))
        out = tmp_path / "o"
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error [validate] source.kind {kind!r} does not read source key(s) [{key!r}]\n")
        assert not out.exists()

    def test_time_columns_are_the_aligned_source_times(self, tmp_path):
        # integer dt, t_start and t_end, reversed: row times are floats counted
        # back from the present, starting at the newest sample of row 0
        cfg = {"source": {"kind": "scalar", "path": BENTHIC, "dt": 2, "t_start": 10,
                          "t_end": 2000, "reverse_time": True},
               "embedding": {"Q": 3, "lag": 5},
               "operator": {"step": 2, "knn": 7, "modes": 6}}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        series = reverse_time(interpolate_uniform(load_scalar_record(BENTHIC), 2, 10, 2000))
        emb = delay_embed(series, 3, 5)
        times = emb.align(series.times, emb.n_points - 2)
        for argv, table in [(["analyze"], "modes.txt"),
                            (["reconstruct", "--indices", "2"], "reconstruction.txt")]:
            out = tmp_path / argv[0]
            assert main(argv + ["--config", str(cfg_path), "--out", str(out)]) == 0
            column = [line.split()[0] for line in (out / table).read_text().splitlines()
                      if not line.startswith("#")]
            assert all(re.fullmatch(r"-?\d\.\d{17}e[+-]\d\d", text) for text in column)
            np.testing.assert_array_equal(np.array(column, dtype=float), times)

    def test_benthic_fixture_pipeline(self, tmp_path):
        cfg = {"source": {"kind": "scalar", "path": BENTHIC,
                          "dt": 1.0, "t_start": 0.0, "t_end": 3000.0,
                          "reverse_time": True},
               "embedding": {"Q": 5, "lag": 10},
               "operator": {"step": 7, "knn": 7, "modes": 12}}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 0
        eigs = read_table(out / "eigenvalues.txt")
        assert eigs[1, 3] == pytest.approx(0.9632, abs=0.02)  # second modulus


class TestReconstruct:
    def test_single_pair_member_auto_closed(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["reconstruct", "--model", "F", "--steps", "600",
                     "--knn", "15", "--indices", "2", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "notice" in captured and "conjugate" in captured
        header = (out / "reconstruction.txt").read_text().splitlines()[0]
        assert "real=yes" in header

    def test_constant_mode_projection_constant(self, tmp_path):
        out = tmp_path / "o"
        assert main(["reconstruct", "--model", "F", "--steps", "600",
                     "--knn", "15", "--indices", "1", "--out", str(out)]) == 0
        data = read_table(out / "reconstruction.txt")
        assert np.ptp(data[:, 1]) < 1e-8 * max(1.0, abs(data[:, 1].mean()))

    def test_unknown_index_exits_2(self, tmp_path, capsys):
        code = main(["reconstruct", "--model", "F", "--steps", "600",
                     "--knn", "15", "--indices", "99", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_empty_mode_set_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["reconstruct", "--steps", "300", "--indices", ",", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [validate]") and "nonempty" in err
        assert not (out / "reconstruction.txt").exists()

    @pytest.mark.parametrize("flag, value, tag", [("--indices", "", "[validate]"),
                                                  ("--out", "", "[output]")])
    def test_empty_flag_value_is_not_ignored(self, tmp_path, capsys, flag, value, tag):
        # like every other flag, an empty value overrides the config; it is not dropped
        argv = ["reconstruct", "--steps", "300", "--out", str(tmp_path / "o"), flag, value]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error {tag}")

    def test_field_stack_reconstruction(self, tmp_path):
        n_t, ny, nx = 120, 6, 6
        t = np.arange(n_t)[:, None, None]
        yy, xx = np.mgrid[0:ny, 0:nx]
        field = np.sin(2.0 * np.pi * t / 12.0 + 0.4 * (yy + xx)) + 0.02 * t * (yy < 2)
        field[:, 4, 1] = -999.0
        stack = tmp_path / "stack.txt"
        with open(stack, "w") as f:
            f.write(f"{ny} {nx} 1e30\n")     # the config's sentinel overrides this one
            np.savetxt(f, field.reshape(-1, nx))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"source": {"kind": "field", "path": str(stack),
                                                   "sentinel": -999.0},
                                        "embedding": {"Q": 2, "lag": 3},
                                        "operator": {"knn": 8, "modes": 6}}))
        out = tmp_path / "o"
        assert main(["reconstruct", "--config", str(cfg_path), "--indices", "2",
                     "--out", str(out)]) == 0
        header = (out / "reconstruction.txt").read_text().splitlines()[0]
        assert header.startswith("# modes 2") and header.endswith("real=yes")
        table = read_table(out / "reconstruction.txt")
        assert table.shape == (n_t - 3 - 1, 1 + ny * nx - 1)    # time + kept cells

    def test_non_integer_index_exits_2(self, tmp_path, capsys):
        code = main(["reconstruct", "--model", "F", "--steps", "300",
                     "--indices", "2,x", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error [config]") and "'2,x'" in err


class TestPeriods:
    def test_prints_mode_table(self, tmp_path, capsys):
        assert main(["periods", "--model", "F", "--steps", "600",
                     "--knn", "15", "--out", str(tmp_path / "o")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("# j")
        first = lines[1].split()
        assert first[0] == "1" and first[3] == "inf" and first[5] == "constant"
        kinds = {line.split()[5] for line in lines[1:]}
        assert "oscillatory" in kinds

    def test_closed_stdout_exits_2(self, tmp_path, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["periods", "--model", "F", "--steps", "300",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error [output]")

    def test_writes_config_sidecar(self, tmp_path):
        out = tmp_path / "o"
        main(["periods", "--model", "F", "--steps", "600", "--knn", "15",
              "--out", str(out)])
        resolved = json.loads((out / "run_config.json").read_text())
        assert resolved["embedding"] == {"Q": 3, "lag": 10}


def write_replay_sources(tmp_path):
    """A small scalar record and a field stack with one sentinel cell."""
    ages = np.arange(400.0)
    np.savetxt(tmp_path / "record.txt", np.column_stack([ages, np.cos(ages / 7.0) + ages / 300]))
    t = np.arange(100)[:, None, None]
    yy, xx = np.mgrid[0:4, 0:4]
    field = np.sin(2.0 * np.pi * t / 12.0 + 0.4 * (yy + xx))
    field[:, 2, 1] = -999.0
    with open(tmp_path / "stack.txt", "w") as f:
        f.write("4 4 -999\n")
        np.savetxt(f, field.reshape(-1, 4))


@pytest.mark.parametrize("argv, source", [
    (["analyze", "--steps", "300"], None),
    (["analyze"], {"kind": "scalar", "path": "record.txt", "dt": 2, "reverse_time": True}),
    (["reconstruct", "--indices", "2"], {"kind": "field", "path": "stack.txt"}),
], ids=["synthetic", "scalar", "field"])
def test_run_config_replays_the_run(tmp_path, monkeypatch, argv, source):
    monkeypatch.chdir(tmp_path)
    write_replay_sources(tmp_path)
    if source is not None:
        (tmp_path / "run.json").write_text(json.dumps({
            "source": source, "embedding": {"Q": 2, "lag": 3},
            "operator": {"knn": 8, "modes": 6}}))
        argv = argv + ["--config", "run.json"]
    assert main(argv + ["--out", "first"]) == 0
    assert main([argv[0], "--config", "first/run_config.json", "--out", "replay"]) == 0
    first, replay = tmp_path / "first", tmp_path / "replay"
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in replay.iterdir())
    for name in names:
        if name != "run_config.json":
            assert (first / name).read_bytes() == (replay / name).read_bytes(), name
    configs = [json.loads((d / "run_config.json").read_text()) for d in (first, replay)]
    for cfg in configs:
        del cfg["output"]["dir"]
    assert configs[0] == configs[1]


# a source key or model parameter set to an int no float can hold, and the
# name its [validate] message gives
TOO_BIG = 10**400
UNFLOATABLE = {
    "t_start": ({"kind": "scalar", "path": BENTHIC, "t_start": TOO_BIG}, "source.t_start"),
    "t_end": ({"kind": "scalar", "path": BENTHIC, "t_end": TOO_BIG}, "source.t_end"),
    "dt": ({"kind": "scalar", "path": BENTHIC, "dt": TOO_BIG}, "source.dt"),
    "sentinel": ({"kind": "field", "path": "stack.txt", "sentinel": TOO_BIG}, "source.sentinel"),
    "alpha1": ({"model": {"alpha1": TOO_BIG}}, "alpha1"),
    "delta": ({"model": {"delta": TOO_BIG}}, "delta"),
    "x0": ({"model": {"x0": TOO_BIG}}, "x0"),
    "drift": ({"model": {"kind": "M", "drift": [0.0, TOO_BIG, 0.0]}}, "drift"),
    "n_steps": ({"model": {"kind": "M", "n_steps": TOO_BIG}}, "n_steps"),
}


@pytest.mark.parametrize("source, named", UNFLOATABLE.values(), ids=UNFLOATABLE)
def test_number_no_float_holds_exits_2_before_any_output(tmp_path, monkeypatch, capsys, source,
                                                         named):
    monkeypatch.chdir(tmp_path)
    write_replay_sources(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps({"source": source}))
    assert main(["analyze", "--config", "run.json", "--out", "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error [validate] {named} must be ") and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("exc_type", [KeyError, TypeError, OverflowError])
def test_other_exception_in_a_stage_propagates(tmp_path, monkeypatch, exc_type):
    # bad input raises ValueError or OSError and a numerical failure
    # NumericalError; anything else is a bug, not an exit code
    def build_operator(*args, **kwargs):
        raise exc_type("bug")

    monkeypatch.setattr(spectrend.operator, "build_operator", build_operator)
    with pytest.raises(exc_type):
        main(["analyze", "--steps", "300", "--out", str(tmp_path / "o")])
