"""The README's examples run as written."""

import ast
import inspect
import json
import pathlib
import re
import shlex

import numpy as np

from spectrend import cli, data, models

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def test_library_tour_runs():
    (tour,) = code_blocks("python")
    exec(compile(tour, "README.md", "exec"), {})


def test_config_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cfg, scalar_cfg = (json.loads(block) for block in code_blocks("json"))
    (tmp_path / "run.json").write_text(json.dumps(run_cfg))
    assert cli.main(["reconstruct", "--config", "run.json"]) == 0
    assert (tmp_path / "run" / "reconstruction.txt").exists()

    ages = np.arange(300.0)
    np.savetxt(tmp_path / "record.txt", np.column_stack([ages, np.cos(ages / 7.0)]))
    (tmp_path / "scalar.json").write_text(json.dumps(scalar_cfg))
    assert cli.main(["analyze", "--config", "scalar.json", "--out", "scalar"]) == 0
    assert (tmp_path / "scalar" / "periods.txt").exists()


def test_command_lines_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    lines = [line for block in code_blocks("sh") for line in block.splitlines()
             if line.startswith("spectrend ")]
    assert len(lines) == 4
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line


def test_config_table_lists_every_schema_key():
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| .*? \| (.*?) \| (.*?) \|$", README, flags=re.M)
    listed = [(name, key) for name, key, _read_by, _default in rows]
    assert len(listed) == len(set(listed))
    assert set(listed) == {(name, key) for name, keys in cli._SCHEMA.items() for key in keys}
    # a source key's "read by" cell names the source kinds that read it
    for name, key, read_by, _default in rows:
        if name == "source":
            kinds = set(cli._SOURCE_READS) if read_by == "every kind" else set(
                re.findall(r"`(\w+)`", read_by))
            assert kinds == {kind for kind, reads in cli._SOURCE_READS.items() if key in reads}, key
    # the default cell states the schema's default: an integer, or a string or JSON in backticks
    defaults = {(name, key): default for name, key, _read_by, default in rows}
    for name, keys in cli._SCHEMA.items():
        for key, (_kind, *default) in keys.items():
            if default:
                (value,) = default
                expected = (str(value) if type(value) is int
                            else f"`{value if type(value) is str else json.dumps(value)}`")
                assert defaults[name, key] == expected, (name, key)
    # the model a synthetic source completes, and the scalar reader's own defaults
    kind = json.dumps({"kind": models.ModelConfig.kind})
    assert defaults["source", "model"] == f"`{kind}` (a synthetic source only)"
    reader = inspect.signature(data.load_scalar_record).parameters
    for key in ("time_col", "value_col", "header_rows"):
        assert defaults["source", key] == str(reader[key].default), key


def test_model_entry_lists_what_each_kind_reads():
    rows = re.findall(r"^  - `(\w+)`: (`.*`)$", README, flags=re.M)
    listed = {kind: re.findall(r"`(\w+)`", params) for kind, params in rows}
    assert len(listed) == len(rows)
    assert all(len(params) == len(set(params)) for params in listed.values())
    assert {kind: set(params) for kind, params in listed.items()} == {
        kind: reads for kind, (_steps, reads) in models._KINDS.items()}


def test_stage_table_lists_every_stage_tag():
    # every tag cli.py can print: the first argument of each _run_stage and StageError call
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    tags = {node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                "_run_stage", "StageError") and isinstance(node.args[0], ast.Constant)}
    listed = re.findall(r"^\| `([a-z-]+)` \| .*? \|$", README, flags=re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == tags
