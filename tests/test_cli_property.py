"""Random JSON configs end in exit 0, or in exit 2 with a stage-tagged
error, never in a traceback, and a run that exits 0 replays from its own
``run_config.json``.

Configs are drawn from the config schema's own sections and keys, plus
unknown ones, with plausible values mixed with values of every JSON type.
The operator and eigensolve are stubbed (see ``test_formats``), so an
example costs a simulation of at most 300 steps or one small record read,
and no example can fail numerically (exit 3).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spectrend import cli, models
from spectrend.data import benthic_fixture_path
from test_formats import stub_pipeline  # noqa: F401  (fixture)

SCALARS = (st.none() | st.booleans() | st.integers(-2, 300)
           | st.sampled_from([0.5, 2.5, -1.0, 1e300, 10**400, math.nan, math.inf])
           | st.text(max_size=4).filter(lambda text: "/" not in text))
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)

MODEL_KINDS = st.sampled_from(["M", "A", "F", "Fprime"])
# values that pass the schema, so the draws also reach the later stages
PLAUSIBLE = {
    "kind": st.sampled_from(["synthetic", "scalar", "field"]),
    "path": st.sampled_from([str(benthic_fixture_path()), "stack.txt", "absent.txt", "."]),
    "time_col": st.integers(0, 2), "value_col": st.integers(0, 2),
    "header_rows": st.integers(0, 3), "t_start": st.integers(0, 50),
    "t_end": st.integers(100, 400), "dt": st.sampled_from([0.5, 1, 2.5]),
    "reverse_time": st.booleans(),
    # a window of at least one cycle inside the first 21 samples, which every
    # plausible series has (a scalar grid from t = 50 to 100 at dt = 2.5 has 21)
    "anomaly": st.builds(lambda start, width, cycle: {"window": [start, start + width],
                                                      "cycle": cycle},
                         st.integers(0, 4), st.integers(12, 17), st.integers(1, 12)),
    "Q": st.integers(1, 6), "lag": st.integers(1, 12), "step": st.integers(0, 3),
    "knn": st.integers(1, 30), "modes": st.integers(1, 12),
    # the stub decomposition has four eigenpairs
    "indices": st.lists(st.integers(1, 4), min_size=1, max_size=3), "dir": st.just("ignored"),
    # n_steps is always set, so a run simulates at most 300 steps, and a seed
    # only with a kind that reads it
    "model": st.fixed_dictionaries({"n_steps": st.integers(100, 300)},
                                   optional={"kind": MODEL_KINDS}).flatmap(
        lambda model: st.fixed_dictionaries(
            {key: st.just(value) for key, value in model.items()},
            optional={"seed": st.integers(0, 300)}
            if "seed" in models._KINDS[model.get("kind", models.ModelConfig.kind)][1] else {})),
}
WILD_MODELS = st.fixed_dictionaries(
    {"n_steps": st.integers(-1, 300) | st.just(10**400)},
    optional={"kind": MODEL_KINDS | VALUES, "seed": VALUES, "delta": VALUES, "drift": VALUES,
              "bogus": VALUES}) | SCALARS


# the path a plausible source of each kind reads
PATHS = {"synthetic": {}, "scalar": {"path": str(benthic_fixture_path())},
         "field": {"path": "stack.txt"}}


@st.composite
def configs(draw):
    """Schema keys with plausible values; a plausible source sets the keys
    its kind reads and the path of a record of that kind.  A wild draw also
    uses values of any JSON type, unknown keys and sections, and sections
    that are not objects."""
    wild = draw(st.booleans())
    kind = draw(PLAUSIBLE["kind"])
    cfg = {}
    for name, keys in cli._SCHEMA.items():
        if name == "source" and not wild:
            keys = cli._SOURCE_READS[kind] - {"kind", "path"}
        # a field source reads no key besides its kind and path
        chosen = draw(st.lists(st.sampled_from(sorted(keys)), unique=True, max_size=4)
                      if keys else st.just([]))
        cfg[name] = {key: draw(PLAUSIBLE[key] | VALUES if wild else PLAUSIBLE[key])
                     for key in chosen if key != "model"}
    if not wild:
        cfg["source"].update(kind=kind, **PATHS[kind])
    # only a synthetic source reads the model; a scalar or field one rejects it
    if wild or cfg["source"].get("kind", "synthetic") == "synthetic":
        cfg["source"]["model"] = draw(WILD_MODELS if wild else PLAUSIBLE["model"])
    if wild and draw(st.booleans()):
        name = draw(st.sampled_from(sorted(cfg) + ["bogus"]))
        if name in cfg and draw(st.booleans()):
            cfg[name]["bogus"] = draw(VALUES)
        else:
            cfg[name] = draw(VALUES)
    return cfg


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """Run directory holding a tiny field stack with one sentinel cell."""
    field = np.sin(np.arange(60 * 4 * 4) / 3.0).reshape(60 * 4, 4)
    field[1::4, 2] = -999.0
    with open(tmp_path / "stack.txt", "w") as f:
        f.write("4 4 -999\n")
        np.savetxt(f, field)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["synth", "analyze", "reconstruct", "periods"]),
       cfg=configs())
@example(command="analyze",
         cfg={"source": {"kind": "scalar", "path": str(benthic_fixture_path()), "t_end": 300}})
@example(command="periods", cfg={"source": {"kind": "field", "path": "stack.txt"}})
@example(command="reconstruct", cfg={"source": {"kind": "field", "path": "stack.txt"}})
@example(command="analyze", cfg={"source": {"model": {"n_steps": 100}}})
@example(command="reconstruct", cfg={"source": {"model": {"kind": "M", "n_steps": 200}}})
@example(command="periods", cfg={"source": {"model": {"kind": "A", "n_steps": 200}}})
@example(command="analyze", cfg={"source": {"model": {"n_steps": 5, "alpha1": 10**400}}})
@example(command="analyze", cfg={"source": {"model": {"n_steps": 5, "theta0": 1e300}}})
@example(command="synth", cfg={"source": {"model": {"kind": "M", "n_steps": 10**400}}})
def test_random_config_exits_cleanly(stub_pipeline, workdir, capsys, command, cfg):  # noqa: F811
    (workdir / "run.json").write_text(json.dumps(cfg))
    code = cli.main([command, "--config", "run.json", "--out", "out"])
    lines = capsys.readouterr().err.splitlines()
    assert code in (0, 2)
    # a failure prints one error line, last; every other line is a stage's warning
    if code == 2:
        assert lines and lines.pop().startswith("error ["), lines
    assert all(line.startswith("warning [") for line in lines), lines
    # a run's resolved config replays it (synth writes no run_config.json)
    if code == 0 and command != "synth":
        code = cli.main([command, "--config", "out/run_config.json", "--out", "replay"])
        assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("kind", sorted(PATHS))
def test_stubbed_reconstruct_can_exit_0(stub_pipeline, workdir, capsys, kind):  # noqa: F811
    # the stub's eigenvectors match its operator's rows, so a plausible
    # reconstruct draw reaches the projection and exits 0, and replays
    (workdir / "run.json").write_text(json.dumps({"source": {"kind": kind, **PATHS[kind]}}))
    for cfg, out in (("run.json", "out"), ("out/run_config.json", "replay")):
        code = cli.main(["reconstruct", "--config", cfg, "--out", out])
        assert code == 0, capsys.readouterr().err
