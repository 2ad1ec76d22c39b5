"""Property tests of the config: the echo round-trips over generated valid
configs, and a CLI fuzz over every field shows that a bad value exits 1
with one line naming the field, before anything is written."""

import json
import math
import re
import shutil
from dataclasses import fields

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from chocosim import cli  # noqa: E402
from chocosim.config import PROBLEM_FIELDS, X0_MODES, ExperimentConfig  # noqa: E402
from chocosim.optim import ALGORITHMS  # noqa: E402
from chocosim.problems import PARTITION_MODES  # noqa: E402

COMPRESSORS = ("identity", "sign", "topk:0.3", "gsgd:4", "gsgd:2:unbiased", "random:0.5")
FINITE = st.floats(-1e6, 1e6, allow_nan=False)
POSITIVE = st.floats(1e-6, 1.0)


def _problem_field(name, default):
    if name == "seed":
        return st.integers(0, 2**32)
    if name == "mode":
        return st.sampled_from(PARTITION_MODES)
    if name == "csv":
        return st.one_of(st.none(), st.text(max_size=8))
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(1, 10**6)
    return FINITE


@st.composite
def valid_configs(draw):
    kind = draw(st.sampled_from(sorted(PROBLEM_FIELDS)))
    problem = {"kind": kind}
    for name, default in PROBLEM_FIELDS[kind].items():
        if draw(st.booleans()):
            problem[name] = draw(_problem_field(name, default))
    # parsing builds the graph; keep it small
    problem["n"] = n = draw(st.integers(2, 16))
    data = {
        "algorithm": draw(st.sampled_from(ALGORITHMS)),
        "topology": draw(st.sampled_from([f"ring:{n}", f"full:{n}", "edgelist:g.txt"])),
        "compressor": draw(st.sampled_from(COMPRESSORS)),
        "eta": draw(st.floats(0.0, 10.0)),
        "gamma": draw(st.one_of(st.just("auto"), POSITIVE)),
        "momentum_factor": draw(st.floats(0.0, 0.99)),
        "weight_decay": draw(st.floats(0.0, 1.0)),
        "nesterov": draw(st.booleans()),
        "iterations": draw(st.integers(1, 10**6)),
        "delta_override": draw(st.one_of(st.none(), POSITIVE)),
        "seeds": draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=3)),
        "log_every": draw(st.integers(1, 100)),
        "broadcast": draw(st.booleans()),
        "per_layer": draw(st.booleans()),
        "out": draw(st.text(max_size=8)),
        "x0_mode": draw(st.sampled_from(X0_MODES if kind == "quadratic"
                                        else ("zeros", "gaussian"))),
        "x0_scale": draw(FINITE),
        "eta_grid": draw(st.one_of(st.none(), st.lists(st.floats(0.0, 10.0), min_size=1))),
        "gamma_grid": draw(st.one_of(st.none(), st.lists(POSITIVE, min_size=1))),
        "problem": problem,
    }
    # any subset of the keys is a config; the rest take their defaults
    keep = draw(st.sets(st.sampled_from(sorted(data))))
    return {key: data[key] for key in keep | {"topology", "problem"}}


@settings(max_examples=200, deadline=None)
@given(data=valid_configs())
def test_the_echo_round_trips(data):
    config = ExperimentConfig.from_dict(data)
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    assert ExperimentConfig.from_json(config.to_json()) == config


# ------------------------------------------------------------------ CLI fuzz

BAD_VALUES = ("x", True, None, [1], {}, math.nan, -1, 0)
BASE_PROBLEMS = {
    "quadratic": {"kind": "quadratic", "n": 4, "dim": 4},
    "logistic": {"kind": "logistic", "n": 4, "samples": 200, "batch": 8},
    "mlp": {"kind": "mlp", "n": 4, "samples": 128, "hidden": 4, "batch": 8},
}
TOP_LEVEL = [f.name for f in fields(ExperimentConfig)]
PROBLEM = [(kind, name) for kind in sorted(PROBLEM_FIELDS)
           for name in ("kind", *PROBLEM_FIELDS[kind])]


def _fuzz(tmp_path, capsys, monkeypatch, field, substitute):
    monkeypatch.chdir(tmp_path)  # an accepted "out" writes here
    monkeypatch.setenv("CHOCO_THREADS", "1")
    out = tmp_path / "o"
    for value in BAD_VALUES:
        config = {"topology": "ring:4", "compressor": "sign", "iterations": 3,
                  "seeds": [1], "out": str(out), "problem": dict(BASE_PROBLEMS["quadratic"])}
        substitute(config, value)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = cli.main(["run", "--config", str(path)])
        err = capsys.readouterr().err
        if code == 0:  # the field accepts this value
            shutil.rmtree(out, ignore_errors=True)
            continue
        lines = err.strip().splitlines()
        assert code == 1, (field, value, code, err)
        assert len(lines) == 1 and lines[0].startswith("error: "), (field, value, err)
        assert re.search(rf"\b{field}\b", lines[0]), (field, value, lines[0])
        assert not out.exists(), (field, value)


@pytest.mark.parametrize("field", TOP_LEVEL)
def test_a_bad_top_level_value_exits_one_naming_the_field(tmp_path, capsys, monkeypatch,
                                                          field):
    def substitute(config, value):
        config[field] = value

    _fuzz(tmp_path, capsys, monkeypatch, field, substitute)


@pytest.mark.parametrize("kind, field", PROBLEM)
def test_a_bad_problem_value_exits_one_naming_the_field(tmp_path, capsys, monkeypatch,
                                                        kind, field):
    def substitute(config, value):
        config["problem"] = dict(BASE_PROBLEMS[kind], **{field: value})

    _fuzz(tmp_path, capsys, monkeypatch, field, substitute)
