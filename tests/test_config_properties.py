"""Property tests of the config: the echo round-trips over generated valid
configs, and a CLI fuzz over every field shows that a bad value exits 1
with one line naming the field, before anything is written."""

import json
import math
import os
import re
import shutil
import warnings
from dataclasses import fields

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from chocosim import cli  # noqa: E402
from chocosim.compression import COMPRESSOR_TABLE  # noqa: E402
from chocosim.config import PROBLEM_FIELDS, X0_MODES, ExperimentConfig  # noqa: E402
from chocosim.optim import ALGORITHM_TABLE, ALGORITHMS  # noqa: E402
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
        "topology": draw(st.sampled_from([f"ring:{n}", f"full:{n}", f"edgelist:path{n}.txt"])),
        "compressor": draw(st.sampled_from(COMPRESSORS)),
        "eta": draw(st.floats(0.0, 10.0)),
        "gamma": draw(st.one_of(st.just("auto"), POSITIVE)),
        "momentum_factor": draw(st.floats(0.0, 0.99)),
        "weight_decay": draw(st.floats(0.0, 1.0)),
        "nesterov": draw(st.booleans()),
        "iterations": draw(st.integers(1, 10**6)),
        "delta_override": draw(st.one_of(st.none(), POSITIVE)),
        "seeds": draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=3, unique=True)),
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
    # any subset of the keys is a config; the rest take their defaults. An
    # option group is kept only for an algorithm whose row reads it
    keep = draw(st.sets(st.sampled_from(sorted(data))))
    row = ALGORITHM_TABLE[data["algorithm"] if "algorithm" in keep else ExperimentConfig.algorithm]
    if "velocity" not in row.keeps:
        keep -= {"momentum_factor", "weight_decay", "nesterov"}
    if not row.compressed:
        keep -= {"gamma", "delta_override", "gamma_grid"}
    # delta_override only for the theory stepsize: gamma "auto" and no grid
    gamma_grid = data["gamma_grid"] if "gamma_grid" in keep else None
    if "gamma" in keep and data["gamma"] != "auto" or gamma_grid is not None:
        keep.discard("delta_override")
    return {key: data[key] for key in keep | {"topology", "problem"}}


@pytest.fixture(scope="module")
def edge_lists(tmp_path_factory):
    """A path graph of each node count ``valid_configs`` draws, as an edge-list file."""
    root = tmp_path_factory.mktemp("edge_lists")
    for n in range(2, 17):
        (root / f"path{n}.txt").write_text("".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    return root


@settings(max_examples=200, deadline=None)
@given(data=valid_configs())
def test_the_echo_round_trips(data, edge_lists):
    # an edge list is read when the config is: it names a file of n nodes
    data["topology"] = data["topology"].replace("edgelist:", "edgelist:" + os.path.join(edge_lists, ""))
    config = ExperimentConfig.from_dict(data)
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


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


# --------------------------------------------- generated configs over the CLI

# what a field may be given instead: extreme numbers, bools, strings and
# wrong nesting; no large positive integer, which a size field would accept
WILD = st.sampled_from([0, -1, -2**70, 1e308, -1e308, 5e-324, math.inf, -math.inf, math.nan,
                        True, False, "", "x", "1", None, [], [1], [[0.1]], {},
                        {"kind": "quadratic"}])
# a runnable problem field's values: sizes kept small, floats in range
# (every other float field in [0, 2]), no dataset file
RUNNABLE = {"dim": st.integers(1, 6), "samples": st.integers(9, 120), "batch": st.integers(1, 40),
            "input_dim": st.integers(1, 4), "hidden": st.integers(1, 4),
            "mu": st.floats(1e-3, 1.0), "l_smooth": st.floats(1.0, 4.0), "csv": st.none()}


def _compressor_specs():
    """A spec of every kind in ``compression.COMPRESSOR_TABLE``, with an
    argument of the type it takes (large ones too), another type, or none."""
    def spec(kind, arg, unbiased):
        return ":".join([kind, *([] if arg is None else [str(arg)]),
                         *(["unbiased"] if unbiased else [])])

    bits = st.sampled_from([1, 2, 4, 64, 65, 100, 512, 513, 1000, 1024, 1025, 4096, 10**6, 0.5])
    fraction = st.one_of(st.floats(-0.5, 1.5), st.sampled_from([1e-300, 1e308, math.nan, "x"]))
    args = {None: st.sampled_from([None, None, 4]), "bits": bits, "fraction": fraction}
    return st.sampled_from(sorted(COMPRESSOR_TABLE)).flatmap(
        lambda kind: st.builds(spec, st.just(kind), args[COMPRESSOR_TABLE[kind].takes],
                               st.sampled_from([False, False, True])))


@st.composite
def cli_configs(draw):
    """A config document: fields drawn as for :func:`valid_configs` at run
    sizes, up to two of them (or the root) then replaced by a wild value."""
    kind = draw(st.sampled_from(sorted(PROBLEM_FIELDS)))
    n = draw(st.sampled_from([4, 9]))
    problem = {"kind": kind, "n": n}
    for name, default in PROBLEM_FIELDS[kind].items():
        if name != "n" and draw(st.booleans()):
            if name not in RUNNABLE and isinstance(default, float):
                problem[name] = draw(st.floats(0.0, 2.0))
            else:
                problem[name] = draw(RUNNABLE.get(name, _problem_field(name, default)))
    topologies = [f"ring:{n}", f"full:{n}", f"edgelist:path{n}.txt"] + ["torus:9"] * (n == 9)
    data = {
        "algorithm": st.sampled_from(ALGORITHMS),
        # now and then a spec that names no graph, or one of another size
        "topology": st.sampled_from(topologies * 6 + ["ring:3", "torus:8", "torus:4", "full:0",
                                                      "edgelist:missing.txt", "star:4"]),
        "compressor": st.one_of(_compressor_specs(), _compressor_specs(),
                                st.sampled_from(COMPRESSORS)),
        "eta": st.floats(0.0, 10.0),
        "gamma": st.one_of(st.just("auto"), POSITIVE),
        "momentum_factor": st.floats(0.0, 0.99),
        "weight_decay": st.floats(0.0, 1.0),
        "nesterov": st.booleans(),
        "delta_override": st.one_of(st.none(), POSITIVE),
        "seeds": st.lists(st.integers(0, 2**64), min_size=1, max_size=2),
        "log_every": st.integers(1, 4),
        "broadcast": st.booleans(),
        "per_layer": st.booleans(),
        "x0_mode": st.sampled_from(X0_MODES if kind == "quadratic" else ("zeros", "gaussian")),
        "x0_scale": FINITE,
        "eta_grid": st.one_of(st.none(), st.lists(st.floats(0.0, 10.0), min_size=1, max_size=2)),
        "gamma_grid": st.one_of(st.none(), st.lists(POSITIVE, min_size=1, max_size=2)),
    }
    keep = draw(st.sets(st.sampled_from(sorted(data))))
    config = {name: draw(data[name]) for name in sorted(keep | {"topology", "compressor"})}
    config.update(iterations=3, problem=problem)
    names = sorted(data) + ["problem"] + [f"problem.{name}" for name in PROBLEM_FIELDS[kind]]
    for name in draw(st.lists(st.sampled_from(names + ["problem.kind"]),
                              max_size=draw(st.sampled_from([0, 0, 1, 1, 2])))):
        owner = problem if name.startswith("problem.") else config
        owner[name.removeprefix("problem.")] = draw(WILD)
    # now and then a document whose root is not an object
    root = draw(st.sampled_from(["object"] * 30 + ["list", "string", "number"]))
    return {"object": config, "list": [config], "string": "config", "number": 1}[root]


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=list(HealthCheck))
@given(config=cli_configs(), command=st.sampled_from(["run", "sweep"]))
def test_a_generated_config_exits_cleanly_over_the_cli(config, command, edge_lists, capsys,
                                                       monkeypatch, tmp_path_factory):
    monkeypatch.setenv("CHOCO_THREADS", "1")
    if isinstance(config, dict) and isinstance(config.get("topology"), str):
        config["topology"] = config["topology"].replace(
            "edgelist:", "edgelist:" + os.path.join(edge_lists, ""))
    root = tmp_path_factory.mktemp("cli")
    path = root / "config.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, "--config", str(path), "--out", str(root / "o")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (code, err)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err and "Warning" not in err, err
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
    if code == 2:
        ExperimentConfig.from_dict(config)
