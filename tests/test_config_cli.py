import copy
import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import chocosim
from chocosim import cli
from chocosim import config as config_module
from chocosim import problems as problems_module
from chocosim import topology as topology_module
from chocosim.config import (ConfigError, ExperimentConfig, build_problem, build_setup,
                             execute_config, execute_single, max_workers, read_config,
                             resolve_x0)
from chocosim.problems import LogisticProblem, QuadraticProblem
from chocosim.topology import build_topology

SOCIAL = Path(__file__).resolve().parents[1] / "demos" / "data" / "social32.txt"


def _write_config(tmp_path, **overrides):
    data = {
        "topology": "ring:4",
        "compressor": "sign",
        "algorithm": "choco",
        "eta": 0.05,
        "iterations": 30,
        "seeds": [1],
        "out": str(tmp_path / "runs"),
        "problem": {"kind": "quadratic", "n": 4, "dim": 4},
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


# ------------------------------------------------------------------- config

def test_round_trip_is_idempotent():
    cfg = ExperimentConfig.from_dict({"eta": 0.1, "problem": {"kind": "mlp"}})
    echoed = ExperimentConfig.from_dict(cfg.to_dict())
    assert echoed == cfg
    assert json.loads(json.dumps(cfg.to_dict())) == cfg.to_dict()


def test_defaults_are_filled_in():
    cfg = ExperimentConfig.from_dict({})
    assert cfg.topology == "ring:8"
    assert cfg.problem["kind"] == "quadratic"
    assert cfg.problem["dim"] == 10  # defaults merged into the problem dict


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigError, match="speed"):
        ExperimentConfig.from_dict({"speed": 1.0})
    with pytest.raises(ConfigError, match="rank"):
        ExperimentConfig.from_dict({"problem": {"kind": "quadratic", "rank": 3}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict([1, 2])


def test_json_errors_carry_position(tmp_path):
    (tmp_path / "bad.json").write_text("{bad json")
    with pytest.raises(ConfigError, match="line 1 column"):
        ExperimentConfig.from_dict(read_config(tmp_path / "bad.json"))


def test_field_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"algorithm": "adam"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"compressor": "gzip"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"topology": "mesh:4"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"seeds": []})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"seeds": [True]})
    with pytest.raises(ConfigError, match="seeds must be non-negative"):
        ExperimentConfig.from_dict({"seeds": [2, -1]})
    for seed in (-1, 1.5, True):
        with pytest.raises(ConfigError, match="problem.seed"):
            ExperimentConfig.from_dict({"problem": {"kind": "quadratic", "seed": seed}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"log_every": 0})
    with pytest.raises(ConfigError, match="log_every"):
        ExperimentConfig.from_dict({"log_every": True})
    # booleans and non-numbers are rejected, never coerced
    for key, value in (("delta_override", "x"), ("gamma", True), ("eta", True),
                       ("eta", "0.05"), ("eta", float("nan")), ("momentum_factor", "0.5"),
                       ("weight_decay", None), ("iterations", 2.5), ("iterations", True)):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict({key: value})
    # switches must be JSON booleans; "false", "no" or 0 are not read by truthiness
    for key, value in (("nesterov", "false"), ("broadcast", "no"), ("per_layer", 0),
                       ("nesterov", 1), ("per_layer", None)):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict({key: value})
    with pytest.raises(ConfigError, match="eta_grid"):
        ExperimentConfig.from_dict({"eta_grid": [True]})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"eta_grid": []})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"gamma_grid": [-0.1]})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"problem": {"kind": "mlp"}, "x0_mode": "optimum"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"problem": {"dim": 4}})


def test_centralized_needs_no_topology():
    cfg = ExperimentConfig.from_dict({"algorithm": "centralized",
                                      "topology": "not-a-graph"})
    assert cfg.algorithm == "centralized"


@pytest.mark.parametrize("topology, nodes", [
    ("ring:16", 16), ("torus:9", 9), ("full:5", 5),
    pytest.param(f"edgelist:{SOCIAL}", 32, id="edgelist:social32.txt-32"),
])
def test_topology_node_count_mismatch_exits_one(tmp_path, capsys, monkeypatch, topology, nodes):
    def no_build(spec):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(config_module, "build_problem", no_build)
    path = _write_config(tmp_path, topology=topology)  # problem.n is 4
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == [f"error: topology {topology} has {nodes} nodes but problem.n is 4"]
    assert not (tmp_path / "o").exists()
    # the coordinator baseline ignores the topology
    ExperimentConfig.from_dict({"algorithm": "centralized", "topology": topology})
    ExperimentConfig.from_dict({"algorithm": "centralized", "topology": "edgelist:missing.txt"})


@pytest.mark.parametrize("text, message", [
    (None, "cannot read topology edgelist:{path}: [Errno 2] No such file or directory: '{path}'"),
    ("0 1\n1 2 3\n", "{path}:2: expected 'i j', got '1 2 3'"),
    ("0 1\n1 x\n", "{path}:2: non-integer node id"),
    ("# no edges\n", "{path}: no edges found"),
    ("0 1\n1 1\n", "self-loop (1, 1) not allowed"),
    # without its connectivity check the graph would fail later, on its
    # spectral gap, with a line that does not say what is wrong
    ("0 1\n2 3\n", "graph must be connected to average"),
], ids=["missing", "three-ids", "non-integer", "no-edges", "self-loop", "disconnected"])
def test_an_unreadable_edge_list_exits_one_before_any_run(tmp_path, capsys, monkeypatch,
                                                          text, message):
    def no_build(spec):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(config_module, "build_problem", no_build)
    edges = tmp_path / "g.txt"
    if text is not None:
        edges.write_text(text)
    path = _write_config(tmp_path, topology=f"edgelist:{edges}")
    for command in ("run", "sweep"):
        assert cli.main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == ["error: " + message.format(path=edges)]
        assert not (tmp_path / "o").exists()


def _no_graph(*args):
    raise AssertionError("a graph was built")


@pytest.mark.parametrize("topology, nodes", [("ring:16", 16), ("torus:9", 9), ("full:5", 5)])
def test_a_config_counts_the_nodes_of_the_graph_it_builds(tmp_path, capsys, topology, nodes):
    cfg = ExperimentConfig.from_dict({"topology": topology,
                                      "problem": {"kind": "quadratic", "n": nodes}})
    assert cfg.problem["n"] == nodes
    path = _write_config(tmp_path, topology=topology)  # problem.n is 4
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == [f"error: topology {topology} has {nodes} nodes but problem.n is 4"]


@pytest.mark.parametrize("topology, message", [
    ("ring:1", "ring needs n >= 2"),
    ("torus:8", "torus needs a perfect square node count, got 8"),
    ("torus:-4", "torus needs a perfect square node count, got -4"),
    ("torus:4", "torus needs side length >= 3 (wrap-around edges collide below that)"),
    ("full:0", "need n >= 1"),
])
def test_a_bad_topology_size_exits_one_without_building(tmp_path, capsys, monkeypatch,
                                                        topology, message):
    monkeypatch.setattr(topology_module, "Graph", _no_graph)
    path = _write_config(tmp_path, topology=topology)
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
    # the builders apply the same rule
    monkeypatch.undo()
    with pytest.raises(ValueError, match=re.escape(message)):
        build_topology(topology)


@pytest.mark.parametrize("topology", ["ring:1_6", "full:\u0663", "torus:\uff19", "ring:+1_6",
                                      "ring: 16", "full:4 "])
def test_a_topology_size_is_a_plain_ascii_numeral(tmp_path, capsys, topology):
    # int() reads these as 16, 3, 9, 16, 16 and 4; the spec refuses them
    message = f"bad topology size in {topology!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_topology(topology)
    path = _write_config(tmp_path, topology=topology)
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
    assert cli.main(["topology", "--spec", topology]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]


def test_a_set_up_too_big_for_memory_exits_one_with_one_line(tmp_path, capsys):
    # the 5e8 x 5e8 Hessian's 2e18 bytes lie far beyond any host's address
    # space and below NumPy's 2**63-byte limit: its allocation fails at once
    path = _write_config(tmp_path, problem={"kind": "quadratic", "n": 4, "dim": 500_000_000})
    for command in ("run", "sweep"):
        assert cli.main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate"), lines
        assert not (tmp_path / "o").exists()


def test_a_compressor_argument_is_a_plain_ascii_numeral(tmp_path, capsys):
    # int(), float() and a stripped spec read these as gsgd:16, gsgd:4, topk:0.1 and sign
    for compressor in ("gsgd:1_6", "gsgd: 4", "topk:0.1 ", " sign"):
        path = _write_config(tmp_path, compressor=compressor)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: bad compressor spec {compressor!r}")
        assert not (tmp_path / "o").exists()


def test_importing_the_package_loads_no_process_pool():
    # the pool is imported where several cells open one
    code = ("import sys, chocosim; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))")
    source = os.path.dirname(os.path.dirname(chocosim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"


def test_build_topology_specs(tmp_path):
    assert build_topology("ring:8").n == 8
    assert build_topology("torus:16").n == 16
    assert build_topology("full:5").n == 5
    edges = tmp_path / "g.txt"
    edges.write_text("0 1\n1 2\n0 2\n")
    assert build_topology(f"edgelist:{edges}").n == 3
    for bad in ("ring", "ring:x", "mesh:4"):
        with pytest.raises(ValueError):
            build_topology(bad)


def test_build_problem_dispatch(tmp_path, monkeypatch):
    quad = build_problem({"kind": "quadratic", "n": 4, "dim": 3})
    assert isinstance(quad, QuadraticProblem) and quad.n == 4
    # the factory is read from ``problems`` per call, where the benchmark's tracer wraps it
    built = []
    monkeypatch.setattr(problems_module, "make_mlp", lambda **kw: built.append(kw) or "mlp")
    assert build_problem({"kind": "mlp", "n": 2}) == "mlp" and built == [{"n": 2}]

    csv = tmp_path / "d.csv"
    csv.write_text("1.0,2.0,1\n-1.0,0.5,0\n2.0,1.0,1\n-2.0,0.1,0\n")
    cfg = ExperimentConfig.from_dict(
        {"topology": "ring:2",
         "problem": {"kind": "logistic", "n": 2, "csv": str(csv), "batch": 1}})
    prob = build_problem(cfg.problem)
    assert isinstance(prob, LogisticProblem)
    assert prob.features.shape == (4, 2)


@pytest.mark.parametrize("content", ["1.0,nan,1\n-1.0,0.5,0\n", "1.0,2.0,1\n-inf,0.5,0\n", "",
                                     "a,b,label\n", "1,2,1\n3,x,0\n", "1,2,1\n3,4\n"],
                         ids=["nan", "inf", "empty", "header-only", "bad-cell", "short-row"])
def test_bad_csv_data_exits_one_with_one_line(tmp_path, content):
    # in a fresh process, so that a traceback or a printed warning would show
    csv = tmp_path / "d.csv"
    csv.write_text(content)
    path = _write_config(tmp_path, topology="ring:2",
                         problem={"kind": "logistic", "n": 2, "csv": str(csv)})
    source = os.path.dirname(os.path.dirname(chocosim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "chocosim.cli", "run", "--config", path,
                           "--out", str(tmp_path / "o")], capture_output=True, text=True,
                          env=env)
    assert done.returncode == 1
    lines = done.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), done.stderr
    assert str(csv) in lines[0]


def test_resolve_x0_modes():
    cfg = ExperimentConfig.from_dict({"topology": "ring:2",
                                      "problem": {"kind": "quadratic", "n": 2, "dim": 6}})
    problem = build_problem(cfg.problem)
    np.testing.assert_array_equal(resolve_x0(cfg, problem, 1), np.zeros(6))

    cfg = ExperimentConfig.from_dict({"x0_mode": "optimum", "topology": "ring:2",
                                      "problem": {"kind": "quadratic", "n": 2, "dim": 6}})
    np.testing.assert_array_equal(resolve_x0(cfg, problem, 1), problem.optimum())

    cfg = ExperimentConfig.from_dict({"x0_mode": "gaussian", "x0_scale": 2.0,
                                      "topology": "ring:2",
                                      "problem": {"kind": "quadratic", "n": 2, "dim": 6}})
    first = resolve_x0(cfg, problem, 1)
    np.testing.assert_array_equal(first, resolve_x0(cfg, problem, 1))
    assert not np.array_equal(first, resolve_x0(cfg, problem, 2))
    half = ExperimentConfig.from_dict({"x0_mode": "gaussian", "x0_scale": 1.0,
                                       "topology": "ring:2",
                                       "problem": {"kind": "quadratic", "n": 2, "dim": 6}})
    np.testing.assert_allclose(first, 2.0 * resolve_x0(half, problem, 1))


def test_worker_cap_respects_environment(monkeypatch):
    monkeypatch.setenv("CHOCO_THREADS", "3")
    assert max_workers(10) == 3
    assert max_workers(2) == 2
    monkeypatch.setenv("CHOCO_THREADS", "0")
    with pytest.raises(ConfigError):
        max_workers(4)
    # a plain ASCII numeral, as a spec's sizes are: int() would read 10, 2 and 3
    for cap in ("many", "1_0", " 2", "3\n", "\uff13"):
        monkeypatch.setenv("CHOCO_THREADS", cap)
        with pytest.raises(ConfigError, match="^CHOCO_THREADS must be an integer$"):
            max_workers(4)
    monkeypatch.setenv("CHOCO_THREADS", "1")
    assert max_workers(4) == 1
    monkeypatch.delenv("CHOCO_THREADS")
    assert max_workers(1) == 1


def test_worker_cap_counts_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv("CHOCO_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert max_workers(8) == 1


def test_execute_config_writes_all_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("CHOCO_THREADS", "1")
    cfg = ExperimentConfig.from_dict({
        "topology": "ring:4", "iterations": 20, "seeds": [1, 2],
        "out": str(tmp_path), "problem": {"kind": "quadratic", "n": 4, "dim": 3},
    })
    records, paths = execute_config(cfg)
    assert len(records) == 2
    assert len(paths) == 4  # two CSVs, one aggregate, one summary
    for path in paths:
        assert os.path.exists(path)
    names = sorted(os.path.basename(p) for p in paths)
    assert any(n.endswith("_aggregate.csv") for n in names)
    assert any(n.endswith("_summary.json") for n in names)


def test_numpy_integers_run_as_the_python_ints_they_equal(tmp_path, monkeypatch):
    # a scripted grid hands NumPy integers over; they are echoed as JSON
    # numbers, and the run writes the files the Python ints write
    monkeypatch.setenv("CHOCO_THREADS", "1")
    outputs = []
    for kind in (int, np.int64):
        cfg = ExperimentConfig.from_dict({
            "topology": "ring:4", "iterations": kind(20), "log_every": kind(3),
            "seeds": [kind(1), kind(2)], "out": str(tmp_path),
            "problem": {"kind": "quadratic", "n": kind(4), "dim": 3},
        })
        assert all(type(v) is int for v in (cfg.iterations, cfg.log_every, cfg.problem["n"],
                                            *cfg.seeds))
        files = {}
        for path in execute_config(cfg)[1]:
            with open(path, "rb") as fh:
                files[os.path.basename(path)] = fh.read()
        # the summary's wall-clock times are all that may differ
        summary = json.loads(files.pop(next(n for n in files if n.endswith("_summary.json"))))
        del summary["elapsed_s"], summary["timings_s"]
        outputs.append((files, summary))
    assert outputs[0] == outputs[1]


def _outputs(out):
    """Every file under ``out``: bytes, or for a JSON file the parsed
    document without the ``out`` echo and the wall-clock times."""
    files = {}
    for name in sorted(os.listdir(out)):
        data = (out / name).read_bytes()
        if name.endswith(".json"):
            data = json.loads(data)
            del data["config"]["out"]
            for key in ("elapsed_s", "timings_s"):
                data.pop(key, None)
        files[name] = data
    return files


def test_the_process_pool_writes_what_serial_cells_write(tmp_path, monkeypatch, capsys):
    import concurrent.futures

    pools = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    path = _write_config(tmp_path, algorithm="choco-errorfeedback", compressor="gsgd:4",
                         iterations=20, seeds=[1, 2, 3], eta_grid=[0.05, 0.1],
                         gamma_grid=[0.2, 0.4],
                         problem={"kind": "mlp", "n": 4, "input_dim": 3, "hidden": 4,
                                  "samples": 64, "batch": 8})
    outputs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("CHOCO_THREADS", threads)
        runs, sweeps = tmp_path / f"run{threads}", tmp_path / f"sweep{threads}"
        assert cli.main(["run", "--config", path, "--out", str(runs)]) == 0
        assert cli.main(["sweep", "--config", path, "--seed", "1", "--seed", "2",
                         "--out", str(sweeps)]) == 0
        outputs[threads] = (_outputs(runs), _outputs(sweeps))
    capsys.readouterr()
    assert pools == [2, 2]  # the serial runs make no pool
    runs, sweeps = outputs["1"]
    assert len(runs) == 5 and len(sweeps) == 1  # 3 CSVs, the aggregate, the summary
    assert len(next(iter(sweeps.values()))["cells"]) == 4
    assert outputs["2"] == outputs["1"]


def _count_calls(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_a_configs_set_up_is_built_once_for_all_its_seeds_and_cells(tmp_path, monkeypatch,
                                                                     capsys):
    # the config check reads the edge list, checks it connected and parses the
    # compressor, and keeps both; set-up builds the problem and the mixing matrix
    # (which checks the graph again) once; a sweep cell is a copy of the checked config
    monkeypatch.setenv("CHOCO_THREADS", "1")
    calls = dict.fromkeys(["build_problem", "mixing_matrix", "parse_compressor",
                           "load_edge_list", "is_connected", "fully_connected"], 0)
    for owner in (config_module, topology_module, topology_module.Graph):
        for name in calls:
            if name in vars(owner):
                _count_calls(monkeypatch, owner, name, calls)
    path = _write_config(tmp_path, topology=f"edgelist:{SOCIAL}", iterations=5, seeds=[1, 2, 3],
                         eta_grid=[0.05, 0.1], problem={"kind": "quadratic", "n": 32, "dim": 4})
    once = {"build_problem": 1, "mixing_matrix": 1, "parse_compressor": 1,
            "load_edge_list": 1, "is_connected": 2, "fully_connected": 0}
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "run")]) == 0
    assert calls == once
    calls.update(dict.fromkeys(calls, 0))
    argv = ["sweep", "--config", path, "--seed", "1", "--seed", "2", "--out", str(tmp_path / "s")]
    assert cli.main(argv) == 0
    assert calls == once
    calls.update(dict.fromkeys(calls, 0))
    path = _write_config(tmp_path, topology="full:8", iterations=5,
                         problem={"kind": "quadratic", "n": 8, "dim": 4})
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "full")]) == 0
    assert calls == {**once, "load_edge_list": 0, "fully_connected": 1}
    capsys.readouterr()


def test_a_checked_configs_pickles_and_copies_carry_its_fields_alone():
    # the check keeps its graph and compressor for build_setup; a pool cell's
    # pickle and a sweep cell's copy carry the fields, as before they were kept
    config = ExperimentConfig.from_dict({"topology": "full:64", "seeds": [1, 2, 3],
                                         "problem": {"kind": "quadratic", "n": 64}})
    assert config._graph.n == 64 and config._compressor.kind == "identity"
    names = {f.name for f in fields(ExperimentConfig)}
    assert set(vars(pickle.loads(pickle.dumps(config)))) == names
    assert set(vars(copy.copy(config))) == names
    assert copy.copy(config) == config
    # the cells run_cells sends a pool pickled to 40,017 bytes before the check
    # kept anything (Python 3.11, NumPy 2.4); the graph's 2,016 edges would add 32 KB
    setup = build_setup(config)
    cells = [(setup, config, seed) for seed in config.seeds]
    assert abs(len(pickle.dumps(cells, protocol=4)) - 40_017) <= 64


def test_a_copied_or_unpickled_config_is_checked_again_to_run_alone(tmp_path):
    path = _write_config(tmp_path, topology=f"edgelist:{SOCIAL}", iterations=5,
                         problem={"kind": "quadratic", "n": 32, "dim": 4})
    config = ExperimentConfig.from_dict(read_config(path))
    expected = execute_single(config, 1)
    for twin in (copy.copy(config), pickle.loads(pickle.dumps(config))):
        assert twin == config and "_graph" not in vars(twin)
        record = execute_single(twin, 1)
        assert (record.f_avg, record.psi) == (expected.f_avg, expected.psi)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_no_pool_worker_builds_a_set_up(tmp_path, monkeypatch, capsys):
    # under fork the workers inherit these wrappers: a worker that built a
    # problem or a mixing matrix would raise, and the pool re-raises it here
    import concurrent.futures

    parent = os.getpid()
    built = []

    def parent_only(real):
        def guarded(*args):
            assert os.getpid() == parent, f"{real.__name__} called in a pool worker"
            built.append(real.__name__)
            return real(*args)
        return guarded

    class Forking(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers,
                             mp_context=multiprocessing.get_context("fork"))
            built.append("pool")

    for name in ("build_problem", "mixing_matrix"):
        monkeypatch.setattr(config_module, name, parent_only(getattr(config_module, name)))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Forking)
    monkeypatch.setenv("CHOCO_THREADS", "2")
    path = _write_config(tmp_path, algorithm="choco-errorfeedback", compressor="gsgd:4",
                         iterations=5, seeds=[1, 2, 3], eta_grid=[0.05, 0.1],
                         problem={"kind": "mlp", "n": 4, "input_dim": 3, "hidden": 4,
                                  "samples": 64, "batch": 8})
    for command in ("run", "sweep"):
        assert cli.main([command, "--config", path, "--out", str(tmp_path / command)]) == 0
        assert built == ["build_problem", "mixing_matrix", "pool"]
        built.clear()
    capsys.readouterr()


# ---------------------------------------------------------------------- cli

def test_usage_errors_exit_one(capsys):
    assert cli.main([]) == 1
    assert cli.main(["run"]) == 1
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["--seed", "1_0"], ["--seed", " 2"], ["--seed", "x"],
                                  ["--seed", "1", "--log-every", "0_5"],
                                  ["--log-every", "5 "], ["--log-every", "\uff15"]])
def test_a_seed_or_stride_flag_is_a_plain_ascii_numeral(tmp_path, capsys, argv):
    # int() would read 10, 2, 5 and 5: each is refused as "x" is, before any run
    path = _write_config(tmp_path)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", path, "--out", str(out)] + argv) == 1
    assert "invalid numeral value" in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_exits_one(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["run", "--config", missing]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert cli.main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize("overrides, argv, field", [
    ({"seeds": [-1]}, [], "seeds"),
    ({}, ["--seed", "-3"], "seeds"),
    ({"problem": {"kind": "quadratic", "n": 4, "dim": 4, "seed": -1}}, [], "problem.seed"),
    ({"delta_override": "x"}, [], "delta_override"),
    ({"gamma": True}, [], "gamma"),
    ({"algorithm": "choco-momentum", "nesterov": "false"}, [], "nesterov"),
    ({"broadcast": "no"}, [], "broadcast"),
    ({"per_layer": 0}, [], "per_layer"),
    ({"problem": {"kind": "quadratic", "n": 4, "dim": "10"}}, [], "problem.dim"),
    ({"problem": {"kind": "quadratic", "n": 4, "dim": 4.0}}, [], "problem.dim"),
    ({"problem": {"kind": "quadratic", "n": True, "dim": 4}}, [], "problem.n"),
    ({"problem": {"kind": "quadratic", "n": 4, "dim": 4, "noise_std": "x"}}, [],
     "problem.noise_std"),
    ({"problem": {"kind": "quadratic", "n": 4, "dim": 4, "heterogeneity": float("nan")}}, [],
     "problem.heterogeneity"),
    ({"problem": {"kind": "quadratic", "n": 4, "dim": 4, "mu": True}}, [], "problem.mu"),
    ({"problem": {"kind": "quadratic", "n": 4, "dim": 4, "l_smooth": float("inf")}}, [],
     "problem.l_smooth"),
    ({"problem": {"kind": "quadratic", "n": 4, "dim": 4, "xstar_scale": [1.0]}}, [],
     "problem.xstar_scale"),
    ({"problem": {"kind": "logistic", "n": 4, "samples": "200"}}, [], "problem.samples"),
    ({"problem": {"kind": "logistic", "n": 4, "batch": 8.5}}, [], "problem.batch"),
    ({"problem": {"kind": "logistic", "n": 4, "reg": None}}, [], "problem.reg"),
    ({"problem": {"kind": "logistic", "n": 4, "margin": "wide"}}, [], "problem.margin"),
    ({"problem": {"kind": "mlp", "n": 4, "hidden": 2.5}}, [], "problem.hidden"),
    ({"problem": {"kind": "mlp", "n": 4, "input_dim": "8"}}, [], "problem.input_dim"),
    ({"x0_mode": "gaussian", "x0_scale": "big"}, [], "x0_scale"),
    ({"x0_mode": "gaussian", "x0_scale": float("nan")}, [], "x0_scale"),
    ({"x0_mode": "gaussian", "x0_scale": True}, [], "x0_scale"),
    ({"x0_mode": "gaussian", "x0_scale": [1]}, [], "x0_scale"),
])
def test_negative_seeds_exit_one_naming_the_field(tmp_path, capsys, overrides, argv, field):
    path = _write_config(tmp_path, **overrides)
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o"), *argv]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith(f"error: {field} must be")
    # seeds are integers, the switches booleans, the problem sizes integers;
    # the other fields here are numbers
    if "seed" in field:
        assert "non-negative" in lines[0]
    elif field in ("nesterov", "broadcast", "per_layer"):
        assert "true or false" in lines[0]
    elif field in ("problem.n", "problem.dim", "problem.samples", "problem.batch",
                   "problem.hidden", "problem.input_dim"):
        assert lines[0].endswith("must be an integer")
    else:
        assert "number" in lines[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("problem, field, expected", [
    ({"kind": "logistic", "n": 4, "mode": "fixed-split", "by_label": "no"}, "problem.by_label",
     "true or false"),
    ({"kind": "logistic", "n": 4, "mode": "fixed-split", "by_label": 0}, "problem.by_label",
     "true or false"),
    ({"kind": "mlp", "n": 4, "mode": "fixed-split", "by_label": 1}, "problem.by_label",
     "true or false"),
    ({"kind": "logistic", "n": 4, "csv": 5}, "problem.csv", "a string or null"),
    ({"kind": "mlp", "n": 4, "csv": ["data.csv"]}, "problem.csv", "a string or null"),
    ({"kind": "logistic", "n": 4, "mode": "shuffled"}, "problem.mode", "one of"),
])
def test_bad_problem_switches_exit_one_naming_the_field(tmp_path, capsys, problem, field,
                                                        expected):
    path = _write_config(tmp_path, problem=problem)
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith(f"error: {field} must be {expected}")
    assert not (tmp_path / "o").exists()


def test_divergence_names_iteration_and_node_in_the_summary(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHOCO_THREADS", "1")
    path = _write_config(tmp_path, eta=1e6, iterations=50)
    out = tmp_path / "d"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
    printed = capsys.readouterr().out
    summary = next(p for p in os.listdir(out) if p.endswith("summary.json"))
    data = json.loads((out / summary).read_text())
    record = config_module.execute_single(ExperimentConfig.from_dict(read_config(path)), 1)
    assert record.diverged and 1 <= record.diverged_at < 50
    assert 0 <= record.diverged_node < 4
    assert data["diverged_at"] == {"1": record.diverged_at}
    assert data["diverged_node"] == {"1": record.diverged_node}
    assert f"DIVERGED at t={record.diverged_at} (node {record.diverged_node})" in printed


def test_summary_times_the_run_and_the_csv_does_not(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHOCO_THREADS", "1")
    path = _write_config(tmp_path, seeds=[1, 2])
    out = tmp_path / "t"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = next(p for p in os.listdir(out) if p.endswith("summary.json"))
    data = json.loads((out / summary).read_text())
    assert sorted(data["timings_s"]) == ["1", "2"]
    for timings in data["timings_s"].values():
        assert sorted(timings) == ["eval_s", "stats_s", "step_s"]
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
    assert data["diverged_node"] == {"1": None, "2": None}
    for name in os.listdir(out):
        if name.endswith(".csv") and "aggregate" not in name:
            header = (out / name).read_text().split("\n", 1)[0]
            assert header == "t,f_avg,grad_sq,consensus,psi,bits_busiest,wall_ms"


def test_run_end_to_end_and_replay(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHOCO_THREADS", "1")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    path = _write_config(tmp_path)
    assert cli.main(["run", "--config", path, "--out", str(out_a)]) == 0
    assert cli.main(["run", "--config", path, "--out", str(out_b)]) == 0
    out = capsys.readouterr().out
    assert "seed 1: ok" in out

    csvs_a = sorted(p for p in os.listdir(out_a) if p.endswith(".csv"))
    csvs_b = sorted(p for p in os.listdir(out_b) if p.endswith(".csv"))
    assert csvs_a == csvs_b and len(csvs_a) == 1
    bytes_a = (out_a / csvs_a[0]).read_bytes()
    bytes_b = (out_b / csvs_b[0]).read_bytes()
    assert bytes_a == bytes_b


def test_run_seed_and_logging_overrides(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHOCO_THREADS", "1")
    path = _write_config(tmp_path, iterations=40)
    out = tmp_path / "o"
    code = cli.main(["run", "--config", path, "--out", str(out),
                     "--seed", "5", "--seed", "6", "--log-every", "15"])
    assert code == 0
    capsys.readouterr()
    summary = next(p for p in os.listdir(out) if p.endswith("summary.json"))
    data = json.loads((out / summary).read_text())
    assert data["seeds"] == [5, 6]
    csv = next(p for p in os.listdir(out) if p.endswith(".csv") and "aggregate" not in p)
    rows = (out / csv).read_text().strip().split("\n")[1:]
    assert [int(r.split(",")[0]) for r in rows] == [15, 30, 40]


def test_run_divergence_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHOCO_THREADS", "1")
    path = _write_config(tmp_path, algorithm="centralized", eta=5.0,
                         iterations=80, topology="full:4")
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "d")]) == 2
    assert "DIVERGED" in capsys.readouterr().out


def test_topology_report(tmp_path, capsys):
    assert cli.main(["topology", "--spec", "ring:16"]) == 0
    out = capsys.readouterr().out
    assert "nodes: 16" in out
    assert "spectral gap: 0.050747" in out
    assert "gamma" in out

    edges = tmp_path / "g.txt"
    edges.write_text("0 1\n1 2\n2 3\n3 0\n")
    assert cli.main(["topology", "--spec", f"edgelist:{edges}"]) == 0
    assert "nodes: 4" in capsys.readouterr().out
    assert cli.main(["topology", "--edge-list", str(edges)]) == 1  # one spelling
    capsys.readouterr()

    assert cli.main(["topology", "--spec", "ring:1"]) == 1
    capsys.readouterr()

    # no node ceiling on the spectrum
    assert cli.main(["topology", "--spec", "torus:324"]) == 0
    assert "nodes: 324" in capsys.readouterr().out


def _sweep_config(tmp_path, **overrides):
    base = {
        "algorithm": "centralized",
        "iterations": 30,
        "seeds": [1],
        "problem": {"kind": "quadratic", "n": 2, "dim": 1, "heterogeneity": 0.0,
                    "noise_std": 0.0, "mu": 1.0, "l_smooth": 1.0},
    }
    base.update(overrides)
    return _write_config(tmp_path, **base)


def test_sweep_finds_interior_optimum(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHOCO_THREADS", "1")
    # exact line search on 1/2 x^2: eta = 1 reaches the optimum in one step
    path = _sweep_config(tmp_path, eta_grid=[0.1, 1.0, 1.9])
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "s")]) == 0
    out = capsys.readouterr().out
    assert "best: eta=1.0" in out
    assert "warning" not in out
    sweep_file = next(p for p in os.listdir(tmp_path / "s") if p.startswith("sweep_"))
    data = json.loads((tmp_path / "s" / sweep_file).read_text())
    assert len(data["cells"]) == 3
    assert data["best"]["eta"] == 1.0


def test_sweep_file_is_written_whole(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHOCO_THREADS", "1")
    path = _sweep_config(tmp_path, eta_grid=[0.5, 1.0])
    out = tmp_path / "s"
    written = []
    real_replace = os.replace

    def recording_replace(src, dst):
        written.append((src, dst))
        return real_replace(src, dst)

    # the file appears only by an atomic rename of a finished temporary file
    monkeypatch.setattr(os, "replace", recording_replace)
    assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    names = os.listdir(out)
    assert len(names) == 1 and names[0].startswith("sweep_") and names[0].endswith(".json")
    assert [os.path.basename(dst) for _, dst in written] == names
    assert written[0][0].endswith(".tmp") and not os.path.exists(written[0][0])
    data = json.loads((out / names[0]).read_text())
    assert [cell["eta"] for cell in data["cells"]] == [0.5, 1.0]


def test_sweep_warns_on_grid_boundary(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHOCO_THREADS", "1")
    path = _sweep_config(tmp_path, eta_grid=[0.1, 0.3, 0.5])
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "s")]) == 0
    out = capsys.readouterr().out
    assert "boundary" in out


def test_sweep_warns_when_the_best_eta_is_the_smallest(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHOCO_THREADS", "1")
    # exact line search on 1/2 x^2 is eta = 1, the low edge of this grid
    path = _sweep_config(tmp_path, eta_grid=[1.0, 1.5, 1.9])
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "s")]) == 0
    out = capsys.readouterr().out
    assert "best: eta=1.0" in out
    assert "warning: best stepsize lies on the grid boundary; widen eta_grid" in out


def test_a_sweep_scores_every_cell_by_one_quantity(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHOCO_THREADS", "1")
    sweep = dict(topology="ring:8", iterations=200, seeds=[1, 2],
                 problem={"kind": "quadratic", "n": 8, "dim": 6})
    # an eta grid holding 0 beside positive values is scored by f_avg throughout:
    # the psi of the eta = 0 cell would rank it first
    path = _write_config(tmp_path, eta_grid=[0.0, 0.05, 0.1], **sweep)
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "s")]) == 0
    out = capsys.readouterr().out
    metrics = [float(m) for m in re.findall(r"metric=(\S+) diverged", out)]
    assert len(metrics) == 3 and min(metrics) > 0.2
    assert "best: eta=0.05" in out and "warning" not in out
    # a gamma sweep of pure gossip (every eta 0) is scored by the final psi
    path = _write_config(tmp_path, eta_grid=[0.0], gamma_grid=[0.1, 0.3], x0_mode="gaussian",
                         **sweep)
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "g")]) == 0
    capsys.readouterr()
    sweep_file = next(p for p in os.listdir(tmp_path / "g") if p.startswith("sweep_"))
    cells = json.loads((tmp_path / "g" / sweep_file).read_text())["cells"]
    data = json.loads(Path(path).read_text())
    for cell in cells:
        cfg = ExperimentConfig.from_dict({**data, "eta": 0.0, "gamma": cell["gamma"]})
        psi = [execute_single(cfg, seed).psi[-1] for seed in (1, 2)]
        assert cell["metric"] == float(np.mean(psi)) > 0.0


def test_sweep_all_diverged_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHOCO_THREADS", "1")
    path = _sweep_config(tmp_path, eta_grid=[3.0, 5.0], iterations=100,
                         problem={"kind": "quadratic", "n": 2, "dim": 1,
                                  "heterogeneity": 0.0, "noise_std": 0.0,
                                  "mu": 1.0, "l_smooth": 1.0, "xstar_scale": 5.0})
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "s")]) == 2
    assert "all cells diverged" in capsys.readouterr().err


def test_verify_subcommand(capsys):
    assert cli.main(["verify", "compression"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert cli.main(["verify", "nonsense"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown suite 'nonsense'")


@pytest.mark.parametrize("overrides, field", [
    ({"out": 5}, "out"),
    ({"out": None}, "out"),
    ({"problem": {"kind": ["q"], "n": 4}}, "problem.kind"),
    ({"gamma_grid": [0]}, "gamma_grid"),
    ({"gamma_grid": ["auto"]}, "gamma_grid"),
    ({"problem": {"kind": "logistic", "n": 4, "samples": -1}}, "problem.samples"),
    ({"problem": {"kind": "quadratic", "n": 4, "dim": -1}}, "problem.dim"),
    ({"problem": {"kind": "mlp", "n": 4, "input_dim": -1}}, "problem.input_dim"),
    ({"problem": {"kind": "quadratic", "n": -1, "dim": 4}}, "problem.n"),
    ({"problem": {"kind": "logistic", "n": 4, "batch": -1}}, "problem.batch"),
    ({"problem": {"kind": "mlp", "n": 4, "hidden": 0}}, "problem.hidden"),
    ({"log_every": -1}, "log_every"),
])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_bad_values_fail_before_any_run(tmp_path, capsys, monkeypatch, overrides, field,
                                        command):
    def no_build(spec):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(config_module, "build_problem", no_build)
    path = _write_config(tmp_path, **overrides)
    # a flag replaces the file's value before the one validation, so a bad
    # "out" is given by the file alone
    argv = [] if field == "out" else ["--out", str(tmp_path / "o")]
    assert cli.main([command, "--config", path, *argv]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {field}"), lines
    if field.startswith("problem.") and field != "problem.kind":
        assert lines[0].endswith(f"{field} must be >= 1")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("overrides, argv", [
    ({"seeds": [1, 1, 2]}, []),
    ({"seeds": [3]}, ["--seed", "1", "--seed", "1"]),
])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_repeated_seeds_exit_one_before_any_run(tmp_path, capsys, overrides, argv, command):
    # a repeated seed would be run, written and averaged twice
    path = _write_config(tmp_path, **overrides)
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "o"), *argv]) == 1
    assert capsys.readouterr().err.strip().splitlines() == ["error: seeds must be distinct"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, value, reader, others", [
    ("momentum_factor", 0.9, "choco-momentum", ["choco", "choco-errorfeedback", "centralized"]),
    ("weight_decay", 0.5, "choco-momentum", ["choco", "decentralized-exact"]),
    ("nesterov", True, "choco-momentum", ["choco", "centralized"]),
    ("gamma", 0.3, "choco", ["centralized", "decentralized-exact"]),
    ("delta_override", 0.5, "choco-errorfeedback", ["centralized", "decentralized-exact"]),
    ("gamma_grid", [0.1, 0.2, 0.4], "choco-momentum", ["centralized", "decentralized-exact"]),
])
def test_an_option_the_algorithm_never_reads_exits_one(tmp_path, capsys, name, value, reader,
                                                       others):
    # its row in ALGORITHM_TABLE decides: momentum's options need a velocity,
    # gamma's a compressed algorithm; an option left at its default passes
    default = getattr(ExperimentConfig(), name)
    ExperimentConfig.from_dict({"algorithm": reader, name: value, "topology": "ring:4",
                                "problem": {"kind": "quadratic", "n": 4}})
    for algorithm in others:
        path = _write_config(tmp_path, algorithm=algorithm, **{name: default})
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 0
        path = _write_config(tmp_path, algorithm=algorithm, **{name: value})
        capsys.readouterr()
        assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {name} is not read by algorithm {algorithm!r}"]
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("overrides", [{"gamma": 0.3}, {"gamma_grid": [0.1, 0.2, 0.4]},
                                       {"gamma": 0.3, "gamma_grid": [0.2]}])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_delta_override_without_the_theory_stepsize_exits_one(tmp_path, capsys, overrides,
                                                              command):
    # a numeric gamma is used as given, and a grid gives every cell a numeric gamma
    path = _write_config(tmp_path, algorithm="choco", delta_override=0.5)
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "o")]) == 0
    path = _write_config(tmp_path, algorithm="choco", delta_override=0.5, **overrides)
    capsys.readouterr()
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: delta_override is read only with gamma 'auto' and no gamma_grid"]
    assert not (tmp_path / "s").exists()


def test_a_sweep_cell_is_checked_as_any_config():
    config = ExperimentConfig.from_dict({"topology": "ring:4",
                                         "problem": {"kind": "quadratic", "n": 4}})
    with pytest.raises(ConfigError, match="gamma"):
        replace(config, gamma=0.0)
    with pytest.raises(ConfigError, match="eta"):
        replace(config, eta=-1.0)


def test_a_zero_log_every_override_is_refused_not_dropped(tmp_path, capsys):
    path = _write_config(tmp_path)
    argv = ["run", "--config", path, "--out", str(tmp_path / "o"), "--log-every", "0"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.strip().splitlines() == ["error: log_every must be >= 1"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("problem, name", [
    ({"kind": "logistic", "n": 4, "reg": -0.5}, "reg"),
    ({"kind": "quadratic", "n": 4, "dim": 4, "xstar_scale": -1.0}, "xstar_scale"),
])
def test_float_ranges_exit_one_naming_the_field(tmp_path, capsys, monkeypatch, problem, name):
    monkeypatch.setenv("CHOCO_THREADS", "1")
    path = _write_config(tmp_path, problem=problem)
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and name in lines[0], lines
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, code", [("logistic", 2), ("mlp", 0)])
def test_exp_overflow_is_not_reported(tmp_path, capfd, monkeypatch, kind, code):
    # exp of a huge margin is inf, the sigmoid's exact limit; the logistic
    # run then diverges, and the tanh network saturates without diverging
    monkeypatch.setenv("CHOCO_THREADS", "1")
    path = _write_config(tmp_path, compressor="identity", topology="ring:8",
                         problem={"kind": kind, "n": 8}, eta=1e6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == code
    assert [str(w.message) for w in caught] == []
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("overrides, code", [
    ({"compressor": "gsgd:600"}, 1),  # the levels' square overflows
    ({"compressor": "gsgd:1100"}, 1),  # the levels overflow
    ({"eta": 1e308}, 2),
    ({"problem": {"kind": "quadratic", "n": 8, "xstar_scale": 1e300}}, 2),
    ({"problem": {"kind": "quadratic", "n": 8, "heterogeneity": 1e308}}, 2),
], ids=["gsgd-600", "gsgd-1100", "eta", "xstar-scale", "heterogeneity"])
def test_extreme_configs_exit_with_one_error_line_or_diverge_quietly(tmp_path, capfd,
                                                                     monkeypatch, overrides, code):
    # a config error is one line; a run that overflows on its way to
    # divergence prints no NumPy warning
    monkeypatch.setenv("CHOCO_THREADS", "1")
    ring8 = {"topology": "ring:8", "problem": {"kind": "quadratic", "n": 8}}
    path = _write_config(tmp_path, **{**ring8, **overrides})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == code
    assert [str(w.message) for w in caught] == []
    err = capfd.readouterr().err
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert "[2, 64]" in err
    else:
        assert err == ""


def test_all_covers_the_readme_and_demos_and_omits_internals():
    import re
    from pathlib import Path

    import chocosim

    root = Path(__file__).resolve().parents[1]
    used = set()
    for path in [root / "README.md", *sorted((root / "demos").glob("*.py"))]:
        text = path.read_text()
        for block in re.findall(r"^from chocosim import (?:\(([^)]*)\)|(.*))$", text, re.M):
            used.update(name for name in re.split(r"[\s,]+", "".join(block)) if name)
    assert used <= set(chocosim.__all__)
    for internal in ("Streams", "Workers", "choco_step", "centralized_step",
                     "decentralized_exact_step", "require_finite", "sym_eigenvalues",
                     "run_id"):
        assert internal not in chocosim.__all__ and not hasattr(chocosim, internal)
