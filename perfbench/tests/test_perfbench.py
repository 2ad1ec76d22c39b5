"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def short_config(workload, seed, iterations=30):
    config = workloads.make_config(workload, seed)
    config["iterations"] = iterations
    return config


def test_self_time_on_synthetic_nested_call():
    # a[0,20] > b[1,11] > (c[2,5], b[6,9]);  a > c[12,16]
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 9.0, 11.0, 12.0, 16.0, 20.0])
    t = tracer.Tracer("synthetic", clock=lambda: next(ticks))
    c = t.wrap("c", lambda: None)
    b_inner = t.wrap("b", lambda: None)
    b = t.wrap("b", lambda: (c(), b_inner()))
    a = t.wrap("a", lambda: (b(), c()))
    a()
    assert tracer.self_times(t.spans) == {
        "a": {"calls": 1, "s": 6.0},   # 20 - 10 (b) - 4 (c)
        "b": {"calls": 1, "s": 7.0},   # (10 - 3 - 3) + 3; the nested b is no new call
        "c": {"calls": 2, "s": 7.0},
    }


def test_fingerprint_repeats_and_follows_the_seed(tmp_path):
    outs = [worker.execute_run(short_config("ring16-sign", seed), str(tmp_path / str(k)), 0.0)
            for k, seed in enumerate((3, 3, 4))]
    assert outs[0]["fingerprint"] == outs[1]["fingerprint"]
    assert outs[0]["fingerprint"] != outs[2]["fingerprint"]


def test_tracing_changes_no_output_and_is_removed(tmp_path):
    from chocosim import numerics, optim

    config = short_config("ring16-sign", 5)
    plain = worker.execute_run(config, str(tmp_path / "plain"), 0.0)
    run_fn, at_fn = optim.run, numerics.RandomStream.at
    t = tracer.Tracer("ring16-sign")
    t.install()
    traced = worker.execute_run(config, str(tmp_path / "traced"), 0.0, t)
    assert optim.run is run_fn and numerics.RandomStream.at is at_fn
    assert traced["fingerprint"] == plain["fingerprint"]
    layers = tracer.layer_metrics(t.spans)
    assert layers["optim.step.calls"] == 30
    assert layers["numerics.stream_derive.calls"] == 30 * 2 * 16
    assert layers["numerics.stream_derive.useful_ratio"] == 0.5  # sign draws nothing
    assert layers["metrics.ledger.calls"] == 30 * 16 * 2
    assert layers["metrics.ledger.bits_busiest"] == workloads.expected_bits_busiest(config)
    assert layers["compression.bits"] == 30 * 16 * (10 + 32)


def test_bits_check_rejects_a_wrong_count():
    config = workloads.make_config("torus64-topk", 1)
    expected = workloads.expected_bits_busiest(config)
    assert expected == 200 * (64 * 20) * 4
    out = {"diverged": False, "bits_busiest": expected, "final_gap": 0.1, "initial_gap": 1.0}
    assert workloads.check_outputs("torus64-topk", config, out) == []
    for wrong in (expected + 1, expected // 4):
        failures = workloads.check_outputs("torus64-topk", config, dict(out, bits_busiest=wrong))
        assert len(failures) == 1 and "bits_busiest" in failures[0]


def test_broadcast_bits_count_each_block_once():
    config = workloads.make_config("mlp-gsgd-ef", 1)
    blocks = (4 * 2048 + 32) + 2 * (4 * 64 + 32) + (4 + 32)
    assert workloads.expected_bits_busiest(config) == 150 * blocks


def test_seed_reaches_generated_inputs(tmp_path, monkeypatch, capsys):
    specs = []

    def fake_child(spec, tmp_dir, timeout):
        specs.append(spec)
        config = spec["config"]
        return {"setup_s": 0.2, "run_s": 1.0, "wall_s": 1.3, "iterations": 200,
                "peak_rss_mb": 40.0, "fingerprint": "f",
                "diverged": False, "bits_busiest": workloads.expected_bits_busiest(config),
                "final_f": 0.3, "initial_gap": 1.0, "final_gap": 0.1, "env": {}}

    monkeypatch.setattr(run, "run_child", fake_child)
    monkeypatch.setattr(run, "OUT", tmp_path)
    argv = ["--workload", "torus64-topk", "--seed", "7", "--seconds", "0", "--trace", "0"]
    assert run.main(argv) == 0
    assert len(specs) == 1
    assert specs[0]["config"] == workloads.make_config("torus64-topk", 7)
    assert specs[0]["config"]["problem"]["seed"] == 7 and specs[0]["config"]["seeds"] == [7]
    assert workloads.make_config("torus64-topk", 8) != specs[0]["config"]
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] and line["attempted"] == 1 and line["failed"] == 0
    assert set(line["metrics"]) == {"setup_s", "iters_per_s", "wall_s", "peak_rss_mb"}


def test_negative_seed_is_rejected():
    with pytest.raises(SystemExit):
        run.main(["--workload", "ring16-sign", "--seed", "-1"])
