import json

import numpy as np
import pytest

from chocosim.compression import parse_compressor
from chocosim.metrics import (CSV_HEADER, RunRecord, TrafficLedger, _atomic_write, aggregate,
                              run_id, summarize, write_aggregate_csv,
                              write_csv, write_summary)
from chocosim.optim import ALGORITHMS, OptimizerConfig, run
from chocosim.problems import make_mlp, make_quadratic
from chocosim.topology import Graph, mixing_matrix, ring


def _record(values, bits=None):
    t = list(range(1, len(values) + 1))
    return RunRecord(seed=1, t=t, f_avg=list(values), grad_sq=[v * v for v in values],
                     consensus=[0.1 * v for v in values], psi=[0.2 * v for v in values],
                     bits_busiest=bits or [100 * k for k in t])


# ------------------------------------------------------------------- ledger

def test_message_charged_to_sender_only():
    led = TrafficLedger(3)
    led.add_message(0, 1, 40)
    led.add_message(0, 2, 40)
    led.add_message(1, 0, 10)
    np.testing.assert_array_equal(led.per_node, [80, 10, 0])
    assert led.busiest() == 80
    assert led.per_node.sum() == 90


def test_broadcast_charged_once():
    led = TrafficLedger(4)
    led.add_broadcast(2, 64)
    led.add_broadcast(2, 64)
    np.testing.assert_array_equal(led.per_node, [0, 0, 128, 0])


def test_upload_charges_sender_and_hub():
    led = TrafficLedger(3)
    led.add_upload(0, 2, 32)
    led.add_upload(1, 2, 32)
    np.testing.assert_array_equal(led.per_node, [32, 32, 64])
    assert led.busiest() == 64  # the hub's line carries every upload


def test_ledger_validation():
    led = TrafficLedger(2)
    with pytest.raises(ValueError):
        led.add_message(0, 5, 1)
    with pytest.raises(ValueError):
        led.add_message(-1, 0, 1)
    with pytest.raises(ValueError):
        led.add_message(0, 1, -1)
    with pytest.raises(ValueError):
        TrafficLedger(0)


@pytest.mark.parametrize("call", [
    lambda led: led.add_message(0, 1, 2.5),
    lambda led: led.add_broadcast(np.array([0, 1]), np.array([8.0, 8.0])),
    lambda led: led.add_upload(0, 1, True),
    lambda led: led.add_message(np.array([True, False]), 1, 3),
    lambda led: led.add_message(0, True, 3),
    lambda led: led.add_broadcast(1.0, 3),
    lambda led: led.add_upload(0, 1.0, 3),
], ids=["float-bits", "float-bits-array", "bool-bits", "bool-mask", "bool-dst", "float-src",
        "float-hub"])
def test_ledger_refuses_what_it_would_truncate_or_read_as_a_mask(call):
    led = TrafficLedger(2)
    with pytest.raises(ValueError, match="node indices and bits must be integers"):
        call(led)
    assert not led.per_node.any()
    led.add_message(np.int64(0), np.array([1], dtype=np.uint8), np.int32(3))  # any integer dtype
    assert led.per_node.tolist() == [3, 0]


def test_run_traffic_recomputable_from_first_principles():
    # ring(8), pairwise sign messages, d=4: every node sends (4+32) bits to
    # each of its 2 neighbors per iteration
    problem = make_quadratic(8, 4, seed=0)
    cfg = OptimizerConfig(eta=0.01, gamma=0.2, iterations=13)
    rec = run(problem, cfg, mixing_matrix(ring(8)), parse_compressor("sign"), seed=0)
    expected = 13 * 2 * (4 + 32)
    np.testing.assert_array_equal(rec.ledger.per_node, [expected] * 8)
    assert rec.bits_busiest[-1] == expected


@pytest.mark.parametrize("broadcast", [False, True])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_traffic_follows_each_nodes_degree(algorithm, broadcast):
    # a star with a tail: node 0 links to 1, 2 and 3, and 3 to 4, so a charge
    # that ignored the degree would show. d = 4: a sign message is 4 + 32 bits,
    # a full-precision row 4 * 32
    graph = Graph(5, ((0, 1), (0, 2), (0, 3), (3, 4)))
    degrees = [3, 1, 1, 2, 1]
    iterations = 3
    cfg = OptimizerConfig(algorithm=algorithm, eta=0.01, gamma=0.2, iterations=iterations)
    rec = run(make_quadratic(5, 4, seed=2), cfg, mixing_matrix(graph), parse_compressor("sign"),
              seed=0, broadcast=broadcast)
    if algorithm == "centralized":  # every node uploads to the hub, ledger slot n
        expected = [iterations * 128] * 5 + [5 * iterations * 128]
    else:
        bits = 128 if algorithm == "decentralized-exact" else 4 + 32
        expected = [iterations * bits * (1 if broadcast else degree) for degree in degrees]
    assert rec.ledger.per_node.tolist() == expected
    assert rec.bits_busiest[-1] == max(expected)


# ------------------------------------------------------------------ records

def test_record_columns_and_counts(tmp_path):
    rec = _record([3.0, 2.0, 1.0])
    assert rec.rows() == 3
    assert rec.t == [1, 2, 3]
    # the wall_ms column is written as a constant 0 on every row
    write_csv(rec, tmp_path / "run.csv")
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert lines[0].split(",")[-1] == "wall_ms"
    assert [line.split(",")[-1] for line in lines[1:]] == ["0", "0", "0"]


def test_csv_round_trip_preserves_floats(tmp_path):
    rec = RunRecord(t=[1], f_avg=[1 / 3], grad_sq=[2e-17], consensus=[0.1 + 0.2], psi=[5.0],
                    bits_busiest=[42])
    path = tmp_path / "run.csv"
    write_csv(rec, path)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert float(cells[1]) == 1 / 3  # repr round-trips exactly
    assert float(cells[2]) == 2e-17
    assert float(cells[3]) == 0.1 + 0.2
    assert cells[6] == "0"


def test_numpy_scalars_are_written_as_the_python_numbers_they_equal(tmp_path):
    # a record built by hand may hold NumPy scalars; each cell is its Python value's repr
    rec = RunRecord(t=[np.int64(1)], f_avg=[np.float64(0.5)], grad_sq=[0.1], consensus=[0.0],
                    psi=[0.0], bits_busiest=[np.int64(8)])
    write_csv(rec, tmp_path / "run.csv")
    assert (tmp_path / "run.csv").read_text() == f"{CSV_HEADER}\n1,0.5,0.1,0.0,0.0,8,0\n"


@pytest.mark.parametrize("algorithm", ["choco", "decentralized-exact", "centralized"])
@pytest.mark.parametrize("problem", [make_quadratic(4, 3, noise_std=0.5, seed=1),
                                     make_mlp(4, input_dim=3, hidden=2, samples=32, batch=4,
                                              seed=1)], ids=["quadratic", "mlp"])
def test_a_runs_columns_hold_python_ints_and_floats(algorithm, problem):
    # the CSV writers print each cell by repr, and a NumPy scalar's repr is
    # not the number
    cfg = OptimizerConfig(algorithm=algorithm, eta=0.05, gamma=0.5, iterations=7)
    rec = run(problem, cfg, mixing_matrix(ring(4)), parse_compressor("sign"), seed=0,
              log_every=2)
    assert rec.t == [2, 4, 6, 7]
    for name in ("t", "f_avg", "grad_sq", "consensus", "psi", "bits_busiest"):
        kind = int if name in ("t", "bits_busiest") else float
        assert [type(v) for v in getattr(rec, name)] == [kind] * 4, name


def test_csv_write_is_atomic(tmp_path):
    path = tmp_path / "sub" / "run.csv"
    write_csv(_record([1.0]), path)  # creates the directory
    write_csv(_record([2.0]), path)  # replaces in one step
    leftovers = [p for p in path.parent.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
    assert path.read_text().count("\n") == 2


def test_a_failed_write_leaves_no_temporary_file(tmp_path):
    # the rename onto a directory fails after the temporary file is written
    (tmp_path / "taken").mkdir()
    with pytest.raises(IsADirectoryError, match="Is a directory"):
        _atomic_write(str(tmp_path / "taken"), "text\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list((tmp_path / "taken").iterdir()) == []


def test_run_id_is_stable_and_seed_sensitive():
    cfg = {"topology": "ring:8", "eta": 0.05}
    first = run_id(cfg, 1)
    assert first == run_id(dict(cfg), 1)
    assert first != run_id(cfg, 2)
    assert first != run_id({**cfg, "eta": 0.06}, 1)
    assert first == run_id({**cfg, "out": "elsewhere"}, 1)  # storage, not content
    assert len(first) == 12 and int(first, 16) >= 0


# ---------------------------------------------------------------- summaries

def test_summarize_headline_numbers():
    rec = _record([3.0, 1.0, 2.0], bits=[100, 200, 300])
    out = summarize(rec)
    assert out["rows"] == 3
    assert out["final_f"] == 2.0
    assert out["best_f"] == 1.0
    assert out["bits_busiest"] == 300
    assert not out["diverged"]


def test_summarize_empty_run():
    out = summarize(RunRecord())
    assert out["rows"] == 0
    assert "final_f" not in out


def test_write_summary_contents(tmp_path):
    rec = _record([2.0, 1.0])
    path = tmp_path / "summary.json"
    write_summary([rec], {"eta": 0.1}, path)
    data = json.loads(path.read_text())
    assert data["config"] == {"eta": 0.1}
    assert data["seeds"] == [1]
    assert data["diverged"] == {"1": False}
    assert data["summary"]["1"]["final_f"] == 1.0
    assert data["run_ids"]["1"] == run_id({"eta": 0.1}, 1)


# ---------------------------------------------------------------- aggregate

def test_aggregate_mean_and_std():
    recs = [_record([1.0, 3.0]), _record([3.0, 5.0])]
    table = aggregate(recs)
    np.testing.assert_allclose(table["f_avg_mean"], [2.0, 4.0])
    np.testing.assert_allclose(table["f_avg_std"], [1.0, 1.0])
    assert table["t"] == [1, 2]


def test_aggregate_stops_at_shortest_record():
    table = aggregate([_record([1.0, 2.0, 3.0]), _record([5.0])])
    assert len(table["t"]) == 1
    np.testing.assert_allclose(table["f_avg_mean"], [3.0])
    with pytest.raises(ValueError):
        aggregate([])


def test_write_aggregate_csv(tmp_path):
    path = tmp_path / "agg.csv"
    write_aggregate_csv([_record([1.0, 3.0]), _record([3.0, 5.0])], path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("t,f_avg_mean,f_avg_std")
    assert lines[1].split(",")[0] == "1"
    assert float(lines[1].split(",")[1]) == 2.0


# ------------------------------------------------------------- consistency

def test_consensus_never_exceeds_lyapunov_in_a_run():
    problem = make_quadratic(8, 5, noise_std=0.5, seed=3)
    cfg = OptimizerConfig(eta=0.02, iterations=60)
    rec = run(problem, cfg, mixing_matrix(ring(8)), parse_compressor("topk:0.3"),
              seed=2)
    for cons, psi in zip(rec.consensus, rec.psi):
        assert problem.n * cons <= psi + 1e-12
