"""The benchmark's tracer (``perfbench/tracer.py``) wraps chocosim functions
and methods by name. A refactor that renames or moves one of them must fail
here, in the unit tests, and not only in the traced benchmark run."""

import importlib
import sys
from pathlib import Path

from chocosim import (compression, config, consensus, metrics, numerics, optim,
                      problems, topology)

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (compression, config, consensus, metrics, numerics, optim, problems, topology)

# what the tracer binds: module functions, and methods in the class that defines them
FUNCTIONS = [
    (numerics, "sym_eigenvalues"), (problems, "make_quadratic"),
    (problems, "make_logistic"), (problems, "make_mlp"), (compression, "compress"),
    (compression, "compress_blocks"), (consensus, "sync_public"),
    (consensus, "mix_with_public"), (consensus, "choco_gossip_round"),
    (consensus, "consensus_distance"), (consensus, "lyapunov"), (metrics, "write_csv"),
    (metrics, "write_summary"), (metrics, "write_aggregate_csv"),
    (topology, "mixing_matrix"), (optim, "choco_step"), (optim, "decentralized_exact_step"),
    (optim, "centralized_step"), (optim, "run"),
]
METHODS = [
    (numerics.RandomStream, "at"),
    (problems.QuadraticProblem, "stochastic_gradient"),
    (problems.LogisticProblem, "stochastic_gradient"),
    (problems.MlpProblem, "stochastic_gradient"),
    (problems.QuadraticProblem, "loss"), (problems.QuadraticProblem, "full_gradient"),
    (problems._DatasetProblem, "loss"), (problems._DatasetProblem, "full_gradient"),
    (metrics.TrafficLedger, "add_message"), (metrics.TrafficLedger, "add_broadcast"),
    (metrics.TrafficLedger, "add_upload"), (config.ExperimentConfig, "from_dict"),
]


def _namespaces():
    owners = list(MODULES) + [cls for cls, _ in METHODS]
    return {id(owner): dict(vars(owner)) for owner in owners}


def test_tracer_binds_every_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    before = _namespaces()

    t = tracer.Tracer("t")
    t.install()  # a missing name raises here: AttributeError or KeyError
    try:
        patched = {(id(owner), name) for owner, name, _ in t._patches}
        for owner, name in FUNCTIONS + METHODS:
            assert (id(owner), name) in patched, (owner.__name__, name)
            original, wrapper = before[id(owner)][name], vars(owner)[name]
            if isinstance(original, classmethod):
                original, wrapper = original.__func__, wrapper.__func__
            assert wrapper.__wrapped__ is original, (owner.__name__, name)
    finally:
        t.uninstall()

    after = _namespaces()
    for key, namespace in before.items():
        assert after[key].keys() == namespace.keys()
        assert all(after[key][name] is value for name, value in namespace.items())
