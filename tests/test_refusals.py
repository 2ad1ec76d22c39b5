"""Every refusal from one table, and every field crossed with every value class.

A row of ``ROWS`` is (entry point, field path, bad value, message fragment[,
the config fields it is given with]): ``config`` is ``from_dict`` and then
``chocosim run``, ``run`` the command alone (a range checked when the
problem is built), ``flag`` and ``env`` a flag or ``CHOCO_THREADS`` on a
valid config, ``library`` a callable of ``LIBRARY``. The ``chocosim`` fixture
checks that an exit 1 prints one ``error:`` line and no traceback, and
writes nothing. The generator crosses every config and problem field with
``VALUE_CLASSES``: a cell is refused in one line naming the field, or listed
in ``ACCEPTED`` with the reason; where a class is a row's value (a bool, a
null, NaN, 0), the cell is that row.
"""

import copy
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from chocosim import cli
from chocosim.config import PROBLEM_FIELDS, ConfigError, ExperimentConfig, build_setup
from chocosim.numerics import RandomStream
from chocosim.problems import Partition, make_logistic

BASE = {"topology": "ring:4", "compressor": "sign", "iterations": 3, "seeds": [1],
        "problem": {"kind": "quadratic", "n": 4, "dim": 4}}
PROBLEMS = {"quadratic": BASE["problem"],
            "logistic": {"kind": "logistic", "n": 4, "samples": 64, "batch": 8},
            "mlp": {"kind": "mlp", "n": 4, "samples": 64, "hidden": 4, "batch": 8}}
CSV = {"problem": {"kind": "logistic", "n": 4, "csv": "data.csv"}}
MLP_CSV = {"problem": {"kind": "mlp", "n": 4, "csv": "data.csv"}}


FIXED_SPLIT = make_logistic(4, samples=64, batch=8, mode="fixed-split")
LIBRARY = {
    "RandomStream.seed": RandomStream,
    "RandomStream.worker": lambda worker: RandomStream(1, worker=worker),
    # Philox asks its key for two uint64 words, and nothing else may
    "_PhiloxKey.generate_state": lambda args: RandomStream(1)._key.generate_state(*args),
    "Partition.shards(fixed-split)": Partition("fixed-split", 4, 100).shards,
    "Partition.shards(iid-reshuffled)": Partition("iid-reshuffled", 4, 100).shards,
    "stochastic_gradients(fixed-split).t": lambda t: FIXED_SPLIT.stochastic_gradients(
        np.zeros((4, FIXED_SPLIT.dim)), RandomStream(1).at(0), t),
}
NON_NEGATIVE_SEEDS = "seeds must be a non-empty list of non-negative integers"

ROWS = [
    ("config", "", [1, 2], "config root must be a JSON object"),
    ("config", "speed", 1.0, "unknown config keys: ['speed']"),
    ("config", "problem.rank", 3, "unknown problem keys for quadratic: ['rank']"),
    ("config", "problem", {"dim": 4}, "problem must be an object with a 'kind' key"),
    ("config", "algorithm", "adam", "unknown algorithm 'adam'"),
    ("config", "compressor", "gzip", "bad compressor spec 'gzip'"),
    ("config", "topology", "mesh:4", "unknown topology kind 'mesh'"),
    # a compressor's argument is a plain ASCII numeral: int() and float() read these
    ("config", "compressor", "gsgd:1_6", "bad compressor spec 'gsgd:1_6'"),
    ("config", "compressor", "gsgd: 4", "bad compressor spec 'gsgd: 4'"),
    ("config", "compressor", "topk:0.1 ", "bad compressor spec 'topk:0.1 '"),
    ("config", "compressor", " sign", "bad compressor spec ' sign'"),
    # integers, booleans and numbers are never coerced
    ("config", "seeds", [], NON_NEGATIVE_SEEDS),
    ("config", "seeds", [True], NON_NEGATIVE_SEEDS),
    ("config", "seeds", [2, -1], NON_NEGATIVE_SEEDS),
    ("config", "problem.seed", 1.5, "problem.seed must be a non-negative integer"),
    ("config", "iterations", 2.5, "iterations must be an integer >= 1"),
    ("config", "nesterov", "false", "nesterov must be true or false"),
    ("config", "broadcast", "no", "broadcast must be true or false"),
    ("config", "delta_override", "x", "delta_override must be a number in (0, 1]"),
    ("config", "eta", "0.05", "eta must be a number >= 0"),
    ("config", "momentum_factor", "0.5", "momentum_factor must be a number in [0, 1)"),
    ("config", "eta_grid", [True], "eta_grid must be a non-empty list of numbers"),
    ("config", "eta_grid", [], "eta_grid must be a non-empty list of numbers"),
    ("config", "gamma_grid", [-0.1], "gamma_grid: gamma must be 'auto' or a positive number"),
    # an empty path would be read as null: a second run id for one run
    ("config", "problem.csv", "", "problem.csv must be a string or null, not empty", CSV),
    # an option set where nothing reads it (config.READ_IF; test_config_cli has the algorithm rows)
    ("config", "x0_mode", "optimum", "x0_mode 'optimum' needs the quadratic problem",
     {"problem": PROBLEMS["mlp"]}),
    ("config", "x0_scale", 2.0, "x0_scale is read only with x0_mode 'gaussian'"),
    ("config", "x0_scale", 2.0, "x0_scale is read only with x0_mode 'gaussian'",
     {"x0_mode": "optimum"}),
    ("config", "problem.samples", 100, "problem.samples is read only without problem.csv", CSV),
    ("config", "problem.dim", 5, "problem.dim is read only without problem.csv", CSV),
    ("config", "problem.margin", 2.0, "problem.margin is read only without problem.csv", CSV),
    ("config", "problem.samples", 9, "problem.samples is read only without problem.csv", MLP_CSV),
    ("config", "problem.input_dim", 5, "problem.input_dim is read only without", MLP_CSV),
    ("config", "problem.margin", 0.5, "problem.margin is read only without", MLP_CSV),
    ("run", "problem.mu", 2.0, "need numbers 0 < mu <= l_smooth"),
    ("flag", "--log-every", "0", "log_every must be >= 1"),
    ("env", "CHOCO_THREADS", "1_0", "CHOCO_THREADS must be an integer"),
    ("env", "CHOCO_THREADS", "0", "CHOCO_THREADS must be >= 1"),
    ("library", "RandomStream.seed", -1, "seed must be a non-negative integer"),
    ("library", "RandomStream.worker", -1, "worker must be an integer >= 0"),
    ("library", "_PhiloxKey.generate_state", (4, np.uint64), "a Philox key is two uint64 words"),
    ("library", "_PhiloxKey.generate_state", (2, np.uint32), "a Philox key is two uint64 words"),
    ("library", "Partition.shards(fixed-split)", -1, "epoch must be an integer >= 0, got -1"),
    ("library", "Partition.shards(iid-reshuffled)", -1, "epoch must be an integer >= 0, got -1"),
    ("library", "stochastic_gradients(fixed-split).t", -5, "iteration must be an integer >= 0"),
]


def _document(path, value, context=None):
    """``BASE`` with ``context``'s fields, then ``path`` set to ``value``."""
    if path == "":
        return value
    doc = copy.deepcopy({**BASE, **(context or {})})
    owner, _, key = path.rpartition(".")
    (doc[owner] if owner else doc)[key] = value
    return doc


@pytest.mark.parametrize("row", ROWS, ids=[f"{row[0]}-{row[1]}-{row[2]!r}" for row in ROWS])
def test_a_row_is_refused(chocosim, monkeypatch, row):
    entry, path, value, fragment, *context = row
    if entry == "library":
        with pytest.raises((ValueError, TypeError), match=re.escape(fragment)):
            LIBRARY[path](value)
        return
    flags = [path, value] if entry == "flag" else []
    if entry == "env":
        monkeypatch.setenv(path, value)
    doc = _document(path, value, *context) if entry in ("config", "run") else BASE
    if entry == "config":
        with pytest.raises(ConfigError, match=re.escape(fragment)):
            ExperimentConfig.from_dict(doc)
    code, line = chocosim(doc, *flags)
    assert code == 1 and fragment in line, line


VALUE_CLASSES = {"bool": True, "float-for-int": 2.0, "int-for-str": 1, "numpy": np.int64(3),
                 "underscore": "1_0", "space": " 1", "full-width": "１", "nan": math.nan,
                 "inf": math.inf, "-inf": -math.inf, "negative": -1, "zero": 0, "2**70": 2**70,
                 "list": [1], "object": {}, "null": None}
NUMBERS = ("float-for-int", "int-for-str", "numpy", "2**70")
# (fields, value classes, why a value of these classes is accepted there)
ACCEPTED = [
    (("iterations", "log_every", "problem.batch", "problem.hidden"),
     ("int-for-str", "numpy", "2**70"), "a size or a stride: an integer >= 1, however large"),
    (("problem.dim", "problem.input_dim"), ("int-for-str", "numpy"), "a size: an integer >= 1"),
    (("problem.dim", "problem.samples", "problem.input_dim"), ("2**70",),
     "a size, too big for memory: the set-up exits 1 in one line"),
    (("problem.seed",), ("int-for-str", "numpy", "zero", "2**70"), "a non-negative integer"),
    (("eta", "gamma"), NUMBERS, "a positive finite number"),
    (("eta",), ("zero",), "eta 0 is pure gossip"),
    (("momentum_factor", "weight_decay"), ("zero",), "the default"),
    (("delta_override",), ("int-for-str", "null"), "1 is exact compression; null the default"),
    (("problem.heterogeneity", "problem.noise_std", "problem.xstar_scale", "problem.reg"),
     (*NUMBERS, "zero"), "a finite number >= 0"),
    (("problem.l_smooth",), NUMBERS, "a finite number >= mu: the spectrum builds at any size"),
    (("problem.mu",), ("int-for-str",), "a finite number in (0, l_smooth]"),
    (("x0_scale",), ("int-for-str",), "1, the default"),
    (("problem.margin",), (*NUMBERS, "negative", "zero"), "any finite offset of the blobs"),
    (("out",), ("underscore", "space", "full-width"), "any string names a directory"),
    (("broadcast", "per_layer"), ("bool",), "a switch"),
    (("seeds", "eta_grid", "gamma_grid"), ("list",), "[1]: a list of valid values"),
    (("eta_grid", "gamma_grid", "problem.csv"), ("null",), "the default"),
]
FIELDS = [(f.name, "quadratic") for f in fields(ExperimentConfig)] + [
    (f"problem.{name}", kind) for kind in sorted(PROBLEM_FIELDS)
    for name in ("kind", *PROBLEM_FIELDS[kind])]


@pytest.mark.parametrize("path, kind", FIELDS, ids=[f"{kind}-{path}" for path, kind in FIELDS])
def test_every_field_and_value_class(chocosim, monkeypatch, path, kind):
    # an accepted cell builds its set-up and runs nothing
    monkeypatch.setattr(cli, "execute_config", lambda config: (build_setup(config), ([], []))[1])
    name = path.rpartition(".")[2]
    for value_class, value in VALUE_CLASSES.items():
        doc = _document(path, value, {"problem": PROBLEMS[kind]})
        if value_class == "numpy":  # no JSON number: a library caller's value
            try:
                build_setup(ExperimentConfig.from_dict(doc))
                code, line = 0, None
            except (ValueError, MemoryError) as exc:
                code, line = 1, f"error: {exc}"
        else:
            code, line = chocosim(doc)
        why = [why for names, classes, why in ACCEPTED if path in names and value_class in classes]
        if why:
            assert code == 0 or "exits 1" in why[0], (path, value_class, line)
        else:  # the field's name, or its last part as a word (n_samples names samples)
            assert code == 1 and re.search(rf"(?<![a-z]){name}\b", line), (path, value_class)
