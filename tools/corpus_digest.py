"""sha256 digests of the outputs of a fixed corpus of small runs.

    PYTHONPATH=src python tools/corpus_digest.py

The corpus is every algorithm (momentum also with Nesterov) x the
compressors ``identity``, ``sign``, ``topk:0.2``, ``gsgd:4`` and
``random:0.3`` x the quadratic, logistic and MLP problems, logged every
iteration and every third one, plus a run that diverges mid-run and one
that starts from NaN. A second MLP deals 100 samples to the 6 nodes, so
its shards are ragged (17 and 16 samples). Each run contributes its
logged rows, its divergence fields, ``max_grad_norm``, ``final_x_mean``,
the ledger and its final state, ``record.workers`` (the one row of a
centralized run, a row per node otherwise), every float as ``float.hex``.

The first line digests the set-up a run depends on: the degrees,
connectivity and mixing matrix (``w``, rho, beta) of ring, torus and full
graphs at the sizes ``chocosim verify`` builds, a 2-node and a 1-node graph
and a connected and a disconnected edge list, and ``estimate_constants`` of
the corpus's four problems.

One line per compressor spec digests the runs of that compressor, and one
line per problem family the runs on that problem (``quadratic`` with the
diverging and NaN-start runs, ``logistic``, ``mlp`` and ``mlp-ragged``), so a
trajectory change shows which compressors and which problems moved; the
next line digests the whole corpus. Two trees that print the same line
computed the same corpus bit for bit.

The next line digests longer runs, of 150 iterations: more than two blocks
of the optimizer's gradient-norm fold (64 iterations), so ``max_grad_norm``
is folded across blocks. Every algorithm x ``sign`` and ``gsgd:4`` x the
quadratic and MLP problems, logged every iteration and every seventh one,
plus a run that diverges in the second block. It is a line of its own, so
the corpus line above stays comparable with trees older than it.

The next line digests dataset problems whose split is dealt another
way than the corpus's ``iid-reshuffled`` blobs: ``fixed-split`` with and
without ``by_label`` (ragged too), and problems built from ``data=``
arrays, a shuffled blob set. Each contributes its epoch-0 and epoch-1
shards, its ``smoothness()``, its ``estimate_constants`` and three short
runs (``choco``/``sign``, ``choco-errorfeedback``/``gsgd:4`` and
``decentralized-exact``). It too is a line of its own.

The next line digests how each compressor is priced: ``bit_cost`` and
``contraction_factor`` of one block at every row length from 1 to 64, and
of a row on two layer layouts, the corpus MLP's and one shaped like
``perfbench``'s MLP (input 32, hidden 64), for the corpus's five compressor
specs plus ``topk:0.1``, ``random:0.1``, ``topk:0.01`` and ``gsgd:2``. No
run of this tool reads a sparsifier's delta where fraction x row length is
not an integer, so this line is where a change to how a compressor is
priced shows.

The next line digests the config path: what ``config.execute_config``
writes (the run CSVs, the aggregate CSV and the summary JSON without its
wall-clock ``elapsed_s`` and ``timings_s``) and what ``chocosim sweep``
writes, for three multi-seed configs with stepsize grids: a quadratic on
``demos/data/social32.txt``, an MLP with ``gsgd:4`` and error feedback, and
a centralized logistic run. Each runs with ``CHOCO_THREADS`` 1 and 2, once
serially and once through the process pool, and the tool fails unless both
write the same bytes.

The last line is the sha256 of what ``chocosim verify all`` prints, its
report and a newline, followed by the count of passing checks; it equals
``chocosim verify all | sha256sum``.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile

import numpy as np

from chocosim import cli
from chocosim.compression import bit_cost, contraction_factor, parse_compressor
from chocosim.config import ExperimentConfig, execute_config
from chocosim.optim import OptimizerConfig, run
from chocosim.problems import (estimate_constants, make_blob_dataset, make_logistic, make_mlp,
                               make_quadratic)
from chocosim.topology import from_edge_list, fully_connected, mixing_matrix, ring, torus
from chocosim.verify import SPECTRAL_GAPS, format_report, run_suite

N = 6
ITERATIONS = 20
COMPRESSORS = ("identity", "sign", "topk:0.2", "gsgd:4", "random:0.3")
KINDS = ("quadratic", "logistic", "mlp", "mlp-ragged")  # the keys of problems()
CONFIGS = (
    dict(algorithm="choco"),
    dict(algorithm="choco-momentum", momentum_factor=0.5, weight_decay=0.01),
    dict(algorithm="choco-momentum", momentum_factor=0.5, weight_decay=0.01, nesterov=True),
    dict(algorithm="choco-errorfeedback"),
    dict(algorithm="decentralized-exact"),
    dict(algorithm="centralized"),
)
STATE = ("x", "xhat", "velocity", "memory", "x_prev")
SOCIAL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "demos", "data",
                      "social32.txt")
# run from a scratch directory holding a copy of the edge list, so no path
# in the echoed configs depends on where the tree is checked out
CONFIG_PATH = (
    {"topology": "edgelist:social32.txt", "compressor": "sign", "eta": 0.05, "iterations": 40,
     "seeds": [1, 2, 3], "log_every": 4, "eta_grid": [0.02, 0.05], "out": "out",
     "problem": {"kind": "quadratic", "n": 32, "dim": 6, "noise_std": 0.5}},
    {"topology": "ring:6", "compressor": "gsgd:4", "algorithm": "choco-errorfeedback",
     "eta": 0.5, "iterations": 20, "seeds": [1, 2], "x0_mode": "gaussian",
     "eta_grid": [0.2, 0.5], "gamma_grid": [0.2, 0.4], "out": "out",
     "problem": {"kind": "mlp", "n": 6, "input_dim": 3, "hidden": 4, "samples": 96, "batch": 8}},
    {"algorithm": "centralized", "topology": "ring:6", "eta": 0.1, "iterations": 20,
     "seeds": [1, 2], "eta_grid": [0.05, 0.1], "out": "out",
     "problem": {"kind": "logistic", "n": 6, "samples": 120, "batch": 8}},
)


def problems():
    return {
        "quadratic": make_quadratic(N, 7, heterogeneity=1.0, noise_std=0.5, seed=8),
        "logistic": make_logistic(N, dim=5, samples=120, batch=8, seed=8),
        "mlp": make_mlp(N, input_dim=3, hidden=4, samples=96, batch=8, seed=8),
        "mlp-ragged": make_mlp(N, input_dim=3, hidden=4, samples=100, batch=8, seed=8),
    }


def _hex(values):
    return ",".join(float(v).hex() for v in np.ravel(values))


def describe(record):
    """Every output of one run as text, floats in ``float.hex``."""
    lines = [f"{name}:{_hex(getattr(record, name))}"
             for name in ("f_avg", "grad_sq", "consensus", "psi")]
    lines.append(f"t:{record.t} bits_busiest:{record.bits_busiest}")
    lines.append(f"diverged:{record.diverged} at:{record.diverged_at} "
                 f"node:{record.diverged_node}")
    lines.append(f"max_grad_norm:{float(record.max_grad_norm).hex()}")
    lines.append(f"final_x_mean:{_hex(record.final_x_mean)}")
    lines.append(f"ledger:{record.ledger.per_node.tolist()}")
    for name in STATE:
        value = getattr(record.workers, name)
        if value is not None:
            lines.append(f"{name}:{_hex(value)}")
    return "\n".join(lines)


def graphs():
    """``(name, graph)`` of the set-up digest, in a fixed order."""
    builders = {"ring": ring, "torus": torus, "full": fully_connected}
    for kind, n in [*SPECTRAL_GAPS, ("ring", 8), ("ring", 2), ("full", 1)]:
        yield f"{kind}:{n}", builders[kind](n)
    yield "edges", from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4), (0, 5)])
    yield "edges-disconnected", from_edge_list(6, [(0, 1), (1, 2), (3, 4), (4, 5)])


def describe_setup():
    """The set-up outputs as text, floats in ``float.hex``."""
    lines = []
    for name, graph in graphs():
        lines.append(f"{name} degrees:{graph.degrees().tolist()} "
                     f"connected:{graph.is_connected()}")
        try:
            mixing = mixing_matrix(graph)
        except ValueError as exc:
            lines.append(f"mixing:{exc}")
            continue
        lines.append(f"w:{_hex(mixing.w)} rho:{mixing.rho.hex()} beta:{mixing.beta.hex()}")
    for kind, problem in problems().items():
        est = estimate_constants(problem)
        lines.append(f"{kind} l:{est.l_smooth.hex()} sigma_sq:{est.sigma_sq.hex()} "
                     f"g_sq:{est.g_sq.hex()}")
    return "\n".join(lines)


def run_matrix(kinds, specs, iterations, strides):
    """``(name, spec, record)`` of each problem kind x ``CONFIGS`` x
    compressor spec x log stride, in that order; ``spec`` is the run's
    compressor."""
    mixing = mixing_matrix(ring(N))
    built = problems()
    for kind in kinds:
        problem = built[kind]
        x0 = np.linspace(-0.5, 0.5, problem.dim)
        for options in CONFIGS:
            cfg = OptimizerConfig(eta=0.05, gamma=0.3, iterations=iterations, **options)
            for spec in specs:
                for log_every in strides:
                    record = run(problem, cfg, mixing, parse_compressor(spec), seed=4,
                                 log_every=log_every, x0=x0)
                    name = "/".join([kind, *map(str, options.values()), spec, str(log_every)])
                    yield name, spec, record


def corpus():
    """``(name, spec, record)`` of every run of the corpus, in a fixed order."""
    yield from run_matrix(KINDS, COMPRESSORS, ITERATIONS, (1, 3))
    mixing = mixing_matrix(ring(N))
    quadratic = make_quadratic(N, 7, heterogeneity=1.0, noise_std=0.5, seed=8)
    diverging = OptimizerConfig(eta=50.0, gamma=0.5, iterations=60)
    yield "diverging", "sign", run(quadratic, diverging, mixing, parse_compressor("sign"),
                                   seed=4, x0=np.linspace(-0.5, 0.5, 7))
    nan_start = OptimizerConfig(eta=0.05, gamma=0.5, iterations=20)
    yield "nan-start", "gsgd:4", run(quadratic, nan_start, mixing, parse_compressor("gsgd:4"),
                                     seed=1, x0=np.array([0.1, np.nan, 0.2, 0.3, 0.0, 0.0, 0.0]))


def long_corpus():
    """``(name, spec, record)`` of every 150-iteration run, in a fixed order."""
    yield from run_matrix(("quadratic", "mlp"), ("sign", "gsgd:4"), 150, (1, 7))
    # eta * L = 2: the iterates pass the divergence limit at iteration 79
    diverging = OptimizerConfig(eta=2.0, gamma=0.5, iterations=150)
    quadratic = make_quadratic(N, 7, heterogeneity=1.0, noise_std=0.5, seed=8)
    yield "diverging-late", "sign", run(quadratic, diverging, mixing_matrix(ring(N)),
                                        parse_compressor("sign"), seed=4,
                                        x0=np.linspace(-0.5, 0.5, 7))


def split_problems():
    """``(name, problem)`` of the split line, in a fixed order."""
    z, y = make_blob_dataset(110, 4, seed=5, margin=1.0)
    order = np.random.default_rng(5).permutation(110)
    data = (z[order], y[order])
    fixed = dict(mode="fixed-split", batch=8, seed=8)
    yield "logistic/fixed", make_logistic(N, dim=5, samples=120, **fixed)
    yield "logistic/fixed/by-label", make_logistic(N, dim=5, samples=120, by_label=True, **fixed)
    yield "mlp/fixed/ragged", make_mlp(N, input_dim=3, hidden=4, samples=100, **fixed)
    yield "mlp/fixed/by-label", make_mlp(N, input_dim=3, hidden=4, samples=96, by_label=True,
                                         **fixed)
    yield "logistic/data", make_logistic(N, batch=8, seed=8, data=data)
    yield "mlp/data/by-label", make_mlp(N, hidden=4, by_label=True, data=data, **fixed)


def describe_splits(splits):
    """The outputs of the ``(name, problem)`` pairs of the split line as
    text, floats in ``float.hex``."""
    mixing = mixing_matrix(ring(N))
    runs = (("choco", "sign"), ("choco-errorfeedback", "gsgd:4"),
            ("decentralized-exact", "identity"))
    lines = []
    for name, problem in splits:
        for epoch in (0, 1):
            shards = problem.partition.shards(epoch)
            lines.append(f"{name} epoch {epoch}:{[s.tolist() for s in shards]}")
        smooth = problem.smoothness()
        est = estimate_constants(problem)
        lines.append(f"smoothness:{None if smooth is None else smooth.hex()} "
                     f"l:{est.l_smooth.hex()} sigma_sq:{est.sigma_sq.hex()} g_sq:{est.g_sq.hex()}")
        x0 = np.linspace(-0.5, 0.5, problem.dim)
        for algorithm, spec in runs:
            cfg = OptimizerConfig(algorithm=algorithm, eta=0.05, gamma=0.3, iterations=ITERATIONS)
            record = run(problem, cfg, mixing, parse_compressor(spec), seed=4, x0=x0)
            lines.append(f"{algorithm}/{spec}\n{describe(record)}")
    return "\n".join(lines)


def describe_pricing(specs):
    """Each spec's bits and delta at row lengths 1 to 64 and on two layer
    layouts, as text, floats in ``float.hex``."""
    # the corpus MLP's blocks (input 3, hidden 4) and perfbench's (input 32, hidden 64)
    layouts = ([0, 12, 16, 20, 21], [0, 2048, 2112, 2176, 2177])
    dims = range(1, 65)
    lines = []
    for spec in specs:
        comp = parse_compressor(spec)
        lines.append(f"{spec} bits:{[bit_cost(comp, d) for d in dims]} "
                     f"delta:{_hex([contraction_factor(comp, d) for d in dims])}")
        for layout in layouts:
            lines.append(f"{layout} bits:{bit_cost(comp, layout[-1], layout)} delta:"
                         f"{_hex(contraction_factor(comp, layout[-1], layout))}")
    return "\n".join(lines)


def config_outputs(threads):
    """``{name: bytes}`` of every file the config path writes for
    ``CONFIG_PATH`` with ``CHOCO_THREADS=threads``, each summary JSON without
    its wall-clock times."""
    cwd, saved = os.getcwd(), os.environ.get("CHOCO_THREADS")
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(SOCIAL, tmp)
        os.chdir(tmp)
        os.environ["CHOCO_THREADS"] = str(threads)
        try:
            for data in CONFIG_PATH:
                execute_config(ExperimentConfig.from_dict(data))
                with open("config.json", "w", encoding="utf-8") as fh:
                    json.dump(data, fh)
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(["sweep", "--config", "config.json"]) != 0:
                        raise SystemExit(f"sweep failed on {data}")
            for name in sorted(os.listdir("out")):
                with open(os.path.join("out", name), "rb") as fh:
                    files[name] = fh.read()
                if name.endswith("_summary.json"):
                    summary = json.loads(files[name])
                    del summary["elapsed_s"], summary["timings_s"]
                    files[name] = json.dumps(summary, indent=2, sort_keys=True).encode()
        finally:
            os.chdir(cwd)
            if saved is None:
                os.environ.pop("CHOCO_THREADS")
            else:
                os.environ["CHOCO_THREADS"] = saved
    return files


def main():
    print(f"{hashlib.sha256(describe_setup().encode()).hexdigest()}  (set-up)")
    total = hashlib.sha256()
    families = {key: hashlib.sha256() for key in (*COMPRESSORS, *KINDS)}
    runs = dict.fromkeys(families, 0)
    for name, spec, record in corpus():
        text = f"{name}\n{describe(record)}\n".encode()
        total.update(text)
        kind = name.split("/")[0]
        kind = kind if kind in KINDS else "quadratic"  # the diverging and NaN-start runs
        for key in (spec, kind):
            families[key].update(text)
            runs[key] += 1
    for spec in COMPRESSORS:
        print(f"{families[spec].hexdigest()}  ({runs[spec]} runs, {spec})")
    for kind in KINDS:
        print(f"{families[kind].hexdigest()}  ({runs[kind]} runs, {kind} problem)")
    print(f"{total.hexdigest()}  ({sum(runs[spec] for spec in COMPRESSORS)} runs)")
    long = hashlib.sha256()
    count = 0
    for name, _, record in long_corpus():
        long.update(f"{name}\n{describe(record)}\n".encode())
        count += 1
    print(f"{long.hexdigest()}  ({count} runs of 150 iterations)")
    splits = list(split_problems())
    digest = hashlib.sha256(describe_splits(splits).encode()).hexdigest()
    print(f"{digest}  ({len(splits)} dataset splits)")
    priced = (*COMPRESSORS, "topk:0.1", "random:0.1", "topk:0.01", "gsgd:2")
    digest = hashlib.sha256(describe_pricing(priced).encode()).hexdigest()
    print(f"{digest}  (bits and delta of {len(priced)} compressors)")
    serial, pooled = config_outputs(1), config_outputs(2)
    if pooled != serial:
        raise SystemExit("config path: CHOCO_THREADS=2 wrote other bytes than CHOCO_THREADS=1")
    digest = hashlib.sha256()
    for name, data in serial.items():
        digest.update(name.encode() + b"\n" + data)
    print(f"{digest.hexdigest()}  (config path: {len(serial)} files, "
          f"CHOCO_THREADS 1 and 2)")
    checks = run_suite("all")
    report = hashlib.sha256((format_report(checks) + "\n").encode()).hexdigest()
    print(f"{report}  (verify all: {sum(c.passed for c in checks)}/{len(checks)} passed)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
