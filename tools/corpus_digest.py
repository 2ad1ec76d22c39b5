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

One line per compressor spec digests the runs of that compressor, so a
trajectory change shows which families moved; the last line digests the
whole corpus. Two trees that print the same last line computed the same
corpus bit for bit.
"""

import hashlib

import numpy as np

from chocosim.compression import parse_compressor
from chocosim.optim import OptimizerConfig, run
from chocosim.problems import make_logistic, make_mlp, make_quadratic
from chocosim.topology import mixing_matrix, ring

N = 6
ITERATIONS = 20
COMPRESSORS = ("identity", "sign", "topk:0.2", "gsgd:4", "random:0.3")
CONFIGS = (
    dict(algorithm="choco"),
    dict(algorithm="choco-momentum", momentum_factor=0.5, weight_decay=0.01),
    dict(algorithm="choco-momentum", momentum_factor=0.5, weight_decay=0.01, nesterov=True),
    dict(algorithm="choco-errorfeedback"),
    dict(algorithm="decentralized-exact"),
    dict(algorithm="centralized"),
)
STATE = ("x", "xhat", "velocity", "memory", "x_prev")


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


def corpus():
    """``(name, spec, record)`` of every run of the corpus, in a fixed
    order; ``spec`` is the run's compressor."""
    mixing = mixing_matrix(ring(N))
    for kind, problem in problems().items():
        x0 = np.linspace(-0.5, 0.5, problem.dim)
        for options in CONFIGS:
            cfg = OptimizerConfig(eta=0.05, gamma=0.3, iterations=ITERATIONS, **options)
            for spec in COMPRESSORS:
                for log_every in (1, 3):
                    record = run(problem, cfg, mixing, parse_compressor(spec), seed=4,
                                 log_every=log_every, x0=x0)
                    name = "/".join([kind, *map(str, options.values()), spec, str(log_every)])
                    yield name, spec, record
    quadratic = make_quadratic(N, 7, heterogeneity=1.0, noise_std=0.5, seed=8)
    diverging = OptimizerConfig(eta=50.0, gamma=0.5, iterations=60)
    yield "diverging", "sign", run(quadratic, diverging, mixing, parse_compressor("sign"),
                                   seed=4, x0=np.linspace(-0.5, 0.5, 7))
    nan_start = OptimizerConfig(eta=0.05, gamma=0.5, iterations=20)
    yield "nan-start", "gsgd:4", run(quadratic, nan_start, mixing, parse_compressor("gsgd:4"),
                                     seed=1, x0=np.array([0.1, np.nan, 0.2, 0.3, 0.0, 0.0, 0.0]))


def main():
    total = hashlib.sha256()
    families = {spec: hashlib.sha256() for spec in COMPRESSORS}
    runs = dict.fromkeys(COMPRESSORS, 0)
    for name, spec, record in corpus():
        text = f"{name}\n{describe(record)}\n".encode()
        total.update(text)
        families[spec].update(text)
        runs[spec] += 1
    for spec, digest in families.items():
        print(f"{digest.hexdigest()}  ({runs[spec]} runs, {spec})")
    print(f"{total.hexdigest()}  ({sum(runs.values())} runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
