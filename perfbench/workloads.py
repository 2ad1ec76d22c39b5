"""The benchmark's workloads: configs generated from a seed, and the checks
every repetition's outputs must pass.

Nothing here imports chocosim or NumPy. The expected traffic is computed
from the README's bit-cost table, independently of the program's ledger,
so a wrong count in the program shows up as a failed check.
"""

import math

RUN_WORKLOADS = ("ring16-sign", "torus64-topk", "mlp-gsgd-ef")
WORKLOADS = RUN_WORKLOADS + ("verify-all",)
VERIFY_CHECKS = 25  # checks in verify.run_suite("all")


def make_config(workload, seed):
    """ExperimentConfig dict of a run workload; the seed sets the problem
    seed and the run seed, nothing else."""
    if workload == "ring16-sign":
        config = dict(topology="ring:16", compressor="sign", algorithm="choco",
                      eta=0.05, iterations=1500, log_every=1,
                      problem=dict(kind="quadratic", n=16, dim=10))
    elif workload == "torus64-topk":
        config = dict(topology="torus:64", compressor="topk:0.1", algorithm="choco",
                      eta=0.05, iterations=200, log_every=25,
                      problem=dict(kind="quadratic", n=64, dim=200))
    elif workload == "mlp-gsgd-ef":
        # "gaussian": from x0 = 0 the tanh network sits on a saddle and the
        # loss stays at ln 2 (see NOTES.md)
        config = dict(topology="ring:16", compressor="gsgd:4",
                      algorithm="choco-errorfeedback", eta=0.5, iterations=150,
                      log_every=1, broadcast=True, x0_mode="gaussian",
                      problem=dict(kind="mlp", n=16, input_dim=32, hidden=64,
                                   samples=4096))
    else:
        raise ValueError(f"{workload!r} is not a run workload")
    config["problem"]["seed"] = seed
    config["seeds"] = [seed]
    return config


def message_bits(spec, dim):
    """Wire size of one compressed message of length ``dim`` (README table)."""
    kind, _, arg = spec.partition(":")
    if kind == "sign":
        return dim + 32
    if kind == "gsgd":
        return int(arg) * dim + 32
    if kind == "topk":
        return 64 * max(1, math.floor(float(arg) * dim))
    raise ValueError(f"unknown compressor {spec!r}")


def block_dims(problem):
    """Compressed blocks of one message: the MLP is compressed per layer."""
    if problem["kind"] == "quadratic":
        return [problem["dim"]]
    if problem["kind"] == "mlp":
        p, h = problem["input_dim"], problem["hidden"]
        return [h * p, h, h, 1]
    raise ValueError(f"no block layout for {problem['kind']!r}")


def out_degree(topology):
    """Degree of every node of the workloads' graphs."""
    kind, size = topology.split(":")
    if kind == "ring" and int(size) > 2:
        return 2
    if kind == "torus":
        return 4
    raise ValueError(f"no closed-form degree for {topology!r}")


def expected_bits_busiest(config):
    """``iterations x sum_blocks bit_cost x out-degree`` (x 1 for broadcast);
    every node of the workload graphs has the same degree."""
    per_message = sum(message_bits(config["compressor"], d)
                      for d in block_dims(config["problem"]))
    copies = 1 if config.get("broadcast", False) else out_degree(config["topology"])
    return config["iterations"] * per_message * copies


def check_outputs(workload, config, out):
    """Failed output checks of one repetition, as one-line messages."""
    if workload == "verify-all":
        if out["checks_passed"] == out["checks_total"] == VERIFY_CHECKS:
            return []
        return [f"verify: {out['checks_passed']}/{out['checks_total']} passed, "
                f"expected {VERIFY_CHECKS}/{VERIFY_CHECKS}"]
    failures = []
    if out["diverged"]:
        failures.append("run diverged")
    expected = expected_bits_busiest(config)
    if out["bits_busiest"] != expected:
        failures.append(f"bits_busiest {out['bits_busiest']} != analytic {expected}")
    if config["problem"]["kind"] == "quadratic":
        if not out["final_gap"] <= 0.5 * out["initial_gap"]:
            failures.append(f"f - f* = {out['final_gap']!r} above half the initial "
                            f"gap {out['initial_gap']!r}")
    elif not out["final_f"] < math.log(2.0):
        failures.append(f"final loss {out['final_f']!r} not below ln 2")
    return failures
