"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py '<json spec>'

The spec names the workload, its config (run workloads), an output
directory and whether to trace. The last stdout line is one JSON object. The clock starts before
``import chocosim``, so ``setup_s`` and ``wall_s`` include the import and
every first-call cost a CLI invocation pays.
"""

import hashlib
import json
import math
import os
import resource
import sys
import time

from tracer import Tracer, layer_metrics


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def execute_run(config_dict, out_dir, started, tracer=None):
    """Run one config through ``config.execute_config``, the CLI path, and
    time it from outside; returns timings, fingerprints and check inputs.

    A wrapper on ``optim.run`` reads the clock when the run starts and ends,
    and keeps the busiest node's bits before ``execute_config`` drops the
    record's ledger. ``tracer`` is removed when the timed part ends.
    """
    from chocosim import optim
    from chocosim.config import ExperimentConfig, execute_config

    seen = {}

    def timed_run(problem, *args, **kwargs):
        seen["ran"] = time.perf_counter()
        record = run(problem, *args, **kwargs)
        seen["wrote"] = time.perf_counter()
        seen.update(problem=problem, x0=kwargs["x0"], bits_busiest=record.ledger.busiest())
        return record

    run = optim.run  # the traced wrapper when tracing
    hooks = Tracer("hooks")  # used only to patch and restore
    hooks.patch_function(run, timed_run)
    try:
        records, paths = execute_config(ExperimentConfig.from_dict(config_dict),
                                        out_dir=out_dir)
        done = time.perf_counter()
    finally:
        hooks.uninstall()
        if tracer is not None:
            tracer.uninstall()

    record, problem = records[0], seen["problem"]
    with open(paths[0], "rb") as fh:  # the run CSV; one seed, no aggregate
        csv_sha = sha256(fh.read())
    x_sha = sha256(record.final_x_mean.tobytes())
    out = {
        "setup_s": seen["ran"] - started,
        "run_s": seen["wrote"] - seen["ran"],
        "wall_s": done - started,
        "iterations": record.t[-1] if record.t else 0,
        "fingerprint": sha256(f"{csv_sha}:{x_sha}".encode()),
        "diverged": record.diverged,
        "bits_busiest": seen["bits_busiest"],
        "final_f": record.f_avg[-1] if record.f_avg else math.nan,
    }
    if problem.kind == "quadratic":
        f_star = problem.f_star()
        out["initial_gap"] = problem.loss(seen["x0"]) - f_star
        out["final_gap"] = out["final_f"] - f_star
    return out


def execute_verify(started, tracer=None):
    """``run_suite("all")`` plus its report; iterations count every
    optimizer iteration and gossip round the suite executes."""
    from chocosim import consensus, optim, verify

    counted = {"iterations": 0}

    def counting_run(*args, **kwargs):
        record = run(*args, **kwargs)
        counted["iterations"] += record.t[-1] if record.t else 0
        return record

    def counting_round(*args, **kwargs):
        counted["iterations"] += 1
        return gossip_round(*args, **kwargs)

    run, gossip_round = optim.run, consensus.choco_gossip_round
    counters = Tracer("verify-all")  # used only to patch and restore
    counters.patch_function(run, counting_run)
    counters.patch_function(gossip_round, counting_round)
    ran = time.perf_counter()
    checks = verify.run_suite("all")
    report = verify.format_report(checks)
    done = time.perf_counter()
    counters.uninstall()
    if tracer is not None:
        tracer.uninstall()
    return {
        "setup_s": ran - started,
        "run_s": done - ran,
        "wall_s": done - started,
        "iterations": counted["iterations"],
        "fingerprint": sha256(report.encode()),
        "checks_passed": sum(1 for c in checks if c.passed),
        "checks_total": len(checks),
    }


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "CHOCO_THREADS")},
    }


def main():
    spec = json.loads(sys.argv[1])
    started = time.perf_counter()
    import chocosim  # noqa: F401  (timed: the import is part of set-up)

    tracer = None
    if spec["trace"]:
        tracer = Tracer(spec["workload"])
        tracer.install()
    if spec["workload"] == "verify-all":
        out = execute_verify(started, tracer)
    else:
        out = execute_run(spec["config"], spec["out_dir"], started, tracer)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = layer_metrics(tracer.spans)
        tracer.write(spec["spans_path"])
    out["env"] = environment()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
