"""Paired in-process A/B timing of two chocosim trees.

    python tools/ab.py --base <rev> --workload torus64-topk --rounds 20

Extracts ``<rev>``'s ``src/chocosim`` with ``git archive`` and loads it,
and the working tree's ``src/chocosim``, into this one process as the
packages ``chocosim_base`` and ``chocosim_head``. A round times one run of
the workload on each tree, the first side alternating from round to round:
``optim.run`` on the config ``perfbench/workloads.make_config(W, 1)``
gives (the set-up is built outside the clock), or ``verify.run_suite("all")``
for ``verify-all``. Each side runs once, untimed, before the first round, so
no round pays first-call costs. As in the benchmark, BLAS runs on one
thread and ``CHOCO_THREADS`` is 1.

A round's ratio is the base time over the head time: above 1, the working
tree is faster. The report gives each side's median and quartiles, the
median ratio, the rounds each side won (a tie counts for neither) and a 95%
interval of the median ratio from a seeded bootstrap over the rounds. The
last line of stdout is the report as one JSON object. This script reads
``perfbench/`` and never writes there.
"""

import argparse
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import zipfile
from pathlib import Path

if __name__ == "__main__":  # before NumPy loads
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CHOCO_THREADS"):
        os.environ[_name] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
BOOTSTRAP_SAMPLES = 10_000
_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)  # imports neither chocosim nor NumPy
_spec.loader.exec_module(workloads)


def extract(rev, into):
    """``rev``'s ``src/chocosim`` written under ``into``; returns ``into / "src"``."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=zip", rev,
                           "src/chocosim"], check=True, capture_output=True).stdout
    with zipfile.ZipFile(io.BytesIO(blob)) as archive:
        archive.extractall(into)
    return Path(into) / "src"


def load(src, name):
    """The package ``src/chocosim`` imported as ``name``, with the modules a round calls."""
    for loaded in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[loaded]  # an earlier load of another tree
    init = Path(src) / "chocosim" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("config", "verify"):
        importlib.import_module(f"{name}.{module}")
    return package


def timer(package, workload):
    """A call that runs the workload once on ``package`` and returns the seconds timed."""
    if workload == "verify-all":
        def once():
            start = time.perf_counter()
            package.verify.run_suite("all")
            return time.perf_counter() - start
        return once
    config_module = package.config
    config = config_module.ExperimentConfig.from_dict(workloads.make_config(workload, 1))
    run, spent = config_module.run, []

    def timed_run(*args, **kwargs):  # config's run_cells calls its module's name run
        start = time.perf_counter()
        record = run(*args, **kwargs)
        spent.append(time.perf_counter() - start)
        return record

    config_module.run = timed_run

    def once():
        config_module.run_cells(config)
        return spent.pop()
    return once


def _spread(times):
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {"median_s": float(median), "q1_s": float(q1), "q3_s": float(q3)}


def summarize(base_times, head_times):
    """The report of paired times: each side's quartiles, the per-round
    ratios' median, the wins and a bootstrap 95% interval of that median."""
    ratios = np.asarray(base_times) / np.asarray(head_times)
    resampled = np.random.default_rng(0).choice(ratios, (BOOTSTRAP_SAMPLES, len(ratios)))
    low, high = np.percentile(np.median(resampled, axis=1), [2.5, 97.5])
    return {
        "rounds": len(ratios),
        "base": _spread(base_times),
        "head": _spread(head_times),
        "ratio_median": float(np.median(ratios)),
        "head_wins": int((ratios > 1.0).sum()),
        "base_wins": int((ratios < 1.0).sum()),
        "interval_95": [float(low), float(high)],
    }


def compare(base_src, head_src, workload, rounds):
    """Report of ``rounds`` paired runs of ``workload``, the two trees' ``src``
    directories loaded as ``chocosim_base`` and ``chocosim_head``."""
    if workload not in workloads.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if rounds < 1:
        raise ValueError("need at least one round")
    sides = [timer(load(src, name), workload)
             for src, name in ((base_src, "chocosim_base"), (head_src, "chocosim_head"))]
    for once in sides:
        once()  # warm-up
    times = ([], [])
    for k in range(rounds):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            times[side].append(sides[side]())
    return {"workload": workload, **summarize(*times)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, help="a perfbench workload")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        report = compare(extract(args.base, tmp), ROOT / "src", args.workload, args.rounds)
    report["base_rev"] = args.base
    for side in ("base", "head"):
        s = report[side]
        print(f"{side}: median {s['median_s'] * 1e3:.1f} ms "
              f"(quartiles {s['q1_s'] * 1e3:.1f} to {s['q3_s'] * 1e3:.1f})")
    low, high = report["interval_95"]
    print(f"base/head: median {report['ratio_median']:.3f}, 95% interval {low:.3f} to "
          f"{high:.3f}; head won {report['head_wins']} of {report['rounds']} rounds, "
          f"base {report['base_wins']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
