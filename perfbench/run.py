"""chocosim benchmark.

    python3 perfbench/run.py --workload ring16-sign --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py [--seed 1] [--seconds 25]    # all workloads

A run is a closed loop with one client: it repeats one workload, each
repetition in a fresh single-threaded process, until ``--seconds`` are
used, checks every repetition's outputs and reports medians. ``--trace 0``
gives the end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer
metrics from traced repetitions interleaved with untraced ones. Times are
scaled to a reference host speed by a calibration unit timed around each
repetition (see NOTES.md). The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.

Without ``--workload`` every workload runs untraced, then traced, and the
full report (all layers, their shares of the traced wall time, the
environment) goes to ``.bench_out/BENCH.json``.
"""

import argparse
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import RUN_WORKLOADS, WORKLOADS, check_outputs, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0  # a run has to end within 180 s
CHILD_TIMEOUT_S = 120.0
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "CHOCO_THREADS": "1"}
# Host speed drifts by about 25% over minutes on shared machines, and a fixed
# calibration unit slows in step with the workloads. Times are therefore
# scaled by REFERENCE_UNIT_S / (median time of the unit, timed in this
# process right before and after each repetition). This process never
# imports chocosim, so a change to the program cannot move the calibration.
REFERENCE_UNIT_S = 0.040
CALIBRATION_SAMPLES = 4


class ChildError(RuntimeError):
    pass


def calibration_unit(np, a, b, v):
    """Interpreter work and small NumPy kernels, about half the time each,
    like one chocosim iteration."""
    acc, seen = 0.0, {}
    for i in range(75_000):
        k = i % 251
        seen[k] = seen.get(k, 0) + 1
        acc += math.sqrt(i) * (k & 7)
    for _ in range(90):
        acc += float(np.tanh(a @ b).sum())
        np.argsort(-np.abs(v), kind="stable")
    return acc


def calibrate():
    """Times of CALIBRATION_SAMPLES calibration units; main() pins BLAS to
    one thread before NumPy loads."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b, v = rng.standard_normal((256, 32)), rng.standard_normal((32, 64)), rng.standard_normal(2048)
    times = []
    for _ in range(CALIBRATION_SAMPLES):
        start = time.perf_counter()
        calibration_unit(np, a, b, v)
        times.append(time.perf_counter() - start)
    return times


def is_time(name):
    return name.endswith((".s", ".self_s"))


def run_child(spec, tmp_dir, timeout):
    env = dict(os.environ, **BLAS_THREADS, TMPDIR=str(tmp_dir))
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildError(f"repetition killed after {timeout:.0f} s") from None
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise ChildError(f"repetition exited {proc.returncode}: {last}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildError("repetition printed no result") from None


def run_workload(workload, seed, seconds, trace):
    """Repeat one workload for ``seconds``; returns metrics and failures.

    With ``trace`` the repetitions alternate untraced and traced, starting
    untraced, so the tracing overhead is measured in the same run.
    """
    config = make_config(workload, seed) if workload in RUN_WORKLOADS else None
    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    (OUT / "spans").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    (work / "tmp").mkdir()
    attempted, failed, failures, good = 0, 0, [], []

    def remaining():
        return RUN_LIMIT_S - (time.monotonic() - started)

    try:
        # brackets[k] and brackets[k + 1] are timed right before and after rep k
        brackets = [calibrate()]
        measured = time.monotonic()
        for rep in itertools.count():
            traced = trace and rep % 2 == 1
            attempted += 1
            spec = {"workload": workload, "config": config,
                    "out_dir": str(work / f"rep{rep}"), "trace": traced,
                    "spans_path": str(OUT / "spans" / f"{workload}.csv")}
            try:
                out = run_child(spec, work / "tmp", min(CHILD_TIMEOUT_S, remaining()))
                out["traced"], out["rep"] = traced, rep
                problems = check_outputs(workload, config, out) + compare(out, good)
            except ChildError as exc:
                problems = [str(exc)]
            if problems:
                failed += 1
                failures += [f"repetition {rep}: {p}" for p in problems]
            else:
                good.append(out)
            brackets.append(calibrate())
            elapsed = time.monotonic() - measured
            per_rep = elapsed / (rep + 1)
            if per_rep > remaining() - 5.0:
                break
            if rep + 1 >= (2 if trace else 1) and elapsed + per_rep > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for out in good:
        out["scale"] = REFERENCE_UNIT_S / statistics.median(
            brackets[out["rep"]] + brackets[out["rep"] + 1])
    result = {"workload": workload, "seed": seed, "trace": trace, "attempted": attempted,
              "failed": failed, "failures": failures, "repetitions": good,
              "calibration_s": brackets}
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not untraced or (trace and not traced):
        return result
    result["env"] = good[0]["env"]
    result["fingerprint"] = good[0]["fingerprint"]
    result["unscaled"] = end_to_end(untraced, scaled=False)
    result["metrics"] = end_to_end(untraced)
    if trace:
        result["layers"] = per_layer(traced, untraced)
    return result


def compare(out, good):
    """Fingerprint and exact counts must repeat within a run."""
    problems = []
    if good and out["fingerprint"] != good[0]["fingerprint"]:
        problems.append("fingerprint differs from the run's first repetition")
    earlier = next((r for r in good if r["traced"]), None)
    if out["traced"] and earlier is not None:
        moved = [k for k, v in out["layers"].items()
                 if not is_time(k) and v != earlier["layers"][k]]
        if moved:
            problems.append(f"exact counts changed: {', '.join(sorted(moved))}")
    return problems


def end_to_end(reps, scaled=True):
    """Medians over repetitions of each repetition's times, scaled by its
    calibration unless ``scaled`` is false."""
    def med(key):
        return statistics.median(key(r) * (r["scale"] if scaled else 1.0) for r in reps)

    return {
        "setup_s": med(lambda r: r["setup_s"]),
        "iters_per_s": 1.0 / med(lambda r: r["run_s"] / r["iterations"]),
        "wall_s": med(lambda r: r["wall_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(traced, untraced):
    """Medians of the traced self times, each scaled by its repetition's
    calibration; counts from the first traced repetition (they repeat
    exactly)."""
    layers = dict(traced[0]["layers"])
    for name in layers:
        if is_time(name):
            layers[name] = statistics.median(r["scale"] * r["layers"][name] for r in traced)
    layers["verify.checks_passed"] = traced[0].get("checks_passed", 0)
    layers["verify.checks_total"] = traced[0].get("checks_total", 0)
    traced_wall = statistics.median(r["scale"] * r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["scale"] * r["wall_s"] for r in untraced)
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    layers["trace.wall_s"] = traced_wall
    return layers


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def result_line(result, declared):
    values = result["layers"] if result["trace"] else result["metrics"]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    })


def print_result(result, declared):
    print(f"{result['workload']} seed={result['seed']} trace={int(result['trace'])} "
          f"env={json.dumps(result['env'], sort_keys=True)}")
    print(f"  unscaled: {json.dumps(result['unscaled'])}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for m in declared:
        value = (result["layers"] if result["trace"] else result["metrics"])[m["name"]]
        print(f"  {m['name']:40s} {value!r} {m['unit']}")


def run_all(seed, seconds, spec):
    report = {"seed": seed, "seconds": seconds, "workloads": {}}
    correct = True
    for workload in WORKLOADS:
        entry = {}
        for trace in (False, True):
            result = run_workload(workload, seed, seconds, trace)
            if "metrics" not in result:
                print(f"{workload}: no repetition passed: {result['failures']}",
                      file=sys.stderr)
                return 1
            print_result(result, spec["per_layer" if trace else "end_to_end"])
            correct = correct and not result["failures"]
            if entry.get("fingerprint", result["fingerprint"]) != result["fingerprint"]:
                print(f"  FAILED {workload}: tracing changed the fingerprint")
                correct = False
            report["env"] = result["env"]
            entry["attempted"] = entry.get("attempted", 0) + result["attempted"]
            entry["failed"] = entry.get("failed", 0) + result["failed"]
            entry["fingerprint"] = result["fingerprint"]
            if trace:
                layers = result["layers"]
                entry["per_layer"] = layers
                entry["share_of_traced_wall"] = {
                    name: layers[name] / layers["trace.wall_s"]
                    for name in sorted(layers)
                    if is_time(name) and not name.startswith("trace.")}
            else:
                entry["end_to_end"] = result["metrics"]
        report["workloads"][workload] = entry
    path = OUT / "BENCH.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit inside subprocess.run kills and reaps the running repetition
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.update(BLAS_THREADS)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "chocosim" / "__init__.py").is_file():
        print(f"chocosim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload is None:
        return run_all(args.seed, args.seconds, spec)
    trace = bool(args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, trace)
    if "metrics" not in result:
        print(f"no repetition passed: {result['failures']}", file=sys.stderr)
        return 1
    declared = spec["per_layer" if trace else "end_to_end"]
    (OUT / "results").mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print_result(result, declared)
    print(result_line(result, declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
