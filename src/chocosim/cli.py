"""Command line front end.

Subcommands:

* ``run``      execute a config over its seeds, writing CSV logs + a summary
* ``topology`` inspect a communication graph's spectral quantities
* ``sweep``    grid-search stepsizes for a config and report the best cell
* ``verify``   run the built-in invariant suites

Exit codes: 0 success, 1 usage or config error, 2 divergence.
"""

import argparse
import json
import os
import sys

import numpy as np

from .compression import contraction_factor, parse_compressor
from .config import (ConfigError, ExperimentConfig, build_topology,
                     execute_config, run_cells)
from .consensus import consensus_stepsize
from .metrics import _atomic_write, run_id
from .topology import load_edge_list, mixing_matrix
from .verify import format_report, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _load_config(args):
    config = ExperimentConfig.from_file(args.config)
    data = config.to_dict()
    if getattr(args, "seed", None):
        data["seeds"] = list(args.seed)
    if getattr(args, "out", None) is not None:
        data["out"] = args.out
    if getattr(args, "log_every", None) is not None:
        data["log_every"] = args.log_every
    if getattr(args, "broadcast", False):
        data["broadcast"] = True
    return ExperimentConfig.from_dict(data)


def cmd_run(args):
    config = _load_config(args)
    records, paths = execute_config(config)
    for record in records:
        status = "ok"
        if record.diverged:
            status = f"DIVERGED at t={record.diverged_at} (node {record.diverged_node})"
        final = record.f_avg[-1] if record.f_avg else float("nan")
        print(f"seed {record.seed}: {status}  rows={len(record.t)}  "
              f"final_f={final:.6g}  busiest_bits={record.bits_busiest[-1] if record.bits_busiest else 0}")
    for path in paths:
        print(f"wrote {path}")
    return EXIT_DIVERGED if any(r.diverged for r in records) else EXIT_OK


def cmd_topology(args):
    if args.edge_list:
        graph = load_edge_list(args.edge_list)
    else:
        graph = build_topology(args.spec)
    mixing = mixing_matrix(graph)
    degrees = graph.degrees()
    print(f"nodes: {graph.n}")
    print(f"edges: {len(graph.edges)}")
    print(f"degree: min {int(degrees.min())} max {int(degrees.max())}")
    print(f"spectral gap: {mixing.rho:.6f}")
    print(f"operator gap: {mixing.beta:.6f}")
    print("consensus stepsize by compression quality:")
    for delta in (1.0, 0.5, 0.25, 0.1, 0.01):
        gamma = consensus_stepsize(mixing, delta)
        print(f"  delta={delta:<5g} gamma={gamma:.6g}")
    return EXIT_OK


def _sweep_metric(record):
    """Final objective, or final disagreement for gradient-free runs."""
    if record.diverged or not record.f_avg:
        return float("inf")
    if record.eta == 0.0:
        return record.psi[-1]
    return record.f_avg[-1]


def cmd_sweep(args):
    config = _load_config(args)
    etas = config.eta_grid if config.eta_grid is not None else [config.eta]
    gammas = config.gamma_grid if config.gamma_grid is not None else [None]
    cfg_dict = config.to_dict()
    payloads = []
    cells = []
    for eta in etas:
        for gamma in gammas:
            cells.append((eta, gamma))
            for seed in config.seeds:
                payloads.append({"config": config, "seed": seed,
                                 "eta": eta, "gamma": gamma})
    records = run_cells(payloads)
    per_seed = len(config.seeds)
    results = []
    for idx, (eta, gamma) in enumerate(cells):
        chunk = records[idx * per_seed:(idx + 1) * per_seed]
        metrics = [_sweep_metric(r) for r in chunk]
        metric = float(np.mean(metrics))
        results.append({"eta": eta,
                        "gamma": "auto" if gamma is None else gamma,
                        "metric": metric,
                        "diverged_seeds": sum(r.diverged for r in chunk)})
        print(f"eta={eta:<10g} gamma={results[-1]['gamma']:<10} "
              f"metric={metric:.6g} diverged={results[-1]['diverged_seeds']}/{per_seed}")
    finite = [r for r in results if np.isfinite(r["metric"])]
    if not finite:
        print("all cells diverged", file=sys.stderr)
        return EXIT_DIVERGED
    best = min(finite, key=lambda r: r["metric"])
    print(f"best: eta={best['eta']} gamma={best['gamma']} metric={best['metric']:.6g}")
    if len(etas) > 1 and best["eta"] in (min(etas), max(etas)):
        print("warning: best stepsize lies on the grid boundary; widen eta_grid")
    numeric_gammas = [g for g in gammas if g is not None]
    if len(numeric_gammas) > 1 and best["gamma"] in (min(numeric_gammas), max(numeric_gammas)):
        print("warning: best consensus stepsize lies on the grid boundary; widen gamma_grid")
    path = os.path.join(config.out, f"sweep_{run_id(cfg_dict, config.seeds[0])}.json")
    _atomic_write(path, json.dumps({"config": cfg_dict, "cells": results, "best": best},
                                   indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args):
    try:
        checks = run_suite(args.suite)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    print(format_report(checks))
    return EXIT_OK if all(c.passed for c in checks) else EXIT_USAGE


def build_parser():
    parser = _Parser(prog="chocosim",
                     description="Decentralized SGD with compressed gossip: "
                                 "simulation and verification tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument("--seed", type=int, action="append",
                       help="override config seeds (repeatable)")
    p_run.add_argument("--out", help="override output directory")
    p_run.add_argument("--log-every", type=int, dest="log_every",
                       help="override logging stride")
    p_run.add_argument("--broadcast", action="store_true",
                       help="count one shared message per node instead of per edge")

    p_top = sub.add_parser("topology", help="inspect a communication graph")
    group = p_top.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help="ring:<n> | torus:<n> | full:<n> | edgelist:<path>")
    group.add_argument("--edge-list", dest="edge_list", help="path to an edge list file")

    p_sweep = sub.add_parser("sweep", help="grid-search eta_grid x gamma_grid")
    p_sweep.add_argument("--config", required=True, help="path to a JSON config")
    p_sweep.add_argument("--seed", type=int, action="append",
                         help="override config seeds (repeatable)")
    p_sweep.add_argument("--out", help="override output directory")

    p_verify = sub.add_parser("verify", help="run built-in invariant suites")
    p_verify.add_argument("suite", nargs="?", default="all",
                          help="compression | consensus | equivalence | "
                               "convergence | traffic | all")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    handlers = {"run": cmd_run, "topology": cmd_topology,
                "sweep": cmd_sweep, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
