"""Command line front end.

Subcommands:

* ``run``      execute a config over its seeds, writing CSV logs + a summary
* ``topology`` inspect a communication graph's spectral quantities
* ``sweep``    grid-search stepsizes for a config and report the best cell
* ``verify``   run the built-in invariant suites

Exit codes: 0 success, 1 usage or config error (a set-up too big for
memory included), 2 divergence.
"""

import argparse
import copy
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .config import ConfigError, ExperimentConfig, execute_config, read_config, run_cells
from .consensus import consensus_stepsize
from .metrics import _atomic_write, run_id, summarize
from .numerics import numeral
from .topology import build_topology, mixing_matrix
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
    """The file's data with each given flag whose dest is a field, validated once."""
    data = read_config(args.config)
    if isinstance(data, dict):  # any other root is refused by from_dict
        names = {f.name for f in fields(ExperimentConfig)}
        data.update((name, value) for name, value in vars(args).items()
                    if name in names and value is not None)
    return ExperimentConfig.from_dict(data)


def cmd_run(args):
    config = _load_config(args)
    records, paths = execute_config(config)
    for record in records:
        status = (f"DIVERGED at t={record.diverged_at} (node {record.diverged_node})"
                  if record.diverged else "ok")
        summary = summarize(record)
        print(f"seed {record.seed}: {status}  rows={summary['rows']}  "
              f"final_f={summary.get('final_f', float('nan')):.6g}  "
              f"busiest_bits={summary.get('bits_busiest', 0)}")
    for path in paths:
        print(f"wrote {path}")
    return EXIT_DIVERGED if any(r.diverged for r in records) else EXIT_OK


def cmd_topology(args):
    graph = build_topology(args.spec)
    mixing = mixing_matrix(graph)
    degrees = graph.degrees()
    print(f"nodes: {graph.n}")
    print(f"edges: {len(graph.ends)}")
    print(f"degree: min {int(degrees.min())} max {int(degrees.max())}")
    print(f"spectral gap: {mixing.rho:.6f}")
    print(f"operator gap: {mixing.beta:.6f}")
    print("consensus stepsize by compression quality:")
    for delta in (1.0, 0.5, 0.25, 0.1, 0.01):
        print(f"  delta={delta:<5g} gamma={consensus_stepsize(mixing, delta):.6g}")
    return EXIT_OK


def _sweep_metric(record, gossip_only):
    """Final objective, or final disagreement psi in a sweep of pure gossip
    (every eta 0), so that every cell of a sweep is scored alike."""
    if record.diverged or not record.f_avg:
        return float("inf")
    return record.psi[-1] if gossip_only else record.f_avg[-1]


def cmd_sweep(args):
    config = _load_config(args)
    etas = config.eta_grid or [config.eta]  # a grid is never empty
    gammas = config.gamma_grid or [None]
    cfg_dict = config.to_dict()
    cells = [(eta, gamma) for eta in etas for gamma in gammas]
    # each cell copies the checked config (its grids passed η's and γ's rules)
    configs = [copy.copy(config) for _ in cells]
    for cfg, (eta, gamma) in zip(configs, cells):
        cfg.eta, cfg.gamma = float(eta), config.gamma if gamma is None else float(gamma)
    records = run_cells(config, configs)
    per_seed = len(config.seeds)
    gossip_only = not any(etas)
    results = []
    for idx, (eta, gamma) in enumerate(cells):
        chunk = records[idx * per_seed:(idx + 1) * per_seed]
        metric = float(np.mean([_sweep_metric(r, gossip_only) for r in chunk]))
        results.append({"eta": eta, "gamma": "auto" if gamma is None else gamma,
                        "metric": metric, "diverged_seeds": sum(r.diverged for r in chunk)})
        print(f"eta={eta:<10g} gamma={results[-1]['gamma']:<10} "
              f"metric={metric:.6g} diverged={results[-1]['diverged_seeds']}/{per_seed}")
    finite = [r for r in results if np.isfinite(r["metric"])]
    if not finite:
        print("all cells diverged", file=sys.stderr)
        return EXIT_DIVERGED
    best = min(finite, key=lambda r: r["metric"])
    print(f"best: eta={best['eta']} gamma={best['gamma']} metric={best['metric']:.6g}")
    for name, what, grid in (("eta", "stepsize", etas),
                             ("gamma", "consensus stepsize", config.gamma_grid or [])):
        if len(grid) > 1 and best[name] in (min(grid), max(grid)):
            print(f"warning: best {what} lies on the grid boundary; widen {name}_grid")
    path = os.path.join(config.out, f"sweep_{run_id(cfg_dict, config.seeds[0])}.json")
    _atomic_write(path, json.dumps({"config": cfg_dict, "cells": results, "best": best},
                                   indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args):
    checks = run_suite(args.suite)
    print(format_report(checks))
    return EXIT_OK if all(c.passed for c in checks) else EXIT_USAGE


def build_parser():
    parser = _Parser(prog="chocosim",
                     description="Decentralized SGD with compressed gossip: "
                                 "simulation and verification tools.")
    sub = parser.add_subparsers(dest="command", required=True)
    # the config arguments that run and sweep share
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", required=True, help="path to a JSON config")
    configured.add_argument("--seed", type=numeral, action="append", dest="seeds", metavar="SEED",
                            help="override config seeds (repeatable)")
    configured.add_argument("--out", help="override output directory")

    p_run = sub.add_parser("run", parents=[configured], help="execute an experiment config")
    p_run.add_argument("--log-every", type=numeral, help="override logging stride")
    p_run.add_argument("--broadcast", action="store_true", default=None,
                       help="count one shared message per node instead of per edge")

    p_top = sub.add_parser("topology", help="inspect a communication graph")
    p_top.add_argument("--spec", required=True,
                       help="ring:<n> | torus:<n> | full:<n> | edgelist:<path>")

    sub.add_parser("sweep", parents=[configured], help="grid-search eta_grid x gamma_grid")

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
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
