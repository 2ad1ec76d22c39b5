"""Experiment configuration: one JSON document describes topology,
compression, algorithm, problem, and logging; a config plus a seed fully
determines every byte of the run's CSV output.

Unknown keys are rejected rather than ignored, and the echoed form
(:meth:`ExperimentConfig.to_dict`) round-trips: parse(echo(parse(x))) ==
parse(x).
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .compression import parse_compressor
from .metrics import run_id, write_aggregate_csv, write_csv, write_summary
from .numerics import RandomStream
from .optim import ALGORITHMS, OptimizerConfig, _is_number, run
from .problems import (PARTITION_MODES, load_csv_dataset, make_logistic, make_mlp,
                       make_quadratic)
from .topology import fully_connected, load_edge_list, mixing_matrix, ring, torus

THREADS_ENV = "CHOCO_THREADS"

_PROBLEM_DEFAULTS = {
    "quadratic": dict(kind="quadratic", n=8, dim=10, heterogeneity=1.0, noise_std=1.0,
                      seed=0, mu=0.1, l_smooth=1.0, xstar_scale=1.0),
    "logistic": dict(kind="logistic", n=8, dim=10, samples=2000, mode="iid-reshuffled",
                     by_label=False, reg=1e-3, batch=32, seed=0, margin=1.5, csv=None),
    "mlp": dict(kind="mlp", n=8, input_dim=8, hidden=16, samples=1024,
                mode="iid-reshuffled", by_label=False, batch=32, seed=0, margin=1.5,
                csv=None),
}

X0_MODES = ("zeros", "optimum", "gaussian")
_PROBLEM_INTEGERS = ("n", "dim", "input_dim", "hidden", "samples", "batch")
_PROBLEM_NUMBERS = ("heterogeneity", "noise_std", "reg", "margin", "mu", "l_smooth",
                    "xstar_scale")


class ConfigError(ValueError):
    """Raised for malformed configs; the CLI maps it to exit code 1."""


@dataclass
class ExperimentConfig:
    topology: str = "ring:8"
    compressor: str = "identity"
    algorithm: str = "choco"
    eta: float = 0.05
    gamma: object = "auto"
    momentum_factor: float = 0.0
    weight_decay: float = 0.0
    nesterov: bool = False
    iterations: int = 1000
    seeds: list = field(default_factory=lambda: [1])
    log_every: int = 1
    broadcast: bool = False
    out: str = "runs"
    problem: dict = field(default_factory=lambda: dict(_PROBLEM_DEFAULTS["quadratic"]))
    delta_override: object = None
    per_layer: bool = True
    x0_mode: str = "zeros"
    x0_scale: float = 1.0
    eta_grid: list = None
    gamma_grid: list = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        try:
            parse_compressor(self.compressor)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        graph = None
        if self.algorithm != "centralized":
            try:
                graph = build_topology(self.topology, check_only=True)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if not isinstance(self.seeds, list) or not self.seeds or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in self.seeds
        ):
            raise ConfigError("seeds must be a non-empty list of integers")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be non-negative integers")
        if self.x0_mode not in X0_MODES:
            raise ConfigError(f"x0_mode must be one of {X0_MODES}")
        if not _is_number(self.x0_scale):
            raise ConfigError("x0_scale must be a finite number")
        for name in ("broadcast", "per_layer"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false")
        if not isinstance(self.problem, dict) or "kind" not in self.problem:
            raise ConfigError("problem must be an object with a 'kind' key")
        kind = self.problem["kind"]
        if kind not in _PROBLEM_DEFAULTS:
            raise ConfigError(f"unknown problem kind {kind!r}")
        unknown = set(self.problem) - set(_PROBLEM_DEFAULTS[kind])
        if unknown:
            raise ConfigError(f"unknown problem keys for {kind}: {sorted(unknown)}")
        merged = dict(_PROBLEM_DEFAULTS[kind])
        merged.update(self.problem)
        self.problem = merged
        seed = merged["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError("problem.seed must be a non-negative integer")
        # types only; the problem constructors check the ranges
        for name in _PROBLEM_INTEGERS:
            if name in merged and (not isinstance(merged[name], int)
                                   or isinstance(merged[name], bool)):
                raise ConfigError(f"problem.{name} must be an integer")
        for name in _PROBLEM_NUMBERS:
            if name in merged and not _is_number(merged[name]):
                raise ConfigError(f"problem.{name} must be a finite number")
        if "mode" in merged and merged["mode"] not in PARTITION_MODES:
            raise ConfigError(f"problem.mode must be one of {PARTITION_MODES}")
        if "by_label" in merged and not isinstance(merged["by_label"], bool):
            raise ConfigError("problem.by_label must be true or false")
        if "csv" in merged and not (merged["csv"] is None or isinstance(merged["csv"], str)):
            raise ConfigError("problem.csv must be a string or null")
        if graph is not None and graph.n != merged["n"]:
            raise ConfigError(f"topology {self.topology} has {graph.n} nodes "
                              f"but problem.n is {merged['n']!r}")
        if self.x0_mode == "optimum" and kind != "quadratic":
            raise ConfigError("x0_mode 'optimum' needs the quadratic problem")
        # reuse the optimizer-side validation for the numeric fields
        try:
            self.optimizer()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for name, value in (("log_every", self.log_every),):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{name} must be a positive integer")
        for name in ("eta_grid", "gamma_grid"):
            grid = getattr(self, name)
            if grid is not None:
                if not isinstance(grid, list) or not grid or not all(
                    _is_number(v) and v >= 0 for v in grid
                ):
                    raise ConfigError(f"{name} must be a non-empty list of numbers >= 0")

    def optimizer(self):
        return OptimizerConfig(
            algorithm=self.algorithm,
            eta=self.eta,
            gamma=self.gamma,
            momentum_factor=self.momentum_factor,
            weight_decay=self.weight_decay,
            nesterov=self.nesterov,
            iterations=self.iterations,
            delta_override=self.delta_override,
        )

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_json(text)

    def to_dict(self):
        """Full echo including defaults; the canonical round-trip form."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = dict(value) if isinstance(value, dict) else (
                list(value) if isinstance(value, list) else value
            )
        return out

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def build_topology(spec, check_only=False):
    """Graph from a spec string: ``ring:<n> | torus:<n> | full:<n> | edgelist:<path>``."""
    parts = str(spec).split(":", 1)
    if len(parts) != 2:
        raise ValueError(f"bad topology spec {spec!r}")
    kind, arg = parts
    if kind == "edgelist":
        if check_only:
            return None  # existence is checked at build time
        return load_edge_list(arg)
    try:
        n = int(arg)
    except ValueError as exc:
        raise ValueError(f"bad topology size in {spec!r}") from exc
    if kind == "ring":
        return ring(n)
    if kind == "torus":
        return torus(n)
    if kind == "full":
        return fully_connected(n)
    raise ValueError(f"unknown topology kind {kind!r}")


def build_problem(spec):
    """Problem instance from the (already merged) problem config dict."""
    spec = dict(spec)
    kind = spec.pop("kind")
    if kind == "quadratic":
        return make_quadratic(**spec)
    csv_path = spec.pop("csv", None)
    data = load_csv_dataset(csv_path) if csv_path else None
    factory = make_logistic if kind == "logistic" else make_mlp
    return factory(data=data, **spec)


def resolve_x0(config, problem, seed):
    if config.x0_mode == "zeros":
        return np.zeros(problem.dim)
    if config.x0_mode == "optimum":
        return problem.optimum()
    draw = RandomStream(seed, 0, "init").normal(problem.dim)
    return config.x0_scale * draw / np.sqrt(problem.dim)


def execute_single(config, seed, eta=None, gamma=None):
    """One (config, seed) run; optional eta/gamma overrides for sweeps."""
    problem = build_problem(config.problem)
    mixing = None
    if config.algorithm != "centralized":
        mixing = mixing_matrix(build_topology(config.topology))
    comp = parse_compressor(config.compressor)
    opt = config.optimizer()
    if eta is not None:
        opt.eta = float(eta)
    if gamma is not None:
        opt.gamma = float(gamma)
    x0 = resolve_x0(config, problem, seed)
    return run(problem, opt, mixing=mixing, compressor=comp, seed=seed,
               log_every=config.log_every, broadcast=config.broadcast,
               x0=x0, per_layer=config.per_layer)


def _cell(payload):
    config = ExperimentConfig.from_dict(payload["config"])
    record = execute_single(config, payload["seed"],
                            eta=payload.get("eta"), gamma=payload.get("gamma"))
    # drop the heavyweight non-result state before shipping across processes
    record.workers = None
    record.ledger = None
    return record


def max_workers(n_jobs):
    cap = os.environ.get(THREADS_ENV)
    if cap is not None:
        try:
            cap = int(cap)
        except ValueError as exc:
            raise ConfigError(f"{THREADS_ENV} must be an integer") from exc
        if cap < 1:
            raise ConfigError(f"{THREADS_ENV} must be >= 1")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(n_jobs, cap))


def run_cells(payloads):
    """Run (config, seed[, eta, gamma]) cells, possibly in parallel."""
    workers = max_workers(len(payloads))
    if workers == 1 or len(payloads) == 1:
        return [_cell(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_cell, payloads))


def execute_config(config, out_dir=None):
    """Run all seeds of a config and write CSVs plus the JSON summary.

    Returns ``(records, paths)``; any diverged record means CLI exit 2.
    """
    out_dir = out_dir or config.out
    cfg_dict = config.to_dict()
    payloads = [{"config": cfg_dict, "seed": s} for s in config.seeds]
    records = run_cells(payloads)
    paths = []
    for record in records:
        path = os.path.join(out_dir, f"run_{run_id(cfg_dict, record.seed)}.csv")
        write_csv(record, path)
        paths.append(path)
    base = run_id(cfg_dict, config.seeds[0])
    if len(records) > 1:
        agg_path = os.path.join(out_dir, f"run_{base}_aggregate.csv")
        write_aggregate_csv(records, agg_path)
        paths.append(agg_path)
    summary_path = os.path.join(out_dir, f"run_{base}_summary.json")
    write_summary(records, cfg_dict, summary_path)
    paths.append(summary_path)
    return records, paths
