"""Experiment configuration: one JSON document describes topology,
compression, algorithm, problem, and logging; a config plus a seed fully
determines every byte of the run's CSV output.

Unknown keys are rejected rather than ignored, and the echoed form
(:meth:`ExperimentConfig.to_dict`) round-trips: parse(echo(parse(x))) ==
parse(x).

Every default is stated once, and every field has one rule. The
optimizer fields belong to :class:`~chocosim.optim.OptimizerConfig`, which
:class:`ExperimentConfig` extends; a problem kind's fields are its factory's
parameters (``data`` is given as a ``csv`` path). :func:`_check` takes every
other scalar field's rule from the type of its default. Float ranges stay in
the constructors, which library callers need too.
"""

import inspect
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .compression import parse_compressor
from .metrics import run_id, write_aggregate_csv, write_csv, write_summary
from .numerics import RandomStream
from .optim import OptimizerConfig, _is_number, run
from .problems import (PARTITION_MODES, load_csv_dataset, make_logistic, make_mlp,
                       make_quadratic)
from .topology import fully_connected, load_edge_list, mixing_matrix, ring, torus

THREADS_ENV = "CHOCO_THREADS"
X0_MODES = ("zeros", "optimum", "gaussian")
_MODES = {"x0_mode": X0_MODES, "problem.mode": PARTITION_MODES}


class ConfigError(ValueError):
    """Raised for malformed configs; the CLI maps it to exit code 1."""


def _factory_fields(factory):
    """A problem kind's fields and defaults: its factory's parameters, with
    the dataset ``data`` given as the path ``csv``."""
    return {"csv" if name == "data" else name: param.default
            for name, param in inspect.signature(factory).parameters.items()}


PROBLEM_FIELDS = {"quadratic": _factory_fields(make_quadratic),
                  "logistic": _factory_fields(make_logistic),
                  "mlp": _factory_fields(make_mlp)}


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check(name, value, default):
    """Raise :class:`ConfigError` unless ``value`` suits field ``name``: true
    or false for a bool default, an integer >= 1 for an int (every integer
    field but the seed is a size or a stride), a finite number for a float,
    a string for a str. Named exceptions: the seed, a mode and the csv path.
    """
    if name == "problem.seed":
        ok, rule = _is_int(value) and value >= 0, "a non-negative integer"
    elif name in _MODES:
        ok, rule = isinstance(value, str) and value in _MODES[name], f"one of {_MODES[name]}"
    elif name == "problem.csv":
        ok, rule = value is None or isinstance(value, str), "a string or null"
    elif isinstance(default, bool):
        ok, rule = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        if not _is_int(value):
            raise ConfigError(f"{name} must be an integer")
        ok, rule = value >= 1, ">= 1"
    elif isinstance(default, float):
        ok, rule = _is_number(value), "a finite number"
    else:
        ok, rule = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(f"{name} must be {rule}")


@dataclass
class ExperimentConfig(OptimizerConfig):
    topology: str = "ring:8"
    compressor: str = "identity"
    seeds: list = field(default_factory=lambda: [1])
    log_every: int = 1
    broadcast: bool = False
    out: str = "runs"
    problem: dict = field(default_factory=lambda: {"kind": "quadratic"})
    per_layer: bool = True
    x0_mode: str = "zeros"
    x0_scale: float = 1.0
    eta_grid: list = None
    gamma_grid: list = None

    def __post_init__(self):
        inherited = {f.name for f in fields(OptimizerConfig)}
        for f in fields(self):
            if f.name not in inherited and isinstance(f.default, (bool, int, float, str)):
                _check(f.name, getattr(self, f.name), f.default)
        try:
            super().__post_init__()
            parse_compressor(self.compressor)
            graph = None
            if self.algorithm != "centralized":
                graph = build_topology(self.topology, check_only=True)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not (isinstance(self.seeds, list) and self.seeds and all(map(_is_int, self.seeds))):
            raise ConfigError("seeds must be a non-empty list of integers")
        if min(self.seeds) < 0:
            raise ConfigError("seeds must be non-negative integers")

        if not isinstance(self.problem, dict) or "kind" not in self.problem:
            raise ConfigError("problem must be an object with a 'kind' key")
        kind = self.problem["kind"]
        _check("problem.kind", kind, "")
        if kind not in PROBLEM_FIELDS:
            raise ConfigError(f"unknown problem kind {kind!r}")
        defaults = PROBLEM_FIELDS[kind]
        unknown = set(self.problem) - set(defaults) - {"kind"}
        if unknown:
            raise ConfigError(f"unknown problem keys for {kind}: {sorted(unknown)}")
        self.problem = {"kind": kind, **defaults, **self.problem}
        for name, default in defaults.items():
            _check(f"problem.{name}", self.problem[name], default)
        if graph is not None and graph.n != self.problem["n"]:
            raise ConfigError(f"topology {self.topology} has {graph.n} nodes "
                              f"but problem.n is {self.problem['n']!r}")
        if self.x0_mode == "optimum" and kind != "quadratic":
            raise ConfigError("x0_mode 'optimum' needs the quadratic problem")

        # a grid value must pass its own field's rule
        for name in ("eta", "gamma"):
            grid = getattr(self, f"{name}_grid")
            if grid is not None and not (isinstance(grid, list) and grid
                                         and all(map(_is_number, grid))):
                raise ConfigError(f"{name}_grid must be a non-empty list of numbers")
            try:
                for value in grid or ():
                    OptimizerConfig(**{name: value})
            except ValueError as exc:
                raise ConfigError(f"{name}_grid: {exc}") from exc

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
        return asdict(self)

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
    try:
        data = load_csv_dataset(csv_path) if csv_path else None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read problem.csv: {exc}") from exc
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
    """One (config, seed) run; ``eta``/``gamma`` set a sweep cell's stepsizes,
    checked as any config is."""
    cell = {k: float(v) for k, v in (("eta", eta), ("gamma", gamma)) if v is not None}
    if cell:
        config = replace(config, **cell)
    problem = build_problem(config.problem)
    mixing = None
    if config.algorithm != "centralized":
        mixing = mixing_matrix(build_topology(config.topology))
    comp = parse_compressor(config.compressor)
    x0 = resolve_x0(config, problem, seed)
    return run(problem, config, mixing=mixing, compressor=comp, seed=seed,
               log_every=config.log_every, broadcast=config.broadcast,
               x0=x0, per_layer=config.per_layer)


def _cell(payload):
    record = execute_single(payload["config"], payload["seed"],
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
    payloads = [{"config": config, "seed": s} for s in config.seeds]
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
