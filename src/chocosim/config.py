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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import problems
from .compression import parse_compressor
from .metrics import run_id, write_aggregate_csv, write_csv, write_summary
from .numerics import RandomStream, is_integer, is_number
from .optim import ALGORITHM_TABLE, OptimizerConfig, run
from .problems import PARTITION_MODES, load_csv_dataset
from .topology import build_topology, mixing_matrix

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


# each kind's factory, looked up in ``problems`` per call (the benchmark tracer wraps it)
_FACTORIES = {"quadratic": "make_quadratic", "logistic": "make_logistic", "mlp": "make_mlp"}
PROBLEM_FIELDS = {kind: _factory_fields(getattr(problems, name))
                  for kind, name in _FACTORIES.items()}


def _check(name, value, default):
    """Raise :class:`ConfigError` unless ``value`` suits field ``name``: true
    or false for a bool default, an integer >= 1 for an int (every integer
    field but the seed is a size or a stride), a finite number for a float,
    a string for a str. Named exceptions: the seed, a mode and the csv path.
    """
    if name == "problem.seed":
        ok, rule = is_integer(value) and value >= 0, "a non-negative integer"
    elif name in _MODES:
        ok, rule = isinstance(value, str) and value in _MODES[name], f"one of {_MODES[name]}"
    elif name == "problem.csv":
        ok, rule = value is None or isinstance(value, str), "a string or null"
    elif isinstance(default, bool):
        ok, rule = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        if not is_integer(value):
            raise ConfigError(f"{name} must be an integer")
        ok, rule = value >= 1, ">= 1"
    elif isinstance(default, float):
        ok, rule = is_number(value), "a finite number"
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
            nodes = (build_topology(self.topology, check_only=True)
                     if ALGORITHM_TABLE[self.algorithm].on_graph else None)
        except OSError as exc:
            raise ConfigError(f"cannot read topology {self.topology}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not (isinstance(self.seeds, list) and self.seeds and all(map(is_integer, self.seeds))):
            raise ConfigError("seeds must be a non-empty list of integers")
        if min(self.seeds) < 0:
            raise ConfigError("seeds must be non-negative integers")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError("seeds must be distinct")
        # an option the algorithm's row never reads is refused, not ignored
        row = ALGORITHM_TABLE[self.algorithm]
        unread = () if "velocity" in row.keeps else ("momentum_factor", "weight_decay", "nesterov")
        unread += () if row.compressed else ("gamma", "delta_override", "gamma_grid")
        for f in fields(self):
            if f.name in unread and getattr(self, f.name) != f.default:
                raise ConfigError(f"{f.name} is not read by algorithm {self.algorithm!r}")
        # only the theory stepsize reads delta_override; a grid gives every sweep cell a number
        numeric = self.gamma != "auto" or self.gamma_grid is not None
        if self.delta_override is not None and numeric:
            raise ConfigError("delta_override is read only with gamma 'auto' and no gamma_grid")

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
        if nodes is not None and nodes != self.problem["n"]:
            raise ConfigError(f"topology {self.topology} has {nodes} nodes "
                              f"but problem.n is {self.problem['n']!r}")
        if self.x0_mode == "optimum" and kind != "quadratic":
            raise ConfigError("x0_mode 'optimum' needs the quadratic problem")

        # a grid value must pass its own field's rule
        for name in ("eta", "gamma"):
            grid = getattr(self, f"{name}_grid")
            if grid is not None and not (isinstance(grid, list) and grid
                                         and all(map(is_number, grid))):
                raise ConfigError(f"{name}_grid must be a non-empty list of numbers")
            try:
                for value in grid or ():
                    OptimizerConfig(**{name: value})
            except ValueError as exc:
                raise ConfigError(f"{name}_grid: {exc}") from exc
        # NumPy numbers become the Python numbers the JSON echo reads back as
        vars(self).update(json.loads(json.dumps(asdict(self), default=np.generic.item)))

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path):
        return cls.from_dict(read_config(path))

    def to_dict(self):
        """Full echo including defaults; the canonical round-trip form."""
        return asdict(self)


def read_config(path):
    """A config file's JSON data, not yet validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def build_problem(spec):
    """Problem instance from the (already merged) problem config dict."""
    spec = dict(spec)
    factory = getattr(problems, _FACTORIES[spec.pop("kind")])
    if "csv" in spec:  # a dataset kind's data, given as a path
        csv_path = spec.pop("csv")
        try:
            spec["data"] = load_csv_dataset(csv_path) if csv_path else None
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read problem.csv: {exc}") from exc
    return factory(**spec)


def resolve_x0(config, problem, seed):
    if config.x0_mode == "zeros":
        return np.zeros(problem.dim)
    if config.x0_mode == "optimum":
        return problem.optimum()
    draw = RandomStream(seed, 0, "init").generator().standard_normal(problem.dim)
    return config.x0_scale * draw / np.sqrt(problem.dim)


def build_setup(config):
    """``(problem, mixing, compressor)``, shared by a config's seeds and by its
    sweep cells, which differ only in η and γ: the set-up reads neither."""
    problem = build_problem(config.problem)
    mixing = (mixing_matrix(build_topology(config.topology))
              if ALGORITHM_TABLE[config.algorithm].on_graph else None)
    return problem, mixing, parse_compressor(config.compressor)


def _run(setup, config, seed):
    problem, mixing, comp = setup
    return run(problem, config, mixing=mixing, compressor=comp, seed=seed,
               log_every=config.log_every, broadcast=config.broadcast,
               x0=resolve_x0(config, problem, seed), per_layer=config.per_layer)


def execute_single(config, seed):
    """One (config, seed) run on a set-up of its own; unlike a cell's, its record is whole."""
    return _run(build_setup(config), config, seed)


def _cell(cell):
    record = _run(*cell)
    # drop the heavyweight non-result state before shipping across processes
    record.workers = record.ledger = None
    return record


def max_workers(n_jobs):
    cap = os.environ.get(THREADS_ENV)
    if cap is None:  # the CPUs this process may run on, where the platform says (Linux)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        return max(1, min(n_jobs, cpus or 1))
    try:
        cap = int(cap)
    except ValueError as exc:
        raise ConfigError(f"{THREADS_ENV} must be an integer") from exc
    if cap < 1:
        raise ConfigError(f"{THREADS_ENV} must be >= 1")
    return max(1, min(n_jobs, cap))


def run_cells(cells):
    """Run ``(setup, config, seed)`` cells, possibly in parallel: a pool worker
    unpickles the set-up once per chunk, four chunks per worker to share the load."""
    workers = max_workers(len(cells))
    if workers == 1:
        return [_cell(cell) for cell in cells]
    # imported only here: it loads multiprocessing, which a single cell never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_cell, cells, chunksize=-(-len(cells) // (4 * workers))))


def execute_config(config, out_dir=None):
    """Run all seeds of a config and write CSVs plus the JSON summary.

    Returns ``(records, paths)``; any diverged record means CLI exit 2.
    """
    out_dir = out_dir or config.out
    cfg_dict = config.to_dict()
    setup = build_setup(config)
    records = run_cells([(setup, config, seed) for seed in config.seeds])
    paths = [os.path.join(out_dir, f"run_{run_id(cfg_dict, seed)}.csv") for seed in config.seeds]
    for record, path in zip(records, paths):
        write_csv(record, path)
    base = os.path.join(out_dir, f"run_{run_id(cfg_dict, config.seeds[0])}")
    if len(records) > 1:
        paths.append(f"{base}_aggregate.csv")
        write_aggregate_csv(records, paths[-1])
    paths.append(f"{base}_summary.json")
    write_summary(records, cfg_dict, paths[-1])
    return records, paths
