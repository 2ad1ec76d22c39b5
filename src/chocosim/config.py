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
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import problems
from .compression import parse_compressor
from .metrics import run_id, write_aggregate_csv, write_csv, write_summary
from .numerics import RandomStream, is_integer, is_number, numeral
from .optim import ALGORITHM_TABLE, OptimizerConfig, run
from .problems import PARTITION_MODES, load_csv_dataset
from .topology import build_topology, check_connected, mixing_matrix

THREADS_ENV = "CHOCO_THREADS"
X0_MODES = ("zeros", "optimum", "gaussian")
_MODES = {"x0_mode": X0_MODES, "problem.mode": PARTITION_MODES}
# options read only under a condition: names, whether a checked config reads them, and the
# refusal of one set off its default where unread. Not rows: the baselines ignore compressor,
# per_layer, broadcast and topology (documented), and only a sweep reads the grids
READ_IF = (
    (("momentum_factor", "weight_decay", "nesterov"),
     lambda c: "velocity" in ALGORITHM_TABLE[c.algorithm].keeps,
     "{name} is not read by algorithm {c.algorithm!r}"),
    (("gamma", "delta_override", "gamma_grid"), lambda c: ALGORITHM_TABLE[c.algorithm].compressed,
     "{name} is not read by algorithm {c.algorithm!r}"),
    (("delta_override",), lambda c: c.gamma == "auto" and c.gamma_grid is None,
     "delta_override is read only with gamma 'auto' and no gamma_grid"),
    (("x0_mode",), lambda c: c.x0_mode != "optimum" or c.problem["kind"] == "quadratic",
     "x0_mode 'optimum' needs the quadratic problem"),
    (("x0_scale",), lambda c: c.x0_mode == "gaussian",
     "x0_scale is read only with x0_mode 'gaussian'"),
    (("problem.samples", "problem.dim", "problem.input_dim", "problem.margin"),
     lambda c: c.problem.get("csv") is None, "{name} is read only without problem.csv"),
)


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
        ok, rule = value is None or isinstance(value, str) and value, "a string or null, not empty"
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
            self._compressor = parse_compressor(self.compressor)
            row = ALGORITHM_TABLE[self.algorithm]
            self._graph = check_connected(build_topology(self.topology)) if row.on_graph else None
        except OSError as exc:
            raise ConfigError(f"cannot read topology {self.topology}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not (isinstance(self.seeds, list) and self.seeds
                and all(is_integer(seed) and seed >= 0 for seed in self.seeds)):
            raise ConfigError("seeds must be a non-empty list of non-negative integers")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError("seeds must be distinct")

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
        if self._graph is not None and self._graph.n != self.problem["n"]:
            raise ConfigError(f"topology {self.topology} has {self._graph.n} nodes "
                              f"but problem.n is {self.problem['n']!r}")
        given = vars(self) | {f"problem.{k}": v for k, v in self.problem.items()}
        unset = {f.name: f.default for f in fields(self)}
        unset |= {f"problem.{k}": v for k, v in defaults.items()}
        for names, reads, refusal in READ_IF:
            off = [name for name in names if name in unset and given[name] != unset[name]]
            if off and not reads(self):
                raise ConfigError(refusal.format(name=off[0], c=self))

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

    def __getstate__(self):
        # build_setup's graph and compressor, kept outside the fields, go to no pickle or copy
        return {k: v for k, v in vars(self).items() if k not in ("_graph", "_compressor")}

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

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
        try:
            spec["data"] = load_csv_dataset(path) if (path := spec.pop("csv")) else None
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
    sweep cells, which differ only in η and γ: the set-up reads neither. The graph and
    compressor are the ones the config check kept (a copy or an unpickled config, which
    keeps neither, is checked again); only the problem and the mixing matrix are built."""
    config = config if "_graph" in vars(config) else replace(config)
    problem, graph = build_problem(config.problem), config._graph
    return problem, None if graph is None else mixing_matrix(graph), config._compressor


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
    record.workers = record.ledger = None  # heavyweight non-result state, not sent back
    return record


def max_workers(n_jobs):
    cap = os.environ.get(THREADS_ENV)
    if cap is None:  # the CPUs this process may run on, where the platform says (Linux)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        return max(1, min(n_jobs, cpus or 1))
    try:
        cap = numeral(cap)
    except ValueError as exc:
        raise ConfigError(f"{THREADS_ENV} must be an integer") from exc
    if cap < 1:
        raise ConfigError(f"{THREADS_ENV} must be >= 1")
    return max(1, min(n_jobs, cap))


def run_cells(config, configs=None):
    """Records of ``configs`` (default ``[config]``) over ``config``'s seeds on its one set-up,
    maybe in a pool: a worker unpickles the set-up once per chunk, four chunks per worker."""
    setup = build_setup(config)
    cells = [(setup, cfg, seed) for cfg in configs or [config] for seed in config.seeds]
    workers = max_workers(len(cells))
    if workers == 1:
        return [_cell(cell) for cell in cells]
    # imported only here: it loads multiprocessing, which a single cell never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_cell, cells, chunksize=-(-len(cells) // (4 * workers))))


def execute_config(config, out_dir=None):
    """Run all seeds of a config and write CSVs plus the JSON summary: ``(records,
    paths)``; any diverged record means CLI exit 2."""
    out_dir = out_dir or config.out
    cfg_dict = config.to_dict()
    records = run_cells(config)
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
