"""Traffic accounting and run records.

Communication is counted analytically on the send side: a node pays the
bit cost of its message once per neighbor (pairwise mode, the default) or
once in total (broadcast mode). The centralized baseline is the exception:
its coordinator is a hub whose line carries every upload, so the uploads
are also charged to the coordinator and it is normally the busiest node.
An optimizer run sends the same messages every iteration, so it charges
one iteration to a :class:`TrafficLedger` once and scales the counts by
the number of completed iterations.

Per-iteration run metrics go to CSV with the fixed header
``t,f_avg,grad_sq,consensus,psi,bits_busiest,wall_ms``; run-level metadata
(config echo, run id, timing, divergence) goes to a JSON summary next to
it. CSV content is a pure function of (config, seed): the wall_ms column is
therefore a deterministic 0 placeholder, and real elapsed time is reported
only in the summary: ``elapsed_s`` per seed, and ``timings_s`` splitting
it into the optimizer steps (``step_s``), the logged rows' loss and
gradient (``eval_s``) and their consensus statistics (``stats_s``), both
computed a block of rows at a time. A
diverged seed names its iteration (``diverged_at``) and the first node
whose iterate failed (``diverged_node``).
"""

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .numerics import is_integer

CSV_HEADER = "t,f_avg,grad_sq,consensus,psi,bits_busiest,wall_ms"


class TrafficLedger:
    """Cumulative per-node bit counts.

    Each ``add_*`` method charges one message or many: node indices and
    bits are integers or equal-length integer arrays (not bools), one entry
    per message, and a node may appear more than once.
    """

    def __init__(self, n_nodes):
        if not (is_integer(n_nodes) and n_nodes >= 1):
            raise ValueError("n_nodes must be an integer >= 1")
        self.n_nodes = int(n_nodes)
        self.per_node = np.zeros(self.n_nodes, dtype=np.int64)

    def add_message(self, src, dst, bits):
        """Point-to-point payloads; each charged to its sender."""
        src, _, bits = self._check(src, dst, bits)
        # unbuffered: a repeated sender is charged once per message
        np.add.at(self.per_node, src, bits)

    def add_broadcast(self, src, bits):
        """Payloads transmitted once each, regardless of neighbor count."""
        src, _, bits = self._check(src, src, bits)
        np.add.at(self.per_node, src, bits)

    def add_upload(self, src, hub, bits):
        """Hub uploads: each charged to its sender and to the hub's line."""
        src, hub, bits = np.broadcast_arrays(*self._check(src, hub, bits))
        np.add.at(self.per_node, src, bits)
        np.add.at(self.per_node, hub, np.where(hub != src, bits, 0))

    def _check(self, src, dst, bits):
        src, dst, bits = np.asarray(src), np.asarray(dst), np.asarray(bits)
        # a bool index would be read as a mask, and a float truncated
        if not all(np.issubdtype(a.dtype, np.integer) for a in (src, dst, bits)):
            raise ValueError("node indices and bits must be integers")
        # initial=0 keeps the reductions defined when no message is sent
        if (min(src.min(initial=0), dst.min(initial=0)) < 0
                or max(src.max(initial=0), dst.max(initial=0)) >= self.n_nodes):
            raise ValueError("node index out of range")
        if bits.min(initial=0) < 0:
            raise ValueError("bits must be >= 0")
        return src, dst, bits.astype(np.int64)

    def busiest(self):
        """Largest cumulative per-node bit count."""
        return int(self.per_node.max())


@dataclass
class RunRecord:
    """Logged trajectory of one run plus end-of-run diagnostics. The six
    columns of logged rows hold Python ints (``t``, ``bits_busiest``) and
    floats, which the CSV writers print by repr."""

    t: list = field(default_factory=list)
    f_avg: list = field(default_factory=list)
    grad_sq: list = field(default_factory=list)
    consensus: list = field(default_factory=list)
    psi: list = field(default_factory=list)
    bits_busiest: list = field(default_factory=list)
    diverged: bool = False
    diverged_at: int = None
    diverged_node: int = None
    max_grad_norm: float = 0.0
    elapsed_s: float = 0.0
    timings: dict = field(default_factory=dict)
    final_x_mean: np.ndarray = None
    seed: int = 0
    gamma: float = None
    eta: float = None
    ledger: TrafficLedger = None
    workers: object = None
    iterates: list = None

    def rows(self):
        return len(self.t)


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_columns(path, columns):
    """Write ``columns``, a dict of equal-length columns of ints or floats,
    as a CSV headed by its keys; atomic so partial files never appear. Each
    cell is its Python value's repr (a column's ``tolist``): a float's is its
    shortest round-trip form, so the bytes are deterministic."""
    values = (np.asarray(column).tolist() for column in columns.values())
    lines = [",".join(columns), *(",".join(map(repr, row)) for row in zip(*values))]
    _atomic_write(path, "\n".join(lines) + "\n")


def write_csv(record, path):
    """Write the per-iteration rows; the ``wall_ms`` column is the constant
    0 placeholder."""
    columns = {name: getattr(record, name) for name in CSV_HEADER.split(",")[:-1]}
    _write_columns(path, {**columns, "wall_ms": [0] * len(record.t)})


def run_id(config_dict, seed):
    """Short content id of (config, seed), stable across processes.

    The output directory only says where files go, never what is in them,
    so it is excluded: rerunning a config into a different directory keeps
    the same id (and byte-identical content).
    """
    identity = {k: v for k, v in config_dict.items() if k != "out"}
    blob = json.dumps({"config": identity, "seed": int(seed)}, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def write_summary(records, config_dict, path):
    """JSON summary for one or more seeds of the same configuration."""
    seeds = [r.seed for r in records]
    payload = {
        "run_ids": {str(r.seed): run_id(config_dict, r.seed) for r in records},
        "config": config_dict,
        "seeds": seeds,
        "diverged": {str(r.seed): r.diverged for r in records},
        "diverged_at": {str(r.seed): r.diverged_at for r in records},
        "diverged_node": {str(r.seed): r.diverged_node for r in records},
        "elapsed_s": {str(r.seed): round(r.elapsed_s, 3) for r in records},
        "timings_s": {str(r.seed): {k: round(v, 6) for k, v in r.timings.items()}
                      for r in records},
        "summary": {str(r.seed): summarize(r) for r in records},
    }
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def summarize(record):
    """Headline numbers of a run: final and best objective, traffic."""
    out = {
        "rows": record.rows(),
        "diverged": record.diverged,
        "max_grad_norm": record.max_grad_norm,
    }
    if record.rows():
        out.update(
            final_t=record.t[-1],
            final_f=record.f_avg[-1],
            best_f=min(record.f_avg),
            final_grad_sq=record.grad_sq[-1],
            final_consensus=record.consensus[-1],
            final_psi=record.psi[-1],
            bits_busiest=record.bits_busiest[-1],
        )
    return out


def aggregate(records):
    """Per-row mean/std across seeds, as lists; rows are aligned by position.

    Divergent runs may be shorter; the aggregate stops at the shortest
    record so every reported row averages all seeds.
    """
    if not records:
        raise ValueError("nothing to aggregate")
    rows = min(r.rows() for r in records)
    table = {"t": records[0].t[:rows]}
    for name in CSV_HEADER.split(",")[1:-1]:
        data = np.array([getattr(r, name)[:rows] for r in records], dtype=float)
        table[f"{name}_mean"] = data.mean(axis=0).tolist()
        table[f"{name}_std"] = data.std(axis=0).tolist()
    return table


def write_aggregate_csv(records, path):
    _write_columns(path, aggregate(records))
