"""Per-layer spans recorded from outside chocosim.

:meth:`Tracer.install` replaces the public functions of the layers below
with wrappers in every ``chocosim`` module namespace that binds them, and in
the classes that define the traced methods. Each call records a span
``(layer, start, end, parent, note)``; spans stay in memory until the run
ends. A layer's self time is its spans' time minus the time covered by their
direct child spans; a call counts once even when a layer calls into itself
(``compress_blocks`` -> ``compress``).
"""

import sys
import time

PACKAGE = "chocosim"
STOCHASTIC_COMPRESSORS = ("gsgd", "random")

# layer -> name of its self-time metric; all other metrics are "<layer>.calls"
LAYERS = {
    "numerics.stream_derive": "numerics.stream_derive.s",
    "numerics.eigensolve": "numerics.eigensolve.s",
    "problems.build": "problems.build.s",
    "problems.grad": "problems.grad.s",
    "problems.eval": "problems.eval.s",
    "compression": "compression.s",
    "consensus.sync": "consensus.sync.s",
    "consensus.mix": "consensus.mix.s",
    "consensus.gossip_round": "consensus.gossip_round.s",
    "consensus.stats": "consensus.stats.s",
    "metrics.ledger": "metrics.ledger.s",
    "metrics.write": "metrics.write.s",
    "topology.mixing": "topology.mixing.s",
    "optim.step": "optim.step.self_s",
    "optim.run": "optim.run.self_s",
    "config.parse": "config.parse.s",
}


def _purpose(args, kwargs, result):
    return args[0].purpose


def _bits(args, kwargs, result):
    return result.bits


def _compressor_kind(args, kwargs, result):
    comp = kwargs.get("comp", args[3] if len(args) > 3 else None)
    return comp.kind


def _run_totals(args, kwargs, result):
    return (result.rows(), result.ledger.busiest())


class Tracer:
    """In-memory span recorder for one workload repetition."""

    def __init__(self, workload, clock=time.perf_counter):
        self.workload = workload
        self.spans = []  # (layer, start, end, parent index or -1, note)
        self._stack = []
        self._clock = clock
        self._patches = []

    def wrap(self, layer, fn, note=None):
        """``fn`` recording one span per call; ``note(args, kwargs, result)``
        attaches a value the per-layer metrics need."""
        spans, stack, clock = self.spans, self._stack, self._clock

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, None)
            if note is not None:
                spans[index] = (layer, start, end, parent, note(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, fn, wrapper):
        """Rebind every attribute of a chocosim module that is ``fn``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def patch_method(self, cls, name, layer, note=None):
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(layer, raw.__func__, note))
        else:
            replacement = self.wrap(layer, raw, note)
        self._patches.append((cls, name, raw))
        setattr(cls, name, replacement)

    def install(self):
        from chocosim import (compression, config, consensus, metrics, numerics,
                              optim, problems, topology)

        functions = [
            ("numerics.eigensolve", numerics.sym_eigenvalues, None),
            ("problems.build", problems.make_quadratic, None),
            ("problems.build", problems.make_logistic, None),
            ("problems.build", problems.make_mlp, None),
            ("compression", compression.compress, _bits),
            ("compression", compression.compress_blocks, _bits),
            ("consensus.sync", consensus.sync_public, None),
            ("consensus.mix", consensus.mix_with_public, None),
            ("consensus.gossip_round", consensus.choco_gossip_round, None),
            ("consensus.stats", consensus.consensus_distance, None),
            ("consensus.stats", consensus.lyapunov, None),
            ("metrics.write", metrics.write_csv, None),
            ("metrics.write", metrics.write_summary, None),
            ("metrics.write", metrics.write_aggregate_csv, None),
            ("topology.mixing", topology.mixing_matrix, None),
            ("optim.step", optim.choco_step, _compressor_kind),
            ("optim.step", optim.decentralized_exact_step, None),
            ("optim.step", optim.centralized_step, None),
            ("optim.run", optim.run, _run_totals),
        ]
        for layer, fn, note in functions:
            self.patch_function(fn, self.wrap(layer, fn, note))
        methods = [
            ("numerics.stream_derive", numerics.RandomStream, "at", _purpose),
            ("problems.grad", problems.QuadraticProblem, "stochastic_gradient", None),
            ("problems.grad", problems.LogisticProblem, "stochastic_gradient", None),
            ("problems.grad", problems.MlpProblem, "stochastic_gradient", None),
            ("problems.eval", problems.QuadraticProblem, "loss", None),
            ("problems.eval", problems.QuadraticProblem, "full_gradient", None),
            ("problems.eval", problems._DatasetProblem, "loss", None),
            ("problems.eval", problems._DatasetProblem, "full_gradient", None),
            ("metrics.ledger", metrics.TrafficLedger, "add_message", None),
            ("metrics.ledger", metrics.TrafficLedger, "add_broadcast", None),
            ("metrics.ledger", metrics.TrafficLedger, "add_upload", None),
            ("config.parse", config.ExperimentConfig, "from_dict", None),
        ]
        for layer, cls, name, note in methods:
            self.patch_method(cls, name, layer, note)

    def uninstall(self):
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    def write(self, path):
        """Spans as CSV, one line each; ``parent`` is a line index or -1."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("workload,layer,start,end,parent\n")
            for layer, start, end, parent, _ in self.spans:
                fh.write(f"{self.workload},{layer},{start!r},{end!r},{parent}\n")


def self_times(spans):
    """Per-layer ``{"calls": n, "s": self seconds}`` from recorded spans."""
    covered = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = {}
    for index, (layer, start, end, parent, _) in enumerate(spans):
        entry = totals.setdefault(layer, {"calls": 0, "s": 0.0})
        entry["s"] += (end - start) - covered[index]
        if parent < 0 or spans[parent][0] != layer:
            entry["calls"] += 1
    return totals


def _enclosing(spans, index, layer):
    parent = spans[index][3]
    while parent >= 0 and spans[parent][0] != layer:
        parent = spans[parent][3]
    return parent


def layer_metrics(spans):
    """Every per-layer metric the spans give, by metric name."""
    totals = self_times(spans)
    out = {}
    for layer, time_name in LAYERS.items():
        entry = totals.get(layer, {"calls": 0, "s": 0.0})
        out[f"{layer}.calls"] = entry["calls"]
        out[time_name] = entry["s"]

    derived = useful = bits = rows = busiest = 0
    for index, (layer, _, _, parent, note) in enumerate(spans):
        if layer == "numerics.stream_derive":
            derived += 1
            if note != "compress":
                useful += 1
            else:
                # a compression stream is drawn from only by a stochastic compressor
                step = _enclosing(spans, index, "optim.step")
                useful += step >= 0 and spans[step][4] in STOCHASTIC_COMPRESSORS
        elif layer == "compression" and (parent < 0 or spans[parent][0] != layer):
            bits += note
        elif layer == "optim.run":
            rows += note[0]
            busiest += note[1]
    out["numerics.stream_derive.useful_ratio"] = useful / derived if derived else 0.0
    out["compression.bits"] = bits
    out["metrics.rows"] = rows
    out["metrics.ledger.bits_busiest"] = busiest
    return out
