"""Traffic accounting and stepsize sweeps, driven through the config layer.

Runs the same experiment in pairwise and broadcast accounting modes, then
grid-searches the learning rate the way the command line `sweep` does, all
from one JSON-style config dict.
"""

from dataclasses import replace

import numpy as np

from chocosim import ExperimentConfig, execute_single

BASE = {
    "topology": "ring:8",
    "compressor": "sign",
    "algorithm": "choco",
    "eta": 0.05,
    "iterations": 400,
    "seeds": [1, 2, 3],
    "problem": {"kind": "quadratic", "n": 8, "dim": 16, "noise_std": 0.5},
}

config = ExperimentConfig.from_dict(BASE)
rec = execute_single(config, seed=1)
print("pairwise accounting: every node pays its message once per neighbor")
print(f"  busiest node after {BASE['iterations']} iters: "
      f"{rec.ledger.busiest():,} bits")

bcast = ExperimentConfig.from_dict({**BASE, "broadcast": True})
rec_b = execute_single(bcast, seed=1)
print("broadcast accounting: one transmission reaches both ring neighbors")
print(f"  busiest node: {rec_b.ledger.busiest():,} bits "
      f"(exactly half on a degree-2 graph)\n")

print("stepsize sweep, mean final objective over 3 seeds:")
results = []
for eta in (0.01, 0.03, 0.1, 0.3, 1.0):
    finals = []
    for seed in config.seeds:
        r = execute_single(replace(config, eta=eta), seed)
        finals.append(float("inf") if r.diverged else r.f_avg[-1])
    mean = float(np.mean(finals))
    results.append((eta, mean))
    marker = " (diverged)" if not np.isfinite(mean) else ""
    print(f"  eta={eta:<6} mean final f = {mean:.6f}{marker}")

best = min((r for r in results if np.isfinite(r[1])), key=lambda r: r[1])
print(f"\nbest stepsize on this grid: eta={best[0]}")
print("small eta has not converged yet, large eta rattles around its noise")
print("ball (or diverges); the CLI `sweep` subcommand automates exactly this")
print("loop and warns when the winner sits on the grid boundary.")
