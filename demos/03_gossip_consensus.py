"""Gossip averaging with compressed messages.

Nodes on a ring start from disagreeing vectors and average by exchanging
only compressed differences against public copies. The Lyapunov function
(disagreement plus tracking error) contracts linearly; the node average
never moves.
"""

import numpy as np

from chocosim import (RandomStream, choco_gossip_round, consensus_stepsize,
                      contraction_factor, lyapunov, mixing_matrix,
                      parse_compressor, rate_constant, ring)
from chocosim.optim import Workers

N, DIM, ROUNDS = 16, 32, 800

mixing = mixing_matrix(ring(N))
x0 = RandomStream(7, 0, "init").generator().standard_normal(N * DIM).reshape(N, DIM)
mean0 = x0.mean(axis=0)

print(f"ring({N}), d={DIM}: gossip until the {ROUNDS}th round\n")
for spec in ("identity", "topk:0.25", "sign", "gsgd:4"):
    comp = parse_compressor(spec)
    delta = contraction_factor(comp, DIM)
    # lossless messages support undamped gossip; the compressed runs use
    # the conservative theory stepsize
    gamma = 1.0 if spec == "identity" else consensus_stepsize(mixing, delta)
    state = Workers.start(x0, "choco")
    rng = RandomStream(7, 0, "compress").generator()  # one for all the rounds
    psi0 = lyapunov(state)
    checkpoints = {}
    for t in range(1, ROUNDS + 1):
        choco_gossip_round(state, mixing, comp, rng, gamma)
        if t in (100, 400, ROUNDS):
            checkpoints[t] = lyapunov(state) / psi0
    drift = np.max(np.abs(state.x.mean(axis=0) - mean0))
    c = rate_constant(mixing, delta)
    print(f"{spec:<12} gamma={gamma:<12.6g} guarantee per-round factor "
          f"{1 - c:.8f}")
    for t, ratio in checkpoints.items():
        print(f"   round {t:<4} Psi/Psi0 = {ratio:.3e}")
    print(f"   average drift after {ROUNDS} rounds: {drift:.2e}\n")

print("identity messages at gamma=1 are plain gossip and contract at the")
print("spectral rate; the compressed runs keep the exact average while")
print("paying a slower, gamma-damped rate, and every observed decay beats")
print("its conservative guarantee.")
