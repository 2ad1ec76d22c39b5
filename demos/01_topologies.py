"""Communication graphs and their spectral quantities.

Sweeps the three builtin families over several sizes, shows how the
spectral gap decays with the network size, and loads a small-world graph
from an edge list to show the same numbers on an irregular topology.
"""

import os

from chocosim import (consensus_stepsize, fully_connected, load_edge_list,
                      mixing_matrix, ring, torus)

HERE = os.path.dirname(os.path.abspath(__file__))


def describe(name, graph):
    mixing = mixing_matrix(graph)
    degrees = graph.degrees()
    gamma = consensus_stepsize(mixing, 0.1)  # e.g. keeping 10% of coordinates
    print(f"{name:<12} n={graph.n:<4} edges={len(graph.ends):<5} "
          f"deg={int(degrees.min())}..{int(degrees.max())}  "
          f"rho={mixing.rho:<10.6f} beta={mixing.beta:<8.4f} "
          f"gamma(delta=0.1)={gamma:.6f}")
    return mixing


print("spectral gap rho = 1 - max|eigenvalue| away from 1;")
print("larger rho means faster consensus, and the theory stepsize gamma")
print("shrinks with both rho and the compression quality delta.\n")

for n in (4, 16, 36, 64):
    describe("ring", ring(n))
print()
for n in (16, 36, 64):
    describe("torus", torus(n))
print()
for n in (4, 16, 64):
    describe("full", fully_connected(n))

print("\nring vs torus at n=36: the extra dimension buys a 20x larger gap,")
print("at the price of doubling every node's degree (4 neighbors vs 2).\n")

graph = load_edge_list(os.path.join(HERE, "data", "social32.txt"))
mixing = describe("small-world", graph)
print(f"\nthe 32-node small-world graph beats ring(32) "
      f"(rho={mixing_matrix(ring(32)).rho:.6f}) by roughly "
      f"{mixing.rho / mixing_matrix(ring(32)).rho:.0f}x thanks to its chords.")
