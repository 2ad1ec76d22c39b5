"""Compression operators: measured quality vs the worst-case guarantee.

Compresses Gaussian vectors with every operator, compares the measured
relative error against the closed-form contraction factor delta, and
prints the wire cost of a single message at a realistic model size.
"""

import numpy as np

from chocosim import (RandomStream, bit_cost, compress, contraction_factor,
                      parse_compressor)

DIM = 1000
DRAWS = 200

vectors = RandomStream(2, 0, "compress").generator().standard_normal(DRAWS * DIM)
vectors = vectors.reshape(DRAWS, DIM)

print(f"mean relative error ||Q(x)-x||^2/||x||^2 over {DRAWS} Gaussian "
      f"vectors, d={DIM}")
print(f"{'operator':<18} {'measured':<10} {'guarantee 1-delta':<18} bits/message")
for spec in ("identity", "gsgd:8", "gsgd:4", "gsgd:2", "random:0.25",
             "random:0.05", "topk:0.25", "topk:0.05", "sign"):
    comp = parse_compressor(spec)
    rng = RandomStream(3, 0, "compress").generator()  # one for all the vectors
    errs = []
    for x in vectors:
        q = compress(comp, x, rng).payload
        errs.append(np.sum((q - x) ** 2) / np.sum(x * x))
    delta = contraction_factor(comp, DIM)
    print(f"{spec:<18} {np.mean(errs):<10.4f} {1.0 - delta:<18.4f} "
          f"{bit_cost(comp, DIM)}")

print("\nthe guarantee is worst-case: top-k on Gaussian input does much")
print("better than 1-a because the kept coordinates carry most of the mass,")
print("while sign's worst case (1-1/d) is nearly vacuous yet its measured")
print("error sits near 1 - 2/pi for Gaussian input.")

print("\nper-message wire size at d = 260,000 parameters (megabytes):")
for spec in ("identity", "gsgd:16", "gsgd:8", "gsgd:4", "gsgd:2", "sign"):
    comp = parse_compressor(spec)
    mb = bit_cost(comp, 260_000) / 8.0 / 1e6
    print(f"  {spec:<10} {mb:.6f} MB")
print("sign packs a 1.04 MB float message into 0.033 MB, a 32x saving.")
