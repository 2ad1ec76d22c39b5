"""Desk-scale simulator for decentralized SGD with compressed gossip.

Nodes hold a private iterate and a public copy that neighbors see; each
iteration gossips on the public copies, refreshes them through a compression
operator, and takes a local stochastic gradient step. Exact-communication
and centralized baselines share the same drivers and traffic accounting so
convergence-per-bit comparisons are apples to apples.
"""

from .compression import bit_cost, compress, contraction_factor, parse_compressor
from .config import ExperimentConfig, execute_single
from .consensus import (ConsensusState, choco_gossip_round, consensus_stepsize, lyapunov,
                        rate_constant)
from .numerics import RandomStream
from .optim import OptimizerConfig, run
from .problems import make_quadratic
from .topology import fully_connected, load_edge_list, mixing_matrix, ring, torus

__version__ = "0.1.0"

# what the README and the demos import; every other name is imported from its module
__all__ = [
    "ConsensusState", "ExperimentConfig", "OptimizerConfig", "RandomStream", "bit_cost",
    "choco_gossip_round", "compress", "consensus_stepsize", "contraction_factor",
    "execute_single", "fully_connected", "load_edge_list", "lyapunov", "make_quadratic",
    "mixing_matrix", "parse_compressor", "rate_constant", "ring", "run", "torus",
]
