"""Desk-scale simulator for decentralized SGD with compressed gossip.

Nodes hold a private iterate and a public copy that neighbors see; each
iteration gossips on the public copies, refreshes them through a compression
operator, and takes a local stochastic gradient step. Exact-communication
and centralized baselines share the same drivers and traffic accounting so
convergence-per-bit comparisons are apples to apples.
"""

from .compression import (CompressedMessage, Compressor, bit_cost, compress,
                          compress_blocks, contraction_factor,
                          parse_compressor, sign_contraction)
from .config import (ConfigError, ExperimentConfig, build_problem,
                     build_topology, execute_config, execute_single)
from .consensus import (ConsensusState, choco_gossip_round, consensus_distance,
                        consensus_stepsize, lyapunov, mix_with_public,
                        rate_constant, sync_public)
from .metrics import (CSV_HEADER, RunRecord, TrafficLedger, aggregate, summarize,
                      write_aggregate_csv, write_csv, write_summary)
from .numerics import RandomStream
from .optim import (ALGORITHMS, OptimizerConfig, consensus_bound, run,
                    theoretical_stepsize, tune_stepsize)
from .problems import (ConstantEstimates, LogisticProblem, MlpProblem,
                       Partition, QuadraticProblem, estimate_constants,
                       load_csv_dataset, make_blob_dataset, make_logistic,
                       make_mlp, make_quadratic)
from .topology import (Graph, MixingMatrix, from_edge_list, fully_connected,
                       load_edge_list, mixing_matrix, ring, torus)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "CSV_HEADER", "CompressedMessage", "Compressor",
    "ConfigError", "ConsensusState", "ConstantEstimates", "ExperimentConfig",
    "Graph", "LogisticProblem", "MixingMatrix", "MlpProblem",
    "OptimizerConfig", "Partition", "QuadraticProblem", "RandomStream",
    "RunRecord", "TrafficLedger", "aggregate", "bit_cost", "build_problem",
    "build_topology", "choco_gossip_round", "compress", "compress_blocks",
    "consensus_bound", "consensus_distance", "consensus_stepsize",
    "contraction_factor", "estimate_constants", "execute_config",
    "execute_single", "from_edge_list", "fully_connected", "load_csv_dataset",
    "load_edge_list", "lyapunov", "make_blob_dataset", "make_logistic",
    "make_mlp", "make_quadratic", "mix_with_public", "mixing_matrix",
    "parse_compressor", "rate_constant", "ring", "run", "run_suite",
    "sign_contraction", "summarize", "sync_public", "theoretical_stepsize",
    "torus", "tune_stepsize", "write_aggregate_csv", "write_csv",
    "write_summary",
]
