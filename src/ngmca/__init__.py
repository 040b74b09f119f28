"""Sparse non-negative blind source separation toolkit.

Library layers: linops (matrix primitives), priors (thresholding and
schedules), subsolvers (FISTA and exact sub-problem solvers), algorithms (full
factorizations), datagen (synthetic instances and NMR sources), metrics
(SDR evaluation), bench (Monte-Carlo harness), cli (command line).
"""

__version__ = "0.1.0"

from .algorithms import (AlgorithmConfig, FactorPair, als, hals_sparse,
                         initialize, multiplicative_update, ngmca,
                         ngmca_naive, oracle_solve, run_algorithm)
from .datagen import (InstanceSpec, PeakList, ProblemInstance, add_noise_snr,
                      gen_factor, gen_instance, gen_nmr_instance,
                      gen_nmr_sources, load_peak_corpus,
                      sample_generalized_gaussian)
from .metrics import (BssDecomposition, PairingResult, condition_number,
                      decompose_bss, pair_sources, sdr)
from .subsolvers import (exact_update_A, exact_update_S, fista_update_A,
                         fista_update_S)

__all__ = [
    "AlgorithmConfig", "FactorPair", "InstanceSpec", "PeakList",
    "ProblemInstance", "BssDecomposition", "PairingResult",
    "add_noise_snr", "als", "condition_number",
    "decompose_bss", "exact_update_A", "exact_update_S", "fista_update_A",
    "fista_update_S", "gen_factor",
    "gen_instance", "gen_nmr_instance", "gen_nmr_sources", "hals_sparse",
    "initialize", "load_peak_corpus", "multiplicative_update", "ngmca",
    "ngmca_naive", "oracle_solve", "pair_sources", "run_algorithm",
    "sample_generalized_gaussian", "sdr",
]
