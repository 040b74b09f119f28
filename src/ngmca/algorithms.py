"""Outer-loop factorization algorithms.

All entry points take the data matrix and an AlgorithmConfig and return a
FactorPair with both factors non-negative. Runs are deterministic given
(config, seed); every random draw is routed through a named Philox stream.
"""

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import linops, priors
from .errors import NonConvergenceWarning, RankCollapseWarning
from .rng import as_seed, stream
from .subsolvers import (exact_update_A, exact_update_S, fista_update_A,
                         fista_update_S)

ORACLE = "oracle"

#: default outer-iteration counts, by algorithm id
DEFAULT_ITERATIONS = {"ngmca_naive": 500, "ngmca_s": 500, "ngmca_h": 500,
                      "als": 500, "mu": 40000, "hals_sparse": 5000, ORACLE: 1}

ALGORITHM_IDS = tuple(DEFAULT_ITERATIONS)

#: fraction of the outer iterations spent in the constant-threshold
#: refinement phase at the end of the nGMCA variants
REFINEMENT_FRACTION = 0.2

#: per-source budget of dead-source reinitializations
REINIT_BUDGET = 3


@dataclass
class FactorPair:
    """A mixing matrix (m x r) and a source matrix (r x n)."""

    a: np.ndarray
    s: np.ndarray


def as_count(value, field: str) -> int:
    """value as a plain int >= 1, or a ValueError that names field; a bool
    is an int, but not a count."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < 1):
        raise ValueError(f"{field} must be an integer >= 1, got {value!r}")
    return int(value)


@dataclass
class AlgorithmConfig:
    algorithm_id: str = "ngmca_s"
    rank: int = 5
    outer_iterations: int | None = None  # None -> per-algorithm default
    tau_final: float = 1.0
    seed: int = 0
    sparsity_target: float = 0.5

    def __post_init__(self):
        if self.algorithm_id not in ALGORITHM_IDS:
            raise ValueError(f"unknown algorithm {self.algorithm_id!r}")
        self.rank = as_count(self.rank, "rank")
        if self.outer_iterations is not None:
            self.outer_iterations = as_count(self.outer_iterations,
                                             "outer_iterations")
        self.seed = as_seed(self.seed, "seed")
        if self.tau_final < 0.0:
            raise ValueError("tau_final must be >= 0")
        if not 0.0 <= self.sparsity_target <= 1.0:
            raise ValueError("sparsity_target must be in [0, 1]")

    def resolved_iterations(self) -> int:
        if self.outer_iterations is not None:
            return self.outer_iterations
        return DEFAULT_ITERATIONS[self.algorithm_id]


def initialize(y: np.ndarray, r: int, seed: int) -> FactorPair:
    """Half-normal random starting point, deterministic given seed."""
    m, n = y.shape
    gen = stream(seed, "init")
    a0 = np.abs(gen.standard_normal((m, r)))
    s0 = np.abs(gen.standard_normal((r, n)))
    return FactorPair(a0, s0)


def _scaled_init(y: np.ndarray, r: int, seed: int) -> FactorPair:
    """Half-normal start rescaled so the product matches the data norm.

    This keeps the initial gradient (hence the starting threshold of the
    decay schedules) at the data's scale instead of an arbitrary one.
    """
    pair = initialize(y, r, seed)
    product_norm = np.linalg.norm(pair.a @ pair.s)
    data_norm = np.linalg.norm(y)
    if product_norm > 0.0 and data_norm > 0.0:
        c = np.sqrt(data_norm / product_norm)
        pair.a *= c
        pair.s *= c
    return pair


class _SourceReviver:
    """Reinitializes dead sources, at most REINIT_BUDGET times each.

    A source is dead only when both its S row and its A column are zero:
    one-sided zeros are routinely produced by aggressive thresholds and are
    recoverable by the next exact solve, so they are left alone.
    """

    def __init__(self, seed: int, r: int):
        self.gen = stream(seed, "reinit")
        self.budget = np.full(r, REINIT_BUDGET)
        self.collapsed = np.zeros(r, dtype=bool)

    def revive(self, a: np.ndarray, s: np.ndarray) -> None:
        dead = ~s.any(axis=1) & ~a.any(axis=0)
        if not dead.any():
            return
        scale = 0.01 * max(a.max(initial=0.0), s.max(initial=0.0))
        if scale <= 0.0:
            scale = 0.01
        for i in np.flatnonzero(dead):
            if self.budget[i] <= 0:
                if not self.collapsed[i]:
                    self.collapsed[i] = True
                    warnings.warn(
                        f"source {i} stayed dead after {REINIT_BUDGET} "
                        "reinitializations", RankCollapseWarning, stacklevel=3)
                continue
            self.budget[i] -= 1
            s[i, :] = scale * np.abs(self.gen.standard_normal(s.shape[1]))
            a[:, i] = scale * np.abs(self.gen.standard_normal(a.shape[0]))


def _decay_length(total: int) -> int:
    return max(1, int(round((1.0 - REFINEMENT_FRACTION) * total)))


def ngmca_naive(y: np.ndarray, cfg: AlgorithmConfig, callback=None) -> FactorPair:
    """Alternating projected least squares with hard-thresholded sources.

    The threshold schedule grows the active set linearly during the decay
    phase and sits at tau_final * mad per source in the refinement phase.
    This scheme is a proxy, not an exact solver: it may oscillate without
    converging, which is expected behavior on hard instances.
    """
    total = cfg.resolved_iterations()
    decay = _decay_length(total)
    pair = _scaled_init(y, cfg.rank, cfg.seed)
    a, s = pair.a, pair.s
    reviver = _SourceReviver(cfg.seed, cfg.rank)
    for k in range(1, total + 1):
        a, _ = linops.normalize_columns(a)
        s_all = linops.least_squares_solve_S(a, y)
        lam = priors.naive_threshold_select(s_all, min(k, decay), decay,
                                            cfg.tau_final)
        s = linops.nonneg_project(priors.hard_threshold(s_all, lam[:, None]))
        a = linops.nonneg_project(linops.least_squares_solve_A(s, y))
        reviver.revive(a, s)
        if callback is not None:
            callback(k, a, s)
    return FactorPair(a, s)


def ngmca(y: np.ndarray, cfg: AlgorithmConfig, callback=None) -> FactorPair:
    """Alternation of exactly solved sparse sub-problems (soft or hard).

    The threshold starts at the max-abs entry of the initial gradient,
    decreases linearly to tau_final times the per-row MAD of the gradient
    over the decay phase, then stays constant during refinement. The
    algorithm id picks the threshold: hard for ngmca_h, soft otherwise;
    only the soft variant ends with a polish.
    """
    hard = cfg.algorithm_id == "ngmca_h"
    total = cfg.resolved_iterations()
    decay = _decay_length(total)
    pair = _scaled_init(y, cfg.rank, cfg.seed)
    a, s = pair.a, pair.s
    lambda0 = priors.ngmca_lambda_init(a, s, y)
    reviver = _SourceReviver(cfg.seed, cfg.rank)
    solve_s = partial(fista_update_S, hard=hard)

    def scheduled(a, s):
        grad = a.T @ (a @ s - y)
        lam_final = cfg.tau_final * priors.mad_sigma_rows(grad)
        return priors.ngmca_lambda_next(lambda0, lam_final, k, decay)

    for k in range(1, total + 1):
        a, s, lam = _alternate(y, a, s, scheduled if k <= decay else lam,
                               solve_s, fista_update_A)
        reviver.revive(a, s)
        if callback is not None:
            callback(k, a, s, lam)
    if not hard:
        a, s = _polish(y, a, s, lam)
    return FactorPair(a, s)


def _alternate(y, a, s, lam, solve_s, solve_a):
    """One alternation: unit-norm A columns, then the S solve and the A solve.

    The column norms move into S, so A S is unchanged before the solves.
    lam may be a function of the rescaled (a, s), called before the S solve.
    The block solvers are called as solve_s(y, a, lam, s0) and
    solve_a(y, s, a0). Returns the new (a, s) and the lam used; the inputs
    are not modified.
    """
    a, scales = linops.normalize_columns(a)
    live = scales > 0.0
    s = s.copy()
    s[live] *= scales[live, None]
    if callable(lam):
        lam = lam(a, s)
    s = solve_s(y, a, lam, s)
    return solve_a(y, s, a), s, lam


def _move(a, s, prev_a, prev_s):
    """Frobenius norms of the move from (prev_a, prev_s) and of its start."""
    return (np.hypot(np.linalg.norm(a - prev_a), np.linalg.norm(s - prev_s)),
            np.hypot(np.linalg.norm(prev_a), np.linalg.norm(prev_s)))


#: polish-phase limits: extra fixed-lambda alternations after the schedule
POLISH_CAP = 300
POLISH_TOL = 2e-6


def _polish(y, a, s, lam):
    """Extra alternations at the final lambda until the iterates settle.

    The scheduled iterations leave the pair close to, but not exactly at, a
    fixed point of the fixed-lambda alternation; a short polish run makes
    the output stable under one more alternation. Both blocks are solved
    exactly. Running out of POLISH_CAP alternations first raises a
    NonConvergenceWarning.
    """
    for _ in range(POLISH_CAP):
        prev_a, prev_s = a, s
        a, s, _ = _alternate(y, a, s, lam, exact_update_S, exact_update_A)
        num, den = _move(a, s, prev_a, prev_s)
        if num <= POLISH_TOL * den:
            return a, s
    warnings.warn(f"polish did not settle in {POLISH_CAP} alternations: last "
                  f"relative move {num / den:.2e} > {POLISH_TOL:g}",
                  NonConvergenceWarning, stacklevel=3)
    return a, s


def stability_move(y: np.ndarray, pair: FactorPair, lam: np.ndarray) -> float:
    """Relative Frobenius move of one extra alternation at fixed lambda.

    A converged run should be (numerically) a fixed point of its own loop
    body, so a small value certifies stability of the returned pair. The
    sub-problems are solved exactly, as in the polish, so the measurement
    holds no inner solver's stopping noise.
    """
    a, s, _ = _alternate(y, pair.a, pair.s, lam, exact_update_S,
                         exact_update_A)
    num, den = _move(a, s, pair.a, pair.s)
    return float(num / den)


def als(y: np.ndarray, cfg: AlgorithmConfig, callback=None) -> FactorPair:
    """Alternating projected pseudo-inverse updates."""
    total = cfg.resolved_iterations()
    pair = _scaled_init(y, cfg.rank, cfg.seed)
    a, s = pair.a, pair.s
    reviver = _SourceReviver(cfg.seed, cfg.rank)
    for k in range(1, total + 1):
        a = linops.nonneg_project(linops.least_squares_solve_A(s, y))
        s = linops.nonneg_project(linops.least_squares_solve_S(a, y))
        reviver.revive(a, s)
        if callback is not None:
            callback(k, a, s)
    return FactorPair(a, s)


def _guarded(denom: np.ndarray) -> np.ndarray:
    top = denom.max()
    floor = 1e-12 * top if top > 0.0 else linops.TINY
    return np.maximum(denom, floor)


def multiplicative_update(y: np.ndarray, cfg: AlgorithmConfig,
                          callback=None) -> FactorPair:
    """Lee-Seung multiplicative updates for the l2 cost.

    Entries that underflow below the smallest normal double are set to
    exactly 0. The updates shrink unused entries geometrically, and
    arithmetic on subnormal numbers takes a slow path on x86; a subnormal
    entry adds less than one rounding step to any product with the
    normal-range entries around it, and zeros stay zero under the updates.
    """
    total = cfg.resolved_iterations()
    pair = _scaled_init(y, cfg.rank, cfg.seed)
    a, s = pair.a, pair.s
    for k in range(1, total + 1):
        # Clamping the numerators keeps the factors non-negative when the
        # data has negative entries (noise); it is a no-op for Y >= 0.
        a = a * linops.nonneg_project(y @ s.T) / _guarded(a @ (s @ s.T))
        a[a < linops.TINY] = 0.0
        s = s * linops.nonneg_project(a.T @ y) / _guarded((a.T @ a) @ s)
        s[s < linops.TINY] = 0.0
        if callback is not None:
            callback(k, a, s)
    return FactorPair(a, s)


def hals_sparse(y: np.ndarray, cfg: AlgorithmConfig, callback=None) -> FactorPair:
    """Cyclic rank-one updates with automatic sparsity-rate management.

    Each sweep sets lambda to the cfg.sparsity_target quantile of
    B = A^T (Y - A S) + d S, d = diag(A^T A), floored at 0: the Jacobi
    candidate max((B - lambda) / d, 0) of all rows is then zero on that
    fraction of the entries of S.
    """
    total = cfg.resolved_iterations()
    r = cfg.rank
    pair = _scaled_init(y, cfg.rank, cfg.seed)
    a, s = pair.a, pair.s
    reviver = _SourceReviver(cfg.seed, r)
    for k in range(1, total + 1):
        gram = a.T @ a
        proj = a.T @ y
        d = np.maximum(np.diag(gram), linops.TINY)
        lam = 0.0
        if cfg.sparsity_target > 0.0:
            base = proj - gram @ s + d[:, None] * s
            lam = max(float(np.quantile(base, cfg.sparsity_target)), 0.0)
        for i in range(r):
            resid_proj = proj[i] - gram[i] @ s + d[i] * s[i]
            s[i] = np.maximum((resid_proj - lam) / d[i], 0.0)
            sn = s[i] @ s[i]
            if sn > 0.0:
                col = y @ s[i] - a @ (s @ s[i]) + a[:, i] * sn
                a[:, i] = np.maximum(col / sn, 0.0)
                # keep the cached Gram/projection in sync with the new column
                gram[i, :] = a[:, i] @ a
                gram[:, i] = gram[i, :]
                d[i] = max(gram[i, i], linops.TINY)
                proj[i] = a[:, i] @ y
        reviver.revive(a, s)
        if callback is not None:
            callback(k, a, s)
    return FactorPair(a, s)


def oracle_solve(y: np.ndarray, a_ref: np.ndarray, tau_final: float) -> np.ndarray:
    """Non-negative l1 inversion with the true mixing matrix.

    lambda_i = tau_final times the MAD scale of row i of the gradient at
    S = 0, i.e. of -A_ref^T Y. The S sub-problem is solved exactly.
    """
    sigma_grad = priors.mad_sigma_rows(-(a_ref.T @ y))
    lam = tau_final * sigma_grad
    s0 = np.zeros((a_ref.shape[1], y.shape[1]))
    return exact_update_S(y, a_ref, lam, s0)


#: the entry point of every algorithm but the oracle, by name: it is looked
#: up when called, so a wrapped module function is the one that runs
_ENTRY_POINTS = {"ngmca_naive": "ngmca_naive", "ngmca_s": "ngmca",
                 "ngmca_h": "ngmca", "als": "als",
                 "mu": "multiplicative_update", "hals_sparse": "hals_sparse"}


def run_algorithm(y: np.ndarray, cfg: AlgorithmConfig,
                  a_ref: np.ndarray | None = None) -> FactorPair:
    """Dispatch on cfg.algorithm_id; the oracle needs the true mixing matrix."""
    if cfg.algorithm_id != ORACLE:
        return globals()[_ENTRY_POINTS[cfg.algorithm_id]](y, cfg)
    if a_ref is None:
        raise ValueError("the oracle needs the reference mixing matrix")
    return FactorPair(a_ref.copy(), oracle_solve(y, a_ref, cfg.tau_final))
