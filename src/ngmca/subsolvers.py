"""Exact solvers for the two constrained sub-problems of the alternation.

The S update minimizes 1/2 ||Y - A S||^2 + sum_i lambda_i ||s_i||_1 + i+(S)
with FISTA; the A update minimizes 1/2 ||Y - A S||^2 + i+(A) with the same
accelerated scheme and the orthant projection as prox. Both are one core
over the Gram quadratic 1/2 <X, G X> - <X, B>: X = S with G = A^T A and
B = A^T Y, or X = A^T with G = S S^T and B = S Y^T. The step is 1/L with L
the largest eigenvalue of G, and a monotone restart keeps the returned
objective at or below the start's.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError
from .linops import TINY, nonneg_project
from .priors import hard_threshold, prox_nonneg_l1


@dataclass
class SubsolverOptions:
    max_inner_iterations: int
    rel_tol: float

    def __post_init__(self):
        if self.max_inner_iterations < 1:
            raise ValueError("max_inner_iterations must be >= 1")
        if self.rel_tol <= 0.0:
            raise ValueError("rel_tol must be > 0")


def lipschitz_constant(gram: np.ndarray) -> float:
    """Gradient Lipschitz constant of 1/2 <X, G X>: the top eigenvalue of G."""
    return max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)


def _fista(gram, b, x, prox, lipschitz, iterations, tol, what, slope=None):
    """FISTA on 1/2 <X, G X> - <X, B> + h(X) from the feasible start x.

    prox(v) is the prox of h / L. Given slope, h is <slope, X> on the
    non-negative orthant that holds every iterate, and a momentum step that
    raises the objective is replaced by the plain forward-backward step
    (monotone restart). The objective change from x to a candidate c is
    <c - x, G (c + x) / 2 - B + slope>: exact, free of the cancellation of
    two nearly equal objectives, and cheap because G x is carried along
    with x and the momentum point. Stops once the relative step is <= tol.
    """
    b_slope = None if slope is None else b - slope
    gx = gram @ x
    z, gz = x, gx
    t = 1.0
    for _ in range(iterations):
        c = prox(z - (gz - b) / lipschitz)
        gc = gram @ c
        d = c - x
        if b_slope is not None and np.vdot(d, 0.5 * (gc + gx) - b_slope) > 0.0:
            # momentum overshot: restart and take the plain FBS step
            t = 1.0
            c = prox(x - (gx - b) / lipschitz)
            gc = gram @ c
            d = c - x
        diff = np.linalg.norm(d)
        if not math.isfinite(diff):
            raise NonFiniteError(f"{what} iterate diverged (check the step size)")
        denom = max(np.linalg.norm(x), TINY)
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        beta = (t - 1.0) / t_next
        z, gz = c + beta * d, gc + beta * (gc - gx)
        x, gx, t = c, gc, t_next
        if diff <= tol * denom:
            break
    return x


def fista_update_S(y: np.ndarray, a: np.ndarray, lam, s0: np.ndarray,
                   opts: SubsolverOptions, hard: bool = False) -> np.ndarray:
    """Accelerated forward-backward solve of the sparse S sub-problem.

    lam is one threshold per source row (a scalar broadcasts). By default
    the prox is the non-negative soft threshold and the result is the
    minimizer within opts.rel_tol; with hard=True the same iteration runs
    with the hard threshold instead (no optimality guarantee, no restart,
    stops at a fixed point or the cap).
    """
    m, n = y.shape
    r = a.shape[1]
    if a.shape[0] != m or s0.shape != (r, n):
        raise ShapeMismatchError(
            f"Y {y.shape}, A {a.shape}, S0 {s0.shape} do not conform")
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (r,)).reshape(r, 1)

    gram = a.T @ a
    lipschitz = lipschitz_constant(gram)
    if lipschitz == 0.0:
        return np.zeros_like(s0)
    lam_step = lam / lipschitz
    args = (gram, a.T @ y, nonneg_project(s0))
    if hard:
        return _fista(*args, lambda x: nonneg_project(hard_threshold(x, lam_step)),
                      lipschitz, opts.max_inner_iterations, 0.0, "S")
    return _fista(*args, lambda x: prox_nonneg_l1(x, lam_step), lipschitz,
                  opts.max_inner_iterations, opts.rel_tol, "S", slope=lam)


def fista_update_A(y: np.ndarray, s: np.ndarray, a0: np.ndarray,
                   opts: SubsolverOptions) -> np.ndarray:
    """Accelerated projected-gradient solve of the non-negative A sub-problem."""
    m, n = y.shape
    r = s.shape[0]
    if s.shape[1] != n or a0.shape != (m, r):
        raise ShapeMismatchError(
            f"Y {y.shape}, S {s.shape}, A0 {a0.shape} do not conform")

    gram = s @ s.T
    lipschitz = lipschitz_constant(gram)
    if lipschitz == 0.0:
        return nonneg_project(a0)
    a_t = _fista(gram, s @ y.T, nonneg_project(a0).T, nonneg_project,
                 lipschitz, opts.max_inner_iterations, opts.rel_tol, "A",
                 slope=0.0)
    return np.ascontiguousarray(a_t.T)
