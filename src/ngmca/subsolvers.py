"""Solvers for the two constrained sub-problems of the alternation.

The S update minimizes 1/2 ||Y - A S||^2 + sum_i lambda_i ||s_i||_1 + i+(S)
and the A update minimizes 1/2 ||Y - A S||^2 + i+(A). Both are the Gram
quadratic 1/2 <X, G X> - <X, B> over X >= 0 (plus <lambda, X> for S):
X = S with G = A^T A and B = A^T Y, or X = A^T with G = S S^T and B = S Y^T.
Every column of X is an independent r-dimensional problem sharing G.

Two solvers cover them. fista_update_S/A run FISTA with step 1/L, L the
largest eigenvalue of G, and a monotone restart that keeps the returned
objective at or below the start's, for at most FISTA_ITERATIONS steps.
exact_update_S/A solve the soft-threshold problem exactly by block
principal pivoting (Kim & Park 2011, SIAM J. Sci. Comput. 33(6)),
warm-started from the passive set of the incoming iterate.
"""

import math
import warnings

import numpy as np

from .errors import (NonConvergenceWarning, NonFiniteError,
                     ShapeMismatchError)
from .linops import TINY, nonneg_project
from .priors import hard_threshold, prox_nonneg_l1


#: FISTA budget of the scheduled alternations of ngmca, the one caller of
#: fista_update_S/A: at most FISTA_ITERATIONS steps, stopping once the
#: relative step is <= FISTA_TOL. The fixed-lambda phases (the polish,
#: stability_move and the oracle) solve their blocks exactly instead; exact
#: solves in the schedule would change its decay path, and lowered the SDR
#: where they were tried (synthetic seed 1000: 27.44 -> 21.68 dB; NMR seed 0:
#: 7.49 -> 4.57 dB).
FISTA_ITERATIONS = 80
FISTA_TOL = 1e-6


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


def _s_block(y, a, lam, s0):
    """Gram, projection, per-row threshold and projected start of the S block."""
    m, n = y.shape
    r = a.shape[1]
    if a.shape[0] != m or s0.shape != (r, n):
        raise ShapeMismatchError(
            f"Y {y.shape}, A {a.shape}, S0 {s0.shape} do not conform")
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (r,)).reshape(r, 1)
    return a.T @ a, a.T @ y, lam, nonneg_project(s0)


def _a_block(y, s, a0):
    """Gram, projection and projected start (transposed) of the A block."""
    m, n = y.shape
    r = s.shape[0]
    if s.shape[1] != n or a0.shape != (m, r):
        raise ShapeMismatchError(
            f"Y {y.shape}, S {s.shape}, A0 {a0.shape} do not conform")
    return s @ s.T, s @ y.T, nonneg_project(a0).T


def fista_update_S(y: np.ndarray, a: np.ndarray, lam, s0: np.ndarray,
                   hard: bool = False) -> np.ndarray:
    """Accelerated forward-backward solve of the sparse S sub-problem.

    lam is one threshold per source row (a scalar broadcasts). By default
    the prox is the non-negative soft threshold and the result is the
    minimizer within FISTA_TOL; with hard=True the same iteration runs
    with the hard threshold instead (no optimality guarantee, no restart,
    stops at a fixed point or the cap).
    """
    gram, proj, lam, s0 = _s_block(y, a, lam, s0)
    lipschitz = lipschitz_constant(gram)
    if lipschitz == 0.0:
        return np.zeros_like(s0)
    lam_step = lam / lipschitz
    args = (gram, proj, s0)
    if hard:
        return _fista(*args, lambda x: nonneg_project(hard_threshold(x, lam_step)),
                      lipschitz, FISTA_ITERATIONS, 0.0, "S")
    return _fista(*args, lambda x: prox_nonneg_l1(x, lam_step), lipschitz,
                  FISTA_ITERATIONS, FISTA_TOL, "S", slope=lam)


def fista_update_A(y: np.ndarray, s: np.ndarray, a0: np.ndarray) -> np.ndarray:
    """Accelerated projected-gradient solve of the non-negative A sub-problem."""
    gram, proj, a0_t = _a_block(y, s, a0)
    lipschitz = lipschitz_constant(gram)
    if lipschitz == 0.0:
        return np.ascontiguousarray(a0_t.T)
    a_t = _fista(gram, proj, a0_t, nonneg_project, lipschitz,
                 FISTA_ITERATIONS, FISTA_TOL, "A", slope=0.0)
    return np.ascontiguousarray(a_t.T)


#: exchange rounds of one exact solve; warm-started polish solves on NMR
#: take 0 or 1, the oracle's cold start at m=n=100, r=15 takes 4 to 6
EXCHANGE_CAP = 50


def _passive_solve(gram, b, passive):
    """Minimizer of the quadratic on each column's passive set, 0 off it.

    Column j solves G_FF x_F = b_F with F = passive[:, j]. All columns with
    a passive entry go through one batched solve of r x r systems that hold
    G on F x F and the identity elsewhere; if one of them is singular, every
    system is solved by lstsq instead.
    """
    x = np.zeros_like(b)
    some = np.flatnonzero(passive.any(axis=0))
    f = passive[:, some].T
    systems = gram * (f[:, :, None] & f[:, None, :])
    diag = np.arange(gram.shape[0])
    systems[:, diag, diag] += ~f
    rhs = np.where(f, b[:, some].T, 0.0)
    try:
        x[:, some] = np.linalg.solve(systems, rhs[:, :, None])[:, :, 0].T
    except np.linalg.LinAlgError:
        for j, system, col in zip(some, systems, rhs):
            x[:, j] = np.linalg.lstsq(system, col, rcond=None)[0]
    return x


def _principal_pivoting(gram, b, x0, what):
    """Exact minimizer of 1/2 <X, G X> - <X, B> over X >= 0.

    Block principal pivoting with full exchange and the Kim & Park backup
    rule, per column, from the passive set {x0 > 0} of the feasible start.
    A variable with G_ii = 0 is decoupled (G is positive semi-definite, so
    its row is 0): it goes to 0 when b_i < 0 and otherwise keeps its start,
    as FISTA leaves it. An active variable's gradient counts as negative
    only beyond its rounding error, 4 r eps (|G| |x| + |B|): a variable at
    0 with a zero gradient would otherwise flip between a 1e-17 passive
    value and a -1e-16 gradient until the cap. A column still infeasible
    after EXCHANGE_CAP rounds keeps its start and raises a
    NonConvergenceWarning.
    """
    x = x0.copy()
    free = np.diag(gram) > 0.0
    x[~free] = np.where(b[~free] < 0.0, 0.0, x[~free])
    g, bf = gram[np.ix_(free, free)], b[free]
    r, k = bf.shape
    tol, g_abs = 4 * r * np.finfo(float).eps, np.abs(g)
    passive = x[free] > 0.0
    xf = _passive_solve(g, bf, passive)
    todo = np.arange(k)
    fewest = np.full(k, r + 1)  # smallest infeasible count seen per column
    full_tries = np.full(k, 3)  # full exchanges left before the backup rule
    for rounds in range(EXCHANGE_CAP + 1):
        xt, pt, bt = xf[:, todo], passive[:, todo], bf[:, todo]
        grad_tol = tol * (g_abs @ np.abs(xt) + np.abs(bt))
        swap = np.where(pt, xt < 0.0, g @ xt - bt < -grad_tol)
        count = swap.sum(axis=0)
        unsettled = count > 0
        todo, swap, count = todo[unsettled], swap[:, unsettled], count[unsettled]
        if todo.size == 0:
            break
        if rounds == EXCHANGE_CAP:
            warnings.warn(f"exact {what} solve: {todo.size} of {k} columns "
                          f"still infeasible after {EXCHANGE_CAP} exchange "
                          "rounds; they keep their start",
                          NonConvergenceWarning, stacklevel=3)
            xf[:, todo] = x[free][:, todo]
            break
        fewer = count < fewest[todo]
        fewest[todo[fewer]] = count[fewer]
        full_tries[todo[fewer]] = 3
        backup = ~fewer & (full_tries[todo] < 1)
        full_tries[todo[~fewer & ~backup]] -= 1
        if backup.any():
            # exchange only the infeasible variable of largest index
            last = r - 1 - np.argmax(swap[::-1, backup], axis=0)
            swap[:, backup] = False
            swap[last, np.flatnonzero(backup)] = True
        passive[:, todo] ^= swap
        xf[:, todo] = _passive_solve(g, bf[:, todo], passive[:, todo])
    x[free] = xf
    return x


def exact_update_S(y: np.ndarray, a: np.ndarray, lam,
                   s0: np.ndarray) -> np.ndarray:
    """Exact solve of the soft-threshold S sub-problem, warm-started at s0.

    lam is one threshold per source row (a scalar broadcasts).
    """
    gram, proj, lam, s0 = _s_block(y, a, lam, s0)
    return _principal_pivoting(gram, proj - lam, s0, "S")


def exact_update_A(y: np.ndarray, s: np.ndarray, a0: np.ndarray) -> np.ndarray:
    """Exact solve of the non-negative A sub-problem, warm-started at a0."""
    gram, proj, a0_t = _a_block(y, s, a0)
    return np.ascontiguousarray(_principal_pivoting(gram, proj, a0_t, "A").T)
