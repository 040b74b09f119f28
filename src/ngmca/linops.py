"""Dense real-matrix primitives shared by every solver.

All functions are pure and operate on float64 numpy arrays.
"""

import numpy as np

from .errors import NonConvergenceError

#: conditioning cap beyond which the normal equations are considered rank
#: deficient and the ridge fallback kicks in
COND_CAP = 1e12

#: smallest positive normal double
TINY = np.finfo(float).tiny


def nonneg_project(m: np.ndarray) -> np.ndarray:
    """Project onto the non-negative orthant, [x]_+ = max(x, 0)."""
    return np.maximum(m, 0.0)


def _gram_condition(gram: np.ndarray) -> float:
    """2-norm condition number of a symmetric positive semi-definite gram.

    Its singular values are its eigenvalues, so eigvalsh gives the number
    without an SVD: lambda_max / lambda_min, or inf when lambda_min <= 0
    (singular up to rounding). As with the SVD of np.linalg.cond, NaN
    entries raise LinAlgError and infinite entries give inf.
    """
    if not np.isfinite(gram).all():
        if np.isnan(gram).any():
            raise np.linalg.LinAlgError("normal equations have NaN entries")
        return np.inf
    lam = np.linalg.eigvalsh(gram)
    return lam[-1] / lam[0] if lam[0] > 0.0 else np.inf


def _solve_gram(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram @ X = rhs, with a ridge-stabilized fallback.

    The ridge is 1e-12 * trace(gram) / r, enough to make momentarily
    collapsed factors solvable without noticeably biasing healthy solves.
    """
    r = gram.shape[0]
    cond = _gram_condition(gram)
    if not np.isfinite(cond) or cond > COND_CAP:
        ridge = 1e-12 * np.trace(gram) / r
        if ridge <= 0.0:
            ridge = TINY
        gram = gram + ridge * np.eye(r)
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(gram, rhs, rcond=None)[0]


def least_squares_solve_S(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unconstrained argmin_S ||Y - A S||_2^2 via the normal equations."""
    return _solve_gram(a.T @ a, a.T @ y)


def least_squares_solve_A(s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unconstrained argmin_A ||Y - A S||_2^2 (no projection)."""
    return _solve_gram(s @ s.T, s @ y.T).T


def normalize_columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescale each column to unit l2 norm.

    Returns the rescaled matrix and the vector of original column norms.
    Zero columns are left zero and get scale 0; the caller decides what to
    do with them.
    """
    scales = np.linalg.norm(a, axis=0)
    safe = np.where(scales > 0.0, scales, 1.0)
    return a / safe, scales


def spectral_norm(m: np.ndarray, tol: float = 1e-9,
                  max_iterations: int = 1000) -> float:
    """Largest singular value of m by power iteration.

    Symmetric matrices are iterated directly (|lambda|_max equals the
    spectral norm); otherwise the iteration runs on m^T m and the square
    root is returned.
    """
    m = np.asarray(m, dtype=float)
    symmetric = m.shape[0] == m.shape[1] and np.array_equal(m, m.T)
    b = m if symmetric else m.T @ m
    k = b.shape[0]
    v = np.ones(k) / np.sqrt(k)
    est = 0.0
    for _ in range(max_iterations):
        w = b @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            # v in the null space; restart off-axis, or the matrix is zero
            if not b.any():
                return 0.0
            v = np.arange(1.0, k + 1.0)
            v /= np.linalg.norm(v)
            continue
        new_est = nw  # Rayleigh-quotient-style estimate via |Bv|
        v = w / nw
        if abs(new_est - est) <= tol * max(new_est, TINY):
            est = new_est
            return abs(est) if symmetric else float(np.sqrt(est))
        est = new_est
    raise NonConvergenceError(
        f"power iteration did not converge in {max_iterations} iterations"
    )
