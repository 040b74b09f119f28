"""Independent reference solvers used only to check the real implementations.

Everything here is deliberately brute-force or a direct formula: support
enumeration, dense grid scans, factorial assignment search, a one-vector
MAD and the SNR definition. Slow but unarguable.
"""

import itertools
import math

import numpy as np


def nnls_enumerate(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """min_{s >= 0} 0.5*||y - A s||^2 for one column, by support enumeration."""
    r = a.shape[1]
    best, best_val = np.zeros(r), 0.5 * float(y @ y)
    for size in range(1, r + 1):
        for support in itertools.combinations(range(r), size):
            sub = a[:, support]
            coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
            if (coef < -1e-12).any():
                continue
            cand = np.zeros(r)
            cand[list(support)] = np.maximum(coef, 0.0)
            val = 0.5 * float(np.sum((y - a @ cand) ** 2))
            if val < best_val - 1e-15:
                best, best_val = cand, val
    return best


def nnls_enumerate_matrix(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.column_stack([nnls_enumerate(a, y[:, j])
                            for j in range(y.shape[1])])


def grid_min_1d(a: np.ndarray, y: np.ndarray, lam: float,
                hi: float, steps: int = 20001) -> np.ndarray:
    """Non-negative l1 problem with a single source row, by grid scan."""
    grid = np.linspace(0.0, hi, steps)
    out = np.empty(y.shape[1])
    for j in range(y.shape[1]):
        vals = 0.5 * np.sum((y[:, j, None] - a * grid[None, :]) ** 2,
                            axis=0) + lam * grid
        out[j] = grid[np.argmin(vals)]
    return out[None, :]


def grid_min_2d(a: np.ndarray, y_col: np.ndarray, lam: np.ndarray,
                hi: float, steps: int = 401,
                lo: float = 0.0) -> np.ndarray:
    """Two-source non-negative l1 problem for one column, by grid scan."""
    grid = np.linspace(max(lo, 0.0), hi, steps)
    g1, g2 = np.meshgrid(grid, grid, indexing="ij")
    resid = (y_col[:, None, None]
             - a[:, 0, None, None] * g1 - a[:, 1, None, None] * g2)
    vals = 0.5 * np.sum(resid ** 2, axis=0) + lam[0] * g1 + lam[1] * g2
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    return np.array([grid[i], grid[j]])


def grid_min_2d_refined(a: np.ndarray, y_col: np.ndarray, lam: np.ndarray,
                        hi: float) -> np.ndarray:
    """Coarse scan followed by a fine scan around the coarse minimum."""
    coarse = grid_min_2d(a, y_col, lam, hi, steps=801)
    spacing = hi / 800.0
    axes = [np.linspace(max(c - 2.0 * spacing, 0.0), c + 2.0 * spacing, 401)
            for c in coarse]
    g1, g2 = np.meshgrid(axes[0], axes[1], indexing="ij")
    resid = (y_col[:, None, None]
             - a[:, 0, None, None] * g1 - a[:, 1, None, None] * g2)
    vals = 0.5 * np.sum(resid ** 2, axis=0) + lam[0] * g1 + lam[1] * g2
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    return np.array([axes[0][i], axes[1][j]])


def best_assignment(sdr_matrix: np.ndarray) -> tuple[tuple, float]:
    """Exhaustive search over permutations maximizing the summed SDR."""
    r = sdr_matrix.shape[0]
    best_perm, best_total = None, -np.inf
    for perm in itertools.permutations(range(r)):
        total = sum(sdr_matrix[i, perm[i]] for i in range(r))
        if total > best_total:
            best_perm, best_total = perm, total
    return best_perm, best_total


def objective(y: np.ndarray, a: np.ndarray, s: np.ndarray) -> float:
    return 0.5 * float(np.sum((y - a @ s) ** 2))


def mad_sigma(v: np.ndarray) -> float:
    """Scaled median absolute deviation of one vector, MAD / 0.6745."""
    return float(np.median(np.abs(v - np.median(v)))) / 0.6744897501960817


def measure_snr(y: np.ndarray, x_clean: np.ndarray) -> float:
    """SNR of y against the clean signal x_clean, in dB."""
    noise_energy = float(np.sum((y - x_clean) ** 2))
    if noise_energy == 0.0:
        return math.inf
    signal_energy = float(np.sum(x_clean ** 2))
    return 10.0 * math.log10(signal_energy / noise_energy)
