"""Thresholding operators, noise-scale estimation and threshold schedules.

These are the moving parts of the decreasing-regularization strategy: the
sparse solvers themselves only ever see a per-source lambda vector produced
here.
"""

import math

import numpy as np

#: Gaussian-consistency factor: median(|N(0,1)|) = 0.6745...
MAD_TO_SIGMA = 0.6744897501960817


def soft_threshold(x, lam):
    """Soft_lam(x) = sign(x) * max(|x| - lam, 0)."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def hard_threshold(x, lam):
    """Keep-or-kill: 0 where |x| < lam, x elsewhere (boundary kept)."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < lam, 0.0, x)


def prox_nonneg_l1(x, lam):
    """Prox of lam*||.||_1 + i+: the non-negative soft threshold.

    Identical to nonneg_project(soft_threshold(x, lam)), in closed form
    max(x - lam, 0).
    """
    x = np.asarray(x, dtype=float)
    return np.maximum(x - lam, 0.0)


def mad_sigma_rows(m: np.ndarray) -> np.ndarray:
    """Robust noise scale of each row: its scaled median absolute deviation."""
    med = np.median(m, axis=1, keepdims=True)
    return np.median(np.abs(m - med), axis=1) / MAD_TO_SIGMA


def naive_threshold_select(s_all: np.ndarray, k: int, total: int,
                           tau_final: float) -> np.ndarray:
    """Per-row thresholds growing the active set roughly linearly with k.

    For row i, candidates are the entries above the noise floor, tau_final
    times the row's MAD scale. At step k the threshold is the magnitude of
    the ceil((k/total) * n_cand)-th largest candidate, and exactly the floor
    at k = total so the endgame keeps every candidate.
    """
    floors = tau_final * mad_sigma_rows(s_all)
    lam = np.empty(s_all.shape[0])
    for i, (row, floor) in enumerate(zip(s_all, floors)):
        mags = np.abs(row)
        cand = np.sort(mags[mags > floor])[::-1]
        if cand.size == 0:
            lam[i] = floor
            continue
        target = min(max(math.ceil(k / total * cand.size), 1), cand.size)
        lam[i] = floor if target >= cand.size else cand[target - 1]
    return lam


def ngmca_lambda_init(a0: np.ndarray, s0: np.ndarray, y: np.ndarray) -> float:
    """Initial threshold, the max-abs entry of the gradient A0^T(A0 S0 - Y)."""
    return float(np.max(np.abs(a0.T @ (a0 @ s0 - y))))


def ngmca_lambda_next(lambda0: float, lambda_final: np.ndarray, k: int,
                      total: int) -> np.ndarray:
    """Linear interpolation from lambda0 down to the per-source final values."""
    lambda_final = np.asarray(lambda_final, dtype=float)
    return lambda0 + (k / total) * (lambda_final - lambda0)
