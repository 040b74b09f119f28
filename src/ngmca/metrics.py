"""Separation quality evaluation: BSS decomposition, SDR, pairing.

pair_sources scores every estimate against every reference in closed form:
SDR needs only the rank-one target, and the distortion is the rest.
decompose_bss is the four-way split of one estimate into orthogonal target,
interference, noise and artifact parts, by nested projections.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DegenerateSpanError, SingularMatrixError

#: cap applied to SDR values in persisted records (raw +-inf kept in memory)
SDR_CAP_DB = 300.0


@dataclass
class BssDecomposition:
    target: np.ndarray
    interf: np.ndarray
    noise: np.ndarray
    artifacts: np.ndarray


@dataclass
class PairingResult:
    permutation: np.ndarray          # estimated index -> reference index
    per_source_sdr_db: np.ndarray
    mean_sdr_db: float


def _project(vec: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Orthogonal projection of vec onto the row span of basis.

    Gram normal equations with a tiny relative ridge for numerical safety.
    """
    gram = basis @ basis.T
    k = gram.shape[0]
    ridge = 1e-12 * np.trace(gram) / k
    coeffs = np.linalg.solve(gram + ridge * np.eye(k), basis @ vec)
    return coeffs @ basis


def decompose_bss(s_est: np.ndarray, ref_sources: np.ndarray,
                  noise_rows: np.ndarray, paired_index: int) -> BssDecomposition:
    """Split an estimated source into target/interference/noise/artifacts."""
    if np.linalg.matrix_rank(ref_sources) < ref_sources.shape[0]:
        raise DegenerateSpanError("reference sources are rank-deficient")
    target = _project(s_est, ref_sources[paired_index][None, :])
    p_refs = _project(s_est, ref_sources)
    if noise_rows.size:
        p_full = _project(s_est, np.vstack([ref_sources, noise_rows]))
    else:
        p_full = p_refs
    components = [target, p_refs - target, p_full - p_refs, s_est - p_full]
    # components below the ridge's own noise floor are structural zeros;
    # snapping them lets exact recoveries reach the +-inf SDR conventions
    floor = 1e-10 * np.linalg.norm(s_est)
    components = [c if np.linalg.norm(c) > floor else np.zeros_like(c)
                  for c in components]
    return BssDecomposition(*components)


def sdr(d: BssDecomposition) -> float:
    """Source distortion ratio in dB; +-inf conventions at the extremes."""
    target_energy = float(d.target @ d.target)
    distortion = d.interf + d.noise + d.artifacts
    distortion_energy = float(distortion @ distortion)
    if target_energy == 0.0:
        return -math.inf
    if distortion_energy < 1e-300:
        return math.inf
    return 10.0 * math.log10(target_energy / distortion_energy)


def _sdr_matrix(s_est: np.ndarray, s_ref: np.ndarray) -> np.ndarray:
    """SDR in dB of each estimate (row) against each reference (column).

    SDR needs only the rank-one target projection: interference, noise and
    artifacts together are the estimate minus its target. The projection
    carries the relative ridge of _project and the 1e-10 ||s_est|| snapping
    of decompose_bss, so the +-inf conventions of sdr() are kept.
    """
    ref_energy = np.einsum("ij,ij->i", s_ref, s_ref)
    coeffs = (s_est @ s_ref.T) / (ref_energy * (1.0 + 1e-12))
    targets = coeffs[:, :, None] * s_ref[None, :, :]
    target_norm = np.abs(coeffs) * np.sqrt(ref_energy)
    distortion_norm = np.linalg.norm(s_est[:, None, :] - targets, axis=2)
    floor = 1e-10 * np.linalg.norm(s_est, axis=1)[:, None]
    target_norm[target_norm <= floor] = 0.0
    distortion_norm[distortion_norm <= floor] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 20.0 * np.log10(target_norm / distortion_norm)
    out[distortion_norm ** 2 < 1e-300] = math.inf
    out[target_norm == 0.0] = -math.inf
    return out


def pair_sources(s_est: np.ndarray, s_ref: np.ndarray,
                 noise_rows: np.ndarray) -> PairingResult:
    """Best one-to-one pairing by total SDR (optimal assignment).

    The assignment and the reported mean use dB values capped at +-300 so
    perfect recoveries stay finite; per_source_sdr_db keeps the raw values.
    Each SDR equals sdr(decompose_bss(s_est[i], s_ref, noise_rows, j)) up
    to rounding; the noise rows only split the distortion, so they do not
    enter the value.
    """
    r = s_est.shape[0]
    if s_ref.shape[0] != r:
        raise ValueError("estimated and reference source counts differ")
    if np.linalg.matrix_rank(s_ref) < r:
        raise DegenerateSpanError("reference sources are rank-deficient")
    sdr_mat = _sdr_matrix(s_est, s_ref)
    capped = np.clip(sdr_mat, -SDR_CAP_DB, SDR_CAP_DB)
    rows, cols = linear_sum_assignment(-capped)
    perm = np.empty(r, dtype=int)
    perm[rows] = cols
    per_source = sdr_mat[np.arange(r), perm]
    mean = float(np.mean(capped[np.arange(r), perm]))
    return PairingResult(permutation=perm, per_source_sdr_db=per_source,
                         mean_sdr_db=mean)


def condition_number(a: np.ndarray) -> float:
    """Ratio of largest to smallest singular value."""
    svals = np.linalg.svd(a, compute_uv=False)
    if svals[-1] <= svals[0] * max(a.shape) * np.finfo(float).eps:
        raise SingularMatrixError("matrix is not full column rank")
    return float(svals[0] / svals[-1])
