"""Output checks computed apart from the program under test.

Nothing here calls into ngmca: every quantity is recomputed from the raw
factors and references with plain numpy, so a fault in the program cannot
hide in the check. Each check raises CheckError with a one-line reason.
"""

import csv
import io
import math

import numpy as np

#: dB cap applied to SDR values before pairing and averaging (the BSS-Eval
#: convention the program documents for persisted records)
SDR_CAP_DB = 300.0

#: a target component at or below this share of the estimate's norm counts
#: as zero, and so does a distortion component (the +-inf conventions)
ZERO_SHARE = 1e-10

#: agreement required between the program's SDR and the closed form, in dB
SDR_TOL_DB = 1e-6

#: relative spread of the gradient over an active set, and relative sign
#: violation off it, accepted for the one-shot oracle solve (rel_tol 1e-10);
#: measured at <= 3e-9
ORACLE_KKT_TOL = 1e-6

#: the same for the block conditions of ngmca_s at its returned pair;
#: runs whose polish settled measured 1e-5 to 4.7e-4 (52 synthetic instances
#: at m=n=200 and NMR seeds 0 and 2), so this leaves 4x room above the worst
STATIONARY_TOL = 2e-3


class CheckError(Exception):
    """An output failed a check."""


class NotStationary(CheckError):
    """An ngmca_s output is not a stationary point of its problem."""


def check_factors(a: np.ndarray, s: np.ndarray, m: int, n: int, r: int) -> None:
    """A (m x r) and S (r x n) are finite and non-negative."""
    for name, mat, shape in (("A", a, (m, r)), ("S", s, (r, n))):
        if mat.shape != shape:
            raise CheckError(f"{name} has shape {mat.shape}, expected {shape}")
        if not np.all(np.isfinite(mat)):
            raise CheckError(f"{name} has non-finite entries")
        if mat.min(initial=0.0) < 0.0:
            raise CheckError(f"{name} has a negative entry {mat.min():.3e}")


def sdr_matrix(s_est: np.ndarray, s_ref: np.ndarray) -> np.ndarray:
    """Raw SDR in dB of every estimate row i against every reference row j.

    BSS-Eval's distortion is everything but the target, and the target is the
    rank-one projection of the estimate on its reference, so the SDR needs
    neither the span of all references nor the noise rows.
    """
    ref_energy = np.einsum("jk,jk->j", s_ref, s_ref)
    coef = (s_est @ s_ref.T) / ref_energy[None, :]
    target = coef[:, :, None] * s_ref[None, :, :]
    distortion = s_est[:, None, :] - target
    target_norm = np.sqrt(coef ** 2 * ref_energy[None, :])
    distortion_norm = np.linalg.norm(distortion, axis=2)
    floor = ZERO_SHARE * np.linalg.norm(s_est, axis=1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 20.0 * np.log10(target_norm / distortion_norm)
    out[distortion_norm <= floor] = math.inf
    out[target_norm <= floor] = -math.inf
    return out


def max_assignment(score: np.ndarray) -> np.ndarray:
    """Row -> column permutation maximizing the summed score.

    Kuhn-Munkres with potentials (shortest augmenting paths), O(r^3).
    """
    cost = -np.asarray(score, dtype=float)
    r = cost.shape[0]
    u = np.zeros(r + 1)
    v = np.zeros(r + 1)
    match = np.zeros(r + 1, dtype=int)  # column -> row, 1-based, 0 = free
    for row in range(1, r + 1):
        match[0] = row
        col0 = 0
        minv = np.full(r + 1, math.inf)
        used = np.zeros(r + 1, dtype=bool)
        way = np.zeros(r + 1, dtype=int)
        while True:
            used[col0] = True
            i0 = match[col0]
            delta, col1 = math.inf, 0
            for col in range(1, r + 1):
                if used[col]:
                    continue
                cur = cost[i0 - 1, col - 1] - u[i0] - v[col]
                if cur < minv[col]:
                    minv[col] = cur
                    way[col] = col0
                if minv[col] < delta:
                    delta, col1 = minv[col], col
            for col in range(r + 1):
                if used[col]:
                    u[match[col]] += delta
                    v[col] -= delta
                else:
                    minv[col] -= delta
            col0 = col1
            if match[col0] == 0:
                break
        while col0:
            col1 = way[col0]
            match[col0] = match[col1]
            col0 = col1
    perm = np.empty(r, dtype=int)
    perm[match[1:] - 1] = np.arange(r)
    return perm


def check_pairing(s_est: np.ndarray, s_ref: np.ndarray, per_source_db,
                  mean_db: float, permutation=None) -> np.ndarray:
    """The program's pairing agrees with the closed form; returns the capped
    per-source SDRs at the benchmark's own optimal assignment.

    The program's per-source values must equal the closed form at the
    program's pairing (at the benchmark's own one when no permutation is
    given, as for campaign records), and its capped mean must equal the
    optimum found here. Ties between dead estimates may pair differently at
    the same total, which is why the given pairing is the one compared.
    """
    r = s_ref.shape[0]
    capped = np.clip(sdr_matrix(s_est, s_ref), -SDR_CAP_DB, SDR_CAP_DB)
    own_perm = max_assignment(capped)
    perm = own_perm if permutation is None else np.asarray(permutation)
    if perm.shape != (r,) or sorted(perm.tolist()) != list(range(r)):
        raise CheckError(f"pairing {perm.tolist()} is not a permutation")
    theirs = np.clip(np.asarray(per_source_db, dtype=float),
                     -SDR_CAP_DB, SDR_CAP_DB)
    if theirs.shape != (r,):
        raise CheckError(f"{theirs.size} per-source SDRs for {r} sources")
    worst = float(np.max(np.abs(theirs - capped[np.arange(r), perm])))
    if not worst <= SDR_TOL_DB:
        raise CheckError(f"per-source SDR differs from the closed form by "
                         f"{worst:.3e} dB")
    own = capped[np.arange(r), own_perm]
    gap = abs(float(mean_db) - float(own.mean()))
    if not gap <= SDR_TOL_DB:
        raise CheckError(f"mean SDR {mean_db!r} is {gap:.3e} dB off the "
                         f"optimal pairing's {own.mean()!r}")
    return own


def lasso_kkt(a: np.ndarray, s: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Worst active-set spread and sign violation of the non-negative lasso.

    At a minimizer of 1/2 ||Y - A S||^2 + sum_i lam_i ||s_i||_1 over S >= 0
    the gradient G = A^T (A S - Y) equals -lam_i on row i's active set and is
    at least -lam_i off it. lam_i is inferred as minus the active-set median,
    so any per-row choice of lambda passes; both figures are relative to it.
    Rows with no active entry only have to be non-negative (checked apart).
    """
    grad = a.T @ (a @ s - y)
    spread = violation = 0.0
    for g_row, s_row in zip(grad, s):
        active = s_row > 0.0
        if not active.any():
            continue
        lam = -float(np.median(g_row[active]))
        scale = abs(lam) if lam != 0.0 else float(np.max(np.abs(g_row)))
        if lam < 0.0 or scale == 0.0:
            return math.inf, math.inf
        spread = max(spread, float(np.max(np.abs(g_row[active] + lam))) / scale)
        if (~active).any():
            violation = max(violation,
                            float(np.max(-lam - g_row[~active])) / scale)
    return spread, violation


def nnls_kkt(a: np.ndarray, s: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Worst active-set gradient and sign violation of min_A>=0 ||Y - A S||^2.

    G = (A S - Y) S^T is zero where A > 0 and non-negative where A = 0; both
    figures are relative to the column's largest |Y S^T| entry.
    """
    grad = (a @ s - y) @ s.T
    scale = np.max(np.abs(y @ s.T), axis=0)
    live = scale > 0.0
    rel = grad[:, live] / scale[live]
    active = a[:, live] > 0.0
    spread = float(np.max(np.abs(rel[active]), initial=0.0))
    violation = float(np.max(-rel[~active], initial=0.0))
    return spread, violation


def check_oracle(a_ref: np.ndarray, s: np.ndarray, y: np.ndarray) -> None:
    """The oracle's S minimizes the non-negative lasso for A_ref."""
    spread, violation = lasso_kkt(a_ref, s, y)
    if not (spread <= ORACLE_KKT_TOL and violation <= ORACLE_KKT_TOL):
        raise CheckError(f"oracle S is not a lasso minimizer: active-set "
                         f"spread {spread:.3e}, sign violation "
                         f"{violation:.3e} (tol {ORACLE_KKT_TOL:g})")


def stationarity(a: np.ndarray, s: np.ndarray, y: np.ndarray) -> float:
    """Worst of the A-block and S-block figures at the returned pair.

    The alternation solves for S against the column-normalised A and then
    for A against that S, so the S block is taken against A / ||A|| as is.
    """
    norms = np.linalg.norm(a, axis=0)
    live = norms > 0.0
    a_unit = a[:, live] / norms[live]
    return max(*nnls_kkt(a, s, y), *lasso_kkt(a_unit, s[live], y))


def check_stationary(a: np.ndarray, s: np.ndarray, y: np.ndarray) -> float:
    """ngmca_s returned a stationary point of its fixed-lambda problem."""
    worst = stationarity(a, s, y)
    if not worst <= STATIONARY_TOL:
        raise NotStationary(f"ngmca_s output is not stationary: block KKT "
                            f"residual {worst:.3e} > {STATIONARY_TOL:g}")
    return worst


def check_campaign(results_csv: str, summary_csv: str, trial_csv: str,
                   expected_records: int, trials_per_cell: int) -> None:
    """Campaign outputs hold the recomputed trial's rows byte for byte, the
    number of records the grid implies, and complete summary counts."""
    result_lines = results_csv.splitlines()
    trial_lines = trial_csv.splitlines()
    if trial_lines[0] != result_lines[0]:
        raise CheckError("recomputed trial has another CSV header")
    missing = [line for line in trial_lines[1:] if line not in result_lines[1:]]
    if missing:
        raise CheckError(f"recomputed trial row not in results.csv: "
                         f"{missing[0][:120]}")
    if len(result_lines) - 1 != expected_records:
        raise CheckError(f"results.csv has {len(result_lines) - 1} records, "
                         f"expected {expected_records}")
    for row in csv.DictReader(io.StringIO(summary_csv)):
        total = int(row["n"]) + int(row["n_errors"])
        if total != trials_per_cell:
            raise CheckError(f"summary row {row} counts {total} trials, "
                             f"expected {trials_per_cell}")
