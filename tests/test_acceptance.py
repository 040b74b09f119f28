"""End-to-end acceptance gate.

Each test checks one release criterion at its stated tolerance and reports a
single pass/fail line in the terminal summary (see conftest.py). The suite
covers: mixing-matrix conditioning, sub-solver exactness against brute-force
oracles, thresholding identities, multiplicative-update monotonicity, SDR
decomposition invariants, sampler moments, the one-extra-alternation
stability certificate, the qualitative algorithm ordering on a desk-scale
grid, a frozen noiseless-recovery baseline, the synthetic NMR pipeline, and
byte-level campaign determinism.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import record_acceptance
from ngmca.algorithms import AlgorithmConfig, ngmca, run_algorithm, \
    multiplicative_update, stability_move
from ngmca.bench import BenchmarkConfig, records_to_csv, run_campaign
from ngmca.datagen import (InstanceSpec, gen_factor, gen_instance,
                           gen_nmr_instance, sample_generalized_gaussian)
from ngmca.metrics import (SDR_CAP_DB, condition_number, decompose_bss,
                           pair_sources, sdr)
from ngmca.priors import hard_threshold, prox_nonneg_l1, soft_threshold
from ngmca.rng import derive_seed, stream
from ngmca.subsolvers import (SubsolverOptions, exact_update_S,
                              fista_update_S)
from oracles import (best_assignment, grid_min_1d, grid_min_2d_refined,
                     nnls_enumerate_matrix)

DATA_DIR = Path(__file__).parent / "data"
TIGHT = SubsolverOptions(max_inner_iterations=2000, rel_tol=1e-12)


def normalized_design(gen, rows, cols):
    a = np.abs(gen.standard_normal((rows, cols))) + 0.1
    return a / np.linalg.norm(a, axis=0)


def mean_sdr(pair, inst):
    return float(pair_sources(pair.s, inst.s_ref, inst.z).mean_sdr_db)


def test_criterion_01_mixing_matrix_conditioning():
    expected = {0.5: 6.90, 0.9: 9.43, 2.0: 12.9, 4.0: 15.3}
    worst = 0.0
    for alpha, ref in expected.items():
        conds = [condition_number(gen_factor(200, 35, 1.0, alpha,
                                             stream("c1", alpha, seed)))
                 for seed in range(48)]
        worst = max(worst, abs(float(np.mean(conds)) / ref - 1.0))
    record_acceptance(1, "mixing-matrix conditioning", worst <= 0.15,
                      f"worst relative deviation {worst:.3f} (<= 0.15)")
    assert worst <= 0.15


def test_criterion_02_subsolver_exactness(gen):
    solvers = {"FISTA": lambda y, a, lam, s0: fista_update_S(y, a, lam, s0,
                                                             TIGHT),
               "exact": exact_update_S}
    worst_nnls = dict.fromkeys(solvers, 0.0)
    worst_grid = dict.fromkeys(solvers, 0.0)
    for _ in range(200):
        a = normalized_design(gen, 4, 3)
        y = gen.standard_normal((4, 5))
        ref = nnls_enumerate_matrix(a, y)
        for name, solve in solvers.items():
            s = solve(y, a, 0.0, np.zeros((3, 5)))
            worst_nnls[name] = max(worst_nnls[name],
                                   float(np.max(np.abs(s - ref))))

    for _ in range(10):
        a1 = normalized_design(gen, 3, 1)
        y1 = np.abs(gen.standard_normal((3, 4))) + 0.5
        ref1 = grid_min_1d(a1, y1, 0.2, hi=float(np.abs(y1).sum()))

        a2 = normalized_design(gen, 3, 2)
        y2 = np.abs(gen.standard_normal(3)) + 0.5
        lam = np.array([0.15, 0.3])
        ref2 = grid_min_2d_refined(a2, y2, lam, hi=float(np.abs(y2).sum()))
        for name, solve in solvers.items():
            s1 = solve(y1, a1, 0.2, np.zeros((1, 4)))
            s2 = solve(y2[:, None], a2, lam, np.zeros((2, 1)))
            worst_grid[name] = max(worst_grid[name],
                                   float(np.max(np.abs(s1 - ref1))),
                                   float(np.max(np.abs(s2[:, 0] - ref2))))

    ok = (max(worst_nnls.values()) <= 1e-6
          and max(worst_grid.values()) <= 1e-3)
    record_acceptance(2, "sub-solver exactness", ok, ", ".join(
        f"{name}: NNLS gap {worst_nnls[name]:.2e} (<= 1e-6), grid gap "
        f"{worst_grid[name]:.2e} (<= 1e-3)" for name in solvers))
    assert ok


def test_criterion_03_prox_identities(gen):
    x = gen.standard_normal(10_000) * 3.0
    lam = np.abs(gen.standard_normal(10_000))
    prox = prox_nonneg_l1(x, lam)
    soft = soft_threshold(x, lam)
    hard = hard_threshold(x, lam)
    ok = (np.array_equal(prox, np.maximum(soft, 0.0))
          and np.array_equal(prox, np.maximum(x - lam, 0.0))
          and np.array_equal(soft, np.sign(x) * np.maximum(np.abs(x) - lam,
                                                           0.0))
          and np.array_equal(hard, np.where(np.abs(x) > lam, x, 0.0)))
    record_acceptance(3, "thresholding identities", ok,
                      "prox/soft/hard identities exact on 10^4 scalars")
    assert ok


def test_criterion_04_mu_monotonicity():
    worst = -np.inf
    for seed in range(20):
        inst = gen_instance(InstanceSpec(m=20, n=20, r=3, p_S=0.5,
                                         snr_db="noiseless", seed=seed))
        objs = []
        cfg = AlgorithmConfig("mu", rank=3, outer_iterations=500,
                              seed=seed + 100)
        multiplicative_update(
            inst.y, cfg,
            callback=lambda k, a, s: objs.append(
                0.5 * float(np.sum((inst.y - a @ s) ** 2))))
        worst = max(worst, float(np.max(np.diff(objs))))
    record_acceptance(4, "multiplicative-update monotonicity",
                      worst <= 1e-10,
                      f"largest objective increase {worst:.2e} (<= 1e-10)")
    assert worst <= 1e-10


def test_criterion_05_sdr_decomposition_invariants(gen):
    ok = True
    for _ in range(100):
        r = int(gen.integers(2, 7))
        n = 40
        refs = gen.standard_normal((r, n))
        noise = gen.standard_normal((2, n))
        est = refs + 0.5 * gen.standard_normal((r, n))

        d = decompose_bss(est[0], refs, noise, 0)
        parts = [d.target, d.interf, d.noise, d.artifacts]
        ok &= np.allclose(sum(parts), est[0],
                          atol=1e-9 * np.linalg.norm(est[0]))
        for i in range(4):
            for j in range(i + 1, 4):
                bound = 1e-8 * max(np.linalg.norm(parts[i])
                                   * np.linalg.norm(parts[j]), 1e-30)
                ok &= abs(float(parts[i] @ parts[j])) <= bound

        scaled = decompose_bss(3.7 * est[0], refs, noise, 0)
        ok &= abs(sdr(scaled) - sdr(d)) <= 1e-9

        res = pair_sources(est, refs, noise)
        matrix = np.array([
            [np.clip(sdr(decompose_bss(est[i], refs, noise, j)),
                     -SDR_CAP_DB, SDR_CAP_DB) for j in range(r)]
            for i in range(r)])
        _, total = best_assignment(matrix)
        ok &= abs(total - matrix[np.arange(r), res.permutation].sum()) <= 1e-9
    record_acceptance(5, "SDR decomposition invariants", bool(ok),
                      "completeness, orthogonality, scale invariance, "
                      "pairing optimality on 100 instances")
    assert ok


def test_criterion_06_sampler_moments():
    def excess_kurtosis(x):
        return float(np.mean(x ** 4) / np.var(x) ** 2 - 3.0)

    k2 = excess_kurtosis(sample_generalized_gaussian(2.0, 10 ** 6,
                                                     stream("c6", 2.0)))
    k1 = excess_kurtosis(sample_generalized_gaussian(1.0, 10 ** 6,
                                                     stream("c6", 1.0)))
    half = gen_factor(250, 400, 1.0, 2.0, stream("c6", "half"))
    mean_err = abs(float(half.mean()) / np.sqrt(2.0 / np.pi) - 1.0)
    ok = abs(k2) <= 0.1 and abs(k1 - 3.0) <= 0.2 and mean_err <= 0.02
    record_acceptance(6, "sampler moments", ok,
                      f"excess kurtosis alpha=2: {k2:+.3f} (|.|<=0.1), "
                      f"alpha=1: {k1:.3f} (3 +- 0.2), half-normal mean "
                      f"off by {mean_err:.4f} (<= 0.02)")
    assert ok


def test_criterion_07_stability_certificate():
    worst = 0.0
    for seed in range(10):
        inst = gen_instance(InstanceSpec(m=100, n=100, r=10, p_S=0.3,
                                         snr_db=20.0, seed=seed))
        cfg = AlgorithmConfig("ngmca_s", rank=10, seed=seed + 1000)
        captured = {}
        pair = ngmca(inst.y, cfg,
                     callback=lambda k, a, s, lam: captured.update(lam=lam))
        worst = max(worst, stability_move(inst.y, pair, captured["lam"]))
    record_acceptance(7, "stability certificate", worst <= 1e-5,
                      f"max relative move on one extra alternation "
                      f"{worst:.2e} (<= 1e-5) over 10 noisy instances")
    assert worst <= 1e-5


@pytest.mark.slow
def test_criterion_08_desk_scale_ordering():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cells = {}
        for snr in (10.0, 20.0):
            for p_s in (0.1, 0.3):
                cell = {}
                for algo in ("ngmca_s", "als", "mu", "oracle"):
                    means = []
                    for trial in range(24):
                        inst = gen_instance(InstanceSpec(
                            m=100, n=100, r=15, p_S=p_s, snr_db=snr,
                            seed=derive_seed("c8", snr, p_s, trial,
                                             "instance")))
                        cfg = AlgorithmConfig(
                            algo, rank=15,
                            outer_iterations=5000 if algo == "mu" else None,
                            seed=derive_seed("c8", snr, p_s, trial, algo))
                        pair = run_algorithm(
                            inst.y, cfg,
                            a_ref=inst.a_ref if algo == "oracle" else None)
                        means.append(mean_sdr(pair, inst))
                    cell[algo] = float(np.mean(means))
                cells[(snr, p_s)] = cell

    ordering = all(c["ngmca_s"] > c["als"] and c["ngmca_s"] > c["mu"]
                   for c in cells.values())
    near_oracle = all(cells[(snr, 0.1)]["ngmca_s"]
                      >= cells[(snr, 0.1)]["oracle"] - 6.0
                      for snr in (10.0, 20.0))
    ok = ordering and near_oracle
    summary = "; ".join(
        f"snr{int(snr)}/p{int(p_s * 100)}: "
        + " ".join(f"{k}={v:.1f}" for k, v in cell.items())
        for (snr, p_s), cell in cells.items())
    record_acceptance(8, "desk-scale algorithm ordering", ok, summary)
    assert ok


def test_criterion_09_noiseless_regression():
    baseline = json.loads((DATA_DIR / "noiseless_baseline.json").read_text())
    sc = baseline["scenario"]
    means = []
    for seed in sc["seeds"]:
        inst = gen_instance(InstanceSpec(
            m=sc["m"], n=sc["n"], r=sc["r"], p_S=sc["p_S"],
            snr_db=sc["snr_db"], seed=seed))
        cfg = AlgorithmConfig("ngmca_s", rank=sc["r"],
                              tau_final=sc["tau_final"],
                              seed=seed + sc["algorithm_seed_offset"])
        means.append(mean_sdr(ngmca(inst.y, cfg), inst))
    median = float(np.median(means))
    floor = baseline["median_mean_sdr_db"] - 1.0
    record_acceptance(9, "noiseless recovery regression", median >= floor,
                      f"median SDR {median:.2f} dB >= frozen baseline "
                      f"{baseline['median_mean_sdr_db']:.2f} - 1 dB")
    assert median >= floor


@pytest.mark.slow
def test_criterion_10_nmr_pipeline():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scores = {"ngmca_s": [], "ngmca_naive": []}
        for seed in range(12):
            inst = gen_nmr_instance(15, 15.0,
                                    derive_seed("c10", seed, "instance"))
            for algo in scores:
                cfg = AlgorithmConfig(algo, rank=15, tau_final=2.0,
                                      seed=derive_seed("c10", seed, algo))
                scores[algo].append(mean_sdr(run_algorithm(inst.y, cfg),
                                             inst))
    gap = float(np.mean(scores["ngmca_s"]) - np.mean(scores["ngmca_naive"]))
    record_acceptance(10, "NMR pipeline", gap >= 3.0,
                      f"ngmca_s beats ngmca_naive by {gap:.1f} dB (>= 3) "
                      f"over 12 seeds")
    assert gap >= 3.0


def test_criterion_11_campaign_determinism():
    def campaign(workers):
        cfg = BenchmarkConfig(
            grid={"m": [20], "n": [20], "r": [2], "p_S": [0.4],
                  "snr_db": [10.0, 20.0]},
            algorithms=[AlgorithmConfig("als", rank=2, outer_iterations=20),
                        AlgorithmConfig("ngmca_naive", rank=2,
                                        outer_iterations=20)],
            trials_per_cell=2,
            base_seed=11,
        )
        return records_to_csv(run_campaign(cfg, workers=workers)).encode()

    runs = [campaign(1), campaign(1), campaign(4)]
    ok = runs[0] == runs[1] == runs[2]
    record_acceptance(11, "campaign determinism", ok,
                      "results CSV byte-identical across reruns and "
                      "worker counts {1, 4}")
    assert ok


@pytest.mark.slow
def test_soft_variant_beats_als_at_moderate_noise():
    """Desk-scale check at 15 dB / 30% activation, 24 seeds."""
    scores = {"ngmca_s": [], "als": []}
    for seed in range(24):
        inst = gen_instance(InstanceSpec(m=100, n=100, r=15, p_S=0.3,
                                         snr_db=15.0,
                                         seed=derive_seed("ex", seed)))
        for algo in scores:
            cfg = AlgorithmConfig(algo, rank=15,
                                  seed=derive_seed("ex", seed, algo))
            scores[algo].append(mean_sdr(run_algorithm(inst.y, cfg), inst))
    assert np.mean(scores["ngmca_s"]) > np.mean(scores["als"])
