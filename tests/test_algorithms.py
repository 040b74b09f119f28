import warnings

import numpy as np
import pytest

from ngmca import algorithms, subsolvers
from ngmca.algorithms import (ALGORITHM_IDS, DEFAULT_ITERATIONS,
                              AlgorithmConfig, FactorPair, _decay_length,
                              _SourceReviver, als, hals_sparse, initialize,
                              multiplicative_update, ngmca, ngmca_naive,
                              oracle_solve, run_algorithm, stability_move)
from ngmca.datagen import InstanceSpec, gen_instance
from ngmca.errors import NonConvergenceWarning, RankCollapseWarning
from ngmca.linops import (least_squares_solve_A, least_squares_solve_S,
                          nonneg_project)
from ngmca.metrics import pair_sources
from ngmca.priors import soft_threshold
from ngmca.subsolvers import fista_update_S
from oracles import objective


def tiny_instance(gen, m=8, n=10, r=2):
    a = gen.random((m, r))
    s = gen.random((r, n)) * (gen.random((r, n)) < 0.4)
    s[:, :r] = np.eye(r)  # keep both sources alive
    return a, s, a @ s


class TestInitialize:
    def test_deterministic(self):
        y = np.ones((6, 7))
        p1, p2 = initialize(y, 3, 11), initialize(y, 3, 11)
        np.testing.assert_array_equal(p1.a, p2.a)
        np.testing.assert_array_equal(p1.s, p2.s)

    def test_seed_changes_draw(self):
        y = np.ones((6, 7))
        assert not np.array_equal(initialize(y, 3, 1).a,
                                  initialize(y, 3, 2).a)

    def test_nonnegative(self):
        pair = initialize(np.ones((5, 5)), 2, 0)
        assert (pair.a >= 0).all() and (pair.s >= 0).all()

    def test_half_normal_mean(self):
        pair = initialize(np.ones((250, 250)), 200, 3)
        entries = np.concatenate([pair.a.ravel(), pair.s.ravel()])
        assert entries.size >= 10**5
        assert entries.mean() == pytest.approx(np.sqrt(2 / np.pi), rel=0.02)


class TestNgmcaNaive:
    def test_forward_constructed_instance(self, gen):
        a, s, y = tiny_instance(gen, 4, 4, 2)
        cfg = AlgorithmConfig("ngmca_naive", rank=2, outer_iterations=200,
                              tau_final=0.0, seed=5)
        pair = ngmca_naive(y, cfg)
        assert np.linalg.norm(y - pair.a @ pair.s) <= 1e-3 * np.linalg.norm(y)

    def test_rank_one_recovery(self, gen):
        a = gen.random((12, 1)) + 0.1
        s = (gen.random((1, 15)) * (gen.random((1, 15)) < 0.5)) + 0.05
        y = a @ s
        cfg = AlgorithmConfig("ngmca_naive", rank=1, tau_final=0.0, seed=2)
        pair = ngmca_naive(y, cfg)
        res = pair_sources(pair.s, s, np.zeros_like(y))
        assert res.mean_sdr_db >= 60.0

    def test_objective_oscillates_on_dense_high_rank(self, gen):
        spec = InstanceSpec(m=100, n=100, r=40, p_S=0.8, snr_db="noiseless",
                            seed=1)
        inst = gen_instance(spec)
        objs = []
        cfg = AlgorithmConfig("ngmca_naive", rank=40, outer_iterations=60,
                              seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankCollapseWarning)
            ngmca_naive(inst.y, cfg,
                        callback=lambda k, a, s: objs.append(
                            objective(inst.y, a, s)))
        assert any(b > a for a, b in zip(objs, objs[1:]))


class TestNgmca:
    def test_nonnegative_output_both_modes(self, gen):
        inst = gen_instance(InstanceSpec(m=30, n=30, r=3, p_S=0.3,
                                         snr_db=20.0, seed=4))
        for algo in ("ngmca_s", "ngmca_h"):
            cfg = AlgorithmConfig(algo, rank=3, outer_iterations=80, seed=4)
            pair = ngmca(inst.y, cfg)
            assert (pair.a >= 0).all() and (pair.s >= 0).all()

    def test_algorithm_id_picks_the_threshold(self, monkeypatch):
        inst = gen_instance(InstanceSpec(m=30, n=30, r=3, p_S=0.3,
                                         snr_db=20.0, seed=4))
        fista = algorithms.fista_update_S
        modes, pairs = {}, {}

        def spy(*args, hard=False, **kwargs):
            modes.setdefault(algo, set()).add(hard)
            return fista(*args, hard=hard, **kwargs)

        monkeypatch.setattr(algorithms, "fista_update_S", spy)
        for algo in ("ngmca_s", "ngmca_h"):
            cfg = AlgorithmConfig(algo, rank=3, outer_iterations=80, seed=4)
            pairs[algo] = ngmca(inst.y, cfg)
        assert modes == {"ngmca_s": {False}, "ngmca_h": {True}}
        assert not np.array_equal(pairs["ngmca_s"].s, pairs["ngmca_h"].s)

    def test_phase_routing(self, monkeypatch):
        # the scheduled alternations stay FISTA: exact solves there change
        # the decay path and lowered the SDR; the fixed-lambda phases
        # (polish, stability_move, oracle) solve their blocks exactly
        inst = gen_instance(InstanceSpec(m=30, n=30, r=3, p_S=0.3,
                                         snr_db=20.0, seed=4))
        calls = []

        def spying(name, solve):
            def spy(*args, **kwargs):
                calls.append(name)
                return solve(*args, **kwargs)
            return spy

        for name in ("fista_update_S", "fista_update_A", "exact_update_S",
                     "exact_update_A"):
            monkeypatch.setattr(algorithms, name,
                                spying(name, getattr(algorithms, name)))
        scheduled = ["fista_update_S", "fista_update_A"] * 80
        exact = {"exact_update_S", "exact_update_A"}
        for algo in ("ngmca_h", "ngmca_s"):
            calls.clear()
            marks = []
            cfg = AlgorithmConfig(algo, rank=3, outer_iterations=80, seed=4)
            pair = ngmca(inst.y, cfg, callback=lambda k, a, s, lam:
                         marks.append((len(calls), lam)))
            end, lam = marks[-1]
            assert len(marks) == 80 and calls[:end] == scheduled
            polish = calls[end:]
            assert (set(polish) == exact) if algo == "ngmca_s" else not polish

        calls.clear()
        stability_move(inst.y, pair, lam)
        assert calls == ["exact_update_S", "exact_update_A"]
        calls.clear()
        oracle_solve(inst.y, inst.a_ref, tau_final=1.0)
        assert calls == ["exact_update_S"]

    def test_lambda_zero_fixed_mixing_reduces_to_nnls(self, gen, monkeypatch):
        inst = gen_instance(InstanceSpec(m=20, n=25, r=3, p_S=0.3,
                                         snr_db=30.0, seed=6))
        s_oracle = oracle_solve(inst.y, inst.a_ref, tau_final=0.0)
        monkeypatch.setattr(subsolvers, "FISTA_ITERATIONS", 2000)
        monkeypatch.setattr(subsolvers, "FISTA_TOL", 1e-10)
        s_direct = fista_update_S(inst.y, inst.a_ref, 0.0,
                                  np.zeros_like(inst.s_ref))
        np.testing.assert_allclose(s_oracle, s_direct, atol=1e-8)

    def test_refinement_phase_objective_non_increasing(self):
        inst = gen_instance(InstanceSpec(m=50, n=50, r=5, p_S=0.2,
                                         snr_db=20.0, seed=3))
        objs = []

        def cb(k, a, s, lam):
            resid = inst.y - a @ s
            objs.append((k, 0.5 * np.sum(resid**2)
                         + np.sum(lam[:, None] * np.abs(s))))

        cfg = AlgorithmConfig("ngmca_s", rank=5, seed=9)
        ngmca(inst.y, cfg, callback=cb)
        decay = _decay_length(cfg.resolved_iterations())
        ref = [v for k, v in objs if k > decay]
        # non-increasing up to the inner solver's stopping noise
        assert all(b <= a * (1 + 1e-4) for a, b in zip(ref, ref[1:]))

    def test_stability_certificate_single_instance(self):
        inst = gen_instance(InstanceSpec(m=40, n=40, r=4, p_S=0.3,
                                         snr_db=20.0, seed=12))
        cfg = AlgorithmConfig("ngmca_s", rank=4, seed=13)
        captured = {}
        pair = ngmca(inst.y, cfg,
                     callback=lambda k, a, s, lam: captured.update(lam=lam))
        assert stability_move(inst.y, pair, captured["lam"]) <= 1e-5

    def test_polish_cap_warns(self, monkeypatch):
        inst = gen_instance(InstanceSpec(m=25, n=25, r=3, p_S=0.3,
                                         snr_db=20.0, seed=8))
        cfg = AlgorithmConfig("ngmca_s", rank=3, outer_iterations=20, seed=1)
        monkeypatch.setattr(algorithms, "POLISH_CAP", 1)
        with pytest.warns(NonConvergenceWarning, match="1 alternations"):
            ngmca(inst.y, cfg)

    def test_deterministic(self):
        inst = gen_instance(InstanceSpec(m=25, n=25, r=3, p_S=0.3,
                                         snr_db=20.0, seed=8))
        cfg = AlgorithmConfig("ngmca_s", rank=3, outer_iterations=60, seed=1)
        p1, p2 = ngmca(inst.y, cfg), ngmca(inst.y, cfg)
        np.testing.assert_array_equal(p1.a, p2.a)
        np.testing.assert_array_equal(p1.s, p2.s)


class TestAls:
    def test_rank_one_exact(self, gen):
        a = gen.random((10, 1)) + 0.1
        s = gen.random((1, 12)) + 0.1
        y = a @ s
        cfg = AlgorithmConfig("als", rank=1, outer_iterations=50, seed=0)
        pair = als(y, cfg)
        assert np.linalg.norm(y - pair.a @ pair.s) <= 1e-6

    def test_one_iteration_step_equivalence(self, gen):
        inst = gen_instance(InstanceSpec(m=15, n=18, r=3, p_S=0.4,
                                         snr_db=20.0, seed=2))
        cfg = AlgorithmConfig("als", rank=3, outer_iterations=1, seed=21)
        pair = als(inst.y, cfg)
        start = initialize(inst.y, 3, 21)
        c = np.sqrt(np.linalg.norm(inst.y)
                    / np.linalg.norm(start.a @ start.s))
        s0 = c * start.s
        a1 = nonneg_project(least_squares_solve_A(s0, inst.y))
        s1 = nonneg_project(least_squares_solve_S(a1, inst.y))
        np.testing.assert_allclose(pair.a, a1, atol=1e-12)
        np.testing.assert_allclose(pair.s, s1, atol=1e-12)

    def test_objective_may_increase(self):
        # projection after the exact solve can undo progress; find a seed
        # exhibiting an increase to document non-monotonicity
        found = False
        for seed in range(20):
            inst = gen_instance(InstanceSpec(m=20, n=20, r=5, p_S=0.6,
                                             snr_db=10.0, seed=seed))
            objs = []
            cfg = AlgorithmConfig("als", rank=5, outer_iterations=40,
                                  seed=seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RankCollapseWarning)
                als(inst.y, cfg, callback=lambda k, a, s: objs.append(
                    objective(inst.y, a, s)))
            if any(b > a + 1e-12 for a, b in zip(objs, objs[1:])):
                found = True
                break
        assert found


class TestMultiplicativeUpdate:
    def test_fixed_point(self, gen):
        a = gen.random((6, 2)) + 0.5
        s = gen.random((2, 7)) + 0.5
        y = a @ s
        a1 = a * (y @ s.T) / (a @ (s @ s.T))
        s1 = s * (a1.T @ y) / ((a1.T @ a1) @ s)
        np.testing.assert_allclose(a1, a, atol=1e-12)
        np.testing.assert_allclose(s1, s, atol=1e-12)

    def test_monotone_decrease(self, gen):
        y = gen.random((20, 20))
        cfg = AlgorithmConfig("mu", rank=3, outer_iterations=500, seed=7)
        objs = []
        multiplicative_update(y, cfg, callback=lambda k, a, s: objs.append(
            objective(y, a, s)))
        assert all(b <= a + 1e-10 for a, b in zip(objs, objs[1:]))

    def test_zero_lock_in(self, gen):
        # entries that start at zero stay zero under multiplicative updates
        y = gen.random((6, 6))
        a = gen.random((6, 2))
        a[2, 0] = 0.0
        s = gen.random((2, 6))
        for _ in range(10):
            a = a * (y @ s.T) / (a @ (s @ s.T))
            s = s * (a.T @ y) / ((a.T @ a) @ s)
        assert a[2, 0] == 0.0

    def test_nonnegative_on_noisy_data(self):
        inst = gen_instance(InstanceSpec(m=20, n=20, r=3, p_S=0.3,
                                         snr_db=10.0, seed=5))
        cfg = AlgorithmConfig("mu", rank=3, outer_iterations=200, seed=5)
        pair = multiplicative_update(inst.y, cfg)
        assert (pair.a >= 0).all() and (pair.s >= 0).all()
        assert np.isfinite(pair.a).all() and np.isfinite(pair.s).all()

    @staticmethod
    def underflowing_run(callback):
        # without the flush, 8 S entries of this run are subnormal at k=1000
        inst = gen_instance(InstanceSpec(m=100, n=100, r=15, p_S=0.1,
                                         snr_db=20.0, seed=5))
        cfg = AlgorithmConfig("mu", rank=15, outer_iterations=1000, seed=3)
        multiplicative_update(inst.y, cfg, callback=callback)

    def test_no_subnormal_entries(self):
        tiny = np.finfo(float).tiny
        subnormal = []

        def count(k, a, s):
            subnormal.append(int(((a > 0) & (a < tiny)).sum()
                                 + ((s > 0) & (s < tiny)).sum()))

        self.underflowing_run(count)
        assert len(subnormal) == 1000 and max(subnormal) == 0

    def test_flushed_entries_stay_zero(self):
        zero = {}
        flushed = []

        def check(k, a, s):
            for name, x in (("a", a), ("s", s)):
                assert (x >= 0).all()
                if name in zero:
                    assert (x[zero[name]] == 0).all()
                    flushed.append(int((~zero[name] & (x == 0)).sum()))
                zero[name] = x == 0

        self.underflowing_run(check)
        assert sum(flushed) > 0


class TestHalsSparse:
    def test_exact_rank_two_residual(self, gen):
        a, s, y = tiny_instance(gen, 10, 12, 2)
        cfg = AlgorithmConfig("hals_sparse", rank=2, outer_iterations=2000,
                              sparsity_target=0.0, seed=3)
        pair = hals_sparse(y, cfg)
        assert np.linalg.norm(y - pair.a @ pair.s) <= 1e-6

    @pytest.mark.parametrize("target", [0.2, 0.6, 0.9])
    def test_sparsity_target_hit(self, target):
        inst = gen_instance(InstanceSpec(m=40, n=40, r=4, p_S=0.3,
                                         snr_db=20.0, seed=9))
        y = nonneg_project(inst.y)
        cfg = AlgorithmConfig("hals_sparse", rank=4, outer_iterations=500,
                              sparsity_target=target, seed=9)
        pair = hals_sparse(y, cfg)
        top = pair.s.max()
        rate = float(np.mean(pair.s < 1e-6 * top))
        # within one entry of S
        assert rate == pytest.approx(target, abs=1.0 / pair.s.size)


class TestOracle:
    def test_noiseless_recovers_reference(self, gen):
        inst = gen_instance(InstanceSpec(m=20, n=25, r=3, p_S=0.3,
                                         snr_db="noiseless", seed=14))
        s = oracle_solve(inst.y, inst.a_ref, tau_final=0.0)
        np.testing.assert_allclose(s, inst.s_ref, atol=1e-5)

    def test_identity_mixing_closed_form(self, gen):
        y = gen.standard_normal((5, 8))
        lam = 1.0 * np.median(np.abs(
            -y - np.median(-y, axis=1, keepdims=True)), axis=1) \
            / 0.6744897501960817
        s = oracle_solve(y, np.eye(5), tau_final=1.0)
        np.testing.assert_allclose(
            s, np.maximum(soft_threshold(y, lam[:, None]), 0.0), atol=1e-8)


class TestSharedInvariants:
    @pytest.mark.parametrize("algo", [a for a in ALGORITHM_IDS
                                      if a != "oracle"])
    def test_every_algorithm_nonnegative_output(self, algo):
        inst = gen_instance(InstanceSpec(m=20, n=20, r=2, p_S=0.4,
                                         snr_db=20.0, seed=3))
        y = nonneg_project(inst.y)
        cfg = AlgorithmConfig(algo, rank=2, outer_iterations=30, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankCollapseWarning)
            pair = run_algorithm(y, cfg)
        assert (pair.a >= 0).all() and (pair.s >= 0).all()

    def test_scale_permutation_indeterminacy(self, gen):
        inst = gen_instance(InstanceSpec(m=20, n=20, r=3, p_S=0.4,
                                         snr_db=20.0, seed=3))
        cfg = AlgorithmConfig("als", rank=3, outer_iterations=30, seed=3)
        pair = run_algorithm(inst.y, cfg)
        perm = np.array([2, 0, 1])
        delta = np.diag([0.5, 2.0, 3.0])
        p = np.eye(3)[:, perm]
        a2 = pair.a @ delta @ p
        s2 = p.T @ np.diag(1 / np.diag(delta)) @ pair.s
        assert np.linalg.norm(a2 @ s2 - pair.a @ pair.s) <= 1e-12 \
            * max(1.0, np.linalg.norm(pair.a @ pair.s))

    def test_default_iteration_counts(self):
        assert DEFAULT_ITERATIONS["ngmca_s"] == 500
        assert DEFAULT_ITERATIONS["als"] == 500
        assert DEFAULT_ITERATIONS["mu"] == 40000
        assert DEFAULT_ITERATIONS["hals_sparse"] == 5000

    @pytest.mark.parametrize("algo", ALGORITHM_IDS)
    def test_dispatch_reaches_the_algorithm(self, algo, monkeypatch):
        entry = {"ngmca_naive": "ngmca_naive", "ngmca_s": "ngmca",
                 "ngmca_h": "ngmca", "als": "als",
                 "mu": "multiplicative_update", "hals_sparse": "hals_sparse",
                 "oracle": "oracle_solve"}
        reached = []
        for name in set(entry.values()):
            monkeypatch.setattr(algorithms, name, lambda *args, name=name,
                                **kwargs: reached.append(name))
        y = np.ones((4, 4))
        run_algorithm(y, AlgorithmConfig(algo, rank=2), a_ref=np.ones((4, 2)))
        assert reached == [entry[algo]]

    def test_run_algorithm_oracle_needs_mixing(self):
        with pytest.raises(ValueError):
            run_algorithm(np.ones((4, 4)),
                          AlgorithmConfig("oracle", rank=2, seed=0))

    def test_unknown_algorithm_id_rejected(self):
        with pytest.raises(ValueError):
            AlgorithmConfig("newton", rank=2, seed=0)

    @pytest.mark.parametrize("iterations", [0, -5])
    def test_non_positive_iterations_rejected(self, iterations):
        for algo in ALGORITHM_IDS:
            with pytest.raises(ValueError, match="outer_iterations"):
                AlgorithmConfig(algo, rank=2, outer_iterations=iterations)

    @pytest.mark.parametrize("field", ["rank", "outer_iterations"])
    @pytest.mark.parametrize("value", [30.0, 2.5, True, "3"])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            AlgorithmConfig("als", **{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = AlgorithmConfig("als", rank=np.int64(3),
                              outer_iterations=np.int32(7))
        assert cfg.resolved_iterations() == 7
        assert type(cfg.rank) is int and type(cfg.outer_iterations) is int

    @pytest.mark.parametrize("seed", [1.0, True, "1", None])
    def test_non_integer_seed_rejected(self, seed):
        # streams hash the seed's repr: 1.0 or True would draw other
        # numbers than 1
        with pytest.raises(ValueError, match="seed"):
            AlgorithmConfig("als", seed=seed)

    def test_numpy_integer_seed_is_stored_as_int(self):
        cfg = AlgorithmConfig("als", rank=2, outer_iterations=5,
                              seed=np.int64(1))
        assert type(cfg.seed) is int
        y = np.abs(np.random.default_rng(0).standard_normal((6, 7)))
        pair = run_algorithm(y, cfg)
        plain = run_algorithm(y, AlgorithmConfig("als", rank=2,
                                                 outer_iterations=5, seed=1))
        np.testing.assert_array_equal(pair.s, plain.s)

    def test_negative_tau_final_rejected(self):
        with pytest.raises(ValueError, match="tau_final"):
            AlgorithmConfig("ngmca_s", rank=2, tau_final=-1.0)
        # no noise floor (criterion 9) and the per-algorithm default stay valid
        cfg = AlgorithmConfig("ngmca_s", rank=2, tau_final=0.0,
                              outer_iterations=None)
        assert cfg.resolved_iterations() == DEFAULT_ITERATIONS["ngmca_s"]


class TestSourceReviver:
    def test_revives_fully_dead_source(self):
        a = np.ones((4, 2))
        s = np.ones((2, 5))
        a[:, 1] = 0.0
        s[1, :] = 0.0
        _SourceReviver(seed=0, r=2).revive(a, s)
        assert a[:, 1].any() and s[1, :].any()

    def test_one_sided_zero_left_alone(self):
        a = np.ones((4, 2))
        s = np.ones((2, 5))
        s[1, :] = 0.0  # column of A still alive: next solve can recover
        _SourceReviver(seed=0, r=2).revive(a, s)
        assert not s[1, :].any()

    def test_budget_then_warning(self):
        reviver = _SourceReviver(seed=0, r=1)
        for _ in range(3):
            a, s = np.zeros((3, 1)), np.zeros((1, 4))
            reviver.revive(a, s)
            assert a.any()
        with pytest.warns(RankCollapseWarning):
            reviver.revive(np.zeros((3, 1)), np.zeros((1, 4)))
