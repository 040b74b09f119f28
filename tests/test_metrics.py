import numpy as np
import pytest

from ngmca.errors import DegenerateSpanError, SingularMatrixError
from ngmca.metrics import (SDR_CAP_DB, cap_sdr, condition_number,
                           decompose_bss, pair_sources, sdr)
from oracles import best_assignment, measure_snr


def gram_projection(basis, v):
    """Normal-equations projection oracle onto the row space of basis."""
    g = basis @ basis.T
    coef = np.linalg.solve(g, basis @ v)
    return basis.T @ coef


def random_case(gen, r=3, k=2, n=40):
    refs = gen.standard_normal((r, n))
    noise = gen.standard_normal((k, n))
    est = gen.standard_normal(n)
    return est, refs, noise


class TestDecomposeBss:
    def test_perfect_recovery(self, gen):
        refs = gen.standard_normal((3, 30))
        noise = gen.standard_normal((2, 30))
        d = decompose_bss(refs[1].copy(), refs, noise, paired_index=1)
        np.testing.assert_allclose(d.interf, 0.0, atol=1e-10)
        np.testing.assert_allclose(d.noise, 0.0, atol=1e-10)
        np.testing.assert_allclose(d.artifacts, 0.0, atol=1e-10)

    def test_orthogonal_estimate_is_all_artifacts(self):
        refs = np.eye(3, 10)
        noise = np.eye(4, 10)[3:]
        est = np.zeros(10)
        est[9] = 2.0
        d = decompose_bss(est, refs, noise, 0)
        np.testing.assert_allclose(d.target, 0.0, atol=1e-12)
        np.testing.assert_allclose(d.interf, 0.0, atol=1e-12)
        np.testing.assert_allclose(d.noise, 0.0, atol=1e-12)
        np.testing.assert_allclose(d.artifacts, est, atol=1e-12)

    def test_components_match_gram_oracle(self, gen):
        for _ in range(10):
            est, refs, noise = random_case(gen)
            d = decompose_bss(est, refs, noise, 0)
            t = gram_projection(refs[:1], est)
            p_refs = gram_projection(refs, est)
            p_full = gram_projection(np.vstack([refs, noise]), est)
            np.testing.assert_allclose(d.target, t, atol=1e-8)
            np.testing.assert_allclose(d.interf, p_refs - t, atol=1e-8)
            np.testing.assert_allclose(d.noise, p_full - p_refs, atol=1e-8)
            np.testing.assert_allclose(d.artifacts, est - p_full, atol=1e-8)

    def test_completeness_and_orthogonality(self, gen):
        est, refs, noise = random_case(gen)
        d = decompose_bss(est, refs, noise, 2)
        total = d.target + d.interf + d.noise + d.artifacts
        np.testing.assert_allclose(total, est,
                                   atol=1e-9 * np.linalg.norm(est))
        comps = [d.target, d.interf, d.noise, d.artifacts]
        scale = np.linalg.norm(est) ** 2
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(comps[i] @ comps[j]) <= 1e-8 * scale

    def test_target_collinear_with_reference(self, gen):
        est, refs, noise = random_case(gen)
        d = decompose_bss(est, refs, noise, 1)
        cross = np.outer(d.target, refs[1]) - np.outer(refs[1], d.target)
        assert np.abs(cross - cross.T).max() <= 1e-16 or \
            np.linalg.matrix_rank(np.vstack([d.target, refs[1]]),
                                  tol=1e-8) == 1

    def test_degenerate_references_raise(self):
        refs = np.ones((2, 10))  # rank deficient
        with pytest.raises(DegenerateSpanError):
            decompose_bss(np.ones(10), refs, np.zeros((0, 10)), 0)


class TestSdr:
    def test_perfect_recovery_capped(self, gen):
        refs = gen.standard_normal((2, 20))
        d = decompose_bss(refs[0].copy(), refs, np.zeros((0, 20)), 0)
        assert sdr(d) == np.inf
        assert cap_sdr(sdr(d)) == SDR_CAP_DB

    def test_equal_energy_zero_db(self):
        refs = np.eye(2, 10)
        est = refs[0] + np.eye(3, 10)[2]  # unit target + unit artifact
        d = decompose_bss(est, refs, np.zeros((0, 10)), 0)
        assert sdr(d) == pytest.approx(0.0, abs=1e-9)

    def test_scale_invariance(self, gen):
        est, refs, noise = random_case(gen)
        d1 = decompose_bss(est, refs, noise, 0)
        d2 = decompose_bss(3.7 * est, refs, noise, 0)
        assert sdr(d1) == pytest.approx(sdr(d2), abs=1e-9)

    def test_zero_target_minus_inf(self):
        refs = np.eye(2, 10)
        est = np.eye(3, 10)[2]
        d = decompose_bss(est, refs, np.zeros((0, 10)), 0)
        assert sdr(d) == -np.inf
        assert cap_sdr(sdr(d)) == -SDR_CAP_DB


class TestPairSources:
    def test_permuted_reference_recovered(self, gen):
        refs = gen.standard_normal((4, 30))
        perm = np.array([2, 0, 3, 1])
        res = pair_sources(refs[perm], refs, np.zeros((0, 30)))
        np.testing.assert_array_equal(res.permutation, perm)
        assert (res.per_source_sdr_db == np.inf).all()
        assert res.mean_sdr_db == SDR_CAP_DB

    def test_matches_enumeration_oracle(self, gen):
        for r in (3, 5):
            refs = gen.standard_normal((r, 40))
            est = gen.standard_normal((r, 40)) + refs
            noise = gen.standard_normal((2, 40))
            res = pair_sources(est, refs, noise)
            matrix = np.array([
                [np.clip(sdr(decompose_bss(est[i], refs, noise, j)),
                         -SDR_CAP_DB, SDR_CAP_DB) for j in range(r)]
                for i in range(r)])
            perm, total = best_assignment(matrix)
            assert total == pytest.approx(
                matrix[np.arange(r), res.permutation].sum(), abs=1e-9)
            np.testing.assert_allclose(
                res.per_source_sdr_db, matrix[np.arange(r), res.permutation],
                rtol=0.0, atol=1e-9)

    def test_degenerate_references_raise(self):
        with pytest.raises(DegenerateSpanError):
            pair_sources(np.eye(2, 10), np.ones((2, 10)), np.zeros((0, 10)))

    def test_row_swap_invariance(self, gen):
        refs = gen.standard_normal((3, 25))
        est = refs + 0.3 * gen.standard_normal((3, 25))
        base = pair_sources(est, refs, np.zeros((0, 25)))
        swapped = pair_sources(est[[1, 0, 2]], refs, np.zeros((0, 25)))
        assert base.mean_sdr_db == pytest.approx(swapped.mean_sdr_db,
                                                 abs=1e-12)

    def test_permutation_is_bijection(self, gen):
        refs = gen.standard_normal((5, 30))
        est = gen.standard_normal((5, 30))
        res = pair_sources(est, refs, np.zeros((0, 30)))
        assert sorted(res.permutation) == list(range(5))


class TestConditionAndSnr:
    def test_identity(self):
        assert condition_number(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert condition_number(np.diag([10.0, 1.0])) == pytest.approx(10.0)

    def test_svd_oracle(self, gen):
        a = gen.standard_normal((8, 5))
        sv = np.linalg.svd(a, compute_uv=False)
        assert condition_number(a) == pytest.approx(sv[0] / sv[-1],
                                                    rel=1e-8)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            condition_number(np.ones((3, 2)))

    def test_measure_snr_log_law(self, gen):
        x = gen.random((10, 10)) + 0.5
        z = gen.standard_normal((10, 10))
        z *= np.linalg.norm(x) / np.linalg.norm(z)
        assert measure_snr(x + z, x) == pytest.approx(0.0, abs=1e-9)
        assert measure_snr(x + z / 10, x) == pytest.approx(20.0, abs=1e-9)

    def test_zero_noise_inf(self, gen):
        x = gen.random((5, 5))
        assert measure_snr(x, x) == np.inf
