import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ngmca.linops import nonneg_project
from ngmca.priors import (hard_threshold, mad_sigma_rows,
                          naive_threshold_select, ngmca_lambda_init,
                          ngmca_lambda_next, prox_nonneg_l1, soft_threshold)
from oracles import mad_sigma

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
lam_st = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


class TestSoftThreshold:
    def test_above(self):
        assert soft_threshold(3.0, 1.0) == 2.0

    def test_below(self):
        assert soft_threshold(-0.5, 1.0) == 0.0

    def test_lambda_zero_identity(self, gen):
        x = gen.standard_normal(20)
        np.testing.assert_array_equal(soft_threshold(x, 0.0), x)

    @given(finite, lam_st)
    def test_odd(self, x, lam):
        assert soft_threshold(-x, lam) == -soft_threshold(x, lam)

    @given(finite, finite, lam_st)
    @example(x=3.0, y=524290.0, lam=1.808)
    def test_one_lipschitz(self, x, y, lam):
        # each side rounds a few times at the scale of the largest operand
        slack = 4 * np.spacing(max(abs(x), abs(y), lam))
        assert abs(soft_threshold(x, lam) - soft_threshold(y, lam)) \
            <= abs(x - y) + slack

    def test_ratio_amplification(self, gen):
        # thresholding two positive values increases their ratio
        x1, x2, lam = 0.5, 2.0, 0.3
        y1, y2 = soft_threshold(x1, lam), soft_threshold(x2, lam)
        assert y2 / y1 > x2 / x1


class TestHardThreshold:
    def test_below(self):
        assert hard_threshold(0.5, 1.0) == 0.0

    def test_above_unbiased(self):
        assert hard_threshold(1.5, 1.0) == 1.5

    def test_boundary_kept(self):
        assert hard_threshold(1.0, 1.0) == 1.0

    @given(finite, lam_st)
    def test_dominates_soft(self, x, lam):
        assert abs(hard_threshold(x, lam)) >= abs(soft_threshold(x, lam))


class TestProxNonnegL1:
    def test_negative_clipped(self):
        assert prox_nonneg_l1(-2.0, 1.0) == 0.0

    def test_positive_shifted(self):
        assert prox_nonneg_l1(3.0, 1.0) == 2.0

    @given(finite, lam_st)
    def test_equals_projected_soft(self, x, lam):
        assert prox_nonneg_l1(x, lam) == max(x - lam, 0.0)
        assert prox_nonneg_l1(x, lam) == nonneg_project(
            np.asarray(soft_threshold(x, lam)))

    def test_grid_search_oracle(self, gen):
        ys = np.linspace(0.0, 5.0, 200001)
        for x in gen.standard_normal(10) * 3:
            for lam in (0.1, 1.0):
                vals = 0.5 * (ys - x) ** 2 + lam * np.abs(ys)
                best = ys[np.argmin(vals)]
                assert prox_nonneg_l1(x, lam) == pytest.approx(best, abs=1e-4)


class TestMadSigma:
    @staticmethod
    def one_row(v):
        return mad_sigma_rows(v[None, :])[0]

    def test_odd_length_median(self):
        v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert self.one_row(v) == pytest.approx(1 / 0.6745, rel=1e-4)

    def test_constant_vector(self):
        assert self.one_row(np.full(7, 3.3)) == 0.0

    def test_gaussian_consistency(self, gen):
        v = gen.standard_normal(10**6)
        assert self.one_row(v) == pytest.approx(1.0, rel=0.02)

    def test_scale_equivariance(self, gen):
        v = gen.standard_normal(101)
        assert self.one_row(3.0 * v) == pytest.approx(3.0 * self.one_row(v))

    def test_rows_match_scalar(self, gen):
        m = gen.standard_normal((4, 50))
        rows = mad_sigma_rows(m)
        for i in range(4):
            assert rows[i] == pytest.approx(mad_sigma(m[i]))


class TestNaiveThresholdSelect:
    def test_final_step_is_floor(self, gen):
        s_all = gen.standard_normal((3, 40))
        lam = naive_threshold_select(s_all, 10, 10, tau_final=1.5)
        np.testing.assert_allclose(lam, 1.5 * mad_sigma_rows(s_all))

    def test_tau_zero_final_step(self, gen):
        s_all = gen.standard_normal((3, 40))
        lam = naive_threshold_select(s_all, 10, 10, tau_final=0.0)
        np.testing.assert_array_equal(lam, 0.0)

    def test_linear_active_count_on_sorted_row(self):
        row = np.arange(10.0, 0.0, -1.0)[None, :]
        for k in range(1, 11):
            lam = naive_threshold_select(row, k, 10, tau_final=0.0)
            active = int((np.abs(row) > lam[0]).sum())
            assert abs(active - k) <= 1

    def test_row_without_candidates_gets_the_floor(self, gen):
        # a zero row, and a row entirely below a high noise floor
        s_all = np.vstack([np.zeros(8), gen.standard_normal(8)])
        floor = 100.0 * mad_sigma_rows(s_all)
        for k in (1, 5, 10):
            np.testing.assert_array_equal(
                naive_threshold_select(s_all, k, 10, tau_final=100.0), floor)

    def test_never_below_floor(self, gen):
        s_all = gen.standard_normal((5, 60))
        floor = 1.0 * mad_sigma_rows(s_all)
        for k in (1, 3, 7):
            lam = naive_threshold_select(s_all, k, 10, tau_final=1.0)
            assert (lam >= floor - 1e-12).all()


class TestLambdaSchedule:
    def test_init_stationary_point(self, gen):
        a = gen.random((6, 3)) + 0.1
        y = gen.standard_normal((6, 8))
        s_star = np.linalg.lstsq(a, y, rcond=None)[0]
        assert ngmca_lambda_init(a, s_star, y) == pytest.approx(0.0, abs=1e-9)

    def test_init_identity_mixing(self, gen):
        y = gen.standard_normal((4, 5))
        assert ngmca_lambda_init(np.eye(4), np.zeros((4, 5)), y) \
            == np.abs(y).max()

    def test_init_brute_force(self, gen):
        a = gen.random((5, 3))
        s = gen.random((3, 7))
        y = gen.standard_normal((5, 7))
        assert ngmca_lambda_init(a, s, y) == np.abs(a.T @ (a @ s - y)).max()

    def test_next_endpoints_and_midpoint(self):
        lam_final = np.array([0.5, 1.0])
        np.testing.assert_allclose(ngmca_lambda_next(10.0, lam_final, 10, 10),
                                   lam_final)
        np.testing.assert_allclose(ngmca_lambda_next(10.0, lam_final, 0, 10),
                                   [10.0, 10.0])
        np.testing.assert_allclose(ngmca_lambda_next(10.0, lam_final, 5, 10),
                                   (10.0 + lam_final) / 2)

    def test_next_non_increasing(self):
        lam_final = np.array([0.2])
        vals = [ngmca_lambda_next(5.0, lam_final, k, 8)[0] for k in range(9)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
