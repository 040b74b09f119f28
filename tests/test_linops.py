import numpy as np
import pytest

from ngmca.errors import NonConvergenceError
from ngmca.linops import (COND_CAP, _gram_condition,
                          least_squares_solve_A, least_squares_solve_S,
                          nonneg_project, normalize_columns, spectral_norm)


class TestNonnegProject:
    def test_sign_cases(self):
        m = np.array([[-1.0, 2.0], [0.0, -3.0]])
        np.testing.assert_array_equal(nonneg_project(m),
                                      [[0.0, 2.0], [0.0, 0.0]])

    def test_nonnegative_input_unchanged(self, gen):
        m = gen.random((4, 5))
        np.testing.assert_array_equal(nonneg_project(m), m)

    def test_elementwise_oracle(self, gen):
        m = gen.standard_normal((6, 7))
        np.testing.assert_allclose(nonneg_project(m), (m + np.abs(m)) / 2)

    def test_idempotent(self, gen):
        m = gen.standard_normal((5, 5))
        once = nonneg_project(m)
        np.testing.assert_array_equal(nonneg_project(once), once)


class TestLeastSquares:
    def test_identity_design(self, gen):
        y = gen.standard_normal((3, 4))
        np.testing.assert_allclose(least_squares_solve_S(np.eye(3), y), y)

    def test_scaled_identity(self, gen):
        y = gen.standard_normal((3, 4))
        np.testing.assert_allclose(least_squares_solve_S(2 * np.eye(3), y),
                                   y / 2)

    def test_forward_construction_S(self, gen):
        a = gen.random((6, 3)) + 0.1
        s_true = gen.random((3, 8))
        s = least_squares_solve_S(a, a @ s_true)
        np.testing.assert_allclose(s, s_true, atol=1e-10)

    def test_identity_sources_A(self, gen):
        y = gen.standard_normal((4, 4))
        np.testing.assert_allclose(least_squares_solve_A(np.eye(4), y), y)

    def test_forward_construction_A(self, gen):
        a_true = gen.random((6, 3))
        s = gen.random((3, 8)) + 0.1
        a = least_squares_solve_A(s, a_true @ s)
        np.testing.assert_allclose(a, a_true, atol=1e-10)

    def test_transpose_duality(self, gen):
        s = gen.random((3, 8)) + 0.1
        y = gen.standard_normal((5, 8))
        np.testing.assert_allclose(least_squares_solve_A(s, y),
                                   least_squares_solve_S(s.T, y.T).T,
                                   atol=1e-10)

    def test_residual_orthogonality(self, gen):
        a = gen.random((10, 4)) + 0.1
        y = gen.standard_normal((10, 6))
        s = least_squares_solve_S(a, y)
        resid = a.T @ (y - a @ s)
        assert np.abs(resid).max() <= 1e-8 * np.abs(a.T @ y).max()

    def test_rank_deficient_fallback_is_finite(self):
        a = np.ones((4, 2))  # duplicate columns
        y = np.ones((4, 3))
        s = least_squares_solve_S(a, y)
        assert np.isfinite(s).all()

    def test_nan_gram_raises(self, gen):
        a = gen.random((10, 3))
        a[4, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            least_squares_solve_S(a, gen.random((10, 5)))

    def test_infinite_gram_takes_the_fallback(self, gen):
        a = gen.random((10, 3))
        a[4, 1] = np.inf
        y = gen.random((10, 5))
        with np.errstate(all="ignore"):
            assert not np.isfinite(least_squares_solve_S(a, y)).any()


class TestGramCondition:
    def test_matches_svd_oracle(self, gen):
        for r in (1, 3, 15):
            a = gen.random((40, r))
            assert _gram_condition(a.T @ a) == pytest.approx(
                np.linalg.cond(a.T @ a), rel=1e-6)

    def test_singular_exceeds_the_cap(self):
        assert _gram_condition(np.zeros((3, 3))) == np.inf
        assert _gram_condition(np.ones((3, 3))) > COND_CAP


class TestNormalizeColumns:
    def test_three_four_five(self):
        a = np.array([[3.0], [4.0]])
        normed, scales = normalize_columns(a)
        np.testing.assert_allclose(normed, [[0.6], [0.8]])
        np.testing.assert_allclose(scales, [5.0])

    def test_unit_columns_unchanged(self):
        a = np.eye(3)
        normed, scales = normalize_columns(a)
        np.testing.assert_allclose(normed, a)
        np.testing.assert_allclose(scales, np.ones(3))

    def test_reconstruction(self, gen):
        a = gen.standard_normal((6, 4))
        normed, scales = normalize_columns(a)
        np.testing.assert_allclose(normed * scales, a, rtol=1e-12)

    def test_zero_column_flagged(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        normed, scales = normalize_columns(a)
        assert scales[1] == 0.0
        np.testing.assert_array_equal(normed[:, 1], 0.0)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_norm(np.diag([2.0, 1.0])) == pytest.approx(2.0)

    def test_matches_eigensolver_oracle(self, gen):
        m = gen.standard_normal((5, 5))
        sym = m + m.T
        expected = np.abs(np.linalg.eigvalsh(sym)).max()
        assert spectral_norm(sym) == pytest.approx(expected, rel=1e-8)

    def test_matches_svd_oracle_nonsymmetric(self, gen):
        m = gen.standard_normal((6, 4))
        expected = np.linalg.svd(m, compute_uv=False)[0]
        assert spectral_norm(m) == pytest.approx(expected, rel=1e-8)

    def test_scaling_property(self, gen):
        m = gen.standard_normal((4, 4))
        assert spectral_norm(-2.5 * m) == pytest.approx(
            2.5 * spectral_norm(m), rel=1e-7)

    def test_nonconvergence_raises(self):
        # two exactly tied top eigenvalues never separate under power
        # iteration at a tolerance the iteration cannot certify in one step
        m = np.diag([1.0, 1.0, 0.5])
        with pytest.raises(NonConvergenceError):
            spectral_norm(m + 1e-3 * np.ones((3, 3)), tol=1e-16,
                          max_iterations=3)
