import warnings

import numpy as np
import pytest

from ngmca import subsolvers
from ngmca.algorithms import SCHEDULE_OPTIONS
from ngmca.errors import (NonConvergenceWarning, NonFiniteError,
                          ShapeMismatchError)
from ngmca.linops import normalize_columns, spectral_norm
from ngmca.priors import soft_threshold
from ngmca.subsolvers import (SubsolverOptions, exact_update_A,
                              exact_update_S, fista_update_A, fista_update_S,
                              lipschitz_constant)
from oracles import grid_min_1d, grid_min_2d, nnls_enumerate_matrix, objective

TIGHT = SubsolverOptions(max_inner_iterations=2000, rel_tol=1e-12)


def normalized_design(gen, m, r):
    a, _ = normalize_columns(gen.random((m, r)) + 0.05)
    return a


class TestFistaUpdateS:
    def test_orthonormal_design_closed_form(self, gen):
        y = gen.standard_normal((4, 6))
        lam = 0.3
        s = fista_update_S(y, np.eye(4), lam, np.zeros((4, 6)), TIGHT)
        np.testing.assert_allclose(
            s, np.maximum(soft_threshold(y, lam), 0.0), atol=1e-10)

    def test_nnls_enumeration_oracle(self, gen):
        for _ in range(30):
            a = normalized_design(gen, 4, 3)
            y = gen.standard_normal((4, 5))
            s = fista_update_S(y, a, 0.0, np.zeros((3, 5)), TIGHT)
            np.testing.assert_allclose(s, nnls_enumerate_matrix(a, y),
                                       atol=1e-6)

    def test_grid_oracle_single_source(self, gen):
        a = normalized_design(gen, 3, 1)
        y = np.abs(gen.standard_normal((3, 4))) + 0.5
        lam = 0.2
        s = fista_update_S(y, a, lam, np.zeros((1, 4)), TIGHT)
        expected = grid_min_1d(a, y, lam, hi=float(np.abs(y).sum()))
        np.testing.assert_allclose(s, expected, atol=1e-3)

    def test_grid_oracle_two_sources(self, gen):
        a = normalized_design(gen, 3, 2)
        y_col = np.abs(gen.standard_normal(3)) + 0.5
        lam = np.array([0.15, 0.3])
        s = fista_update_S(y_col[:, None], a, lam, np.zeros((2, 1)), TIGHT)
        expected = grid_min_2d(a, y_col, lam, hi=float(np.abs(y_col).sum()),
                               steps=2001)
        np.testing.assert_allclose(s[:, 0], expected, atol=1e-3)

    def test_kkt_certificate(self, gen):
        a = normalized_design(gen, 8, 4)
        y = gen.standard_normal((8, 10))
        lam = np.array([0.1, 0.2, 0.3, 0.4])
        s = fista_update_S(y, a, lam, np.zeros((4, 10)), TIGHT)
        lip = spectral_norm(a.T @ a, tol=1e-10, max_iterations=10000)
        g = a.T @ (a @ s - y) + lam[:, None]
        tol = 1e-4 * lip
        assert (np.abs(g[s > 0]) <= tol).all()
        assert (g[s == 0] >= -tol).all()

    def test_objective_not_above_start(self, gen):
        a = normalized_design(gen, 6, 3)
        y = gen.standard_normal((6, 7))
        s0 = gen.random((3, 7))
        lam = 0.25
        s = fista_update_S(y, a, lam, s0, SCHEDULE_OPTIONS)

        def pen(s_):
            return objective(y, a, s_) + lam * np.abs(s_).sum()

        assert pen(s) <= pen(s0) + 1e-12

    def test_nonnegative_output(self, gen):
        a = normalized_design(gen, 5, 3)
        y = gen.standard_normal((5, 6))
        s = fista_update_S(y, a, 0.1, np.zeros((3, 6)), SCHEDULE_OPTIONS)
        assert (s >= 0).all()

    def test_shape_mismatch(self, gen):
        with pytest.raises(ShapeMismatchError):
            fista_update_S(np.ones((4, 5)), np.ones((4, 2)), 0.0,
                           np.ones((3, 5)), SCHEDULE_OPTIONS)

    def test_hard_mode_fixed_point(self, gen):
        a = normalized_design(gen, 6, 3)
        y = np.abs(gen.standard_normal((6, 7)))
        opts = SubsolverOptions(max_inner_iterations=500, rel_tol=1e-6)
        s = fista_update_S(y, a, 0.05, np.zeros((3, 7)), opts, hard=True)
        assert (s >= 0).all() and np.isfinite(s).all()

    def test_underestimated_lipschitz_diverges(self, monkeypatch):
        # documents why L is computed rather than guessed: an overlong
        # gradient step breaks the contraction and the iterates overflow
        gen = np.random.default_rng(3)
        a = normalized_design(gen, 6, 4)
        y = gen.standard_normal((6, 20))
        s0 = np.abs(gen.standard_normal((4, 20)))
        opts = SubsolverOptions(max_inner_iterations=2000, rel_tol=1e-6)
        good = fista_update_S(y, a, 0.01, s0, opts, hard=True)
        assert np.isfinite(good).all()
        monkeypatch.setattr(subsolvers, "lipschitz_constant",
                            lambda gram: lipschitz_constant(gram) / 4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError):
                fista_update_S(y, a, 0.01, s0, opts, hard=True)


class TestFistaUpdateA:
    def test_identity_sources_projection(self, gen):
        y = gen.standard_normal((4, 4))
        a = fista_update_A(y, np.eye(4), np.zeros((4, 4)), TIGHT)
        np.testing.assert_allclose(a, np.maximum(y, 0.0), atol=1e-12)

    def test_forward_construction(self, gen):
        s = gen.random((3, 10)) + 0.1
        a_true = gen.random((5, 3))
        a = fista_update_A(a_true @ s, s, np.zeros((5, 3)), TIGHT)
        np.testing.assert_allclose(a, a_true, atol=1e-6)

    def test_enumeration_oracle_2x2(self, gen):
        for _ in range(20):
            s = gen.random((2, 6)) + 0.05
            y = gen.standard_normal((2, 6))
            a = fista_update_A(y, s, np.zeros((2, 2)), TIGHT)
            expected = nnls_enumerate_matrix(s.T, y.T).T
            np.testing.assert_allclose(a, expected, atol=1e-6)

    def test_nonnegative_output(self, gen):
        s = gen.random((3, 8)) + 0.1
        y = gen.standard_normal((5, 8))
        assert (fista_update_A(y, s, np.zeros((5, 3)), SCHEDULE_OPTIONS)
                >= 0).all()

    def test_objective_not_above_start(self, gen):
        s = gen.random((3, 9)) + 0.1
        y = gen.standard_normal((6, 9))
        a0 = gen.random((6, 3))
        a = fista_update_A(y, s, a0, SCHEDULE_OPTIONS)
        assert objective(y, a, s) <= objective(y, a0, s) + 1e-12


class TestExactUpdate:
    def test_A_enumeration_oracle(self, gen):
        for _ in range(20):
            s = gen.random((3, 6)) + 0.05
            y = gen.standard_normal((4, 6))
            a = exact_update_A(y, s, np.zeros((4, 3)))
            np.testing.assert_allclose(a, nnls_enumerate_matrix(s.T, y.T).T,
                                       atol=1e-10)

    def test_warm_and_cold_start_agree(self, gen):
        a = normalized_design(gen, 10, 6)
        y = gen.standard_normal((10, 40))
        lam = np.linspace(0.0, 0.3, 6)
        cold = exact_update_S(y, a, lam, np.zeros((6, 40)))
        assert (cold > 0).any() and (cold == 0).any()
        for s0 in (gen.random((6, 40)), cold,
                   cold + 0.1 * gen.standard_normal((6, 40))):
            np.testing.assert_allclose(exact_update_S(y, a, lam, s0), cold,
                                       atol=1e-12)

    def test_zero_A_column_S_rows(self, gen):
        # G_ii = 0: the row's only term is <lam_i, s_i>, so a positive
        # threshold sends it to 0 and a zero one leaves it at its start
        a = normalized_design(gen, 6, 3)
        a[:, 1] = 0.0
        y = gen.standard_normal((6, 8))
        s0 = gen.random((3, 8))
        for lam_1, row in ((0.2, np.zeros(8)), (0.0, s0[1])):
            lam = np.array([0.1, lam_1, 0.1])
            s = exact_update_S(y, a, lam, s0)
            np.testing.assert_array_equal(s[1], row)
            rest = exact_update_S(y, a[:, [0, 2]], lam[[0, 2]],
                                  s0[[0, 2]])
            np.testing.assert_allclose(s[[0, 2]], rest, atol=1e-12)

    def test_zero_S_row_keeps_A_column(self, gen):
        s = gen.random((3, 9)) + 0.1
        s[2] = 0.0
        y = gen.standard_normal((5, 9))
        a0 = gen.standard_normal((5, 3))
        a = exact_update_A(y, s, a0)
        np.testing.assert_array_equal(a[:, 2], np.maximum(a0[:, 2], 0.0))
        np.testing.assert_allclose(a[:, :2], exact_update_A(y, s[:2],
                                                            a0[:, :2]),
                                   atol=1e-12)

    def test_singular_passive_gram(self, gen, monkeypatch):
        # a duplicated column makes G_FF singular once both copies are
        # passive: the lstsq fallback still reaches the minimum, whose
        # split between the copies is not unique
        a = normalized_design(gen, 6, 3)
        a = np.column_stack([a, a[:, 0]])
        y = np.abs(gen.standard_normal((6, 8)))
        lstsq = np.linalg.lstsq
        fallbacks = []

        def spy(*args, **kwargs):
            fallbacks.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        s = exact_update_S(y, a, 0.0, np.ones((4, 8)))
        assert fallbacks and (s >= 0).all()
        expected = nnls_enumerate_matrix(a[:, :3], y)
        np.testing.assert_allclose(a @ s, a[:, :3] @ expected, atol=1e-10)

    def test_exchange_cap_warns(self, gen, monkeypatch):
        a = normalized_design(gen, 10, 6)
        y = gen.standard_normal((10, 40))
        s0 = np.zeros((6, 40))
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonConvergenceWarning)
            exact = exact_update_S(y, a, 0.05, s0)
        monkeypatch.setattr(subsolvers, "EXCHANGE_CAP", 1)
        with pytest.warns(NonConvergenceWarning, match="1 exchange rounds"):
            s = exact_update_S(y, a, 0.05, s0)
        # unsettled columns keep their start, settled ones are exact
        capped = ~np.isclose(s, exact, atol=1e-12).all(axis=0)
        assert capped.any() and (s[:, capped] == 0).all()
        np.testing.assert_allclose(s[:, ~capped], exact[:, ~capped],
                                   atol=1e-12)


def iterates(solve, count):
    """The first count iterates of a solve: the cap cuts it after k steps."""
    return [solve(SubsolverOptions(max_inner_iterations=k, rel_tol=1e-300))
            for k in range(1, count + 1)]


class TestMonotoneIterates:
    """The penalised objective never rises from one iterate to the next."""

    def assert_non_increasing(self, values):
        values = np.asarray(values)
        slack = 1e-12 * np.abs(values[:-1])
        assert (np.diff(values) <= slack).all()

    def test_S_block(self, gen):
        a = normalized_design(gen, 12, 5)
        y = gen.standard_normal((12, 30))
        s0 = 2.0 * gen.random((5, 30))
        lam = np.array([0.05, 0.1, 0.2, 0.3, 0.4])
        steps = iterates(lambda o: fista_update_S(y, a, lam, s0, o), 60)
        self.assert_non_increasing(
            [objective(y, a, s0) + np.sum(lam[:, None] * s0)]
            + [objective(y, a, s) + np.sum(lam[:, None] * s) for s in steps])

    def test_A_block(self, gen):
        s = gen.random((5, 30)) + 0.05
        y = gen.standard_normal((12, 30))
        a0 = 2.0 * gen.random((12, 5))
        steps = iterates(lambda o: fista_update_A(y, s, a0, o), 60)
        self.assert_non_increasing(
            [objective(y, a0, s)] + [objective(y, a, s) for a in steps])


class TestLipschitzConstant:
    def test_matches_power_iteration(self, gen):
        for _ in range(10):
            a = gen.standard_normal((20, 6))
            gram = a.T @ a
            assert lipschitz_constant(gram) == pytest.approx(
                spectral_norm(gram, tol=1e-14, max_iterations=100000),
                rel=1e-8)

    def test_zero_gram(self):
        assert lipschitz_constant(np.zeros((4, 4))) == 0.0
