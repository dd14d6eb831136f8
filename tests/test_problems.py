import math

import numpy as np
import pytest

from fuvalkit.problems import (
    ContractViolation,
    LossKind,
    Problem,
    _scatter,
    dense_data,
    loss_grad,
    loss_grad_coef,
    loss_value,
    objective,
    objective_grad,
    per_sample_values,
    row_norms_sq,
    sample_constants,
)


def make_problem(loss_kind=LossKind.LOGISTIC, n=6, d=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    labels = rng.choice([-1.0, 1.0], size=n) if loss_kind is LossKind.LOGISTIC else rng.normal(size=n)
    return Problem(
        loss_kind=loss_kind,
        dim=d,
        labels=labels,
        indptr=np.arange(0, n * d + 1, d),
        indices=np.tile(np.arange(d), n),
        data=x.ravel(),
    )


def one_row(cols, vals, label=1.0, dim=0, loss_kind=LossKind.LOGISTIC):
    return Problem(loss_kind=loss_kind, dim=dim, labels=[label], indptr=[0, len(cols)], indices=cols, data=vals)


def dot(problem, i, w):
    """<x_i, w> from the CSR row slice."""
    cols, vals = problem.row(i)
    return float(vals @ w[cols])


class TestRows:
    def test_row_dot_and_dense_agree(self):
        problem = one_row([1, 4], [3.0, -1.5], dim=6)
        w = np.arange(6, dtype=float)
        assert dot(problem, 1, w) == pytest.approx(_scatter(problem)[0] @ w)
        assert row_norms_sq(problem)[0] == pytest.approx(3.0**2 + 1.5**2)


class TestLossOracles:
    def test_logistic_value_matches_naive_formula(self):
        problem = make_problem(LossKind.LOGISTIC)
        w = np.array([0.3, -0.2, 0.1, 0.5])
        for i in range(1, problem.n + 1):
            z = problem.labels[i - 1] * dot(problem, i, w)
            assert loss_value(problem, i, w) == pytest.approx(math.log(1 + math.exp(-z)), rel=1e-12)

    def test_logistic_value_stable_at_extreme_margins(self):
        problem = one_row([0], [1.0])
        assert loss_value(problem, 1, np.array([1000.0])) == pytest.approx(0.0, abs=1e-300)
        # log(1+e^1000) = 1000 up to e^-1000
        assert loss_value(problem, 1, np.array([-1000.0])) == pytest.approx(1000.0)
        assert math.isfinite(loss_grad(problem, 1, np.array([-1000.0]))[0])

    def test_least_squares_value(self):
        problem = make_problem(LossKind.LEAST_SQUARES)
        w = np.array([1.0, 0.0, -1.0, 2.0])
        for i in range(1, problem.n + 1):
            assert loss_value(problem, i, w) == pytest.approx(0.5 * (dot(problem, i, w) - problem.labels[i - 1]) ** 2)

    @pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.LEAST_SQUARES])
    def test_grad_matches_central_differences(self, kind):
        problem = make_problem(kind, seed=3)
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(20):
            w = rng.normal(size=problem.dim)
            i = int(rng.integers(problem.n)) + 1
            g = loss_grad(problem, i, w)
            for k in range(problem.dim):
                e = np.zeros(problem.dim)
                e[k] = h
                fd = (loss_value(problem, i, w + e) - loss_value(problem, i, w - e)) / (2 * h)
                assert g[k] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.LEAST_SQUARES])
    def test_grad_coef_consistent_with_grad(self, kind):
        problem = make_problem(kind, seed=5)
        w = np.random.default_rng(2).normal(size=problem.dim)
        for i in range(1, problem.n + 1):
            coef = loss_grad_coef(problem, i, w)
            expected = coef * _scatter(problem)[i - 1]
            np.testing.assert_allclose(loss_grad(problem, i, w), expected, rtol=1e-12)

    def test_index_out_of_range(self):
        problem = make_problem()
        with pytest.raises(ContractViolation):
            loss_value(problem, 0, np.zeros(problem.dim))
        with pytest.raises(ContractViolation):
            loss_value(problem, problem.n + 1, np.zeros(problem.dim))

    def test_wrong_shape(self):
        problem = make_problem()
        with pytest.raises(ContractViolation):
            loss_value(problem, 1, np.zeros(problem.dim + 1))


class TestObjective:
    @pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.LEAST_SQUARES])
    def test_objective_is_mean_of_losses(self, kind):
        problem = make_problem(kind, seed=7)
        w = np.random.default_rng(4).normal(size=problem.dim)
        manual = sum(loss_value(problem, i, w) for i in range(1, problem.n + 1)) / problem.n
        assert objective(problem, w) == pytest.approx(manual, rel=1e-12)
        np.testing.assert_allclose(
            per_sample_values(problem, w),
            [loss_value(problem, i, w) for i in range(1, problem.n + 1)],
            rtol=1e-12,
        )

    @pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.LEAST_SQUARES])
    def test_objective_grad_is_mean_of_grads(self, kind):
        problem = make_problem(kind, seed=9)
        w = np.random.default_rng(6).normal(size=problem.dim)
        manual = sum(loss_grad(problem, i, w) for i in range(1, problem.n + 1)) / problem.n
        np.testing.assert_allclose(objective_grad(problem, w), manual, rtol=1e-10, atol=1e-14)

    def test_dense_data_matches_examples(self):
        problem = make_problem()
        x, y = dense_data(problem)
        for i in range(1, problem.n + 1):
            cols, vals = problem.row(i)
            expected = np.zeros(problem.dim)
            expected[cols] = vals
            np.testing.assert_array_equal(x[i - 1], expected)
            assert y[i - 1] == problem.labels[i - 1]


class TestSampleConstants:
    def test_logistic_constants(self):
        problem = make_problem(LossKind.LOGISTIC)
        c = sample_constants(problem)
        norms = np.linalg.norm(_scatter(problem), axis=1)
        np.testing.assert_allclose(c.lipschitz, norms, rtol=1e-12)
        np.testing.assert_allclose(c.smoothness, norms**2 / 4, rtol=1e-12)
        assert c.g_max == pytest.approx(norms.max())
        assert c.l_max == pytest.approx((norms**2).max() / 4)
        np.testing.assert_array_equal(c.inf_fi, np.zeros(problem.n))

    def test_least_squares_constants(self):
        problem = make_problem(LossKind.LEAST_SQUARES)
        c = sample_constants(problem)
        norms_sq = np.array([vals @ vals for _, vals in map(problem.row, range(1, problem.n + 1))])
        assert c.lipschitz is None
        assert c.g_max is None
        np.testing.assert_allclose(c.smoothness, norms_sq, rtol=1e-12)
        assert c.l_max == pytest.approx(norms_sq.max())

    def test_smoothness_bounds_gradient_variation(self):
        # |f_i'(w) - f_i'(v)| <= L_i ||w - v|| spot check
        problem = make_problem(LossKind.LOGISTIC, seed=11)
        c = sample_constants(problem)
        rng = np.random.default_rng(8)
        for _ in range(50):
            w, v = rng.normal(size=(2, problem.dim))
            for i in range(1, problem.n + 1):
                diff = np.linalg.norm(loss_grad(problem, i, w) - loss_grad(problem, i, v))
                assert diff <= c.smoothness[i - 1] * np.linalg.norm(w - v) + 1e-12


class TestProblemValidation:
    def test_empty_problem_rejected(self):
        with pytest.raises(ContractViolation):
            Problem(loss_kind=LossKind.LOGISTIC, labels=[], indptr=[0], indices=[], data=[])

    def test_dim_inferred_from_examples(self):
        problem = one_row([3], [2.0])
        assert problem.dim == 4
        assert problem.n == 1
