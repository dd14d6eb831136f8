import math

import numpy as np
import pytest

from fuvalkit.problems import (
    ContractViolation,
    LossKind,
    Problem,
    SparseExample,
    dense_data,
    loss_grad,
    loss_grad_coef,
    loss_value,
    objective,
    objective_grad,
    per_sample_values,
    sample_constants,
)


def make_problem(loss_kind=LossKind.LOGISTIC, n=6, d=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    labels = rng.choice([-1.0, 1.0], size=n) if loss_kind is LossKind.LOGISTIC else rng.normal(size=n)
    idx = np.arange(1, d + 1, dtype=np.int64)
    examples = [SparseExample(label=float(labels[i]), indices=idx, values=x[i], dim=d) for i in range(n)]
    return Problem(examples=examples, loss_kind=loss_kind, dim=d)


class TestSparseExample:
    def test_dot_and_dense_agree(self):
        ex = SparseExample(label=1.0, indices=np.array([2, 5]), values=np.array([3.0, -1.5]), dim=6)
        w = np.arange(6, dtype=float)
        assert ex.dot(w) == pytest.approx(ex.dense() @ w)
        assert ex.norm_sq() == pytest.approx(3.0**2 + 1.5**2)

    def test_rejects_nonincreasing_indices(self):
        with pytest.raises(ContractViolation):
            SparseExample(label=1.0, indices=np.array([3, 2]), values=np.array([1.0, 1.0]), dim=5)

    def test_rejects_zero_index(self):
        with pytest.raises(ContractViolation):
            SparseExample(label=1.0, indices=np.array([0]), values=np.array([1.0]), dim=5)

    def test_rejects_index_beyond_dim(self):
        with pytest.raises(ContractViolation):
            SparseExample(label=1.0, indices=np.array([6]), values=np.array([1.0]), dim=5)

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractViolation):
            SparseExample(label=math.nan, indices=np.array([1]), values=np.array([1.0]), dim=1)

    def test_empty_row_allowed(self):
        ex = SparseExample(label=1.0, indices=np.array([], dtype=np.int64), values=np.array([]), dim=3)
        assert ex.dot(np.ones(3)) == 0.0


class TestLossOracles:
    def test_logistic_value_matches_naive_formula(self):
        problem = make_problem(LossKind.LOGISTIC)
        w = np.array([0.3, -0.2, 0.1, 0.5])
        for i in range(1, problem.n + 1):
            ex = problem.examples[i - 1]
            z = ex.label * ex.dot(w)
            assert loss_value(problem, i, w) == pytest.approx(math.log(1 + math.exp(-z)), rel=1e-12)

    def test_logistic_value_stable_at_extreme_margins(self):
        ex = SparseExample(label=1.0, indices=np.array([1]), values=np.array([1.0]), dim=1)
        problem = Problem(examples=[ex], loss_kind=LossKind.LOGISTIC)
        assert loss_value(problem, 1, np.array([1000.0])) == pytest.approx(0.0, abs=1e-300)
        # log(1+e^1000) = 1000 up to e^-1000
        assert loss_value(problem, 1, np.array([-1000.0])) == pytest.approx(1000.0)
        assert math.isfinite(loss_grad(problem, 1, np.array([-1000.0]))[0])

    def test_least_squares_value(self):
        problem = make_problem(LossKind.LEAST_SQUARES)
        w = np.array([1.0, 0.0, -1.0, 2.0])
        for i in range(1, problem.n + 1):
            ex = problem.examples[i - 1]
            assert loss_value(problem, i, w) == pytest.approx(0.5 * (ex.dot(w) - ex.label) ** 2)

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
            expected = coef * problem.examples[i - 1].dense()
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
        for row, ex in enumerate(problem.examples):
            np.testing.assert_array_equal(x[row], ex.dense())
            assert y[row] == ex.label


class TestSampleConstants:
    def test_logistic_constants(self):
        problem = make_problem(LossKind.LOGISTIC)
        c = sample_constants(problem)
        norms = np.array([np.linalg.norm(e.dense()) for e in problem.examples])
        np.testing.assert_allclose(c.lipschitz, norms, rtol=1e-12)
        np.testing.assert_allclose(c.smoothness, norms**2 / 4, rtol=1e-12)
        assert c.g_max == pytest.approx(norms.max())
        assert c.l_max == pytest.approx((norms**2).max() / 4)
        np.testing.assert_array_equal(c.inf_fi, np.zeros(problem.n))

    def test_least_squares_constants(self):
        problem = make_problem(LossKind.LEAST_SQUARES)
        c = sample_constants(problem)
        norms_sq = np.array([e.norm_sq() for e in problem.examples])
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
            Problem(examples=[], loss_kind=LossKind.LOGISTIC)

    def test_dim_inferred_from_examples(self):
        ex = SparseExample(label=1.0, indices=np.array([4]), values=np.array([2.0]), dim=4)
        problem = Problem(examples=[ex], loss_kind=LossKind.LOGISTIC)
        assert problem.dim == 4
        assert problem.n == 1
