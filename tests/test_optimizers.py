import math
from dataclasses import replace

import numpy as np
import pytest

from fuvalkit import problems
from fuvalkit.bench import BoundKind, RateConstants, ReferenceSolution, evaluate_bounds, reference_solve
from fuvalkit.dataio import SyntheticMode, SyntheticSpec, gen_synthetic
from fuvalkit.optimizers import (
    GD,
    SGD,
    SPS,
    ConfigurationError,
    Fuval,
    FuvalFullBatch,
    FuvalParams,
    IterateState,
    ProxLinearAppC,
    RunConfig,
    ScalingScheme,
    SInit,
    SPSPlus,
    constant,
    fuval_full_batch_step,
    fuval_step,
    fuval_tau,
    initial_slack,
    inv_sqrt,
    prox_linear_appC_step,
    resolve_scaling,
    run,
    sps_plus_step,
    sps_step,
)
from fuvalkit.problems import (
    DENSE_MIN_DENSITY,
    LossKind,
    Problem,
    loss_grad,
    loss_value,
    objective,
    objective_grad,
    per_sample_values,
)
from test_problems import make_problem


def interpolating(n=20, d=5, seed=1):
    problem, _ = gen_synthetic(SyntheticSpec(n=n, d=d, seed=seed))
    return problem


class TestSchedules:
    def test_constant(self):
        s = constant(0.5)
        assert s.value(0) == 0.5
        assert s.value(100) == 0.5

    def test_inv_sqrt(self):
        s = inv_sqrt(2.0)
        assert s.value(0) == 2.0
        assert s.value(3) == pytest.approx(1.0)

    def test_positive_base_required(self):
        with pytest.raises(ConfigurationError):
            constant(0.0)


class TestRefusedSettings:
    """Step scales must be finite and positive, a penalty multiplier >= 1
    (NaN included), the run length non-negative and eval_every at least 1."""

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_step_scale(self, bad):
        problem = make_problem()
        for build in (SGD, GD, constant, inv_sqrt):
            with pytest.raises(ConfigurationError, match="finite and positive"):
                build(bad)
        with pytest.raises(ConfigurationError, match="finite and positive"):
            resolve_scaling(ScalingScheme.NAIVE, bad, problem, np.zeros(problem.dim))

    @pytest.mark.parametrize("bad", [0.5, math.nan])
    def test_penalty_multiplier(self, bad):
        with pytest.raises(ConfigurationError, match=">= 1"):
            FuvalParams(constant(1.0), constant(1.0), c_penalty=bad)
        with pytest.raises(ConfigurationError, match=">= 1"):
            ProxLinearAppC(constant(1.0), c_penalty=bad)

    @pytest.mark.parametrize(
        "length", [dict(iterations=5, eval_every=0), dict(epochs=1, eval_every=-2), dict(iterations=-5), dict(epochs=-1)]
    )
    def test_run_config(self, length):
        with pytest.raises(ConfigurationError):
            RunConfig(**length)

    def test_zero_steps_allowed(self):
        trace = run(make_problem(), SGD(step=0.1), RunConfig(iterations=0))
        assert trace.eval_t.tolist() == [0]


class TestScalingSchemes:
    def test_naive(self):
        problem = make_problem()
        assert resolve_scaling(ScalingScheme.NAIVE, 0.3, problem, np.zeros(problem.dim)) == (0.3, 0.3)

    def test_uifv(self):
        problem = make_problem()
        w0 = np.zeros(problem.dim)
        f0 = objective(problem, w0)
        lam, delta = resolve_scaling(ScalingScheme.UNIT_INVARIANT_FV, 0.5, problem, w0)
        assert lam == pytest.approx(0.5 / f0)
        assert delta == pytest.approx(0.5 * f0)

    def test_uigrad(self):
        problem = make_problem()
        rng = np.random.default_rng(3)
        w0 = rng.normal(size=problem.dim)
        from fuvalkit.problems import objective_grad

        f0 = objective(problem, w0)
        g0_sq = float(np.sum(objective_grad(problem, w0) ** 2))
        lam, delta = resolve_scaling(ScalingScheme.UNIT_INVARIANT_GRAD, 2.0, problem, w0)
        assert lam == pytest.approx(2.0 * f0 / g0_sq)
        assert delta == pytest.approx(2.0 * f0)

    def test_lipschitz_scheme_logistic(self):
        problem = make_problem(LossKind.LOGISTIC)
        from fuvalkit.problems import sample_constants

        g_max = sample_constants(problem).g_max
        w0 = np.ones(problem.dim)
        lam, delta = resolve_scaling(ScalingScheme.REMARK_LIPSCHITZ, 1.5, problem, w0)
        assert lam == pytest.approx(1.5 * float(w0 @ w0) / g_max)
        assert delta == pytest.approx(1.5 * g_max)

    def test_lipschitz_falls_back_for_least_squares(self):
        # least squares has no G; the scheme degrades to the f-value variant
        problem = make_problem(LossKind.LEAST_SQUARES)
        w0 = np.ones(problem.dim)
        f0 = objective(problem, w0)
        lam, delta = resolve_scaling(ScalingScheme.REMARK_LIPSCHITZ, 1.0, problem, w0)
        assert lam == pytest.approx(float(w0 @ w0) / f0)
        assert delta == pytest.approx(f0)

    def test_nonpositive_eta_rejected(self):
        problem = make_problem()
        with pytest.raises(ConfigurationError):
            resolve_scaling(ScalingScheme.NAIVE, 0.0, problem, np.zeros(problem.dim))


class TestPolyakSteps:
    def test_sps_plus_never_steps_backward(self):
        problem = interpolating()
        ref = reference_solve(problem, tol=1e-12)
        rng = np.random.default_rng(4)
        for _ in range(50):
            w = rng.normal(size=problem.dim)
            i = int(rng.integers(problem.n)) + 1
            w_new = sps_plus_step(problem, ref, w, i)
            # the clipped gap is nonnegative, so the step has the sign of the gradient
            gap = loss_value(problem, i, w) - ref.per_sample_f_star[i - 1]
            if gap <= 0:
                np.testing.assert_array_equal(w_new, w)

    def test_sps_and_sps_plus_agree_when_gap_positive(self):
        problem = interpolating()
        ref = reference_solve(problem, tol=1e-12)
        w = np.ones(problem.dim) * 2
        for i in (1, 2, 3):
            if loss_value(problem, i, w) > ref.per_sample_f_star[i - 1]:
                np.testing.assert_allclose(
                    sps_step(problem, ref, w, i), sps_plus_step(problem, ref, w, i), rtol=1e-12
                )

    def test_reference_required(self):
        problem = interpolating()
        with pytest.raises(ConfigurationError):
            sps_step(problem, None, np.zeros(problem.dim), 1)


class TestFuvalStep:
    def test_tau_clamped(self):
        assert fuval_tau(10.0, 0.0, 1.0, 1.0, 1.0, c=2.0) == 2.0
        assert fuval_tau(-10.0, 0.0, 1.0, 1.0, 1.0, c=2.0) == 0.0
        assert 0.0 < fuval_tau(0.5, 0.0, 1.0, 1.0, 1.0, c=math.inf) < 1.0

    def test_slack_decreases_when_hinge_inactive(self):
        # tau = 0 forces s_j to drop by gamma * delta
        problem = make_problem(LossKind.LEAST_SQUARES)
        params = FuvalParams(lambda_schedule=constant(0.5), delta_schedule=constant(0.2), gamma=0.8)
        w = np.zeros(problem.dim)
        s = np.full(problem.n, 1000.0)
        state = IterateState(w=w, s=s)
        new, rec = fuval_step(problem, state, params, 1, 0.5, 0.2)
        assert rec.tau == 0.0
        assert new.s[0] == pytest.approx(1000.0 - 0.8 * 0.2)
        np.testing.assert_array_equal(new.w, w)

    def test_slack_increases_when_hinge_strongly_active(self):
        # large positive gap: tau > 1 so the slack moves up toward f_j
        problem = make_problem(LossKind.LEAST_SQUARES)
        w = np.zeros(problem.dim)
        s = np.array([loss_value(problem, i, w) for i in range(1, problem.n + 1)]) - 50.0
        params = FuvalParams(lambda_schedule=constant(1e-6), delta_schedule=constant(1.0))
        state = IterateState(w=w, s=s)
        new, rec = fuval_step(problem, state, params, 1, 1e-6, 1.0)
        assert rec.tau > 1.0
        assert new.s[0] > s[0]

    def test_only_sampled_slack_changes(self):
        problem = make_problem(LossKind.LEAST_SQUARES)
        params = FuvalParams(lambda_schedule=constant(0.5), delta_schedule=constant(0.5))
        state = IterateState(w=np.zeros(problem.dim), s=np.zeros(problem.n))
        new, _ = fuval_step(problem, state, params, 3, 0.5, 0.5)
        mask = np.ones(problem.n, dtype=bool)
        mask[2] = False
        np.testing.assert_array_equal(new.s[mask], state.s[mask])

    def test_gamma_validation(self):
        with pytest.raises(ConfigurationError):
            FuvalParams(lambda_schedule=constant(1.0), delta_schedule=constant(1.0), gamma=0.0)
        with pytest.raises(ConfigurationError):
            FuvalParams(lambda_schedule=constant(1.0), delta_schedule=constant(1.0), gamma=1.5)
        with pytest.raises(ConfigurationError):
            FuvalParams(lambda_schedule=constant(1.0), delta_schedule=constant(1.0), c_penalty=0.5)


class TestProxLinearStep:
    def test_matches_two_scale_update_with_equal_scales(self):
        # single-scale step equals the two-scale step at lam = delta = lam_t,
        # after identifying its tau with lam_t times the dimensionless one
        problem = make_problem(LossKind.LEAST_SQUARES, seed=21)
        rng = np.random.default_rng(13)
        for _ in range(50):
            w = rng.normal(size=problem.dim)
            s = rng.normal(size=problem.n)
            j = int(rng.integers(problem.n)) + 1
            lam_t = float(rng.uniform(0.05, 2.0))
            c = float(rng.uniform(1.0, 5.0))
            state = IterateState(w=w.copy(), s=s.copy())
            one, rec_one = prox_linear_appC_step(problem, state, lam_t, c, j)
            params = FuvalParams(
                lambda_schedule=constant(lam_t), delta_schedule=constant(lam_t), c_penalty=c
            )
            two, rec_two = fuval_step(problem, state, params, j, lam_t, lam_t)
            assert rec_one.tau == pytest.approx(lam_t * rec_two.tau, rel=1e-12, abs=1e-15)
            np.testing.assert_allclose(one.w, two.w, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(one.s, two.s, rtol=1e-12, atol=1e-14)


class TestFullBatchStep:
    def test_scalar_slack_update(self):
        problem = make_problem(LossKind.LEAST_SQUARES, seed=22)
        params = FuvalParams(lambda_schedule=constant(0.1), delta_schedule=constant(0.1))
        w = np.zeros(problem.dim)
        s = objective(problem, w)
        w2, s2, tau = fuval_full_batch_step(problem, w, s, params, 0.1, 0.1)
        assert 0.0 <= tau
        assert np.all(np.isfinite(w2)) and math.isfinite(s2)


class TestInitialSlack:
    def test_at_w0(self):
        problem = make_problem(LossKind.LEAST_SQUARES, seed=23)
        w0 = np.ones(problem.dim)
        s = initial_slack(problem, w0, SInit.AT_W0)
        np.testing.assert_allclose(
            s, [loss_value(problem, i, w0) for i in range(1, problem.n + 1)], rtol=1e-12
        )

    def test_zeros(self):
        problem = make_problem()
        np.testing.assert_array_equal(
            initial_slack(problem, np.zeros(problem.dim), SInit.ZEROS), np.zeros(problem.n)
        )

    def test_custom_vector(self):
        problem = make_problem()
        custom = np.arange(problem.n, dtype=float)
        np.testing.assert_array_equal(
            initial_slack(problem, np.zeros(problem.dim), custom), custom
        )
        with pytest.raises(ConfigurationError):
            initial_slack(problem, np.zeros(problem.dim), np.zeros(problem.n + 1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_custom_vector_rejected(self, bad):
        # positive_part(nan) is 0: a NaN slack would silently pin tau at 0
        problem = make_problem()
        custom = np.zeros(problem.n)
        custom[3] = bad
        with pytest.raises(ConfigurationError):
            initial_slack(problem, np.zeros(problem.dim), custom)
        for spec in (Fuval, FuvalFullBatch):
            method = spec(FuvalParams(constant(0.1), constant(0.1), s_init=custom))
            with pytest.raises(ConfigurationError):
                run(problem, method, RunConfig(iterations=10))


class TestRunLoop:
    def test_identical_config_bit_identical_trace(self):
        problem = interpolating()
        ref = reference_solve(problem)
        config = RunConfig(iterations=200, seed=11, reference=ref, eval_every=10)
        t1 = run(problem, SGD(step=0.01), config)
        t2 = run(problem, SGD(step=0.01), config)
        np.testing.assert_array_equal(t1.f, t2.f)
        np.testing.assert_array_equal(t1.sample, t2.sample)
        np.testing.assert_array_equal(t1.final_w, t2.final_w)

    def test_different_seed_different_samples(self):
        problem = interpolating()
        t1 = run(problem, SGD(step=0.01), RunConfig(iterations=100, seed=1, eval_every=7))
        t2 = run(problem, SGD(step=0.01), RunConfig(iterations=100, seed=2, eval_every=7))
        assert not np.array_equal(t1.sample, t2.sample)

    def test_epochs_maps_to_n_steps(self):
        problem = interpolating(n=13)
        trace = run(problem, SGD(step=0.001), RunConfig(epochs=3, seed=0, eval_every=1000))
        assert trace.eval_t[-1] == 3 * 13

    def test_exactly_one_length_spec(self):
        problem = interpolating()
        with pytest.raises(ConfigurationError):
            run(problem, SGD(step=0.1), RunConfig(iterations=10, epochs=1))
        with pytest.raises(ConfigurationError):
            run(problem, SGD(step=0.1), RunConfig())

    def test_sps_requires_reference(self):
        problem = interpolating()
        with pytest.raises(ConfigurationError):
            run(problem, SPSPlus(), RunConfig(iterations=10))

    def test_sps_refuses_nonconverged_reference(self):
        problem, _ = gen_synthetic(
            SyntheticSpec(n=30, d=5, seed=2, mode=SyntheticMode.LOGISTIC)
        )
        bad_ref = reference_solve(problem, tol=1e-30, max_iters=3)
        assert not bad_ref.converged
        with pytest.raises(ConfigurationError):
            run(problem, SPS(), RunConfig(iterations=10, reference=bad_ref))

    def test_gd_diverges_with_status(self):
        problem = interpolating()
        from fuvalkit.problems import sample_constants

        big = 10.0 / sample_constants(problem).l_max * 100
        trace = run(problem, GD(step=big), RunConfig(iterations=500, eval_every=10))
        assert trace.diverged
        assert trace.status == "diverged"

    def test_gd_converges_on_quadratic(self):
        problem = interpolating()
        ref = reference_solve(problem)
        trace = run(problem, GD(step=0.05), RunConfig(iterations=2000, reference=ref, eval_every=100))
        assert trace.final_subopt() < 1e-6

    def test_fuval_runs_and_records_tau(self):
        problem = interpolating()
        ref = reference_solve(problem)
        params = FuvalParams(lambda_schedule=constant(0.1), delta_schedule=constant(0.1))
        trace = run(problem, Fuval(params), RunConfig(iterations=500, reference=ref, eval_every=50))
        assert np.all(np.isfinite(trace.tau[1:]))
        assert np.all(trace.tau[1:] >= 0)
        assert trace.final_s is not None and trace.final_s.shape == (problem.n,)

    def test_trace_records_at_zero_and_end(self):
        problem = interpolating()
        trace = run(problem, SGD(step=0.01), RunConfig(iterations=95, eval_every=10))
        assert trace.eval_t[0] == 0
        assert trace.eval_t[-1] == 95

    def test_full_batch_fuval_deterministic_without_seed_effect(self):
        problem = interpolating()
        params = FuvalParams(lambda_schedule=constant(0.5), delta_schedule=constant(0.5))
        t1 = run(problem, FuvalFullBatch(params), RunConfig(iterations=100, seed=1, eval_every=20))
        t2 = run(problem, FuvalFullBatch(params), RunConfig(iterations=100, seed=99, eval_every=20))
        np.testing.assert_array_equal(t1.f, t2.f)

    def test_meta_contains_run_parameters(self):
        problem = interpolating()
        params = FuvalParams(lambda_schedule=constant(0.25), delta_schedule=constant(0.75), gamma=0.5)
        trace = run(problem, Fuval(params), RunConfig(iterations=50, seed=3, eval_every=10))
        assert trace.meta["seed"] == 3
        assert trace.meta["T"] == 50
        assert trace.meta["lambda_base"] == 0.25
        assert trace.meta["delta_base"] == 0.75
        assert trace.meta["gamma"] == 0.5


class TestAveraging:
    """f_avg and f_lavg against the averages of a fuval_step replay of run()'s
    index stream; eval_every=1 records every sampled row."""

    T = 20

    def _run(self, average=True):
        problem = interpolating()
        params = FuvalParams(lambda_schedule=inv_sqrt(0.5), delta_schedule=inv_sqrt(0.3))
        config = RunConfig(iterations=self.T, seed=0, eval_every=1, average=average)
        return problem, params, run(problem, Fuval(params), config)

    def _replay(self, problem, params, trace):
        """w^0..w^T and lambda_0..lambda_{T-1} from the step function."""
        w0 = np.zeros(problem.dim)
        state = IterateState(w=w0, s=initial_slack(problem, w0, SInit.AT_W0))
        iterates, lams = [w0], []
        for t, j in enumerate(trace.sample[1:]):
            lam_t = params.lambda_schedule.value(t)
            state, _ = fuval_step(problem, state, params, int(j), lam_t, params.delta_schedule.value(t))
            iterates.append(state.w)
            lams.append(lam_t)
        np.testing.assert_allclose(state.w, trace.final_w, rtol=1e-13)
        return np.array(iterates), np.array(lams)

    def test_uniform_average(self):
        problem, params, trace = self._run()
        iterates, _ = self._replay(problem, params, trace)
        expected = [objective(problem, iterates[:t].mean(axis=0)) for t in range(1, self.T + 1)]
        assert math.isnan(trace.f_avg[0])
        np.testing.assert_allclose(trace.f_avg[1:], expected, rtol=1e-12)

    def test_upto_truncation(self):
        """A run evaluated every 7 steps records f at the mean of the first 7
        iterates at t = 7: skipped evaluations leave the running sums intact."""
        problem, params, trace = self._run()
        iterates, _ = self._replay(problem, params, trace)
        config = RunConfig(iterations=self.T, seed=0, eval_every=7, average=True)
        sparse = run(problem, Fuval(params), config)
        at7 = int(np.flatnonzero(sparse.eval_t == 7)[0])
        np.testing.assert_allclose(
            sparse.f_avg[at7], objective(problem, iterates[:7].mean(axis=0)), rtol=1e-12
        )

    def test_lambda_weighted_average(self):
        problem, params, trace = self._run()
        iterates, lams = self._replay(problem, params, trace)
        expected = [
            objective(problem, (lams[:t, None] * iterates[1 : t + 1]).sum(axis=0) / lams[:t].sum())
            for t in range(1, self.T + 1)
        ]
        assert math.isnan(trace.f_lavg[0])
        np.testing.assert_allclose(trace.f_lavg[1:], expected, rtol=1e-12)

    def test_bounds_require_average(self):
        problem, _, trace = self._run(average=False)
        assert trace.f_avg is None and trace.f_lavg is None
        ref = reference_solve(problem)
        rc = RateConstants(l_max=1.0, g_max=1.0, gamma=0.5)
        args = dict(problem=problem, lam=0.1, delta=0.1, s0=np.zeros(problem.n))
        for kind in (BoundKind.FUVAL_SGD, BoundKind.PROX_LINEAR):
            with pytest.raises(ConfigurationError, match="average=True"):
                evaluate_bounds(trace, ref, rc, kind, **args)


def sparse_problem(kind=LossKind.LOGISTIC, n=60, d=200, nnz=3, seed=4):
    """Rows with `nnz` random columns, every fifth row empty: density far
    below DENSE_MIN_DENSITY, so full-data passes take the CSR path."""
    rng = np.random.default_rng(seed)
    lengths = np.where(np.arange(n) % 5 == 4, 0, nnz)
    indices = np.concatenate([np.sort(rng.choice(d, k, replace=False)) for k in lengths])
    labels = rng.choice([-1.0, 1.0], size=n) if kind is LossKind.LOGISTIC else rng.normal(size=n)
    return Problem(
        loss_kind=kind,
        dim=d,
        labels=labels,
        indptr=np.concatenate([[0], np.cumsum(lengths)]),
        indices=indices,
        data=rng.normal(size=indices.size),
    )


def _density(problem):
    return problem.indices.size / (problem.n * problem.dim)


PARITY_PROBLEMS = {
    "dense": lambda: gen_synthetic(SyntheticSpec(n=40, d=6, seed=5, mode=SyntheticMode.LOGISTIC))[0],
    "sparse": sparse_problem,
}


class TestRunStepParity:
    """run()'s steps equal a replay through the verified step
    functions on run()'s index stream: one default_rng(seed).integers(n) per
    step."""

    LAM, DELTA, SGD_STEP, PROX_BASE, SEED, EPOCHS = 0.5, 0.2, 0.5, 1.0, 7, 3

    def _replay(self, problem, kind, reference):
        n = problem.n
        rng = np.random.default_rng(self.SEED)
        w = np.zeros(problem.dim)
        s0 = np.array([loss_value(problem, i, w) for i in range(1, n + 1)])
        state = IterateState(w=w, s=s0)
        params = FuvalParams(constant(self.LAM), constant(self.DELTA))
        for t in range(self.EPOCHS * n):
            j = int(rng.integers(n)) + 1
            if kind == "sgd":
                w = w - self.SGD_STEP * loss_grad(problem, j, w)
            elif kind == "sps+":
                w = sps_plus_step(problem, reference, w, j)
            elif kind == "fuval":
                state, _ = fuval_step(problem, state, params, j, self.LAM, self.DELTA)
            else:
                lam_t = inv_sqrt(self.PROX_BASE).value(t)
                state, _ = prox_linear_appC_step(problem, state, lam_t, 1.0, j)
        return w if kind in ("sgd", "sps+") else state.w

    @pytest.mark.parametrize("side", sorted(PARITY_PROBLEMS))
    @pytest.mark.parametrize("kind", ["sgd", "sps+", "fuval", "proxlin"])
    def test_run_equals_step_functions(self, side, kind):
        problem = PARITY_PROBLEMS[side]()
        assert (_density(problem) >= DENSE_MIN_DENSITY) == (side == "dense")
        reference = ReferenceSolution(
            w_star=np.zeros(problem.dim),
            f_star=0.0,
            per_sample_f_star=0.1 * per_sample_values(problem, np.zeros(problem.dim)),
            grad_norm_at_solution=0.0,
            sigma=0.0,
            tol=1.0,
        )
        method = {
            "sgd": SGD(step=self.SGD_STEP),
            "sps+": SPSPlus(),
            "fuval": Fuval(FuvalParams(constant(self.LAM), constant(self.DELTA))),
            "proxlin": ProxLinearAppC(inv_sqrt(self.PROX_BASE)),
        }[kind]
        config = RunConfig(epochs=self.EPOCHS, seed=self.SEED, reference=reference, eval_every=problem.n)
        trace = run(problem, method, config)
        assert trace.status == "ok"
        expected = self._replay(problem, kind, reference)
        scale = float(np.max(np.abs(expected)))
        assert scale > 0
        assert float(np.max(np.abs(trace.final_w - expected))) <= 1e-12 * scale


class TestFullBatchParity:
    """run() of a full-batch method equals iterating its full-gradient step,
    with no tolerance: GD is w - step * grad f(w), and fuval-full is
    fuval_full_batch_step with one scalar slack."""

    LAM, DELTA, GAMMA, STEP, STEPS = 0.5, 0.2, 0.8, 0.5, 40

    def _run(self, problem, method):
        trace = run(problem, method, RunConfig(iterations=self.STEPS, eval_every=1))
        assert trace.status == "ok"
        return trace

    @pytest.mark.parametrize("side", sorted(PARITY_PROBLEMS))
    def test_gd_equals_gradient_steps(self, side):
        problem = PARITY_PROBLEMS[side]()
        trace = self._run(problem, GD(step=self.STEP))
        w, grad_sq = np.zeros(problem.dim), []
        for _ in range(self.STEPS):
            g = objective_grad(problem, w)
            grad_sq.append(float(g @ g))
            w = w - self.STEP * g
        np.testing.assert_array_equal(trace.final_w, w)
        np.testing.assert_array_equal(trace.stepsize[1:], np.full(self.STEPS, self.STEP))
        np.testing.assert_array_equal(trace.grad_sq[1:], grad_sq)
        assert np.all(np.isnan(trace.tau))

    def _replay(self, problem, params, s):
        w, taus, steps, grad_sq = np.zeros(problem.dim), [], [], []
        for t in range(self.STEPS):
            g = objective_grad(problem, w)
            grad_sq.append(float(g @ g))
            lam_t = params.lambda_schedule.value(t)
            w, s, tau = fuval_full_batch_step(problem, w, s, params, lam_t, params.delta_schedule.value(t))
            taus.append(tau)
            steps.append(params.gamma * tau * lam_t)
        return w, taus, steps, grad_sq

    @pytest.mark.parametrize("side", sorted(PARITY_PROBLEMS))
    @pytest.mark.parametrize("schedule", [constant, inv_sqrt])
    def test_fuval_full_equals_step_function(self, side, schedule):
        problem = PARITY_PROBLEMS[side]()
        params = FuvalParams(schedule(self.LAM), schedule(self.DELTA), gamma=self.GAMMA)
        trace = self._run(problem, FuvalFullBatch(params))
        w, taus, steps, grad_sq = self._replay(problem, params, objective(problem, np.zeros(problem.dim)))
        np.testing.assert_array_equal(trace.final_w, w)
        np.testing.assert_array_equal(trace.tau[1:], taus)
        np.testing.assert_array_equal(trace.stepsize[1:], steps)
        # the full gradient's squared norm, as for GD
        assert np.all(np.isfinite(trace.grad_sq[1:]))
        np.testing.assert_array_equal(trace.grad_sq[1:], grad_sq)

    def test_custom_slack_vector_starts_the_scalar_slack(self):
        problem = PARITY_PROBLEMS["dense"]()
        params = FuvalParams(constant(self.LAM), constant(self.DELTA), gamma=self.GAMMA)
        custom = self._run(problem, FuvalFullBatch(replace(params, s_init=np.full(problem.n, 5.0))))
        zeros = self._run(problem, FuvalFullBatch(replace(params, s_init=SInit.ZEROS)))
        w, taus, _, _ = self._replay(problem, params, 5.0)
        np.testing.assert_array_equal(custom.final_w, w)
        np.testing.assert_array_equal(custom.tau[1:], taus)
        assert not np.array_equal(custom.final_w, zeros.final_w)


class TestFullBatchPasses:
    """Each full-batch step reads X once forward and once transposed:
    fuval-full takes f and its gradient from one pass, GD its gradient alone.
    Outside the steps, a run evaluates f at the start and the end, and
    fuval-full's default slack reads every f_i(w0) once."""

    T = 20

    def _passes(self, monkeypatch, problem, method):
        counts = {"_matvec": 0, "_rmatvec": 0}
        for name in counts:

            def counted(*args, _fn=getattr(problems, name), _name=name):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(problems, name, counted)
        trace = run(problem, method, RunConfig(iterations=self.T, eval_every=self.T))
        assert trace.status == "ok"
        return counts["_matvec"], counts["_rmatvec"]

    @pytest.mark.parametrize("side", sorted(PARITY_PROBLEMS))
    def test_fuval_full_step_is_one_pass(self, monkeypatch, side):
        method = FuvalFullBatch(FuvalParams(constant(0.5), constant(0.2)))
        assert self._passes(monkeypatch, PARITY_PROBLEMS[side](), method) == (self.T + 3, self.T)

    @pytest.mark.parametrize("side", sorted(PARITY_PROBLEMS))
    def test_gd_step_is_one_pass(self, monkeypatch, side):
        assert self._passes(monkeypatch, PARITY_PROBLEMS[side](), GD(step=0.5)) == (self.T + 2, self.T)


class TestDivergence:
    # eval_t of the divergence as reported before the CSR representation
    @pytest.mark.parametrize(
        "method,eval_every,eval_t",
        [(GD(step=50.0), 1000, 164), (SGD(step=50.0), 7, 35)],
    )
    def test_overflow_reported_at_same_step(self, method, eval_every, eval_t):
        problem = interpolating(n=20, d=5, seed=1)
        trace = run(problem, method, RunConfig(iterations=5000, seed=3, eval_every=eval_every))
        assert trace.status == "diverged"
        assert trace.eval_t[-1] == eval_t

    def test_sparse_overflow_caught_at_the_step_that_writes_it(self):
        # least-squares SGD with rare evaluations: the loss itself overflows
        # long before w does, and the run must not raise
        problem = sparse_problem(LossKind.LEAST_SQUARES, n=30, d=40, nnz=4, seed=2)
        step = 5.0
        trace = run(problem, SGD(step=step), RunConfig(iterations=100_000, seed=1, eval_every=10**6))
        assert trace.status == "diverged"
        rng = np.random.default_rng(1)
        w = np.zeros(problem.dim)
        for t in range(1, 100_001):
            with np.errstate(over="ignore", invalid="ignore"):
                w = w - step * loss_grad(problem, int(rng.integers(problem.n)) + 1, w)
            if not np.all(np.isfinite(w)):
                break
        assert trace.eval_t[-1] == t
        assert not np.all(np.isfinite(trace.final_w))

    def test_nonfinite_w0_rejected(self):
        problem = interpolating()
        w0 = np.full(problem.dim, np.nan)
        with pytest.raises(ConfigurationError):
            run(problem, SGD(step=0.1), RunConfig(iterations=10, w0=w0))
