import math

import numpy as np
import pytest

from fuvalkit import bench
from fuvalkit.bench import (
    SENSITIVITY_HEADER,
    TRACE_HEADER,
    BoundKind,
    RateConstants,
    SensitivityTable,
    build_method,
    evaluate_bounds,
    export_csv,
    grid_search,
    meta_sidecar,
    rate_fit_slope,
    reference_solve,
    sensitivity_csv,
    trace_csv,
)
from fuvalkit.dataio import SyntheticMode, SyntheticSpec, gen_synthetic
from fuvalkit.optimizers import (
    GD,
    SGD,
    SPS,
    ConfigurationError,
    Fuval,
    FuvalFullBatch,
    FuvalParams,
    ProxLinearAppC,
    RunConfig,
    ScalingScheme,
    SInit,
    SPSPlus,
    constant,
    initial_slack,
    inv_sqrt,
    resolve_scaling,
    run,
)
from fuvalkit.problems import (
    LossKind,
    Problem,
    objective,
    objective_grad,
    per_sample_values,
    sample_constants,
)


def interpolating(n=20, d=5, seed=1):
    problem, _ = gen_synthetic(SyntheticSpec(n=n, d=d, seed=seed))
    return problem


def two_point_least_squares():
    # {(x=1, y=0), (x=1, y=2)}: w* = 1, f* = 0.5
    return Problem(loss_kind=LossKind.LEAST_SQUARES, labels=[0.0, 2.0], indptr=[0, 1, 2], indices=[0, 0], data=[1.0, 1.0])


class TestReferenceSolve:
    def test_interpolating_reaches_machine_zero(self):
        ref = reference_solve(interpolating())
        assert ref.converged
        assert ref.f_star <= 1e-16
        assert ref.sigma <= 1e-16
        assert ref.grad_norm_at_solution <= ref.tol

    def test_two_point_least_squares_closed_form(self):
        ref = reference_solve(two_point_least_squares(), tol=1e-12)
        assert ref.w_star[0] == pytest.approx(1.0, abs=1e-10)
        assert ref.f_star == pytest.approx(0.5, abs=1e-12)
        # per-sample infima are zero, so sigma equals f*
        assert ref.sigma == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(ref.per_sample_f_star, [0.5, 0.5], atol=1e-10)

    def test_objective_sequence_monotone(self):
        # any later run's suboptimality against the reference stays >= -1e-9
        problem = interpolating(seed=4)
        ref = reference_solve(problem)
        trace = run(problem, SGD(step=0.05), RunConfig(iterations=3000, seed=0, reference=ref, eval_every=50))
        assert np.min(trace.subopt) >= -1e-9

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_start_refused(self, bad):
        w0 = np.zeros(5)
        w0[2] = bad
        with pytest.raises(ConfigurationError, match="w0 must be finite"):
            reference_solve(interpolating(), w0=w0)

    def test_iteration_cap_flags_not_converged(self):
        ref = reference_solve(interpolating(), tol=1e-30, max_iters=5)
        assert not ref.converged

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_tolerance_refused(self, tol):
        with pytest.raises(ConfigurationError, match="tol must be finite and positive"):
            reference_solve(interpolating(), tol=tol)

    @staticmethod
    def _solve_to_the_cap(problem, tol, max_iters, w0):
        """The solve without its fixed-point stop: every iteration up to the cap."""
        w = w0
        f = objective(problem, w)
        step = 1.0
        for _ in range(max_iters):
            g = objective_grad(problem, w)
            g_norm = float(np.linalg.norm(g))
            if g_norm <= tol:
                return w, f, g_norm, True
            step = min(step * 2.0, 1e8)
            while True:
                f_new = objective(problem, w - step * g)
                if f_new <= f - 0.5e-4 * step * g_norm * g_norm or step < 1e-18:
                    break
                step *= 0.5
            w = w - step * g
            f = f_new
        return w, f, float(np.linalg.norm(objective_grad(problem, w))), False

    @pytest.mark.parametrize(
        "problem,w0,max_grads",
        [
            (gen_synthetic(SyntheticSpec(n=30, d=5, seed=6, mode=SyntheticMode.NOISY_LEAST_SQUARES, noise_std=0.5))[0],
             None, 100),
            (gen_synthetic(SyntheticSpec(n=50, d=10, seed=99, mode=SyntheticMode.LOGISTIC))[0], None, 300),
            (interpolating(n=30, d=5, seed=6), None, 100),  # converges before it could stall
            # w and f stay put while the accepted step doubles, until w + step*g
            # rounds to a new float: a fixed w and f with a new step is no fixed point
            (Problem(loss_kind=LossKind.LEAST_SQUARES, labels=[1e10], indptr=[0, 1], indices=[0], data=[1e-10]),
             np.array([1e17]), 3001),
        ],
        ids=["noisy-stall", "logistic-stall", "converges", "step-grows"],
    )
    def test_stalled_solve_stops_with_the_caps_result(self, problem, w0, max_grads, monkeypatch):
        tol, cap = 1e-12, 3000
        w0 = np.zeros(problem.dim) if w0 is None else w0
        w, f, g_norm, converged = self._solve_to_the_cap(problem, tol, cap, w0)
        calls = []
        monkeypatch.setattr(bench, "objective_grad", lambda p, w: calls.append(1) or objective_grad(p, w))
        ref = reference_solve(problem, tol=tol, max_iters=cap, w0=w0)
        assert ref.w_star.tobytes() == w.tobytes()
        assert (ref.f_star, ref.grad_norm_at_solution, ref.converged) == (f, g_norm, converged)
        assert ref.per_sample_f_star.tobytes() == per_sample_values(problem, w).tobytes()
        assert ref.sigma == f - float(np.mean(sample_constants(problem).inf_fi))
        assert len(calls) <= max_grads  # a stall stops long before the cap


class TestRateConstants:
    def test_model_lipschitz_rms(self):
        rc = RateConstants(l_max=1.0, g_max=2.0, c_penalty=2.0)
        lip = np.array([1.0, 2.0])
        m = 1 + 2.0 * np.sqrt((0.5 / 0.25) * lip**2 + 1)
        assert rc.model_lipschitz(0.5, 0.25, lip) == pytest.approx(float(np.sqrt(np.mean(m**2))))


class TestEvaluateBounds:
    def test_smooth_bound_satisfied_for_sps_plus(self):
        problem = interpolating(n=30, d=5, seed=3)
        ref = reference_solve(problem, tol=1e-12)
        consts = sample_constants(problem)
        trace = run(problem, SPSPlus(), RunConfig(iterations=2000, seed=0, reference=ref, eval_every=100))
        rc = RateConstants(l_max=consts.l_max, g_max=consts.g_max)
        report = evaluate_bounds(trace, ref, rc, BoundKind.SPS_PLUS_SMOOTH)
        assert report.satisfied
        assert report.lhs <= report.rhs

    def test_lipschitz_bound_unavailable_for_least_squares(self):
        problem = interpolating()
        ref = reference_solve(problem)
        trace = run(problem, SPSPlus(), RunConfig(iterations=100, seed=0, reference=ref, eval_every=10))
        rc = RateConstants(l_max=1.0, g_max=None)
        report = evaluate_bounds(trace, ref, rc, BoundKind.SPS_PLUS_LIPSCHITZ)
        assert not report.satisfied
        assert "unavailable" in report.note

    def test_degenerate_single_step(self):
        problem = interpolating()
        ref = reference_solve(problem)
        consts = sample_constants(problem)
        trace = run(problem, SPSPlus(), RunConfig(iterations=1, seed=0, reference=ref, eval_every=1))
        rc = RateConstants(l_max=consts.l_max, g_max=None)
        report = evaluate_bounds(trace, ref, rc, BoundKind.SPS_PLUS_SMOOTH)
        # rhs = 2 L ||w0 - w*||^2 dominates the initial suboptimality by smoothness
        assert report.satisfied

    def test_prox_linear_bound_on_logistic(self):
        # lambda = delta = the schedule base: prox_linear_rule's identification
        # of the single-scale step with the two-scale one
        problem, _ = gen_synthetic(SyntheticSpec(n=30, d=5, seed=3, mode=SyntheticMode.LOGISTIC))
        ref = reference_solve(problem, tol=1e-8)
        assert ref.converged
        consts = sample_constants(problem)
        base, T = 1.0, 2000
        config = RunConfig(iterations=T, seed=0, reference=ref, eval_every=T, average=True)
        trace = run(problem, ProxLinearAppC(inv_sqrt(base)), config)
        s0 = initial_slack(problem, np.zeros(problem.dim), SInit.AT_W0)
        rc = RateConstants(l_max=consts.l_max, g_max=consts.g_max)
        report = evaluate_bounds(
            trace, ref, rc, BoundKind.PROX_LINEAR, problem=problem, lam=base, delta=base, s0=s0
        )
        assert report.lhs == trace.f_lavg[-1] - ref.f_star
        assert -1e-12 <= report.lhs <= report.rhs
        assert report.satisfied


class TestRateFit:
    def test_slope_of_power_law(self):
        ts = np.arange(10, 1000)
        vals = 5.0 / ts
        assert rate_fit_slope(ts, vals) == pytest.approx(-1.0, abs=1e-6)


class TestBuildMethod:
    @pytest.mark.parametrize("schedule", [constant, inv_sqrt])
    def test_every_family(self, schedule):
        problem = interpolating(n=10, d=3)
        w0 = np.zeros(problem.dim)
        scheme = ScalingScheme.UNIT_INVARIANT_FV
        lam, delta = resolve_scaling(scheme, 0.3, problem, w0)
        params = FuvalParams(schedule(lam), schedule(delta), gamma=0.5, c_penalty=2.0)
        expected = {
            "gd": GD(step=0.3),
            "sgd": SGD(step=0.3),
            "sps": SPS(),
            "sps+": SPSPlus(),
            "proxlin": ProxLinearAppC(schedule(0.3), c_penalty=2.0),
            "fuval": Fuval(params),
            "fuval-full": FuvalFullBatch(params),
        }
        for family, spec in expected.items():
            assert build_method(family, 0.3, scheme, problem, w0, 0.5, 2.0, schedule) == spec, family
        with pytest.raises(ConfigurationError):
            build_method("newton", 0.3, scheme, problem, w0)


class TestGridSearch:
    def test_row_count_and_ordering(self):
        problem = interpolating(n=10, d=3, seed=6)
        ref = reference_solve(problem)
        etas = np.logspace(-3, 0, 4)
        table = grid_search(
            problem, ref, ["gd", "fuval-full"],
            [ScalingScheme.NAIVE, ScalingScheme.UNIT_INVARIANT_FV],
            etas, iterations=20,
        )
        # gd: 4 rows (no scheme); fuval-full: 2 schemes x 4 etas
        assert len(table.rows) == 4 + 8
        for method in ("gd", "fuval-full"):
            for scheme in set(r.scheme for r in table.rows if r.method == method):
                group = [r.eta for r in table.rows if r.method == method and r.scheme == scheme]
                assert group == sorted(group)
                assert len(set(group)) == len(group)

    def test_duplicate_eta_rejected(self):
        problem = interpolating(n=10, d=3)
        ref = reference_solve(problem)
        with pytest.raises(ConfigurationError):
            grid_search(problem, ref, ["gd"], [], np.array([0.1, 0.1]), iterations=5)

    def test_empty_grid_rejected(self):
        problem = interpolating(n=10, d=3)
        ref = reference_solve(problem)
        with pytest.raises(ConfigurationError):
            grid_search(problem, ref, ["gd"], [], np.array([]), iterations=5)

    def test_divergence_recorded_as_inf(self):
        problem = interpolating(n=10, d=3, seed=8)
        ref = reference_solve(problem)
        consts = sample_constants(problem)
        huge = 100.0 / consts.l_max * 50
        table = grid_search(problem, ref, ["gd"], [], np.array([huge]), iterations=200)
        assert table.rows[0].diverged
        assert math.isinf(table.rows[0].subopt_mean)

    def test_bad_step_scale_is_an_inf_row(self):
        # every family refuses a step scale that is not finite and positive
        problem = interpolating(n=10, d=3, seed=8)
        ref = reference_solve(problem)
        etas = np.array([-1.0, 0.1, math.inf, math.nan])
        table = grid_search(problem, ref, ["gd", "sgd", "fuval"], [ScalingScheme.NAIVE], etas, iterations=20)
        assert len(table.rows) == 12
        for row in table.rows:
            assert row.diverged == (row.eta != 0.1), row
            assert math.isinf(row.subopt_mean) == row.diverged

    def test_gd_u_shape_with_divergence_above_threshold(self):
        # classical stability: GD diverges above 2/L of the batch objective
        problem = interpolating(n=10, d=3, seed=9)
        ref = reference_solve(problem)
        from fuvalkit.problems import dense_data

        x, _ = dense_data(problem)
        l_batch = float(np.linalg.eigvalsh(x.T @ x / problem.n).max())
        etas = np.logspace(-4, 2, 13)
        table = grid_search(problem, ref, ["gd"], [], etas, iterations=300)
        for row in table.rows:
            if row.eta > 2.2 / l_batch:
                assert row.diverged or row.subopt_mean > 1.0
        best = min(r.subopt_mean for r in table.rows if not r.diverged)
        worst_small = [r.subopt_mean for r in table.rows if r.eta == etas[0]][0]
        assert best < worst_small  # interior of the grid beats the tiny-step end

    def test_rerun_bit_identical(self):
        problem = interpolating(n=10, d=3, seed=10)
        ref = reference_solve(problem)
        etas = np.logspace(-2, 0, 3)
        t1 = grid_search(problem, ref, ["fuval-full"], [ScalingScheme.NAIVE], etas, iterations=30)
        t2 = grid_search(problem, ref, ["fuval-full"], [ScalingScheme.NAIVE], etas, iterations=30)
        assert [(r.method, r.scheme, r.eta, r.subopt_mean, r.subopt_median, r.diverged) for r in t1.rows] == [
            (r.method, r.scheme, r.eta, r.subopt_mean, r.subopt_median, r.diverged) for r in t2.rows
        ]

    def test_parallel_matches_serial(self):
        problem = interpolating(n=10, d=3, seed=11)
        ref = reference_solve(problem)
        etas = np.logspace(-2, 0, 3)
        serial = grid_search(problem, ref, ["sgd"], [], etas, iterations=40, seeds=[0, 1])
        parallel = grid_search(problem, ref, ["sgd"], [], etas, iterations=40, seeds=[0, 1], jobs=2)
        assert [(r.method, r.eta, r.subopt_mean) for r in serial.rows] == [
            (r.method, r.eta, r.subopt_mean) for r in parallel.rows
        ]


class TestCsvExport:
    def test_trace_csv_header_and_precision(self, tmp_path):
        problem = interpolating(n=10, d=3, seed=12)
        ref = reference_solve(problem)
        trace = run(problem, SGD(step=0.01), RunConfig(iterations=30, seed=0, reference=ref, eval_every=10))
        text = trace_csv(trace)
        lines = text.split("\n")
        assert lines[0] == ",".join(TRACE_HEADER)
        assert "\r" not in text
        # round-trip every float at 17 significant digits
        for line in lines[1:]:
            if not line:
                continue
            cols = line.split(",")
            f_val = float(cols[3])
            assert f"{f_val:.17g}" == cols[3]

    def test_trace_round_trip_to_full_precision(self):
        problem = interpolating(n=10, d=3, seed=13)
        trace = run(problem, SGD(step=0.01), RunConfig(iterations=20, seed=0, eval_every=5))
        text = trace_csv(trace)
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        parsed_f = np.array([float(r[3]) for r in rows])
        np.testing.assert_array_equal(parsed_f, trace.f)

    def test_sensitivity_csv_header_and_empty_table(self):
        text = sensitivity_csv(SensitivityTable())
        assert text == ",".join(SENSITIVITY_HEADER) + "\n"

    def test_meta_sidecar_key_order_and_format(self):
        meta = {
            "seed": 7, "T": 100, "gamma": 0.5, "c": 2.0, "lambda_base": 0.25,
            "delta_base": 0.75, "scheme": "uifv", "reference_f_star": 1e-12, "reference_tol": 1e-10,
        }
        text = meta_sidecar(meta)
        lines = text.strip().split("\n")
        assert lines[0] == "seed=7"
        assert lines[1] == "T=100"
        assert "gamma=0.5" in lines
        assert "scheme=uifv" in lines
        assert text.endswith("\n")

    def test_export_writes_trace_and_sidecar(self, tmp_path):
        problem = interpolating(n=10, d=3, seed=14)
        trace = run(problem, SGD(step=0.01), RunConfig(iterations=10, seed=0, eval_every=5))
        out = tmp_path / "trace.csv"
        export_csv(trace, out)
        assert out.exists()
        assert out.with_suffix(".meta").exists()
        assert out.read_text().startswith(",".join(TRACE_HEADER))

    def test_export_sensitivity_two_column_loadable(self, tmp_path):
        problem = interpolating(n=10, d=3, seed=15)
        ref = reference_solve(problem)
        table = grid_search(problem, ref, ["gd"], [], np.logspace(-2, -1, 3), iterations=10)
        out = tmp_path / "sens.csv"
        export_csv(table, out)
        data = np.genfromtxt(out, delimiter=",", names=True, dtype=None, encoding="utf-8")
        assert set(("eta", "subopt_mean")) <= set(data.dtype.names)

    def test_export_failure_surfaces_path(self, tmp_path):
        problem = interpolating(n=10, d=3, seed=16)
        trace = run(problem, SGD(step=0.01), RunConfig(iterations=10, seed=0, eval_every=5))
        bad = tmp_path / "missing-dir" / "trace.csv"
        with pytest.raises(OSError) as exc:
            export_csv(trace, bad)
        assert "missing-dir" in str(exc.value)
