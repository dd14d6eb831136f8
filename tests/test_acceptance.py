"""End-to-end acceptance checks: numerical oracles, update equivalences,
proven-rate reproduction, and the desk-scale sensitivity experiment.

Each test prints one PASS/FAIL line; tolerances are stated inline.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from fuvalkit.bench import (
    BoundKind,
    RateConstants,
    evaluate_bounds,
    rate_fit_slope,
    reference_solve,
)
from fuvalkit.cli import main as cli_main
from fuvalkit.dataio import SyntheticMode, SyntheticSpec, gen_synthetic
from fuvalkit.optimizers import (
    Fuval,
    FuvalParams,
    IterateState,
    ProxLinearAppC,
    RunConfig,
    SInit,
    constant,
    fuval_step,
    initial_slack,
    inv_sqrt,
    run,
    sps_plus_step,
)
from fuvalkit.problems import (
    LossKind,
    Problem,
    SparseExample,
    loss_grad,
    loss_value,
    objective,
    sample_constants,
)
from fuvalkit.surrogate import (
    SurrogateAnchor,
    grad_phi_i,
    gradient_bound_residual,
    penalty_value,
    phi_i,
)
from fuvalkit.verify import suite_equivalence, suite_projections


def report(num: int, name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {name}{tail}")
    assert ok, f"acceptance criterion {num} failed: {name}{tail}"


def scale_least_squares(problem: Problem, alpha: float) -> Problem:
    """Rescale every loss term by alpha (multiply features and labels by sqrt(alpha))."""
    root = math.sqrt(alpha)
    examples = [
        SparseExample(label=ex.label * root, indices=ex.indices, values=ex.values * root, dim=ex.dim)
        for ex in problem.examples
    ]
    return Problem(examples=examples, loss_kind=problem.loss_kind, dim=problem.dim)


def test_01_projection_oracles():
    t0 = time.process_time()
    results = suite_projections(1000, tol=1e-6)
    seconds = time.process_time() - t0
    ok = all(r.passed for r in results) and seconds < 10.0
    report(1, "projection closed forms within 1e-6 of brute force, 1000 instances",
           ok, f"{seconds:.1f}s CPU; " + "; ".join(r.detail for r in results))


def test_02_three_viewpoint_equivalence():
    t0 = time.process_time()
    results = suite_equivalence(500, tol=1e-12)
    seconds = time.process_time() - t0
    ok = all(r.passed for r in results) and seconds < 5.0
    report(2, "projection/prox-linear/online-SGD routes agree to 1e-12, 500 triples",
           ok, f"{seconds:.1f}s CPU; " + "; ".join(r.detail for r in results))


def test_03_gradient_bound_identity():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(1000):
        problem, _ = gen_synthetic(
            SyntheticSpec(n=5, d=4, seed=int(rng.integers(2**32)),
                          mode=SyntheticMode.NOISY_LEAST_SQUARES, noise_std=0.5)
        )
        w = rng.normal(size=problem.dim)
        s = rng.normal(size=problem.n) * 2
        j = int(rng.integers(problem.n)) + 1
        lam = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e1))))
        delta = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e1))))
        worst = max(worst, abs(gradient_bound_residual(problem, w, s, j, lam, delta)))
    report(3, "weighted-gradient identity residual <= 1e-10 over 1000 states",
           worst <= 1e-10, f"max residual {worst:.3g}")


def test_04_finite_difference_gradients():
    rng = np.random.default_rng(404)
    h = 1e-6
    kink_margin = 1e-3
    worst_loss, worst_phi = 0.0, 0.0

    checked = 0
    while checked < 200:
        kind = LossKind.LOGISTIC if checked % 2 else LossKind.LEAST_SQUARES
        mode = SyntheticMode.LOGISTIC if kind is LossKind.LOGISTIC else SyntheticMode.NOISY_LEAST_SQUARES
        problem, _ = gen_synthetic(
            SyntheticSpec(n=4, d=3, seed=int(rng.integers(2**32)), mode=mode, noise_std=0.5)
        )
        w = rng.normal(size=problem.dim)
        i = int(rng.integers(problem.n)) + 1
        g = loss_grad(problem, i, w)
        for k in range(problem.dim):
            e = np.zeros(problem.dim)
            e[k] = h
            fd = (loss_value(problem, i, w + e) - loss_value(problem, i, w - e)) / (2 * h)
            denom = max(abs(fd), 1e-3)
            worst_loss = max(worst_loss, abs(g[k] - fd) / denom)
        checked += 1

    checked = 0
    while checked < 200:
        problem, _ = gen_synthetic(
            SyntheticSpec(n=4, d=3, seed=int(rng.integers(2**32)),
                          mode=SyntheticMode.NOISY_LEAST_SQUARES, noise_std=0.5)
        )
        w = rng.normal(size=problem.dim)
        s = rng.normal(size=problem.n)
        lam, delta = float(rng.uniform(0.1, 2)), float(rng.uniform(0.1, 2))
        anchor = SurrogateAnchor.at(problem, w, lam, delta)
        i = int(rng.integers(problem.n)) + 1
        if abs(loss_value(problem, i, w) - s[i - 1] + delta) <= kink_margin:
            continue
        gw, gs = grad_phi_i(anchor, problem, i, w, s)
        for k in range(problem.dim):
            e = np.zeros(problem.dim)
            e[k] = h
            fd = (phi_i(anchor, problem, i, w + e, s) - phi_i(anchor, problem, i, w - e, s)) / (2 * h)
            denom = max(abs(fd), 1e-3)
            worst_phi = max(worst_phi, abs(gw[k] - fd) / denom)
        es = np.zeros(problem.n)
        es[i - 1] = h
        fd_s = (phi_i(anchor, problem, i, w, s + es) - phi_i(anchor, problem, i, w, s - es)) / (2 * h)
        worst_phi = max(worst_phi, abs(gs[i - 1] - fd_s) / max(abs(fd_s), 1e-3))
        checked += 1

    ok = worst_loss <= 1e-5 and worst_phi <= 1e-5
    report(4, "loss and surrogate gradients match central differences to 1e-5",
           ok, f"max rel err loss {worst_loss:.3g}, surrogate {worst_phi:.3g}")


def test_05_slack_lower_bound():
    problem, _ = gen_synthetic(
        SyntheticSpec(n=50, d=10, seed=55, mode=SyntheticMode.NOISY_LEAST_SQUARES, noise_std=0.5)
    )
    lam = 1.0 / (4.0 * sample_constants(problem).l_max)
    delta = 1.0
    overall_min = math.inf
    for gamma in (0.5, 1.0):
        params = FuvalParams(
            lambda_schedule=constant(lam), delta_schedule=constant(delta), gamma=gamma
        )
        for seed in range(5):
            rng = np.random.default_rng(seed)
            state = IterateState(
                w=np.zeros(problem.dim), s=initial_slack(problem, np.zeros(problem.dim), SInit.AT_W0)
            )
            for _ in range(10_000):
                j = int(rng.integers(problem.n)) + 1
                state, _ = fuval_step(problem, state, params, j, lam, delta)
                overall_min = min(overall_min, float(state.s.min()))
    report(5, "slack iterates stay >= -1e-12 (lam = 1/(4 L_max), gamma in {0.5, 1})",
           overall_min >= -1e-12, f"min slack {overall_min:.3g}")


def test_06_sps_plus_fejer_monotonicity():
    specs = [
        SyntheticSpec(n=30, d=5, seed=6, mode=SyntheticMode.INTERPOLATING),
        SyntheticSpec(n=30, d=5, seed=6, mode=SyntheticMode.NOISY_LEAST_SQUARES, noise_std=0.5),
    ]
    worst_increase = -math.inf
    for spec in specs:
        problem, _ = gen_synthetic(spec)
        ref = reference_solve(problem, tol=1e-12)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            w = np.zeros(problem.dim)
            dist = float(np.linalg.norm(w - ref.w_star))
            for _ in range(1000):
                i = int(rng.integers(problem.n)) + 1
                w = sps_plus_step(problem, ref, w, i)
                new_dist = float(np.linalg.norm(w - ref.w_star))
                worst_increase = max(worst_increase, new_dist - dist)
                dist = new_dist
    report(6, "clipped Polyak step: distance to reference never increases (tol 1e-12)",
           worst_increase <= 1e-12, f"max per-step increase {worst_increase:.3g}")


def test_07_smooth_interpolation_bound_and_rate():
    t0 = time.process_time()
    problem, _ = gen_synthetic(SyntheticSpec(n=100, d=20, seed=77))
    ref = reference_solve(problem, tol=1e-12)
    consts = sample_constants(problem)
    dist0_sq = float(np.sum(ref.w_star**2))
    T = 10_000
    mins = []
    from fuvalkit.optimizers import SPSPlus

    for seed in range(5):
        trace = run(
            problem, SPSPlus(),
            RunConfig(iterations=T, seed=seed, reference=ref, eval_every=10),
        )
        mins.append(np.minimum.accumulate(np.maximum(trace.subopt, 0.0)))
    eval_t = trace.eval_t
    mean_min = np.mean(mins, axis=0)

    bound_ok = all(
        mean_min[k] <= 2.0 * consts.l_max * dist0_sq / eval_t[k]
        for k in range(1, eval_t.size)
    )
    window = (eval_t >= 100) & (eval_t <= T)
    slope = rate_fit_slope(eval_t[window], mean_min[window])
    seconds = time.process_time() - t0
    ok = bound_ok and slope <= -0.8 and seconds < 30.0
    report(7, "smooth interpolation bound holds at every logged step; rate slope <= -0.8",
           ok, f"slope {slope:.2f}, {seconds:.1f}s CPU")


def test_08_sgd_convergence_bound():
    problem, _ = gen_synthetic(SyntheticSpec(n=100, d=20, seed=77))
    ref = reference_solve(problem, tol=1e-12)
    consts = sample_constants(problem)
    lam = 1.0 / (4.0 * consts.l_max)
    delta = max(objective(problem, np.zeros(problem.dim)), 1e-8)
    gamma = 0.5
    params = FuvalParams(
        lambda_schedule=constant(lam), delta_schedule=constant(delta), gamma=gamma
    )
    s0 = initial_slack(problem, np.zeros(problem.dim), SInit.AT_W0)
    rc = RateConstants(l_max=consts.l_max, g_max=consts.g_max, gamma=gamma)
    details = []
    ok = True
    for T in (1_000, 10_000):
        lhs_vals, rhs = [], None
        for seed in range(20):
            trace = run(
                problem, Fuval(params),
                RunConfig(iterations=T, seed=seed, reference=ref, eval_every=T, average=True),
            )
            rep = evaluate_bounds(
                trace, ref, rc, BoundKind.FUVAL_SGD,
                problem=problem, lam=lam, delta=delta, s0=s0,
            )
            lhs_vals.append(rep.lhs)
            rhs = rep.rhs
        mean_lhs = float(np.mean(lhs_vals))
        ok = ok and mean_lhs <= 1.1 * rhs
        details.append(f"T={T}: mean lhs {mean_lhs:.3g} vs 1.1*rhs {1.1 * rhs:.3g}")
    report(8, "constant-step convergence bound: 20-seed mean within 1.1x of theory",
           ok, "; ".join(details))


def test_09_prox_linear_inv_sqrt_rate():
    problem, _ = gen_synthetic(SyntheticSpec(n=50, d=10, seed=99, mode=SyntheticMode.LOGISTIC))
    ref = reference_solve(problem, tol=1e-12)
    T = 10_000
    method = ProxLinearAppC(lambda_schedule=inv_sqrt(1.0), c_penalty=1.0)
    trace = run(
        problem, method,
        RunConfig(iterations=T, seed=0, reference=ref, eval_every=1, average=True),
    )
    ts = np.unique(np.logspace(2, math.log10(T), 20).astype(int))
    # eval_every=1 records f at the lambda-weighted average after every step t
    subopts = np.maximum(trace.f_lavg[ts] - ref.f_star, 1e-18)
    slope = rate_fit_slope(ts, subopts)
    report(9, "decaying-schedule weighted-average rate slope <= -0.4 on logistic synthetic",
           slope <= -0.4, f"slope {slope:.2f}")


def test_10_scale_invariance_of_schemes():
    from fuvalkit.optimizers import ScalingScheme, resolve_scaling

    problem, _ = gen_synthetic(
        SyntheticSpec(n=40, d=8, seed=10, mode=SyntheticMode.NOISY_LEAST_SQUARES, noise_std=0.5)
    )
    eta, T, seed = 0.5, 500, 3
    w0 = np.zeros(problem.dim)
    results = {}
    for alpha in (1.0, 0.01, 100.0):
        scaled = scale_least_squares(problem, alpha)
        for scheme in (ScalingScheme.UNIT_INVARIANT_FV, ScalingScheme.UNIT_INVARIANT_GRAD,
                       ScalingScheme.NAIVE):
            lam, delta = resolve_scaling(scheme, eta, scaled, w0)
            params = FuvalParams(lambda_schedule=constant(lam), delta_schedule=constant(delta))
            trace = run(scaled, Fuval(params), RunConfig(iterations=T, seed=seed, eval_every=T))
            results[(scheme, alpha)] = trace.final_w

    ok = True
    details = []
    for scheme in (ScalingScheme.UNIT_INVARIANT_FV, ScalingScheme.UNIT_INVARIANT_GRAD):
        for alpha in (0.01, 100.0):
            base = results[(scheme, 1.0)]
            dev = float(np.max(np.abs(results[(scheme, alpha)] - base))) / max(
                float(np.max(np.abs(base))), 1e-30
            )
            ok = ok and dev <= 1e-8
            details.append(f"{scheme.value}@{alpha:g}: rel dev {dev:.2g}")
    naive_dev = min(
        float(np.max(np.abs(results[(ScalingScheme.NAIVE, alpha)] - results[(ScalingScheme.NAIVE, 1.0)])))
        for alpha in (0.01, 100.0)
    )
    ok = ok and naive_dev > 1e-3
    details.append(f"naive min dev {naive_dev:.2g} (must exceed 1e-3)")
    report(10, "unit-invariant schemes reproduce trajectories under loss rescaling",
           ok, "; ".join(details))


def test_11_penalty_equivalence():
    problem, _ = gen_synthetic(
        SyntheticSpec(n=30, d=6, seed=11, mode=SyntheticMode.NOISY_LEAST_SQUARES, noise_std=0.5)
    )
    ref = reference_solve(problem, tol=1e-12)
    s_star = ref.per_sample_f_star
    worst_eq = max(
        abs(penalty_value(problem, ref.w_star, s_star, c) - ref.f_star) for c in (1.0, 2.0, 10.0)
    )
    rng = np.random.default_rng(111)
    worst_gap = 0.0
    for _ in range(1000):
        w = rng.normal(size=problem.dim)
        s = rng.normal(size=problem.n) * 3
        f = objective(problem, w)
        for c in (1.0, 2.0, 10.0):
            worst_gap = max(worst_gap, f - penalty_value(problem, w, s, c))
    ok = worst_eq <= 1e-10 and worst_gap <= 1e-10
    report(11, "penalty matches objective at exact slacks and dominates it elsewhere",
           ok, f"max |g - f| at optimum {worst_eq:.3g}, max violation {worst_gap:.3g}")


def test_12_sensitivity_experiment_shape(tmp_path):
    t0 = time.process_time()
    runner = CliRunner()

    data_flag = None
    base = os.environ.get("FUVALKIT_DATA")
    if base and (Path(base) / "mushrooms").exists():
        data_flag = ["--data", str(Path(base) / "mushrooms"), "--loss", "logistic"]
    source = data_flag or ["--synthetic", "logistic:n=200,d=20,seed=12"]

    common = source + ["--schemes", "naive,uifv,uigrad", "--eta-grid", "logspace:1e-4,1e2,25",
                       "--jobs", "1"]
    full_out = tmp_path / "full.csv"
    res_full = runner.invoke(
        cli_main,
        ["grid", "--methods", "gd,fuval-full", "--iterations", "200", "--out", str(full_out)] + common,
    )
    assert res_full.exit_code == 0, res_full.output
    stoch_out = tmp_path / "stoch.csv"
    res_stoch = runner.invoke(
        cli_main,
        ["grid", "--methods", "sgd,fuval", "--epochs", "20", "--out", str(stoch_out)] + common,
    )
    assert res_stoch.exit_code == 0, res_stoch.output

    def load(path):
        rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
        return [(r[0], r[1], float(r[2]), float(r[3]), int(r[5])) for r in rows]

    full_rows, stoch_rows = load(full_out), load(stoch_out)
    counts_ok = len(full_rows) == 25 + 75 and len(stoch_rows) == 25 + 75

    def best(rows, methods):
        vals = [r[3] for r in rows if r[0] in methods and not r[4] and math.isfinite(r[3])]
        return min(vals) if vals else math.inf

    best_classic = min(best(full_rows, {"gd"}), best(stoch_rows, {"sgd"}))
    best_adaptive = min(best(full_rows, {"fuval-full"}), best(stoch_rows, {"fuval"}))
    gate_ok = best_adaptive <= 10.0 * max(best_classic, 1e-18)
    seconds = time.process_time() - t0
    ok = counts_ok and gate_ok and seconds < 300.0
    report(12, "sensitivity grids complete; adaptive within 10x of best classical",
           ok, f"best classical {best_classic:.3g}, best adaptive {best_adaptive:.3g}, "
               f"{len(full_rows)}+{len(stoch_rows)} rows, {seconds:.0f}s CPU")
