"""Seeded property suites: projection oracles, update equivalences, algebraic
identities, and empirical convergence bounds.

The assembled updates below re-derive the slack-learning step through three
independent routes (projection, prox of a hinged linearization, gradient step
on the online surrogate) and exist solely to cross-check `fuval_step`. That
step applies `fuval_rule`, the same scalar rule that run() executes, so the
routes check the rule of the production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bench import (
    BoundKind,
    RateConstants,
    evaluate_bounds,
    reference_solve,
)
from .dataio import SyntheticMode, SyntheticSpec, gen_synthetic
from .optimizers import (
    Fuval,
    FuvalParams,
    IterateState,
    RunConfig,
    SInit,
    constant,
    fuval_step,
    run,
)
from .problems import Problem, loss_grad, loss_value
from .projections import (
    HalfspaceSlackInstance,
    _golden_section,
    brute_force_minimize,
    halfspace_project,
    halfspace_project_slack,
    max_linear_prox,
    positive_part,
)
from .surrogate import (
    SurrogateAnchor,
    grad_phi_i,
    gradient_bound_residual,
    inf_s_phi_i,
    penalty_value,
)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# assembled alternative-route updates


def fuval_step_via_projection(
    problem: Problem, state: IterateState, j: int, lam: float, delta: float
) -> tuple[np.ndarray, float]:
    """Slack-learning step assembled from the weighted halfspace projection
    (gamma = 1, no clamp)."""
    w, s_j = state.w, float(state.s[j - 1])
    a = loss_grad(problem, j, w)
    inst = HalfspaceSlackInstance(
        a=a, c=loss_value(problem, j, w), w0=w, s0=s_j - delta, delta=lam / delta
    )
    w_new, s_new = halfspace_project_slack(inst)
    return w_new, s_new


def fuval_step_via_prox_linear(
    problem: Problem, state: IterateState, j: int, lam: float, delta: float, c: float
) -> tuple[np.ndarray, float]:
    """Slack-learning step assembled from the prox of the hinged linearization
    (gamma = 1, finite clamp), via the rescaled slack substitution."""
    w, s_j = state.w, float(state.s[j - 1])
    nu = math.sqrt(delta / lam)
    g = loss_grad(problem, j, w)
    y0 = np.concatenate([w, [s_j / nu - math.sqrt(lam * delta)]])
    a = np.concatenate([g, [-nu]])
    c_lin = loss_value(problem, j, w) - s_j + delta
    y = max_linear_prox(y0, a, c_lin, beta=c * lam)
    return y[:-1], float(y[-1]) * nu


def fuval_step_via_online_sgd(
    problem: Problem, state: IterateState, j: int, lam: float, delta: float, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Slack-learning step as a scaled gradient step on the self-anchored
    online surrogate (no clamp)."""
    anchor = SurrogateAnchor.at(problem, state.w, lam, delta)
    grad_w, grad_s = grad_phi_i(anchor, problem, j, state.w, state.s)
    return state.w - gamma * lam * grad_w, state.s - gamma * delta * grad_s


# ---------------------------------------------------------------------------
# random instance helpers


def _random_problem(rng: np.random.Generator, n: int = 5, d: int = 4) -> Problem:
    spec = SyntheticSpec(
        n=n,
        d=d,
        seed=int(rng.integers(2**32)),
        mode=SyntheticMode.NOISY_LEAST_SQUARES,
        noise_std=0.5,
    )
    return gen_synthetic(spec)[0]


# ---------------------------------------------------------------------------
# suites


def suite_projections(instances: int = 1000, tol: float = 1e-6) -> list[PropertyResult]:
    """Closed forms of the three projection/prox subproblems against the
    brute-force oracle on seeded random instances."""
    rng = np.random.default_rng(20240)
    worst = {"halfspace": 0.0, "halfspace_slack": 0.0, "max_linear": 0.0}
    for _ in range(instances):
        d = int(rng.integers(1, 6))
        a = rng.normal(size=d) * rng.choice([0.1, 1.0, 10.0])
        c = float(rng.uniform(-10, 10))
        w0 = rng.normal(size=d)
        s0 = float(rng.normal())
        delta = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
        beta = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))

        # plain halfspace projection
        if float(a @ a) > 1e-12 or c <= 0:
            w_closed = halfspace_project(a, c, w0)
            def obj(w, w0=w0):
                r = w - w0
                return float(r @ r)

            _, f_oracle = brute_force_minimize(
                obj, w0, tol=1e-10, constraint=(a, float(a @ w0) - c)
            )
            worst["halfspace"] = max(worst["halfspace"], abs(obj(w_closed) - f_oracle))

        # halfspace with slack
        inst = HalfspaceSlackInstance(a=a, c=c, w0=w0, s0=s0, delta=delta)
        w_cl, s_cl = halfspace_project_slack(inst)

        def slack_obj(y, w0=w0, s0=s0, delta=delta):
            r = y[:-1] - w0
            return float(r @ r) + delta * (y[-1] - s0) ** 2

        coef = np.concatenate([a, [-1.0]])
        rhs = float(a @ w0) - c
        _, f_oracle = brute_force_minimize(
            slack_obj, np.concatenate([w0, [s0]]), tol=1e-10, constraint=(coef, rhs)
        )
        gap = abs(slack_obj(np.concatenate([w_cl, [s_cl]])) - f_oracle)
        worst["halfspace_slack"] = max(worst["halfspace_slack"], gap)

        # prox of the hinged linear function
        y0 = rng.normal(size=d)
        y_cl = max_linear_prox(y0, a, c, beta)

        def hinge_obj(y, a=a, c=c, y0=y0, beta=beta):
            r = y - y0
            return positive_part(c + float(a @ r)) + float(r @ r) / (2.0 * beta)

        # the objective depends on y only through a.(y - y0) and ||y - y0||,
        # so the minimizer lies on the ray y0 - t a; scan t by golden section
        a_sq = float(a @ a)
        t_hi = 2.0 * beta + 2.0 * positive_part(c) / max(a_sq, 1e-12)
        f_oracle = min(
            hinge_obj(y0 - t * a)
            for t in [_golden_section(lambda t: hinge_obj(y0 - t * a), 0.0, t_hi, 1e-10 * (1 + t_hi)), 0.0]
        )
        worst["max_linear"] = max(worst["max_linear"], abs(hinge_obj(y_cl) - f_oracle))

    return [
        PropertyResult(f"projection oracle: {name}", gap <= tol, f"max objective gap {gap:.3g}")
        for name, gap in worst.items()
    ]


def suite_equivalence(instances: int = 500, tol: float = 1e-12) -> list[PropertyResult]:
    """The three alternative routes agree with the direct update."""
    rng = np.random.default_rng(31337)
    worst_proj = worst_prox = worst_sgd = 0.0
    for _ in range(instances):
        problem = _random_problem(rng)
        n, d = problem.n, problem.dim
        w = rng.normal(size=d)
        s = rng.normal(size=n) * 2.0
        j = int(rng.integers(n)) + 1
        lam = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e1))))
        delta = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e1))))
        gamma = float(rng.uniform(0.1, 1.0))
        c = float(rng.uniform(1.0, 3.0))
        state = IterateState(w=w.copy(), s=s.copy(), t=0)

        params_inf = FuvalParams(
            lambda_schedule=constant(lam), delta_schedule=constant(delta), gamma=1.0
        )
        direct, _ = fuval_step(problem, state, params_inf, j, lam, delta)
        w_p, s_p = fuval_step_via_projection(problem, state, j, lam, delta)
        worst_proj = max(
            worst_proj,
            float(np.max(np.abs(direct.w - w_p))),
            abs(float(direct.s[j - 1]) - s_p),
        )

        params_c = FuvalParams(
            lambda_schedule=constant(lam),
            delta_schedule=constant(delta),
            gamma=1.0,
            c_penalty=c,
        )
        direct_c, _ = fuval_step(problem, state, params_c, j, lam, delta)
        w_m, s_m = fuval_step_via_prox_linear(problem, state, j, lam, delta, c)
        worst_prox = max(
            worst_prox,
            float(np.max(np.abs(direct_c.w - w_m))),
            abs(float(direct_c.s[j - 1]) - s_m),
        )

        params_g = FuvalParams(
            lambda_schedule=constant(lam), delta_schedule=constant(delta), gamma=gamma
        )
        direct_g, _ = fuval_step(problem, state, params_g, j, lam, delta)
        w_o, s_o = fuval_step_via_online_sgd(problem, state, j, lam, delta, gamma)
        worst_sgd = max(
            worst_sgd,
            float(np.max(np.abs(direct_g.w - w_o))),
            float(np.max(np.abs(direct_g.s - s_o))),
        )

    return [
        PropertyResult("equivalence: projection route", worst_proj <= tol, f"max dev {worst_proj:.3g}"),
        PropertyResult("equivalence: prox-linear route", worst_prox <= tol, f"max dev {worst_prox:.3g}"),
        PropertyResult("equivalence: online-SGD route", worst_sgd <= tol, f"max dev {worst_sgd:.3g}"),
    ]


def suite_identities(instances: int = 1000) -> list[PropertyResult]:
    """Exact algebraic identities of the surrogate and penalty."""
    rng = np.random.default_rng(55511)
    worst_resid = 0.0
    worst_inf_s = 0.0
    penalty_ok = True
    for k in range(instances):
        problem = _random_problem(rng)
        n, d = problem.n, problem.dim
        w = rng.normal(size=d)
        s = rng.normal(size=n) * 2.0
        j = int(rng.integers(n)) + 1
        lam = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e1))))
        delta = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e1))))

        worst_resid = max(
            worst_resid, abs(gradient_bound_residual(problem, w, s, j, lam, delta))
        )

        if k < 100:
            anchor = SurrogateAnchor.at(problem, w, lam, delta)
            closed = inf_s_phi_i(anchor, problem, j, w)

            def phi_of_s(sv, j=j, w=w, anchor=anchor, problem=problem):
                s_mod = s.copy()
                s_mod[j - 1] = sv[0]
                from .surrogate import phi_i

                return phi_i(anchor, problem, j, w, s_mod)

            _, numeric = brute_force_minimize(phi_of_s, np.array([float(s[j - 1])]), tol=1e-14)
            worst_inf_s = max(worst_inf_s, abs(closed - numeric))

        c = float(rng.choice([1.0, 2.0, 10.0]))
        fw = sum(loss_value(problem, i, w) for i in range(1, n + 1)) / n
        if penalty_value(problem, w, s, c) < fw - 1e-10:
            penalty_ok = False

    return [
        PropertyResult(
            "identity: gradient bound residual", worst_resid <= 1e-10, f"max |resid| {worst_resid:.3g}"
        ),
        PropertyResult(
            "identity: slack-minimized surrogate", worst_inf_s <= 1e-8, f"max dev {worst_inf_s:.3g}"
        ),
        PropertyResult("identity: penalty dominates objective", penalty_ok, ""),
    ]


def suite_bounds() -> list[PropertyResult]:
    """Empirical reproduction of the proven rates on an interpolating problem."""
    from .optimizers import SPSPlus

    spec = SyntheticSpec(n=50, d=10, seed=7, mode=SyntheticMode.INTERPOLATING)
    problem, _ = gen_synthetic(spec)
    reference = reference_solve(problem, tol=1e-12)
    from .problems import sample_constants as sc

    consts = sc(problem)

    # smooth interpolation bound for the clipped Polyak stepsize
    subopts = []
    for seed in range(3):
        trace = run(
            problem,
            SPSPlus(),
            RunConfig(iterations=2000, seed=seed, reference=reference, eval_every=100),
        )
        subopts.append(np.minimum.accumulate(trace.subopt))
    mean_min = np.mean(subopts, axis=0)
    eval_t = trace.eval_t
    dist0_sq = float(np.sum(reference.w_star**2))
    ok_smooth = all(
        mean_min[k] <= 2.0 * consts.l_max * dist0_sq / eval_t[k] for k in range(1, eval_t.size)
    )

    # smooth convex rate with noise radius, gamma < 1
    lam = 1.0 / (4.0 * consts.l_max)
    delta = max(float(np.mean([loss_value(problem, i, np.zeros(problem.dim)) for i in range(1, problem.n + 1)])), 1e-6)
    params = FuvalParams(
        lambda_schedule=constant(lam),
        delta_schedule=constant(delta),
        gamma=0.5,
        s_init=SInit.AT_W0,
    )
    lhs_vals, rhs_val = [], None
    for seed in range(5):
        config = RunConfig(iterations=2000, seed=seed, reference=reference, eval_every=500, average=True)
        trace = run(problem, Fuval(params), config)
        s0 = np.array([loss_value(problem, i, np.zeros(problem.dim)) for i in range(1, problem.n + 1)])
        report = evaluate_bounds(
            trace,
            reference,
            RateConstants(l_max=consts.l_max, g_max=consts.g_max, gamma=0.5),
            BoundKind.FUVAL_SGD,
            problem=problem,
            lam=lam,
            delta=delta,
            s0=s0,
        )
        lhs_vals.append(report.lhs)
        rhs_val = report.rhs
    ok_fuval = float(np.mean(lhs_vals)) <= 1.1 * rhs_val

    return [
        PropertyResult("bound: smooth interpolation rate", ok_smooth, ""),
        PropertyResult("bound: smooth convex rate with noise radius", ok_fuval, ""),
    ]


SUITES = {
    "projections": suite_projections,
    "equivalence": suite_equivalence,
    "identities": suite_identities,
    "bounds": suite_bounds,
}


def run_suite(name: str) -> list[PropertyResult]:
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite())
        return results
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
