"""Reference solving, convergence-bound evaluation, grid-search sensitivity
experiments, and CSV export."""

from __future__ import annotations

import concurrent.futures
import csv
import enum
import io
import math
import multiprocessing
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .optimizers import (
    GD,
    SGD,
    SPS,
    ConfigurationError,
    Fuval,
    FuvalFullBatch,
    FuvalParams,
    MethodSpec,
    ProxLinearAppC,
    RunConfig,
    ScalingScheme,
    Schedule,
    SPSPlus,
    Trace,
    _run_lockstep,
    constant,
    resolve_scaling,
    run,
)
from .problems import Problem, objective, objective_grad, per_sample_values, sample_constants

TRACE_HEADER = ["t", "sample", "tau", "f", "subopt", "grad_sq", "stepsize"]
SENSITIVITY_HEADER = ["method", "scheme", "eta", "subopt_mean", "subopt_median", "diverged", "seconds"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class ReferenceSolution:
    """High-precision solve supplying w*, f*, and the per-sample optima."""

    w_star: np.ndarray
    f_star: float
    per_sample_f_star: np.ndarray
    grad_norm_at_solution: float
    sigma: float
    tol: float
    converged: bool = True


@dataclass(frozen=True)
class RateConstants:
    """Constants entering the convergence-bound right-hand sides."""

    l_max: float
    g_max: float | None
    gamma: float = 1.0
    c_penalty: float = 1.0

    def model_lipschitz(self, lam: float, delta: float, lipschitz: np.ndarray) -> float:
        """RMS Lipschitz constant of the linearized penalty models."""
        m = 1.0 + self.c_penalty * np.sqrt((lam / delta) * lipschitz**2 + 1.0)
        return float(np.sqrt(np.mean(m**2)))


def reference_solve(
    problem: Problem,
    tol: float = 1e-10,
    max_iters: int = 200_000,
    w0: np.ndarray | None = None,
) -> ReferenceSolution:
    """Full-batch gradient descent with backtracking line search until the
    gradient norm drops below tol.  Returns the best iterate flagged
    not-converged when the iteration cap is hit, or as soon as an iteration
    leaves w and the step bit-identical: every remaining iteration would
    repeat it, so the cap's result is known."""
    if not 0 < tol < math.inf:
        raise ConfigurationError(f"tol must be finite and positive, got {tol!r}")
    w = np.zeros(problem.dim) if w0 is None else w0.astype(float).copy()
    if not np.all(np.isfinite(w)):
        raise ConfigurationError("w0 must be finite")
    f = objective(problem, w)
    step = 1.0
    armijo = 0.5e-4
    converged = False
    for _ in range(max_iters):
        g = objective_grad(problem, w)
        g_norm = float(np.linalg.norm(g))
        if g_norm <= tol:
            converged = True
            break
        g_sq = g_norm * g_norm
        # backtracking halving with a little growth to recover long steps
        last_step = step
        step = min(step * 2.0, 1e8)
        while True:
            f_new = objective(problem, w - step * g)
            if f_new <= f - armijo * step * g_sq or step < 1e-18:
                break
            step *= 0.5
        w_new = w - step * g
        if step == last_step and w_new.tobytes() == w.tobytes():
            # f and g are functions of w's bits, so every later iteration
            # repeats this one; g_norm is the gradient at the last iterate
            break
        w = w_new
        f = f_new
    else:  # the cap was hit: report the gradient at the last iterate
        g_norm = float(np.linalg.norm(objective_grad(problem, w)))

    consts = sample_constants(problem)
    return ReferenceSolution(
        w_star=w,
        f_star=f,
        per_sample_f_star=per_sample_values(problem, w),
        grad_norm_at_solution=g_norm,
        sigma=f - float(np.mean(consts.inf_fi)),
        tol=tol,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# bound evaluation


class BoundKind(enum.Enum):
    SPS_PLUS_LIPSCHITZ = "sps_plus_lipschitz"  # G / sqrt(T) * ||w0 - w*||
    SPS_PLUS_SMOOTH = "sps_plus_smooth"  # 2 L / T * ||w0 - w*||^2
    FUVAL_SGD = "fuval_sgd"  # smooth convex rate with noise radius
    PROX_LINEAR = "prox_linear"  # inv-sqrt schedule rate


@dataclass(frozen=True)
class BoundReport:
    kind: BoundKind
    lhs: float
    rhs: float
    satisfied: bool
    note: str = ""


def evaluate_bounds(
    trace: Trace,
    reference: ReferenceSolution,
    constants: RateConstants,
    which: BoundKind,
    problem: Problem | None = None,
    w0: np.ndarray | None = None,
    lam: float | None = None,
    delta: float | None = None,
    s0: np.ndarray | None = None,
) -> BoundReport:
    """Compare a trace's empirical suboptimality against a proven bound. The
    FUVAL_SGD and PROX_LINEAR bounds read the trace's last averaged iterate
    (uniform and lambda-weighted), so their run needs RunConfig.average."""
    T = int(trace.eval_t[-1])
    w_init = np.zeros(reference.w_star.shape) if w0 is None else w0
    dist0_sq = float(np.sum((w_init - reference.w_star) ** 2))

    if which is BoundKind.SPS_PLUS_LIPSCHITZ:
        if constants.g_max is None:
            return BoundReport(which, math.nan, math.nan, False, "G unavailable for this loss")
        lhs = float(np.nanmin(trace.subopt[1:]))
        rhs = constants.g_max * math.sqrt(dist0_sq) / math.sqrt(T)
        return BoundReport(which, lhs, rhs, lhs <= rhs)

    if which is BoundKind.SPS_PLUS_SMOOTH:
        lhs = float(np.nanmin(trace.subopt))
        rhs = 2.0 * constants.l_max * dist0_sq / T
        return BoundReport(which, lhs, rhs, lhs <= rhs)

    if which in (BoundKind.FUVAL_SGD, BoundKind.PROX_LINEAR) and trace.f_avg is None:
        raise ConfigurationError(f"the {which.value} bound needs a run with RunConfig(average=True)")

    if which is BoundKind.FUVAL_SGD:
        if lam is None or delta is None or s0 is None:
            raise ConfigurationError("fuval_sgd bound needs lam, delta and s0")
        gamma = constants.gamma
        lam_L = lam * constants.l_max
        if not (0 < gamma < 1) or lam_L >= 0.5:
            return BoundReport(which, math.nan, math.nan, False, "hypotheses violated")
        s_star = reference.per_sample_f_star
        init = dist0_sq / lam + float(np.sum((s0 - s_star) ** 2)) / delta
        rhs = init / (2.0 * gamma * (1.0 - gamma) * (1.0 - lam_L) * T)
        rhs += reference.sigma * (gamma + lam_L * (1.0 - gamma)) / ((1.0 - gamma) * (1.0 - lam_L))
        lhs = float(trace.f_avg[-1]) - reference.f_star
        return BoundReport(which, lhs, rhs, lhs <= rhs)

    # PROX_LINEAR
    if lam is None or delta is None or s0 is None or problem is None:
        raise ConfigurationError("prox_linear bound needs lam, delta, s0, and the problem")
    if constants.g_max is None:
        return BoundReport(which, math.nan, math.nan, False, "G unavailable for this loss")
    lipschitz = sample_constants(problem).lipschitz
    m_bar = constants.model_lipschitz(lam, delta, lipschitz)
    s_star = reference.per_sample_f_star
    init = dist0_sq / lam + float(np.sum((s0 - s_star) ** 2)) / delta
    rhs = init / (4.0 * (math.sqrt(T + 2) - 1.0))
    rhs += m_bar**2 * math.sqrt(lam * delta) * (1.0 + math.log(T + 1)) / (2.0 * math.sqrt(T + 2) - 2.0)
    lhs = float(trace.f_lavg[-1]) - reference.f_star
    return BoundReport(which, lhs, rhs, lhs <= rhs)


def rate_fit_slope(ts: np.ndarray, values: np.ndarray, floor: float = 1e-18) -> float:
    """Least-squares slope of log(value) against log(t)."""
    mask = ts > 0
    x = np.log(ts[mask].astype(float))
    y = np.log(np.maximum(values[mask], floor))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# grid search


@dataclass(frozen=True)
class SensitivityRow:
    method: str
    scheme: str
    eta: float
    subopt_mean: float
    subopt_median: float
    diverged: bool
    seconds: float


@dataclass
class SensitivityTable:
    rows: list[SensitivityRow] = field(default_factory=list)

    def best(self, method: str | None = None) -> float:
        vals = [
            r.subopt_mean
            for r in self.rows
            if not r.diverged and (method is None or r.method == method)
        ]
        return min(vals) if vals else math.inf


@dataclass(frozen=True)
class GridCell:
    method_family: str  # gd | sgd | fuval | fuval-full
    scheme: ScalingScheme | None
    eta: float


def _scheme_name(scheme: ScalingScheme | None) -> str:
    return scheme.value if scheme is not None else "-"


def build_method(
    family: str,
    eta: float,
    scheme: ScalingScheme | None,
    problem: Problem,
    w0: np.ndarray,
    gamma: float = 1.0,
    c_penalty: float = math.inf,
    schedule: Callable[[float], Schedule] = constant,
) -> MethodSpec:
    """Instantiate a method by family name, resolving the scaling scheme;
    `schedule` (constant or inv_sqrt) turns each step scale into its schedule."""
    if family == "gd":
        return GD(step=eta)
    if family == "sgd":
        return SGD(step=eta)
    if family == "sps":
        return SPS()
    if family == "sps+":
        return SPSPlus()
    if family == "proxlin":
        return ProxLinearAppC(lambda_schedule=schedule(eta), c_penalty=c_penalty)
    if family in ("fuval", "fuval-full"):
        lam, delta = resolve_scaling(
            scheme if scheme is not None else ScalingScheme.NAIVE, eta, problem, w0
        )
        params = FuvalParams(
            lambda_schedule=schedule(lam),
            delta_schedule=schedule(delta),
            gamma=gamma,
            c_penalty=c_penalty,
        )
        return Fuval(params) if family == "fuval" else FuvalFullBatch(params)
    raise ConfigurationError(f"unknown method family {family!r}")


def _run_seed(problem, reference, methods, iterations, epochs, eval_every, seed) -> list[tuple[float, float]]:
    """(final suboptimality, seconds) of every cell at one seed; inf marks a
    diverged cell or one whose method could not be built (None).

    Full-batch cells run one by one through run(); the stochastic cells all
    advance in one lockstep pass, and each takes an equal share of its time.
    """
    config = RunConfig(
        iterations=iterations, epochs=epochs, seed=seed, reference=reference, eval_every=eval_every
    )
    traces = {k: run(problem, m, config) for k, m in enumerate(methods) if isinstance(m, (GD, FuvalFullBatch))}
    lockstep = [k for k, m in enumerate(methods) if m is not None and k not in traces]
    if lockstep:
        traces.update(zip(lockstep, _run_lockstep(problem, [methods[k] for k in lockstep], config)))
    out = []
    for k in range(len(methods)):
        trace = traces.get(k)
        final = math.inf if trace is None or trace.diverged else trace.final_subopt()
        out.append((final if math.isfinite(final) else math.inf, trace.seconds if trace else 0.0))
    return out


# the shared grid arguments, set once in each pool worker by _init_worker
_WORKER_ARGS: tuple = ()


def _init_worker(*args) -> None:
    global _WORKER_ARGS
    _WORKER_ARGS = args


def _run_seed_in_worker(seed: int) -> list[tuple[float, float]]:
    return _run_seed(*_WORKER_ARGS, seed)


def grid_search(
    problem: Problem,
    reference: ReferenceSolution,
    families: list[str],
    schemes: list[ScalingScheme],
    eta_grid: np.ndarray,
    iterations: int | None = None,
    epochs: int | None = None,
    seeds: list[int] | None = None,
    eval_every: int = 1_000_000,
    jobs: int = 1,
) -> SensitivityTable:
    """Sensitivity sweep: one row per (method, scheme, eta).

    GD and SGD have no scaling scheme; the slack-learning families get one
    row per scheme.  Divergence is recorded as an infinite row, never raised.
    Each seed is one unit of work; `jobs` > 1 runs the seeds in a process
    pool that receives the problem once per worker.
    """
    etas = np.asarray(eta_grid, dtype=float)
    if etas.size == 0:
        raise ConfigurationError("eta grid must be nonempty")
    if np.unique(etas).size != etas.size:
        raise ConfigurationError("duplicate eta in grid")
    seeds = seeds or [0]
    # exactly one run length is set, non-negative, and eval_every is at least 1
    RunConfig(iterations=iterations, epochs=epochs, eval_every=eval_every).total_steps(problem.n)

    cells = []
    for family in families:
        cell_schemes = [None] if family in ("gd", "sgd") else schemes
        for scheme in cell_schemes:
            for eta in np.sort(etas):
                cells.append(GridCell(family, scheme, float(eta)))
    cells.sort(key=lambda c: (c.method_family, _scheme_name(c.scheme), c.eta))

    w0 = np.zeros(problem.dim)
    methods = []
    for cell in cells:
        try:
            methods.append(build_method(cell.method_family, cell.eta, cell.scheme, problem, w0))
        except ConfigurationError:
            methods.append(None)

    shared = (problem, reference, methods, iterations, epochs, eval_every)
    workers = min(jobs, len(seeds))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_worker,
            initargs=shared,
        ) as pool:
            per_seed = list(pool.map(_run_seed_in_worker, seeds))
    else:
        per_seed = [_run_seed(*shared, seed) for seed in seeds]

    table = SensitivityTable()
    for k, cell in enumerate(cells):
        finals = [results[k][0] for results in per_seed]
        diverged = any(math.isinf(f) for f in finals)
        mean, median = (math.inf, math.inf) if diverged else (float(np.mean(finals)), float(np.median(finals)))
        table.rows.append(
            SensitivityRow(
                method=cell.method_family,
                scheme=_scheme_name(cell.scheme),
                eta=cell.eta,
                subopt_mean=mean,
                subopt_median=median,
                diverged=diverged,
                seconds=sum(results[k][1] for results in per_seed),
            )
        )
    return table


# ---------------------------------------------------------------------------
# CSV export


def trace_csv(trace: Trace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    for k in range(trace.eval_t.size):
        writer.writerow(
            [
                int(trace.eval_t[k]),
                int(trace.sample[k]),
                _fmt(trace.tau[k]),
                _fmt(trace.f[k]),
                _fmt(trace.subopt[k]),
                _fmt(trace.grad_sq[k]),
                _fmt(trace.stepsize[k]),
            ]
        )
    return buf.getvalue()


def sensitivity_csv(table: SensitivityTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SENSITIVITY_HEADER)
    for r in table.rows:
        writer.writerow(
            [
                r.method,
                r.scheme,
                _fmt(r.eta),
                _fmt(r.subopt_mean),
                _fmt(r.subopt_median),
                int(r.diverged),
                _fmt(r.seconds),
            ]
        )
    return buf.getvalue()


def meta_sidecar(meta: dict) -> str:
    keys = [
        "seed",
        "T",
        "gamma",
        "c",
        "lambda_base",
        "delta_base",
        "scheme",
        "reference_f_star",
        "reference_tol",
        "reference_converged",
        "reference_grad_norm",
    ]
    lines = []
    for key in keys:
        if key in meta:
            value = meta[key]
            lines.append(f"{key}={_fmt(value) if isinstance(value, float) else value}")
    for key, value in meta.items():
        if key not in keys:
            lines.append(f"{key}={_fmt(value) if isinstance(value, float) else value}")
    return "\n".join(lines) + "\n"


def export_csv(obj: Trace | SensitivityTable, path) -> None:
    """Write a trace or sensitivity table (and a .meta sidecar for traces)."""
    from pathlib import Path

    path = Path(path)
    try:
        if isinstance(obj, Trace):
            path.write_text(trace_csv(obj))
            path.with_suffix(".meta").write_text(meta_sidecar(obj.meta))
        else:
            path.write_text(sensitivity_csv(obj))
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc
