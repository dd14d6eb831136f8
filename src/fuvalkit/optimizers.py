"""Iterative methods: GD, SGD, Polyak-stepsize variants, the slack-learning
updates (stochastic and full batch), schedules, scaling schemes, and the run
loop producing traces."""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from .problems import (
    ContractViolation,
    Problem,
    SampleConstants,
    _grad_coef,
    _loss,
    loss_grad,
    loss_grad_coef,
    loss_value,
    objective,
    objective_grad,
    per_sample_values,
    row_norms_sq,
    sample_constants,
)
from .projections import ZERO_GRAD_SQ, positive_part

DIVERGENCE_LIMIT = 1e100


class ConfigurationError(ValueError):
    """Invalid method/problem/config pairing."""


# ---------------------------------------------------------------------------
# schedules and scaling


class ScheduleKind(enum.Enum):
    CONSTANT = "constant"
    INV_SQRT = "inv_sqrt"


@dataclass(frozen=True)
class Schedule:
    kind: ScheduleKind
    base: float

    def __post_init__(self):
        if self.base <= 0:
            raise ConfigurationError("schedule base must be positive")

    def value(self, t: int) -> float:
        if self.kind is ScheduleKind.CONSTANT:
            return self.base
        return self.base / math.sqrt(t + 1)


def constant(base: float) -> Schedule:
    return Schedule(ScheduleKind.CONSTANT, base)


def inv_sqrt(base: float) -> Schedule:
    return Schedule(ScheduleKind.INV_SQRT, base)


class ScalingScheme(enum.Enum):
    """Rules deriving the two step scales from one dimensionless factor.

    The pair is chosen so that rescaling every loss by a constant leaves the
    parameter trajectory unchanged (except NAIVE, which ignores the problem).
    """

    NAIVE = "naive"
    UNIT_INVARIANT_FV = "uifv"
    UNIT_INVARIANT_GRAD = "uigrad"
    REMARK_LIPSCHITZ = "lipschitz"
    REMARK_FV = "remarkfv"


def resolve_scaling(
    scheme: ScalingScheme,
    eta: float,
    problem: Problem,
    w0: np.ndarray,
    constants: SampleConstants | None = None,
) -> tuple[float, float]:
    """Map (scheme, eta, problem statistics at w0) to base (lambda, delta)."""
    if eta <= 0:
        raise ConfigurationError("stepsize factor eta must be positive")
    if scheme is ScalingScheme.NAIVE:
        return eta, eta

    if constants is None:
        constants = sample_constants(problem)

    if scheme is ScalingScheme.REMARK_LIPSCHITZ:
        if constants.g_max is None:
            # least squares has no global Lipschitz constant; fall back to
            # the function-value variant
            scheme = ScalingScheme.REMARK_FV
        else:
            return eta * float(w0 @ w0) / constants.g_max, eta * constants.g_max

    f0 = objective(problem, w0)
    if scheme in (ScalingScheme.UNIT_INVARIANT_FV, ScalingScheme.REMARK_FV):
        if f0 <= 0:
            raise ConfigurationError(f"scheme {scheme.value} needs f(w0) > 0")
        if scheme is ScalingScheme.UNIT_INVARIANT_FV:
            return eta / f0, eta * f0
        return eta * float(w0 @ w0) / f0, eta * f0

    # UNIT_INVARIANT_GRAD
    g0_sq = float(np.sum(objective_grad(problem, w0) ** 2))
    if f0 <= 0 or g0_sq <= 0:
        raise ConfigurationError("scheme uigrad needs f(w0) > 0 and a nonzero gradient at w0")
    return eta * f0 / g0_sq, eta * f0


# ---------------------------------------------------------------------------
# method specifications


class SInit(enum.Enum):
    AT_W0 = "at_w0"  # s_i = f_i(w0)
    ZEROS = "zeros"


@dataclass(frozen=True)
class FuvalParams:
    lambda_schedule: Schedule
    delta_schedule: Schedule
    gamma: float = 1.0
    c_penalty: float = math.inf
    s_init: SInit | np.ndarray = SInit.AT_W0

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigurationError("gamma must lie in (0, 1]")
        if self.c_penalty < 1.0:
            raise ConfigurationError("penalty multiplier must be >= 1")


@dataclass(frozen=True)
class GD:
    step: float


@dataclass(frozen=True)
class SGD:
    step: float


@dataclass(frozen=True)
class SPS:
    pass


@dataclass(frozen=True)
class SPSPlus:
    pass


@dataclass(frozen=True)
class Fuval:
    params: FuvalParams


@dataclass(frozen=True)
class FuvalFullBatch:
    params: FuvalParams


@dataclass(frozen=True)
class ProxLinearAppC:
    lambda_schedule: Schedule
    c_penalty: float = 1.0

    def __post_init__(self):
        if self.c_penalty < 1.0:
            raise ConfigurationError("penalty multiplier must be >= 1")


MethodSpec = GD | SGD | SPS | SPSPlus | Fuval | FuvalFullBatch | ProxLinearAppC


@dataclass
class IterateState:
    """Current parameter vector, slack vector, and iteration counter."""

    w: np.ndarray
    s: np.ndarray
    t: int = 0


@dataclass(frozen=True)
class StepRecord:
    sample: int
    tau: float
    f_sample: float
    grad_sq: float
    stepsize: float


# ---------------------------------------------------------------------------
# single-step updates


def _require_reference(reference: Any):
    if reference is None:
        raise ConfigurationError("this method needs a reference solution with per-sample optima")


def sps_step(problem: Problem, reference: Any, w: np.ndarray, i: int) -> np.ndarray:
    """Polyak step toward the known per-sample optimum (step may be negative)."""
    _require_reference(reference)
    g = loss_grad(problem, i, w)
    g_sq = float(g @ g)
    if g_sq <= ZERO_GRAD_SQ:
        return w.copy()
    gap = loss_value(problem, i, w) - float(reference.per_sample_f_star[i - 1])
    return w - (gap / g_sq) * g


def sps_plus_step(problem: Problem, reference: Any, w: np.ndarray, i: int) -> np.ndarray:
    """Polyak step with the gap clipped at zero, so the stepsize stays >= 0."""
    _require_reference(reference)
    g = loss_grad(problem, i, w)
    g_sq = float(g @ g)
    if g_sq <= ZERO_GRAD_SQ:
        return w.copy()
    gap = positive_part(loss_value(problem, i, w) - float(reference.per_sample_f_star[i - 1]))
    return w - (gap / g_sq) * g


def fuval_tau(f_j: float, s_j: float, grad_sq: float, lam_t: float, delta_t: float, c: float) -> float:
    """Dimensionless step multiplier, clamped to [0, c]."""
    ratio = positive_part(f_j - s_j + delta_t) / (delta_t + lam_t * grad_sq)
    return min(c, ratio)


def fuval_step(
    problem: Problem,
    state: IterateState,
    params: FuvalParams,
    j: int,
    lam_t: float,
    delta_t: float,
) -> tuple[IterateState, StepRecord]:
    """One stochastic slack-learning step on sample j."""
    if lam_t <= 0 or delta_t <= 0:
        raise ContractViolation("step scales must be positive")
    f_j = loss_value(problem, j, state.w)
    g = loss_grad(problem, j, state.w)
    g_sq = float(g @ g)
    tau = fuval_tau(f_j, float(state.s[j - 1]), g_sq, lam_t, delta_t, params.c_penalty)
    w = state.w - params.gamma * tau * lam_t * g
    s = state.s.copy()
    s[j - 1] += params.gamma * delta_t * (tau - 1.0)
    record = StepRecord(
        sample=j, tau=tau, f_sample=f_j, grad_sq=g_sq, stepsize=params.gamma * tau * lam_t
    )
    return IterateState(w=w, s=s, t=state.t + 1), record


def fuval_full_batch_step(
    problem: Problem,
    w: np.ndarray,
    s: float,
    params: FuvalParams,
    lam_t: float,
    delta_t: float,
) -> tuple[np.ndarray, float, float]:
    """Full-batch variant with a scalar slack; returns (w', s', tau)."""
    if lam_t <= 0 or delta_t <= 0:
        raise ContractViolation("step scales must be positive")
    f_w = objective(problem, w)
    g = objective_grad(problem, w)
    g_sq = float(g @ g)
    tau = fuval_tau(f_w, s, g_sq, lam_t, delta_t, params.c_penalty)
    w_new = w - params.gamma * tau * lam_t * g
    s_new = s + params.gamma * delta_t * (tau - 1.0)
    return w_new, s_new, tau


def prox_linear_appC_step(
    problem: Problem,
    state: IterateState,
    lam_t: float,
    c: float,
    j: int,
) -> tuple[IterateState, StepRecord]:
    """Single-scale prox-linear step; equals the two-scale step after the
    identification tau_here = lam_t * tau_two_scale."""
    if lam_t <= 0:
        raise ContractViolation("step scale must be positive")
    if c < 1:
        raise ContractViolation("penalty multiplier must be >= 1")
    f_j = loss_value(problem, j, state.w)
    g = loss_grad(problem, j, state.w)
    g_sq = float(g @ g)
    tau = min(lam_t * c, positive_part(f_j - float(state.s[j - 1]) + lam_t) / (g_sq + 1.0))
    w = state.w - tau * g
    s = state.s.copy()
    s[j - 1] += tau - lam_t
    record = StepRecord(sample=j, tau=tau, f_sample=f_j, grad_sq=g_sq, stepsize=tau)
    return IterateState(w=w, s=s, t=state.t + 1), record


def initial_slack(problem: Problem, w0: np.ndarray, s_init: SInit | np.ndarray) -> np.ndarray:
    if isinstance(s_init, np.ndarray):
        if s_init.shape != (problem.n,):
            raise ConfigurationError("custom slack initialization has wrong length")
        # positive_part(nan) is 0, so a NaN slack would pin its sample's tau at 0
        if not np.all(np.isfinite(s_init)):
            raise ConfigurationError("custom slack initialization must be finite")
        return s_init.astype(float).copy()
    if s_init is SInit.ZEROS:
        return np.zeros(problem.n)
    return per_sample_values(problem, w0)


# ---------------------------------------------------------------------------
# run loop and traces


@dataclass
class RunConfig:
    iterations: int | None = None
    epochs: int | None = None
    seed: int = 0
    reference: Any = None  # needs .f_star and .per_sample_f_star when present
    eval_every: int = 10
    store_iterates: bool = False
    w0: np.ndarray | None = None

    def total_steps(self, n: int) -> int:
        if (self.iterations is None) == (self.epochs is None):
            raise ConfigurationError("specify exactly one of iterations or epochs")
        return self.iterations if self.iterations is not None else self.epochs * n


@dataclass
class Trace:
    """Per-evaluation records of one run plus its metadata."""

    eval_t: np.ndarray
    sample: np.ndarray
    tau: np.ndarray
    f: np.ndarray
    subopt: np.ndarray
    grad_sq: np.ndarray
    stepsize: np.ndarray
    dist_to_ref: np.ndarray
    status: str
    meta: dict
    iterates: np.ndarray | None = None
    lambdas: np.ndarray | None = None
    final_w: np.ndarray | None = None
    final_s: np.ndarray | None = None
    seconds: float = 0.0

    @property
    def diverged(self) -> bool:
        return self.status == "diverged"

    def final_subopt(self) -> float:
        return float(self.subopt[-1])


def _method_meta(method: MethodSpec) -> dict:
    if isinstance(method, (GD, SGD)):
        return {"method": type(method).__name__.lower(), "step": method.step}
    if isinstance(method, (SPS, SPSPlus)):
        return {"method": "sps" if isinstance(method, SPS) else "sps+"}
    if isinstance(method, ProxLinearAppC):
        return {
            "method": "prox_linear",
            "lambda_base": method.lambda_schedule.base,
            "c": method.c_penalty,
        }
    params = method.params
    return {
        "method": "fuval_full" if isinstance(method, FuvalFullBatch) else "fuval",
        "lambda_base": params.lambda_schedule.base,
        "delta_base": params.delta_schedule.base,
        "gamma": params.gamma,
        "c": params.c_penalty,
    }


@np.errstate(over="ignore", invalid="ignore")  # divergence is detected explicitly
def run(problem: Problem, method: MethodSpec, config: RunConfig) -> Trace:
    """Execute a method for the configured number of steps.

    Index sampling is i.i.d. uniform from a generator seeded by config.seed,
    so identical configs give bit-identical traces.  A NaN/Inf objective,
    or a NaN/Inf entry written into w, halts the run with a diverged status.
    """
    n, d = problem.n, problem.dim
    total = config.total_steps(n)
    rng = np.random.default_rng(config.seed)
    reference = config.reference

    if isinstance(method, (SPS, SPSPlus)) and reference is None:
        raise ConfigurationError("SPS/SPS+ need a reference solution")
    if reference is not None and getattr(reference, "converged", True) is False:
        if isinstance(method, (SPS, SPSPlus)):
            raise ConfigurationError("SPS/SPS+ refuse a non-converged reference")

    w = np.zeros(d) if config.w0 is None else config.w0.astype(float).copy()
    if not np.all(np.isfinite(w)):
        raise ConfigurationError("w0 must be finite")

    needs_slack = isinstance(method, (Fuval, ProxLinearAppC))
    if isinstance(method, Fuval):
        s = initial_slack(problem, w, method.params.s_init)
    elif isinstance(method, ProxLinearAppC):
        s = initial_slack(problem, w, SInit.AT_W0)
    else:
        s = np.zeros(0)
    if isinstance(method, FuvalFullBatch):
        s_scalar = objective(problem, w) if method.params.s_init is SInit.AT_W0 else 0.0

    f_star = float(reference.f_star) if reference is not None else math.nan
    w_star = np.asarray(reference.w_star) if reference is not None else None
    per_sample_star = (
        np.asarray(reference.per_sample_f_star) if reference is not None else None
    )
    norms_sq = row_norms_sq(problem)

    records: list[tuple] = []
    iterates = [w.copy()] if config.store_iterates else None
    lambdas: list[float] = [] if config.store_iterates else None
    status = "ok"
    last = (0, math.nan, math.nan, math.nan, math.nan)  # sample, tau, f_j, g_sq, step

    def evaluate(t: int):
        f = objective(problem, w)
        sub = f - f_star if reference is not None else math.nan
        dist = float(np.linalg.norm(w - w_star)) if w_star is not None else math.nan
        records.append((t, last[0], last[1], f, sub, last[3], last[4], dist))
        return f

    t0 = time.perf_counter()
    f = evaluate(0)
    gamma = method.params.gamma if isinstance(method, (Fuval, FuvalFullBatch)) else 1.0

    for t in range(total):
        if isinstance(method, (GD, FuvalFullBatch)):
            j = 0
            cols = slice(None)  # a full-batch step writes all of w
        else:
            j = int(rng.integers(n)) + 1
            cols, vals = problem.row(j)

        if isinstance(method, GD):
            g = objective_grad(problem, w)
            w = w - method.step * g
            last = (0, math.nan, math.nan, float(g @ g), method.step)
        elif isinstance(method, SGD):
            coef = loss_grad_coef(problem, j, w)
            f_j = loss_value(problem, j, w)
            w[cols] -= method.step * coef * vals
            last = (j, math.nan, f_j, coef * coef * norms_sq[j - 1], method.step)
        elif isinstance(method, (SPS, SPSPlus)):
            coef = loss_grad_coef(problem, j, w)
            g_sq = coef * coef * norms_sq[j - 1]
            f_j = loss_value(problem, j, w)
            if g_sq > ZERO_GRAD_SQ:
                gap = f_j - float(per_sample_star[j - 1])
                if isinstance(method, SPSPlus):
                    gap = positive_part(gap)
                step = gap / g_sq
                w[cols] -= step * coef * vals
            else:
                step = 0.0
            last = (j, math.nan, f_j, g_sq, step)
        elif isinstance(method, Fuval):
            p = method.params
            lam_t = p.lambda_schedule.value(t)
            delta_t = p.delta_schedule.value(t)
            coef = loss_grad_coef(problem, j, w)
            g_sq = coef * coef * norms_sq[j - 1]
            f_j = loss_value(problem, j, w)
            tau = fuval_tau(f_j, float(s[j - 1]), g_sq, lam_t, delta_t, p.c_penalty)
            step = gamma * tau * lam_t
            w[cols] -= step * coef * vals
            s[j - 1] += gamma * delta_t * (tau - 1.0)
            last = (j, tau, f_j, g_sq, step)
            if lambdas is not None:
                lambdas.append(lam_t)
        elif isinstance(method, FuvalFullBatch):
            p = method.params
            lam_t = p.lambda_schedule.value(t)
            delta_t = p.delta_schedule.value(t)
            w, s_scalar, tau = fuval_full_batch_step(problem, w, s_scalar, p, lam_t, delta_t)
            last = (0, tau, math.nan, math.nan, gamma * tau * lam_t)
            if lambdas is not None:
                lambdas.append(lam_t)
        else:  # ProxLinearAppC
            lam_t = method.lambda_schedule.value(t)
            coef = loss_grad_coef(problem, j, w)
            g_sq = coef * coef * norms_sq[j - 1]
            f_j = loss_value(problem, j, w)
            tau = min(
                lam_t * method.c_penalty,
                positive_part(f_j - float(s[j - 1]) + lam_t) / (g_sq + 1.0),
            )
            w[cols] -= tau * coef * vals
            s[j - 1] += tau - lam_t
            last = (j, tau, f_j, g_sq, tau)
            if lambdas is not None:
                lambdas.append(lam_t)

        if iterates is not None:
            iterates.append(w.copy())

        # w was finite before this step, so it is finite exactly when the
        # entries this step wrote are
        if not np.isfinite(w[cols]).all():
            status = "diverged"
            evaluate(t + 1)
            break
        if ((t + 1) % config.eval_every == 0) or (t + 1 == total):
            f = evaluate(t + 1)
            if not math.isfinite(f) or abs(f) > DIVERGENCE_LIMIT:
                status = "diverged"
                break

    seconds = time.perf_counter() - t0
    arr = np.array(records, dtype=float)
    meta = {
        "seed": config.seed,
        "T": total,
        "status": status,
        "reference_f_star": f_star,
        "reference_tol": getattr(reference, "tol", math.nan) if reference is not None else math.nan,
    }
    meta.update(_method_meta(method))
    return Trace(
        eval_t=arr[:, 0].astype(int),
        sample=arr[:, 1].astype(int),
        tau=arr[:, 2],
        f=arr[:, 3],
        subopt=arr[:, 4],
        grad_sq=arr[:, 5],
        stepsize=arr[:, 6],
        dist_to_ref=arr[:, 7],
        status=status,
        meta=meta,
        iterates=np.array(iterates) if iterates is not None else None,
        lambdas=np.array(lambdas) if lambdas is not None else None,
        final_w=w.copy(),
        final_s=s.copy() if needs_slack else None,
        seconds=seconds,
    )


@np.errstate(over="ignore", invalid="ignore")  # divergence is detected explicitly
def _run_lockstep(
    problem: Problem, methods: list[SGD | Fuval], config: RunConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Final suboptimality and diverged flag of each method, all advanced
    together on one index stream; each cell equals `run(problem, method,
    config)` bit for bit.

    Every step draws one sample, gathers its columns of all K iterates into a
    C-contiguous (K, m) block (the Fortran-ordered gather would take BLAS's
    strided dot and round differently from run()), does each cell's scalar
    math with run()'s helpers, and writes the K updates back at once. A cell
    that diverges by run()'s rules is masked; the others go on.
    """
    n, K = problem.n, len(methods)
    if not all(isinstance(m, (SGD, Fuval)) for m in methods):
        raise ConfigurationError("the lockstep pass runs only SGD and Fuval")
    total = config.total_steps(n)
    rng = np.random.default_rng(config.seed)
    w0 = np.zeros(problem.dim) if config.w0 is None else config.w0.astype(float)
    if not np.all(np.isfinite(w0)):
        raise ConfigurationError("w0 must be finite")
    W = np.tile(w0, (K, 1))
    S = np.zeros((K, n))
    for k, m in enumerate(methods):
        if isinstance(m, Fuval):
            S[k] = initial_slack(problem, w0, m.params.s_init)
    f_star = float(config.reference.f_star) if config.reference is not None else math.nan
    kind, labels, norms_sq = problem.loss_kind, problem.labels, row_norms_sq(problem)

    subopt = np.full(K, math.nan)
    alive = np.ones(K, dtype=bool)
    live = list(range(K))
    coefs = np.zeros(K)  # each cell's multiple of the sampled row this step
    slack_steps = np.zeros(K)

    def mask(dead):
        alive[dead] = False
        subopt[dead] = math.inf
        coefs[dead] = slack_steps[dead] = 0.0
        live[:] = np.flatnonzero(alive).tolist()

    for t in range(total):
        if not live:
            break
        j = int(rng.integers(n)) + 1
        cols, vals = problem.row(j)
        y, row_sq = float(labels[j - 1]), norms_sq[j - 1]
        block = np.ascontiguousarray(W[:, cols])
        for k in live:
            m = methods[k]
            z = float(vals @ block[k])
            coef = _grad_coef(kind, y, z)
            if isinstance(m, SGD):
                coefs[k] = m.step * coef
                continue
            p = m.params
            lam_t = p.lambda_schedule.value(t)
            delta_t = p.delta_schedule.value(t)
            g_sq = coef * coef * row_sq
            tau = fuval_tau(_loss(kind, y, z), float(S[k, j - 1]), g_sq, lam_t, delta_t, p.c_penalty)
            coefs[k] = p.gamma * tau * lam_t * coef
            slack_steps[k] = p.gamma * delta_t * (tau - 1.0)
        block -= coefs[:, None] * vals
        W[:, cols] = block
        S[:, j - 1] += slack_steps

        dead = alive & ~np.isfinite(block).all(axis=1)
        if dead.any():
            mask(dead)
        if ((t + 1) % config.eval_every == 0) or (t + 1 == total):
            for k in live:
                f = objective(problem, W[k])
                if not math.isfinite(f) or abs(f) > DIVERGENCE_LIMIT:
                    dead[k] = True
                subopt[k] = f - f_star
            if dead.any():
                mask(dead)
    return subopt, ~alive


# ---------------------------------------------------------------------------
# iterate averaging


class Weighting(enum.Enum):
    UNIFORM = "uniform"
    LAMBDA_WEIGHTED = "lambda"
    THETA_WEIGHTED = "theta"


def averaged_iterate(
    trace: Trace,
    weighting: Weighting,
    gamma: float | None = None,
    n: int | None = None,
    upto: int | None = None,
) -> np.ndarray:
    """Weighted average of the stored iterates.

    UNIFORM averages w^0..w^{T-1}; LAMBDA weights w^{t+1} by the stepsize
    scale used at step t; THETA uses geometric weights theta^{t+1} on w^t
    with theta = n / (n + 2 gamma^2).  `upto` truncates to the first T steps.
    """
    if trace.iterates is None:
        raise ConfigurationError("iterate storage was disabled for this trace")
    T = trace.iterates.shape[0] - 1 if upto is None else upto
    if weighting is Weighting.UNIFORM:
        return trace.iterates[:T].mean(axis=0)
    if weighting is Weighting.LAMBDA_WEIGHTED:
        if trace.lambdas is None:
            raise ConfigurationError("no per-step scales stored for lambda weighting")
        lam = trace.lambdas[:T]
        return (lam[:, None] * trace.iterates[1 : T + 1]).sum(axis=0) / lam.sum()
    if gamma is None or n is None:
        raise ConfigurationError("theta weighting needs gamma and n")
    theta = n / (n + 2.0 * gamma * gamma)
    weights = theta ** np.arange(1, T + 1)
    return (weights[:, None] * trace.iterates[:T]).sum(axis=0) / weights.sum()
