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
    loss_value,
    objective,
    objective_and_grad,
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
        if not 0 < self.base < math.inf:
            raise ConfigurationError("schedule base must be finite and positive")

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
    if not 0 < eta < math.inf:
        raise ConfigurationError("stepsize factor eta must be finite and positive")
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

    if scheme in (ScalingScheme.UNIT_INVARIANT_FV, ScalingScheme.REMARK_FV):
        f0 = objective(problem, w0)
        if f0 <= 0:
            raise ConfigurationError(f"scheme {scheme.value} needs f(w0) > 0")
        if scheme is ScalingScheme.UNIT_INVARIANT_FV:
            return eta / f0, eta * f0
        return eta * float(w0 @ w0) / f0, eta * f0

    # UNIT_INVARIANT_GRAD
    f0, g0 = objective_and_grad(problem, w0)
    g0_sq = float(np.sum(g0**2))
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
        if not self.c_penalty >= 1.0:  # NaN fails too
            raise ConfigurationError("penalty multiplier must be >= 1")


# Each method is one scalar rule, `rule(t, f_j, g_sq, s_j)`: from the sampled
# loss f_j, the squared gradient norm g_sq = ||grad f_j||^2 and the slack s_j
# at step t, it returns (step, tau, slack change). The update is
# w -= step * grad f_j and s_j += slack change. SPS and SPS+ learn no slack:
# they read the per-sample optimum f*_j in its place and leave it unchanged.
# The full-batch methods apply a stochastic method's rule to the whole
# objective: GD is SGD's rule, FuvalFullBatch is Fuval's with one scalar slack.


@dataclass(frozen=True)
class SGD:
    step: float

    def __post_init__(self):
        if not 0 < self.step < math.inf:
            raise ConfigurationError("stepsize must be finite and positive")

    def rule(self, t: int, f_j: float, g_sq: float, s_j: float) -> tuple[float, float, float]:
        return self.step, math.nan, 0.0


@dataclass(frozen=True)
class GD:
    step: float

    __post_init__ = SGD.__post_init__
    rule = SGD.rule


@dataclass(frozen=True)
class SPS:
    def rule(self, t: int, f_j: float, g_sq: float, f_star_j: float) -> tuple[float, float, float]:
        return polyak_rule(f_j, g_sq, f_star_j, clip=False)


@dataclass(frozen=True)
class SPSPlus:
    def rule(self, t: int, f_j: float, g_sq: float, f_star_j: float) -> tuple[float, float, float]:
        return polyak_rule(f_j, g_sq, f_star_j, clip=True)


@dataclass(frozen=True)
class Fuval:
    params: FuvalParams

    def rule(self, t: int, f_j: float, g_sq: float, s_j: float) -> tuple[float, float, float]:
        p = self.params
        lam_t, delta_t = p.lambda_schedule.value(t), p.delta_schedule.value(t)
        return fuval_rule(f_j, g_sq, s_j, lam_t, delta_t, p.gamma, p.c_penalty)


@dataclass(frozen=True)
class FuvalFullBatch:
    params: FuvalParams

    rule = Fuval.rule


@dataclass(frozen=True)
class ProxLinearAppC:
    lambda_schedule: Schedule
    c_penalty: float = 1.0

    def __post_init__(self):
        if not self.c_penalty >= 1.0:  # NaN fails too
            raise ConfigurationError("penalty multiplier must be >= 1")

    def rule(self, t: int, f_j: float, g_sq: float, s_j: float) -> tuple[float, float, float]:
        return prox_linear_rule(f_j, g_sq, s_j, self.lambda_schedule.value(t), self.c_penalty)


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
# scalar rules and single-step updates


def polyak_rule(f_j: float, g_sq: float, f_star_j: float, clip: bool) -> tuple[float, float, float]:
    """SPS: the gap f_j - f*_j over g_sq, or no step at a zero gradient. SPS+
    (clip) takes the gap's positive part, so its stepsize stays >= 0."""
    if g_sq <= ZERO_GRAD_SQ:
        return 0.0, math.nan, 0.0
    gap = f_j - f_star_j
    return (positive_part(gap) if clip else gap) / g_sq, math.nan, 0.0


def fuval_tau(f_j: float, s_j: float, grad_sq: float, lam_t: float, delta_t: float, c: float) -> float:
    """Dimensionless step multiplier, clamped to [0, c]."""
    ratio = positive_part(f_j - s_j + delta_t) / (delta_t + lam_t * grad_sq)
    return min(c, ratio)


def fuval_rule(
    f_j: float, g_sq: float, s_j: float, lam_t: float, delta_t: float, gamma: float, c: float
) -> tuple[float, float, float]:
    """FUVAL: SPS+ toward a learned slack, at the two scales lambda and delta."""
    tau = fuval_tau(f_j, s_j, g_sq, lam_t, delta_t, c)
    return gamma * tau * lam_t, tau, gamma * delta_t * (tau - 1.0)


def prox_linear_rule(f_j: float, g_sq: float, s_j: float, lam_t: float, c: float) -> tuple[float, float, float]:
    """Single-scale prox-linear step; equals the two-scale step after the
    identification tau_here = lam_t * tau_two_scale."""
    tau = min(lam_t * c, positive_part(f_j - s_j + lam_t) / (g_sq + 1.0))
    return tau, tau, tau - lam_t


def _require_reference(reference: Any):
    if reference is None:
        raise ConfigurationError("this method needs a reference solution with per-sample optima")


def _polyak_step(problem: Problem, reference: Any, w: np.ndarray, i: int, clip: bool) -> np.ndarray:
    _require_reference(reference)
    g = loss_grad(problem, i, w)
    f_star_i = float(reference.per_sample_f_star[i - 1])
    step, _, _ = polyak_rule(loss_value(problem, i, w), float(g @ g), f_star_i, clip)
    return w - step * g


def sps_step(problem: Problem, reference: Any, w: np.ndarray, i: int) -> np.ndarray:
    """Polyak step toward the known per-sample optimum (step may be negative)."""
    return _polyak_step(problem, reference, w, i, clip=False)


def sps_plus_step(problem: Problem, reference: Any, w: np.ndarray, i: int) -> np.ndarray:
    """Polyak step with the gap clipped at zero, so the stepsize stays >= 0."""
    return _polyak_step(problem, reference, w, i, clip=True)


def _slack_step(problem: Problem, state: IterateState, j: int, rule) -> tuple[IterateState, StepRecord]:
    """Apply `rule(f_j, g_sq, s_j)` to the state at sample j."""
    f_j = loss_value(problem, j, state.w)
    g = loss_grad(problem, j, state.w)
    g_sq = float(g @ g)
    step, tau, slack_change = rule(f_j, g_sq, float(state.s[j - 1]))
    s = state.s.copy()
    s[j - 1] += slack_change
    record = StepRecord(sample=j, tau=tau, f_sample=f_j, grad_sq=g_sq, stepsize=step)
    return IterateState(w=state.w - step * g, s=s, t=state.t + 1), record


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
    return _slack_step(
        problem, state, j, lambda f, g_sq, s: fuval_rule(f, g_sq, s, lam_t, delta_t, params.gamma, params.c_penalty)
    )


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
    f, g = objective_and_grad(problem, w)
    step, tau, slack_change = fuval_rule(f, float(g @ g), s, lam_t, delta_t, params.gamma, params.c_penalty)
    return w - step * g, s + slack_change, tau


def prox_linear_appC_step(
    problem: Problem,
    state: IterateState,
    lam_t: float,
    c: float,
    j: int,
) -> tuple[IterateState, StepRecord]:
    """Single-scale prox-linear step on sample j (see prox_linear_rule)."""
    if lam_t <= 0:
        raise ContractViolation("step scale must be positive")
    if c < 1:
        raise ContractViolation("penalty multiplier must be >= 1")
    return _slack_step(problem, state, j, lambda f, g_sq, s: prox_linear_rule(f, g_sq, s, lam_t, c))


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
    average: bool = False  # record f at the running averages of the iterates
    w0: np.ndarray | None = None

    def __post_init__(self):
        if self.eval_every < 1:
            raise ConfigurationError("eval_every must be at least 1")
        if min(self.iterations or 0, self.epochs or 0) < 0:
            raise ConfigurationError("the run length must be non-negative")

    def total_steps(self, n: int) -> int:
        if (self.iterations is None) == (self.epochs is None):
            raise ConfigurationError("specify exactly one of iterations or epochs")
        return self.iterations if self.iterations is not None else self.epochs * n


@dataclass
class Trace:
    """Per-evaluation records of one run plus its metadata. With
    RunConfig.average, `f_avg` holds f at the mean of w^0..w^{t-1} and
    `f_lavg` f at the lambda-weighted mean sum_{u<t} lambda_u w^{u+1} /
    sum_{u<t} lambda_u (NaN without a lambda schedule); both are NaN at t = 0."""

    eval_t: np.ndarray
    sample: np.ndarray
    tau: np.ndarray
    f: np.ndarray
    subopt: np.ndarray
    grad_sq: np.ndarray
    stepsize: np.ndarray
    status: str
    meta: dict
    f_avg: np.ndarray | None = None
    f_lavg: np.ndarray | None = None
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


def _initial_w(problem: Problem, config: RunConfig) -> np.ndarray:
    w = np.zeros(problem.dim) if config.w0 is None else config.w0.astype(float).copy()
    if not np.all(np.isfinite(w)):
        raise ConfigurationError("w0 must be finite")
    return w


class _TraceLog:
    """One run's evaluation records, running sums of its iterates and status,
    and their assembly into a Trace; the full-batch loop and the stochastic
    pass share it."""

    def __init__(self, problem: Problem, method: MethodSpec, config: RunConfig, w0: np.ndarray):
        self.problem, self.method, self.config = problem, method, config
        self.total = config.total_steps(problem.n)
        self.f_star = float(config.reference.f_star) if config.reference is not None else math.nan
        self.records: list[tuple] = []
        self.last = (0, math.nan, math.nan, math.nan)  # sample, tau, grad_sq, stepsize
        self.status = "ok"
        if config.average:
            # the lambda schedule of fuval, fuval-full and prox-linear; None for the others
            self.schedule = getattr(getattr(method, "params", method), "lambda_schedule", None)
            self.sum_w = w0.copy()  # w^0 + ... + w^{t-1} when evaluation t is recorded
            self.lam_sum_w, self.lam_sum = np.zeros_like(w0), 0.0  # sum_u lambda_u w^{u+1}, sum_u lambda_u

    def record(self, t: int, w: np.ndarray) -> float:
        f = objective(self.problem, w)
        j, tau, g_sq, step = self.last
        row = (t, j, tau, f, f - self.f_star, g_sq, step)
        if self.config.average:
            f_avg = objective(self.problem, self.sum_w / t) if t else math.nan
            f_lavg = objective(self.problem, self.lam_sum_w / self.lam_sum) if t and self.schedule else math.nan
            row += (f_avg, f_lavg)
        self.records.append(row)
        return f

    def after_step(self, t: int, w: np.ndarray, finite: bool) -> bool:
        """Add w after step t to the running sums and record it when due, or
        at once when the step wrote a NaN/Inf entry; False when the run has
        diverged."""
        average = self.config.average
        if average and self.schedule:
            lam_t = self.schedule.value(t)
            self.lam_sum_w += lam_t * w
            self.lam_sum += lam_t
        diverged = not finite
        if diverged or (t + 1) % self.config.eval_every == 0 or t + 1 == self.total:
            f = self.record(t + 1, w)
            diverged = diverged or not math.isfinite(f) or abs(f) > DIVERGENCE_LIMIT
        if average:
            self.sum_w += w  # w^{t+1} joins the uniform mean from evaluation t + 2 on
        if diverged:
            self.status = "diverged"
        return not diverged

    def trace(self, w: np.ndarray, s: np.ndarray | None, seconds: float) -> Trace:
        method, config = self.method, self.config
        arr = np.array(self.records, dtype=float)
        meta = {
            "seed": config.seed,
            "T": self.total,
            "status": self.status,
            "reference_f_star": self.f_star,
            "reference_tol": getattr(config.reference, "tol", math.nan),
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
            status=self.status,
            meta=meta,
            f_avg=arr[:, 7] if config.average else None,
            f_lavg=arr[:, 8] if config.average else None,
            final_w=w.copy(),
            final_s=s.copy() if isinstance(method, (Fuval, ProxLinearAppC)) else None,
            seconds=seconds,
        )


def run(problem: Problem, method: MethodSpec, config: RunConfig) -> Trace:
    """Execute a method for the configured number of steps.

    Index sampling is i.i.d. uniform from a generator seeded by config.seed,
    so identical configs give bit-identical traces.  A NaN/Inf objective,
    or a NaN/Inf entry written into w, halts the run with a diverged status.
    A stochastic method runs as the single cell of the lockstep pass.
    """
    if isinstance(method, (GD, FuvalFullBatch)):
        return _run_full_batch(problem, method, config)
    return _run_lockstep(problem, [method], config)[0]


@np.errstate(over="ignore", invalid="ignore")  # divergence is detected explicitly
def _run_full_batch(problem: Problem, method: GD | FuvalFullBatch, config: RunConfig) -> Trace:
    """Apply the method's rule to the full objective at every step. FUVAL
    takes f and its gradient from one pass over X; GD's rule ignores f, so it
    takes the gradient alone."""
    w = _initial_w(problem, config)
    log = _TraceLog(problem, method, config, w)
    fuval = isinstance(method, FuvalFullBatch)
    # the scalar slack starts at the mean of the per-sample initial slacks
    s = float(np.mean(initial_slack(problem, w, method.params.s_init))) if fuval else 0.0
    t0 = time.perf_counter()
    log.record(0, w)
    for t in range(log.total):
        f, g = objective_and_grad(problem, w) if fuval else (math.nan, objective_grad(problem, w))
        g_sq = float(g @ g)
        step, tau, slack_change = method.rule(t, f, g_sq, s)
        w = w - step * g
        s += slack_change
        log.last = (0, tau, g_sq, step)
        if not log.after_step(t, w, bool(np.isfinite(w).all())):
            break
    return log.trace(w, None, time.perf_counter() - t0)


@np.errstate(over="ignore", invalid="ignore")  # divergence is detected explicitly
def _run_lockstep(problem: Problem, methods: list[MethodSpec], config: RunConfig) -> list[Trace]:
    """Run stochastic methods side by side on one index stream. Trace k
    equals `run(problem, methods[k], config)` bit for bit: run() of a
    stochastic method is this pass with K = 1.

    Every step draws one sample, gathers its columns of all K iterates into a
    C-contiguous (K, m) block (the Fortran-ordered gather would take BLAS's
    strided dot and round differently), applies each cell's scalar rule and
    writes the K updates back at once. A cell that diverges is frozen: its
    trace ends, its row of W is zeroed so the finite check reads only live
    cells, and the others go on. Each trace's `seconds` is the pass's wall
    time divided by K.
    """
    n, K = problem.n, len(methods)
    if not all(isinstance(m, (SGD, SPS, SPSPlus, Fuval, ProxLinearAppC)) for m in methods):
        raise ConfigurationError("the lockstep pass runs only stochastic methods")
    total = config.total_steps(n)
    reference = config.reference
    if any(isinstance(m, (SPS, SPSPlus)) for m in methods):
        if reference is None:
            raise ConfigurationError("SPS/SPS+ need a reference solution")
        if getattr(reference, "converged", True) is False:
            raise ConfigurationError("SPS/SPS+ refuse a non-converged reference")
    w0 = _initial_w(problem, config)
    W = np.tile(w0, (K, 1))
    S = np.zeros((K, n))  # slacks, or f*_j for SPS and SPS+
    for k, m in enumerate(methods):
        if isinstance(m, (SPS, SPSPlus)):
            S[k] = reference.per_sample_f_star
        elif isinstance(m, Fuval):
            S[k] = initial_slack(problem, w0, m.params.s_init)
        elif isinstance(m, ProxLinearAppC):
            S[k] = initial_slack(problem, w0, SInit.AT_W0)
    logs = [_TraceLog(problem, m, config, w0) for m in methods]
    rng = np.random.default_rng(config.seed)
    kind, labels, norms_sq = problem.loss_kind, problem.labels.tolist(), row_norms_sq(problem).tolist()
    rules = [m.rule for m in methods]
    average, every = config.average, config.eval_every
    live = list(range(K))
    final: list[tuple | None] = [None] * K  # (w, s) of each frozen cell
    coefs = np.zeros(K)  # each cell's multiple of the sampled row this step

    t0 = time.perf_counter()
    for log, w in zip(logs, W):
        log.record(0, w)
    for t in range(total):
        if not live:
            break
        j = int(rng.integers(n)) + 1
        cols, vals = problem.row(j)
        y, row_sq = labels[j - 1], norms_sq[j - 1]
        block = W.take(cols, axis=1)  # a C-contiguous (K, m) copy
        for k in live:
            z = float(vals @ block[k])
            coef = _grad_coef(kind, y, z)
            g_sq = coef * coef * row_sq
            step, tau, slack_change = rules[k](t, _loss(kind, y, z), g_sq, float(S[k, j - 1]))
            S[k, j - 1] += slack_change
            coefs[k] = step * coef
            logs[k].last = (j, tau, g_sq, step)
        block -= coefs[:, None] * vals
        W[:, cols] = block

        # every w was finite before this step, so each is finite exactly when
        # the entries this step wrote are
        all_finite = bool(np.isfinite(block).all())
        if all_finite and not average and (t + 1) % every and t + 1 != total:
            continue  # nothing to sum, record or freeze
        for k in list(live):
            finite = all_finite or bool(np.isfinite(block[k]).all())
            if not logs[k].after_step(t, W[k], finite):  # freeze the cell
                final[k] = W[k].copy(), S[k].copy()
                W[k] = coefs[k] = 0.0
                live.remove(k)

    seconds = (time.perf_counter() - t0) / K
    return [log.trace(*(final[k] or (W[k], S[k])), seconds) for k, log in enumerate(logs)]
