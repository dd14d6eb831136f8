"""The four workloads: set-up, one timed batch of operations, and the checks
on each operation's output.

Every workload drives the package through its public functions, looked up on
the module at call time so that the tracer's wrappers are seen. A batch is a
fixed list of operations; a run repeats batches for its time budget.
"""

from __future__ import annotations

import math
import operator
import pickle
from dataclasses import dataclass

import numpy as np

import inputs
from fuvalkit import bench, dataio, optimizers, problems
from oracle import newton_reference

SCHEMES = (
    optimizers.ScalingScheme.NAIVE,
    optimizers.ScalingScheme.UNIT_INVARIANT_FV,
    optimizers.ScalingScheme.UNIT_INVARIANT_GRAD,
)

# fit: one epoch per method, evaluated only at the start and the end
SGD_STEP = 0.1
FUVAL_ETA = 1.0
PROX_BASE = 1.0
# grid: the acceptance-12 layout, cut to 2 etas and short cells
GRID_ETAS = np.logspace(-4, 2, 2)
GRID_FULL_ITERS = 20
GRID_STOCH_STEPS = 500
GRID_JOBS = 2
GRID_EVAL_EVERY = 1_000_000  # only the final evaluation, as in grid_search
GRID_SAMPLES = 2  # cells per grid call re-run in-process
# reference: the n=200 solve stalls within 1,000 iterations and
# then repeats one roundoff-bound iteration until the cap. A tenth of the
# default 200,000 keeps the stall and its per-iteration cost in view, while a
# batch stays short enough for several batches per run; the fit-sized solve
# converges in 2,055 iterations.
REFERENCE_MAX_ITERS = 20_000
REFERENCE_FIT_SEED = 0
# fit-hd: one fuval epoch with about 10 evaluations
HD_ETA = 1.0
HD_EVALS = 10

REPLAY_RTOL = 1e-9
GRID_RTOL = 1e-12
REFERENCE_RTOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one operation: `ok` is False for a failed
    operation, `correct` is False when an output contradicts its check."""

    ok: bool = True
    correct: bool = True
    note: str = ""

    @classmethod
    def wrong(cls, note: str) -> "Verdict":
        return cls(False, False, note)


def _rel_err(a: np.ndarray | float, b: np.ndarray | float) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if np.array_equal(a, b):  # also equal infinities
        return 0.0
    scale = max(float(np.max(np.abs(b), initial=0.0)), 1e-300)
    return float(np.max(np.abs(a - b), initial=0.0)) / scale


def _setup(text: str):
    """What a user pays before the first step: parsing plus the first
    objective evaluation, which fills any lazy per-problem cache."""
    problem = dataio.parse_libsvm(text)
    problems.objective(problem, np.zeros(problem.dim))
    return problem


def _fuval(lam: float, delta: float) -> optimizers.Fuval:
    return optimizers.Fuval(optimizers.FuvalParams(optimizers.constant(lam), optimizers.constant(delta)))


def _replay(problem, kind: str, total: int, seed: int, **kw) -> np.ndarray:
    """Final iterate of `total` steps of the verified single-step functions
    on run()'s index stream: one default_rng(seed).integers(n) draw per step."""
    n, d = problem.n, problem.dim
    rng = np.random.default_rng(seed)
    w = np.zeros(d)
    if kind in ("fuval", "proxlin"):
        s0 = np.array([problems.loss_value(problem, i, w) for i in range(1, n + 1)])
        state = optimizers.IterateState(w=w, s=s0)
    if kind == "fuval":
        params = _fuval(kw["lam"], kw["delta"]).params
    for t in range(total):
        j = int(rng.integers(n)) + 1
        if kind == "sgd":
            w = w - kw["step"] * problems.loss_grad(problem, j, w)
        elif kind == "sps+":
            w = optimizers.sps_plus_step(problem, kw["reference"], w, j)
        elif kind == "fuval":
            state, _ = optimizers.fuval_step(problem, state, params, j, kw["lam"], kw["delta"])
        else:
            lam_t = optimizers.inv_sqrt(kw["base"]).value(t)
            state, _ = optimizers.prox_linear_appC_step(problem, state, lam_t, 1.0, j)
    return w if kind in ("sgd", "sps+") else state.w


def _check_trace(trace, replayed: np.ndarray) -> Verdict:
    if trace.status != "ok":
        return Verdict(False, True, f"status {trace.status}")
    err = _rel_err(trace.final_w, replayed)
    if err > REPLAY_RTOL:
        return Verdict.wrong(f"run() differs from the step functions by {err:.3g} relative")
    return Verdict(note=f"parity {err:.2g}")


def run_steps(results: dict) -> int:
    """Steps completed by the run() calls among a batch's results."""
    return sum(int(r.eval_t[-1]) for r in results.values() if isinstance(r, optimizers.Trace))


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.problems: list = []

    def release(self):
        self.problems = []

    def setup(self):
        self.problems = [_setup(text) for text in self.texts]

    def prepare(self):
        """Untimed work the checks need, such as the oracle solves."""

    def ops(self) -> dict:
        """Operation name -> zero-argument callable; one batch runs them all."""
        raise NotImplementedError

    def steps(self, results: dict) -> int:
        """Optimizer steps the batch completed."""
        return run_steps(results)

    def check(self, op: str, result) -> Verdict:
        raise NotImplementedError

    def same(self, result, first) -> bool:
        """Whether a later batch reproduced the first batch's output."""
        return np.array_equal(result.final_w, first.final_w) and result.status == first.status

    def extra_layers(self, results: dict) -> dict:
        return {}

    @property
    def input_mb(self) -> float:
        return sum(len(t) for t in self.texts) / 2**20


class Fit(Workload):
    """One epoch each of sgd, sps+, fuval (uifv) and prox-linear (inv-sqrt)
    on the mushrooms-shaped problem."""

    name = "fit"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.rows = inputs.mushrooms(seed)
        self.texts = [self.rows.libsvm()]

    def prepare(self):
        self.reference = newton_reference(self.rows)

    def _config(self):
        n = self.problems[0].n
        return optimizers.RunConfig(epochs=1, seed=self.seed, reference=self.reference, eval_every=n)

    def _run_fuval(self):
        p = self.problems[0]
        self.scales = optimizers.resolve_scaling(SCHEMES[1], FUVAL_ETA, p, np.zeros(p.dim))
        return optimizers.run(p, _fuval(*self.scales), self._config())

    def ops(self) -> dict:
        p = self.problems[0]
        return {
            "sgd": lambda: optimizers.run(p, optimizers.SGD(SGD_STEP), self._config()),
            "sps+": lambda: optimizers.run(p, optimizers.SPSPlus(), self._config()),
            "fuval": self._run_fuval,
            "proxlin": lambda: optimizers.run(
                p, optimizers.ProxLinearAppC(optimizers.inv_sqrt(PROX_BASE)), self._config()
            ),
        }

    def check(self, op: str, result) -> Verdict:
        p = self.problems[0]
        if op == "sgd":
            kw = {"step": SGD_STEP}
        elif op == "sps+":
            kw = {"reference": self.reference}
        elif op == "fuval":
            kw = {"lam": self.scales[0], "delta": self.scales[1]}
        else:
            kw = {"base": PROX_BASE}
        return _check_trace(result, _replay(p, op, p.n, self.seed, **kw))


class Grid(Workload):
    """The acceptance-12 sensitivity layout over the process pool: a
    full-batch grid (gd, fuval-full) and a stochastic grid (sgd, fuval)."""

    name = "grid"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.rows = inputs.mushrooms(seed)
        self.texts = [self.rows.libsvm()]
        self.calls = {
            "full": (["gd", "fuval-full"], GRID_FULL_ITERS),
            "stochastic": (["sgd", "fuval"], GRID_STOCH_STEPS),
        }

    def prepare(self):
        self.reference = newton_reference(self.rows)

    @staticmethod
    def cell_count(families: list[str]) -> int:
        return sum(GRID_ETAS.size * (1 if f in ("gd", "sgd") else len(SCHEMES)) for f in families)

    def _grid(self, families: list[str], iterations: int):
        return bench.grid_search(
            self.problems[0], self.reference, families, list(SCHEMES), GRID_ETAS,
            iterations=iterations, seeds=[self.seed], eval_every=GRID_EVAL_EVERY, jobs=GRID_JOBS,
        )

    def ops(self) -> dict:
        return {op: (lambda f=f, it=it: self._grid(f, it)) for op, (f, it) in self.calls.items()}

    def steps(self, results: dict) -> int:
        """Configured optimizer steps of the completed grid calls (a cell
        that diverges stops early, but counts in full)."""
        return sum(
            self.cell_count(f) * it
            for op, (f, it) in self.calls.items()
            if isinstance(results.get(op), bench.SensitivityTable)
        )

    def _rerun(self, row, iterations: int) -> float:
        """The cell's final suboptimality computed in this process."""
        p = self.problems[0]
        scheme = None if row.scheme == "-" else optimizers.ScalingScheme(row.scheme)
        try:
            method = bench.build_method(row.method, row.eta, scheme, p, np.zeros(p.dim))
        except optimizers.ConfigurationError:
            return math.inf
        config = optimizers.RunConfig(
            iterations=iterations, seed=self.seed, reference=self.reference, eval_every=GRID_EVAL_EVERY
        )
        trace = optimizers.run(p, method, config)
        final = trace.final_subopt()
        return math.inf if trace.diverged or not math.isfinite(final) else final

    def check(self, op: str, result) -> Verdict:
        families, iterations = self.calls[op]
        expected = self.cell_count(families)
        if len(result.rows) != expected:
            return Verdict.wrong(f"{len(result.rows)} rows for {expected} cells")
        rng = np.random.default_rng([self.seed, 3])
        worst = 0.0
        for k in rng.choice(expected, size=GRID_SAMPLES, replace=False):
            row = result.rows[int(k)]
            err = _rel_err(row.subopt_mean, self._rerun(row, iterations))
            worst = max(worst, err)
            if err > GRID_RTOL:
                return Verdict.wrong(f"cell {row.method}/{row.scheme}/{row.eta:g} differs by {err:.3g}")
        return Verdict(note=f"{expected} rows, sampled cells agree to {worst:.2g}")

    def same(self, result, first) -> bool:
        key = operator.attrgetter("method", "scheme", "eta", "diverged", "subopt_mean")
        return list(map(key, result.rows)) == list(map(key, first.rows))

    def extra_layers(self, results: dict) -> dict:
        tables = [r for r in results.values() if isinstance(r, bench.SensitivityTable)]
        rows = [row for t in tables for row in t.rows]
        if not hasattr(self, "pickle_bytes"):
            # what the pool pickles for every cell: the problem, with its
            # cached dense copy, and the reference
            self.pickle_bytes = len(pickle.dumps((self.problems[0], self.reference)))
        return {
            "bench.grid_search.cells": len(rows),
            "bench.grid_search.cell_s": sum(r.seconds for r in rows),
            "bench.grid_search.diverged_cells": sum(r.diverged for r in rows),
            "bench.grid_search.ipc_mb": self.pickle_bytes * len(rows) / 2**20,
        }


class Reference(Workload):
    """reference_solve on the acceptance-12 problem at tol 1e-10 (the CLI
    default) and on a fit-shaped problem at tol 1e-8, both capped at
    REFERENCE_MAX_ITERS iterations.

    The solver's iteration count on a fit problem depends on the drawn data
    (from about 1,600 to 3,500 at tol 1e-8 over seeds 0-19), which would make
    the batch's work differ from seed to seed. So the fit-shaped problem is
    always the fit problem of REFERENCE_FIT_SEED, with its rows reordered and
    its columns relabelled by the workload seed: the text differs per seed,
    the solve does the same work."""

    name = "reference"
    solves = {"n200-tol1e-10": 1e-10, "fit-tol1e-8": 1e-8}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.rows = [inputs.acceptance12(), inputs.shuffled(inputs.mushrooms(REFERENCE_FIT_SEED), seed)]
        self.texts = [r.libsvm() for r in self.rows]

    def prepare(self):
        self.oracles = [newton_reference(r) for r in self.rows]

    def ops(self) -> dict:
        return {
            op: (lambda p=p, tol=tol: bench.reference_solve(p, tol=tol, max_iters=REFERENCE_MAX_ITERS))
            for (op, tol), p in zip(self.solves.items(), self.problems)
        }

    def steps(self, results: dict) -> int:
        """A solve runs no optimizer step; each completed solve counts as one."""
        return sum(isinstance(r, bench.ReferenceSolution) for r in results.values())

    def check(self, op: str, result) -> Verdict:
        tol = self.solves[op]
        oracle = self.oracles[list(self.solves).index(op)]
        err = _rel_err(result.f_star, oracle.f_star)
        note = f"converged={result.converged} |g|={result.grad_norm_at_solution:.3g} f* off {err:.2g}"
        if result.converged and (result.grad_norm_at_solution > tol or err > REFERENCE_RTOL):
            return Verdict.wrong("claims convergence but " + note)
        if not result.converged or err > REFERENCE_RTOL:
            return Verdict(False, True, note)
        return Verdict(note=note)

    def same(self, result, first) -> bool:
        return (result.f_star, result.converged, result.grad_norm_at_solution) == (
            first.f_star, first.converged, first.grad_norm_at_solution
        )

    def extra_layers(self, results: dict) -> dict:
        solved = [r for r in results.values() if isinstance(r, bench.ReferenceSolution)]
        return {"bench.reference_solve.converged": sum(r.converged for r in solved)}


class FitHd(Workload):
    """One fuval (uifv) epoch with about 10 evaluations on the
    high-dimensional sparse problem."""

    name = "fit-hd"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.texts = [inputs.sparse_hd(seed).libsvm()]

    def _run_fuval(self):
        p = self.problems[0]
        self.scales = optimizers.resolve_scaling(SCHEMES[1], HD_ETA, p, np.zeros(p.dim))
        config = optimizers.RunConfig(epochs=1, seed=self.seed, eval_every=p.n // HD_EVALS)
        return optimizers.run(p, _fuval(*self.scales), config)

    def ops(self) -> dict:
        return {"fuval": self._run_fuval}

    def check(self, op: str, result) -> Verdict:
        p = self.problems[0]
        lam, delta = self.scales
        return _check_trace(result, _replay(p, "fuval", p.n, self.seed, lam=lam, delta=delta))


WORKLOADS = {w.name: w for w in (Fit, Grid, Reference, FitHd)}
