"""The sensitivity grid runs each seed's stochastic cells in one lockstep pass.
Every row must equal build_method plus run() on its own, bit for bit, and
every cell of a pass must equal run() of its method, trace for trace."""

import math

import numpy as np
import pytest

from fuvalkit.bench import ReferenceSolution, build_method, grid_search, reference_solve
from fuvalkit.dataio import SyntheticMode, SyntheticSpec, gen_synthetic
from fuvalkit.optimizers import (
    SGD,
    SPS,
    ConfigurationError,
    Fuval,
    FuvalParams,
    ProxLinearAppC,
    RunConfig,
    ScalingScheme,
    SPSPlus,
    _run_lockstep,
    constant,
    inv_sqrt,
    run,
)
from fuvalkit.problems import DENSE_MIN_DENSITY, LossKind, Problem, objective

FAMILIES = ["gd", "fuval-full", "sgd", "fuval"]
SCHEMES = list(ScalingScheme)
ETAS = np.logspace(-3, 2, 6)


def dense_logistic():
    return gen_synthetic(SyntheticSpec(n=40, d=6, seed=5, mode=SyntheticMode.LOGISTIC))[0]


def sparse_least_squares(n=40, d=100, nnz=3, seed=2, zero_labels=False):
    """Rows with `nnz` random columns, every fifth row empty."""
    rng = np.random.default_rng(seed)
    lengths = np.where(np.arange(n) % 5 == 4, 0, nnz)
    indices = np.concatenate([np.sort(rng.choice(d, k, replace=False)) for k in lengths])
    labels = np.zeros(n) if zero_labels else rng.normal(size=n)
    return Problem(
        loss_kind=LossKind.LEAST_SQUARES,
        dim=d,
        labels=labels,
        indptr=np.concatenate([[0], np.cumsum(lengths)]),
        indices=indices,
        data=rng.normal(size=indices.size),
    )


def density(problem):
    return problem.indices.size / (problem.n * problem.dim)


def cell_by_run(problem, ref, family, scheme, eta, seeds, **length):
    """(subopt_mean, subopt_median, diverged) of one cell from build_method
    and run(), seed by seed."""
    finals = []
    for seed in seeds:
        try:
            method = build_method(family, eta, scheme, problem, np.zeros(problem.dim))
        except ConfigurationError:
            return math.inf, math.inf, True
        trace = run(problem, method, RunConfig(seed=seed, reference=ref, **length))
        final = trace.final_subopt()
        if trace.diverged or not math.isfinite(final):
            return math.inf, math.inf, True
        finals.append(final)
    return float(np.mean(finals)), float(np.median(finals)), False


def assert_rows_equal_run(table, problem, ref, seeds, **length):
    for row in table.rows:
        scheme = None if row.scheme == "-" else ScalingScheme(row.scheme)
        expected = cell_by_run(problem, ref, row.method, scheme, row.eta, seeds, **length)
        assert (row.subopt_mean, row.subopt_median, row.diverged) == expected, row


def lockstep_finals(problem, methods, config):
    """Final suboptimality (inf when diverged) and diverged flag of each cell
    of one lockstep pass."""
    traces = _run_lockstep(problem, methods, config)
    diverged = np.array([t.diverged for t in traces])
    return np.array([math.inf if t.diverged else t.final_subopt() for t in traces]), diverged


def grid(problem, ref, families=FAMILIES, schemes=SCHEMES, etas=ETAS, seeds=(3,), **length):
    return grid_search(problem, ref, families, schemes, etas, seeds=list(seeds), **length)


@pytest.fixture(scope="module")
def logistic_case():
    problem = dense_logistic()
    assert density(problem) >= DENSE_MIN_DENSITY
    return problem, reference_solve(problem, tol=1e-6)


@pytest.fixture(scope="module")
def least_squares_case():
    problem = sparse_least_squares()
    assert density(problem) < DENSE_MIN_DENSITY
    assert np.any(problem.indptr[:-1] == problem.indptr[1:])  # empty rows
    return problem, reference_solve(problem, tol=1e-8)


@pytest.mark.parametrize("case", ["logistic_case", "least_squares_case"])
def test_every_family_and_scheme_equals_run(case, request):
    problem, ref = request.getfixturevalue(case)
    table = grid(problem, ref, iterations=300)
    assert len(table.rows) == 2 * ETAS.size + 2 * len(SCHEMES) * ETAS.size
    assert any(not r.diverged for r in table.rows)
    if case == "least_squares_case":
        assert any(r.diverged for r in table.rows)
    assert_rows_equal_run(table, problem, ref, [3], iterations=300)


@pytest.mark.parametrize("case", ["logistic_case", "least_squares_case"])
def test_epochs_and_intermediate_evaluations_equal_run(case, request):
    problem, ref = request.getfixturevalue(case)
    table = grid(problem, ref, families=["sgd", "fuval"], epochs=4, eval_every=7)
    assert_rows_equal_run(table, problem, ref, [3], epochs=4, eval_every=7)


def test_diverging_cell_is_masked_beside_finite_ones(least_squares_case):
    problem, ref = least_squares_case
    fuval = Fuval(FuvalParams(constant(0.05), constant(0.05)))
    methods = [SGD(step=0.01), SGD(step=100.0), fuval, SGD(step=0.02)]
    config = RunConfig(iterations=500, seed=1, reference=ref, eval_every=10**6)
    subopt, diverged = lockstep_finals(problem, methods, config)
    assert diverged.tolist() == [False, True, False, False]
    assert math.isinf(subopt[1])
    for k in (0, 2, 3):
        trace = run(problem, methods[k], config)
        assert trace.status == "ok"
        assert subopt[k] == trace.final_subopt()


def test_lockstep_reports_the_final_objective_of_each_cell(logistic_case):
    problem, ref = logistic_case
    methods = [SGD(step=0.5), Fuval(FuvalParams(constant(2.0), constant(0.1)))]
    config = RunConfig(epochs=2, seed=4, reference=ref, eval_every=5)
    subopt, diverged = lockstep_finals(problem, methods, config)
    assert not diverged.any()
    for k, method in enumerate(methods):
        final_w = run(problem, method, config).final_w
        assert subopt[k] == objective(problem, final_w) - ref.f_star


def test_scheme_configuration_error_gives_a_diverged_row():
    # f(w0) = 0, so uifv and uigrad cannot scale; naive still runs
    problem = sparse_least_squares(zero_labels=True)
    ref = ReferenceSolution(
        w_star=np.zeros(problem.dim), f_star=0.0, per_sample_f_star=np.zeros(problem.n),
        grad_norm_at_solution=0.0, sigma=0.0, tol=1e-10,
    )
    schemes = [ScalingScheme.NAIVE, ScalingScheme.UNIT_INVARIANT_FV, ScalingScheme.UNIT_INVARIANT_GRAD]
    table = grid(problem, ref, schemes=schemes, etas=np.array([0.1, 1.0]), iterations=50)
    failed = {(r.method, r.scheme) for r in table.rows if r.diverged}
    assert failed == {(f, s) for f in ("fuval", "fuval-full") for s in ("uifv", "uigrad")}
    assert_rows_equal_run(table, problem, ref, [3], iterations=50)


def test_parallel_seeds_equal_serial_and_run(least_squares_case):
    problem, ref = least_squares_case
    seeds = [0, 1, 2]
    etas = np.logspace(-2, 1, 3)
    kwargs = dict(families=["gd", "sgd", "fuval"], schemes=SCHEMES[:3], etas=etas, seeds=seeds, iterations=200)
    serial = grid(problem, ref, **kwargs)
    parallel = grid(problem, ref, jobs=2, **kwargs)
    key = lambda r: (r.method, r.scheme, r.eta, r.subopt_mean, r.subopt_median, r.diverged)
    assert list(map(key, parallel.rows)) == list(map(key, serial.rows))
    assert_rows_equal_run(serial, problem, ref, seeds, iterations=200)


TRACE_FIELDS = [
    "eval_t", "sample", "tau", "f", "subopt", "grad_sq", "stepsize", "f_avg", "f_lavg", "final_w", "final_s"
]


def mixed_methods(diverging):
    """One cell of every stochastic method and a second cell of each
    scheduled one, with the two diverging cells among them."""
    return [
        SGD(step=0.05),
        diverging[0],
        SPS(),
        SPSPlus(),
        Fuval(FuvalParams(constant(0.5), constant(0.2))),
        diverging[1],
        ProxLinearAppC(inv_sqrt(1.0)),
        Fuval(FuvalParams(inv_sqrt(0.5), inv_sqrt(0.5), gamma=0.5, c_penalty=2.0)),
        ProxLinearAppC(constant(0.3), c_penalty=2.0),
    ]


def assert_traces_equal(trace, expected):
    assert trace.status == expected.status
    assert trace.meta == expected.meta
    for name in TRACE_FIELDS:
        a, b = getattr(trace, name), getattr(expected, name)
        if b is None:
            assert a is None, name
        else:
            np.testing.assert_array_equal(a, b, err_msg=name)  # NaN matches NaN; no tolerance


# per problem, an SGD step whose objective passes DIVERGENCE_LIMIT while w
# stays finite, and one that overflows w between two evaluations
DIVERGING = {
    "logistic_case": (SGD(step=1e200), SGD(step=1e308)),
    "least_squares_case": (SGD(step=1e100), SGD(step=1e200)),
}


@pytest.mark.parametrize("case", sorted(DIVERGING))
def test_mixed_pass_equals_a_lone_run_of_each_cell(case, request):
    problem, ref = request.getfixturevalue(case)
    assert ref.converged  # SPS and SPS+ refuse a non-converged reference
    methods = mixed_methods(DIVERGING[case])
    config = RunConfig(iterations=300, seed=3, reference=ref, eval_every=7)
    traces = _run_lockstep(problem, methods, config)
    assert [t.diverged for t in traces] == [False, True, False, False, False, True, False, False, False]
    assert np.isfinite(traces[1].final_w).all() and not np.isfinite(traces[5].final_w).all()
    for method, trace in zip(methods, traces):
        assert_traces_equal(trace, run(problem, method, config))


def test_running_averages_equal_a_lone_run(least_squares_case):
    problem, ref = least_squares_case
    fuval = Fuval(FuvalParams(inv_sqrt(0.5), constant(0.2)))
    proxlin = ProxLinearAppC(inv_sqrt(1.0))
    methods = [SGD(step=0.05), fuval, proxlin, SGD(step=100.0)]
    config = RunConfig(iterations=200, seed=1, reference=ref, eval_every=7, average=True)
    traces = _run_lockstep(problem, methods, config)
    for method, trace in zip(methods, traces):
        assert_traces_equal(trace, run(problem, method, config))
    sgd, fuval_trace, proxlin_trace, diverged = traces
    for trace in traces:
        assert math.isnan(trace.f_avg[0]) and math.isnan(trace.f_lavg[0])
    assert np.isfinite(fuval_trace.f_lavg[1:]).all() and np.isfinite(proxlin_trace.f_lavg[1:]).all()
    assert np.isfinite(sgd.f_avg[1:]).all() and np.isnan(sgd.f_lavg).all()  # SGD has no lambda schedule
    assert diverged.diverged and diverged.f_avg.shape == diverged.eval_t.shape
