"""The margins X w a problem keeps of its last full-data pass, and the loss
pass that reads them: every result is byte-equal to a computation that keeps
nothing."""

import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_optimizers import sparse_problem

from fuvalkit import bench, problems
from fuvalkit.bench import reference_solve
from fuvalkit.dataio import SyntheticMode, SyntheticSpec, gen_synthetic
from fuvalkit.problems import (
    DENSE_MIN_DENSITY,
    LossKind,
    Problem,
    objective,
    objective_and_grad,
    objective_grad,
    per_sample_values,
)

# quiet NaNs with a payload, one of each sign
NANS = np.array([0x7FF8000000000123, 0xFFF8000000000456], dtype=np.uint64).view(np.float64)
MARGINS = np.concatenate(
    [[0.0, -0.0, 1e-300, -1e-300, 37.0, -37.0, 745.0, -745.0, 1e308, -1e308, math.inf, -math.inf, math.nan], NANS]
)


def frozen_losses(kind, y, z, values=True, coefs=True):
    """The loss pass as it was before it shared one division: the formulas
    the in-place pass must reproduce bit for bit."""
    if kind is LossKind.LOGISTIC:
        m = -y * z
        e = np.exp(-np.abs(m))
        return (
            np.maximum(m, 0.0) + np.log1p(e) if values else None,
            -y * np.where(m >= 0, 1.0 / (1.0 + e), e / (1.0 + e)) if coefs else None,
        )
    r = z - y
    return (0.5 * r**2 if values else None), (r if coefs else None)


def one_column(kind, labels):
    n = len(labels)
    return Problem(loss_kind=kind, dim=1, labels=labels, indptr=np.arange(n + 1), indices=np.zeros(n), data=np.ones(n))


def as_bytes(result):
    if isinstance(result, tuple):
        return tuple(as_bytes(r) for r in result)
    return None if result is None else np.asarray(result, dtype=np.float64).tobytes()


@pytest.mark.parametrize("kind", list(LossKind))
@pytest.mark.parametrize("values,coefs", [(True, True), (False, True), (True, False)])
def test_loss_pass_is_byte_equal_to_the_frozen_formulas(kind, values, coefs):
    # every margin against both labels of a logistic problem, and against a
    # zero, a negative and a positive target of a least-squares one
    targets = [-1.0, 1.0] if kind is LossKind.LOGISTIC else [0.0, -2.5, 1e300]
    y = np.repeat(targets, MARGINS.size)
    z = np.tile(MARGINS, len(targets))
    problem = one_column(kind, y)
    with np.errstate(all="ignore"):
        got = problems._losses(problem, z, values=values, coefs=coefs)
        want = frozen_losses(kind, y, z, values=values, coefs=coefs)
    assert as_bytes(got) == as_bytes(want)


def small_problem(kind, dense):
    """A 30 x 6 problem with its dense copy forced on or off."""
    mode = SyntheticMode.LOGISTIC if kind is LossKind.LOGISTIC else SyntheticMode.NOISY_LEAST_SQUARES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problems, "DENSE_MIN_DENSITY", 0.0 if dense else math.inf)
        problem = gen_synthetic(SyntheticSpec(n=30, d=6, seed=3, mode=mode))[0]
    assert (problem._dense is not None) == dense
    return problem


PASSES = [objective, objective_grad, objective_and_grad, per_sample_values]


def uncached(fn, problem, w):
    """fn at w on a problem that keeps no margins."""
    problem.__dict__.pop("_margins", None)
    return fn(problem, w)


def w_pool(dim):
    """Points that a key must tell apart: two random ones, 0.0 and -0.0,
    one changed in place between calls, an int64 view of the first one's
    bytes, and a strided view."""
    rng = np.random.default_rng(11)
    a = rng.normal(size=dim)
    wide = rng.normal(size=2 * dim)
    return [a, rng.normal(size=dim), np.zeros(dim), -np.zeros(dim), a.copy(), a.view(np.int64), wide[::2]]


MUTABLE, STRIDED = 4, 6


@pytest.mark.parametrize("kind", list(LossKind))
@pytest.mark.parametrize("dense", [True, False], ids=["dense", "csr"])
@settings(max_examples=40, deadline=None)
@given(calls=st.lists(st.tuples(st.integers(0, 6), st.sampled_from(PASSES), st.booleans()), min_size=1, max_size=12))
def test_kept_margins_never_change_a_result(kind, dense, calls):
    problem, twin = small_problem(kind, dense), small_problem(kind, dense)
    pool = w_pool(problem.dim)
    with np.errstate(all="ignore"):
        for k, fn, mutate in calls:
            w = pool[k]
            if mutate and k == MUTABLE:
                w[0] += 0.5
            before = problem._margins
            assert as_bytes(fn(problem, w)) == as_bytes(uncached(fn, twin, w))
            if k == STRIDED:
                assert problem._margins is before  # computed, not stored


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "csr"])
def test_concurrent_readers_see_their_own_point(dense):
    """Threads evaluating one problem at the same points in different
    orders, switching as often as the interpreter allows: a key stored or read
    apart from its margins would hand a thread the X w of another point."""
    problem = small_problem(LossKind.LOGISTIC, dense)
    points = [np.full(problem.dim, 0.1 * (k + 1)) for k in range(4)]
    want = [objective(small_problem(LossKind.LOGISTIC, dense), w) for w in points]
    wrong = []

    def reader(k):
        for i in range(1000):
            j = (k + i) % len(points)
            if objective(problem, points[j]) != want[j]:
                wrong.append(j)

    threads = [threading.Thread(target=reader, args=(k,)) for k in range(len(points))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "csr"])
def test_margins_are_read_only(dense):
    problem = small_problem(LossKind.LOGISTIC, dense)
    w = np.ones(problem.dim)
    for z in (problems._matvec(problem, w), problems._matvec(problem, w)):
        assert not z.flags.writeable
        with pytest.raises(ValueError):
            z[0] = 1.0


def test_pickled_problem_comes_back_without_margins():
    problem = small_problem(LossKind.LOGISTIC, dense=True)
    w = np.full(problem.dim, 0.25)
    f = objective(problem, w)
    assert "_margins" in vars(problem)
    clone = pickle.loads(pickle.dumps(problem))
    assert "_margins" not in vars(clone)
    assert objective(clone, w) == f


@pytest.mark.parametrize("kind", list(LossKind))
@pytest.mark.parametrize("tol,max_iters", [(1e-6, 10_000), (1e-30, 5)], ids=["converged", "cap"])
def test_reference_solve_computes_x_w_once_per_objective_call(monkeypatch, kind, tol, max_iters):
    """Each accepted line-search trial's X w serves the next gradient, the
    last one also the final gradient and per-sample values."""
    problem = sparse_problem(kind)
    assert problem._dense is None and problem.data.size < DENSE_MIN_DENSITY * problem.n * problem.dim
    counts = {"_row_sums": 0, "objective": 0, "objective_grad": 0, "per_sample_values": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(problems, "_row_sums")
    for name in ("objective", "objective_grad", "per_sample_values"):
        counted(bench, name)
    ref = reference_solve(problem, tol=tol, max_iters=max_iters)
    assert ref.converged == (tol == 1e-6)
    assert counts["objective_grad"] > 1 and counts["per_sample_values"] == 1
    assert counts["_row_sums"] - 1 == counts["objective"]  # one call is row_norms_sq's
