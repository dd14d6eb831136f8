"""The CSR representation: the dense-copy and CSR paths agree, sparse
problems evaluate without an n x d allocation, and content digests stay
stable."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuvalkit import problems
from fuvalkit.cli import problem_digest
from fuvalkit.dataio import SyntheticMode, SyntheticSpec, gen_synthetic, parse_libsvm
from fuvalkit.problems import (
    ContractViolation,
    LossKind,
    Problem,
    loss_grad,
    loss_grad_coef,
    loss_value,
    objective,
    objective_and_grad,
    objective_grad,
    per_sample_values,
    sample_constants,
)

RTOL = 1e-12


def build(case, dense: bool) -> Problem:
    """The case's rows with the dense copy forced on or off."""
    kind, dim, labels, rows, _ = case
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = [c for r in rows for c, _ in r]
    data = [v for r in rows for _, v in r]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problems, "DENSE_MIN_DENSITY", 0.0 if dense else math.inf)
        problem = Problem(loss_kind=kind, dim=dim, labels=labels, indptr=indptr, indices=indices, data=data)
    assert (problem._dense is not None) == dense
    return problem


@st.composite
def cases(draw):
    """Small problems with empty rows, single-nonzero rows and, through a dim
    override, trailing all-zero columns."""
    kind = draw(st.sampled_from(LossKind))
    n = draw(st.integers(1, 6))
    used = draw(st.integers(1, 5))
    dim = used + draw(st.integers(0, 3))
    value = st.floats(-3.0, 3.0, allow_nan=False)
    rows = []
    for _ in range(n):
        cols = sorted(draw(st.sets(st.integers(0, used - 1), max_size=used)))
        rows.append([(c, draw(value)) for c in cols])
    label = st.sampled_from([-1.0, 1.0]) if kind is LossKind.LOGISTIC else value
    labels = draw(st.lists(label, min_size=n, max_size=n))
    w = draw(st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=dim, max_size=dim))
    return kind, dim, labels, rows, np.array(w)


def _close(a, b):
    np.testing.assert_allclose(a, b, rtol=RTOL, atol=RTOL)


def _assert_one_pass_is_two(problem, w):
    """objective_and_grad equals objective and objective_grad bit for bit."""
    f, g = objective_and_grad(problem, w)
    assert type(f) is float
    assert np.float64(f).tobytes() == np.float64(objective(problem, w)).tobytes()
    assert g.shape == (problem.dim,)
    assert g.tobytes() == objective_grad(problem, w).tobytes()


# Points w at which the logistic margins m_i = -y_i <x_i, w> over EDGE_ROWS are
# (0, 0, 0), where the sigmoid switches branch; (-3500, 4000, 3000) and
# (-1500, -4000, -1000), beyond +-745, where exp(-|m|) underflows to 0; and
# (-2.5, -5, -1), all negative.
EDGE_ROWS = [[(0, 1.0), (1, 0.5)], [(0, -1.0), (1, 2.0)], [(1, -1.0)]]
EDGE_LABELS = [1.0, -1.0, 1.0]
EDGE_POINTS = [np.zeros(2), np.array([2000.0, 3000.0]), np.array([2000.0, -1000.0]), np.array([3.0, -1.0])]

# an empty last row is where np.add.reduceat raises; an empty row before a
# nonempty one is where it returns the neighbour's element
EMPTY_EDGES = (LossKind.LOGISTIC, 3, [1.0, -1.0, 1.0], [[], [(1, 2.0)], []], np.array([0.5, -1.0, 3.0]))
SINGLE_NONZERO = (LossKind.LEAST_SQUARES, 2, [0.5, -2.0], [[(0, 1.5)], [(1, -0.5)]], np.array([1.0, 2.0]))
TRAILING_ZERO_COLUMNS = (LossKind.LEAST_SQUARES, 6, [1.0, 0.0], [[(0, 1.0), (2, -1.0)], []], np.ones(6))


@settings(max_examples=150, deadline=None)
@given(cases())
@example(EMPTY_EDGES)
@example(SINGLE_NONZERO)
@example(TRAILING_ZERO_COLUMNS)
def test_dense_and_csr_paths_agree(case):
    w = case[-1]
    dense, csr = build(case, dense=True), build(case, dense=False)
    for i in range(1, csr.n + 1):
        _close(loss_value(csr, i, w), loss_value(dense, i, w))
        _close(loss_grad(csr, i, w), loss_grad(dense, i, w))
        _close(loss_grad_coef(csr, i, w), loss_grad_coef(dense, i, w))
    _close(per_sample_values(csr, w), per_sample_values(dense, w))
    _close(objective(csr, w), objective(dense, w))
    _close(objective_grad(csr, w), objective_grad(dense, w))
    _assert_one_pass_is_two(csr, w)
    _assert_one_pass_is_two(dense, w)
    c_csr, c_dense = sample_constants(csr), sample_constants(dense)
    _close(c_csr.smoothness, c_dense.smoothness)
    _close(c_csr.l_max, c_dense.l_max)
    if csr.loss_kind is LossKind.LOGISTIC:
        _close(c_csr.lipschitz, c_dense.lipschitz)
    # and both agree with the per-sample oracles, row by row
    _close(per_sample_values(csr, w), [loss_value(csr, i, w) for i in range(1, csr.n + 1)])


for _kind in LossKind:
    for _w in EDGE_POINTS:
        test_dense_and_csr_paths_agree = example((_kind, 2, EDGE_LABELS, EDGE_ROWS, _w))(test_dense_and_csr_paths_agree)


@pytest.mark.parametrize("kind", LossKind)
@pytest.mark.parametrize("dense", [True, False])
def test_nan_iterate_gives_nan_gradient(kind, dense):
    # every row stores column 0, so a NaN there reaches every margin on both
    # paths; the sigmoid used to turn a NaN margin into a zero coefficient
    problem = build((kind, 2, EDGE_LABELS, EDGE_ROWS[:2] + [[(0, 2.0), (1, -1.0)]], None), dense)
    for w in (np.full(2, np.nan), np.array([np.nan, 1.0])):
        assert np.isnan(objective(problem, w))
        assert np.all(np.isnan(objective_grad(problem, w)))
        f, g = objective_and_grad(problem, w)
        assert np.isnan(f) and np.all(np.isnan(g))


def test_empty_rows_evaluate_at_zero_margin():
    csr = build(EMPTY_EDGES, dense=False)
    values = per_sample_values(csr, EMPTY_EDGES[-1])
    assert values[0] == values[2] == pytest.approx(math.log(2.0))
    np.testing.assert_array_equal(sample_constants(csr).smoothness, [0.0, 1.0, 0.0])


def test_sparse_problem_evaluates_without_dense_allocation():
    n = d = 5_000
    rng = np.random.default_rng(0)
    problem = Problem(
        loss_kind=LossKind.LOGISTIC,
        dim=d,
        labels=rng.choice([-1.0, 1.0], size=n),
        indptr=np.arange(n + 1),
        indices=rng.integers(d, size=n),
        data=rng.standard_normal(n),
    )
    w = rng.standard_normal(d)
    tracemalloc.start()
    try:
        objective(problem, w)
        objective_grad(problem, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize(
    "problem,digest",
    [
        (gen_synthetic(SyntheticSpec(n=6, d=3, seed=11, mode=SyntheticMode.LOGISTIC))[0], "d5b65be74980790a"),
        (gen_synthetic(SyntheticSpec(n=6, d=3, seed=11))[0], "c3b8732b3eaff2b9"),
        (parse_libsvm("1 1:0.5 4:2\n-1\n1 2:1.5\n", dim=6), "42d66b79cbbe96fe"),
    ],
)
def test_problem_digest_is_stable(problem, digest):
    # cached reference files are named ref-<digest>-<tol>.npz
    assert problem_digest(problem) == digest


def test_examples_view_round_trips():
    problem = parse_libsvm("1 1:0.5 4:2\n-1\n1 2:1.5\n", dim=6)
    again = Problem(examples=problem.examples, loss_kind=problem.loss_kind)
    for name in ("labels", "indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(again, name), getattr(problem, name))
    assert again.dim == 6
    assert problem.indices.dtype == np.intp


@pytest.mark.parametrize(
    "arrays",
    [
        dict(labels=[1.0], indptr=[0, 2], indices=[1, 1], data=[1.0, 1.0]),  # repeated column
        dict(labels=[1.0, 1.0], indptr=[0, 1, 0], indices=[0], data=[1.0]),  # falling indptr
        dict(labels=[1.0], indptr=[0, 1], indices=[3], data=[1.0]),  # column beyond dim
        dict(labels=[1.0], indptr=[0, 1], indices=[0], data=[math.inf]),
        dict(labels=[], indptr=[0], indices=[], data=[]),
    ],
)
def test_malformed_csr_rejected(arrays):
    with pytest.raises(ContractViolation):
        Problem(loss_kind=LossKind.LOGISTIC, dim=3, **arrays)


def test_arrays_are_read_only():
    problem = parse_libsvm("1 1:0.5\n-1 2:1\n")
    with pytest.raises(ValueError):
        problem.data[0] = 2.0
