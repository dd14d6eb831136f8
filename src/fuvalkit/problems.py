"""Finite-sum objectives stored as CSR arrays, per-sample loss oracles, and
constants.

All oracles are pure functions of (problem, i, w) and safe for concurrent
read-only use.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class ContractViolation(ValueError):
    """Raised when an oracle is called with arguments violating its contract."""


class LossKind(enum.Enum):
    LOGISTIC = "logistic"
    LEAST_SQUARES = "least_squares"


@dataclass(frozen=True)
class SparseExample:
    """One row as a standalone value: a label and a sparse feature vector.

    Feature indices are 1-based (LIBSVM convention) and strictly increasing.
    A Problem stores its rows as CSR arrays; this is the per-row view that
    `Problem(examples=...)` accepts and `problem.examples` returns.
    """

    label: float
    indices: np.ndarray  # int64, 1-based, strictly increasing
    values: np.ndarray  # float64, same length as indices
    dim: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)
        if idx.shape != val.shape:
            raise ContractViolation("indices and values must have equal length")
        if idx.size and (np.any(np.diff(idx) <= 0) or idx[0] < 1):
            raise ContractViolation("feature indices must be >= 1 and strictly increasing")
        if self.dim < 1 or (idx.size and idx[-1] > self.dim):
            raise ContractViolation("feature index exceeds declared dimension")
        if not np.all(np.isfinite(val)) or not math.isfinite(self.label):
            raise ContractViolation("labels and feature values must be finite")

    def dot(self, w: np.ndarray) -> float:
        if self.indices.size == 0:
            return 0.0
        return float(self.values @ w[self.indices - 1])

    def norm_sq(self) -> float:
        return float(self.values @ self.values)

    def dense(self) -> np.ndarray:
        x = np.zeros(self.dim)
        x[self.indices - 1] = self.values
        return x


# Full-data passes (objective, gradient, all per-sample values) run on a
# dense copy of X when at least this fraction of its entries is stored, and on
# numpy CSR kernels below it. Measured crossover of one X.w plus one X^T.u,
# numpy CSR against BLAS: density 0.055-0.09 at n x d = 8124 x 112,
# 2000 x 2000 and 10000 x 1000 (2 vCPU, numpy 2.4).
DENSE_MIN_DENSITY = 0.06


class Problem:
    """Finite-sum objective: the mean of per-sample losses over n rows.

    The rows are stored once, as CSR arrays: row i (0-based) has the columns
    `indices[indptr[i]:indptr[i + 1]]` (0-based, strictly increasing, intp)
    with the values `data[...]`, and the label `labels[i]`. When the density
    reaches DENSE_MIN_DENSITY, a dense n x dim copy is built here, once, and
    full-data passes use it.

    Build it from the arrays (`labels=`, `indptr=`, `indices=`, `data=`) or
    from a list of SparseExample rows (`examples=`). All arrays are read-only.
    """

    def __init__(
        self,
        examples: list[SparseExample] | None = None,
        loss_kind: LossKind | None = None,
        dim: int = 0,
        *,
        labels=None,
        indptr=None,
        indices=None,
        data=None,
    ):
        if loss_kind is None:
            raise TypeError("Problem needs a loss_kind")
        if examples is not None:
            if not examples:
                raise ContractViolation("a problem needs at least one example")
            dim = dim or max(e.dim for e in examples)
            if any(e.dim != dim for e in examples):
                raise ContractViolation("all examples must share the problem dimension")
            labels = [e.label for e in examples]
            indptr = np.cumsum([0] + [e.indices.size for e in examples])
            indices = np.concatenate([e.indices for e in examples]) - 1
            data = np.concatenate([e.values for e in examples])
        labels = np.asarray(labels, dtype=np.float64)
        indptr = np.asarray(indptr, dtype=np.intp)
        indices = np.asarray(indices, dtype=np.intp)
        data = np.asarray(data, dtype=np.float64)
        n = labels.size
        if n == 0:
            raise ContractViolation("a problem needs at least one example")
        if labels.ndim != 1 or indptr.shape != (n + 1,) or indices.ndim != 1 or indices.shape != data.shape:
            raise ContractViolation("CSR arrays have inconsistent shapes")
        if indptr[0] != 0 or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0):
            raise ContractViolation("indptr must rise from 0 to the number of stored entries")
        dim = dim or int(indices.max(initial=0)) + 1
        if indices.size and (indices.min() < 0 or indices.max() >= dim):
            raise ContractViolation("feature index exceeds declared dimension")
        rising = np.diff(indices) > 0
        starts = indptr[1:-1]
        rising[starts[(starts > 0) & (starts < indices.size)] - 1] = True  # row boundaries
        if not rising.all():
            raise ContractViolation("feature indices must be strictly increasing within a row")
        if not (np.all(np.isfinite(data)) and np.all(np.isfinite(labels))):
            raise ContractViolation("labels and feature values must be finite")

        self.loss_kind = loss_kind
        self.dim = dim
        self.labels, self.indptr, self.indices, self.data = map(_read_only, (labels, indptr, indices, data))
        self._dense = None
        if indices.size >= DENSE_MIN_DENSITY * n * dim:
            self._dense = _read_only(_scatter(self))

    @property
    def n(self) -> int:
        return self.labels.size

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """0-based columns and values of the i-th row (i is 1-based)."""
        a, b = self.indptr[i - 1], self.indptr[i]
        return self.indices[a:b], self.data[a:b]

    @property
    def examples(self) -> list[SparseExample]:
        """The rows as SparseExample objects (1-based indices), built on demand."""
        return [
            SparseExample(label=y, indices=cols + 1, values=vals, dim=self.dim)
            for y, (cols, vals) in zip(self.labels.tolist(), map(self.row, range(1, self.n + 1)))
        ]


def _scatter(problem: Problem) -> np.ndarray:
    x = np.zeros((problem.n, problem.dim))
    x[np.repeat(np.arange(problem.n), np.diff(problem.indptr)), problem.indices] = problem.data
    return x


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class SampleConstants:
    """Per-sample Lipschitz/smoothness constants and per-sample infima."""

    lipschitz: np.ndarray | None  # G_i, None when unavailable (least squares)
    smoothness: np.ndarray  # L_i
    g_max: float | None
    l_max: float
    inf_fi: np.ndarray

    @property
    def g_sq_sum(self) -> float | None:
        if self.lipschitz is None:
            return None
        return float(np.sum(self.lipschitz**2))


def _log1pexp(z: float) -> float:
    # max(z,0) + log1p(exp(-|z|)) avoids overflow for |z| > ~30
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _check_args(problem: Problem, i: int, w: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Label, columns and values of row i after checking the arguments."""
    if not (1 <= i <= problem.n):
        raise ContractViolation(f"sample index {i} out of range [1, {problem.n}]")
    if w.shape != (problem.dim,):
        raise ContractViolation(f"w has shape {w.shape}, expected ({problem.dim},)")
    return (float(problem.labels[i - 1]), *problem.row(i))


def _grad_coef(loss_kind: LossKind, y: float, z: float) -> float:
    if loss_kind is LossKind.LOGISTIC:
        return -y * _sigmoid(-y * z)
    return z - y


def _loss(loss_kind: LossKind, y: float, z: float) -> float:
    """Loss of label y at the row dot product z."""
    if loss_kind is LossKind.LOGISTIC:
        return _log1pexp(-y * z)
    r = z - y
    return 0.5 * (r * r)  # r ** 2 would raise OverflowError past 1.3e154


def loss_value(problem: Problem, i: int, w: np.ndarray) -> float:
    """Value of the i-th loss term at w (i is 1-based)."""
    y, cols, vals = _check_args(problem, i, w)
    return _loss(problem.loss_kind, y, float(vals @ w[cols]))


def loss_grad(problem: Problem, i: int, w: np.ndarray) -> np.ndarray:
    """Dense gradient of the i-th loss term at w."""
    y, cols, vals = _check_args(problem, i, w)
    g = np.zeros(problem.dim)
    g[cols] = _grad_coef(problem.loss_kind, y, float(vals @ w[cols])) * vals
    return g


def loss_grad_coef(problem: Problem, i: int, w: np.ndarray) -> float:
    """Scalar c such that grad f_i(w) = c * x_i. Used by the run loop."""
    y, cols, vals = _check_args(problem, i, w)
    return _grad_coef(problem.loss_kind, y, float(vals @ w[cols]))


def dense_data(problem: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Dense (X, y): the problem's dense copy when it keeps one, else a new
    array that is not cached."""
    x = problem._dense
    return (_scatter(problem) if x is None else x), problem.labels


def _row_sums(problem: Problem, values: np.ndarray) -> np.ndarray:
    """Per-row sums of an array aligned with problem.data."""
    out = np.zeros(problem.n)
    nonempty = problem.indptr[:-1] < problem.indptr[1:]
    # reduceat only over nonempty rows: at an empty row it returns the
    # neighbour's element, and at a trailing empty row (start == nnz) it raises
    if values.size:
        out[nonempty] = np.add.reduceat(values, problem.indptr[:-1][nonempty])
    return out


def _matvec(problem: Problem, w: np.ndarray) -> np.ndarray:
    """X w."""
    if problem._dense is not None:
        return problem._dense @ w
    return _row_sums(problem, problem.data * w[problem.indices])


def _rmatvec(problem: Problem, u: np.ndarray) -> np.ndarray:
    """X^T u."""
    if problem._dense is not None:
        return problem._dense.T @ u
    weights = problem.data * np.repeat(u, np.diff(problem.indptr))
    return np.bincount(problem.indices, weights=weights, minlength=problem.dim)


def row_norms_sq(problem: Problem) -> np.ndarray:
    """||x_i||^2 for every row."""
    return _row_sums(problem, problem.data * problem.data)


def per_sample_values(problem: Problem, w: np.ndarray) -> np.ndarray:
    """All n loss values at w in one vectorized pass."""
    y = problem.labels
    z = _matvec(problem, w)
    if problem.loss_kind is LossKind.LOGISTIC:
        m = -y * z
        return np.maximum(m, 0.0) + np.log1p(np.exp(-np.abs(m)))
    return 0.5 * (z - y) ** 2


def objective(problem: Problem, w: np.ndarray) -> float:
    """Mean of per-sample loss values."""
    return float(np.mean(per_sample_values(problem, w)))


def objective_grad(problem: Problem, w: np.ndarray) -> np.ndarray:
    """Mean of per-sample gradients."""
    y = problem.labels
    z = _matvec(problem, w)
    if problem.loss_kind is LossKind.LOGISTIC:
        m = -y * z
        sig = np.where(m >= 0, 1.0 / (1.0 + np.exp(-np.abs(m))), 0.0)
        neg = m < 0
        e = np.exp(m[neg]) if np.any(neg) else None
        if e is not None:
            sig[neg] = e / (1.0 + e)
        coef = -y * sig
    else:
        coef = z - y
    return _rmatvec(problem, coef) / problem.n


def sample_constants(problem: Problem) -> SampleConstants:
    """Per-sample Lipschitz and smoothness constants for the built-in losses.

    Logistic: G_i = ||x_i||, L_i = ||x_i||^2 / 4.  Least squares is not
    Lipschitz so G_i is unavailable; L_i = ||x_i||^2.  Both losses have
    per-sample infimum 0.
    """
    norms_sq = row_norms_sq(problem)
    inf_fi = np.zeros(problem.n)
    if problem.loss_kind is LossKind.LOGISTIC:
        lip = np.sqrt(norms_sq)
        smooth = norms_sq / 4.0
        return SampleConstants(
            lipschitz=lip,
            smoothness=smooth,
            g_max=float(np.max(lip)),
            l_max=float(np.max(smooth)),
            inf_fi=inf_fi,
        )
    return SampleConstants(
        lipschitz=None,
        smoothness=norms_sq,
        g_max=None,
        l_max=float(np.max(norms_sq)),
        inf_fi=inf_fi,
    )
