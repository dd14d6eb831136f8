"""Seeded workload inputs.

Each recipe returns the rows as arrays (for the benchmark's own oracle and
checks) and as LIBSVM text (the only thing the program under test reads).
Every recipe lives here, so a change to the package's own generators cannot
change a workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Category counts of 22 one-hot attribute groups summing to 112 features, in
# the shape of the UCI mushrooms data (one group is constant, like veil-type).
MUSHROOM_GROUPS = (6, 4, 10, 2, 9, 2, 2, 2, 12, 2, 4, 4, 4, 9, 9, 1, 4, 3, 5, 9, 6, 3)
MUSHROOM_N = 8124
MUSHROOM_FLIP = 0.03

HD_N = 10_000
HD_D = 10_000
HD_NNZ = 30
HD_ZIPF = 1.1
HD_FLIP = 0.05


@dataclass(frozen=True)
class Rows:
    """A logistic problem: +-1 labels and 0-based sorted columns per row."""

    labels: np.ndarray
    cols: list[np.ndarray]
    vals: list[np.ndarray]
    d: int

    @property
    def n(self) -> int:
        return self.labels.size

    def dense(self) -> np.ndarray:
        x = np.zeros((self.n, self.d))
        for row, (c, v) in enumerate(zip(self.cols, self.vals)):
            x[row, c] = v
        return x

    def libsvm(self) -> str:
        """`label idx:val ...` lines with 1-based indices and round-trip
        float reprs, so parsing recovers the exact values."""
        out = []
        for y, c, v in zip(self.labels.tolist(), self.cols, self.vals):
            feats = " ".join(f"{i}:{x!r}" for i, x in zip((c + 1).tolist(), v.tolist()))
            out.append(f"{y:+.0f} {feats}")
        return "\n".join(out) + "\n"


def _planted_labels(rng: np.random.Generator, margins: np.ndarray, flip: float) -> np.ndarray:
    labels = np.where(margins >= 0, 1.0, -1.0)
    labels[rng.random(labels.size) < flip] *= -1.0
    return labels


def mushrooms(seed: int) -> Rows:
    """n=8124, d=112: exactly one active category (value 1) in each of the
    22 groups per row; labels from a planted model with 3% flipped, so the
    logistic minimum is finite."""
    rng = np.random.default_rng([seed, 1])
    offsets = np.concatenate([[0], np.cumsum(MUSHROOM_GROUPS)[:-1]])
    chosen = np.empty((MUSHROOM_N, len(MUSHROOM_GROUPS)), dtype=np.int64)
    for g, (k, off) in enumerate(zip(MUSHROOM_GROUPS, offsets)):
        # uneven category frequencies with a floor, so every category occurs
        p = rng.dirichlet(np.full(k, 2.0)) + 0.02
        chosen[:, g] = off + rng.choice(k, size=MUSHROOM_N, p=p / p.sum())
    w_nat = rng.standard_normal(sum(MUSHROOM_GROUPS))
    labels = _planted_labels(rng, w_nat[chosen].sum(axis=1), MUSHROOM_FLIP)
    ones = np.ones(len(MUSHROOM_GROUPS))
    return Rows(labels, list(chosen), [ones] * MUSHROOM_N, sum(MUSHROOM_GROUPS))


def acceptance12() -> Rows:
    """The `logistic:n=200,d=20,seed=12` synthetic recipe: gaussian rows,
    labels sign(<x, w_nat>) with 10% flipped. A private copy, so the
    workload stays fixed if the package's generator changes."""
    n, d = 200, 20
    rng = np.random.default_rng(12)
    w_nat = rng.standard_normal(d)
    x = rng.standard_normal((n, d))
    labels = _planted_labels(rng, x @ w_nat, 0.1)
    return Rows(labels, [np.arange(d)] * n, list(x), d)


def sparse_hd(seed: int) -> Rows:
    """n=d=10,000 with 30 nonzeros per row; column popularity is Zipf-like
    (a few columns appear in many rows), rows have unit norm, and 5% of the
    planted labels are flipped."""
    rng = np.random.default_rng([seed, 2])
    popularity = 1.0 / np.arange(1, HD_D + 1) ** HD_ZIPF
    cdf = np.cumsum(rng.permutation(popularity))
    cdf /= cdf[-1]
    cols, vals = [], []
    for _ in range(HD_N):
        picked = np.zeros(0, dtype=np.int64)
        while picked.size < HD_NNZ:
            draws = np.concatenate([picked, np.searchsorted(cdf, rng.random(3 * HD_NNZ), side="right")])
            _, first = np.unique(draws, return_index=True)
            picked = draws[np.sort(first)]  # distinct, in order of first draw
        v = rng.standard_normal(HD_NNZ)
        order = np.argsort(picked[:HD_NNZ])
        cols.append(picked[:HD_NNZ][order])
        vals.append((v / np.linalg.norm(v))[order])
    w_nat = rng.standard_normal(HD_D)
    margins = np.array([v @ w_nat[c] for c, v in zip(cols, vals)])
    return Rows(_planted_labels(rng, margins, HD_FLIP), cols, vals, HD_D)


def shuffled(rows: Rows, seed: int) -> Rows:
    """The same problem with its rows reordered and its columns relabelled
    by `seed`: another LIBSVM text, but an isomorphic objective, so a solver
    takes the same path and does the same work on every seed."""
    rng = np.random.default_rng([seed, 3])
    order = rng.permutation(rows.n)
    relabel = rng.permutation(rows.d)
    cols, vals = [], []
    for row in order:
        c = relabel[rows.cols[row]]
        by_col = np.argsort(c)
        cols.append(c[by_col])
        vals.append(rows.vals[row][by_col])
    return Rows(rows.labels[order], cols, vals, rows.d)
