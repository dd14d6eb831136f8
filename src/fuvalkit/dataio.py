"""LIBSVM text parsing/serialization and seeded synthetic problem generation."""

from __future__ import annotations

import enum
import io
from array import array
from dataclasses import dataclass

import numpy as np

from .problems import LossKind, Problem


class ParseError(ValueError):
    """Malformed LIBSVM input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SyntheticMode(enum.Enum):
    INTERPOLATING = "interpolating"
    NOISY_LEAST_SQUARES = "noisy_least_squares"
    LOGISTIC = "logistic"


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a seeded random problem.

    INTERPOLATING: least squares with y_i = <x_i, w_nat>, so every term
    vanishes at w_nat.  NOISY_LEAST_SQUARES adds gaussian label noise.
    LOGISTIC draws +-1 labels from sign(<x_i, w_nat>) with a fraction
    flipped, giving a logistic problem with a finite minimizer.
    """

    n: int
    d: int
    seed: int
    mode: SyntheticMode = SyntheticMode.INTERPOLATING
    noise_std: float = 0.0
    flip_fraction: float = 0.1

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")


def parse_libsvm(
    source: str | io.TextIOBase,
    loss_kind: LossKind = LossKind.LOGISTIC,
    dim: int | None = None,
) -> Problem:
    """Parse LIBSVM text (`<label> <idx>:<val> ...`) into a Problem.

    For logistic problems the two distinct raw labels are mapped to -1/+1
    (smaller -> -1).  `#` starts a comment; blank lines are skipped.  The
    dimension is the max index seen unless `dim` overrides it.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source.read().splitlines()

    # typed buffers hold 8 bytes per entry, where a list holds a float object
    labels = array("d")
    indptr = array("q", [0])
    cols = array("q")  # 0-based
    vals = array("d")
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            labels.append(float(tokens[0]))
        except ValueError:
            raise ParseError(line_no, f"non-numeric label {tokens[0]!r}") from None
        prev = 0
        for tok in tokens[1:]:
            try:
                idx_s, val_s = tok.split(":", 1)
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(line_no, f"malformed feature token {tok!r}") from None
            if idx <= prev:
                raise ParseError(line_no, f"non-increasing feature index {idx}")
            prev = idx
            cols.append(idx - 1)
            vals.append(val)
        indptr.append(len(cols))

    del lines  # free the text's copy before the Problem builds any dense copy
    if not labels:
        raise ParseError(0, "no examples found")
    indices = np.frombuffer(cols, dtype=np.int64)
    d = dim if dim is not None else int(indices.max(initial=0)) + 1

    y = np.frombuffer(labels)
    if loss_kind is LossKind.LOGISTIC and np.all(np.isfinite(y)):  # Problem rejects the rest
        distinct = np.unique(y)
        if distinct.size > 2:
            raise ParseError(0, f"{distinct.size} distinct labels; logistic needs two")
        y = np.where(y == distinct[0], -1.0, 1.0) if distinct.size == 2 else np.ones_like(y)
    return Problem(
        loss_kind=loss_kind,
        dim=d,
        labels=y,
        indptr=np.frombuffer(indptr, dtype=np.int64),
        indices=indices,
        data=np.frombuffer(vals),
    )


def serialize_libsvm(problem: Problem) -> str:
    """Inverse of parse_libsvm; round-trips to an identical Problem."""
    out = []
    for i, y in enumerate(problem.labels.tolist(), start=1):
        cols, vals = problem.row(i)
        feats = " ".join(f"{c}:{v!r}" for c, v in zip((cols + 1).tolist(), vals.tolist()))
        out.append(f"{y!r} {feats}".rstrip())
    return "\n".join(out) + "\n"


def gen_synthetic(spec: SyntheticSpec) -> tuple[Problem, np.ndarray | None]:
    """Generate a seeded random problem; returns (problem, known w*) where
    the optimum is known by construction (interpolating mode only)."""
    rng = np.random.default_rng(spec.seed)
    w_nat = rng.standard_normal(spec.d)
    x = rng.standard_normal((spec.n, spec.d))
    margins = x @ w_nat

    if spec.mode is SyntheticMode.LOGISTIC:
        labels = np.where(margins >= 0, 1.0, -1.0)
        flips = rng.random(spec.n) < spec.flip_fraction
        labels[flips] *= -1.0
        loss_kind = LossKind.LOGISTIC
        known = None
    else:
        labels = margins.copy()
        if spec.mode is SyntheticMode.NOISY_LEAST_SQUARES and spec.noise_std > 0:
            labels += spec.noise_std * rng.standard_normal(spec.n)
            known = None
        else:
            known = w_nat
        loss_kind = LossKind.LEAST_SQUARES

    n, d = spec.n, spec.d
    problem = Problem(
        loss_kind=loss_kind,
        dim=d,
        labels=labels,
        indptr=np.arange(0, n * d + 1, d),
        indices=np.tile(np.arange(d), n),
        data=x.ravel(),
    )
    return problem, known
