"""LIBSVM text parsing/serialization and seeded synthetic problem generation."""

from __future__ import annotations

import enum
import io
import warnings
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


# The text is parsed in pieces of about this many characters, each cut after
# a newline, so that every per-chunk temporary stays small.
CHUNK_CHARS = 1 << 18

# Byte classes for `_parse_plain`'s scans: digits and signs are deleted, the
# separators " ", ":" and "\n" kept, the other characters a float may hold
# (".", exponents, "inf", "infinity", "nan") become "x" and every other byte
# "?", which sends the chunk to the per-token loop.
_CLASSES = bytes(
    c if c in b" :\n" else ord("x") if c in b".eEiInNfFtTyYaA" else ord("?") for c in range(256)
)
_DIGITS_AND_SIGNS = b"0123456789+-"
_EXACT_INDEX_LIMIT = 2**53  # every integer below it is exact as a float


def parse_libsvm(
    source: str | io.TextIOBase,
    loss_kind: LossKind = LossKind.LOGISTIC,
    dim: int | None = None,
) -> Problem:
    """Parse LIBSVM text (`<label> <idx>:<val> ...`) into a Problem.

    For logistic problems the two distinct raw labels are mapped to -1/+1
    (smaller -> -1).  `#` starts a comment; blank lines are skipped.  The
    dimension is the max index seen unless `dim` overrides it.

    Each chunk of lines is parsed by one numpy call when byte scans prove it
    plain (see `_parse_plain`); any other chunk goes through `_parse_lines`,
    which defines the format and every ParseError.
    """
    text = source if isinstance(source, str) else source.read()
    # each feature holds a colon, so the count bounds the entries; filling
    # arrays of that size keeps one chunk's parts alive at a time
    indices = np.empty(text.count(":"), dtype=np.int64)
    data = np.empty(indices.size)
    labels, lengths = [], []
    nnz = 0
    for chunk_labels, k, cols, vals in _parse_chunks(text):
        indices[nnz : nnz + cols.size] = cols
        data[nnz : nnz + cols.size] = vals
        nnz += cols.size
        labels.append(chunk_labels)
        lengths.append(k)
    del text, cols, vals  # a file's text and the last chunk go before any dense copy
    labels, lengths = np.concatenate(labels), np.concatenate(lengths)
    indices, data = indices[:nnz], data[:nnz]
    if not labels.size:
        raise ParseError(0, "no examples found")
    d = dim if dim is not None else int(indices.max(initial=0)) + 1

    y = labels
    if loss_kind is LossKind.LOGISTIC and np.all(np.isfinite(y)):  # Problem rejects the rest
        distinct = np.unique(y)
        if distinct.size > 2:
            raise ParseError(0, f"{distinct.size} distinct labels; logistic needs two")
        y = np.where(y == distinct[0], -1.0, 1.0) if distinct.size == 2 else np.ones_like(y)
    return Problem(
        loss_kind=loss_kind,
        dim=d,
        labels=y,
        indptr=np.concatenate(([0], np.cumsum(lengths))),
        indices=indices,
        data=data,
    )


def _parse_chunks(text: str):
    """Yield the parsed parts of consecutive pieces of `text` of about
    CHUNK_CHARS, each cut after a newline; an empty text is one empty piece."""
    start = 0
    line_no = 1
    while True:
        end = text.find("\n", start + CHUNK_CHARS)
        end = len(text) if end < 0 else end + 1
        chunk = text[start:end]
        part = _parse_plain(chunk)
        if part is None:
            lines = chunk.splitlines()
            part = _parse_lines(lines, line_no)
            line_no += len(lines)
        else:
            line_no += chunk.count("\n")  # a plain chunk breaks lines at LF only
        yield part
        if end == len(text):
            return
        start = end


def _parse_lines(lines: list[str], first_line_no: int):
    """The per-token definition of the format: parse `lines`, numbered from
    `first_line_no`, into (labels, features per row, 0-based columns,
    values), raising ParseError at the first malformed line."""
    # typed buffers hold 8 bytes per entry, where a list holds a float object
    labels = array("d")
    lengths = array("q")
    cols = array("q")
    vals = array("d")
    for line_no, raw in enumerate(lines, start=first_line_no):
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
        lengths.append(len(tokens) - 1)
    return (
        np.frombuffer(labels),
        np.frombuffer(lengths, dtype=np.int64),
        np.frombuffer(cols, dtype=np.int64),
        np.frombuffer(vals),
    )


def _parse_plain(chunk: str):
    """`_parse_lines`'s result for a chunk of plain lines, from one
    np.fromstring; None unless byte scans prove every line plain.

    A plain line is `label idx:val ...`: fields one space apart, at most one
    trailing space, an LF or CRLF end, ASCII only, indices of digits and
    signs, and no comment, tab, blank line, empty field or NaN.
    """
    try:
        raw = chunk.encode("ascii")
    except UnicodeEncodeError:
        return None
    if raw.isspace():  # numpy reads a text of only whitespace as [-1.0]
        return None
    # drop the line ends' CRs and trailing spaces, so that every field of a
    # line sits between two separators of `( :)*`
    raw = raw.replace(b"\r\n", b"\n").replace(b" \n", b"\n")
    classes = raw.translate(_CLASSES, _DIGITS_AND_SIGNS)
    seps = classes.translate(None, b"x")
    if not raw.endswith(b"\n"):
        seps += b"\n"  # the last line's end, even where its fields left no byte
    pairs = seps.count(b" :")
    # no stray byte, every index digits and signs, and every line `( :)*`:
    # each ":" follows a space and each space precedes a ":"
    if b"?" in classes or b" x" in classes or seps.count(b":") != pairs or seps.count(b" ") != pairs:
        return None
    ends = np.flatnonzero(np.frombuffer(seps, dtype=np.uint8) == ord("\n"))
    k = (np.diff(ends, prepend=-1) - 1) // 2  # features per line
    with warnings.catch_warnings():
        # numpy before 2.3 warns, and returns what it read, where it stops early
        warnings.simplefilter("error", DeprecationWarning)
        try:
            nums = np.fromstring(raw.replace(b":", b" "), sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    # one label and two numbers per feature, and no field holds two numbers,
    # so fewer means an empty field; a NaN goes to the loop, since numpy
    # drops the sign of "-nan"
    if nums.size != ends.size + 2 * k.sum() or np.isnan(nums).any():
        return None
    first = np.cumsum(k) - k  # each line's first feature
    is_label = np.zeros(nums.size, dtype=bool)
    is_label[np.arange(ends.size) + 2 * first] = True
    idx, vals = nums[~is_label].reshape(-1, 2).T
    row_start = np.zeros(idx.size + 1, dtype=bool)
    row_start[first] = True
    # digits only, so integral; below 2**53, so exact
    rising = (idx[1:] > idx[:-1]) | row_start[1:-1]
    if not (np.all(idx >= 1) and np.all(idx < _EXACT_INDEX_LIMIT) and rising.all()):
        return None
    return nums[is_label], k, idx.astype(np.int64) - 1, vals


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
