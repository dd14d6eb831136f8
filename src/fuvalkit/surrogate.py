"""Anchor-dependent online surrogate of the slack-variable reformulation.

The surrogate freezes the per-sample gradient norms at an anchor point, which
is exactly what makes one stochastic-gradient step on it coincide with the
slack-learning update.  The anchor is a first-class value so tests can
evaluate the surrogate away from the point it was taken at.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import Problem, loss_grad, loss_value
from .projections import positive_part


@dataclass(frozen=True)
class SurrogateAnchor:
    """Frozen per-sample squared gradient norms plus the two step scales."""

    grad_norms_sq: np.ndarray
    lam: float
    delta: float

    def __post_init__(self):
        if self.lam < 0 or self.delta <= 0:
            raise ValueError("need lam >= 0 and delta > 0")
        if not np.all(np.isfinite(self.grad_norms_sq)) or np.any(self.grad_norms_sq < 0):
            raise ValueError("grad_norms_sq must be finite and nonnegative")

    @classmethod
    def at(cls, problem: Problem, w: np.ndarray, lam: float, delta: float) -> "SurrogateAnchor":
        norms = np.array(
            [float(np.sum(loss_grad(problem, i, w) ** 2)) for i in range(1, problem.n + 1)]
        )
        return cls(grad_norms_sq=norms, lam=lam, delta=delta)


def _denom(anchor: SurrogateAnchor, i: int) -> float:
    return anchor.delta + anchor.lam * float(anchor.grad_norms_sq[i - 1])


def phi_i(anchor: SurrogateAnchor, problem: Problem, i: int, w: np.ndarray, s: np.ndarray) -> float:
    """Surrogate term for sample i at (w, s)."""
    gap = positive_part(loss_value(problem, i, w) - float(s[i - 1]) + anchor.delta)
    return 0.5 * gap * gap / _denom(anchor, i) + float(s[i - 1])


def grad_phi_i(
    anchor: SurrogateAnchor, problem: Problem, i: int, w: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of phi_i in (w, s); the s-gradient is supported on coordinate i."""
    ratio = positive_part(loss_value(problem, i, w) - float(s[i - 1]) + anchor.delta)
    ratio /= _denom(anchor, i)
    grad_w = ratio * loss_grad(problem, i, w)
    grad_s = np.zeros(problem.n)
    grad_s[i - 1] = 1.0 - ratio
    return grad_w, grad_s


def inf_s_phi_i(anchor: SurrogateAnchor, problem: Problem, i: int, w: np.ndarray) -> float:
    """Minimum of phi_i over the slack variable, in closed form."""
    g_sq = float(anchor.grad_norms_sq[i - 1])
    return loss_value(problem, i, w) + anchor.delta / 2.0 - anchor.lam * g_sq / 2.0


def gradient_bound_residual(
    problem: Problem,
    w: np.ndarray,
    s: np.ndarray,
    j: int,
    lam: float,
    delta: float,
) -> float:
    """Residual of the identity tying the weighted gradient norm of phi_j to
    its value.  The anchor is taken at w itself (self-anchored); the residual
    is zero up to roundoff on all valid inputs."""
    anchor = SurrogateAnchor.at(problem, w, lam, delta)
    grad_w, grad_s = grad_phi_i(anchor, problem, j, w, s)
    # D^{-1}-norm: lam ||grad_w||^2 + delta ||grad_s||^2
    lhs = 0.5 * (lam * float(grad_w @ grad_w) + delta * float(grad_s @ grad_s))
    tau = positive_part(loss_value(problem, j, w) - float(s[j - 1]) + delta) / _denom(anchor, j)
    s_hat = float(s[j - 1]) + delta * (tau - 1.0)
    rhs = phi_i(anchor, problem, j, w, s) - s_hat - delta / 2.0
    return lhs - rhs


def penalty_value(problem: Problem, w: np.ndarray, s: np.ndarray, c: float) -> float:
    """Exact-penalty objective: mean of s_i + c (f_i(w) - s_i)_+."""
    if c < 0:
        raise ValueError("penalty multiplier must be nonnegative")
    total = 0.0
    for i in range(1, problem.n + 1):
        total += float(s[i - 1]) + c * positive_part(loss_value(problem, i, w) - float(s[i - 1]))
    return total / problem.n
