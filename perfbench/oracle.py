"""Newton solve for logistic problems, used as the benchmark's ground truth.

It reads the generated rows, not the parsed problem, and does its own numpy
algebra, so it shares no code with the solver it checks.
"""

from __future__ import annotations

import numpy as np

from fuvalkit.bench import ReferenceSolution
from inputs import Rows

ORACLE_TOL = 1e-12
MAX_NEWTON = 100
FULL_STEP_GRAD = 1e-6


def _losses(margins: np.ndarray) -> np.ndarray:
    m = -margins
    return np.maximum(m, 0.0) + np.log1p(np.exp(-np.abs(m)))


def _mean_loss(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    return float(np.mean(_losses(y * (x @ w))))


def newton_reference(rows: Rows) -> ReferenceSolution:
    """Damped Newton with backtracking on the mean logistic loss.

    The Hessian may be singular (one-hot groups are collinear), so each step
    is the least-squares Newton direction, which stays in the row space where
    the per-sample values are determined. Raises if the gradient does not
    reach ORACLE_TOL.
    """
    x, y = rows.dense(), rows.labels
    n = x.shape[0]
    w = np.zeros(x.shape[1])
    f = _mean_loss(x, y, w)
    for _ in range(MAX_NEWTON):
        z = y * (x @ w)
        sig = 0.5 * (1.0 + np.tanh(-0.5 * z))  # sigmoid(-z), overflow-free
        g = x.T @ (-y * sig) / n
        g_norm = float(np.linalg.norm(g))
        if g_norm <= ORACLE_TOL:
            break
        h = (x.T * (sig * (1.0 - sig))) @ x / n
        p = np.linalg.lstsq(h, -g, rcond=1e-13)[0]
        step = 1.0
        # Backtrack only far from the optimum: near it the decrease in f is
        # below its rounding, and full Newton steps converge quadratically.
        while g_norm > FULL_STEP_GRAD and step > 1e-10:
            if _mean_loss(x, y, w + step * p) <= f + 1e-4 * step * float(g @ p):
                break
            step *= 0.5
        w = w + step * p
        f = _mean_loss(x, y, w)
    else:
        raise RuntimeError(f"Newton oracle stopped at gradient norm {g_norm:.3g}")
    per_sample = _losses(y * (x @ w))
    return ReferenceSolution(
        w_star=w,
        f_star=float(np.mean(per_sample)),
        per_sample_f_star=per_sample,
        grad_norm_at_solution=g_norm,
        sigma=float(np.mean(per_sample)),
        tol=ORACLE_TOL,
        converged=True,
    )
