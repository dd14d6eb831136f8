import numpy as np
import pytest

from fuvalkit.problems import loss_value, objective
from fuvalkit.surrogate import (
    SurrogateAnchor,
    grad_phi_i,
    gradient_bound_residual,
    inf_s_phi_i,
    penalty_value,
    phi_i,
)
from test_problems import make_problem

KINK_MARGIN = 1e-3  # exclude the hinge neighborhood from finite-difference checks


def random_state(problem, rng, lam=0.5, delta=0.7):
    w = rng.normal(size=problem.dim)
    s = rng.normal(size=problem.n)
    anchor = SurrogateAnchor.at(problem, w, lam, delta)
    return w, s, anchor


class TestAnchor:
    def test_anchor_freezes_gradient_norms(self):
        problem = make_problem(seed=1)
        rng = np.random.default_rng(0)
        w = rng.normal(size=problem.dim)
        anchor = SurrogateAnchor.at(problem, w, 0.5, 0.7)
        from fuvalkit.problems import loss_grad

        for i in range(1, problem.n + 1):
            g = loss_grad(problem, i, w)
            assert anchor.grad_norms_sq[i - 1] == pytest.approx(float(g @ g), rel=1e-12)

    def test_invalid_scales_rejected(self):
        with pytest.raises(ValueError):
            SurrogateAnchor(grad_norms_sq=np.ones(2), lam=-1.0, delta=1.0)
        with pytest.raises(ValueError):
            SurrogateAnchor(grad_norms_sq=np.ones(2), lam=1.0, delta=0.0)
        with pytest.raises(ValueError):
            SurrogateAnchor(grad_norms_sq=np.array([-1.0]), lam=1.0, delta=1.0)

    def test_surrogate_evaluates_away_from_anchor(self):
        # the anchor's norms stay frozen when phi is evaluated elsewhere
        problem = make_problem(seed=2)
        rng = np.random.default_rng(1)
        w, s, anchor = random_state(problem, rng)
        w_other = rng.normal(size=problem.dim)
        moved = SurrogateAnchor.at(problem, w_other, anchor.lam, anchor.delta)
        terms = [phi_i(anchor, problem, i, w_other, s) for i in range(1, problem.n + 1)]
        moved_terms = [phi_i(moved, problem, i, w_other, s) for i in range(1, problem.n + 1)]
        assert terms != pytest.approx(moved_terms, rel=1e-12)


class TestPhiValues:
    def test_phi_at_large_slack_reduces_to_slack(self):
        # when s_i far exceeds f_i + delta the hinge vanishes
        problem = make_problem(seed=4)
        rng = np.random.default_rng(3)
        w, _, anchor = random_state(problem, rng)
        s = np.full(problem.n, 100.0)
        for i in range(1, problem.n + 1):
            assert phi_i(anchor, problem, i, w, s) == pytest.approx(100.0)


class TestGradPhi:
    def test_fd_gradient_away_from_kink(self):
        problem = make_problem(seed=5)
        rng = np.random.default_rng(4)
        h = 1e-6
        checked = 0
        while checked < 50:
            w, s, anchor = random_state(problem, rng)
            i = int(rng.integers(problem.n)) + 1
            if abs(loss_value(problem, i, w) - s[i - 1] + anchor.delta) <= KINK_MARGIN:
                continue
            gw, gs = grad_phi_i(anchor, problem, i, w, s)
            for k in range(problem.dim):
                e = np.zeros(problem.dim)
                e[k] = h
                fd = (phi_i(anchor, problem, i, w + e, s) - phi_i(anchor, problem, i, w - e, s)) / (2 * h)
                assert gw[k] == pytest.approx(fd, rel=1e-5, abs=1e-7)
            es = np.zeros(problem.n)
            es[i - 1] = h
            fd_s = (phi_i(anchor, problem, i, w, s + es) - phi_i(anchor, problem, i, w, s - es)) / (2 * h)
            assert gs[i - 1] == pytest.approx(fd_s, rel=1e-5, abs=1e-7)
            checked += 1

    def test_s_gradient_supported_on_one_coordinate(self):
        problem = make_problem(seed=6)
        rng = np.random.default_rng(5)
        w, s, anchor = random_state(problem, rng)
        _, gs = grad_phi_i(anchor, problem, 2, w, s)
        mask = np.ones(problem.n, dtype=bool)
        mask[1] = False
        assert np.all(gs[mask] == 0.0)


class TestClosedForms:
    def test_inf_s_matches_numeric_scan(self):
        problem = make_problem(seed=7)
        rng = np.random.default_rng(6)
        w, s, anchor = random_state(problem, rng)
        for i in range(1, problem.n + 1):
            closed = inf_s_phi_i(anchor, problem, i, w)
            grid = np.linspace(-20, 20, 400001)
            vals = [phi_i(anchor, problem, i, w, np.where(np.arange(problem.n) == i - 1, sv, s))
                    for sv in grid[::4000]]
            assert closed <= min(vals) + 1e-6

    def test_stationary_slack_zeroes_the_gradient(self):
        # at (w, s*) with s*_i = f_i(w) - lam ||g_i||^2 the surrogate gradient
        # step leaves (w, s) unchanged for gamma-scaled updates
        problem = make_problem(seed=10)
        rng = np.random.default_rng(9)
        w = rng.normal(size=problem.dim)
        lam, delta = 0.3, 0.9
        anchor = SurrogateAnchor.at(problem, w, lam, delta)
        s = np.array(
            [loss_value(problem, i, w) - lam * anchor.grad_norms_sq[i - 1] for i in range(1, problem.n + 1)]
        )
        for i in range(1, problem.n + 1):
            gw, gs = grad_phi_i(anchor, problem, i, w, s)
            # the hinge ratio equals 1 exactly at the stationary slack, so the
            # slack gradient vanishes and the w-gradient is the raw loss gradient
            assert gs[i - 1] == pytest.approx(0.0, abs=1e-12)
            from fuvalkit.problems import loss_grad

            np.testing.assert_allclose(gw, loss_grad(problem, i, w), rtol=1e-10, atol=1e-12)

    def test_gradient_bound_residual_is_roundoff(self):
        problem = make_problem(seed=11)
        rng = np.random.default_rng(10)
        for _ in range(100):
            w = rng.normal(size=problem.dim)
            s = rng.normal(size=problem.n) * 3
            j = int(rng.integers(problem.n)) + 1
            lam = float(rng.uniform(0.05, 2.0))
            delta = float(rng.uniform(0.05, 2.0))
            for lam_case in (lam, 0.0):
                assert abs(gradient_bound_residual(problem, w, s, j, lam_case, delta)) <= 1e-10


class TestPenalty:
    def test_penalty_at_exact_slack_equals_objective(self):
        problem = make_problem(seed=12)
        rng = np.random.default_rng(11)
        w = rng.normal(size=problem.dim)
        s = np.array([loss_value(problem, i, w) for i in range(1, problem.n + 1)])
        for c in (1.0, 2.0, 10.0):
            assert penalty_value(problem, w, s, c) == pytest.approx(objective(problem, w), rel=1e-12)

    def test_penalty_dominates_objective(self):
        problem = make_problem(seed=13)
        rng = np.random.default_rng(12)
        for _ in range(100):
            w = rng.normal(size=problem.dim)
            s = rng.normal(size=problem.n) * 2
            for c in (1.0, 2.0, 10.0):
                assert penalty_value(problem, w, s, c) >= objective(problem, w) - 1e-10

    def test_negative_multiplier_rejected(self):
        problem = make_problem(seed=14)
        with pytest.raises(ValueError):
            penalty_value(problem, np.zeros(problem.dim), np.zeros(problem.n), -1.0)
