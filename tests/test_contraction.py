import numpy as np
import pytest
from scipy.integrate import quad

from conftest import indefinite_social_problem
from mflq import contraction
from mflq.contraction import contraction_bound, decaying_norm_integral
from mflq.errors import UnstableGenerator
from mflq.linalg import mat_exp, weighted_gram
from mflq.problem import ProblemData, gamma_weights
from mflq.riccati import solve_discounted_are


def _pi_for(p):
    return solve_discounted_are(p).X


class TestDecayingNormIntegral:
    def test_scalar_closed_form(self):
        # || exp(-a t) * c ||_F integrates to c / a
        value = decaying_norm_integral(np.array([[-2.0]]), np.array([[3.0]]))
        assert value == pytest.approx(1.5, rel=1e-8)

    def test_quadrature_oracle(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((3, 3))
        a = a - (np.linalg.eigvals(a).real.max() + 0.8) * np.eye(3)
        c = rng.standard_normal((3, 3))
        value = decaying_norm_integral(a, c)
        oracle = quad(lambda t: np.linalg.norm(mat_exp(a * t) @ c, "fro"),
                      0.0, np.inf, limit=400)[0]
        assert value == pytest.approx(oracle, rel=1e-5)

    def test_zero_integrand(self):
        assert decaying_norm_integral(-np.eye(2), np.zeros((2, 2))) == 0.0

    def test_unstable_rejected(self):
        with pytest.raises(UnstableGenerator):
            decaying_norm_integral(np.eye(2), np.eye(2))

    def test_panel_doubling_converges(self, monkeypatch):
        p = indefinite_social_problem()
        pi = _pi_for(p)
        gram = weighted_gram(p.B, p.R)
        a_shift = p.A - gram @ pi - 0.5 * p.rho * np.eye(2)
        simpson, history = contraction._simpson, []

        def recorded(vals, h):
            history.append(simpson(vals, h))
            return history[-1]

        monkeypatch.setattr(contraction, "_simpson", recorded)
        assert decaying_norm_integral(a_shift, gram) == history[-1]
        assert len(history) >= 2
        final, prev = history[-1], history[-2]
        assert abs(final - prev) <= 1e-6 * abs(final)
        diffs = [abs(b - a) for a, b in zip(history, history[1:])]
        assert all(later <= earlier + 1e-12
                   for earlier, later in zip(diffs, diffs[1:]))


class TestContractionBound:
    def test_strong_coupling_reference(self):
        p = indefinite_social_problem(gamma_scale=2.0)
        beta = contraction_bound(p, _pi_for(p))
        assert beta == pytest.approx(6.34694, rel=1e-2)
        assert beta > 1.0

    def test_weak_coupling_reference(self):
        p = indefinite_social_problem(gamma_scale=0.05)
        beta = contraction_bound(p, _pi_for(p))
        assert beta == pytest.approx(0.736681, rel=1e-2)
        assert beta < 1.0

    def test_zero_coupling_weight(self):
        p = ProblemData(A=[[-1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                        Gamma=[[0.0]], eta=[0.0], rho=1.0, x0=[0.0])
        assert contraction_bound(p, _pi_for(p)) == 0.0

    def test_sign_blindness(self):
        # the bound only sees the coupling weight through a norm
        p = indefinite_social_problem()
        pi = _pi_for(p)
        gram = weighted_gram(p.B, p.R)
        a_shift = p.A - gram @ pi - 0.5 * p.rho * np.eye(2)
        q_gamma = gamma_weights(p).Q_Gamma
        plus = decaying_norm_integral(a_shift.T, q_gamma)
        minus = decaying_norm_integral(a_shift.T, -q_gamma)
        assert plus == pytest.approx(minus, rel=1e-12)

    @pytest.mark.parametrize("pi", [np.array([[np.nan]]), np.ones((1, 2))],
                             ids=["nan", "not_square"])
    def test_outside_pi_is_checked(self, pi):
        p = ProblemData(A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                        Gamma=[[0.5]], eta=[0.0], rho=1.0, x0=[0.0])
        with pytest.raises(ValueError, match="^Pi "):
            contraction_bound(p, pi)

    def test_unstable_generator_raises(self):
        p = ProblemData(A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                        Gamma=[[0.5]], eta=[0.0], rho=1.0, x0=[0.0])
        with pytest.raises(UnstableGenerator):
            contraction_bound(p, np.zeros((1, 1)))  # not the solving Pi
