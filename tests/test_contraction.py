import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import PROBLEM_DIR, indefinite_social_problem, random_problem
from mflq import contraction
from mflq.cli import load_problem_file
from mflq.contraction import contraction_bound, decaying_norm_integral
from mflq.errors import MflqError, UnstableGenerator
from mflq.linalg import mat_exp, spectral_abscissa, weighted_gram
from mflq.problem import ProblemData, gamma_weights
from mflq.riccati import solve_discounted_are


def _pi_for(p):
    return solve_discounted_are(p).Y


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

    @pytest.mark.parametrize("a", [
        np.array([[-1.0, 1.0], [0.0, -1.0]]),
        -np.eye(3) + np.eye(3, k=1),
    ], ids=["defective_2x2", "jordan_3x3"])
    def test_defective_drift_oracle(self, a):
        # no eigenvector basis: the horizon must not rest on one
        c = np.eye(len(a))
        value = decaying_norm_integral(a, c)
        oracle = quad(lambda t: np.linalg.norm(mat_exp(a * t) @ c, "fro"),
                      0.0, np.inf, limit=400, epsabs=0.0, epsrel=1e-11)[0]
        assert value == pytest.approx(oracle, rel=1e-8)

    def test_zero_integrand(self):
        assert decaying_norm_integral(-np.eye(2), np.zeros((2, 2))) == 0.0

    def test_unconverged_quadrature_raises(self):
        # a fast mode decays within the first panels of the slow mode's
        # horizon; the last estimate is 3.3e-5 off quad, so none is returned
        with pytest.raises(MflqError, match=r"^the integral of \|\|exp\(a t\) c\|\|_F "
                           r"did not converge in 6 panel doublings \(last relative "
                           r"change 3\.\d{3}e-05, tolerance 1e-06\)$"):
            decaying_norm_integral(np.diag([-1e-3, -1e3]), np.eye(2))

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
        q_gamma = gamma_weights(p)[0]
        plus = decaying_norm_integral(a_shift.T, q_gamma)
        minus = decaying_norm_integral(a_shift.T, -q_gamma)
        assert plus == pytest.approx(minus, rel=1e-12)

    @pytest.mark.parametrize("pi,match", [
        (np.array([[np.nan]]), "^Pi "),
        (np.ones((1, 2)), "^Pi "),
        # square, but of the wrong size: refused before any product with it
        (np.eye(2), r"^Pi must have shape \(1, 1\), got \(2, 2\)$"),
    ], ids=["nan", "not_square", "wrong_size"])
    def test_outside_pi_is_checked(self, pi, match):
        p = ProblemData(A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                        Gamma=[[0.5]], eta=[0.0], rho=1.0, x0=[0.0])
        with pytest.raises(ValueError, match=match):
            contraction_bound(p, pi)

    def test_unstable_generator_raises(self):
        p = ProblemData(A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                        Gamma=[[0.5]], eta=[0.0], rho=1.0, x0=[0.0])
        with pytest.raises(UnstableGenerator):
            contraction_bound(p, np.zeros((1, 1)))  # not the solving Pi


def _stiff(B, gamma):
    # the shifted drift is diag(-1e-3, -1e3): too stiff for the quadrature
    return ProblemData(A=np.diag([-5e-4, -999.9995]), B=B, Q=np.eye(2), R=[[1.0]],
                       Gamma=gamma * np.eye(2), eta=[1.0, 1.0], rho=1e-3,
                       x0=[1.0, 1.0])


class TestZeroFactor:
    """A factor whose matrix is exactly zero makes ``beta`` exactly 0; the
    other factor's quadrature does not run, so it cannot refuse."""

    @pytest.mark.parametrize("p", [_stiff([[0.0], [0.0]], 0.5),
                                   _stiff([[0.0], [1.0]], 0.0)],
                             ids=["no_control", "no_coupling"])
    def test_stiff_drift_gives_exact_zero(self, p):
        assert contraction_bound(p, _pi_for(p)) == 0.0

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), zero=st.sampled_from(["Gamma", "B"]))
    def test_zero_factor_gives_exact_zero(self, seed, zero):
        p = random_problem(np.random.default_rng(seed), max_n=6)
        pi = _pi_for(p)
        p = dataclasses.replace(p, **{zero: np.zeros_like(getattr(p, zero))})
        # with B = 0 the drift is A - (rho/2) I, which may be unstable
        a_shift = p.A - weighted_gram(p.B, p.R) @ pi - 0.5 * p.rho * np.eye(p.n)
        if spectral_abscissa(a_shift) >= 0.0:
            with pytest.raises(UnstableGenerator):
                contraction_bound(p, pi)
        else:
            assert contraction_bound(p, pi) == 0.0

    @pytest.mark.parametrize("zero", ["Gamma", "B"])
    def test_unstable_drift_still_raises(self, zero):
        p = ProblemData(A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                        Gamma=[[0.5]], eta=[0.0], rho=1.0, x0=[0.0])
        p = dataclasses.replace(p, **{zero: [[0.0]]})
        with pytest.raises(UnstableGenerator):
            contraction_bound(p, np.zeros((1, 1)))  # not the solving Pi


def _scaled(p, c_cost=1.0, c_control=1.0, c_time=1.0):
    """`p` with ``(Q, R)`` times `c_cost`, ``(B, R)`` times ``(c_control,
    c_control**2)`` and ``(A, B, Q, R, rho)`` times `c_time`."""
    return ProblemData(A=c_time * p.A, B=c_time * c_control * p.B,
                       Q=c_time * c_cost * p.Q,
                       R=c_time * c_cost * c_control**2 * p.R,
                       Gamma=p.Gamma, eta=p.eta, rho=c_time * p.rho, x0=p.x0)


class TestUnits:
    """``beta`` is a number without units: it keeps every bit when the
    costs, the controls or time are measured in units a power of two (of
    four, for time) apart, which scales every matrix the integrals see by
    exact powers of two."""

    @pytest.mark.parametrize("name", ["ex22_degenerate", "ex41",
                                      "ex42_gamma005", "ex42_gamma2", "ex43"])
    @pytest.mark.parametrize("family", [
        lambda p, k: _scaled(p, c_cost=2.0**k),
        lambda p, k: _scaled(p, c_control=2.0**k),
        lambda p, k: _scaled(p, c_time=4.0**k),
    ], ids=["cost", "control", "time"])
    def test_power_of_two_units_are_exact(self, name, family):
        p = load_problem_file(PROBLEM_DIR / f"{name}.json")
        beta = contraction_bound(p, _pi_for(p))
        solved = 0
        for k in (-20, -8, 8, 20):
            scaled = family(p, k)
            try:
                pi = _pi_for(scaled)
            except MflqError:
                continue
            solved += 1
            assert contraction_bound(scaled, pi) == beta, k
        assert solved >= 1
