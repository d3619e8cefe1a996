"""Problem data for the LQ mean-field model and its standing-assumption checks.

An instance collects the agent dynamics ``dx_i = (A x_i + B u_i) dt + D dW_i``
and the discounted quadratic cost with mean-field coupling
``Gamma * mean(x) + eta``, state weight `Q` (symmetric, possibly indefinite),
control weight ``R > 0`` and discount rate ``rho > 0``.  ``x0`` is the
initial mean field.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import riccati
from .linalg import as_square, as_symmetric, default_axis_tol, eigenvalues, weighted_gram

__all__ = [
    "GammaWeights",
    "ProblemData",
    "ValidationReport",
    "discounted_riccati",
    "gamma_weights",
    "validate",
]

@dataclass(frozen=True)
class ProblemData:
    """One LQ mean-field problem instance; `D` is only needed for simulation."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Gamma: np.ndarray
    eta: np.ndarray
    rho: float
    x0: np.ndarray
    D: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        a = as_square(self.A, "A")
        n = a.shape[0]
        b = np.asarray(self.B, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        if b.shape[0] != n or b.shape[1] == 0:
            raise ValueError(f"B must have {n} rows and at least one column, "
                             f"got shape {b.shape}")
        q = as_symmetric(self.Q, "Q")
        r = as_symmetric(self.R, "R")
        gam = as_square(self.Gamma, "Gamma")
        eta = np.asarray(self.eta, dtype=float).reshape(-1)
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if q.shape[0] != n or gam.shape[0] != n:
            raise ValueError("Q and Gamma must match the state dimension")
        if r.shape[0] != b.shape[1]:
            raise ValueError(
                f"R must be {b.shape[1]}x{b.shape[1]} for {b.shape[1]} controls"
            )
        if eta.size != n or x0.size != n:
            raise ValueError("eta and x0 must have the state dimension")
        if not (np.isfinite(self.rho) and self.rho > 0.0):
            raise ValueError(f"discount rate rho must be positive, got {self.rho}")
        d = self.D
        if d is not None:
            d = np.asarray(d, dtype=float)
            if d.ndim == 1:
                d = d[:, None]
            if d.shape[0] != n or not np.isfinite(d).all():
                raise ValueError(f"D must have {n} finite rows, got shape {d.shape}")
        for name, val in (("A", a), ("B", b), ("Q", q), ("R", r),
                          ("Gamma", gam), ("eta", eta), ("x0", x0), ("D", d)):
            object.__setattr__(self, name, val)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def n1(self):
        return self.B.shape[1]

    @property
    def n2(self):
        return None if self.D is None else self.D.shape[1]

    def control_gram(self):
        """``B @ inv(R) @ B'`` via a Cholesky solve, symmetrized."""
        return weighted_gram(self.B, self.R)


@dataclass(frozen=True)
class GammaWeights:
    """Coupling-adjusted weights entering the mean-field equations:
    ``Q_Gamma = Gamma' Q + Q Gamma - Gamma' Q Gamma`` and
    ``eta_Gamma = (I - Gamma') Q eta``."""

    Q_Gamma: np.ndarray
    eta_Gamma: np.ndarray


def gamma_weights(Q, Gamma, eta):
    """Compute :class:`GammaWeights` from the cost data."""
    Q = as_square(Q, "Q")
    Gamma = as_square(Gamma, "Gamma")
    eta = np.asarray(eta, dtype=float).reshape(-1)
    q_gamma = Gamma.T @ Q + Q @ Gamma - Gamma.T @ Q @ Gamma
    q_gamma = 0.5 * (q_gamma + q_gamma.T)
    eta_gamma = (np.eye(Q.shape[0]) - Gamma.T) @ (Q @ eta)
    return GammaWeights(Q_Gamma=q_gamma, eta_Gamma=eta_gamma)


@dataclass(frozen=True)
class ValidationReport:
    """Verdicts for the standing assumptions of the solvers.

    `stabilizability_margin` is the scaled PBH margin (``inf`` when `A` is
    stable); `axis_margin` is the distance of the discount-shifted
    Hamiltonian spectrum from the imaginary axis, or ``None`` when it could
    not be formed because `R` failed.  Borderline margins are reported, not
    rejected; hard failures flip the corresponding flag.
    """

    stabilizable: bool
    stabilizability_margin: float
    r_positive_definite: bool
    r_min_eigenvalue: float
    axis_ok: Optional[bool]
    axis_margin: Optional[float]
    axis_tol: float

    @property
    def ok(self):
        return bool(self.stabilizable and self.r_positive_definite and self.axis_ok)

    def failures(self):
        """Names of the failed checks, in check order."""
        out = []
        if not self.stabilizable:
            out.append("stabilizability")
        if not self.r_positive_definite:
            out.append("R_positive_definite")
        if self.axis_ok is False:
            out.append("shifted_hamiltonian_axis")
        return out


def validate(p):
    """Check stabilizability of ``(A, B)``, positive definiteness of `R`,
    and that the discount-shifted Hamiltonian built from `Q` has no
    eigenvalues within :func:`linalg.default_axis_tol` of the imaginary
    axis.  Never raises; the report carries the verdicts and margins.
    """
    margin = riccati.stabilizability_margin(p.A, p.B)
    stabilizable = bool(margin > riccati.PBH_TOL)
    r_min, r_ok = riccati.r_definiteness(p.R)
    axis_ok = None
    axis_margin = None
    tol = 0.0
    if r_ok:
        shifted = p.A - 0.5 * p.rho * np.eye(p.n)
        h = riccati.care_hamiltonian(
            riccati.CareProblem(shifted, p.control_gram(), p.Q)
        )
        tol = default_axis_tol(h)
        axis_margin = float(np.abs(eigenvalues(h).real).min())
        axis_ok = bool(axis_margin > tol)
    return ValidationReport(
        stabilizable=stabilizable,
        stabilizability_margin=margin,
        r_positive_definite=r_ok,
        r_min_eigenvalue=r_min,
        axis_ok=axis_ok,
        axis_margin=axis_margin,
        axis_tol=tol,
    )


def discounted_riccati(p):
    """Front end of the social and game solvers: the PBH test on ``(A, B)``
    (it rejects an uncontrollable mode with ``0 <= Re lam < rho/2``, which
    the discounted solve accepts), then :func:`riccati.solve_discounted_are`,
    whose own `R` and axis checks use the thresholds of :func:`validate`."""
    riccati.require_stabilizable(p.A, p.B, "(A, B)")
    return riccati.solve_discounted_are(p.A, p.B, p.Q, p.R, p.rho)
