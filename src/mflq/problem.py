"""Problem data for the LQ mean-field model and its standing-assumption checks.

An instance collects the agent dynamics ``dx_i = (A x_i + B u_i) dt + D dW_i``
and the discounted quadratic cost with mean-field coupling
``Gamma * mean(x) + eta``, state weight `Q` (symmetric, possibly indefinite),
control weight ``R > 0`` and discount rate ``rho > 0``.  ``x0`` is the
initial mean field.  :class:`ProblemData` checks the shapes, the symmetry of
`Q` and `R`, finiteness and ``rho > 0`` once, when it is built; the solvers
and :func:`gamma_weights` take the checked instance and repeat none of it.

:func:`validate` reports every standing assumption at once and never
raises; the solvers do not call it, since their front end
:func:`riccati.solve_discounted_are` certifies ``(A, B)`` and `R` at the
same thresholds by what its solve produces.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import riccati
from .linalg import (add_diag, as_square, as_symmetric, block_balance, default_axis_tol,
                     eigenvalues, weighted_gram)

__all__ = [
    "GammaWeights",
    "ProblemData",
    "ValidationReport",
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
        if n == 0:
            raise ValueError("A must have at least one row: the problem has no state")
        b = np.asarray(self.B, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        if b.ndim != 2 or b.shape[0] != n or b.shape[1] == 0:
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
        for name, vec in (("B", b), ("eta", eta), ("x0", x0)):
            if not np.isfinite(vec).all():
                raise ValueError(f"{name} has non-finite entries")
        rho = np.asarray(self.rho)
        if rho.ndim or rho.dtype.kind not in "iuf":  # no bool, string or array
            raise ValueError(f"discount rate rho must be a real number, got {self.rho!r}")
        if not (np.isfinite(rho) and rho > 0.0):
            raise ValueError(f"discount rate rho must be positive, got {self.rho}")
        d = self.D
        if d is not None:
            d = np.asarray(d, dtype=float)
            if d.ndim == 1:
                d = d[:, None]
            if d.ndim != 2 or d.shape[0] != n or not np.isfinite(d).all():
                raise ValueError(f"D must have {n} finite rows, got shape {d.shape}")
        for name, val in (("A", a), ("B", b), ("Q", q), ("R", r), ("Gamma", gam),
                          ("eta", eta), ("rho", float(rho)), ("x0", x0), ("D", d)):
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


@dataclass(frozen=True)
class GammaWeights:
    """Coupling-adjusted weights entering the mean-field equations:
    ``Q_Gamma = Gamma' Q + Q Gamma - Gamma' Q Gamma`` and
    ``eta_Gamma = (I - Gamma') Q eta``."""

    Q_Gamma: np.ndarray
    eta_Gamma: np.ndarray


def gamma_weights(p):
    """:class:`GammaWeights` of the problem `p`, from its checked `Q`,
    `Gamma` and `eta`."""
    q, g = p.Q, p.Gamma
    q_gamma = g.T @ q + q @ g - g.T @ q @ g
    q_gamma = 0.5 * (q_gamma + q_gamma.T)
    eta_gamma = add_diag(0.0 - g.T, 1.0) @ (q @ p.eta)  # 0 - g: I - Gamma' bit for bit
    return GammaWeights(Q_Gamma=q_gamma, eta_Gamma=eta_gamma)


@dataclass(frozen=True)
class ValidationReport:
    """Verdicts for the standing assumptions of the solvers.

    `stabilizability_margin` is the scaled PBH margin (``inf`` when `A` is
    stable); `axis_margin` is the distance of the discount-shifted
    Hamiltonian spectrum from the imaginary axis, or ``None`` when it could
    not be formed because `R` failed or ``B inv(R) B'`` or ``A - (rho/2) I``
    overflows; `axis_ok` compares it with :func:`linalg.default_axis_tol` of
    the balanced Hamiltonian.  Borderline margins are reported, not
    rejected; hard failures flip the corresponding flag.  The thresholds
    are absolute, so a report can fail on a problem the solvers certify: it
    explains a failed solve, it does not decide one.
    """

    stabilizable: bool
    stabilizability_margin: float
    r_positive_definite: bool
    r_min_eigenvalue: float
    axis_ok: Optional[bool]
    axis_margin: Optional[float]

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
    and that :func:`riccati.discounted_hamiltonian`, balanced as in the
    solvers, has no eigenvalues within :func:`linalg.default_axis_tol` of
    the imaginary axis.  Never raises; the report carries the verdicts and margins.
    """
    margin = riccati.stabilizability_margin(p.A, p.B)
    stabilizable = bool(margin > riccati.PBH_TOL)
    r_min, r_ok = riccati.r_definiteness(p.R)
    axis_ok, axis_margin = None, None
    if r_ok:
        try:
            h, _ = block_balance(riccati.discounted_hamiltonian(p, weighted_gram(p.B, p.R)))
        except ValueError:  # B inv(R) B' or A - (rho/2) I overflows: no Hamiltonian
            axis_ok = False
        else:
            axis_margin = float(np.abs(eigenvalues(h).real).min())
            axis_ok = bool(axis_margin > default_axis_tol(h))
    return ValidationReport(
        stabilizable=stabilizable,
        stabilizability_margin=margin,
        r_positive_definite=r_ok,
        r_min_eigenvalue=r_min,
        axis_ok=axis_ok,
        axis_margin=axis_margin,
    )
