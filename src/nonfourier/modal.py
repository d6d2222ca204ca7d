"""Separation-of-variables stability analysis on an interval.

For each Laplacian eigenvalue the temperature equation collapses to a
constant-coefficient ODE; this module builds the per-mode characteristic
polynomial, applies the Routh-Hurwitz criterion, evaluates the cubic
discriminant, classifies the mode from its roots and reconstructs the scalar
modal solution.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .models import ModelParams, temperature_law
from .tensors import InvalidInputError, Poly, RootSet, solve_poly


class InvalidKindError(ValueError):
    """No separated temperature equation implemented for this model kind."""


class RepeatedRootError(ValueError):
    """Modal reconstruction needs distinct roots."""


@dataclass(frozen=True)
class SpectralProblem:
    """Interval spectrum setup; rho_c scales Laplacian eigenvalues to
    Lambda_tilde = Lambda / rho_c."""

    bc: str  # "dirichlet" | "neumann"
    L: float
    n_max: int
    rho_c: float = 1.0

    def __post_init__(self):
        if self.bc not in ("dirichlet", "neumann"):
            raise InvalidInputError(f"unsupported bc {self.bc!r}")
        if self.L <= 0 or self.n_max < 1 or self.rho_c <= 0:
            raise InvalidInputError("need L > 0, n_max >= 1, rho_c > 0")


@dataclass(frozen=True)
class ModeReport:
    n: int
    Lambda: float
    Lambda_tilde: float
    poly: Poly
    roots: RootSet
    rh_pass: bool
    discriminant: Optional[float]
    classification: str


def laplacian_eigenvalues(p: SpectralProblem) -> List[float]:
    """Ascending interval spectrum: (n*pi/L)^2 with n starting at 1 for
    Dirichlet and at 0 for Neumann."""
    start = 1 if p.bc == "dirichlet" else 0
    return [(n * np.pi / p.L) ** 2 for n in range(start, start + p.n_max)]


def characteristic_poly(m: ModelParams, lam_tilde: float) -> Poly:
    """Characteristic polynomial of the separated temperature equation.

    With rho_c theta_dot = -div q, the rate-law row gives
    a2 s^3 + a1 s^2 + a0 s + Lambda_tilde (b1 s + b0), truncated at the
    kind's order: degree 1 or 2 for the first-flux-rate laws and the two
    cubics (Moore-Gibson-Thompson type and its two-relaxation
    generalization) for the second-flux-rate ones.
    """
    if lam_tilde < 0:
        raise InvalidInputError("Lambda_tilde must be nonnegative")
    law = temperature_law(m, InvalidKindError)
    coeffs = list(reversed(law.a)) + [lam_tilde * law.b0]
    if law.b1 is not None:
        lt_b1 = lam_tilde * law.b1
        coeffs[-2] = coeffs[-2] + lt_b1 if coeffs[-2] != 0 else lt_b1
    return Poly(tuple(coeffs))


def routh_hurwitz_quadratic(a2: float, a1: float, a0: float) -> bool:
    """All roots strictly in the left half-plane iff the three coefficients
    share one strict sign."""
    if a2 == 0:
        raise InvalidInputError("leading coefficient must be nonzero")
    s = np.sign(a2)
    return bool(s * a1 > 0 and s * a0 > 0)


def routh_hurwitz_cubic(a3: float, a2: float, a1: float, a0: float) -> bool:
    """Same-sign coefficients plus the bridge inequality a2*a1 > a0*a3."""
    if a3 == 0:
        raise InvalidInputError("leading coefficient must be nonzero")
    s = np.sign(a3)
    if not (s * a2 > 0 and s * a1 > 0 and s * a0 > 0):
        return False
    return bool(a2 * a1 > a0 * a3)


def routh_hurwitz(p: Poly) -> bool:
    c = p.coeffs
    if p.degree == 1:
        return bool(np.sign(c[0]) * c[1] > 0)
    if p.degree == 2:
        return routh_hurwitz_quadratic(*c)
    return routh_hurwitz_cubic(*c)


def cubic_discriminant(a3: float, a2: float, a1: float, a0: float) -> float:
    """Standard discriminant, equal to a3^4 * prod_{i<j} (w_i - w_j)^2."""
    return (
        18.0 * a3 * a2 * a1 * a0
        - 4.0 * a2**3 * a0
        + a2**2 * a1**2
        - 4.0 * a3 * a1**3
        - 27.0 * a3**2 * a0**2
    )


def mgt_discriminant(tau: float, kappa: float, xi: float, lam_tilde: float) -> float:
    """Discriminant of tau*w^3 + w^2 + Lt*kappa*w + Lt*xi.

    Negative iff the cubic has one real root and a complex-conjugate pair;
    for tau = kappa = xi = 1 it is negative for every Lambda_tilde > 0, so
    oscillating modes always appear. Written in the factored form
    -Lt*(4*kappa^3*tau*Lt^2 + (9*tau*xi*(3*tau*xi - 2*kappa) - kappa^2)*Lt
    + 4*xi), identical to the standard discriminant of the coefficients.
    """
    lt = lam_tilde
    return -lt * (
        4.0 * kappa**3 * tau * lt**2
        + (9.0 * tau * xi * (3.0 * tau * xi - 2.0 * kappa) - kappa**2) * lt
        + 4.0 * xi
    )


def classify_mode(roots: RootSet, tol: Optional[float] = None) -> str:
    """Stability class from root locations with a relative tolerance band."""
    rs = roots.roots
    if tol is None:
        tol = 1e-9 * max(abs(r) for r in rs) if rs else 0.0
    re = np.array([r.real for r in rs])
    im = np.array([r.imag for r in rs])
    if np.any(re > tol):
        return "unstable"
    if np.any((np.abs(re) <= tol) & (im != 0)):
        return "neutral_oscillation"
    if np.all(re < -tol):
        return "decaying" if np.all(im == 0) else "oscillatory_decaying"
    return "mixed"


def modal_solution(roots: RootSet, init: Sequence[float]) -> Callable[[float], float]:
    """Scalar solution T(t) = sum_i C_i exp(w_i t) with C from the initial
    value and derivatives; rejects (near-)repeated roots."""
    ws = np.array(roots.roots, dtype=complex)
    d = len(ws)
    if len(init) != d:
        raise InvalidInputError("need one initial value per polynomial degree")
    scale = max(1.0, max(abs(w) for w in ws))
    for i in range(d):
        for j in range(i + 1, d):
            if abs(ws[i] - ws[j]) <= 1e-8 * scale:
                raise RepeatedRootError("roots too close for an exponential basis")
    vand = np.vander(ws, d, increasing=True).T  # row k: ws**k
    coef = np.linalg.solve(vand, np.asarray(init, dtype=complex))

    def T(t):
        t = np.asarray(t, dtype=float)
        return np.real(np.exp(np.multiply.outer(t, ws)) @ coef)

    return T


def mode_report(m: ModelParams, n: int, Lambda: float, rho_c: float) -> ModeReport:
    lt = Lambda / rho_c
    p = characteristic_poly(m, lt)
    roots = solve_poly(p)
    disc = cubic_discriminant(*p.coeffs) if p.degree == 3 else None
    return ModeReport(
        n=n,
        Lambda=Lambda,
        Lambda_tilde=lt,
        poly=p,
        roots=roots,
        rh_pass=routh_hurwitz(p),
        discriminant=disc,
        classification=classify_mode(roots),
    )


def mode_reports(p: SpectralProblem, m: ModelParams) -> List[ModeReport]:
    start = 1 if p.bc == "dirichlet" else 0
    return [
        mode_report(m, n, lam, p.rho_c)
        for n, lam in zip(range(start, start + p.n_max), laplacian_eigenvalues(p))
    ]
