"""Separation-of-variables stability analysis on an interval.

For each Laplacian eigenvalue the temperature equation collapses to a
constant-coefficient ODE; this module builds the per-mode characteristic
polynomial, applies the Routh-Hurwitz criterion, evaluates the cubic
discriminant, classifies the mode from its roots and reconstructs the scalar
modal solution.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .models import ModelParams, temperature_law
# solve_poly is not called here but stays a modal attribute: perfbench's
# traced run wraps modal.solve_poly
from .tensors import InvalidInputError, Poly, RootSet, solve_poly, solve_polys  # noqa: F401


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


def _char_coeffs(m: ModelParams, lam_tilde: np.ndarray) -> np.ndarray:
    """Coefficient rows of characteristic_poly, one per Lambda_tilde."""
    if np.any(lam_tilde < 0):
        raise InvalidInputError("Lambda_tilde must be nonnegative")
    law = temperature_law(m, InvalidKindError)
    c = np.empty((lam_tilde.size, len(law.a) + 1))
    c[:, :-1] = law.a[::-1]
    c[:, -1] = lam_tilde * law.b0
    if law.b1 is not None:
        lt_b1 = lam_tilde * law.b1
        c[:, -2] = lt_b1 if c[0, -2] == 0 else c[:, -2] + lt_b1
    return c


def characteristic_poly(m: ModelParams, lam_tilde: float) -> Poly:
    """Characteristic polynomial of the separated temperature equation.

    With rho_c theta_dot = -div q, the rate-law row gives
    a2 s^3 + a1 s^2 + a0 s + Lambda_tilde (b1 s + b0), truncated at the
    kind's order: degree 1 or 2 for the first-flux-rate laws and the two
    cubics (Moore-Gibson-Thompson type and its two-relaxation
    generalization) for the second-flux-rate ones.
    """
    return Poly(tuple(_char_coeffs(m, np.array([lam_tilde], dtype=float))[0].tolist()))


def routh_hurwitz_rows(coeffs: np.ndarray) -> np.ndarray:
    """Routh-Hurwitz test of each row of degree <= 3 (highest first): all
    roots strictly in the left half-plane iff every coefficient shares the
    leading one's strict sign and, for a cubic, the bridge inequality
    a2*a1 > a0*a3 holds."""
    c = np.asarray(coeffs, dtype=float)
    ok = np.all(np.sign(c[:, :1]) * c[:, 1:] > 0, axis=1)
    if c.shape[1] == 4:
        ok &= c[:, 1] * c[:, 2] > c[:, 3] * c[:, 0]
    return ok


def routh_hurwitz(p: Poly) -> bool:
    return bool(routh_hurwitz_rows(np.array([p.coeffs]))[0])


def routh_hurwitz_quadratic(a2: float, a1: float, a0: float) -> bool:
    """All roots strictly in the left half-plane iff the three coefficients
    share one strict sign."""
    return routh_hurwitz(Poly((a2, a1, a0)))


def routh_hurwitz_cubic(a3: float, a2: float, a1: float, a0: float) -> bool:
    """Same-sign coefficients plus the bridge inequality a2*a1 > a0*a3."""
    return routh_hurwitz(Poly((a3, a2, a1, a0)))


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


_CLASSES = ["unstable", "neutral_oscillation", "decaying", "oscillatory_decaying"]


def classify_modes(roots: np.ndarray, tol: Optional[float] = None) -> List[str]:
    """Stability class of each row of an (n, d) root array, with a tolerance
    band of 1e-9 of the row's largest root magnitude unless tol is given."""
    re, im = roots.real, roots.imag
    if tol is None:
        tol = 1e-9 * np.hypot(re, im).max(axis=1, initial=0.0)[:, None]
    left = np.all(re < -tol, axis=1)
    return np.select(
        [
            np.any(re > tol, axis=1),
            np.any((np.abs(re) <= tol) & (im != 0), axis=1),
            left & np.all(im == 0, axis=1),
            left,
        ],
        _CLASSES,
        "mixed",
    ).tolist()


def classify_mode(roots: RootSet, tol: Optional[float] = None) -> str:
    return classify_modes(np.array([roots.roots], dtype=complex).reshape(1, -1), tol)[0]


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


def _reports(m: ModelParams, ns: Sequence[int], lams: Sequence[float], rho_c: float) -> List[ModeReport]:
    """Mode reports of one model over a list of eigenvalues, each stage one
    array pass; only the discriminant is evaluated row by row, in Python
    floats, so that it rounds as the scalar formula does."""
    lts = np.asarray(lams, dtype=float) / rho_c
    coeffs = _char_coeffs(m, lts)
    roots = solve_polys(coeffs)
    cubic = coeffs.shape[1] == 4
    return [
        ModeReport(
            n=n,
            Lambda=lam,
            Lambda_tilde=lt,
            poly=Poly(tuple(c)),
            roots=RootSet(tuple(r)),
            rh_pass=rh,
            discriminant=cubic_discriminant(*c) if cubic else None,
            classification=cls,
        )
        for n, lam, lt, c, r, rh, cls in zip(
            ns, lams, lts.tolist(), coeffs.tolist(), roots.tolist(),
            routh_hurwitz_rows(coeffs).tolist(), classify_modes(roots),
        )
    ]


def mode_report(m: ModelParams, n: int, Lambda: float, rho_c: float) -> ModeReport:
    return _reports(m, [n], [Lambda], rho_c)[0]


def mode_reports(p: SpectralProblem, m: ModelParams) -> List[ModeReport]:
    start = 1 if p.bc == "dirichlet" else 0
    return _reports(m, range(start, start + p.n_max), laplacian_eigenvalues(p), p.rho_c)
