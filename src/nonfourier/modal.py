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
from .tensors import InvalidInputError, solve_poly, solve_polys  # noqa: F401


class InvalidKindError(InvalidInputError):
    """No separated temperature equation implemented for this model kind."""


class RepeatedRootError(InvalidInputError):
    """Modal reconstruction needs distinct roots."""


# the most modes a spectrum may hold; it bounds every array a spectrum sizes
MAX_MODES = 100_000


@dataclass(frozen=True)
class SpectralProblem:
    """Interval spectrum setup; rho_c scales Laplacian eigenvalues to
    Lambda_tilde = Lambda / rho_c, the largest of which must be finite."""

    bc: str  # "dirichlet" | "neumann"
    L: float
    n_max: int
    rho_c: float = 1.0

    def __post_init__(self):
        if self.bc not in ("dirichlet", "neumann"):
            raise InvalidInputError(f"unsupported bc {self.bc!r}")
        if not (0 < self.L < np.inf and 1 <= self.n_max <= MAX_MODES and 0 < self.rho_c < np.inf):
            raise InvalidInputError(f"need finite L > 0 and rho_c > 0, and 1 <= n_max <= {MAX_MODES}")
        top = (self.n_max - (self.bc == "neumann")) * np.pi / self.L
        if not top * top / self.rho_c < np.inf:
            raise InvalidInputError(f"keys spectral.* and material.*: (n pi / L)^2 / rho_c overflows at "
                                    f"L = {self.L:g}, rho_c = {self.rho_c:g}")


@dataclass(frozen=True)
class Spectrum:
    """One model's modes as columns, row i for mode n[i]: its characteristic
    polynomial coeffs[i] (highest degree first), that polynomial's roots[i]
    as solve_polys gives them, and its verdicts; the discriminant is an
    array for a cubic, else None."""

    n: np.ndarray
    Lambda: np.ndarray
    Lambda_tilde: np.ndarray
    coeffs: np.ndarray
    roots: np.ndarray
    rh_pass: np.ndarray
    discriminant: Optional[np.ndarray]
    classification: List[str]

    def __len__(self) -> int:
        return len(self.n)


def laplacian_eigenvalues(p: SpectralProblem) -> np.ndarray:
    """Ascending interval spectrum: (n*pi/L)^2 with n starting at 1 for
    Dirichlet and at 0 for Neumann. np.float_power is libm pow, as a Python
    float's ** is, so each value has the bits of the scalar formula."""
    start = 1 if p.bc == "dirichlet" else 0
    return np.float_power(np.arange(start, start + p.n_max) * np.pi / p.L, 2)


def characteristic_polys(m: ModelParams, lam_tilde) -> np.ndarray:
    """Characteristic polynomial of the separated temperature equation at
    each Lambda_tilde, one coefficient row each, highest degree first.

    With rho_c theta_dot = -div q, the rate-law row gives
    a2 s^3 + a1 s^2 + a0 s + Lambda_tilde (b1 s + b0), truncated at the
    kind's order: degree 1 or 2 for the first-flux-rate laws and the two
    cubics (Moore-Gibson-Thompson type and its two-relaxation
    generalization) for the second-flux-rate ones.
    """
    lam_tilde = np.asarray(lam_tilde, dtype=float)
    if np.any(lam_tilde < 0):
        raise InvalidInputError("Lambda_tilde must be nonnegative")
    law = temperature_law(m, InvalidKindError)
    c = np.empty((lam_tilde.size, len(law.a) + 1))
    c[:, :-1] = law.a[::-1]
    with np.errstate(over="ignore"):  # solve_polys refuses an inf
        c[:, -1] = lam_tilde * law.b0
        if law.b1 is not None:
            lt_b1 = lam_tilde * law.b1
            c[:, -2] = lt_b1 if c[0, -2] == 0 else c[:, -2] + lt_b1
    return c


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


def cubic_discriminant(a3, a2, a1, a0):
    """Standard discriminant, equal to a3^4 * prod_{i<j} (w_i - w_j)^2, of
    one cubic or of arrays of coefficients, with the bits of the scalar
    formula in Python floats (np.float_power is libm pow, as ** is there).
    A discriminant that overflows is refused."""
    pw = np.float_power
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        d = (18.0 * a3 * a2 * a1 * a0 - 4.0 * pw(a2, 3) * a0 + pw(a2, 2) * pw(a1, 2)
             - 4.0 * a3 * pw(a1, 3) - 27.0 * pw(a3, 2) * pw(a0, 2))
    if not np.isfinite(d).all():
        scale = np.max(np.abs([a3, a2, a1, a0]))
        raise InvalidInputError(f"coefficient scale out of range: the cubic discriminant overflows "
                                f"(largest coefficient {scale:g})")
    return d


_CLASSES = ["unstable", "neutral_oscillation", "decaying", "oscillatory_decaying"]


def classify_modes(roots: np.ndarray) -> List[str]:
    """Stability class of each row of an (n, d) root array, with a tolerance
    band of 1e-9 of the row's largest root magnitude."""
    re, im = roots.real, roots.imag
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


def modal_solution(roots: Sequence[complex], init: Sequence[float]) -> Callable[[float], float]:
    """Scalar solution T(t) = sum_i C_i exp(w_i t) with C from the initial
    value and derivatives; rejects (near-)repeated roots."""
    ws = np.array(roots, dtype=complex)
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


def mode_reports(p: SpectralProblem, m: ModelParams) -> Spectrum:
    """The model's modes over the spectrum, each stage one array pass."""
    start = 1 if p.bc == "dirichlet" else 0
    lams = laplacian_eigenvalues(p)
    lts = lams / p.rho_c
    coeffs = characteristic_polys(m, lts)
    try:
        roots = solve_polys(coeffs)
        disc = cubic_discriminant(*coeffs.T) if coeffs.shape[1] == 4 else None
    except InvalidInputError as e:  # a coefficient, root or discriminant past the float range
        raise InvalidInputError(f"keys model.*, spectral.* and material.*: the characteristic polynomials they "
                                f"set: {e}") from e
    return Spectrum(np.arange(start, start + p.n_max), lams, lts, coeffs, roots, routh_hurwitz_rows(coeffs), disc,
                    classify_modes(roots))
