"""The per-mode spectral path that the batched one replaced, kept as a test
oracle: numpy.roots on one polynomial at a time, conjugate pairing and
Newton polish in Python complex arithmetic, and one Routh-Hurwitz test and
classification per mode; the standard cubic discriminant in Python
floats; and the factored discriminant of the Moore-Gibson-Thompson cubic."""
import numpy as np

from nonfourier.modal import InvalidKindError
from nonfourier.models import temperature_law
from nonfourier.tensors import InvalidInputError

from tensors_oracle import horner


def pair_conjugates(roots):
    rs = sorted(roots, key=lambda z: (z.real, z.imag))
    out = []
    used = [False] * len(rs)
    for i, r in enumerate(rs):
        if used[i]:
            continue
        if abs(r.imag) <= 1e-12 * max(1.0, abs(r)):
            out.append(complex(r.real, 0.0))
            used[i] = True
            continue
        best, best_d = None, np.inf
        for j in range(i + 1, len(rs)):
            if used[j]:
                continue
            d = abs(rs[j] - r.conjugate())
            if d < best_d:
                best, best_d = j, d
        if best is None:
            out.append(complex(r))
            used[i] = True
            continue
        mean = 0.5 * (r + rs[best].conjugate())
        out.append(complex(mean.real, abs(mean.imag)))
        out.append(complex(mean.real, -abs(mean.imag)))
        used[i] = used[best] = True
    return tuple(sorted(out, key=lambda z: (z.real, z.imag)))


def solve_poly(coeffs):
    coeffs = tuple(float(c) for c in coeffs)
    roots = np.roots(coeffs)
    paired = pair_conjugates(roots)
    scale = max(abs(c) for c in coeffs)
    for r in paired:
        if abs(horner(coeffs, r)) > 1e-8 * scale * max(1.0, abs(r)) ** (len(coeffs) - 1):
            dp = np.polyder(coeffs)
            r2 = r - horner(coeffs, r) / np.polyval(dp, r)
            paired = tuple(r2 if x == r else x for x in paired)
    return paired


def characteristic_poly(m, lam_tilde):
    if lam_tilde < 0:
        raise InvalidInputError("Lambda_tilde must be nonnegative")
    law = temperature_law(m, InvalidKindError)
    coeffs = list(reversed(law.a)) + [lam_tilde * law.b0]
    if law.b1 is not None:
        lt_b1 = lam_tilde * law.b1
        coeffs[-2] = coeffs[-2] + lt_b1 if coeffs[-2] != 0 else lt_b1
    return tuple(float(c) for c in coeffs)


def hurwitz_stable(c):
    s = np.sign(c[0])
    if len(c) == 2:
        return bool(s * c[1] > 0)
    if len(c) == 3:
        return bool(s * c[1] > 0 and s * c[2] > 0)
    if not (s * c[1] > 0 and s * c[2] > 0 and s * c[3] > 0):
        return False
    return bool(c[1] * c[2] > c[3] * c[0])


def cubic_discriminant(a3, a2, a1, a0):
    return 18.0 * a3 * a2 * a1 * a0 - 4.0 * a2**3 * a0 + a2**2 * a1**2 - 4.0 * a3 * a1**3 - 27.0 * a3**2 * a0**2


def classify_mode(roots):
    tol = 1e-9 * max(abs(r) for r in roots) if roots else 0.0
    re = np.array([r.real for r in roots])
    im = np.array([r.imag for r in roots])
    if np.any(re > tol):
        return "unstable"
    if np.any((np.abs(re) <= tol) & (im != 0)):
        return "neutral_oscillation"
    if np.all(re < -tol):
        return "decaying" if np.all(im == 0) else "oscillatory_decaying"
    return "mixed"


def mode_report(m, n, Lambda, rho_c):
    """One mode's row of modal.Spectrum, field by field: n, Lambda,
    Lambda_tilde, coefficients, roots, rh_pass, discriminant, class."""
    lt = Lambda / rho_c
    c = characteristic_poly(m, lt)
    roots = solve_poly(c)
    return (n, Lambda, lt, c, roots, hurwitz_stable(c), cubic_discriminant(*c) if len(c) == 4 else None,
            classify_mode(roots))


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
