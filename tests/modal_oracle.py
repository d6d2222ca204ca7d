"""The per-mode spectral path that the batched one replaced, kept as a test
oracle: numpy.roots on one polynomial at a time, conjugate pairing and
Newton polish in Python complex arithmetic, and one Routh-Hurwitz test and
classification per mode."""
import numpy as np

from nonfourier.modal import InvalidKindError, ModeReport, cubic_discriminant
from nonfourier.models import temperature_law
from nonfourier.tensors import InvalidInputError, Poly, RootSet


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


def solve_poly(p):
    roots = np.roots(p.coeffs)
    paired = pair_conjugates(roots)
    scale = max(abs(c) for c in p.coeffs)
    for r in paired:
        if abs(p(r)) > 1e-8 * scale * max(1.0, abs(r)) ** p.degree:
            dp = np.polyder(p.coeffs)
            r2 = r - p(r) / np.polyval(dp, r)
            paired = tuple(r2 if x == r else x for x in paired)
    return RootSet(paired)


def characteristic_poly(m, lam_tilde):
    if lam_tilde < 0:
        raise InvalidInputError("Lambda_tilde must be nonnegative")
    law = temperature_law(m, InvalidKindError)
    coeffs = list(reversed(law.a)) + [lam_tilde * law.b0]
    if law.b1 is not None:
        lt_b1 = lam_tilde * law.b1
        coeffs[-2] = coeffs[-2] + lt_b1 if coeffs[-2] != 0 else lt_b1
    return Poly(tuple(coeffs))


def routh_hurwitz(p):
    c = p.coeffs
    s = np.sign(c[0])
    if p.degree == 1:
        return bool(s * c[1] > 0)
    if p.degree == 2:
        return bool(s * c[1] > 0 and s * c[2] > 0)
    if not (s * c[1] > 0 and s * c[2] > 0 and s * c[3] > 0):
        return False
    return bool(c[1] * c[2] > c[3] * c[0])


def classify_mode(roots, tol=None):
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


def mode_report(m, n, Lambda, rho_c):
    lt = Lambda / rho_c
    p = characteristic_poly(m, lt)
    roots = solve_poly(p)
    return ModeReport(
        n=n,
        Lambda=Lambda,
        Lambda_tilde=lt,
        poly=p,
        roots=roots,
        rh_pass=routh_hurwitz(p),
        discriminant=cubic_discriminant(*p.coeffs) if p.degree == 3 else None,
        classification=classify_mode(roots),
    )
