"""Closed forms that check the tensors module from outside: a
principal-minors test for positive semidefiniteness, Horner's value of a
coefficient row, Cardano's cubic roots and the representation completion of
a vector from one projection."""
import numpy as np

from nonfourier.tensors import DEFAULT_TOL, InvalidInputError, SymTensor3


def _as_vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise InvalidInputError(f"expected a 3-vector, got shape {a.shape}")
    return a


def principal_minors(s: SymTensor3) -> np.ndarray:
    """All 7 principal minors (3 of order 1, 3 of order 2, 1 of order 3)."""
    m = s.as_matrix()
    out = []
    for i in range(3):
        out.append(m[i, i])
    for i, j in ((0, 1), (0, 2), (1, 2)):
        out.append(m[i, i] * m[j, j] - m[i, j] ** 2)
    out.append(float(np.linalg.det(m)))
    return np.array(out)


def is_psd_minors(s: SymTensor3, tol: float = DEFAULT_TOL) -> bool:
    """Principal-minors test; retained as an independent oracle for is_psd."""
    scale = max(1.0, s.norm())
    minors = principal_minors(s)
    scales = np.array([scale, scale, scale, scale**2, scale**2, scale**2, scale**3])
    return bool(np.all(minors >= -tol * scales))


def representation_completion(n_source, g: float, big_g) -> np.ndarray:
    """Complete a vector from its known projection on a direction.

    Returns Z = g*N + (1 - N (x) N) G with N the unit vector along
    ``n_source``; by construction Z . N == g.
    """
    a = _as_vec3(n_source)
    norm = np.linalg.norm(a)
    if norm == 0.0 or not np.isfinite(norm):
        raise InvalidInputError("direction vector must be nonzero and finite")
    n = a / norm
    gv = _as_vec3(big_g)
    return g * n + (gv - n * (n @ gv))


def horner(coeffs, w):
    """The polynomial of a coefficient row (highest degree first) at w, by
    Horner's sum from 0.0."""
    out = 0.0
    for c in coeffs:
        out = out * w + c
    return out


def cardano_cubic(a3: float, a2: float, a1: float, a0: float) -> tuple[complex, complex, complex]:
    """Closed-form cubic roots; cross-check oracle for solve_poly."""
    if a3 == 0:
        raise InvalidInputError("leading coefficient must be nonzero")
    b, c, d = a2 / a3, a1 / a3, a0 / a3
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    sq = complex(disc) ** 0.5
    u3 = -q / 2.0 + sq
    v3 = -q / 2.0 - sq
    if abs(v3) > abs(u3):  # the smaller of the two cancels; take u from the larger
        u3, v3 = v3, u3
    u = u3 ** (1.0 / 3.0) if u3 != 0 else 0.0
    # pick the cube root of v3 pairing with u so that u*v = -p/3
    if u != 0:
        v = -p / (3.0 * u)
    else:
        v = v3 ** (1.0 / 3.0)
    omega = complex(-0.5, np.sqrt(3.0) / 2.0)
    roots = tuple(u * omega**k + v * omega ** (-k) - b / 3.0 for k in range(3))
    return roots  # type: ignore[return-value]
