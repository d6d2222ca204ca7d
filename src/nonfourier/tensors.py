"""Small dense linear algebra kernel: symmetric 3x3 tensors and low-degree polynomials.

Everything here is pure and operates on plain floats / numpy arrays, so it is
safe to call from parallel parameter sweeps.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

DEFAULT_TOL = 1e-10


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


def _as_vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise InvalidInputError(f"expected a 3-vector, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class SymTensor3:
    """Symmetric 3x3 tensor stored as its 6 independent components.

    Component order: (xx, yy, zz, yz, xz, xy). Entries must be finite.
    """

    xx: float
    yy: float
    zz: float
    yz: float = 0.0
    xz: float = 0.0
    xy: float = 0.0

    def __post_init__(self):
        for name in ("xx", "yy", "zz", "yz", "xz", "xy"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidInputError(f"non-finite component {name!r}")

    @classmethod
    def from_matrix(cls, m) -> "SymTensor3":
        a = np.asarray(m, dtype=float)
        if a.shape != (3, 3):
            raise InvalidInputError(f"expected 3x3 matrix, got {a.shape}")
        if not np.allclose(a, a.T, atol=1e-12 * max(1.0, np.abs(a).max())):
            raise InvalidInputError("matrix is not symmetric")
        s = 0.5 * (a + a.T)
        return cls(s[0, 0], s[1, 1], s[2, 2], s[1, 2], s[0, 2], s[0, 1])

    @classmethod
    def isotropic(cls, c: float) -> "SymTensor3":
        return cls(c, c, c)

    @classmethod
    def diag(cls, a: float, b: float, c: float) -> "SymTensor3":
        return cls(a, b, c)

    def as_matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.xx, self.xy, self.xz],
                [self.xy, self.yy, self.yz],
                [self.xz, self.yz, self.zz],
            ]
        )

    def isotropic_value(self) -> Optional[float]:
        """c when the tensor is c*I within np.allclose tolerances (atol 1e-8,
        plus rtol 1e-5 * |c| on the diagonal), else None."""
        c = self.xx
        tol = 1e-8 + 1e-5 * abs(c)
        off = max(abs(self.yz), abs(self.xz), abs(self.xy))
        if abs(self.yy - c) <= tol and abs(self.zz - c) <= tol and off <= 1e-8:
            return float(c)
        return None

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.as_matrix())

    def det(self) -> float:
        return float(np.linalg.det(self.as_matrix()))

    def norm(self) -> float:
        return float(np.linalg.norm(self.as_matrix()))

    def inv(self) -> "SymTensor3":
        return SymTensor3.from_matrix(np.linalg.inv(self.as_matrix()))

    def apply(self, v) -> np.ndarray:
        return self.as_matrix() @ _as_vec3(v)

    def __add__(self, other: "SymTensor3") -> "SymTensor3":
        return SymTensor3.from_matrix(self.as_matrix() + other.as_matrix())

    def __sub__(self, other: "SymTensor3") -> "SymTensor3":
        return SymTensor3.from_matrix(self.as_matrix() - other.as_matrix())

    def __mul__(self, c: float) -> "SymTensor3":
        return SymTensor3.from_matrix(c * self.as_matrix())

    __rmul__ = __mul__


def coerce_tensor(value) -> SymTensor3:
    """Accept a scalar (isotropic shortcut), SymTensor3 or 3x3 array."""
    if isinstance(value, SymTensor3):
        return value
    if np.isscalar(value):
        return SymTensor3.isotropic(float(value))
    return SymTensor3.from_matrix(value)


# --- definiteness predicates -------------------------------------------------

def psd_margin(s: SymTensor3) -> float:
    """Smallest eigenvalue; the caller's slack against semidefiniteness."""
    return float(s.eigenvalues()[0])


def is_psd(s: SymTensor3, tol: float = DEFAULT_TOL) -> bool:
    """Positive semidefinite up to a relative eigenvalue tolerance."""
    if tol < 0:
        raise InvalidInputError("tol must be nonnegative")
    scale = max(1.0, s.norm())
    return psd_margin(s) >= -tol * scale


def is_pd(s: SymTensor3, tol: float = DEFAULT_TOL) -> bool:
    """Strictly positive definite up to the same relative tolerance."""
    if tol < 0:
        raise InvalidInputError("tol must be nonnegative")
    scale = max(1.0, s.norm())
    return psd_margin(s) > tol * scale


def is_nonsingular(s: SymTensor3, tol: float = DEFAULT_TOL) -> bool:
    """|det| larger than tol at the tensor's own cubed scale."""
    if tol < 0:
        raise InvalidInputError("tol must be nonnegative")
    scale = max(1.0, s.norm()) ** 3
    return abs(s.det()) > tol * scale


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


# --- representation completion ----------------------------------------------

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


# --- polynomials and roots ---------------------------------------------------

@dataclass(frozen=True)
class Poly:
    """Real polynomial, coefficients highest degree first, degree <= 3."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        c = tuple(float(x) for x in self.coeffs)
        if len(c) < 2 or len(c) > 4:
            raise InvalidInputError("degree must be between 1 and 3")
        if c[0] == 0.0:
            raise InvalidInputError("leading coefficient must be nonzero")
        if not all(np.isfinite(x) for x in c):
            raise InvalidInputError("non-finite coefficient")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, w):
        out = 0.0
        for c in self.coeffs:
            out = out * w + c
        return out


@dataclass(frozen=True)
class RootSet:
    """Roots of a real polynomial; complex roots appear in conjugate pairs."""

    roots: tuple[complex, ...]

    def max_real(self) -> float:
        return max(r.real for r in self.roots)

    def real_roots(self, tol: float = 0.0) -> list[float]:
        return [r.real for r in self.roots if abs(r.imag) <= tol]


def _pair_conjugates(roots: np.ndarray) -> tuple[complex, ...]:
    """Symmetrize numerically computed roots of a real polynomial."""
    rs = sorted(roots, key=lambda z: (z.real, z.imag))
    out: list[complex] = []
    used = [False] * len(rs)
    for i, r in enumerate(rs):
        if used[i]:
            continue
        if abs(r.imag) <= 1e-12 * max(1.0, abs(r)):
            out.append(complex(r.real, 0.0))
            used[i] = True
            continue
        # find the closest conjugate partner
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


def solve_poly(p: Poly) -> RootSet:
    """All complex roots via companion-matrix eigenvalues (numpy.roots)."""
    roots = np.roots(p.coeffs)
    paired = _pair_conjugates(roots)
    scale = max(abs(c) for c in p.coeffs)
    for r in paired:
        if abs(p(r)) > 1e-8 * scale * max(1.0, abs(r)) ** p.degree:
            # one Newton polish pass; companion roots are rarely this bad
            dp = np.polyder(p.coeffs)
            r2 = r - p(r) / np.polyval(dp, r)
            paired = tuple(r2 if x == r else x for x in paired)
    return RootSet(paired)


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
    u = u3 ** (1.0 / 3.0) if u3 != 0 else 0.0
    # pick the cube root of v3 pairing with u so that u*v = -p/3
    if u != 0:
        v = -p / (3.0 * u)
    else:
        v = v3 ** (1.0 / 3.0)
    omega = complex(-0.5, np.sqrt(3.0) / 2.0)
    roots = tuple(u * omega**k + v * omega ** (-k) - b / 3.0 for k in range(3))
    return roots  # type: ignore[return-value]
