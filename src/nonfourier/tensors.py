"""Small dense linear algebra kernel: symmetric 3x3 tensors and the roots of
low-degree polynomials, each a row of coefficients, highest degree first.

Everything here is pure and operates on plain floats / numpy arrays, so it is
safe to call from parallel parameter sweeps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

DEFAULT_TOL = 1e-10


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for a vector v (k,) or a stack of them (..., k), m one (k, k)
    matrix or a stack of them. Each product has the bits of the unstacked
    m @ v; a stacked v @ m.T or einsum does not."""
    return (m @ v[..., None])[..., 0]


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
            if not math.isfinite(getattr(self, name)):
                raise InvalidInputError(f"non-finite component {name!r}")

    @classmethod
    def from_matrix(cls, m) -> "SymTensor3":
        a = np.asarray(m, dtype=float)
        if a.shape != (3, 3):
            raise InvalidInputError(f"expected 3x3 matrix, got {a.shape}")
        if not np.isfinite(a).all():
            raise InvalidInputError("non-finite matrix entry")
        if not np.allclose(a, a.T, atol=1e-12 * max(1.0, np.abs(a).max())):
            raise InvalidInputError("matrix is not symmetric")
        s = 0.5 * (a + a.T)
        return cls(s[0, 0], s[1, 1], s[2, 2], s[1, 2], s[0, 2], s[0, 1])

    @classmethod
    def isotropic(cls, c: float) -> "SymTensor3":
        return cls(c, c, c)

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
        """Frobenius norm; one that overflows is recomputed scaled by the
        largest entry, so it is inf only if the norm itself is."""
        m = self.as_matrix()
        with np.errstate(over="ignore"):
            n = float(np.linalg.norm(m))
        if np.isfinite(n):
            return n
        big = np.abs(m).max()
        return float(big) * float(np.linalg.norm(m / big))

    def apply(self, v) -> np.ndarray:
        """The tensor times a 3-vector, or times each of a stack (..., 3)."""
        a = np.asarray(v, dtype=float)
        if a.shape[-1:] != (3,):
            raise InvalidInputError(f"expected 3-vectors, got shape {a.shape}")
        return matvec(self.as_matrix(), a)

    def _parts(self) -> tuple:
        return (self.xx, self.yy, self.zz, self.yz, self.xz, self.xy)

    # entrywise on the six components: sums and multiples of symmetric
    # tensors are symmetric; __post_init__ rejects a non-finite result
    def __add__(self, other: "SymTensor3") -> "SymTensor3":
        return SymTensor3(*(a + b for a, b in zip(self._parts(), other._parts())))

    def __sub__(self, other: "SymTensor3") -> "SymTensor3":
        return SymTensor3(*(a - b for a, b in zip(self._parts(), other._parts())))

    def __mul__(self, c: float) -> "SymTensor3":
        return SymTensor3(*(c * a for a in self._parts()))

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


def is_psd(s: SymTensor3) -> bool:
    """Positive semidefinite up to DEFAULT_TOL relative to max(1, norm)."""
    return psd_margin(s) >= -DEFAULT_TOL * max(1.0, s.norm())


def is_pd(s: SymTensor3) -> bool:
    """Strictly positive definite up to the same relative tolerance."""
    return psd_margin(s) > DEFAULT_TOL * max(1.0, s.norm())


def is_nonsingular(s: SymTensor3) -> bool:
    """|det| larger than DEFAULT_TOL at the tensor's own cubed scale: the
    determinant of the tensor divided by max(1, norm), which cannot overflow."""
    return abs(float(np.linalg.det(s.as_matrix() / max(1.0, s.norm())))) > DEFAULT_TOL


# --- polynomials and roots ---------------------------------------------------

def _companions(c: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """numpy.roots' companion matrix of each row with its trailing zeros
    stripped, in the top-left corner of a zero matrix of the full degree.

    LAPACK's balancing isolates the zero rows and columns, so the corner
    block's eigenvalues come out as they do from the stripped matrix alone.
    """
    n, d = c.shape[0], c.shape[1] - 1
    col = np.arange(d)
    a = np.zeros((n, d, d))
    a[:, 0, :] = np.where(col < degree[:, None], -c[:, 1:] / c[:, :1], 0.0)
    a[:, col[1:], col[:-1]] = col[1:] < degree[:, None]
    return a


def _pair_conjugates(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Symmetrize numerically computed roots of real polynomials, row by row.

    eigvals of a real matrix already gives each complex pair equal real
    parts and opposite imaginary parts, except that a zero real part may
    carry opposite signs (0.0 and -0.0 for x^2 + 4). So a root within 1e-12
    relative of the real axis becomes real, the others get + 0.0 on their
    real part, and each row is sorted by (real, imag), ties by the unsnapped
    imag. np.hypot stands for abs, because numpy's complex-array abs rounds
    differently from Python's in the last bit.
    """
    real = np.abs(im) <= 1e-12 * np.maximum(1.0, np.hypot(re, im))
    re2, im2 = np.where(real, re, re + 0.0), np.where(real, 0.0, im)
    order = np.lexsort((im, im2, re2), axis=-1)
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = np.take_along_axis(re2, order, -1), np.take_along_axis(im2, order, -1)
    return out


def _polish(coeffs: tuple[float, ...], roots: tuple[complex, ...]) -> tuple[complex, ...]:
    """One Newton step on each root whose residual exceeds 1e-8 of the
    polynomial's scale; companion roots are rarely this bad. p(r) is
    Horner's sum in Python floats and complex numbers, from 0.0."""

    def p(w):
        out = 0.0
        for c in coeffs:
            out = out * w + c
        return out

    scale = max(abs(c) for c in coeffs)
    out = roots
    for r in roots:
        if abs(p(r)) > 1e-8 * scale * max(1.0, abs(r)) ** (len(coeffs) - 1):
            r2 = r - p(r) / np.polyval(np.polyder(coeffs), r)
            out = tuple(r2 if x == r else x for x in out)
    return out


def solve_polys(coeffs) -> np.ndarray:
    """Roots of each row of an (n, d + 1) coefficient array, highest degree
    first, as an (n, d) complex array of conjugate-paired roots sorted by
    (real, imag).

    Row for row the result is bit for bit that of numpy.roots on the one
    polynomial, then the pairing and the Newton step: the companion matrices
    go to one stacked eigvals call, and each row's trailing zero coefficients
    give exact zero roots. The residual screen runs on the whole array; only
    the rows it flags are tested exactly and polished, one root at a time.
    """
    c = np.asarray(coeffs, dtype=float)
    # the one check of a coefficient row: degree 1 to 3, then the first row
    # with a zero leading or a non-finite coefficient
    if c.ndim != 2 or not 2 <= c.shape[1] <= 4:
        raise InvalidInputError("degree must be between 1 and 3")
    lead = c[:, 0] == 0.0
    bad = np.flatnonzero(lead | ~np.isfinite(c).all(axis=1))
    if bad.size:
        raise InvalidInputError("leading coefficient must be nonzero" if lead[bad[0]] else "non-finite coefficient")
    d = c.shape[1] - 1
    degree = d - np.argmax(c[:, ::-1] != 0.0, axis=1)
    # rows whose coefficients span too wide a range fail anywhere here, as
    # in a Newton step on a zero derivative (1e-100 s^3 + s^2 + 1: 0, 0 for +-i)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            w = np.asarray(np.linalg.eigvals(_companions(c, degree)), dtype=complex)
            re, im = w.real.copy(), w.imag.copy()
            stripped = np.arange(d) >= degree[:, None]
            re[stripped] = im[stripped] = 0.0
            roots = _pair_conjugates(re, im)
            # |p(r)| by Horner in the real arithmetic of Python complex
            # numbers; the factor 1/2 leaves the exact test below to decide
            # near its threshold
            re, im = roots.real, roots.imag
            pr, pi = np.zeros((len(c), d)), np.zeros((len(c), d))
            scale = np.abs(c).max(axis=1, keepdims=True)
            for ck in c.T:
                pr, pi = pr * re - pi * im + ck[:, None], pr * im + pi * re
            limit = 1e-8 * scale * np.maximum(1.0, np.hypot(re, im)) ** d
            for i in np.flatnonzero((np.hypot(pr, pi) > 0.5 * limit).any(axis=1)):
                roots[i] = _polish(tuple(c[i].tolist()), tuple(roots[i].tolist()))
    except FloatingPointError as e:
        raise InvalidInputError(f"coefficient scale out of range: the roots leave the float range ({e})") from e
    return roots


def solve_poly(coeffs: Sequence[float]) -> tuple[complex, ...]:
    """All complex roots of one coefficient row (highest degree first),
    complex ones in conjugate pairs: the one-row case of solve_polys."""
    return tuple(solve_polys([coeffs])[0].tolist())
