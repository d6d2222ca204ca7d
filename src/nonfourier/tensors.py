"""Small dense linear algebra kernel: symmetric 3x3 tensors and low-degree polynomials.

Everything here is pure and operates on plain floats / numpy arrays, so it is
safe to call from parallel parameter sweeps.
"""
from __future__ import annotations

import math
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
        if not np.isfinite(a).all():
            raise InvalidInputError("non-finite matrix entry")
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
        if not all(map(math.isfinite, c)):
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

    Each row is sorted by (real, imag). Walking it in order, a root within
    1e-12 relative of the real axis becomes real; any other root is averaged
    with its closest unused conjugate partner further on (the first of equal
    distances) into an exact pair, or kept as it is when none is left. The
    arithmetic is that of Python complex numbers written out in real parts
    (np.hypot for abs), because numpy's complex-array abs and multiply round
    differently in the last bit.
    """
    n, d = re.shape
    order = np.lexsort((im, re), axis=-1)
    re, im = np.take_along_axis(re, order, -1), np.take_along_axis(im, order, -1)
    used = np.zeros((n, d), dtype=bool)
    out_re, out_im = np.empty((n, d)), np.empty((n, d))
    k = np.zeros(n, dtype=int)
    rows = np.arange(n)

    def put(mask, r, i):
        out_re[rows[mask], k[mask]], out_im[rows[mask], k[mask]] = r, i
        k[mask] += 1

    for i in range(d):
        free = ~used[:, i]
        real = free & (np.abs(im[:, i]) <= 1e-12 * np.maximum(1.0, np.hypot(re[:, i], im[:, i])))
        put(real, re[real, i], 0.0)
        cplx = free & ~real
        dist = np.full((n, d), np.inf)
        later = ~used & (np.arange(d) > i) & cplx[:, None]
        dist[later] = np.hypot(re - re[:, i : i + 1], im + im[:, i : i + 1])[later]
        best = np.argmin(dist, axis=1)
        paired = cplx & (dist[rows, best] < np.inf)
        alone = cplx & ~paired
        put(alone, re[alone, i], im[alone, i])
        # mean = 0.5 * (r + conj(partner)) as complex arithmetic rounds it:
        # 0.5 becomes 0.5 + 0j, whose 0.0 * b term signs a zero real part
        b = im[paired, i] - im[paired, best[paired]]
        mean_re = 0.5 * (re[paired, i] + re[paired, best[paired]]) - 0.0 * b
        mean_im = np.abs(0.5 * b)
        put(paired, mean_re, mean_im)
        put(paired, mean_re, -mean_im)
        used[:, i] |= free
        used[rows[paired], best[paired]] = True
    order = np.lexsort((out_im, out_re), axis=-1)
    out = np.empty((n, d), dtype=complex)
    out.real, out.imag = np.take_along_axis(out_re, order, -1), np.take_along_axis(out_im, order, -1)
    return out


def _polish(p: Poly, roots: tuple[complex, ...]) -> tuple[complex, ...]:
    """One Newton step on each root whose residual exceeds 1e-8 of the
    polynomial's scale; companion roots are rarely this bad."""
    scale = max(abs(c) for c in p.coeffs)
    out = roots
    for r in roots:
        if abs(p(r)) > 1e-8 * scale * max(1.0, abs(r)) ** p.degree:
            r2 = r - p(r) / np.polyval(np.polyder(p.coeffs), r)
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
    # Poly's checks, failing as Poly would on the first row that breaks one
    lead = c[:, 0] == 0.0
    bad = np.flatnonzero(lead | ~np.isfinite(c).all(axis=1))
    if bad.size:
        raise InvalidInputError("leading coefficient must be nonzero" if lead[bad[0]] else "non-finite coefficient")
    d = c.shape[1] - 1
    degree = d - np.argmax(c[:, ::-1] != 0.0, axis=1)
    w = np.asarray(np.linalg.eigvals(_companions(c, degree)), dtype=complex)
    re, im = w.real.copy(), w.imag.copy()
    stripped = np.arange(d) >= degree[:, None]
    re[stripped] = im[stripped] = 0.0
    roots = _pair_conjugates(re, im)
    # |p(r)| by Horner in the real arithmetic of Python complex numbers; the
    # factor 1/2 leaves the exact test below to decide near its threshold.
    # Roots too large for the screen's bound cannot be tested at all.
    re, im = roots.real, roots.imag
    pr, pi = np.zeros((len(c), d)), np.zeros((len(c), d))
    scale = np.abs(c).max(axis=1, keepdims=True)
    try:
        with np.errstate(over="raise"):
            for ck in c.T:
                pr, pi = pr * re - pi * im + ck[:, None], pr * im + pi * re
            limit = 1e-8 * scale * np.maximum(1.0, np.hypot(re, im)) ** d
    except FloatingPointError as e:
        raise InvalidInputError(f"coefficient scale out of range: the roots overflow the residual screen ({e})") from e
    for i in np.flatnonzero((np.hypot(pr, pi) > 0.5 * limit).any(axis=1)):
        roots[i] = _polish(Poly(tuple(c[i])), tuple(roots[i].tolist()))
    return roots


def solve_poly(p: Poly) -> RootSet:
    """All complex roots of one polynomial: the one-row case of solve_polys."""
    return RootSet(tuple(solve_polys([p.coeffs])[0].tolist()))


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
