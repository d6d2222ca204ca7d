"""Implicit 1-D simulation of the temperature equations and the coupled
theta-q nonlocal system, with per-step entropy audits.

The temperature equations are integrated as first-order systems over the
stacked fields (theta, theta_dot[, theta_ddot]) with second-order central
differences in space and the trapezoidal rule in time (A-stable, order 2,
fixed step). The simulated theta field is the deviation from a constant
reference temperature theta_ref; positivity monitoring and the entropy
denominators use the absolute temperature theta_ref + theta.

Alongside the temperature stack, a pointwise heat-flux field is integrated
from the model's own rate law (driven one-way by the discrete temperature
gradients), so entropy production and the dissipation identity can be
audited at every node and step from the model's energy row.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .energetics import Form, SingularParameterError, nonlocal_coefficients
from .modal import InvalidKindError, characteristic_polys, modal_solution
from .models import CoefficientFn, GKLinear, MaterialConstants, ModelParams, RateLaw, temperature_law
from .tensors import InvalidInputError, solve_poly


class ConfigurationError(InvalidInputError):
    """The simulation setup is inconsistent or unsupported."""


class PositivityError(RuntimeError):
    """Absolute temperature reached zero or below."""

    def __init__(self, step: int, t: float):
        super().__init__(f"theta <= 0 first reached at step {step} (t = {t:.6g})")
        self.step = step
        self.t = t


class DivergenceError(RuntimeError):
    """A field, or the audit of a finite one, became non-finite (numerical
    blow-up)."""

    def __init__(self, step: int, t: float, what: str = "field"):
        super().__init__(f"non-finite {what} values at step {step} (t = {t:.6g})")
        self.step = step
        self.t = t


@dataclass(frozen=True)
class Grid1D:
    L: float
    N: int

    def __post_init__(self):
        if not self.L > 0:
            raise InvalidInputError(f"key 'grid.L': need a domain length > 0, got {self.L:g}")
        if self.N < 8:
            raise InvalidInputError(f"key 'grid.N': need at least 8 interior points, got {self.N}")

    @property
    def dx(self) -> float:
        return self.L / (self.N + 1)

    def interior_x(self) -> np.ndarray:
        return self.dx * np.arange(1, self.N + 1)


# a stencil or block as its diagonals, offset k -> d[i] = A[i, i + k] (0
# where i + k leaves the block); a sparse matrix as its rows, each a list of
# (column, value) in the order scipy's CSR form stores the row, no zeros
Band = Dict[int, np.ndarray]
Matrix = List[List[Tuple[int, float]]]


@dataclass
class SpaceOperators:
    """Discrete Laplacian / gradient with boundary closures baked in.

    For Dirichlet data the unknowns are the N interior nodes and the fixed
    boundary values enter through the affine parts lap_b / d1_b. For Neumann
    data the unknowns include both boundary nodes; the flux condition is
    eliminated with a mirrored ghost node, which keeps the trapezoid-weighted
    spatial mean exactly conserved by the flux-free heat equation. lap and
    d1 are bands with scipy's CSR values (diagonal times 1 / scale).
    """

    n: int
    x: np.ndarray
    lap: Band
    lap_b: np.ndarray
    d1: Band
    d1_b: np.ndarray


def _pair(value: Union[float, Tuple[float, float]]) -> Tuple[float, float]:
    left, right = (value, value) if np.isscalar(value) else value
    return float(left), float(right)


def _scaled(band: Band, c: float) -> Band:
    return {k: c * d for k, d in band.items()}


def space_operators(
    grid: Grid1D, bc_kind: str, bc_value: Union[float, Tuple[float, float]] = 0.0
) -> SpaceOperators:
    if bc_kind not in ("dirichlet", "neumann"):
        raise ConfigurationError(f"key 'bc.kind': need dirichlet or neumann, got {bc_kind!r}")
    dx, (left, right), neumann = grid.dx, _pair(bc_value), bc_kind == "neumann"
    n = grid.N + 2 * neumann
    x = dx * np.arange(1 - neumann, n + 1 - neumann)
    lap_b, d1_b = np.zeros(n), np.zeros(n)
    # the off-diagonals of the central stencils; at a Neumann wall the
    # mirrored ghost node doubles the inner neighbour in lap and cancels it
    # in d1, whose CSR form does not store that zero
    lo, up = np.ones(n), np.ones(n)
    lo[0] = up[-1] = 0.0
    d1_lo, d1_up = -lo, up.copy()
    if neumann:
        lap_b[0], lap_b[-1], d1_b[0], d1_b[-1] = -2.0 * left / dx, 2.0 * right / dx, left, right
        up[0] = lo[-1] = 2.0
        d1_up[0] = d1_lo[-1] = 0.0
    else:
        lap_b[0], lap_b[-1], d1_b[0], d1_b[-1] = left / dx**2, right / dx**2, -left / (2 * dx), right / (2 * dx)
    lap = _scaled({-1: lo, 0: np.full(n, -2.0), 1: up}, 1 / dx**2)
    d1 = _scaled({-1: d1_lo, 1: d1_up}, 1 / (2 * dx))
    return SpaceOperators(n=n, x=x, lap=lap, lap_b=lap_b, d1=d1, d1_b=d1_b)


# --- temperature equation from the rate-law row ------------------------------

def assemble_rhs(
    m: ModelParams,
    material: MaterialConstants,
    ops: SpaceOperators,
) -> Tuple[List[List[Optional[Band]]], np.ndarray, int]:
    """First-order system u_dot = M u + f over the stacked fields
    u_k = d^k theta / dt^k, k < order, derived from the rate-law row:

        a_top u_{order-1}' = (b0 lap u_0 + b1 lap u_1) / rho_c
                             - sum_{j < top} a_j u_{j+1}

    M is the grid of its n x n blocks, each a band or None, with the values
    of scipy's sparse assembly. The boundary closure of the Laplacian only
    forces the theta block; the boundary data are constant in time, so the
    derivative fields carry homogeneous versions of the same condition.
    """
    law = temperature_law(m, ConfigurationError)
    order = law.order + 1
    n = ops.n
    rc = material.rho_cv
    *lower, top = law.a
    blocks = [[{0: np.ones(n)} if j == k + 1 else None for j in range(order)] for k in range(order)]
    last = blocks[-1]
    last[0] = _scaled(ops.lap, law.b0 / rc / top)
    for j, c in enumerate(lower):
        if c != 0:
            last[j + 1] = {0: np.full(n, -c / top)}
    if law.b1 is not None:
        b1_lap = _scaled(ops.lap, law.b1 / rc / top)
        if last[1] is not None:  # a sparse sum: its zero entries are not stored
            b1_lap = {k: v for k, d in b1_lap.items() if (v := d + last[1].get(k, 0.0)).any()}
        last[1] = b1_lap
    f = np.zeros(order * n)
    f[-n:] = law.b0 / rc / top * ops.lap_b
    return blocks, f, order


# --- scipy's CSR algorithms, row by row -------------------------------------
# Each routine forms its result as scipy's sparsetools kernel does, in
# Python floats, so it has scipy's values and stored order. The set-up runs
# them on a block's distinct rows (_distinct), a system of 2W + 1 rows a
# block whose products have the long system's wall rows and interior row.

def _distinct(X: np.ndarray, w: int, wall: int) -> np.ndarray:
    """The distinct rows of constant-coefficient diagonals (the rows of X,
    each along a block's nb rows): the w rows next to each wall and row w
    between them, once every row `wall` or more from a wall is checked to
    equal row w. A block of at most 2w + 1 rows is its own reduction."""
    nb = X.shape[1]
    if nb <= 2 * w + 1:
        return X
    if (X[:, wall : nb - wall] != X[:, w, None]).any():
        raise ConfigurationError("the 1-D system's coefficients vary along the grid: its set-up "
                                 "needs constant coefficients on a uniform grid")
    return np.concatenate((X[:, : w + 1], X[:, nb - w :]), 1)


def _matmat(A: Matrix, B: Matrix) -> Matrix:
    """A @ B as csr_matmat forms it: each entry summed into +0 in A's
    stored order, each row stored in reverse order of first touch, zero
    sums dropped."""
    out = []
    for row in A:
        sums = {}
        for j, a in row:
            for k, b in B[j]:
                sums[k] = sums.get(k, 0.0) + a * b
        out.append([(k, s) for k, s in reversed(sums.items()) if s])
    return out


def _add(A: Matrix, B: Matrix, op: Callable[[float, float], float] = operator.add) -> Matrix:
    """op(A, B) (operator.add or operator.sub) as scipy's csr binop of
    sorted operands forms it: a missing entry read as 0, each row sorted,
    zeros dropped."""
    return [[(k, v) for k in sorted(a | b) if (v := op(a.get(k, 0.0), b.get(k, 0.0)))]
            for a, b in ((dict(x), dict(y)) for x, y in zip(A, B))]


def _matvec(A: Matrix, x: List[float]) -> List[float]:
    """A @ x as csr_matvec sums it: each row into +0 in stored order (not
    sum(), which compensates a float sum from Python 3.12 on)."""
    return [functools.reduce(operator.add, (v * x[k] for k, v in row), 0.0) for row in A]


def _spread(A: Matrix, m: int, nb: int) -> List[Tuple[int, int, List[Tuple[int, float]]]]:
    """The rows of the system of nb rows a block whose distinct rows (m a
    block) are A, as (first row, rows, entries as (column - row, value)):
    each wall row stands for itself, the interior row (m // 2 of a block)
    for the nb - m + 1 rows between them."""
    w, c = m // 2, nb - m + 1
    out = []
    for r, row in enumerate(A):
        i, at = divmod(r, m)
        out.append((i * nb + at + (at > w) * (c - 1), c if at == w else 1,
                    [((k // m - i) * nb + k % m - at, v) for k, v in row]))
    return out


def _widen(A: Matrix, m: int, nb: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR triples (indptr, indices, data) of the system of nb rows a block
    whose distinct rows (m a block) are A: the wall rows as they are, in
    one write of each array, and each interior row shifted along every row
    between, in one slice of each."""
    rows = _spread(A, m, nb)
    starts = [0, *accumulate(reps * len(e) for _, reps, e in rows)]
    indptr = np.empty(len(A) // m * nb + 1, np.int32)
    indices, data = np.empty(starts[-1], np.int32), np.empty(starts[-1])
    walls = [(at, lo, e) for (at, reps, e), lo in zip(rows, starts) if reps == 1]
    indptr[[at for at, _, _ in walls] + [-1]] = [lo for _, lo, _ in walls] + starts[-1:]
    entries = [(lo + x, at + d, v) for at, lo, e in walls for x, (d, v) in enumerate(e)]
    if entries:
        pos, cols, vals = zip(*entries)
        indices[list(pos)], data[list(pos)] = cols, vals
    for (at, reps, e), lo, hi in zip(rows, starts, starts[1:]):
        if reps == 1:
            continue
        indptr[at : at + reps] = np.arange(lo, hi, len(e)) if e else lo
        if e:
            d, v = zip(*e)
            out = indices[lo:hi].reshape(reps, -1)
            np.add(np.arange(at, at + reps, dtype=np.int32)[:, None], d, out=out, dtype=np.int32)
            data[lo:hi].reshape(reps, -1)[:] = v
    return indptr, indices, data


# a run's size budget in floats (128 MB; README: Config format): the band
# storage, the audit (6 floats a step), the snapshots (2 a cell) and the
# per-node arrays (128 a node; a third-order kind takes about 110) each stay
# within it, or are refused before they are allocated
MAX_RUN_FLOATS = _MAX_BAND_ENTRIES = 2**24


def _band_lu(ab: np.ndarray, kl: int, ku: int) -> Callable[[np.ndarray], np.ndarray]:
    """LAPACK band LU of the band storage ab (kl sub- and ku superdiagonals
    below kl rows of room, as `dgbtrf` takes it, which it overwrites);
    returns b -> A^-1 b, solved in place with `dgbtrs`'s bits but not its
    per-column `dger` call. The L-solve runs a unit-lower `dtbsv` over each
    window of columns between two row swaps: a window ends at the swapped
    column c, whose own AXPY (alpha = -b[c]) waits for the swap and opens
    the next window; when kl >= 2 the window's last columns reach rows past
    c, and each gets that part by `daxpy`, in column order. With no swap it
    is one window, then the U-solve, the `dtbsv` call `dgbtrs` makes: two
    `dtbsv` calls on the whole arrays."""
    from scipy.linalg.blas import daxpy, dtbsv
    from scipy.linalg.lapack import dgbtrf

    lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=1)
    if info > 0:
        raise ConfigurationError(f"singular implicit matrix: zero pivot {info}")

    # the multipliers below U's diagonal, copied once into a Fortran-ordered
    # band so that dtbsv reads it in place (L[i, j] is flat[j * kl + i]);
    # U is lu's first kl + ku + 1 rows
    n, lower = len(piv), np.asfortranarray(lu[kl + ku :])
    flat, swaps, start = lower.ravel(order="F"), [], 0
    for c in np.flatnonzero(piv != np.arange(n)).tolist():
        spill = [(j, min(j + kl, n - 1) - c, j * kl + c + 1) for j in range(max(start, c - kl + 1), c)]
        swaps.append((start, lower[:, start : c + 1], spill, c, int(piv[c])))
        start = c
    last = lower[:, start:]

    def solve(b: np.ndarray) -> np.ndarray:
        for lo, window, spill, c, p in swaps:
            dtbsv(kl, window, b, offx=lo, lower=1, diag=1, overwrite_x=1)
            for j, m, off in spill:
                if b[j]:
                    daxpy(flat, b, n=m, a=-b[j], offx=off, offy=c + 1)
                else:  # daxpy skips alpha = 0, dger does not; a zero's product is exact
                    b[c + 1 : c + 1 + m] += flat[off : off + m] * -b[j]
            b[c], b[p] = b[p], b[c]
        dtbsv(kl, last, b, offx=start, lower=1, diag=1, overwrite_x=1)
        return dtbsv(kl + ku, lu, b, overwrite_x=1)

    return solve


def trapezoid_stepper(
    M: List[List[Optional[Band]]], f: np.ndarray, dt: float, keep: Optional[int] = None
) -> Callable[..., np.ndarray]:
    """One fixed-step trapezoidal update u -> u' of u_dot = M u + f (M a
    square grid of n x n blocks, each a band or None) as step(u, out), which
    writes u' into out, a zeroed contiguous array apart from u (by default a
    new one), and returns it. That is (I - hM) u' = (I + hM) u + dt f with h
    = dt/2, Schur-reduced onto the last `keep` unknowns (all by default;
    whole blocks). The eliminated block must be strictly block upper
    triangular (companion shifts, or zero), so (I - hM11)^-1 is a finite
    sum. The set-up runs scipy's own CSR algorithms (csr_matmat, the binop
    of sorted rows, csr_matvec) row by row in Python floats, so `rhs_mat`
    and `back` have the values and the unsorted stored order of scipy's
    products (a kept third-order row: theta_ddot, then theta_dot and theta
    interleaved, from the +1 neighbour down), and the CSR kernel sums each
    row in that order: steps have the sparse set-up's bits. Every block of
    M and f must have constant coefficients (ConfigurationError otherwise):
    the algebra runs on a small system of each block's 2W + 1 distinct
    rows, whose wall rows are laid out as they are and whose interior row
    is shifted along every row between, in the CSR triples, the band
    storage and the forcing; a block of at most 2W + 1 rows is its own
    reduction. A step is two kernel calls (the reduced right-hand side, the
    back-substitution) and a band solve in place: two `dtbsv` calls, and
    one more per row that `dgbtrf` swapped (a Neumann wall row is not
    column diagonally dominant)."""
    from scipy.sparse._sparsetools import csr_matvec

    p, n = len(M), len(f)
    nb = n // p
    n1 = n - (n if keep is None else keep)
    if not 0 <= n1 < n or n1 % nb:
        raise ConfigurationError(f"cannot keep {keep} of {n} unknowns")
    p1, h = n1 // nb, dt / 2.0
    # the set-up runs on each block's distinct rows. Every row of M and f that
    # is K (M's largest offset) or more from a wall must be the interior row;
    # the deepest product chains p1 + 1 factors of reach K, so its rows differ
    # from the interior one up to (p1 + 1) K from a wall: with W = 2K (p1 + 1),
    # the system of 2W + 1 rows a block has the long one's wall rows, and its
    # middle row is the interior one, in values and in stored order
    wall = max([abs(k) for row in M for band in row if band for k in band] + [1])
    w = 2 * wall * (p1 + 1)
    keys = [(i, j, k) for i, row in enumerate(M) for j, band in enumerate(row) if band for k in sorted(band)]
    X = _distinct(np.concatenate([*(M[i][j][k] for i, j, k in keys), f], dtype=float).reshape(-1, nb), w, wall)
    m, X = X.shape[1], X.tolist()
    hM, q = [[] for _ in range(p * m)], p1 * m  # the distinct system's rows, sorted; its eliminated ones
    for (i, j, k), d in zip(keys, X):
        for r, v in enumerate(d):
            if v:
                hM[i * m + r].append((j * m + r + k, h * v))
    part = lambda rows, lo, hi: [[(k - lo, v) for k, v in r if lo <= k < hi] for r in rows]
    eye = lambda size: [[(r, 1.0)] for r in range(size)]
    N = part(hM[:q], 0, q)
    if any(k // m <= r // m for r, row in enumerate(N) for k, _ in row):
        raise ConfigurationError("eliminated block of the implicit matrix is not strictly block upper "
                                 "triangular, so not nilpotent as the reduction needs")
    E, power, hM12 = eye(q), N, part(hM[:q], q, p * m)
    while any(power):  # the series of the inverse, summed as scipy sums it
        E, power = _add(E, power), _matmat(power, N)
    A21E = _matmat([[(k, -v) for k, v in r] for r in part(hM[q:], 0, q)], E)
    S = _add(_add(eye(p * m - q), part(hM[q:], q, p * m), operator.sub), _matmat(A21E, hM12))
    # rows: E r1 for the eliminated unknowns, r2 - A21 E r1 for the kept
    # ones, each sorted by column as scipy's bmat stores it
    reduce = E + [sorted([(k, -v) for k, v in a] + [(q + r, 1.0)]) for r, a in enumerate(A21E)]
    RB, EB = _matmat(reduce, _add(eye(p * m), hM)), _matmat(E, hM12)
    rhs_f = _matvec(reduce, [dt * v for d in X[len(keys) :] for v in d])
    if not np.isfinite([*rhs_f, *(v for rows in (RB, EB, S) for row in rows for _, v in row)]).all():
        raise ConfigurationError("keys grid.*, material.*, model.* and time.dt: the 1-D system they set up, "
                                 f"times dt/2 = {h:g}, leaves the float range")
    rp, ri, rd = _widen(RB, m, nb)
    bp, bi, bd = _widen(EB, m, nb)
    band = _spread(S, m, nb)
    offsets = [d for _, _, e in band for d, _ in e]
    kl, ku = max([-d for d in offsets] + [0]), max(offsets + [0])
    if (2 * kl + ku + 1) * (n - n1) > _MAX_BAND_ENTRIES:
        raise ConfigurationError(f"implicit matrix too wide for band storage (bandwidths {kl}, {ku})")
    ab = np.zeros((2 * kl + ku + 1, n - n1), order="F")
    for at, reps, e in band:  # one slice a diagonal's rows, as LAPACK stores A[i, j] at ab[kl + ku + i - j, j]
        for d, v in e:
            ab[kl + ku - d, at + d : at + d + reps] = v
    solve = _band_lu(ab, kl, ku)

    # each product sums into zeros (the caller's row, then the stepper's one
    # buffer), as `rhs_mat @ u + rhs_f` and `r[:n1] += back @ r[n1:]` do, so
    # the rounding is theirs. A row summed into +0 is never -0, so adding a
    # zero forcing leaves it as it is, and r + p is r + (0 + p): with no
    # forcing (zero boundary data) the add is skipped, and a back-substitution
    # of at most one entry a row (every local kind) sums straight into r
    forced = np.count_nonzero(rhs_f)
    if forced:
        rhs_f = np.repeat(rhs_f, [reps for _, reps, _ in _spread(RB, m, nb)])  # RB's rows are the forcing's
    t = np.empty(n1) if max(map(len, EB), default=0) > 1 else None  # the coupled gk theta rows: two entries

    def step(u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        out = np.zeros(n) if out is None else out
        csr_matvec(n, n, rp, ri, rd, u, out)
        if forced:
            out += rhs_f
        solve(out[n1:])
        if t is not None:
            t.fill(0.0)
            csr_matvec(n1, n - n1, bp, bi, bd, out[n1:], t)
            out[:n1] += t
        elif n1:
            csr_matvec(n1, n - n1, bp, bi, bd, out[n1:], out[:n1])
        return out

    return step


# --- per-node entropy audit -------------------------------------------------

class _Workspace:
    """Named float buffers that every block of one run reuses, so the
    observer allocates once per run rather than once per block of steps.
    ws(name, (b, ...)) is the first b rows of a buffer with at least `rows`
    rows, allocated on first use and again only for a longer block. A
    result kept past its block must be copied out of it."""

    def __init__(self, rows: int = 1):
        self.rows, self.bufs = rows, {}

    def __call__(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        b, tail = shape[0], tuple(shape[1:])
        buf = self.bufs.get(name)
        if buf is None or len(buf) < b or buf.shape[1:] != tail:
            buf = self.bufs[name] = np.empty((max(b, self.rows),) + tail)
        return buf[:b]


def _stencil_rows(op: Band) -> Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """For a tridiagonal band op, rows(V, out, tmp) writes op applied to
    every row of the (steps, nodes) block V into out, by slices, bit for bit
    as scipy's CSR kernel: row i is (0 + l_i v[i-1]) + d_i v[i] + u_i v[i+1]
    over its stored entries, summed into zeros, so -0.0 becomes 0.0. An
    entry that the CSR form does not store reads 0 here, which leaves a
    finite sum as it is; tmp takes the products."""
    lower, diag, upper = op[-1][1:], op.get(0), op[1][:-1]

    def rows(V: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        out[:, 0] = 0.0
        inner = np.multiply(V[:, :-1], lower, out=out[:, 1:])
        inner += 0.0
        if diag is not None:
            out += np.multiply(V, diag, out=tmp)
        out[:, :-1] += np.multiply(V[:, 1:], upper, out=tmp[:, :-1])
        return out

    return rows


def _combine(terms, out: np.ndarray, tmp: np.ndarray) -> Optional[np.ndarray]:
    """Sum of c * v over the (c, v) pairs, in their order, not multiplying
    out unit c, written into out (tmp takes the later products). A lone
    unit term is returned as it is, so the sum may be one of the inputs;
    None for no terms."""
    acc = None
    for c, v in terms:
        t = v if c == 1 else np.multiply(c, v, out=out if acc is None else tmp)
        acc = t if acc is None else np.add(acc, t, out=out)
    return acc


def _squares(form: Optional[Form]) -> List[Tuple[float, List[Tuple[float, int]]]]:
    """The form's x-directed reduction (each 3x3 block's xx entry) as a sum
    of d (sum_b l_b x_b)^2 over the pivots of a symmetric elimination,
    largest diagonal first; b indexes (q, q_dot, theta_x). Unlike a sum over
    the entries, squares keep the sign of a semidefinite form and do not
    square a cancellation in l.x (as in tau q_dot + kappa theta_x -> 0).
    What elimination leaves within 16 ulps of the largest entry is rounding
    and is cleared, so a form of rank r gives r squares. A form that is or
    becomes non-finite is refused, since nan would never clear."""
    if form is None:
        return []
    f = form.amplitudes()
    tol = 16 * np.finfo(float).eps * np.abs(f).max()
    squares = []
    while np.any(f):
        if not np.isfinite(f).all():
            raise ConfigurationError("no entropy audit: the energy form's coefficients overflow")
        k = int(np.argmax(np.abs(np.diag(f))))
        if f[k, k] != 0:
            pivots = [(f[k, k], f[k] / f[k, k])]
        else:  # 2 f x_a x_b = f/2 ((x_a + x_b)^2 - (x_a - x_b)^2)
            a, b = np.unravel_index(np.argmax(np.abs(f)), f.shape)
            e = np.eye(len(f))
            pivots = [(f[a, b] / 2, e[a] + e[b]), (-f[a, b] / 2, e[a] - e[b])]
        for d, l in pivots:
            squares.append((d, [(c, i) for i, c in enumerate(l) if c != 0]))
            f = f - d * np.outer(l, l)
        f[np.abs(f) <= tol] = 0.0
    return squares


def _entropy_audit(m: ModelParams, law: RateLaw) -> Callable:
    """Per-node (sigma, residual) from the model's energy row over the
    x-directed fields x = (q, q_dot, theta_x): rho*sigma = x'Sx / theta^2 and
    the dissipation residual (x_dot'Px + q theta_x) / theta + theta sigma,
    with the rates x_dot taken from the law on the discrete fields.
    Arguments: absolute temperature, theta_x, theta_dot_x and the law's
    drive, each (steps, nodes), and the flux state (steps, nodes, law order)."""
    row = m.energy["plus"]
    try:
        P, S = _squares(row.P), _squares(row.S)
    except SingularParameterError as e:
        raise ConfigurationError(f"no entropy audit: {e}") from e
    lower = [(-c / law.a[-1], j) for j, c in enumerate(law.a[:-1]) if c != 0]
    ws = _Workspace()

    def audit(ta, tx, tdx, drive, y):
        # each sum and product goes into a buffer of the run, term by term in
        # the order the formulas are written, so the values have the bits of
        # evaluating the formulas directly
        buf = lambda name: ws(name, ta.shape)
        tmp = buf("tmp")
        x = (y[..., 0], y[..., -1], tx)  # q, q_dot where the law has it, theta_x
        squares = [(d, np.square(_combine(((c, x[b]) for c, b in terms), buf("lin"), tmp), out=buf(f"square{i}")))
                   for i, (d, terms) in enumerate(S)]
        quad = _combine(squares, buf("square0"), tmp)
        if quad is None:  # no entropy production, as in GN3 with kappa = 0
            quad = buf("square0")
            quad.fill(0.0)
        total = np.multiply(x[0], tx, out=buf("total"))
        total += quad
        if P:
            # y_j' = y_{j+1}; the top rate comes from the law
            top = _combine([(1, drive)] + [(c, y[..., j]) for c, j in lower], buf("top"), tmp)
            rate = (y[..., 1], top, tdx) if law.order == 2 else (top, None, tdx)
            for d, terms in P:
                r = np.multiply(d, _combine(((c, rate[b]) for c, b in terms), buf("lin"), tmp), out=buf("term"))
                total += np.multiply(r, _combine(((c, x[b]) for c, b in terms), buf("lin"), tmp), out=r)
        ta2 = np.multiply(ta, ta, out=buf("lin"))
        sig = np.divide(quad, ta2, out=ta2)
        return sig, np.divide(total, ta, out=total)

    return audit


# --- simulation --------------------------------------------------------------

@dataclass
class SimConfig:
    """One 1-D run of any simulated kind. A local kind steps its temperature
    equation; a gk kind (delta = 0, constant varkappa, Dirichlet walls)
    steps the coupled theta-q system with its coefficients at theta_ref.
    With imposed_gradient G (gk only) theta is frozen at the linear profile
    theta_ref + G (x - L/2), which must be positive on [0, L], walls
    included, and only the flux evolves (the boundary-layer setup whose
    steady state is the cosh plug profile). theta_ref defaults to 1 for a gk
    kind and to 300 for a local one."""

    model: ModelParams
    material: MaterialConstants
    grid: Grid1D
    dt: float
    t_end: float
    bc_kind: str = "dirichlet"
    bc_value: Union[float, Tuple[float, float]] = 0.0
    theta0: Union[np.ndarray, Callable[[np.ndarray], np.ndarray], float, None] = None
    theta_dot0: Union[np.ndarray, Callable, float, None] = None
    q0: Union[np.ndarray, Callable, float, None] = None
    theta_ref: Optional[float] = None
    snapshot_every: Optional[int] = None
    imposed_gradient: Optional[float] = None

    def __post_init__(self):
        if self.theta_ref is None:
            self.theta_ref = 1.0 if isinstance(self.model, GKLinear) else 300.0
        for key, v in (("time.dt", self.dt), ("time.t_end", self.t_end), ("sim.theta_ref", self.theta_ref)):
            if not (np.isfinite(v) and v > 0):
                raise ConfigurationError(f"key {key!r}: need a finite value > 0, got {v:g}")
        nodes = self.grid.N + 2 * (self.bc_kind == "neumann")
        cells = (-(-self.steps // self.every) + 1) * nodes  # snapshots at t = 0, every `every` steps and the end
        for key, count, what, size in (("grid.N", nodes, "nodes", 128), ("time.t_end", self.steps, "steps", 6),
                                       ("time.snapshot_every", cells, "snapshot cells", 2)):
            if count * size > MAX_RUN_FLOATS:
                raise ConfigurationError(f"key {key!r}: {count:.6g} {what} at {size} floats each exceed a run's "
                                         f"budget of {MAX_RUN_FLOATS} floats")

    @property
    def steps(self) -> int:
        """The number of fixed steps from 0 to t_end."""
        return max(1, int(round(self.t_end / self.dt)))

    @property
    def every(self) -> int:
        """The steps between snapshots: snapshot_every, else about steps / 200."""
        return self.snapshot_every or max(1, self.steps // 200)


@dataclass
class Trajectory:
    """Snapshots of (theta, q) and the per-step audit of one run; the audit
    is keyed by its CSV columns, in column order, starting with t."""

    x: np.ndarray
    times: np.ndarray
    thetas: List[np.ndarray]
    fluxes: List[np.ndarray]
    audit: Dict[str, np.ndarray]
    theta_ref: float

    @property
    def qs(self) -> List[np.ndarray]:
        return self.fluxes


def _init_field(value, x: np.ndarray) -> np.ndarray:
    if value is None:
        return np.zeros_like(x)
    if callable(value):
        return np.asarray(value(x), dtype=float)
    if np.isscalar(value):
        return np.full_like(x, float(value))
    a = np.asarray(value, dtype=float)
    if a.shape != x.shape:
        raise ConfigurationError(f"initial field shape {a.shape} != grid shape {x.shape}")
    return a


# a block of steps holds about this many floats (256 kB), so it stays in cache
_BLOCK_FLOATS = 2**15


def _block_steps(cfg: SimConfig, size: int) -> int:
    """B, the steps of one block of the time loop for a state of `size` unknowns."""
    return max(1, min(cfg.steps, _BLOCK_FLOATS // size))


def _into(step: Callable) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """step as step(u, out) -> out: perfbench's traced run wraps a stepper as
    u -> u', copied into out here (until the next change to the benchmark)."""
    return step if step.__code__.co_argcount > 1 else lambda u, out: np.copyto(out, step(u)) or out


def _march(
    cfg: SimConfig,
    u: np.ndarray,
    step: Callable[[np.ndarray, np.ndarray], np.ndarray],
    observe: Callable[[np.ndarray], Tuple[Tuple, Tuple[np.ndarray, ...]]],
    first: Tuple[np.ndarray, ...],
    columns: Tuple[str, ...] = (),
    nodes: Optional[int] = None,
) -> Tuple[np.ndarray, List[np.ndarray], Dict[str, np.ndarray]]:
    """The fixed-step loop of every 1-D run and of the modal comparison.
    Only step(u, row) runs per step, writing each state into the next row
    of its block's U (steps, u.size), B * u.size about _BLOCK_FLOATS (B = 1
    on fine grids); the rest runs once per block. U is one of two buffers
    that take turns, zeroed once a block, so a block's first step reads the
    other's last row. When u starts with the `nodes` values of the theta
    deviation, theta_ref + theta must stay positive. observe(U) returns the
    block's audit columns after t (arrays over its steps, or one value for
    all; none for the modal comparison) and its rows of each snapshot
    field. A block's states before its first non-finite or non-positive one
    are observed (the entry points silence overflow; the later ones, still
    stepped, are not) before anything is raised, so the error names the
    earliest bad step whatever B is: a non-finite audit value (a state past
    about 1e154 squares to inf), then 0 K, then a non-finite state. `first`
    holds the fields at t = 0 ((theta, flux) for a run, theta alone for the
    comparison); the other snapshots are taken every cfg.every steps and at
    the last step. Returns the snapshot times, one (snapshots, ...) array
    per field and the audit columns, keyed from t."""
    nsteps, block, step = cfg.steps, _block_steps(cfg, u.size), _into(step)
    audit = {"t": np.arange(1, nsteps + 1) * cfg.dt, **{key: np.empty(nsteps) for key in columns}}
    kept = list(range(0, nsteps + 1, cfg.every))
    if kept[-1] != nsteps:
        kept.append(nsteps)
    # the run's snapshots of each field in one array, filled block by block
    snaps = [np.empty((len(kept),) + np.shape(f)) for f in first]
    for snap, f in zip(snaps, first):
        snap[0] = f
    filled = 1
    bufs = [np.empty((block, u.size)), np.empty((block, u.size))]
    for i0 in range(0, nsteps, block):
        U = bufs[i0 // block % 2][: min(block, nsteps - i0)]
        U.fill(0.0)
        for row in U:
            u = step(u, row)
        # the first non-finite state, or the first at or below 0 K before it
        finite = np.isfinite(U).all(1)
        sane = finite & (U[:, :nodes].min(1) > -cfg.theta_ref) if nodes else finite
        b = len(U) if sane.all() else int(sane.argmin())
        i = i0 + b + 1
        error = None if b == len(U) else (PositivityError if finite[b] else DivergenceError)(i, i * cfg.dt)
        if b:
            values, fields = observe(U[:b])
            finite = np.ones(b, dtype=bool)
            for value in values:
                finite &= np.isfinite(value)
            if not finite.all():
                i = i0 + int(finite.argmin()) + 1
                raise DivergenceError(i, i * cfg.dt, "audit")
        if error is not None:
            raise error
        for col, value in zip(columns, values):
            audit[col][i0 : i0 + b] = value
        while filled < len(kept) and kept[filled] <= i0 + b:
            r = kept[filled] - i0 - 1
            for snap, field in zip(snaps, fields):
                snap[filled] = field[r]
            filled += 1
    return np.array(kept) * cfg.dt, snaps, audit


def _local_setup(cfg: SimConfig) -> Tuple[SpaceOperators, int, Callable[..., np.ndarray], np.ndarray]:
    """The temperature equation of a local kind over u = (theta, theta_dot[,
    theta_ddot]): its operators, its order, its trapezoid stepper and the
    initial u, whose theta_ddot starts at 0."""
    if cfg.imposed_gradient is not None:
        raise ConfigurationError("key 'gk.imposed_gradient': only a gk kind takes an imposed gradient")
    ops = space_operators(cfg.grid, cfg.bc_kind, cfg.bc_value)
    M, f, order = assemble_rhs(cfg.model, cfg.material, ops)
    n, x = ops.n, ops.x
    step = trapezoid_stepper(M, f, cfg.dt, keep=n)
    u = np.zeros(order * n)
    u[:n] = _init_field(cfg.theta0, x)
    if order >= 2:
        u[n : 2 * n] = _init_field(cfg.theta_dot0, x)
    return ops, order, step, u


def _local_system(cfg: SimConfig) -> Trajectory:
    """The temperature equation of a local kind, stepped from its set-up
    with the per-node flux ODE and entropy audit: per step the extremes of
    sigma, the dissipation residual, the absolute-temperature minimum and
    the field amplitude."""
    ops, order, step, u = _local_setup(cfg)
    n, x = ops.n, ops.x
    law = temperature_law(cfg.model, ConfigurationError)
    audit_fn = _entropy_audit(cfg.model, law)
    ws = _Workspace(_block_steps(cfg, u.size))
    d1, wall = _stencil_rows(ops.d1), np.flatnonzero(ops.d1_b)

    def grads(U):
        """theta_x, theta_dot_x and the law's drive -(b0 theta_x + b1
        theta_dot_x) / a_top: the flux itself for an algebraic law, else the
        forcing of its highest flux derivative."""
        shape = (len(U), n)
        tmp = ws("tmp", shape)
        tx = d1(U[:, :n], ws("tx", shape), tmp)
        tx[:, wall] += ops.d1_b[wall]  # a stencil row is never -0.0, so adding 0 keeps it
        tdx = ws("tdx", shape)
        if order >= 2:
            d1(U[:, n : 2 * n], tdx, tmp)
        else:
            tdx.fill(0.0)
        drive = np.multiply(law.b0, tx, out=ws("drive", shape))
        if law.b1 is not None:
            drive += np.multiply(law.b1, tdx, out=tmp)
        drive /= -law.a[-1]  # -(d / a): division rounds alike for either sign
        return tx, tdx, drive

    # pointwise flux ODE y_dot = A y + (0, ..., drive) over the per-node flux
    # state y = (q,) for the first-flux-rate laws, (q, q_dot) for the second;
    # an algebraic law's flux is its drive, y = (drive,). The recurrence's
    # state and k x k factors are contiguous: matmul on them has the bits of
    # matmul on transposed views, at a third of the time; a 1 x 1 factor is
    # taken as a scalar
    k = law.order
    drive = grads(u[None])[2][0].copy()
    if k:
        A = np.eye(k, k, 1)
        A[-1] -= np.divide(law.a[:-1], law.a[-1])
        y = np.zeros((n, k))
        y[:, 0] = _init_field(cfg.q0, x)
        yr = np.empty((n, k))
        try:  # singular where dt/2 is the inverse of one of A's eigenvalues
            lhs_inv_t = np.ascontiguousarray(np.linalg.inv(np.eye(k) - cfg.dt / 2.0 * A).T)
        except np.linalg.LinAlgError as e:
            raise ConfigurationError(f"key 'time.dt': the flux law's trapezoid step I - dt/2 A is singular at "
                                     f"dt = {cfg.dt:g}") from e
        rhs_a_t = np.ascontiguousarray((np.eye(k) + cfg.dt / 2.0 * A).T)
        if k == 1:  # a scalar multiplies faster
            lhs_inv_t, rhs_a_t = lhs_inv_t[0, 0], rhs_a_t[0, 0]
    else:
        y = drive[:, None]

    def observe(U):
        b = len(U)
        tx, tdx, drives = grads(U)
        if k:
            # each step's trapezoid forcing, added in y' = (y R + (0, ...,
            # half)) L to the last column alone: matmul sums into +0, so no
            # other holds a -0.0 that adding 0 would clear
            half = ws("tmp", (b, n))
            np.add(drive, drives[0], out=half[0])
            np.add(drives[:-1], drives[1:], out=half[1:])
            half *= cfg.dt / 2.0
            ys = ws("ys", (b, n, k))
            if k == 1:
                # the (nodes, 1) by (1, 1) matmuls as scalar products on 1-D
                # views, matmul's + 0.0 (-0.0 becomes 0.0) added once a
                # block: a product or sum of a zero is a zero or the other
                # operand, so a zero's sign reaches no later nonzero value
                prev, r, qs = y[:, 0], yr[:, 0], ys[..., 0]
                for j in range(b):
                    np.multiply(prev, rhs_a_t, out=r)
                    r += half[j]
                    prev = np.multiply(r, lhs_inv_t, out=qs[j])
                qs += 0.0
            else:
                prev = y
                for j in range(b):
                    np.matmul(prev, rhs_a_t, out=yr)
                    yr[:, -1] += half[j]
                    prev = np.matmul(yr, lhs_inv_t, out=ys[j])
            np.copyto(y, ys[-1])
            np.copyto(drive, drives[-1])
        else:
            ys = drives[..., None]
        theta = U[:, :n]
        ta = np.add(cfg.theta_ref, theta, out=ws("ta", (b, n)))
        sig, res = audit_fn(ta, tx, tdx, drives, ys)
        absolute = ws("tmp", (b, n))
        max_res = np.abs(res, out=absolute).max(1)
        values = sig.min(1), sig.max(1), max_res, ta.min(1), np.abs(theta, out=absolute).max(1)
        return values, (theta, ys[..., 0])

    columns = ("min_sigma", "max_sigma", "max_residual", "theta_min", "max_amp")
    times, (thetas, fluxes), audit = _march(cfg, u, step, observe, (u[:n].copy(), y[:, 0].copy()), columns, n)
    return Trajectory(x, times, list(thetas), list(fluxes), audit, cfg.theta_ref)


def _nonlocal_system(cfg: SimConfig) -> Trajectory:
    """The energy balance coupled to the nonlocal flux law, q = 0 at both
    walls, from the model's coefficient set at theta_ref: kappa from
    Nonlocal.kappa and lambda2 = ell2 vk. With an imposed gradient only the
    flux is stepped.

    Audits, per step: the internal entropy supply zeta (nonnegative by
    construction for the derived coefficients), the boundary no-flow of the
    extra entropy flux k, its largest value, and the dissipation residual
    evaluated at theta_ref (the linearization point of the constant
    coefficients).
    """
    m, G = cfg.model, cfg.imposed_gradient
    if m.varkappa.p != 0:
        raise ConfigurationError("key 'model.varkappa': the coupled solver freezes it at theta_ref; it needs constant:c")
    gk = nonlocal_coefficients(m, cfg.theta_ref)
    if gk.delta != 0:
        raise ConfigurationError("key 'model.delta': the coupled solver has no nonlinear term; it needs delta = 0")
    if gk.tau < 0 or (gk.tau == 0 and G is None):
        raise ConfigurationError("key 'model.tau': need tau >= 0, and tau = 0 only with an imposed gradient")
    if cfg.bc_kind != "dirichlet":
        raise ConfigurationError(f"key 'bc.kind': the coupled solver takes only dirichlet walls, not {cfg.bc_kind!r}")
    tau, kappa, lambda2 = gk.tau, gk.kappa(cfg.theta_ref), gk.ell2 * gk.vk
    grid = cfg.grid
    # q lives on the interior nodes with q = 0 at both walls: the
    # homogeneous Dirichlet parts of the theta operators
    ops = space_operators(grid, "dirichlet", cfg.bc_value)
    n, x = ops.n, ops.x
    # (-I + 3 lambda2 lap) / tau as scipy's sparse sum and division form it
    nl_lap = _scaled(ops.lap, 3.0 * lambda2)
    gk_rhs = {k: (d - (k == 0)) * (1 / tau) for k, d in nl_lap.items()} if tau > 0 else None

    d1, lap = _stencil_rows(ops.d1), _stencil_rows(ops.lap)
    ws = _Workspace()

    def audit(q: np.ndarray, theta_x: np.ndarray) -> Tuple[np.ndarray, ...]:
        # the x-directed fields: |grad q|^2 = (div q)^2 = q_x^2, (grad q)q =
        # (div q)q = q q_x and nonlocal_q = lap q + 2 grad div q = 3 q_xx;
        # every product and sum is written into the run's buffers
        buf = lambda name: ws(name, q.shape)
        tmp = buf("tmp")
        qx = d1(q, buf("qx"), tmp)
        nl = lap(q, buf("nl"), tmp)
        nl *= 3.0
        qx2 = np.multiply(qx, qx, out=buf("qx2"))
        zeta = gk.zeta(np.multiply(q, q, out=buf("zeta")), qx2, qx2, out=buf("zeta"), tmp=tmp)
        # q (tau q_dot / varkappa + theta_x / theta_ref^2) + div_k + zeta, with
        # tau q_dot from the rate law: d(rho psi)/dq / theta = tau q / varkappa
        res = buf("res")
        if tau > 0:
            np.negative(q, out=res)
            res -= np.multiply(kappa, theta_x, out=tmp)
            res += np.multiply(lambda2, nl, out=tmp)
            res /= gk.vk
        else:  # tau q_dot = 0
            res.fill(0.0)
        res += np.divide(theta_x, cfg.theta_ref**2, out=tmp)
        res *= q
        # q . nonlocal_q goes to k's buffer, div k to nonlocal_q's
        res += gk.div_k(qx2, qx2, np.multiply(q, nl, out=buf("k")), None, None, out=nl)
        res += zeta
        # k vanishes with q at the walls, so k_boundary is 0 by construction
        qqx = np.multiply(q, qx, out=qx)
        k = gk.k(q, qqx, qqx, None, out=buf("k"))
        return zeta.min(1), 0.0, np.abs(k, out=k).max(1), np.abs(res, out=res).max(1)

    columns = ("min_zeta", "k_boundary", "k_inf", "max_residual")
    q0 = _init_field(cfg.q0, x)
    if G is not None:
        if cfg.theta0 is not None or _pair(cfg.bc_value) != (0.0, 0.0):
            raise ConfigurationError("key 'gk.imposed_gradient': it freezes theta, so it takes no ic.* or bc.value")
        theta = G * (x - grid.L / 2.0)
        wall = cfg.theta_ref - abs(G) * grid.L / 2.0  # the profile's minimum, at a wall
        if wall <= 0.0:
            raise ConfigurationError(f"imposed gradient {G:.6g}: theta_ref + G (x - L/2) reaches {wall:.6g} <= 0")
        theta_x = np.full(n, G)
        if tau == 0:
            # the flux follows the gradient at once: (I - 3 lambda2 D2) q =
            # -kappa G, one trapezoid step of size 2 (h = 1) from q = 0; every
            # step returns that state, so its audit row is computed once a block
            solve = trapezoid_stepper([[nl_lap]], np.full(n, -kappa * G / 2.0), 2.0)
            steady = _into(solve)(np.zeros(n), np.zeros(n))
            step = lambda q, out: np.copyto(out, steady) or out
            observe = lambda Q: (audit(Q[:1], theta_x), (np.broadcast_to(theta, Q.shape), Q))
        else:
            step = trapezoid_stepper([[gk_rhs]], np.full(n, -kappa * G / tau), cfg.dt)
            observe = lambda Q: (audit(Q, theta_x), (np.broadcast_to(theta, Q.shape), Q))
        times, (thetas, fluxes), audit = _march(cfg, q0, step, observe, (theta.copy(), q0.copy()), columns)
        return Trajectory(x, times, list(thetas), list(fluxes), audit, cfg.theta_ref)

    # fully coupled: u = (theta deviation, q)
    M = [[None, _scaled(_scaled(ops.d1, -1.0), 1 / cfg.material.rho_cv)], [_scaled(ops.d1, -kappa / tau), gk_rhs]]
    f = np.zeros(2 * n)
    f[n:] = -kappa / tau * ops.d1_b

    wall = np.flatnonzero(ops.d1_b)

    def observe(U):
        theta, q = U[:, :n], U[:, n:]
        theta_x = d1(theta, ws("theta_x", theta.shape), ws("tmp", theta.shape))
        theta_x[:, wall] += ops.d1_b[wall]  # as in _local_system
        return audit(q, theta_x), (theta, q)

    u = np.concatenate([_init_field(cfg.theta0, x), q0])
    step = trapezoid_stepper(M, f, cfg.dt, keep=n)
    times, (thetas, fluxes), audit = _march(cfg, u, step, observe, (u[:n].copy(), u[n:].copy()), columns, n)
    return Trajectory(x, times, list(thetas), list(fluxes), audit, cfg.theta_ref)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused, or aborts the run
def simulate(cfg: SimConfig) -> Trajectory:
    """Integrate the kind's 1-D system, auditing entropy every step. The
    kind's system builder checks the setup (ConfigurationError); the time
    loop raises PositivityError / DivergenceError naming the first bad step.
    """
    return (_nonlocal_system if isinstance(cfg.model, GKLinear) else _local_system)(cfg)


# --- modal cross-validation --------------------------------------------------

def discrete_eigenvalue(grid: Grid1D, n_mode: int) -> float:
    """Eigenvalue of the discrete Dirichlet Laplacian for the sine mode:
    (2/dx^2)(1 - cos(n pi dx / L)), tending to (n pi / L)^2 as dx -> 0."""
    dx = grid.dx
    return 2.0 / dx**2 * (1.0 - np.cos(n_mode * np.pi * dx / grid.L))


@dataclass(frozen=True)
class ModalComparison:
    linf_rel: float
    l2_rel: float


@np.errstate(over="ignore", invalid="ignore")  # as in simulate
def compare_modal_vs_pde(cfg: SimConfig, n_mode: int) -> ModalComparison:
    """Step a local kind's temperature equation from single-sine initial
    data and compare its theta snapshots against the separated ODE solution
    built on the discrete Laplacian eigenvalue.

    The run is `simulate`'s set-up and time loop with an observer that
    keeps theta alone (no flux ODE, no entropy audit): the same theta bits
    and the same aborts. A gk kind is refused before any step. With the
    matching eigenvalue the two solutions differ only through the time
    discretization, so agreement is limited by O(dt^2).
    """
    if cfg.bc_kind != "dirichlet":
        raise ConfigurationError("modal comparison is Dirichlet-only")
    if isinstance(cfg.model, GKLinear):
        temperature_law(cfg.model, InvalidKindError)  # the oracle's error: no temperature equation
    grid = cfg.grid
    shape = np.sin(n_mode * np.pi * grid.interior_x() / grid.L)
    run = replace(cfg, bc_value=0.0, theta0=shape, theta_dot0=None, q0=None)
    ops, _, step, u = _local_setup(run)
    n = ops.n
    times, (diff,), _ = _march(run, u, step, lambda U: ((), (U[:, :n],)), (u[:n],), nodes=n)
    lt = discrete_eigenvalue(grid, n_mode) / cfg.material.rho_cv
    poly = characteristic_polys(cfg.model, [lt])[0]
    T = modal_solution(solve_poly(poly), [1.0] + [0.0] * (len(poly) - 2))
    amps = np.asarray(T(times))
    oracle = amps[:, None] * shape[None, :]
    # one array besides the oracle: the snapshots, minus the oracle in place
    diff -= oracle
    l2_rel = float(np.linalg.norm(diff) / np.linalg.norm(oracle))
    # the oracle's largest |a_i s_j|: rounding is monotone, and shape has no 0
    scale = np.abs(amps).max() * np.abs(shape).max()
    return ModalComparison(linf_rel=float(np.abs(diff, out=diff).max() / scale), l2_rel=l2_rel)


# --- analytic steady plug profile ------------------------------------------

def steady_gk_profile(kappa: float, lambda2: float, G: float, L: float, x: np.ndarray) -> np.ndarray:
    """Steady flux q(x) of 3*lambda2*q'' - q = kappa*G with q(0) = q(L) = 0:
    a boundary-layer (plug) profile approaching -kappa*G in the bulk."""
    if lambda2 <= 0:
        raise InvalidInputError("lambda2 must be positive")
    s = np.sqrt(3.0 * lambda2)
    return -kappa * G * (1.0 - np.cosh((np.asarray(x, dtype=float) - L / 2.0) / s) / np.cosh(L / (2.0 * s)))


# perfbench's fine-grid gk op still builds its run through these two names;
# they go with the next change to the benchmark
def GKSimConfig(tau, kappa, lambda2, grid, dt, t_end, theta0=None) -> SimConfig:
    gk = GKLinear(tau, np.sqrt(lambda2 / kappa), CoefficientFn(kappa))
    return SimConfig(gk, MaterialConstants(1.0, 1.0), grid, dt, t_end, theta0=theta0)


simulate_coupled_gk = simulate
