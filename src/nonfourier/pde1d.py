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

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .energetics import Form, SingularParameterError, nonlocal_coefficients
from .modal import characteristic_poly, modal_solution
from .models import CoefficientFn, GKLinear, MaterialConstants, ModelParams, RateLaw, temperature_law
from .tensors import InvalidInputError, solve_poly

# scipy is imported where operators are built and factored, so the
# subcommands that never simulate do not load it
if TYPE_CHECKING:
    import scipy.sparse as sp


class ConfigurationError(ValueError):
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
        if self.L <= 0:
            raise InvalidInputError("domain length must be positive")
        if self.N < 8:
            raise InvalidInputError("need at least 8 interior points")

    @property
    def dx(self) -> float:
        return self.L / (self.N + 1)

    def interior_x(self) -> np.ndarray:
        return self.dx * np.arange(1, self.N + 1)


@dataclass(frozen=True)
class Field1D:
    x: np.ndarray
    values: np.ndarray


@dataclass
class SpaceOperators:
    """Discrete Laplacian / gradient with boundary closures baked in.

    For Dirichlet data the unknowns are the N interior nodes and the fixed
    boundary values enter through the affine parts lap_b / d1_b. For Neumann
    data the unknowns include both boundary nodes; the flux condition is
    eliminated with a mirrored ghost node, which keeps the trapezoid-weighted
    spatial mean exactly conserved by the flux-free heat equation.
    """

    n: int
    x: np.ndarray
    lap: sp.csr_matrix
    lap_b: np.ndarray
    d1: sp.csr_matrix
    d1_b: np.ndarray
    weights: np.ndarray


def _pair(value: Union[float, Tuple[float, float]]) -> Tuple[float, float]:
    if np.isscalar(value):
        return float(value), float(value)
    left, right = value
    return float(left), float(right)


def space_operators(
    grid: Grid1D, bc_kind: str, bc_value: Union[float, Tuple[float, float]] = 0.0
) -> SpaceOperators:
    import scipy.sparse as sp

    dx = grid.dx
    left, right = _pair(bc_value)
    if bc_kind == "dirichlet":
        n = grid.N
        x = grid.interior_x()
        lap = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)).tocsr() / dx**2
        lap_b = np.zeros(n)
        lap_b[0] = left / dx**2
        lap_b[-1] = right / dx**2
        d1 = sp.diags([-1.0, 1.0], [-1, 1], shape=(n, n)).tocsr() / (2 * dx)
        d1_b = np.zeros(n)
        d1_b[0] = -left / (2 * dx)
        d1_b[-1] = right / (2 * dx)
        weights = np.full(n, dx)
    elif bc_kind == "neumann":
        n = grid.N + 2
        x = dx * np.arange(0, n)
        lap = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)).tolil()
        lap[0, 1] = 2.0
        lap[n - 1, n - 2] = 2.0
        lap = lap.tocsr() / dx**2
        lap_b = np.zeros(n)
        lap_b[0] = -2.0 * left / dx
        lap_b[-1] = 2.0 * right / dx
        d1 = sp.diags([-1.0, 1.0], [-1, 1], shape=(n, n)).tolil()
        d1[0, 1] = 0.0
        d1[n - 1, n - 2] = 0.0
        d1 = d1.tocsr() / (2 * dx)
        d1_b = np.zeros(n)
        d1_b[0] = left
        d1_b[-1] = right
        weights = np.full(n, dx)
        weights[0] = weights[-1] = dx / 2
    else:
        raise ConfigurationError(f"unsupported boundary kind {bc_kind!r}")
    return SpaceOperators(n=n, x=x, lap=lap, lap_b=lap_b, d1=d1, d1_b=d1_b, weights=weights)


def spatial_mean(ops: SpaceOperators, values: np.ndarray) -> float:
    return float(ops.weights @ values) / float(ops.weights.sum())


# --- temperature equation from the rate-law row ------------------------------

def time_order(m: ModelParams) -> int:
    return temperature_law(m, ConfigurationError).order + 1


def assemble_rhs(
    m: ModelParams,
    material: MaterialConstants,
    ops: SpaceOperators,
) -> Tuple[sp.csr_matrix, np.ndarray, int]:
    """First-order system u_dot = M u + f over the stacked fields
    u_k = d^k theta / dt^k, k < order, derived from the rate-law row:

        a_top u_{order-1}' = (b0 lap u_0 + b1 lap u_1) / rho_c
                             - sum_{j < top} a_j u_{j+1}

    The boundary closure of the Laplacian only forces the theta block; the
    boundary data are constant in time, so the derivative fields carry
    homogeneous versions of the same condition.
    """
    import scipy.sparse as sp

    law = temperature_law(m, ConfigurationError)
    order = law.order + 1
    n = ops.n
    rc = material.rho_cv
    *lower, top = law.a
    if top == 0:
        raise ConfigurationError(law.limit)
    eye = sp.identity(n, format="csr")
    blocks = [[None] * order for _ in range(order)]
    for k in range(order - 1):
        blocks[k][k + 1] = eye
    last = blocks[-1]
    last[0] = law.b0 / rc / top * ops.lap
    for j, c in enumerate(lower):
        if c != 0:
            last[j + 1] = -c / top * eye
    if law.b1 is not None:
        b1_lap = law.b1 / rc / top * ops.lap
        last[1] = b1_lap if last[1] is None else b1_lap + last[1]
    f = np.zeros(order * n)
    f[-n:] = law.b0 / rc / top * ops.lap_b
    return sp.bmat(blocks).tocsr(), f, order


def _nilpotent_inverse(N: sp.csr_matrix) -> sp.csr_matrix:
    """(I - N)^-1 = I + N + N^2 + ... for a nilpotent N. Raises unless each
    power has fewer nonzero rows than the last until one vanishes, which
    holds whenever the nonzero pattern of N has no cycle."""
    import scipy.sparse as sp

    total = sp.identity(N.shape[0], format="csr")
    power, rows = N.copy(), N.shape[0] + 1
    power.eliminate_zeros()
    while power.nnz:
        live = int(np.count_nonzero(np.diff(power.indptr)))
        if live >= rows:
            raise ConfigurationError("eliminated block of the implicit matrix is not nilpotent")
        total, power, rows = total + power, power @ N, live
        power.eliminate_zeros()
    return total


# band storage above this many entries (128 MB) is refused, not allocated
_MAX_BAND_ENTRIES = 2**24


def _band_lu(S: sp.csr_matrix) -> Callable[[np.ndarray], np.ndarray]:
    """LAPACK band LU of S, its bandwidths read off its nonzeros; returns
    b -> S^-1 b, solved in b's own storage."""
    from scipy.linalg.lapack import dgbtrf, dgbtrs

    S = S.tocoo()
    S.eliminate_zeros()
    kl = int((S.row - S.col).max(initial=0))
    ku = int((S.col - S.row).max(initial=0))
    if (2 * kl + ku + 1) * S.shape[0] > _MAX_BAND_ENTRIES:
        raise ConfigurationError(f"implicit matrix too wide for band storage (bandwidths {kl}, {ku})")
    ab = np.zeros((2 * kl + ku + 1, S.shape[0]))
    ab[kl + ku + S.row - S.col, S.col] = S.data
    lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=1)
    if info > 0:
        raise ConfigurationError(f"singular implicit matrix: zero pivot {info}")

    def solve(b: np.ndarray) -> np.ndarray:
        return dgbtrs(lu, kl, ku, b, piv, overwrite_b=1)[0]

    return solve


def trapezoid_stepper(
    M: sp.csr_matrix, f: np.ndarray, dt: float, keep: Optional[int] = None
) -> Callable[[np.ndarray], np.ndarray]:
    """One fixed-step trapezoidal update u -> u' of u_dot = M u + f, that is
    (I - hM) u' = (I + hM) u + dt f with h = dt/2, prepared once.

    The system is Schur-reduced onto its last `keep` unknowns (all of them
    by default). The eliminated block of M must be nilpotent (the companion
    shifts of a temperature equation, or zero), so (I - hM11)^-1 is a finite
    sum; the banded complement is LU-factored once. A step is two calls of
    scipy's CSR matvec kernel (the reduced right-hand side with the
    eliminated unknowns, then the back-substitution) and one band solve
    (`dgbtrs`), with no sparse-matrix dispatch.
    """
    import scipy.sparse as sp
    from scipy.sparse._sparsetools import csr_matvec

    n = M.shape[0]
    n1 = n - (n if keep is None else keep)
    if not 0 <= n1 < n:
        raise ConfigurationError(f"cannot keep {keep} of {n} unknowns")
    hM = (dt / 2.0 * sp.csr_matrix(M)).tocsr()
    eye = sp.identity(n, format="csr")
    E = _nilpotent_inverse(hM[:n1, :n1])
    hM12, A21E = hM[:n1, n1:], -hM[n1:, :n1] @ E
    solve = _band_lu(eye[n1:, n1:] - hM[n1:, n1:] + A21E @ hM12)
    # rows: E r1 for the eliminated unknowns, r2 - A21 E r1 for the kept ones
    reduce = sp.bmat([[E, None], [-A21E, eye[n1:, n1:]]], format="csr")
    rhs_mat = (reduce @ (eye + hM)).tocsr()
    rhs_f = reduce @ (dt * np.asarray(f, dtype=float))
    back = (E @ hM12).tocsr()
    rp, ri, rd = rhs_mat.indptr, rhs_mat.indices, rhs_mat.data
    bp, bi, bd = back.indptr, back.indices, back.data

    # each product sums into zeros, as `rhs_mat @ u + rhs_f` and
    # `r[:n1] += back @ r[n1:]` do, so the rounding is theirs
    def step(u: np.ndarray) -> np.ndarray:
        r = np.zeros(n)
        csr_matvec(n, n, rp, ri, rd, u, r)
        r += rhs_f
        r[n1:] = solve(r[n1:])
        if n1:
            t = np.zeros(n1)
            csr_matvec(n1, n - n1, bp, bi, bd, r[n1:], t)
            r[:n1] += t
        return r

    return step


# --- heat-flux auxiliary field -----------------------------------------------

def _drive(law: RateLaw, tx: np.ndarray, tdx: np.ndarray) -> np.ndarray:
    """-(b0 theta_x + b1 theta_dot_x) / a_top: the flux itself for an
    algebraic law, else the forcing of its highest flux derivative."""
    if law.b1 is None:
        return -(law.b0 * tx) / law.a[-1]
    return -(law.b0 * tx + law.b1 * tdx) / law.a[-1]


# --- per-node entropy audit -------------------------------------------------

def _combine(terms):
    """Sum of c * v over the (c, v) pairs, not multiplying out unit c."""
    out = None
    for c, v in terms:
        t = v if c == 1 else c * v
        out = t if out is None else out + t
    return out


def _squares(form: Optional[Form]) -> List[Tuple[float, List[Tuple[float, int]]]]:
    """The form's x-directed reduction (each 3x3 block's xx entry) as a sum
    of d (sum_b l_b x_b)^2 over the pivots of a symmetric elimination,
    largest diagonal first; b indexes (q, q_dot, theta_x). Unlike a sum over
    the entries, squares keep the sign of a semidefinite form and do not
    square a cancellation in l.x (as in tau q_dot + kappa theta_x -> 0).
    What elimination leaves within 16 ulps of the largest entry is rounding
    and is cleared, so a form of rank r gives r squares."""
    if form is None:
        return []
    f = form.amplitudes()
    tol = 16 * np.finfo(float).eps * np.abs(f).max()
    squares = []
    while np.any(f):
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

    def audit(ta, tx, tdx, drive, y):
        x = (y[..., 0], y[..., -1], tx)  # q, q_dot where the law has it, theta_x
        quad = _combine((d, _combine((c, x[b]) for c, b in terms) ** 2) for d, terms in S)
        if quad is None:  # no entropy production, as in GN3 with kappa = 0
            quad = np.zeros_like(ta)
        total = x[0] * tx + quad
        if P:
            # y_j' = y_{j+1}; the top rate comes from the law
            top = _combine([(1, drive)] + [(c, y[..., j]) for c, j in lower])
            rate = (y[..., 1], top, tdx) if law.order == 2 else (top, None, tdx)
            for d, terms in P:
                total += d * _combine((c, rate[b]) for c, b in terms) * _combine((c, x[b]) for c, b in terms)
        return quad / (ta * ta), total / ta

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
    theta_ddot0: Union[np.ndarray, Callable, float, None] = None
    q0: Union[np.ndarray, Callable, float, None] = None
    theta_ref: Optional[float] = None
    snapshot_every: Optional[int] = None
    imposed_gradient: Optional[float] = None

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ConfigurationError("dt and t_end must be positive")
        if self.theta_ref is None:
            self.theta_ref = 1.0 if isinstance(self.model, GKLinear) else 300.0
        if not (np.isfinite(self.theta_ref) and self.theta_ref > 0):
            raise ConfigurationError(f"key 'sim.theta_ref': need a finite theta_ref > 0, got {self.theta_ref:g}")


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

    def final_theta(self) -> np.ndarray:
        return self.thetas[-1]

    def final_q(self) -> np.ndarray:
        return self.fluxes[-1]

    def max_amplitude(self) -> float:
        return float(self.audit["max_amp"].max())


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


def _rows(op: sp.csr_matrix, block: np.ndarray) -> np.ndarray:
    """op applied to every row of a (steps, nodes) block."""
    return (op @ block.T).T


# a block of steps holds about this many floats (256 kB), so it stays in cache
_BLOCK_FLOATS = 2**15


def _march(
    x: np.ndarray,
    cfg: SimConfig,
    u: np.ndarray,
    step: Callable[[np.ndarray], np.ndarray],
    observe: Callable[[np.ndarray], Tuple[Tuple, np.ndarray, np.ndarray]],
    first: Tuple[np.ndarray, np.ndarray],
    columns: Tuple[str, ...],
    nodes: Optional[int] = None,
    every: Optional[int] = None,
) -> Trajectory:
    """The fixed-step loop of every 1-D run. Only u = step(u) and its
    divergence check run per step; the rest runs once per block of B steps
    on the block's states, the rows of U (steps, u.size), with B * u.size
    about _BLOCK_FLOATS (B = 1 on fine grids). When u starts with the
    `nodes` values of the theta deviation, the absolute temperature
    theta_ref + theta must stay positive. observe(U) returns the block's
    audit columns after t (arrays over its steps, or one value for all of
    them) and its (theta, flux) rows. A block's states before its first
    non-finite or non-positive one are observed, with overflow silenced,
    before anything is raised, so the error names the earliest bad step
    whatever B is: a non-finite audit value (a state past about 1e154
    squares to inf), then 0 K, then a non-finite state. `first` is the
    (theta, flux) snapshot at t = 0; the others are taken every `every`
    steps (about 200 snapshots by default) and at the last step."""
    nsteps = max(1, int(round(cfg.t_end / cfg.dt)))
    every = every or max(1, nsteps // 200)
    block = max(1, min(nsteps, _BLOCK_FLOATS // u.size))
    audit = {key: np.empty(nsteps) for key in ("t",) + columns}
    audit["t"][:] = np.arange(1, nsteps + 1) * cfg.dt
    kept, thetas, fluxes = [0], [first[0]], [first[1]]
    for i0 in range(0, nsteps, block):
        end = min(i0 + block, nsteps)
        rows = []
        for _ in range(i0, end):
            u = step(u)
            if not np.isfinite(u).all():
                break
            rows.append(u)
        b = len(rows)
        error = None if i0 + b == end else DivergenceError(i0 + b + 1, (i0 + b + 1) * cfg.dt)
        if b:
            U = np.stack(rows) if b > 1 else rows[0][None]  # no copy for one step
            if nodes:
                # theta_ref + theta <= 0 somewhere, in one pass
                bad = np.flatnonzero(U[:, :nodes].min(1) <= -cfg.theta_ref)
                if bad.size:
                    b = int(bad[0])
                    error, U = PositivityError(i0 + b + 1, (i0 + b + 1) * cfg.dt), U[:b]
        if b:
            with np.errstate(over="ignore", invalid="ignore"):
                values, theta, flux = observe(U)
            finite = np.ones(b, dtype=bool)
            for value in values:
                finite &= np.isfinite(value)
            bad = np.flatnonzero(~finite)
            if bad.size:
                i = i0 + int(bad[0]) + 1
                raise DivergenceError(i, i * cfg.dt, "audit")
        if error is not None:
            raise error
        for col, value in zip(columns, values):
            audit[col][i0 : i0 + b] = value
        keep = [r for r in range(b) if (i0 + r + 1) % every == 0 or i0 + r + 1 == nsteps]
        if keep:
            kept.extend(i0 + r + 1 for r in keep)
            thetas.extend(theta[keep])
            fluxes.extend(flux[keep])
    return Trajectory(x, np.array(kept) * cfg.dt, thetas, fluxes, audit, cfg.theta_ref)


def _local_system(cfg: SimConfig) -> Trajectory:
    """The temperature equation of a local kind over (theta, theta_dot[,
    theta_ddot]), with the per-node flux ODE and entropy audit: per step the
    extremes of sigma, the dissipation residual, the absolute-temperature
    minimum and the field amplitude."""
    if cfg.imposed_gradient is not None:
        raise ConfigurationError("key 'gk.imposed_gradient': only a gk kind takes an imposed gradient")
    ops = space_operators(cfg.grid, cfg.bc_kind, cfg.bc_value)
    M, f, order = assemble_rhs(cfg.model, cfg.material, ops)
    n = ops.n
    x = ops.x
    step = trapezoid_stepper(M, f, cfg.dt, keep=n)

    u = np.zeros(order * n)
    u[:n] = _init_field(cfg.theta0, x)
    if order >= 2:
        u[n : 2 * n] = _init_field(cfg.theta_dot0, x)
    if order >= 3:
        u[2 * n :] = _init_field(cfg.theta_ddot0, x)

    law = temperature_law(cfg.model, ConfigurationError)
    audit_fn = _entropy_audit(cfg.model, law)

    def grads(U):
        tx = _rows(ops.d1, U[:, :n]) + ops.d1_b
        tdx = _rows(ops.d1, U[:, n : 2 * n]) if order >= 2 else np.zeros_like(tx)
        return tx, tdx, _drive(law, tx, tdx)

    # pointwise flux ODE y_dot = A y + (0, ..., drive) over the per-node flux
    # state y = (q,) for the first-flux-rate laws, (q, q_dot) for the second;
    # an algebraic law's flux is its drive, y = (drive,)
    k = law.order
    drive = grads(u[None])[2][0]
    if k:
        A = np.eye(k, k, 1)
        A[-1] -= np.divide(law.a[:-1], law.a[-1])
        y = np.zeros((n, k))
        y[:, 0] = _init_field(cfg.q0, x)
        forc = np.zeros((n, k))
        lhs_inv = np.linalg.inv(np.eye(k) - cfg.dt / 2.0 * A)
        rhs_a = np.eye(k) + cfg.dt / 2.0 * A
    else:
        y = drive[:, None]

    def observe(U):
        nonlocal y, drive
        tx, tdx, drives = grads(U)
        if k:
            # the trapezoid forcing of each step, then the sequential recurrence
            half = np.empty_like(drives)
            np.add(drive, drives[0], out=half[0])
            np.add(drives[:-1], drives[1:], out=half[1:])
            half *= cfg.dt / 2.0
            ys = np.empty(half.shape + (k,))
            for j, h in enumerate(half):
                forc[:, -1] = h
                y = np.matmul(y @ rhs_a.T + forc, lhs_inv.T, out=ys[j])
        else:
            ys = drives[..., None]
        drive = drives[-1]
        theta = U[:, :n]
        ta = cfg.theta_ref + theta
        sig, res = audit_fn(ta, tx, tdx, drives, ys)
        values = sig.min(1), sig.max(1), np.abs(res).max(1), ta.min(1), np.abs(theta).max(1)
        return values, theta, ys[..., 0]

    columns = ("min_sigma", "max_sigma", "max_residual", "theta_min", "max_amp")
    return _march(x, cfg, u, step, observe, (u[:n].copy(), y[:, 0].copy()), columns, n, cfg.snapshot_every)


def _nonlocal_system(cfg: SimConfig) -> Trajectory:
    """The energy balance coupled to the nonlocal flux law, q = 0 at both
    walls, from the model's coefficient set at theta_ref: kappa = vk /
    theta_ref^2 and lambda2 = ell2 vk. With an imposed gradient only the
    flux is stepped.

    Audits, per step: the internal entropy supply zeta (nonnegative by
    construction for the derived coefficients), the boundary no-flow of the
    extra entropy flux k, its largest value, and the dissipation residual
    evaluated at theta_ref (the linearization point of the constant
    coefficients).
    """
    import scipy.sparse as sp

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
    tau, kappa, lambda2 = gk.tau, gk.vk / cfg.theta_ref**2, gk.ell2 * gk.vk
    grid = cfg.grid
    # q lives on the interior nodes with q = 0 at both walls: the
    # homogeneous Dirichlet parts of the theta operators
    ops = space_operators(grid, "dirichlet", cfg.bc_value)
    n, x = ops.n, ops.x
    gk_rhs = (-sp.identity(n) + 3.0 * lambda2 * ops.lap) / tau if tau > 0 else None

    def audit(q: np.ndarray, theta_x: np.ndarray) -> Tuple[np.ndarray, ...]:
        # the x-directed fields: |grad q|^2 = (div q)^2 = q_x^2, (grad q)q =
        # (div q)q = q q_x and nonlocal_q = lap q + 2 grad div q = 3 q_xx
        qx, nl = _rows(ops.d1, q), 3.0 * _rows(ops.lap, q)
        qq, qx2, qqx = q * q, qx * qx, q * qx
        zeta = gk.zeta(qq, qx2, qx2)
        div_k = gk.div_k(qx2, qx2, q * nl, None, None)
        # tau q_dot from the rate law, and d(rho psi)/dq / theta = tau q / varkappa
        tau_qdot = -q - kappa * theta_x + lambda2 * nl if tau > 0 else 0.0
        residual = q * (tau_qdot / gk.vk + theta_x / cfg.theta_ref**2) + div_k + zeta
        # k vanishes with q at the walls, so k_boundary is 0 by construction
        return zeta.min(1), 0.0, np.abs(gk.k(q, qqx, qqx, qq)).max(1), np.abs(residual).max(1)

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
            solve = trapezoid_stepper(3.0 * lambda2 * ops.lap, np.full(n, -kappa * G / 2.0), 2.0)
            steady = solve(np.zeros(n))
            step = lambda q: steady
            observe = lambda Q: (audit(Q[:1], theta_x), np.broadcast_to(theta, Q.shape), Q)
        else:
            step = trapezoid_stepper(gk_rhs, np.full(n, -kappa * G / tau), cfg.dt)
            observe = lambda Q: (audit(Q, theta_x), np.broadcast_to(theta, Q.shape), Q)
        return _march(x, cfg, q0, step, observe, (theta.copy(), q0.copy()), columns, None, cfg.snapshot_every)

    # fully coupled: u = (theta deviation, q)
    M = sp.bmat([[sp.csr_matrix((n, n)), -ops.d1 / cfg.material.rho_cv], [-kappa / tau * ops.d1, gk_rhs]]).tocsr()
    f = np.zeros(2 * n)
    f[n:] = -kappa / tau * ops.d1_b

    def observe(U):
        theta, q = U[:, :n], U[:, n:]
        return audit(q, _rows(ops.d1, theta) + ops.d1_b), theta, q

    u = np.concatenate([_init_field(cfg.theta0, x), q0])
    step = trapezoid_stepper(M, f, cfg.dt, keep=n)
    return _march(x, cfg, u, step, observe, (u[:n].copy(), u[n:].copy()), columns, n, cfg.snapshot_every)


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
    n_mode: int
    linf_rel: float
    l2_rel: float


def compare_modal_vs_pde(cfg: SimConfig, n_mode: int) -> ModalComparison:
    """Run the PDE with single-sine initial data and compare against the
    separated ODE solution built on the discrete Laplacian eigenvalue.

    With the matching eigenvalue the two solutions differ only through the
    time discretization, so agreement is limited by O(dt^2).
    """
    if cfg.bc_kind != "dirichlet":
        raise ConfigurationError("modal comparison is Dirichlet-only")
    grid = cfg.grid
    shape = np.sin(n_mode * np.pi * grid.interior_x() / grid.L)
    traj = simulate(replace(
        cfg, bc_value=0.0, theta0=shape.copy(), theta_dot0=None, theta_ddot0=None, q0=None
    ))
    lt = discrete_eigenvalue(grid, n_mode) / cfg.material.rho_cv
    poly = characteristic_poly(cfg.model, lt)
    roots = solve_poly(poly)
    init = [1.0] + [0.0] * (poly.degree - 1)
    T = modal_solution(roots, init)
    amps = T(traj.times)
    oracle = np.asarray(amps)[:, None] * shape[None, :]
    fields = np.array(traj.thetas)
    scale = np.abs(oracle).max()
    diff = fields - oracle
    return ModalComparison(
        n_mode=n_mode,
        linf_rel=float(np.abs(diff).max() / scale),
        l2_rel=float(np.linalg.norm(diff) / np.linalg.norm(oracle)),
    )


# --- analytic steady plug profile ------------------------------------------

def steady_gk_profile(
    kappa: float, lambda2: float, G: float, L: float, x: np.ndarray
) -> Field1D:
    """Steady flux of 3*lambda2*q'' - q = kappa*G with q(0) = q(L) = 0: a
    boundary-layer (plug) profile approaching -kappa*G in the bulk."""
    if lambda2 <= 0:
        raise InvalidInputError("lambda2 must be positive")
    s = np.sqrt(3.0 * lambda2)
    x = np.asarray(x, dtype=float)
    q = -kappa * G * (1.0 - np.cosh((x - L / 2.0) / s) / np.cosh(L / (2.0 * s)))
    return Field1D(x=x, values=q)


# perfbench's fine-grid gk op still builds its run through these two names;
# they go with the next change to the benchmark
def GKSimConfig(tau, kappa, lambda2, grid, dt, t_end, theta0=None) -> SimConfig:
    gk = GKLinear(tau, np.sqrt(lambda2 / kappa), CoefficientFn.constant(kappa))
    return SimConfig(gk, MaterialConstants(1.0, 1.0), grid, dt, t_end, theta0=theta0)


simulate_coupled_gk = simulate
