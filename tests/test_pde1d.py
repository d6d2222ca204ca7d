import ast
import operator
import time
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.linalg.blas as blas
import scipy.linalg.lapack as lapack
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs

from nonfourier import pde1d
from nonfourier.energetics import (
    Form,
    SingularParameterError,
    _iso,
    dissipation_terms,
    entropy_production,
    extra_entropy_flux,
)
from nonfourier.models import (
    MCV,
    GN2,
    GN3,
    Burgers,
    CoefficientFn,
    Fourier,
    GKLinear,
    GKNonlinear,
    Jeffreys,
    MaterialConstants,
    Quintanilla,
    ThermalState,
    flux_rate,
)
from nonfourier.pde1d import (
    ConfigurationError,
    DivergenceError,
    Grid1D,
    ModalComparison,
    PositivityError,
    SimConfig,
    assemble_rhs,
    compare_modal_vs_pde,
    discrete_eigenvalue,
    simulate,
    space_operators,
    steady_gk_profile,
    trapezoid_stepper,
)
from nonfourier.modal import InvalidKindError, characteristic_polys, modal_solution
from nonfourier.tensors import InvalidInputError, solve_poly

MAT = MaterialConstants(rho=1.0, cv=1.0)


def _csr_of(band):
    """scipy's CSR form of a band (offset -> diagonal by row): the
    diagonals inside the block, zeros not stored."""
    n, ks = len(next(iter(band.values()))), sorted(band)
    return sp.diags([band[k][max(0, -k) : n - max(0, k)] for k in ks], ks, shape=(n, n)).tocsr()


def _sparse(M):
    """scipy's CSR form of a grid of bands, as sp.bmat stacks it."""
    return sp.bmat([[None if b is None else _csr_of(b) for b in row] for row in M]).tocsr()


def _blocks(S, nb=None):
    """The grid of nb x nb blocks (one block by default) of a scipy matrix,
    each block's stored diagonals as a band, or None for an empty block."""
    S = sp.csr_matrix(S)
    nb = nb or S.shape[0]
    grid = []
    for i in range(0, S.shape[0], nb):
        grid.append([])
        for j in range(0, S.shape[0], nb):
            block = S[i : i + nb, j : j + nb].tocoo()
            band = {}
            for k in sorted(set((block.col - block.row).tolist())):
                band[k] = np.zeros(nb)
                band[k][max(0, -k) : nb - max(0, k)] = block.diagonal(k)
            grid[-1].append(band or None)
    return grid


def _order(model):
    return assemble_rhs(model, MAT, space_operators(Grid1D(L=1.0, N=9), "dirichlet"))[2]


def _gk(tau, ell2=1e-3, varkappa=1.0, **setup):
    """A gk run with ell^2 = ell2 and constant varkappa, at theta_ref = 1
    unless the setup names another; at theta_ref = 1, kappa = varkappa and
    lambda2 = ell2 varkappa up to the last bit of ell2."""
    model = GKLinear(tau=tau, ell=np.sqrt(ell2), varkappa=CoefficientFn(varkappa))
    return SimConfig(model=model, material=MAT, **{"theta_ref": 1.0, **setup})


def test_grid_geometry():
    g = Grid1D(L=1.0, N=9)
    assert g.dx == pytest.approx(0.1)
    np.testing.assert_allclose(g.interior_x(), 0.1 * np.arange(1, 10))
    with pytest.raises(InvalidInputError):
        Grid1D(L=1.0, N=4)
    with pytest.raises(InvalidInputError):
        Grid1D(L=0.0, N=10)


def test_time_order_per_model():
    assert _order(Fourier(kappa=1.0)) == 1
    assert _order(MCV(tau=1.0, kappa=1.0)) == 2
    assert _order(Jeffreys(tau=1.0, xi=1.0, kappa=1.0)) == 2
    assert _order(GN3(xi=1.0, kappa=1.0)) == 2
    assert _order(Quintanilla(tau=1.0, xi=1.0, kappa=2.0)) == 3
    assert _order(Burgers(lambda_b=1.0, tau=1.0, mu=1.0, nu=1.0)) == 3


def test_dirichlet_laplacian_stencil():
    ops = space_operators(Grid1D(L=1.0, N=9), "dirichlet", 0.0)
    row = _csr_of(ops.lap).toarray()[4]
    dx2 = 0.1**2
    np.testing.assert_allclose(row[3:6], [1.0 / dx2, -2.0 / dx2, 1.0 / dx2])
    assert ops.n == 9


def test_dirichlet_boundary_forcing():
    ops = space_operators(Grid1D(L=1.0, N=9), "dirichlet", (2.0, 3.0))
    dx2 = 0.1**2
    assert ops.lap_b[0] == pytest.approx(2.0 / dx2)
    assert ops.lap_b[-1] == pytest.approx(3.0 / dx2)
    assert np.all(ops.lap_b[1:-1] == 0.0)


def test_neumann_operators_include_boundaries():
    ops = space_operators(Grid1D(L=1.0, N=9), "neumann", 0.0)
    assert ops.n == 11
    # mirrored ghost: lap row 0 is (-2, 2)/dx^2
    row = _csr_of(ops.lap).toarray()[0]
    np.testing.assert_allclose(row[:2], [-200.0, 200.0])


def test_unknown_bc_kind_rejected():
    with pytest.raises(ConfigurationError):
        space_operators(Grid1D(L=1.0, N=9), "robin", 0.0)


def test_spatial_mean_weighting():
    """The Neumann nodes run from wall to wall at spacing dx, the nodes of
    the trapezoid-weighted mean (dx, halved at the two walls) that flux-free
    walls conserve."""
    ops = space_operators(Grid1D(L=1.0, N=9), "neumann", 0.0)
    np.testing.assert_allclose(ops.x, np.linspace(0.0, 1.0, 11), rtol=0, atol=1e-15)


def _lil_operators(grid):
    """The Neumann lap and d1 as first written: the Dirichlet stencils with
    the ghost-node corrections set entry by entry in LIL form."""
    n, dx = grid.N + 2, grid.dx
    lap = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)).tolil()
    lap[0, 1] = 2.0
    lap[n - 1, n - 2] = 2.0
    d1 = sp.diags([-1.0, 1.0], [-1, 1], shape=(n, n)).tolil()
    d1[0, 1] = 0.0
    d1[n - 1, n - 2] = 0.0
    return lap.tocsr() / dx**2, d1.tocsr() / (2 * dx)


@pytest.mark.parametrize("N", [8, 2000])
def test_neumann_operators_equal_the_lil_construction(N):
    """Each diagonal of the bands has the bytes of the LIL matrix's, 0 where
    the LIL form stores nothing, and their CSR form is the LIL one's."""
    grid = Grid1D(L=np.pi, N=N)
    ops = space_operators(grid, "neumann", (0.3, -0.2))
    for band, want in zip((ops.lap, ops.d1), _lil_operators(grid)):
        for k in (-1, 0, 1):
            d = band.get(k, np.zeros(ops.n))
            inside = slice(max(0, -k), ops.n - max(0, k))
            assert d[inside].tobytes() == want.diagonal(k).tobytes()
            assert np.count_nonzero(d) == np.count_nonzero(d[inside])
        got = _csr_of(band)
        assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()


def _hex(a):
    return [float(v).hex() for v in np.ravel(a)]


def _signed_zero_block(rng, b, n):
    """(b, n) values around 1 with runs of +-0.0 and subnormals, so that
    some stencil products are -0.0 and some underflow."""
    V = rng.standard_normal((b, n))
    V[:, 1::7] = 0.0
    V[:, 2::7] = -0.0
    V[:, 3::7] = -0.0
    V[:, 4::7] = 5e-324
    V[:, 5::7] = -2.5e-310
    return V


@pytest.mark.parametrize("bc_kind", ["dirichlet", "neumann"])
@pytest.mark.parametrize("b", [1, 5])
def test_stencil_rows_are_bitwise_the_csr_product(bc_kind, b):
    """The observer's slice gradients equal (op @ block.T).T, scipy's CSR
    kernel, float for float: -0.0 sums, subnormal products and the empty
    Neumann wall rows of d1 included."""
    rng = np.random.default_rng(7)
    ops = space_operators(Grid1D(L=np.pi, N=40), bc_kind, (0.3, -0.2))
    for V in (_signed_zero_block(rng, b, ops.n), np.full((b, ops.n), -0.0), 1e-310 * rng.standard_normal((b, ops.n))):
        for op in (ops.d1, ops.lap):
            out, tmp = np.full((b, ops.n), np.nan), np.full((b, ops.n), np.nan)
            got = pde1d._stencil_rows(op)(V, out, tmp)
            assert got is out
            assert _hex(got) == _hex((_csr_of(op) @ V.T).T)


SPECIAL = np.array([0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1e300])


def _flux_product(v, a):
    """A first-flux-rate law's per-step product in the flux recurrence,
    (nodes, 1) @ (1, 1) as matmul forms it: each product summed into +0."""
    return np.multiply(v, a) + 0.0


@pytest.mark.parametrize("factor", SPECIAL)
def test_first_flux_rate_product_is_bitwise_the_matmul(factor):
    """The flux recurrence's (nodes, 1) @ (1, 1) product, taken as multiply
    then + 0.0 (the per-step reference of the recurrence test below), has
    matmul's bytes: never -0.0, and the same inf, nan and underflow, for
    every factor. The observer runs with overflow and invalid values
    silenced, as here."""
    v = np.concatenate([SPECIAL, np.random.default_rng(3).standard_normal(20)])
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _flux_product(v, factor), np.matmul(v[:, None], np.array([[factor]]))[:, 0]
    assert got.tobytes() == want.tobytes()


def test_trapezoid_scalar_decay_example():
    """One step of u' = -u with dt = 0.1 gives u (1 - 0.05)/(1 + 0.05)."""
    step = trapezoid_stepper([[{0: np.array([-1.0])}]], np.zeros(1), 0.1)
    u = step(np.array([2.0]), np.zeros(1))
    assert u[0] == pytest.approx(2.0 * 0.95 / 1.05)


def test_trapezoid_zero_matrix_is_identity_plus_forcing():
    M = [[None]]
    f = np.array([1.0, 2.0, 3.0])
    step = trapezoid_stepper(M, f, 0.5)
    np.testing.assert_allclose(step(np.zeros(3), np.zeros(3)), 0.5 * f)


def test_trapezoid_is_second_order_in_dt():
    """Scalar oscillator u'' = -u over one period: the error drops by ~4x per
    halving of dt."""
    M = _blocks(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    t_end = 6.4  # an exact multiple of every dt below
    errs = []
    for dt in (0.02, 0.01, 0.005):
        step = trapezoid_stepper(M, np.zeros(2), dt)
        u = np.array([1.0, 0.0])
        for _ in range(int(round(t_end / dt))):
            u = step(u, np.zeros(2))
        errs.append(abs(u[0] - np.cos(t_end)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def _splu_stepper(M, f, dt, keep=None):
    """Oracle: the unreduced trapezoid step (I - dt/2 M) u' = (I + dt/2 M) u
    + dt f through SuperLU on the whole system, M in scipy's form, as a
    stepper: step(u, out) writes u' into out and returns it; `keep` is
    ignored."""
    M = _sparse(M)
    eye = sp.identity(M.shape[0], format="csc")
    lu = spla.splu((eye - dt / 2.0 * M).tocsc())
    rhs = (eye + dt / 2.0 * M).tocsr()

    def step(u, out):
        out[:] = lu.solve(rhs @ u + dt * f)
        return out

    return step


def _assert_close(got, want, blocks=1, rtol=1e-12):
    """Relative to each block's largest oracle magnitude."""
    for g, w in zip(np.split(np.asarray(got), blocks), np.split(np.asarray(want), blocks)):
        assert np.abs(g - w).max() <= rtol * np.abs(w).max()


TEMPERATURE_MODELS = [
    Fourier(kappa=2.0),
    GN2(K=1.5),
    MCV(tau=0.7, kappa=2.0),
    Jeffreys(tau=0.8, xi=2.0, kappa=0.5),
    GN3(xi=1.5, kappa=2.0),
    Quintanilla(tau=0.5, xi=1.0, kappa=2.0),
    Burgers(lambda_b=1.0, tau=2.0, mu=1.0, nu=1.0),
]


@pytest.mark.parametrize("N", [10, 200])
@pytest.mark.parametrize("bc_kind", ["dirichlet", "neumann"])
@pytest.mark.parametrize("model", TEMPERATURE_MODELS, ids=lambda m: type(m).__name__)
def test_banded_step_matches_superlu_oracle(model, bc_kind, N):
    """20 Schur-reduced banded steps, kept on the top derivative as simulate
    keeps them, against the whole-system SuperLU step, every field block."""
    ops = space_operators(Grid1D(L=1.0, N=N), bc_kind, (0.3, -0.2))
    M, f, order = assemble_rhs(model, MAT, ops)
    banded, oracle = trapezoid_stepper(M, f, 1e-3, keep=ops.n), _splu_stepper(M, f, 1e-3)
    u = v = np.random.default_rng(N).standard_normal(order * ops.n)
    for _ in range(20):
        u, v = banded(u, np.zeros_like(u)), oracle(v, np.zeros_like(v))
        _assert_close(u, v, order)


@pytest.mark.parametrize(
    "setup",
    [
        dict(tau=0.1, theta0=lambda x: 0.1 * np.sin(np.pi * x), bc_value=(0.05, -0.02)),
        dict(tau=0.05, imposed_gradient=1.0),
        dict(tau=0.0, imposed_gradient=1.0),
    ],
    ids=["coupled", "imposed_relaxing", "imposed_steady"],
)
def test_gk_banded_steps_match_superlu_oracle(monkeypatch, setup):
    cfg = _gk(grid=Grid1D(L=1.0, N=60), dt=1e-3, t_end=0.02, q0=lambda x: 0.3 * x * (1.0 - x), **setup)
    got = simulate(cfg)
    monkeypatch.setattr(pde1d, "trapezoid_stepper", _splu_stepper)
    want = simulate(cfg)
    assert len(got.qs) == len(want.qs) == 21
    for gq, wq, gt, wt in zip(got.qs[1:], want.qs[1:], got.thetas[1:], want.thetas[1:]):
        _assert_close(gq, wq)
        _assert_close(gt, wt)


def _nilpotent_inverse(N):
    """(I - N)^-1 = I + N + N^2 + ... for a nilpotent CSR N, summed with
    scipy's sparse products and sums: the series trapezoid_stepper sums in
    numpy, as its oracle."""
    total = sp.identity(N.shape[0], format="csr")
    power, rows = N.copy(), N.shape[0] + 1
    power.eliminate_zeros()
    while power.nnz:
        live = int(np.count_nonzero(np.diff(power.indptr)))
        assert live < rows
        total, power, rows = total + power, power @ N, live
        power.eliminate_zeros()
    return total


def _dispatch_stepper(M, f, dt, keep=None):
    """Oracle for trapezoid_stepper: the same Schur reduction and band LU
    built with scipy's sparse matrices from M's scipy form, and stepped
    through scipy's public sparse products and a copying dgbtrs as
    `rhs_mat @ u + rhs_f`, the band solve and `back @ r2`."""
    M = _sparse(M)
    n = M.shape[0]
    n1 = n - (n if keep is None else keep)
    hM = (dt / 2.0 * sp.csr_matrix(M)).tocsr()
    eye = sp.identity(n, format="csr")
    E = _nilpotent_inverse(hM[:n1, :n1])
    hM12, A21E = hM[:n1, n1:], -hM[n1:, :n1] @ E
    S = (eye[n1:, n1:] - hM[n1:, n1:] + A21E @ hM12).tocoo()
    S.eliminate_zeros()
    kl, ku = int((S.row - S.col).max(initial=0)), int((S.col - S.row).max(initial=0))
    ab = np.zeros((2 * kl + ku + 1, n - n1))
    ab[kl + ku + S.row - S.col, S.col] = S.data
    lu, piv, _ = dgbtrf(ab, kl, ku)
    reduce = sp.bmat([[E, None], [-A21E, eye[n1:, n1:]]], format="csr")
    rhs_mat = (reduce @ (eye + hM)).tocsr()
    rhs_f = reduce @ (dt * np.asarray(f, dtype=float))
    back = (E @ hM12).tocsr()

    def step(u):
        r = rhs_mat @ u + rhs_f
        r2 = dgbtrs(lu, kl, ku, r[n1:], piv)[0]
        return np.concatenate([r[:n1] + back @ r2, r2])

    return step


def _assert_bitwise_steps(monkeypatch, M, f, dt, keep, swapped, steps=500):
    """trapezoid_stepper and the dispatch oracle stay bitwise equal (dtype,
    shape and bytes, so a flipped sign of zero counts) for `steps` steps
    from a random state, from one of signed zeros and ones and from -0.0
    everywhere (a row whose products are all -0.0 sums to -0.0 unless it
    starts at +0.0; where no row has a negative coefficient, the band
    solve keeps that right-hand side of -0.0), each step written into the
    zeroed row of a two-row buffer that the state does not occupy, as the
    time loop writes them, and returned as that row; and a step's band
    solve replays every row swap that its `dgbtrf` made, one `dtbsv`
    window each on top of the two calls of a solve without one: at least
    one swap if `swapped`, none otherwise."""
    pivots, calls = [], []

    def factor(*args, **kwargs):
        out = dgbtrf(*args, **kwargs)
        pivots.append(int(np.count_nonzero(out[1] != np.arange(out[1].size))))
        return out

    monkeypatch.setattr(lapack, "dgbtrf", factor)
    monkeypatch.setattr(blas, "dtbsv", lambda *a, **k: calls.append(1) or dtbsv(*a, **k))
    kernel, oracle = trapezoid_stepper(M, f, dt, keep=keep), _dispatch_stepper(M, f, dt, keep=keep)
    assert len(pivots) == 1 and (pivots[0] > 0) == swapped
    rng, rows = np.random.default_rng(len(f)), np.empty((2, len(f)))
    for u in (rng.standard_normal(len(f)), rng.choice([0.0, -0.0, 1.0], len(f)), np.full(len(f), -0.0)):
        v = u
        for i in range(steps):
            out = rows[i % 2]
            out.fill(0.0)
            u, v = kernel(u, out), oracle(v)
            assert u is out
            assert (u.dtype, u.shape, u.tobytes()) == (v.dtype, v.shape, v.tobytes())
    assert len(calls) == 3 * steps * (2 + pivots[0])


def _random_csr(rng, rows, cols, like=None):
    """A random CSR matrix with sorted rows, about a fifth of them empty,
    whose values are mostly small powers of two (so products and sums
    cancel to exactly 0) and otherwise normal draws (so their rounding
    depends on the order of summation). With `like`, about half of the
    entries copy like's entry at the same place, or its negative, so a sum
    or difference with it cancels there."""
    draw = rng.random((rows, cols))
    dense = np.where(draw < 0.15, rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], (rows, cols)), 0.0)
    dense = np.where(draw > 0.9, rng.standard_normal((rows, cols)), dense)
    dense[rng.random(rows) < 0.2] = 0.0
    if like is not None:
        copy = (like != 0) & (rng.random((rows, cols)) < 0.5)
        dense[copy] = (like * rng.choice([-1.0, 1.0], (rows, cols)))[copy]
    return sp.csr_matrix(dense)


def _rows_of(S):
    """A CSR matrix as pde1d's row lists, in its stored order."""
    return [list(zip(S.indices[lo:hi].tolist(), S.data[lo:hi].tolist())) for lo, hi in zip(S.indptr, S.indptr[1:])]


def _stored(rows):
    """Each row's stored columns and value bytes, to compare with a
    scipy result's."""
    return [([k for k, _ in r], np.array([v for _, v in r]).tobytes()) for r in rows]


def test_row_algorithms_are_scipys_csr_algorithms():
    """_matmat, _add (plus and minus) and _matvec against scipy's
    `csr @ csr`, `+`, `-` and `@ vector` on 30 seeded random small
    matrices with sorted rows, empty rows and entries that cancel to
    exactly 0: the same stored columns in the same order, and the same
    value bytes. The draws reach what the oracle is for: products and sums
    that cancel, and product rows stored out of column order."""
    rng, cancelled, unsorted = np.random.default_rng(33), set(), 0
    for _ in range(30):
        n, k = rng.integers(5, 40, 2)
        A, B = _random_csr(rng, n, k), _random_csr(rng, k, n)
        C = _random_csr(rng, n, k, like=A.toarray())
        assert A.has_canonical_format and C.has_canonical_format
        rows = {name: _rows_of(S) for name, S in (("A", A), ("B", B), ("C", C))}
        x = rng.standard_normal(k)
        for name, got, want in (("@", pde1d._matmat(rows["A"], rows["B"]), A @ B),
                                ("+", pde1d._add(rows["A"], rows["C"]), A + C),
                                ("-", pde1d._add(rows["A"], rows["C"], operator.sub), A - C)):
            assert _stored(got) == _stored(_rows_of(want))
            if want.nnz < (abs(A) @ abs(B) if name == "@" else abs(A) + abs(C)).nnz:
                cancelled.add(name)
        assert np.array(pde1d._matvec(rows["A"], x.tolist())).tobytes() == (A @ x).tobytes()
        product = A @ B
        bounds = zip(product.indptr, product.indptr[1:])
        unsorted += any(np.any(np.diff(product.indices[lo:hi]) < 0) for lo, hi in bounds)
    assert cancelled == {"@", "+", "-"} and unsorted > 20


def _swapping_band(rng, n, kl, ku, swap_at):
    """A random dense band matrix with kl sub- and ku superdiagonals, whose diagonal dominates its column but
    at the columns `swap_at`, where it is small against the subdiagonal. A
    swapped row's superdiagonal is large unless the next column swaps too,
    so that it dominates the next column once it has moved down."""
    d = {k: rng.standard_normal(n) for k in range(-kl, ku + 1)}
    d[0] += np.where(rng.random(n) < 0.5, 10.0, -10.0)
    d[0][swap_at] *= 1e-3
    d[-1][np.add(swap_at, 1)] += 10.0
    d[1][[c for c in swap_at if c + 1 not in swap_at]] += 10.0
    A = sum(np.diag(v[max(0, -k) : n - max(0, k)], k) for k, v in d.items())
    return A


@pytest.mark.parametrize("kl", [1, 2, 3])
@pytest.mark.parametrize("ku", [1, 2, 3])
def test_band_solve_is_bitwise_dgbtrs(kl, ku):
    """_band_lu's solve, which replays dgbtrf's row swaps between unit-lower
    dtbsv windows, has dgbtrs's bits on random bands that swap at column 0,
    at n - 2, on adjacent columns and on many columns, for random right-hand
    sides and for ones of signed zeros and ones (where daxpy would skip the
    zero multiples that dgbtrs's dger adds). With kl >= 2 a window's last
    columns reach past its swap, which no simulated system does."""
    rng, n = np.random.default_rng(100 * kl + ku), 12
    for swap_at in ([0], [n - 2], [4, 5], [2, 3, 4], [1, 4, 7, 9], list(range(0, n - 1, 2)), [0, 1, 5, n - 2]):
        for _ in range(5):
            A = _swapping_band(rng, n, kl, ku, swap_at)
            ab = np.zeros((2 * kl + ku + 1, n))
            rows, cols = np.nonzero(A)
            ab[kl + ku + rows - cols, cols] = A[rows, cols]
            lu, piv, info = dgbtrf(ab, kl, ku)
            assert info == 0 and set(swap_at) <= set(np.flatnonzero(piv != np.arange(n)))
            solve = pde1d._band_lu(ab, kl, ku)
            for b in (rng.standard_normal(n), rng.choice([0.0, -0.0, 1.0], n), rng.choice([0.0, -0.0], n)):
                expected = dgbtrs(lu, kl, ku, b, piv)[0]
                assert solve(b.copy()).tobytes() == expected.tobytes()


QUINTANILLA = Quintanilla(tau=0.5, xi=1.0, kappa=2.0)
# the cases below whose Neumann wall row makes dgbtrf swap a row
PIVOTED = {("neumann", 200, "Jeffreys"), ("neumann", 200, "GN3")}


def _distinct_rows(order):
    """W of a temperature equation's set-up, kept on its top derivative:
    2 K (p1 + 1), with the stencils' largest offset K = 1 and p1 = order - 1
    eliminated blocks; the algebra runs on 2W + 1 rows of each block."""
    return 2 * order


def _grid(N):
    """Grid1D(L=1, N), or for N < 8, fewer interior points than a config
    may ask for, a stand-in with its N and dx (all space_operators reads)."""
    return Grid1D(L=1.0, N=N) if N >= 8 else SimpleNamespace(N=N, dx=1.0 / (N + 1))


# a block of 2W, 2W + 1 and 2W + 2 rows: at the edge of the distinct-row
# reduction (a block of at most 2W + 1 rows is its own), for a first-, a
# second- and a third-order kind under both walls
EDGE = [
    pytest.param(model, bc_kind, 2 * _distinct_rows(order) + extra - 2 * (bc_kind == "neumann"), 500, False,
                 id=f"{name}-{bc_kind}-rows{2 * _distinct_rows(order) + extra}")
    for name, model, order in (("Fourier", Fourier(kappa=2.0), 1), ("MCV", MCV(tau=0.7, kappa=2.0), 2),
                               ("Quintanilla", QUINTANILLA, 3))
    for bc_kind in ("dirichlet", "neumann") for extra in (0, 1, 2)
]


@pytest.mark.parametrize(
    "model, bc_kind, N, steps, swapped",
    [
        pytest.param(MCV(tau=0.7, kappa=2.0), "dirichlet", 200, 500, False, id="MCV"),
        pytest.param(QUINTANILLA, "dirichlet", 200, 500, False, id="Quintanilla"),
        pytest.param(QUINTANILLA, "dirichlet", 20000, 3, False, id="Quintanilla-N20000"),
        # the Neumann wall rows make dgbtrf swap a row near the far wall
        pytest.param(Fourier(kappa=2.0), "neumann", 200, 500, True, id="Fourier-neumann"),
        pytest.param(QUINTANILLA, "neumann", 20000, 3, True, id="Quintanilla-neumann-N20000"),
    ] + [
        # the other local kinds with a first and a second flux rate, both
        # walls, at a coarse and the shipped size
        pytest.param(model, bc_kind, N, 500, (bc_kind, N, name) in PIVOTED,
                     id=f"{name}-{bc_kind}-N{N}")
        for name, model in (("Jeffreys", Jeffreys(tau=0.8, xi=2.0, kappa=0.5)), ("GN3", GN3(xi=1.5, kappa=2.0)),
                            ("Burgers", Burgers(lambda_b=1.0, tau=2.0, mu=1.0, nu=1.0)))
        for bc_kind in ("dirichlet", "neumann") for N in (10, 200)
    ] + EDGE,
)
def test_kernel_step_is_bitwise_the_sparse_product_step(monkeypatch, model, bc_kind, N, steps, swapped):
    """Kept on the top derivative, with back-substitution for order 2 and
    3, as simulate keeps them; band solves with and without a row swap at
    the shipped and the fine-grid size, and blocks at the edge of the
    distinct-row reduction."""
    ops = space_operators(_grid(N), bc_kind, (0.3, -0.2))
    M, f, order = assemble_rhs(model, MAT, ops)
    _assert_bitwise_steps(monkeypatch, M, f, 1e-3, ops.n, swapped, steps)


@pytest.mark.parametrize(
    "model, bc_kind, N, swapped",
    [(Fourier(kappa=2.0), "dirichlet", 10, False), (Fourier(kappa=2.0), "neumann", 200, True),
     (MCV(tau=0.7, kappa=2.0), "dirichlet", 200, False), (QUINTANILLA, "dirichlet", 200, False),
     (Burgers(lambda_b=1.0, tau=2.0, mu=1.0, nu=1.0), "neumann", 200, False)],
    ids=["Fourier-N10", "Fourier-neumann", "MCV", "Quintanilla", "Burgers-neumann"],
)
def test_unforced_kernel_step_is_bitwise_the_sparse_product_step(monkeypatch, model, bc_kind, N, swapped):
    """With zero boundary data the system has no forcing, so the step adds
    none; kept whole (order 1) or on the top derivative with its
    back-substitution of one entry a row (order 2 and 3). Fourier at N = 10
    (h kappa / dx^2 < 1/2) has no negative coefficient in its right-hand
    side's rows, so from -0.0 everywhere each row's products are -0.0."""
    ops = space_operators(Grid1D(L=1.0, N=N), bc_kind, 0.0)
    M, f, order = assemble_rhs(model, MAT, ops)
    assert not f.any()
    _assert_bitwise_steps(monkeypatch, M, f, 1e-3, ops.n, swapped)


GK_SETUPS = {
    "coupled": (dict(tau=0.05, theta0=lambda x: 0.1 * np.sin(np.pi * x), bc_value=(0.05, -0.02)), True),
    "coupled_unforced": (dict(tau=0.05, theta0=lambda x: 0.1 * np.sin(np.pi * x)), True),
    "imposed_relaxing": (dict(tau=0.05, imposed_gradient=1.0), False),
    "imposed_steady": (dict(tau=0.0, imposed_gradient=1.0), False),
}


@pytest.mark.parametrize(
    "setup, kept, N",
    [pytest.param(*GK_SETUPS[name], 60, id=name) for name in GK_SETUPS]
    + [pytest.param(*GK_SETUPS[name], 2000, id=f"{name}-N2000") for name in ("coupled", "imposed_relaxing",
                                                                             "imposed_steady")]
    # the coupled set-up's W = 4 (K = 1, one eliminated block): 2W, 2W + 1
    # and 2W + 2 rows a block
    + [pytest.param(*GK_SETUPS["coupled"], N, id=f"coupled-N{N}") for N in (8, 9, 10)],
)
def test_gk_kernel_step_is_bitwise_the_sparse_product_step(monkeypatch, setup, kept, N):
    """The coupled GK matrix, kept on the flux with back-substitution (a
    pentadiagonal complement, whose wall rows store their entries in
    another order than the interior ones, and a back-substitution of two
    entries a row), with and without boundary data, and the
    imposed-gradient flux matrices, relaxing (tau > 0) and steady (tau = 0,
    one step of size 2), kept whole (tridiagonal); none swaps a row. At
    N = 60, at N = 2000, where the interior rows outnumber the distinct
    rows the set-up works on by far, and at the edge of the reduction."""
    calls = []
    build = pde1d.trapezoid_stepper
    monkeypatch.setattr(pde1d, "trapezoid_stepper", lambda *a, **k: calls.append((a, k)) or build(*a, **k))
    simulate(_gk(grid=Grid1D(L=1.0, N=N), dt=1e-3, t_end=1e-3, **setup))
    (M, f, dt), kwargs = calls[0]
    keep = N if kept else None
    assert kwargs.get("keep") == keep
    _assert_bitwise_steps(monkeypatch, M, f, dt, keep, False)


@pytest.mark.parametrize("where", ["band-first", "band-middle", "forcing"])
def test_coefficients_that_vary_along_the_grid_are_refused(where):
    """The set-up broadcasts one interior row to every row K (the largest
    offset) or more from a wall, so a system whose rows there differ, here
    by one ulp, is refused rather than stepped with the wrong rows: a
    diagonal of the Laplacian block at the first such row or mid-grid, or
    the forcing mid-grid. The same system unchanged sets up."""
    ops = space_operators(Grid1D(L=1.0, N=200), "dirichlet", (0.3, -0.2))
    M, f, order = assemble_rhs(QUINTANILLA, MAT, ops)
    trapezoid_stepper(M, f, 1e-3, keep=ops.n)
    if where == "forcing":
        f = f + np.where(np.arange(f.size) == f.size - 100, 5e-324, 0.0)
    else:
        d = M[-1][0][0] = M[-1][0][0].copy()
        i = 1 if where == "band-first" else 100
        d[i] = np.nextafter(d[i], np.inf)
    with pytest.raises(ConfigurationError, match="constant coefficients"):
        trapezoid_stepper(M, f, 1e-3, keep=ops.n)


@pytest.mark.parametrize("bc_kind", ["dirichlet", "neumann"])
def test_set_up_algebra_runs_on_the_distinct_rows(monkeypatch, bc_kind):
    """At N = 20000 no product the set-up forms has an operand of more rows
    than the p blocks of 2W + 1 distinct rows each, so the N-long algebra
    cannot quietly come back."""
    ops = space_operators(Grid1D(L=1.0, N=20000), bc_kind, (0.3, -0.2))
    M, f, order = assemble_rhs(QUINTANILLA, MAT, ops)
    lengths, matmat = [], pde1d._matmat
    monkeypatch.setattr(pde1d, "_matmat", lambda A, B: lengths.extend((len(A), len(B))) or matmat(A, B))
    trapezoid_stepper(M, f, 1e-3, keep=ops.n)
    assert lengths and max(lengths) <= order * (2 * _distinct_rows(order) + 1)


def test_simulate_builds_no_scipy_sparse_object(monkeypatch):
    """pde1d imports no scipy name but the four kernels, and with
    scipy.sparse's constructors made to raise, simulate still runs every
    kind: each local kind under both walls, gk coupled and with an imposed
    gradient (tau > 0 and tau = 0), and gk's Neumann refusal."""
    tree = ast.parse(Path(pde1d.__file__).read_text())
    imported = sorted(alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                      for alias in node.names if (getattr(node, "module", None) or alias.name).startswith("scipy"))
    assert imported == ["csr_matvec", "daxpy", "dgbtrf", "dtbsv"]

    def refuse(*args, **kwargs):
        raise AssertionError("a scipy.sparse object was built")

    for name in ("csr_matrix", "coo_matrix", "bmat", "diags", "identity"):
        monkeypatch.setattr(sp, name, refuse)
    common = dict(grid=Grid1D(L=1.0, N=20), dt=1e-3, t_end=5e-3, theta_ref=1.0)
    for model in TEMPERATURE_MODELS:
        for bc_kind in ("dirichlet", "neumann"):
            traj = simulate(SimConfig(model=model, material=MAT, bc_kind=bc_kind, bc_value=0.1, theta0=0.2, **common))
            assert np.isfinite(traj.thetas[-1]).all()
    for setup in (dict(tau=0.1, theta0=0.2), dict(tau=0.1, imposed_gradient=0.5), dict(tau=0.0, imposed_gradient=0.5)):
        assert np.isfinite(simulate(_gk(q0=0.1, **setup, **common)).fluxes[-1]).all()
    with pytest.raises(ConfigurationError, match="dirichlet"):
        simulate(_gk(0.1, bc_kind="neumann", **common))


def test_stepper_keeps_whole_blocks_only():
    M = [[None, {0: np.ones(5)}], [{0: -np.ones(5)}, None]]
    with pytest.raises(ConfigurationError, match="cannot keep 3 of 10 unknowns"):
        trapezoid_stepper(M, np.zeros(10), 0.1, keep=3)


def test_sim_config_refuses_a_nan_step():
    with pytest.raises(ConfigurationError, match="key 'time.dt'"):
        SimConfig(model=Fourier(kappa=1.0), material=MAT, grid=Grid1D(L=1.0, N=10), dt=np.nan, t_end=1.0)


def test_initial_field_of_the_wrong_shape_is_refused():
    cfg = SimConfig(model=Fourier(kappa=1.0), material=MAT, grid=Grid1D(L=1.0, N=10), dt=0.1, t_end=1.0,
                    theta0=np.zeros(9))
    with pytest.raises(ConfigurationError, match=r"initial field shape \(9,\) != grid shape \(10,\)"):
        simulate(cfg)


def test_singular_implicit_matrix_raises():
    dt = 0.1
    with pytest.raises(ConfigurationError, match="singular"):
        trapezoid_stepper([[{0: np.full(5, 2.0 / dt)}]], np.zeros(5), dt)
    # singular only after the reduction: the complement of a companion block
    M = _blocks(np.array([[0.0, 1.0], [(2.0 / dt) ** 2, 0.0]]), 1)
    with pytest.raises(ConfigurationError, match="singular"):
        trapezoid_stepper(M, np.zeros(2), dt, keep=1)


def test_non_nilpotent_eliminated_block_raises():
    """Eliminating a block whose powers never vanish would need an infinite
    series; the stepper refuses rather than truncate it."""
    M = np.array([[-1.0, 0.5, 0.0], [0.0, -2.0, 1.0], [1.0, 0.0, -1.0]])
    with pytest.raises(ConfigurationError, match="not nilpotent"):
        trapezoid_stepper(_blocks(M, 1), np.zeros(3), 0.1, keep=1)
    # the same system kept whole steps as the oracle does
    u = np.array([1.0, -1.0, 0.5])
    _assert_close(trapezoid_stepper(_blocks(M), np.ones(3), 0.1)(u, np.zeros(3)),
                  _splu_stepper(_blocks(M), np.ones(3), 0.1)(u, np.zeros(3)))


def test_band_storage_cap_raises(monkeypatch):
    M = _blocks(np.ones((6, 6)))
    monkeypatch.setattr(pde1d, "_MAX_BAND_ENTRIES", 6 * 16 - 1)
    with pytest.raises(ConfigurationError, match="too wide"):
        trapezoid_stepper(M, np.zeros(6), 0.1)
    monkeypatch.setattr(pde1d, "_MAX_BAND_ENTRIES", 6 * 16)
    trapezoid_stepper(M, np.zeros(6), 0.1)


@pytest.mark.parametrize("N, steps, every, key", [
    (pde1d.MAX_RUN_FLOATS // 128, 1, 1, None), (pde1d.MAX_RUN_FLOATS // 128 + 1, 1, 1, "grid.N"),
    (8, pde1d.MAX_RUN_FLOATS // 6, 10**6, None), (8, pde1d.MAX_RUN_FLOATS // 6 + 1, 10**6, "time.t_end"),
    (8, pde1d.MAX_RUN_FLOATS // 16 - 1, 1, None), (8, pde1d.MAX_RUN_FLOATS // 16, 1, "time.snapshot_every"),
])
def test_run_budget_boundaries(N, steps, every, key):
    """The nodes (128 floats each), the steps (6 each, the audit) and the
    snapshot cells (2 each) may each take up to the budget and no more; a
    run past it is refused when it is configured, before any allocation."""
    make = lambda: SimConfig(model=Fourier(kappa=1.0), material=MAT, grid=Grid1D(L=1.0, N=N), dt=1.0,
                             t_end=float(steps), snapshot_every=every)
    if key is None:
        assert make().steps == steps
    else:
        with pytest.raises(ConfigurationError, match=f"key '{key}': .* exceed a run's budget"):
            make()


def test_run_budget_takes_the_benchmark_sizes(monkeypatch):
    """The benchmark's fine grid (N = 20000, 50 steps, Neumann too) and its
    simulate runs (N = 200, 1000 steps) fit in a quarter of the budget."""
    monkeypatch.setattr(pde1d, "MAX_RUN_FLOATS", pde1d.MAX_RUN_FLOATS // 4)
    for N, t_end, bc in ((20000, 0.05, "dirichlet"), (20000, 0.05, "neumann"), (200, 1.0, "dirichlet")):
        SimConfig(model=Quintanilla(tau=0.5, xi=1.0, kappa=2.0), material=MAT, grid=Grid1D(L=np.pi, N=N), dt=1e-3,
                  t_end=t_end, bc_kind=bc)


def test_degenerate_model_kinds_rejected_in_assembly():
    ops = space_operators(Grid1D(L=1.0, N=9), "dirichlet", 0.0)
    with pytest.raises(ConfigurationError):
        assemble_rhs(MCV(tau=0.0, kappa=1.0), MAT, ops)
    with pytest.raises(ConfigurationError):
        assemble_rhs(Burgers(lambda_b=0.0, tau=1.0, mu=1.0, nu=1.0), MAT, ops)


def test_constant_equilibrium_is_preserved():
    """With matching Dirichlet data a uniform temperature is an exact steady
    state; the solver must hold it to rounding error."""
    cfg = SimConfig(
        model=MCV(tau=0.5, kappa=1.0),
        material=MAT,
        grid=Grid1D(L=1.0, N=20),
        dt=1e-2,
        t_end=0.5,
        bc_value=0.7,
        theta0=0.7,
    )
    traj = simulate(cfg)
    np.testing.assert_allclose(traj.thetas[-1], 0.7, atol=1e-12)


def test_fourier_mode_decays_at_discrete_rate():
    grid = Grid1D(L=np.pi, N=50)
    cfg = SimConfig(
        model=Fourier(kappa=1.0),
        material=MAT,
        grid=grid,
        dt=1e-4,
        t_end=0.5,
        theta0=lambda x: np.sin(x),
    )
    traj = simulate(cfg)
    lam = discrete_eigenvalue(grid, 1)
    expected = np.exp(-lam * 0.5) * np.sin(grid.interior_x())
    np.testing.assert_allclose(traj.thetas[-1], expected, atol=2e-8)


def test_neumann_mean_is_conserved():
    """Flux-free walls conserve the trapezoid-weighted spatial mean."""
    grid = Grid1D(L=1.0, N=40)
    ops = space_operators(grid, "neumann", 0.0)
    cfg = SimConfig(
        model=Fourier(kappa=1.0),
        material=MAT,
        grid=grid,
        dt=1e-3,
        t_end=0.5,
        bc_kind="neumann",
        theta0=lambda x: np.cos(np.pi * x),
    )
    traj = simulate(cfg)
    weights = np.full(ops.n, grid.dx)
    weights[0] = weights[-1] = grid.dx / 2  # trapezoid weights: half at the walls
    m0 = weights @ traj.thetas[0] / weights.sum()
    m1 = weights @ traj.thetas[-1] / weights.sum()
    assert abs(m1 - m0) <= 1e-10
    # and the profile flattens toward that mean
    assert np.abs(traj.thetas[-1] - m1).max() < 1e-2


def _built_steppers(monkeypatch):
    """The steppers the simulator builds, kept to be looped by hand."""
    steppers = []
    build = pde1d.trapezoid_stepper

    def spy(*args, **kwargs):
        steppers.append(build(*args, **kwargs))
        return steppers[-1]

    monkeypatch.setattr(pde1d, "trapezoid_stepper", spy)
    return steppers


def _observed_states(monkeypatch):
    """Every state the time loop passes to the simulator's observer."""
    states = []
    march = pde1d._march

    def spy(cfg, u, step, observe, *args, **kwargs):
        def recorded(U):
            states.extend(U.copy())
            return observe(U)

        return march(cfg, u, step, recorded, *args, **kwargs)

    monkeypatch.setattr(pde1d, "_march", spy)
    return states


def _first_bad_step(step, u, bad):
    """Step number of the first state from u on that bad() flags, stepping
    by hand, each state into a fresh zeroed array."""
    for i in range(1, 100_000):
        u = step(u, np.zeros_like(u))
        if bad(u):
            return i
    raise AssertionError("no bad state")


def _block(cfg, size):
    """The time loop's block length for a state of `size` unknowns."""
    nsteps = int(round(cfg.t_end / cfg.dt))
    return max(1, min(nsteps, pde1d._BLOCK_FLOATS // size))


def _assert_first_bad_step(monkeypatch, run, cfg, u0, n, error, bad):
    """run(cfg) raises `error` at the first step whose state bad() flags,
    found by looping the simulator's own stepper from u0 by hand, and only
    states before it reach the observer, all with a positive absolute
    temperature."""
    steppers, states = _built_steppers(monkeypatch), _observed_states(monkeypatch)
    with pytest.raises(error) as e:
        run(cfg)
    first = _first_bad_step(steppers[-1], u0, bad)
    assert (e.value.step, e.value.t) == (first, first * cfg.dt)
    assert len(states) < first
    assert all((cfg.theta_ref + s[:n] > 0.0).all() for s in states)
    return first


def test_positivity_abort_reports_first_step(monkeypatch):
    """A reference temperature smaller than the initial dip drives the
    absolute temperature through zero immediately."""
    cfg = SimConfig(
        model=Fourier(kappa=1.0),
        material=MAT,
        grid=Grid1D(L=np.pi, N=20),
        dt=1e-3,
        t_end=0.1,
        theta0=lambda x: -2.0 * np.sin(x),
        theta_ref=1.0,
    )
    u0 = -2.0 * np.sin(cfg.grid.interior_x())
    first = _assert_first_bad_step(
        monkeypatch, simulate, cfg, u0, 20, PositivityError, lambda u: (cfg.theta_ref + u <= 0).any()
    )
    assert first == 1


@pytest.mark.parametrize(
    "model, N, t_end, later_block",
    [
        (Fourier(kappa=1.0), 20, 0.3, False),  # 300 steps in one block
        (Quintanilla(tau=0.5, xi=1.0, kappa=0.502), 200, 1.0, True),  # 1000 steps, blocks of 54
    ],
    ids=["fourier", "quintanilla"],
)
def test_positivity_abort_names_first_step_inside_a_block(monkeypatch, model, N, t_end, later_block):
    """A wall held below -theta_ref cools the first node through 0 K after
    hundreds of steps, inside a block of the time loop."""
    cfg = SimConfig(model=model, material=MAT, grid=Grid1D(L=np.pi, N=N), dt=1e-3, t_end=t_end,
                    bc_value=(-1.2, 0.0), theta_ref=1.0)
    order = _order(model)
    first = _assert_first_bad_step(
        monkeypatch, simulate, cfg, np.zeros(order * N), N, PositivityError,
        lambda u: (cfg.theta_ref + u[:N] <= 0).any(),
    )
    block = _block(cfg, order * N)
    assert first % block > 1  # neither the first nor the last step of its block
    if later_block:  # past the first block, in a run whose last block is short
        assert first > block and round(t_end / cfg.dt) % block


def test_coupled_gk_positivity_abort(monkeypatch):
    """The coupled solver checks the absolute temperature every step too."""
    cfg = _gk(0.05, grid=Grid1D(L=1.0, N=40), dt=1e-3, t_end=0.1, theta0=lambda x: -2.0 * np.sin(np.pi * x))
    u0 = np.concatenate([-2.0 * np.sin(np.pi * cfg.grid.interior_x()), np.zeros(40)])
    first = _assert_first_bad_step(
        monkeypatch, simulate, cfg, u0, 40, PositivityError, lambda u: u[:40].min() <= -cfg.theta_ref
    )
    assert first == 1


def test_coupled_gk_positivity_abort_inside_a_later_block(monkeypatch):
    """A cold wall takes a node of the coupled run through 0 K inside a
    later block of a run whose last block is short."""
    N = 200
    cfg = _gk(0.05, grid=Grid1D(L=1.0, N=N), dt=1e-3, t_end=1.0, bc_value=(-1.2, 0.0))
    first = _assert_first_bad_step(
        monkeypatch, simulate, cfg, np.zeros(2 * N), N, PositivityError,
        lambda u: u[:N].min() <= -cfg.theta_ref,
    )
    block = _block(cfg, 2 * N)
    assert first > block and first % block > 1 and 1000 % block


@pytest.mark.parametrize("block_floats", [60, 600, pde1d._BLOCK_FLOATS], ids=["B1", "B10", "default"])
def test_divergence_abort_names_first_step(monkeypatch, block_floats):
    """Backward heat flow with h lambda_1 = 0.999 multiplies the positive
    first sine mode by 1999 a step, without ever taking theta below 0. Its
    audit's squares overflow at step 48, long before the state itself does
    (step 94); the run stops at step 48 whatever the block length, in blocks
    of 1 and 10 steps as in the one block of 300, with no RuntimeWarning, and
    every step before it is observed."""
    monkeypatch.setattr(pde1d, "_BLOCK_FLOATS", block_floats)
    grid = Grid1D(L=np.pi, N=60)
    dt = 2 * 0.999 / discrete_eigenvalue(grid, 1)
    cfg = SimConfig(model=Fourier(kappa=-1.0), material=MAT, grid=grid, dt=dt, t_end=300 * dt,
                    theta0=lambda x: 1e-3 * np.sin(x), theta_ref=1.0)
    steppers, states = _built_steppers(monkeypatch), _observed_states(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="non-finite audit values") as e:
            simulate(cfg)
    assert (e.value.step, e.value.t) == (48, 48 * dt)
    assert len(states) >= 48
    u0 = 1e-3 * np.sin(grid.interior_x())
    assert _first_bad_step(steppers[-1], u0, lambda u: not np.isfinite(u).all()) == 94


def test_divergence_abort_on_unstable_backward_heat():
    cfg = SimConfig(
        model=Fourier(kappa=-1.0),
        material=MAT,
        grid=Grid1D(L=np.pi, N=60),
        dt=1e-2,
        t_end=50.0,
        theta0=lambda x: 1e-3 * np.sin(20 * x),
        theta_ref=1e30,  # keep positivity out of the way
    )
    with pytest.raises((DivergenceError, PositivityError)):
        simulate(cfg)


def test_slow_blow_up_aborts_at_first_non_finite_audit_without_warning(monkeypatch):
    """Backward heat flow with h lambda_1 = 0.6 multiplies the first sine
    mode by 4 a step. Its squares in the audit overflow once |theta| passes
    about 1e154, in the second block of steps and long before the state
    itself overflows: the run stops at that step with a DivergenceError and
    no RuntimeWarning, and the run to the step before has a finite audit."""
    grid = Grid1D(L=np.pi, N=200)
    dt = 2 * 0.6 / discrete_eigenvalue(grid, 1)
    cfg = SimConfig(model=Fourier(kappa=-1.0), material=MAT, grid=grid, dt=dt, t_end=600 * dt,
                    theta0=lambda x: 1e-3 * np.sin(x), theta_ref=1.0)
    steppers = _built_steppers(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="non-finite audit values") as e:
            simulate(cfg)
        first = e.value.step
        before = simulate(replace(cfg, t_end=(first - 1) * dt))
    assert e.value.t == first * dt
    block = _block(cfg, 200)
    assert block < first < 2 * block
    assert all(np.isfinite(col).all() for col in before.audit.values())
    # the state at that step is finite: its audit is what overflows
    u = 1e-3 * np.sin(grid.interior_x())
    for _ in range(first):
        u = steppers[0](u, np.zeros_like(u))
    assert np.isfinite(u).all() and np.abs(u).max() > 1e150


def test_audit_tracks_nonnegative_sigma_for_mcv():
    cfg = SimConfig(
        model=MCV(tau=0.5, kappa=1.0),
        material=MAT,
        grid=Grid1D(L=np.pi, N=60),
        dt=1e-3,
        t_end=1.0,
        theta0=lambda x: np.sin(x),
    )
    traj = simulate(cfg)
    assert traj.audit["min_sigma"].min() >= -1e-12
    assert traj.audit["max_residual"].max() <= 1e-12


TEMPERATURE_MODELS = [
    Fourier(kappa=1.5),
    GN2(K=1.5),
    MCV(tau=0.5, kappa=1.5),
    Jeffreys(tau=0.8, xi=2.0, kappa=0.5),
    GN3(xi=1.5, kappa=2.0),
    Quintanilla(tau=0.5, xi=1.0, kappa=2.0),
    Burgers(lambda_b=0.5, tau=1.0, mu=2.0, nu=1.5),
]


@pytest.mark.parametrize(
    "model",
    # near nu tau^2 = lambda_b mu, Burgers' sigma form has a pivot 1e-6 of its largest
    # regime i (tau = 0): Burgers' P form holds only the q.q_dot cross term, so
    # its squares come from the zero-diagonal pivot, two of +-0.5
    TEMPERATURE_MODELS + [pytest.param(Burgers(1.0, 1.0, 1.0, 1.0 + 1e-6), id="burgers_near_boundary"),
                          pytest.param(Burgers(lambda_b=-1.0, tau=0.0, mu=1.0, nu=7.0), id="burgers_regime_i")],
    ids=lambda m: type(m).__name__.lower(),
)
def test_node_audit_matches_pointwise_energetics(monkeypatch, model):
    """The simulator's per-node sigma and residual, on the node columns of a
    short run embedded as x-components, equal entropy_production and the
    dissipation residual of the same states with rates from flux_rate."""
    calls = []
    build = pde1d._entropy_audit

    def spy(m, law):
        audit = build(m, law)

        def recorded(*columns):
            out = audit(*columns)
            calls.append((columns, out))
            return out

        return recorded

    monkeypatch.setattr(pde1d, "_entropy_audit", spy)
    simulate(
        SimConfig(
            model=model, material=MAT, grid=Grid1D(L=1.0, N=16), dt=2e-3, t_end=0.02,
            bc_value=0.1, theta0=lambda x: 0.2 * np.sin(np.pi * x), theta_dot0=0.3,
            q0=lambda x: 0.1 * np.cos(np.pi * x), theta_ref=1.0,
        )
    )
    e = np.array([1.0, 0.0, 0.0])
    order = model.law.order
    # each call audits a block of steps: (steps, nodes) arrays
    assert sum(len(columns[0]) for columns, _ in calls) == 10
    for (ta, tx, tdx, _, y), (sig, res) in calls:
        for i in np.ndindex(ta.shape):
            fields = {"q": y[i][0] * e, "grad_theta": tx[i] * e, "grad_theta_dot": tdx[i] * e}
            if order == 2:
                fields["qdot"] = y[i][1] * e
            s = ThermalState(theta=ta[i], **fields)
            if order:
                fields[("qdot", "qddot")[order - 1]] = flux_rate(model, s)
                s = ThermalState(theta=ta[i], **fields)
            terms = dissipation_terms(model, s)
            scale = np.abs(terms).max()
            assert abs(sig[i] - entropy_production(model, s)) <= 1e-12 * scale / ta[i]
            assert abs(res[i] - terms.sum()) <= 1e-12 * scale


@pytest.mark.parametrize("block_floats", [800, pde1d._BLOCK_FLOATS], ids=["B10", "default"])
@pytest.mark.parametrize("zero", ["half", "all"])
def test_first_flux_rate_recurrence_has_the_bits_of_its_per_step_product(monkeypatch, zero, block_floats):
    """An MCV run's flux snapshots and its sigma and residual columns have
    the bits of the per-step recurrence q' = (q R + (d + d') dt/2) L + 0.0
    (multiply, add, multiply, + 0.0), written here from the drives d that
    the audit receives, in blocks of 10 steps and in one block of all 100.
    theta0 is 0 on the left half, where the drive is exactly -0.0 at t = 0,
    or everywhere, so that theta stays 0 and the drive is -0.0 at every
    step; q0 is signed zeros on the left half. The observer adds the + 0.0
    once a block, so inside a block a flux of -0.0 stays -0.0."""
    model, grid, dt = MCV(tau=0.5, kappa=1.5), Grid1D(L=1.0, N=40), 1e-3
    x = grid.interior_x()
    left = x < 0.5
    theta0 = np.where(left, 0.0, 0.2 * np.sin(2 * np.pi * x)) if zero == "half" else np.zeros_like(x)
    q0 = np.where(left, np.random.default_rng(7).choice([0.0, -0.0], x.size), 0.1 * np.cos(np.pi * x))
    blocks, build = [], pde1d._entropy_audit

    def spy(m, law):
        audit = build(m, law)

        def recorded(*columns):
            blocks.append([a.copy() for a in columns[:4]])
            return audit(*columns)

        return recorded

    monkeypatch.setattr(pde1d, "_entropy_audit", spy)
    monkeypatch.setattr(pde1d, "_BLOCK_FLOATS", block_floats)
    traj = simulate(SimConfig(model=model, material=MAT, grid=grid, dt=dt, t_end=0.1, theta0=theta0, q0=q0,
                              theta_ref=1.0, snapshot_every=1))
    assert len(blocks) == (10 if block_floats == 800 else 1)
    ta, tx, tdx, drive = (np.concatenate(c) for c in zip(*blocks))

    law = model.law.scalar()
    tx0 = pde1d._stencil_rows(space_operators(grid, "dirichlet").d1)(theta0[None], np.empty((1, x.size)),
                                                                       np.empty((1, x.size)))[0]
    drive0 = -(law.b0 * tx0) / law.a[1]
    quiet = drive0[left][:-1]  # the last left node sees a nonzero neighbour
    assert not quiet.any() and np.signbit(quiet).all()
    A = -law.a[0] / law.a[1]
    R, L = 1.0 + dt / 2.0 * A, np.linalg.inv(np.eye(1) - dt / 2.0 * np.array([[A]]))[0, 0]
    qs = [q0]
    for d0, d1 in zip([drive0, *drive[:-1]], drive):
        qs.append(_flux_product(qs[-1] * R + (d0 + d1) * (dt / 2.0), L))
    assert [q.tobytes() for q in traj.fluxes] == [q.tobytes() for q in qs]
    sig, res = build(model, law)(ta, tx, tdx, drive, np.array(qs[1:])[..., None])
    for column, want in (("min_sigma", sig.min(1)), ("max_sigma", sig.max(1)), ("max_residual", np.abs(res).max(1))):
        assert traj.audit[column].tobytes() == want.tobytes(), column


def _run_bits(traj):
    """Every number a run returns, as bytes: snapshot times and fields, and
    the audit columns."""
    return ([traj.times.tobytes()] + [a.tobytes() for a in traj.thetas] + [a.tobytes() for a in traj.fluxes]
            + [(k, v.tobytes()) for k, v in traj.audit.items()])


_BLOCK_RUNS = [
    pytest.param(dict(model=model, bc_kind=bc), id=f"{type(model).__name__.lower()}-{bc}")
    for model in TEMPERATURE_MODELS for bc in ("dirichlet", "neumann")
] + [
    pytest.param(dict(gk=dict(tau=0.05, theta0=lambda x: 0.2 * np.sin(np.pi * x), bc_value=(0.05, -0.02))),
                 id="gk-coupled"),
    pytest.param(dict(gk=dict(tau=0.05, imposed_gradient=0.8)), id="gk-imposed"),
]


@pytest.mark.parametrize("setup", _BLOCK_RUNS)
def test_observer_workspace_does_not_leak_into_results(monkeypatch, setup):
    """The observer's buffers are reused by every block of a run. Blocks of
    one step (_BLOCK_FLOATS = 60) and of a few steps (600) give the
    snapshots and audit columns of one block of all 100 steps (the
    default), bit for bit: a kept snapshot or column that still pointed
    into a buffer would hold a later block's values."""
    grid, common = Grid1D(L=1.0, N=40), dict(dt=1e-3, t_end=0.1, snapshot_every=3)
    if "gk" in setup:
        cfg = _gk(grid=grid, q0=lambda x: 0.3 * x * (1.0 - x), **common, **setup["gk"])
    else:
        cfg = SimConfig(model=setup["model"], material=MAT, grid=grid, bc_kind=setup["bc_kind"], bc_value=0.1,
                        theta0=lambda x: 0.2 * np.cos(np.pi * x), theta_dot0=0.3,
                        q0=lambda x: 0.1 * np.cos(np.pi * x), theta_ref=1.0, **common)
    runs, blocks = {}, {}
    march, default = pde1d._march, pde1d._BLOCK_FLOATS

    def spy(cfg, u, step, observe, *args, **kwargs):
        def recorded(U):
            blocks[block_floats].append(len(U))
            return observe(U)

        return march(cfg, u, step, recorded, *args, **kwargs)

    monkeypatch.setattr(pde1d, "_march", spy)
    for block_floats in (60, 600, default):
        monkeypatch.setattr(pde1d, "_BLOCK_FLOATS", block_floats)
        blocks[block_floats] = []
        runs[block_floats] = _run_bits(simulate(cfg))
    assert blocks[60] == [1] * 100 and blocks[default] == [100]
    assert 1 < max(blocks[600]) < 100
    assert runs[60] == runs[default] and runs[600] == runs[default]


@pytest.mark.parametrize("block_floats, B", [(60, 1), (600, 10), (pde1d._BLOCK_FLOATS, 100)],
                         ids=["B1", "B10", "default"])
@pytest.mark.parametrize("kind", ["mcv", "gk-coupled"])
def test_a_run_steps_into_the_rows_of_two_buffers(monkeypatch, kind, block_floats, B):
    """The time loop hands each step a zeroed row, apart from the state it
    steps from, of one of two (B, size) buffers, and the step returns that
    row: the 100 states of a run take 2 B rows, in blocks of 1 and 10
    steps, and 100 rows of one buffer in a block of all 100."""
    monkeypatch.setattr(pde1d, "_BLOCK_FLOATS", block_floats)
    common = dict(grid=Grid1D(L=1.0, N=30), dt=1e-3, t_end=0.1, theta0=lambda x: 0.2 * np.sin(np.pi * x))
    if kind == "mcv":
        cfg = SimConfig(model=MCV(tau=0.7, kappa=2.0), material=MAT, theta_ref=1.0, **common)
    else:
        cfg = _gk(0.05, **common)
    build, rows = pde1d.trapezoid_stepper, []

    def spy(*args, **kwargs):
        step = build(*args, **kwargs)

        def stepped(u, out):
            assert not out.any() and not np.shares_memory(u, out)
            rows.append(out)
            assert step(u, out) is out
            return out

        return stepped

    monkeypatch.setattr(pde1d, "trapezoid_stepper", spy)
    simulate(cfg)
    bases = []
    for row in rows:
        if not any(row.base is base for base in bases):
            bases.append(row.base)
    assert len(rows) == 100
    assert len(bases) == min(2, 100 // B) and all(base.shape == (B, 60) for base in bases)
    assert len({row.__array_interface__["data"][0] for row in rows}) == min(2 * B, 100)


def test_gn3_undamped_mode_oscillates_at_dispersion_frequency():
    """With kappa = 0 the GN III mode is an undamped oscillator at frequency
    sqrt(Lambda_tilde * xi); check the period over a few cycles."""
    grid = Grid1D(L=np.pi, N=100)
    xi = 4.0
    cfg = SimConfig(
        model=GN3(xi=xi, kappa=0.0),
        material=MAT,
        grid=grid,
        dt=2e-4,
        t_end=3.0,
        theta0=lambda x: np.sin(x),
        snapshot_every=1,
    )
    traj = simulate(cfg)
    mid = np.array([th[grid.N // 2] for th in traj.thetas])
    omega = np.sqrt(discrete_eigenvalue(grid, 1) * xi)
    np.testing.assert_allclose(
        mid, mid[0] * np.cos(omega * traj.times), atol=2e-3 * abs(mid[0])
    )


def test_modal_comparison_second_flux_rate():
    grid = Grid1D(L=np.pi, N=100)
    cfg = SimConfig(
        model=Quintanilla(tau=1.0, xi=1.0, kappa=2.0),
        material=MAT,
        grid=grid,
        dt=1e-3,
        t_end=1.0,
    )
    cmp = compare_modal_vs_pde(cfg, 1)
    assert isinstance(cmp, ModalComparison)
    assert cmp.linf_rel <= 1e-5
    assert cmp.l2_rel <= 1e-5


@pytest.mark.parametrize("model", TEMPERATURE_MODELS, ids=lambda m: type(m).__name__.lower())
def test_pde_matches_modal_solution_at_nonunit_rho_c(model):
    """rho*cv = 6 scales every b-coefficient of the assembled system and the
    modal eigenvalue alike; the two solutions then differ by O(dt^2) only."""
    dt = 1e-3
    cfg = SimConfig(
        model=model,
        material=MaterialConstants(rho=2.0, cv=3.0),
        grid=Grid1D(L=np.pi, N=50),
        dt=dt,
        t_end=1.0,
    )
    assert compare_modal_vs_pde(cfg, 2).linf_rel <= dt**2


def test_gn2_modal_comparison_is_second_order_in_dt():
    """GN II's modes oscillate undamped, so its error against the modal
    solution is the trapezoid rule's phase error alone: within criterion
    5's gate (1e-3) and down by a factor of 4 per halving of dt."""
    errors = [
        compare_modal_vs_pde(SimConfig(model=GN2(K=1.0), material=MAT, grid=Grid1D(L=np.pi, N=50), dt=dt,
                                       t_end=1.0), 2).linf_rel
        for dt in (2e-3, 1e-3, 5e-4)
    ]
    assert max(errors) <= 1e-3
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.9 < coarse / fine < 4.1


def _modal_run(cfg, n_mode):
    """The run compare_modal_vs_pde makes of cfg: a single-sine theta0,
    zero wall values, no theta_dot0 or q0."""
    shape = np.sin(n_mode * np.pi * cfg.grid.interior_x() / cfg.grid.L)
    return replace(cfg, bc_value=0.0, theta0=shape, theta_dot0=None, q0=None)


@pytest.mark.parametrize("model", TEMPERATURE_MODELS, ids=lambda m: type(m).__name__.lower())
def test_modal_comparison_has_the_bits_of_the_direct_formula(model):
    """compare_modal_vs_pde subtracts the oracle in place from its run's
    own snapshot array; its errors keep the bits of the formula on separate
    arrays, from simulate's run of the same prepared config."""
    cfg = SimConfig(model=model, material=MAT, grid=Grid1D(L=np.pi, N=50), dt=1e-3, t_end=0.2)
    got = compare_modal_vs_pde(cfg, 2)
    traj = simulate(_modal_run(cfg, 2))
    shape = np.sin(2 * np.pi * cfg.grid.interior_x() / cfg.grid.L)
    poly = characteristic_polys(model, [discrete_eigenvalue(cfg.grid, 2) / MAT.rho_cv])[0]
    T = modal_solution(solve_poly(poly), [1.0] + [0.0] * (len(poly) - 2))
    oracle = np.asarray(T(traj.times))[:, None] * shape[None, :]
    fields = np.array(traj.thetas)
    diff = fields - oracle
    assert got.linf_rel.hex() == float(np.abs(diff).max() / np.abs(oracle).max()).hex()
    assert got.l2_rel.hex() == float(np.linalg.norm(diff) / np.linalg.norm(oracle)).hex()


@pytest.mark.parametrize("block_floats", [1, pde1d._BLOCK_FLOATS], ids=["B1", "default"])
@pytest.mark.parametrize("model", TEMPERATURE_MODELS, ids=lambda m: type(m).__name__.lower())
def test_modal_comparison_steps_the_theta_bits_of_simulate(monkeypatch, model, block_floats):
    """The comparison's time loop returns the snapshot times and theta
    snapshots of simulate's run of the same prepared config, byte for
    byte, in blocks of one step as in one block of all 200, and it builds
    no entropy audit: with the audit's builder raising, its errors keep
    their bits."""
    monkeypatch.setattr(pde1d, "_BLOCK_FLOATS", block_floats)
    cfg = SimConfig(model=model, material=MAT, grid=Grid1D(L=np.pi, N=50), dt=1e-3, t_end=0.2, snapshot_every=7)
    traj = simulate(_modal_run(cfg, 2))
    expected = compare_modal_vs_pde(cfg, 2)
    runs, march = [], pde1d._march

    def spy(*args, **kwargs):
        times, snaps, audit = march(*args, **kwargs)
        # before the comparison subtracts the oracle from them in place
        runs.append((times.tobytes(), [a.tobytes() for a in snaps[0]], len(snaps)))
        return times, snaps, audit

    def no_audit(*args):
        raise AssertionError("the modal comparison built an entropy audit")

    monkeypatch.setattr(pde1d, "_march", spy)
    monkeypatch.setattr(pde1d, "_entropy_audit", no_audit)
    got = compare_modal_vs_pde(cfg, 2)
    assert runs == [(traj.times.tobytes(), [a.tobytes() for a in traj.thetas], 1)]
    assert (got.linf_rel.hex(), got.l2_rel.hex()) == (expected.linf_rel.hex(), expected.l2_rel.hex())


def _nan_at_step(monkeypatch, bad):
    """Make every stepper built from now on return a NaN at its step `bad`."""
    build = pde1d.trapezoid_stepper

    def spy(*args, **kwargs):
        step, calls = build(*args, **kwargs), []

        def stepped(u, out):
            calls.append(None)
            r = step(u, out)
            if len(calls) == bad:
                r[3] = np.nan
            return r

        return stepped

    monkeypatch.setattr(pde1d, "trapezoid_stepper", spy)


@pytest.mark.parametrize("block_floats", [1, pde1d._BLOCK_FLOATS], ids=["B1", "default"])
@pytest.mark.parametrize("case", ["positivity", "divergence"])
def test_modal_comparison_aborts_where_simulate_does(monkeypatch, case, block_floats):
    """The comparison checks every step as simulate does: a GN III mode
    whose first swing takes theta below -theta_ref, and a state that turns
    NaN at step 37, abort both runs of the prepared config with the same
    error at the same step and t, inside a block as in blocks of one
    step."""
    monkeypatch.setattr(pde1d, "_BLOCK_FLOATS", block_floats)
    cfg = SimConfig(model=GN3(xi=1.5, kappa=0.2), material=MAT, grid=Grid1D(L=np.pi, N=50), dt=1e-3, t_end=3.0,
                    theta_ref=0.5)
    error, match = PositivityError, "theta <= 0"
    if case == "divergence":
        error, match = DivergenceError, "non-finite field values"
        _nan_at_step(monkeypatch, 37)
    with pytest.raises(error, match=match) as want:
        simulate(_modal_run(cfg, 1))
    with pytest.raises(error, match=match) as got:
        compare_modal_vs_pde(cfg, 1)
    assert (got.value.step, got.value.t) == (want.value.step, want.value.t)
    assert want.value.step > 1
    if case == "divergence":
        assert want.value.step == 37


@pytest.mark.parametrize("bad", [31, 40], ids=["first", "last"])
def test_nan_at_a_block_edge_aborts_both_runs_at_its_step(monkeypatch, bad):
    """In blocks of 10 steps, a state that turns NaN at the first (31) or
    the last (40) step of the fourth block aborts simulate and the modal
    comparison of the prepared config at that step, whatever steps of the
    block ran after it; only the states before it are observed."""
    cfg = SimConfig(model=GN3(xi=1.5, kappa=0.2), material=MAT, grid=Grid1D(L=np.pi, N=50), dt=1e-3, t_end=0.1)
    size = _order(cfg.model) * 50
    monkeypatch.setattr(pde1d, "_BLOCK_FLOATS", 10 * size)
    assert pde1d._block_steps(cfg, size) == 10
    _nan_at_step(monkeypatch, bad)
    states = _observed_states(monkeypatch)
    with pytest.raises(DivergenceError, match="non-finite field values") as want:
        simulate(_modal_run(cfg, 1))
    assert len(states) == bad - 1
    with pytest.raises(DivergenceError, match="non-finite field values") as got:
        compare_modal_vs_pde(cfg, 1)
    assert len(states) == 2 * (bad - 1)
    assert (got.value.step, got.value.t) == (want.value.step, want.value.t) == (bad, bad * cfg.dt)


def test_modal_comparison_refuses_what_simulate_refuses():
    """An imposed gradient on a local kind is refused by the comparison with
    simulate's ConfigurationError."""
    cfg = SimConfig(model=Fourier(kappa=1.0), material=MAT, grid=Grid1D(L=np.pi, N=20), dt=1e-3, t_end=0.1,
                    imposed_gradient=0.5)
    with pytest.raises(ConfigurationError) as want:
        simulate(_modal_run(cfg, 1))
    with pytest.raises(ConfigurationError) as got:
        compare_modal_vs_pde(cfg, 1)
    assert str(got.value) == str(want.value)


def test_modal_comparison_refuses_a_gk_kind_before_any_step(monkeypatch):
    """A gk kind has no temperature equation for the modal oracle: the
    comparison raises the oracle's InvalidKindError before it builds a
    stepper."""
    steppers = _built_steppers(monkeypatch)
    cfg = _gk(0.05, grid=Grid1D(L=1.0, N=40), dt=1e-3, t_end=0.1)
    with pytest.raises(InvalidKindError, match="no closed temperature equation for GKLinear"):
        compare_modal_vs_pde(cfg, 1)
    assert steppers == []


def test_modal_comparison_requires_dirichlet():
    cfg = SimConfig(
        model=Fourier(kappa=1.0),
        material=MAT,
        grid=Grid1D(L=np.pi, N=20),
        dt=1e-3,
        t_end=0.1,
        bc_kind="neumann",
    )
    with pytest.raises(ConfigurationError):
        compare_modal_vs_pde(cfg, 1)


# --- coupled weakly nonlocal solver ------------------------------------------

@pytest.mark.parametrize(
    "model, setup, error, match",
    [
        (GKLinear(0.0, 0.3, CoefficientFn(1.0)), {}, ConfigurationError, "tau = 0 only with an imposed gradient"),
        (GKLinear(-0.1, 0.3, CoefficientFn(1.0)), {}, ConfigurationError, "tau >= 0"),
        (GKLinear(1.0, 0.3, CoefficientFn(-1.0)), {}, SingularParameterError, "varkappa"),
        (GKLinear(1.0, 0.3, CoefficientFn(1.0, 2.0)), {}, ConfigurationError, "model.varkappa"),
        (GKNonlinear(1.0, 0.3, CoefficientFn(1.0), delta=0.2), {}, ConfigurationError, "delta = 0"),
        (GKLinear(1.0, 0.3, CoefficientFn(1.0)), dict(bc_kind="neumann"), ConfigurationError, "dirichlet"),
        (GKLinear(1.0, 0.3, CoefficientFn(1.0)), dict(imposed_gradient=1.0, theta0=0.1), ConfigurationError, "ic"),
        (GKLinear(1.0, 0.3, CoefficientFn(1.0)), dict(imposed_gradient=1.0, bc_value=0.1), ConfigurationError, "bc"),
        (MCV(tau=1.0, kappa=1.0), dict(imposed_gradient=1.0), ConfigurationError, "only a gk kind"),
    ],
    ids=["tau_0_coupled", "negative_tau", "negative_varkappa", "power_varkappa", "delta", "neumann",
         "imposed_with_theta0", "imposed_with_wall_values", "local_with_imposed_gradient"],
)
def test_simulate_rejects_what_the_kind_cannot_run(model, setup, error, match):
    """The checks of a run's setup live in simulate, for the CLI and library
    callers alike."""
    cfg = SimConfig(model=model, material=MAT, grid=Grid1D(L=1.0, N=20), dt=1e-3, t_end=0.1, theta_ref=1.0,
                    **setup)
    with pytest.raises(error, match=match):
        simulate(cfg)


@pytest.mark.parametrize("theta_ref", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("model", [Fourier(kappa=1.0), GKLinear(0.1, 0.3, CoefficientFn(1.0))], ids=["local", "gk"])
def test_sim_config_rejects_a_nonpositive_or_nonfinite_theta_ref(model, theta_ref):
    with pytest.raises(ConfigurationError, match="theta_ref"):
        SimConfig(model=model, material=MAT, grid=Grid1D(L=1.0, N=20), dt=1e-3, t_end=0.1, theta_ref=theta_ref)


@pytest.mark.parametrize(
    "model, theta_ref",
    [(Fourier(kappa=1.0), 300.0), (GKLinear(0.1, 0.3, CoefficientFn(1.0)), 1.0),
     (GKNonlinear(0.1, 0.3, CoefficientFn(1.0), delta=0.0), 1.0)],
    ids=["local", "gk", "gk_nonlinear"],
)
def test_sim_config_defaults_theta_ref_by_kind(model, theta_ref):
    """A library caller gets the same theta_ref as a config without the key."""
    cfg = SimConfig(model=model, material=MAT, grid=Grid1D(L=1.0, N=20), dt=1e-3, t_end=0.1)
    assert cfg.theta_ref == theta_ref
    assert simulate(cfg).theta_ref == theta_ref


def test_steady_gk_profile_shape():
    x = np.linspace(0.0, 1.0, 101)
    prof = steady_gk_profile(kappa=1.0, lambda2=1.0 / 300.0, G=1.0, L=1.0, x=x)
    assert prof[0] == pytest.approx(0.0, abs=1e-12)
    assert prof[-1] == pytest.approx(0.0, abs=1e-12)
    assert prof[50] == pytest.approx(-0.98653, abs=1e-4)
    with pytest.raises(InvalidInputError):
        steady_gk_profile(1.0, 0.0, 1.0, 1.0, x)


def test_gk_imposed_gradient_reaches_plug_profile():
    cfg = _gk(0.0, ell2=1.0 / 300.0, grid=Grid1D(L=1.0, N=200), dt=1e-2, t_end=0.1, imposed_gradient=1.0)
    traj = simulate(cfg)
    oracle = steady_gk_profile(1.0, 1.0 / 300.0, 1.0, 1.0, traj.x)
    assert np.abs(traj.fluxes[-1] - oracle).max() <= 2e-4
    assert traj.audit["min_zeta"].min() >= 0.0
    assert traj.audit["k_boundary"].max() <= 1e-12


def test_gk_relaxing_flux_converges_to_steady_state():
    cfg = _gk(0.05, ell2=1.0 / 300.0, grid=Grid1D(L=1.0, N=100), dt=1e-3, t_end=1.0, imposed_gradient=1.0)
    traj = simulate(cfg)
    oracle = steady_gk_profile(1.0, 1.0 / 300.0, 1.0, 1.0, traj.x)
    assert np.abs(traj.fluxes[-1] - oracle).max() <= 1e-3
    assert traj.audit["max_residual"].max() <= 1e-10


def test_gk_coupled_dynamics_dissipates():
    cfg = _gk(0.1, grid=Grid1D(L=1.0, N=60), dt=1e-3, t_end=1.0, theta0=lambda x: 0.1 * np.sin(np.pi * x))
    traj = simulate(cfg)
    assert traj.audit["min_zeta"].min() >= -1e-12
    assert np.abs(traj.thetas[-1]).max() < np.abs(traj.thetas[0]).max()


def test_gk_imposed_gradient_writes_the_deviation_and_rejects_a_nonpositive_profile():
    """theta snapshots hold G (x - L/2), the deviation from theta_ref, as in
    every other run; a profile theta_ref + G (x - L/2) that reaches 0 on
    [0, L], walls included, is a configuration error, not a run."""
    grid = Grid1D(L=1.0, N=40)
    cfg = _gk(0.05, grid=grid, dt=1e-3, t_end=0.005, imposed_gradient=1.5)
    traj = simulate(cfg)
    for theta in traj.thetas:
        np.testing.assert_array_equal(theta, 1.5 * (traj.x - 0.5))
    # G = 1.9 keeps the walls at 0.05; G = 2 puts 0 K at x = 0, although
    # the first node, dx = 1/41 from the wall, would sit at 0.049
    simulate(replace(cfg, imposed_gradient=1.9))
    for G in (2.0, 2.2, -2.5):
        with pytest.raises(ConfigurationError, match="reaches"):
            simulate(replace(cfg, imposed_gradient=G))


@pytest.mark.parametrize(
    "setup",
    [
        dict(tau=0.1, theta0=lambda x: 0.2 * np.sin(np.pi * x), bc_value=(0.05, -0.02), theta_ref=1.3),
        dict(tau=0.05, imposed_gradient=0.8, theta_ref=1.3),
        dict(tau=0.0, imposed_gradient=0.8, theta_ref=1.3),
    ],
    ids=["coupled", "imposed_relaxing", "imposed_steady"],
)
def test_gk_node_audit_matches_pointwise_energetics(monkeypatch, setup):
    """The coupled GK audit columns of a short run equal entropy_production,
    extra_entropy_flux and the dissipation terms of the GK model on the node
    fields embedded as x-components: grad_q[0, 0] = q_x and nonlocal_q =
    3 q_xx e_x, at the reference temperature where the audit linearizes."""
    records = []
    march = pde1d._march

    def spy(cfg, u, step, observe, *args, **kwargs):
        def recorded(U):
            out = observe(U)
            # one record per step of the block: its state and audit row
            rows = zip(*(np.broadcast_to(value, len(U)) for value in out[0]))
            records.extend(zip(U.copy(), rows))
            return out

        return march(cfg, u, step, recorded, *args, **kwargs)

    monkeypatch.setattr(pde1d, "_march", spy)
    grid = Grid1D(L=1.0, N=16)
    cfg = _gk(ell2=2e-3 / 1.183, varkappa=1.183, grid=grid, dt=2e-3, t_end=0.02, q0=lambda x: 0.3 * x * (1.0 - x),
              **setup)
    traj = simulate(cfg)
    assert list(traj.audit) == ["t", "min_zeta", "k_boundary", "k_inf", "max_residual"]
    assert len(records) == 10

    model = cfg.model
    ops = space_operators(grid, "dirichlet", cfg.bc_value)
    e = np.array([1.0, 0.0, 0.0])
    for u, (min_zeta, k_boundary, k_inf, max_residual) in records:
        if cfg.imposed_gradient is None:
            q, theta_x = u[grid.N :], _csr_of(ops.d1) @ u[: grid.N] + ops.d1_b
        else:
            q, theta_x = u, np.full(grid.N, cfg.imposed_gradient)
        qx, qxx = _csr_of(ops.d1) @ q, _csr_of(ops.lap) @ q
        zetas, ks, residuals, scale = [], [], [], 0.0
        for i in range(grid.N):
            grad_q = np.zeros((3, 3))
            grad_q[0, 0] = qx[i]
            s = ThermalState(theta=cfg.theta_ref, q=q[i] * e, grad_theta=theta_x[i] * e,
                             grad_q=grad_q, nonlocal_q=3.0 * qxx[i] * e)
            # tau = 0 has no rate, and tau q_dot drops out of the identity
            qdot = flux_rate(model, s) if model.tau > 0 else np.zeros(3)
            s = ThermalState(**{**s.__dict__, "qdot": qdot})
            terms = dissipation_terms(model, s)
            zetas.append(entropy_production(model, s))
            ks.append(abs(extra_entropy_flux(model, s)[0]))
            residuals.append(abs(terms.sum()))
            scale = max(scale, np.abs(terms).max())
        assert k_boundary == 0.0
        assert min_zeta == pytest.approx(min(zetas), rel=1e-12)
        assert k_inf == pytest.approx(max(ks), rel=1e-12)
        assert abs(max_residual - max(residuals)) <= 1e-12 * scale


@pytest.mark.parametrize("kappa", [1e160, 1e300])
def test_overflowing_energy_form_is_refused_promptly(kappa):
    """Quintanilla's energy form overflows at kappa = 1e160: elimination
    turned its inf into nan, which never cleared, and simulate hung. It is
    refused before any step, with no warning."""
    cfg = SimConfig(model=Quintanilla(tau=1.0, xi=1.0, kappa=kappa), material=MAT, grid=Grid1D(L=np.pi, N=20),
                    dt=1e-3, t_end=1e-2, theta0=lambda x: np.sin(x))
    t0 = time.perf_counter()
    with pytest.raises(ConfigurationError, match="energy form's coefficients overflow"):
        simulate(cfg)
    assert time.perf_counter() - t0 < 1.0


def test_squares_refuses_a_form_that_overflows_in_elimination():
    """Finite amplitudes whose elimination overflows end the loop too."""
    form = Form(("q", "grad_theta"), _iso([[1.0, 1e300], [1e300, 1.0]]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConfigurationError, match="overflow"):
        pde1d._squares(form)
