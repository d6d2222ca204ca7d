import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nonfourier import pde1d
from nonfourier.energetics import dissipation_terms, entropy_production
from nonfourier.models import (
    MCV,
    GN3,
    Burgers,
    Fourier,
    Jeffreys,
    MaterialConstants,
    Quintanilla,
    ThermalState,
    flux_rate,
)
from nonfourier.pde1d import (
    ConfigurationError,
    DivergenceError,
    GKSimConfig,
    Grid1D,
    ModalComparison,
    PositivityError,
    SimConfig,
    assemble_rhs,
    compare_modal_vs_pde,
    discrete_eigenvalue,
    simulate,
    simulate_coupled_gk,
    space_operators,
    spatial_mean,
    steady_gk_profile,
    time_order,
    trapezoid_stepper,
)
from nonfourier.tensors import InvalidInputError

MAT = MaterialConstants(rho=1.0, cv=1.0)


def test_grid_geometry():
    g = Grid1D(L=1.0, N=9)
    assert g.dx == pytest.approx(0.1)
    np.testing.assert_allclose(g.interior_x(), 0.1 * np.arange(1, 10))
    with pytest.raises(InvalidInputError):
        Grid1D(L=1.0, N=4)
    with pytest.raises(InvalidInputError):
        Grid1D(L=0.0, N=10)


def test_time_order_per_model():
    assert time_order(Fourier(kappa=1.0)) == 1
    assert time_order(MCV(tau=1.0, kappa=1.0)) == 2
    assert time_order(Jeffreys(tau=1.0, xi=1.0, kappa=1.0)) == 2
    assert time_order(GN3(xi=1.0, kappa=1.0)) == 2
    assert time_order(Quintanilla(tau=1.0, xi=1.0, kappa=2.0)) == 3
    assert time_order(Burgers(lambda_b=1.0, tau=1.0, mu=1.0, nu=1.0)) == 3


def test_dirichlet_laplacian_stencil():
    ops = space_operators(Grid1D(L=1.0, N=9), "dirichlet", 0.0)
    row = ops.lap.toarray()[4]
    dx2 = 0.1**2
    np.testing.assert_allclose(row[3:6], [1.0 / dx2, -2.0 / dx2, 1.0 / dx2])
    assert ops.n == 9
    np.testing.assert_allclose(ops.weights, np.full(9, 0.1))


def test_dirichlet_boundary_forcing():
    ops = space_operators(Grid1D(L=1.0, N=9), "dirichlet", (2.0, 3.0))
    dx2 = 0.1**2
    assert ops.lap_b[0] == pytest.approx(2.0 / dx2)
    assert ops.lap_b[-1] == pytest.approx(3.0 / dx2)
    assert np.all(ops.lap_b[1:-1] == 0.0)


def test_neumann_operators_include_boundaries():
    ops = space_operators(Grid1D(L=1.0, N=9), "neumann", 0.0)
    assert ops.n == 11
    # trapezoid weights: half weight at the two wall nodes
    assert ops.weights[0] == pytest.approx(0.05)
    assert ops.weights[5] == pytest.approx(0.1)
    # mirrored ghost: lap row 0 is (-2, 2)/dx^2
    row = ops.lap.toarray()[0]
    np.testing.assert_allclose(row[:2], [-200.0, 200.0])


def test_unknown_bc_kind_rejected():
    with pytest.raises(ConfigurationError):
        space_operators(Grid1D(L=1.0, N=9), "robin", 0.0)


def test_spatial_mean_weighting():
    ops = space_operators(Grid1D(L=1.0, N=9), "neumann", 0.0)
    assert spatial_mean(ops, np.ones(ops.n)) == pytest.approx(1.0)


def test_trapezoid_scalar_decay_example():
    """One step of u' = -u with dt = 0.1 gives u (1 - 0.05)/(1 + 0.05)."""
    M = sp.csr_matrix(np.array([[-1.0]]))
    step = trapezoid_stepper(M, np.zeros(1), 0.1)
    u = step(np.array([2.0]))
    assert u[0] == pytest.approx(2.0 * 0.95 / 1.05)


def test_trapezoid_zero_matrix_is_identity_plus_forcing():
    M = sp.csr_matrix((3, 3))
    f = np.array([1.0, 2.0, 3.0])
    step = trapezoid_stepper(M, f, 0.5)
    np.testing.assert_allclose(step(np.zeros(3)), 0.5 * f)


def test_trapezoid_is_second_order_in_dt():
    """Scalar oscillator u'' = -u over one period: the error drops by ~4x per
    halving of dt."""
    M = sp.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    t_end = 6.4  # an exact multiple of every dt below
    errs = []
    for dt in (0.02, 0.01, 0.005):
        step = trapezoid_stepper(M, np.zeros(2), dt)
        u = np.array([1.0, 0.0])
        for _ in range(int(round(t_end / dt))):
            u = step(u)
        errs.append(abs(u[0] - np.cos(t_end)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def _splu_stepper(M, f, dt, keep=None):
    """Oracle: the unreduced trapezoid step (I - dt/2 M) u' = (I + dt/2 M) u
    + dt f through SuperLU on the whole system; `keep` is ignored."""
    eye = sp.identity(M.shape[0], format="csc")
    lu = spla.splu((eye - dt / 2.0 * M).tocsc())
    rhs = (eye + dt / 2.0 * M).tocsr()
    return lambda u: lu.solve(rhs @ u + dt * f)


def _assert_close(got, want, blocks=1, rtol=1e-12):
    """Relative to each block's largest oracle magnitude."""
    for g, w in zip(np.split(np.asarray(got), blocks), np.split(np.asarray(want), blocks)):
        assert np.abs(g - w).max() <= rtol * np.abs(w).max()


TEMPERATURE_MODELS = [
    Fourier(kappa=2.0),
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
        u, v = banded(u), oracle(v)
        _assert_close(u, v, order)


@pytest.mark.parametrize(
    "setup",
    [
        dict(tau=0.1, theta0=lambda x: 0.1 * np.sin(np.pi * x), bc_theta=(0.05, -0.02)),
        dict(tau=0.05, imposed_gradient=1.0),
        dict(tau=0.0, imposed_gradient=1.0),
    ],
    ids=["coupled", "imposed_relaxing", "imposed_steady"],
)
def test_gk_banded_steps_match_superlu_oracle(monkeypatch, setup):
    cfg = GKSimConfig(kappa=1.0, lambda2=1e-3, grid=Grid1D(L=1.0, N=60), dt=1e-3, t_end=0.02,
                      q0=lambda x: 0.3 * x * (1.0 - x), **setup)
    got = simulate_coupled_gk(cfg)
    monkeypatch.setattr(pde1d, "trapezoid_stepper", _splu_stepper)
    want = simulate_coupled_gk(cfg)
    assert len(got.qs) == len(want.qs) == 21
    for gq, wq, gt, wt in zip(got.qs[1:], want.qs[1:], got.thetas[1:], want.thetas[1:]):
        _assert_close(gq, wq)
        _assert_close(gt, wt)


def test_singular_implicit_matrix_raises():
    dt = 0.1
    with pytest.raises(ConfigurationError, match="singular"):
        trapezoid_stepper(sp.identity(5, format="csr") * (2.0 / dt), np.zeros(5), dt)
    # singular only after the reduction: the complement of a companion block
    M = sp.csr_matrix(np.array([[0.0, 1.0], [(2.0 / dt) ** 2, 0.0]]))
    with pytest.raises(ConfigurationError, match="singular"):
        trapezoid_stepper(M, np.zeros(2), dt, keep=1)


def test_non_nilpotent_eliminated_block_raises():
    """Eliminating a block whose powers never vanish would need an infinite
    series; the stepper refuses rather than truncate it."""
    M = sp.csr_matrix(np.array([[-1.0, 0.5, 0.0], [0.0, -2.0, 1.0], [1.0, 0.0, -1.0]]))
    with pytest.raises(ConfigurationError, match="not nilpotent"):
        trapezoid_stepper(M, np.zeros(3), 0.1, keep=1)
    # the same system kept whole steps as the oracle does
    u = np.array([1.0, -1.0, 0.5])
    _assert_close(trapezoid_stepper(M, np.ones(3), 0.1)(u), _splu_stepper(M, np.ones(3), 0.1)(u))


def test_band_storage_cap_raises(monkeypatch):
    M = sp.csr_matrix(np.ones((6, 6)))
    monkeypatch.setattr(pde1d, "_MAX_BAND_ENTRIES", 6 * 16 - 1)
    with pytest.raises(ConfigurationError, match="too wide"):
        trapezoid_stepper(M, np.zeros(6), 0.1)
    monkeypatch.setattr(pde1d, "_MAX_BAND_ENTRIES", 6 * 16)
    trapezoid_stepper(M, np.zeros(6), 0.1)


def test_source_only_in_fourier_limit():
    ops = space_operators(Grid1D(L=1.0, N=9), "dirichlet", 0.0)
    with pytest.raises(ConfigurationError):
        assemble_rhs(MCV(tau=1.0, kappa=1.0), MAT, ops, source=np.ones(9))


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
    np.testing.assert_allclose(traj.final_theta(), 0.7, atol=1e-12)


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
    np.testing.assert_allclose(traj.final_theta(), expected, atol=2e-8)


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
    m0 = spatial_mean(ops, traj.thetas[0])
    m1 = spatial_mean(ops, traj.final_theta())
    assert abs(m1 - m0) <= 1e-10
    # and the profile flattens toward that mean
    assert np.abs(traj.final_theta() - m1).max() < 1e-2


def test_positivity_abort_reports_first_step():
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
    with pytest.raises(PositivityError) as e:
        simulate(cfg)
    assert e.value.step >= 1


def test_coupled_gk_positivity_abort():
    """The coupled solver checks the absolute temperature every step too."""
    cfg = GKSimConfig(
        tau=0.05, kappa=1.0, lambda2=1e-3, grid=Grid1D(L=1.0, N=40), dt=1e-3, t_end=0.1,
        theta0=lambda x: -2.0 * np.sin(np.pi * x), theta_ref=1.0,
    )
    with pytest.raises(PositivityError) as e:
        simulate_coupled_gk(cfg)
    assert e.value.step >= 1


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
    MCV(tau=0.5, kappa=1.5),
    Jeffreys(tau=0.8, xi=2.0, kappa=0.5),
    GN3(xi=1.5, kappa=2.0),
    Quintanilla(tau=0.5, xi=1.0, kappa=2.0),
    Burgers(lambda_b=0.5, tau=1.0, mu=2.0, nu=1.5),
]


@pytest.mark.parametrize(
    "model",
    # near nu tau^2 = lambda_b mu, Burgers' sigma form has a pivot 1e-6 of its largest
    TEMPERATURE_MODELS + [pytest.param(Burgers(1.0, 1.0, 1.0, 1.0 + 1e-6), id="burgers_near_boundary")],
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
    (ta, tx, tdx, _, y), (sig, res) = calls[-1]
    e = np.array([1.0, 0.0, 0.0])
    order = model.law.order
    for i in range(ta.size):
        fields = {"q": y[i, 0] * e, "grad_theta": tx[i] * e, "grad_theta_dot": tdx[i] * e}
        if order == 2:
            fields["qdot"] = y[i, 1] * e
        s = ThermalState(theta=ta[i], **fields)
        if order:
            fields[("qdot", "qddot")[order - 1]] = flux_rate(model, s)
            s = ThermalState(theta=ta[i], **fields)
        terms = dissipation_terms(model, s)
        scale = np.abs(terms).max()
        assert abs(sig[i] - entropy_production(model, s)) <= 1e-12 * scale / ta[i]
        assert abs(res[i] - terms.sum()) <= 1e-12 * scale


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

def test_gk_config_validation():
    grid = Grid1D(L=1.0, N=20)
    with pytest.raises(ConfigurationError):
        GKSimConfig(tau=0.0, kappa=1.0, lambda2=0.1, grid=grid, dt=1e-3, t_end=0.1)
    with pytest.raises(ConfigurationError):
        GKSimConfig(tau=1.0, kappa=-1.0, lambda2=0.1, grid=grid, dt=1e-3, t_end=0.1)


def test_steady_gk_profile_shape():
    x = np.linspace(0.0, 1.0, 101)
    prof = steady_gk_profile(kappa=1.0, lambda2=1.0 / 300.0, G=1.0, L=1.0, x=x)
    assert prof.values[0] == pytest.approx(0.0, abs=1e-12)
    assert prof.values[-1] == pytest.approx(0.0, abs=1e-12)
    assert prof.values[50] == pytest.approx(-0.98653, abs=1e-4)
    with pytest.raises(InvalidInputError):
        steady_gk_profile(1.0, 0.0, 1.0, 1.0, x)


def test_gk_imposed_gradient_reaches_plug_profile():
    grid = Grid1D(L=1.0, N=200)
    cfg = GKSimConfig(
        tau=0.0,
        kappa=1.0,
        lambda2=1.0 / 300.0,
        grid=grid,
        dt=1e-2,
        t_end=0.1,
        imposed_gradient=1.0,
    )
    traj = simulate_coupled_gk(cfg)
    oracle = steady_gk_profile(1.0, 1.0 / 300.0, 1.0, 1.0, traj.x).values
    assert np.abs(traj.final_q() - oracle).max() <= 2e-4
    assert traj.audit["min_zeta"].min() >= 0.0
    assert traj.audit["k_boundary"].max() <= 1e-12


def test_gk_relaxing_flux_converges_to_steady_state():
    grid = Grid1D(L=1.0, N=100)
    cfg = GKSimConfig(
        tau=0.05,
        kappa=1.0,
        lambda2=1.0 / 300.0,
        grid=grid,
        dt=1e-3,
        t_end=1.0,
        imposed_gradient=1.0,
    )
    traj = simulate_coupled_gk(cfg)
    oracle = steady_gk_profile(1.0, 1.0 / 300.0, 1.0, 1.0, traj.x).values
    assert np.abs(traj.final_q() - oracle).max() <= 1e-3
    assert traj.audit["max_residual"].max() <= 1e-10


def test_gk_coupled_dynamics_dissipates():
    grid = Grid1D(L=1.0, N=60)
    cfg = GKSimConfig(
        tau=0.1,
        kappa=1.0,
        lambda2=1e-3,
        grid=grid,
        dt=1e-3,
        t_end=1.0,
        theta0=lambda x: 0.1 * np.sin(np.pi * x),
    )
    traj = simulate_coupled_gk(cfg)
    assert traj.audit["min_zeta"].min() >= -1e-12
    assert np.abs(traj.thetas[-1]).max() < np.abs(traj.thetas[0]).max()
