import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import energetics_oracle as oracle
from energetics_oracle import convex_energy_family, energy_audit, mixed_dissipation_residual, no_flow
from nonfourier.energetics import (
    SingularParameterError,
    burgers_case,
    burgers_psi_coefficients,
    burgers_sigma_matrix,
    dissipation_residual,
    dissipation_terms,
    entropy_production,
    extra_entropy_flux,
    free_energy,
    gk_flux_divergence,
    psi_gradients,
    sample_state,
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
    Quintanilla,
    ThermalState,
)
from nonfourier.tensors import InvalidInputError

EX = np.array([1.0, 0.0, 0.0])

ALL_LOCAL_MODELS = [
    Fourier(kappa=2.0),
    GN2(K=1.5),
    MCV(tau=0.7, kappa=2.0),
    Jeffreys(tau=0.8, xi=2.0, kappa=0.5),
    GN3(xi=1.5, kappa=2.0),
    Quintanilla(tau=0.5, xi=1.0, kappa=2.0),
    Burgers(lambda_b=1.0, tau=2.0, mu=1.0, nu=1.0),
    Burgers(lambda_b=-1.0, tau=0.0, mu=1.0, nu=7.0),
    Burgers(lambda_b=1.0, tau=2.0, mu=0.0, nu=1.0),
]
GK_MODELS = [
    GKLinear(tau=0.5, ell=0.3, varkappa=CoefficientFn(2.0)),
    GKLinear(tau=0.5, ell=0.3, varkappa=CoefficientFn(2.0, 1.0)),
    GKNonlinear(tau=0.5, ell=0.3, varkappa=CoefficientFn(2.0), delta=0.4),
]


def _id(m):
    return type(m).__name__ + getattr(m, "case_tag", "")


# --- closed-form spot checks --------------------------------------------------

def test_mcv_free_energy_example():
    # tau/(2 theta) * q kappa^-1 q = 0.7/(2*1) * 1/2
    m = MCV(tau=0.7, kappa=2.0)
    s = ThermalState(theta=1.0, q=EX)
    assert free_energy(m, s) == pytest.approx(0.175)


def test_mcv_free_energy_unit_example():
    s = ThermalState(theta=1.0, q=EX)
    assert free_energy(MCV(tau=2.0, kappa=1.0), s) == pytest.approx(1.0)


def test_mcv_entropy_production_example():
    m = MCV(tau=0.7, kappa=2.0)
    s = ThermalState(theta=2.0, q=2 * EX)
    # q kappa^-1 q / theta^2 = (4/2)/4
    assert entropy_production(m, s) == pytest.approx(0.5)


def test_fourier_entropy_production_example():
    m = Fourier(kappa=3.0)
    s = ThermalState(theta=2.0, grad_theta=2 * EX)
    assert entropy_production(m, s) == pytest.approx(3.0)


def test_gn2_produces_no_entropy():
    s = ThermalState(theta=1.0, q=EX, grad_theta=EX)
    assert entropy_production(GN2(K=2.0), s) == 0.0


def test_jeffreys_sigma_plus_example():
    # xi=3, kappa=1, q=e1, grad=e1, theta=1:
    # (1/(3+1)) + (1*3/(3+1)) = 0.25 + 0.75 = 1.0... with q=2e1: 4/4 + 3/4
    m = Jeffreys(tau=1.0, xi=3.0, kappa=1.0)
    s = ThermalState(theta=1.0, q=2 * EX, grad_theta=EX)
    assert entropy_production(m, s, "plus") == pytest.approx(1.75)


def test_quintanilla_sigma_example():
    m = Quintanilla(tau=1.0, xi=1.0, kappa=2.0)
    s = ThermalState(theta=1.0, qdot=EX, grad_theta=EX)
    # |tau qdot + kappa grad|^2/(kappa - tau xi) = 9/1
    assert entropy_production(m, s) == pytest.approx(9.0)


def test_gk_zeta_example():
    m = GKLinear(tau=1.0, ell=2.0, varkappa=CoefficientFn(4.0))
    grad_q = np.diag([1.0, 0.0, 0.0])
    s = ThermalState(theta=1.0, q=EX, grad_q=grad_q)
    # |q|^2/vk + ell^2 |grad_q|^2 + 2 ell^2 (div q)^2 = 0.25 + 4 + 8
    assert entropy_production(m, s) == pytest.approx(12.25)


def test_extra_entropy_flux_example():
    m = GKLinear(tau=1.0, ell=1.0, varkappa=CoefficientFn(1.0))
    grad_q = np.diag([1.0, 0.0, 0.0])
    s = ThermalState(theta=1.0, q=EX, grad_q=grad_q)
    # k = -ell^2 (grad_q q + 2 div(q) q) = -(1 + 2) e1
    np.testing.assert_allclose(extra_entropy_flux(m, s), -3.0 * EX)
    assert not no_flow(extra_entropy_flux(m, s), EX)
    assert no_flow(extra_entropy_flux(m, s), [0.0, 1.0, 0.0])


def test_extra_entropy_flux_vanishes_without_flux():
    m = GKNonlinear(tau=1.0, ell=1.0, varkappa=CoefficientFn(1.0), delta=1.0)
    s = ThermalState(theta=1.0, q=np.zeros(3), grad_q=np.eye(3))
    np.testing.assert_allclose(extra_entropy_flux(m, s), np.zeros(3))


# --- Burgers coefficient regimes ----------------------------------------------

def test_burgers_case_detection():
    assert burgers_case(Burgers(1.0, 2.0, 1.0, 1.0)) == "iii"
    assert burgers_case(Burgers(1.0, 2.0, 0.0, 1.0)) == "ii"
    assert burgers_case(Burgers(-1.0, 0.0, 1.0, 7.0)) == "i"


def test_burgers_regime_relations():
    """All regimes obey the universal ladder g2 = (tau nu/lam) g1,
    g3 = (tau nu/lam) a2, a3 = (tau nu/lam) g3."""
    for m in (Burgers(1.0, 2.0, 1.0, 1.0), Burgers(1.0, 2.0, 0.0, 1.0)):
        c = burgers_psi_coefficients(m, theta=1.3)
        r = m.tau * m.nu / m.lambda_b
        assert c.g2 == pytest.approx(r * c.g1)
        assert c.g3 == pytest.approx(r * c.a2)
        assert c.a3 == pytest.approx(r * c.g3)


def test_burgers_regime_i_coefficients():
    m = Burgers(lambda_b=-1.0, tau=0.0, mu=1.0, nu=7.0)
    c = burgers_psi_coefficients(m, theta=1.0)
    assert c.case_tag == "i"
    assert c.a2 == 0.0 and c.a3 == 0.0
    assert c.g1 == pytest.approx(-1.0)
    assert c.a1 == pytest.approx(0.0)


def test_burgers_sigma_matrix_regime_iii_example():
    # lambda=1, tau=2, mu=nu=1, theta=1: 7*B = [[3,0,0],[0,1,2],[0,2,4]]
    b = burgers_sigma_matrix(Burgers(1.0, 2.0, 1.0, 1.0), 1.0)
    np.testing.assert_allclose(
        7.0 * b, [[3.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 4.0]], atol=1e-12
    )
    assert np.linalg.eigvalsh(b).min() >= -1e-12


def test_burgers_sigma_matrix_scales_as_one_over_theta():
    m = Burgers(1.0, 2.0, 1.0, 1.0)
    np.testing.assert_allclose(
        burgers_sigma_matrix(m, 2.0), burgers_sigma_matrix(m, 1.0) / 2.0
    )


def test_burgers_degenerate_inputs_raise():
    with pytest.raises(SingularParameterError):
        burgers_psi_coefficients(Burgers(0.0, 1.0, 1.0, 1.0), 1.0)


def test_burgers_regime_i_needs_a_nonzero_mu():
    """tau = 0 puts Burgers in regime i, whose coefficients divide by mu."""
    m = Burgers(lambda_b=-1.0, tau=0.0, mu=0.0, nu=1.0)
    assert burgers_case(m) == "i"
    with pytest.raises(SingularParameterError, match="regime i needs mu != 0"):
        burgers_psi_coefficients(m, 1.0)


def test_extra_entropy_flux_refuses_a_local_kind():
    with pytest.raises(InvalidInputError, match="only exists for the nonlocal model"):
        extra_entropy_flux(Fourier(kappa=1.0), ThermalState(theta=1.0))


# --- analytic gradients vs finite differences ---------------------------------

def _perturb(s: ThermalState, name: str, delta: np.ndarray) -> ThermalState:
    fields = {
        "theta": s.theta,
        "q": s.q,
        "grad_theta": s.grad_theta,
        "qdot": s.qdot,
        "grad_q": s.grad_q,
        "grad_theta_dot": s.grad_theta_dot,
        "qddot": s.qddot,
        "nonlocal_q": s.nonlocal_q,
    }
    fields[name] = fields[name] + delta
    return ThermalState(**fields)


@pytest.mark.parametrize(
    "model",
    [m for m in ALL_LOCAL_MODELS + GK_MODELS],
    ids=_id,
)
def test_psi_gradients_match_finite_differences(model):
    rng = np.random.default_rng(42)
    s = sample_state(model, rng)
    g = psi_gradients(model, s)
    h = 1e-6
    for name, analytic in (("q", g.q), ("qdot", g.qdot), ("grad_theta", g.grad_theta)):
        if name == "qdot" and s.qdot is None:
            continue
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            num = (free_energy(model, _perturb(s, name, e)) - free_energy(model, _perturb(s, name, -e))) / (2 * h)
            assert num == pytest.approx(analytic[i], rel=1e-5, abs=1e-7)


# --- dissipation identity -----------------------------------------------------

@pytest.mark.parametrize("model", ALL_LOCAL_MODELS + GK_MODELS, ids=_id)
def test_dissipation_identity_closes_on_law_abiding_states(model):
    rng = np.random.default_rng(7)
    for _ in range(50):
        s = sample_state(model, rng)
        terms = dissipation_terms(model, s)
        scale = max(1.0, float(np.abs(terms).max()))
        assert abs(dissipation_residual(model, s)) <= 1e-12 * scale


def test_jeffreys_star_variant_closes_too():
    m = Jeffreys(tau=0.8, xi=2.0, kappa=0.5)
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = sample_state(m, rng)
        terms = dissipation_terms(m, s, "star")
        scale = max(1.0, float(np.abs(terms).max()))
        assert abs(dissipation_residual(m, s, "star")) <= 1e-12 * scale


@pytest.mark.parametrize("model", ALL_LOCAL_MODELS + GK_MODELS, ids=_id)
def test_unknown_variant_raises(model):
    """A misspelt variant is an error on every kind, local or nonlocal, not
    the only row; "star" exists only for Jeffreys."""
    s = sample_state(model, np.random.default_rng(5))
    variants = ("stra", "") if isinstance(model, Jeffreys) else ("stra", "star", "")
    for variant in variants:
        for fn in (free_energy, entropy_production, psi_gradients, dissipation_terms):
            with pytest.raises(InvalidInputError, match="unknown variant"):
                fn(model, s, variant)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_convex_mix_closes_for_any_weight(weight, seed):
    m = Jeffreys(tau=0.8, xi=2.0, kappa=0.5)
    s = sample_state(m, np.random.default_rng(seed))
    assert abs(mixed_dissipation_residual(m, s, weight)) <= 1e-11


def test_convex_energy_family_interpolates():
    m = Jeffreys(tau=0.8, xi=2.0, kappa=0.5)
    s = sample_state(m, np.random.default_rng(3))
    psi_half, sigma_half = convex_energy_family(m, 0.5)
    assert psi_half(s) == pytest.approx(
        0.5 * free_energy(m, s, "plus") + 0.5 * free_energy(m, s, "star")
    )
    assert sigma_half(s) == pytest.approx(
        0.5 * entropy_production(m, s, "plus") + 0.5 * entropy_production(m, s, "star")
    )


def test_residual_detects_off_law_rates():
    """Perturbing qddot away from the rate law shifts the residual by exactly
    dpsi_qdot . delta, so the identity is a real constraint, not a tautology."""
    m = Quintanilla(tau=0.5, xi=1.0, kappa=2.0)
    s = sample_state(m, np.random.default_rng(5))
    delta = np.array([0.3, -0.2, 0.1])
    s_off = _perturb(s, "qddot", delta)
    g = psi_gradients(m, s)
    expected = float(g.qdot @ delta)
    assert dissipation_residual(m, s_off) - dissipation_residual(m, s) == pytest.approx(
        expected, rel=1e-9
    )


def test_entropy_production_nonnegative_on_admissible_samples():
    rng = np.random.default_rng(123)
    admissible = [
        MCV(tau=0.7, kappa=2.0),
        Jeffreys(tau=0.8, xi=2.0, kappa=0.5),
        GN3(xi=1.5, kappa=2.0),
        Quintanilla(tau=0.5, xi=1.0, kappa=2.0),
        Burgers(lambda_b=1.0, tau=2.0, mu=1.0, nu=1.0),
        GKLinear(tau=0.5, ell=0.3, varkappa=CoefficientFn(2.0)),
    ]
    for m in admissible:
        for _ in range(100):
            s = sample_state(m, rng)
            assert entropy_production(m, s) >= -1e-12


# --- nonlocal flux divergence -------------------------------------------------

def test_gk_flux_divergence_matches_finite_differences():
    """div k computed from the pointwise identity agrees with a central
    finite-difference divergence of k on a smooth synthetic flux field."""
    m = GKNonlinear(tau=1.0, ell=0.4, varkappa=CoefficientFn(2.0), delta=0.3)

    def q_field(x):
        return np.array(
            [
                np.sin(x[0]) * np.cos(x[1]),
                x[2] ** 2 * 0.3 + 0.1 * x[0],
                np.cos(x[0] + x[2]),
            ]
        )

    x0 = np.array([0.3, -0.2, 0.5])
    h = 1e-5

    def numeric_grad_q(x):
        g = np.zeros((3, 3))
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            g[i, :] = (q_field(x + e) - q_field(x - e)) / (2 * h)
        return g

    def k_at(x):
        gq = numeric_grad_q(x)
        s = ThermalState(theta=1.0, q=q_field(x), grad_q=gq)
        return extra_entropy_flux(m, s)

    div_k_num = 0.0
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        div_k_num += (k_at(x0 + e)[i] - k_at(x0 - e)[i]) / (2 * h)

    # nonlocal_q = lap q + 2 grad div q via second differences
    lap = np.zeros(3)
    grad_div = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        lap += (q_field(x0 + e) - 2 * q_field(x0) + q_field(x0 - e)) / h**2
        grad_div[i] = (
            np.trace(numeric_grad_q(x0 + e)) - np.trace(numeric_grad_q(x0 - e))
        ) / (2 * h)
    s0 = ThermalState(
        theta=1.0, q=q_field(x0), grad_q=numeric_grad_q(x0), nonlocal_q=lap + 2 * grad_div
    )
    assert gk_flux_divergence(m, s0) == pytest.approx(div_k_num, rel=1e-4)


def test_energy_audit_bundles_everything():
    m = GKLinear(tau=0.5, ell=0.3, varkappa=CoefficientFn(2.0))
    s = sample_state(m, np.random.default_rng(9))
    a = energy_audit(m, s)
    assert a.psi == pytest.approx(free_energy(m, s))
    assert a.sigma == pytest.approx(entropy_production(m, s))
    np.testing.assert_allclose(a.k_flux, extra_entropy_flux(m, s))
    assert abs(a.residual) <= 1e-12 * max(1.0, abs(a.sigma))


def test_singular_weights_raise():
    with pytest.raises(SingularParameterError):
        free_energy(
            Jeffreys(tau=1.0, xi=1.0, kappa=1.0),
            ThermalState(theta=1.0, q=EX),
            variant="star",
        )
    with pytest.raises(SingularParameterError):
        entropy_production(
            Quintanilla(tau=1.0, xi=1.0, kappa=1.0),
            ThermalState(theta=1.0, qdot=EX),
        )


# --- the stacked path against the per-state oracle ----------------------------

NINE_KINDS = [
    Fourier(kappa=np.array([[2.0, 0.1, 0.2], [0.1, 3.0, 0.3], [0.2, 0.3, 4.0]])),
    GN2(K=1.5),
    MCV(tau=0.7, kappa=2.0),
    Jeffreys(tau=0.8, xi=2.0, kappa=0.5),
    GN3(xi=1.5, kappa=2.0),
    Quintanilla(tau=0.5, xi=1.0, kappa=2.0),
    Burgers(lambda_b=1.0, tau=2.0, mu=1.0, nu=1.0),
    GKLinear(tau=0.5, ell=0.3, varkappa=CoefficientFn(2.0, 1.5)),
    GKNonlinear(tau=0.5, ell=0.3, varkappa=CoefficientFn(2.0, -0.5), delta=0.4),
]
_VARIANTS = [(m, v) for m in NINE_KINDS for v in (("plus", "star") if isinstance(m, Jeffreys) else ("plus",))]
_hex = np.vectorize(float.hex, otypes=[str])


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("model, variant", _VARIANTS, ids=[f"{type(m).__name__}-{v}" for m, v in _VARIANTS])
def test_stacked_states_match_the_per_state_oracle_bit_for_bit(model, variant, seed):
    """One stack of 400 states gives, by float hex, the theta, psi, sigma
    and every dissipation term of 400 single draws evaluated one by one."""
    n = 400
    want = oracle.audit(model, np.random.default_rng(seed), n, variant)
    s = sample_state(model, np.random.default_rng(seed), size=n)
    got = (
        s.theta,
        free_energy(model, s, variant),
        entropy_production(model, s, variant),
        dissipation_terms(model, s, variant),
    )
    for j, values in enumerate(got):
        assert values.shape[0] == n
        assert (_hex(np.array([row[j] for row in want])) == _hex(values)).all(), ("theta", "psi", "sigma", "terms")[j]


@pytest.mark.parametrize("size", [None, 0, 1, 400])
@pytest.mark.parametrize("model", NINE_KINDS, ids=_id)
def test_a_stack_leaves_the_generator_where_single_draws_do(model, size):
    """After size=n the generator is where n oracle draws leave it (one for
    size=None), so the draws that follow agree too; size=0 draws nothing."""
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    start = rng.bit_generator.state
    s = sample_state(model, rng, size=size)
    for _ in range(1 if size is None else size):
        oracle.sample_state(model, ref)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert (rng.bit_generator.state == start) == (size == 0)
    assert rng.standard_normal(5).tobytes() == ref.standard_normal(5).tobytes()
    if size is None:
        assert type(s.theta) is float
    else:
        assert s.theta.shape == (size,) and s.q.shape == (size, 3)


@pytest.mark.parametrize("model", NINE_KINDS, ids=_id)
def test_one_state_gives_floats_equal_to_its_row_of_a_stack(model):
    one = sample_state(model, np.random.default_rng(4))
    stack = sample_state(model, np.random.default_rng(4), size=3)
    assert type(one.theta) is float and one.theta == stack.theta[0]
    for fn in (free_energy, entropy_production, dissipation_residual):
        value = fn(model, one)
        assert type(value) is float and value.hex() == float(fn(model, stack)[0]).hex()
    np.testing.assert_array_equal(dissipation_terms(model, one), dissipation_terms(model, stack)[0])
    if isinstance(model, GKLinear):
        assert type(gk_flux_divergence(model, one)) is float
        np.testing.assert_array_equal(extra_entropy_flux(model, one), extra_entropy_flux(model, stack)[0])


def test_stacked_state_rejects_a_field_of_the_wrong_length():
    with pytest.raises(InvalidInputError, match="q: expected shape"):
        ThermalState(theta=np.ones(4), q=np.zeros((3, 3)))
    with pytest.raises(InvalidInputError, match="absolute temperature"):
        ThermalState(theta=np.array([1.0, 0.0]))
