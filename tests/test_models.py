import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonfourier.models import (
    MCV,
    GN2,
    GN3,
    Burgers,
    CoefficientFn,
    ContractError,
    DegenerateModelError,
    Fourier,
    GKLinear,
    GKNonlinear,
    InvalidLimitError,
    Jeffreys,
    MaterialConstants,
    Quintanilla,
    ThermalState,
    burgers_from_mixture,
    flux_rate,
    reduce_limit,
)
from nonfourier.energetics import SingularParameterError
from nonfourier.tensors import InvalidInputError

EX = np.array([1.0, 0.0, 0.0])


def state(**kw):
    kw.setdefault("theta", 1.0)
    return ThermalState(**kw)


def test_fourier_rate_is_minus_kappa_grad():
    np.testing.assert_allclose(
        flux_rate(Fourier(kappa=2.0), state(grad_theta=[3.0, 0.0, -1.0])),
        [-6.0, 0.0, 2.0],
    )


def test_mcv_rate_example():
    m = MCV(tau=2.0, kappa=3.0)
    s = state(q=[1.0, 0.0, 0.0], grad_theta=[1.0, 0.0, 0.0])
    np.testing.assert_allclose(flux_rate(m, s), [-2.0, 0.0, 0.0])


def test_jeffreys_rate_example():
    m = Jeffreys(tau=2.0, xi=3.0, kappa=1.0)
    s = state(q=EX, grad_theta=EX, grad_theta_dot=EX)
    # -(1 + 3 + 2*1)/2 = -3
    np.testing.assert_allclose(flux_rate(m, s), [-3.0, 0.0, 0.0])


def test_gn3_rate_example():
    m = GN3(xi=2.0, kappa=5.0)
    s = state(grad_theta=EX, grad_theta_dot=-EX)
    np.testing.assert_allclose(flux_rate(m, s), [3.0, 0.0, 0.0])


def test_quintanilla_rate_example():
    m = Quintanilla(tau=2.0, xi=1.0, kappa=4.0)
    s = state(qdot=EX, grad_theta=EX, grad_theta_dot=EX)
    np.testing.assert_allclose(flux_rate(m, s), [-3.0, 0.0, 0.0])


def test_burgers_rate_example():
    m = Burgers(lambda_b=2.0, tau=1.0, mu=3.0, nu=5.0)
    s = state(q=EX, qdot=EX, grad_theta=EX, grad_theta_dot=EX)
    # -(1 + 1 + 3 + 5)/2 = -5
    np.testing.assert_allclose(flux_rate(m, s), [-5.0, 0.0, 0.0])


def test_gk_linear_rate_example():
    m = GKLinear(tau=2.0, ell=1.0, varkappa=CoefficientFn(4.0))
    s = state(q=EX, grad_theta=EX, nonlocal_q=EX)
    # kappa(1) = 4, lambda2(1) = 4 -> (-1 - 4 + 4)/2
    np.testing.assert_allclose(flux_rate(m, s), [-0.5, 0.0, 0.0])


def test_gk_nonlinear_adds_gradient_coupling():
    lin = GKLinear(tau=1.0, ell=1.0, varkappa=CoefficientFn(1.0))
    non = GKNonlinear(tau=1.0, ell=1.0, varkappa=CoefficientFn(1.0), delta=0.5)
    grad_q = np.diag([2.0, 0.0, 0.0])
    s = state(q=EX, grad_theta=np.zeros(3), grad_q=grad_q, nonlocal_q=np.zeros(3))
    base = flux_rate(lin, s)
    extra = flux_rate(non, s) - base
    # mu*(grad_q q) + nu*tr(grad_q) q with mu = 2*delta, nu = delta
    np.testing.assert_allclose(extra, (1.0 * 2.0 + 0.5 * 2.0) * EX)


@pytest.mark.parametrize(
    "varkappa",
    [CoefficientFn(-1.0), CoefficientFn(0.0), CoefficientFn(1.0, 2000.0), CoefficientFn(float("nan"))],
    ids=["negative", "zero", "overflow", "nan"],
)
@pytest.mark.parametrize("build", [lambda vk: GKLinear(0.5, 0.3, vk), lambda vk: GKNonlinear(0.5, 0.3, vk, 0.4)],
                         ids=["gk", "gk_nonlinear"])
def test_gk_rate_and_limit_refuse_a_nonpositive_or_nonfinite_varkappa(build, varkappa):
    """The GK law reads its coefficients through energetics.Nonlocal, which
    refuses varkappa(theta) <= 0 or non-finite as every energetics function
    does (varkappa = 2**2000 overflows at theta = 2, with no warning)."""
    m, s = build(varkappa), state(theta=2.0, q=EX, grad_theta=EX, grad_q=np.eye(3), nonlocal_q=EX)
    with pytest.raises(SingularParameterError, match="varkappa"):
        flux_rate(m, s)
    with pytest.raises(SingularParameterError, match="varkappa"):
        reduce_limit(m, "mcv", theta_ref=2.0)


def test_gk_nonlinear_at_delta_zero_is_the_linear_law():
    """delta = 0 skips the nonlinear terms, so grad_q is not required and
    the rate has the bits of GKLinear's."""
    vk = CoefficientFn(1.3, 0.5)
    s = state(theta=np.array([0.7, 2.0]), q=[[1.0, -2.0, 0.5], [0.0, 0.3, -1.0]], grad_theta=EX, nonlocal_q=EX)
    lin, non = flux_rate(GKLinear(0.4, 0.2, vk), s), flux_rate(GKNonlinear(0.4, 0.2, vk, 0.0), s)
    assert lin.tobytes() == non.tobytes()


def test_degenerate_parameters_raise():
    with pytest.raises(DegenerateModelError):
        flux_rate(MCV(tau=0.0, kappa=1.0), state(q=EX, grad_theta=EX))
    with pytest.raises(DegenerateModelError):
        flux_rate(
            Burgers(lambda_b=0.0, tau=1.0, mu=1.0, nu=1.0),
            state(q=EX, qdot=EX, grad_theta=EX, grad_theta_dot=EX),
        )
    with pytest.raises(DegenerateModelError):
        flux_rate(
            GKLinear(tau=0.0, ell=1.0, varkappa=CoefficientFn(1.0)),
            state(q=EX, grad_theta=EX, nonlocal_q=EX),
        )


def test_missing_state_fields_raise_contract_error():
    with pytest.raises(ContractError):
        flux_rate(Jeffreys(tau=1.0, xi=1.0, kappa=1.0), state(q=EX, grad_theta=EX))
    with pytest.raises(ContractError):
        flux_rate(
            Quintanilla(tau=1.0, xi=1.0, kappa=2.0), state(q=EX, grad_theta=EX)
        )


def test_state_validation():
    with pytest.raises(InvalidInputError):
        ThermalState(theta=0.0)
    with pytest.raises(InvalidInputError):
        ThermalState(theta=-1.0)
    with pytest.raises(InvalidInputError):
        ThermalState(theta=1.0, q=[1.0, 2.0])
    with pytest.raises(InvalidInputError):
        ThermalState(theta=1.0, grad_q=np.zeros((2, 3)))


def test_material_constants_positive():
    assert MaterialConstants(2.0, 3.0).rho_cv == 6.0
    with pytest.raises(InvalidInputError):
        MaterialConstants(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_flux_rate_is_linear_in_the_state(seed, c1, c2):
    """Superposition: the rate of a linear combination of states is the same
    combination of the rates (temperature enters no linear law)."""
    rng = np.random.default_rng(seed)
    m = Jeffreys(tau=1.5, xi=2.0, kappa=0.5)

    def draw():
        return ThermalState(
            theta=1.0,
            q=rng.standard_normal(3),
            grad_theta=rng.standard_normal(3),
            grad_theta_dot=rng.standard_normal(3),
        )

    s1, s2 = draw(), draw()
    mix = ThermalState(
        theta=1.0,
        q=c1 * s1.q + c2 * s2.q,
        grad_theta=c1 * s1.grad_theta + c2 * s2.grad_theta,
        grad_theta_dot=c1 * s1.grad_theta_dot + c2 * s2.grad_theta_dot,
    )
    np.testing.assert_allclose(
        flux_rate(m, mix),
        c1 * flux_rate(m, s1) + c2 * flux_rate(m, s2),
        atol=1e-12,
    )


def test_reduce_limit_chain():
    b = Burgers(lambda_b=0.5, tau=2.0, mu=3.0, nu=1.5)
    j = reduce_limit(b, "jeffreys")
    assert isinstance(j, Jeffreys)
    assert j.tau == b.tau
    assert j.xi.xx == b.mu and j.kappa.xx == b.nu
    mcv = reduce_limit(j, "mcv")
    assert isinstance(mcv, MCV) and mcv.kappa.xx == j.xi.xx
    f = reduce_limit(mcv, "fourier")
    assert isinstance(f, Fourier) and f.kappa.xx == mcv.kappa.xx
    g = reduce_limit(Quintanilla(tau=1.0, xi=1.0, kappa=2.0), "gn3")
    assert isinstance(g, GN3)
    gk = GKLinear(tau=0.5, ell=0.2, varkappa=CoefficientFn(9.0))
    m = reduce_limit(gk, "mcv", theta_ref=3.0)
    assert isinstance(m, MCV) and m.tau == 0.5 and m.kappa.xx == pytest.approx(1.0)


def test_reduce_limit_unknown_target_raises():
    with pytest.raises(InvalidLimitError):
        reduce_limit(Fourier(kappa=1.0), "mcv")


def test_mcv_to_fourier_limit_commutes_with_flux_rate():
    """In the tau -> 0 limit the relaxed flux approaches the reduced law's
    flux: solving q from q + kappa*grad = 0 matches the Fourier rate."""
    m = MCV(tau=1e-8, kappa=2.0)
    g = np.array([1.0, -2.0, 0.5])
    q_relaxed = -m.kappa.apply(g)  # fixed point of the rate law
    s = state(q=q_relaxed, grad_theta=g)
    np.testing.assert_allclose(flux_rate(m, s), np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(
        q_relaxed, flux_rate(reduce_limit(m, "fourier"), state(grad_theta=g))
    )


def test_burgers_from_mixture_parameters():
    b = burgers_from_mixture(tau1=1.0, tau2=2.0, k1=3.0, k2=4.0)
    assert b.lambda_b == 2.0
    assert b.tau == 3.0
    assert b.mu == 7.0
    assert b.nu == pytest.approx((1.0 * 4.0 + 2.0 * 3.0) / 3.0)
    with pytest.raises(InvalidInputError):
        burgers_from_mixture(0.0, 1.0, 1.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0)
)
def test_mixture_satisfies_dynamic_admissibility(tau1, tau2, k1, k2):
    """Two stable relaxing conductors always combine into parameters obeying
    nu*tau^2 >= lambda_b*mu."""
    b = burgers_from_mixture(tau1, tau2, k1, k2)
    assert b.nu * b.tau**2 - b.lambda_b * b.mu >= -1e-9 * max(1.0, b.nu * b.tau**2)


def test_coefficient_fn_forms():
    assert CoefficientFn(3.0)(7.0) == 3.0
    assert CoefficientFn(2.0, 2.0)(3.0) == 18.0
