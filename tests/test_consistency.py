import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonfourier.cli import run_check
from nonfourier.consistency import (
    ConsistencyVerdict,
    check_burgers,
    check_burgers_full,
    check_gk,
    check_gk_nonlinear,
    check_gk_params,
    check_gn3,
    check_jeffreys,
    check_quintanilla,
)
from nonfourier.energetics import SingularParameterError, burgers_case, entropy_production
from nonfourier.models import (
    GN2,
    GN3,
    MCV,
    Burgers,
    CoefficientFn,
    Fourier,
    GKLinear,
    GKNonlinear,
    Jeffreys,
    Quintanilla,
    ThermalState,
)
from nonfourier.tensors import InvalidInputError, SymTensor3, is_psd


def test_verdict_contract():
    with pytest.raises(InvalidInputError):
        ConsistencyVerdict(True, -1.0)
    with pytest.raises(InvalidInputError):
        ConsistencyVerdict(False, 0.0)


# --- Jeffreys -----------------------------------------------------------------

def test_jeffreys_proportional_passes():
    v = check_jeffreys(xi=2.0, kappa=1.0)
    assert v.passed
    assert "beta=0.5" in v.case_tag


def test_jeffreys_nonproportional_fails():
    v = check_jeffreys(xi=np.diag([1.0, 2.0, 3.0]), kappa=np.diag([1.0, 1.0, 1.0]))
    assert not v.passed
    assert v.failure_mode == "sign"
    assert "proportional" in v.failed_condition


def test_jeffreys_indefinite_xi_fails():
    v = check_jeffreys(xi=np.diag([1.0, -1.0, 1.0]), kappa=1.0)
    assert not v.passed
    assert "positive definite" in v.failed_condition


def test_jeffreys_zero_kappa_passes():
    # beta = 0 is admissible (pure relaxation)
    assert check_jeffreys(xi=1.0, kappa=0.0).passed


# --- GN III -------------------------------------------------------------------

def test_gn3_examples():
    assert check_gn3(xi=1.0, kappa=2.0).passed
    # indefinite nonsingular xi is fine, only kappa carries the sign condition
    assert check_gn3(xi=np.diag([1.0, -1.0, 2.0]), kappa=1.0).passed
    v = check_gn3(xi=np.diag([1.0, 1.0, 0.0]), kappa=1.0)
    assert not v.passed and v.failure_mode == "structural"
    v = check_gn3(xi=1.0, kappa=np.diag([1.0, 1.0, -0.5]))
    assert not v.passed and v.failure_mode == "sign"


# --- Quintanilla --------------------------------------------------------------

def test_quintanilla_examples():
    assert check_quintanilla(1.0, 1.0, 2.0).passed
    v = check_quintanilla(1.0, 1.0, 0.5)
    assert not v.passed and v.failure_mode == "sign"
    with pytest.raises(SingularParameterError):
        check_quintanilla(0.0, 1.0, 2.0)


def test_quintanilla_margin_is_gap_eigenvalue():
    v = check_quintanilla(1.0, 1.0, 3.0)
    assert v.margin == pytest.approx(2.0)


def _sigma_amplitudes(m):
    """rho*theta^2*sigma of the kind's energy row over (q, qdot, grad_theta)
    amplitudes along x."""
    return m.energy["plus"].S.amplitudes()


def _is_psd(a, tol=1e-10):
    return is_psd(SymTensor3.from_matrix(a), tol)


def test_quintanilla_sigma_amplitudes_example():
    a = _sigma_amplitudes(Quintanilla(1.0, 1.0, 2.0))
    np.testing.assert_allclose(a, [[0.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 4.0]])
    assert _is_psd(a)
    assert not _is_psd(_sigma_amplitudes(Quintanilla(1.0, 1.0, 0.5)))


def test_quintanilla_sigma_form_degenerate_raises():
    with pytest.raises(SingularParameterError):
        _sigma_amplitudes(Quintanilla(1.0, 1.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_quintanilla_checker_agrees_with_quadratic_form(seed):
    rng = np.random.default_rng(seed)
    tau = rng.uniform(0.05, 2.0)
    xi = rng.uniform(0.05, 2.0)
    kappa = rng.uniform(-2.0, 2.0)
    if abs(kappa - tau * xi) < 1e-8 or abs(kappa) < 1e-8:
        return
    verdict = check_quintanilla(tau, xi, kappa)
    psd = _is_psd(_sigma_amplitudes(Quintanilla(tau, xi, kappa)))
    assert verdict.passed == psd


def test_quintanilla_sign_failure_has_negative_sigma_witness():
    """For a sign-type failure the witness eigenvector seeds a state with
    sigma < 0."""
    v = check_quintanilla(1.0, 1.0, 0.5)
    assert v.witness is not None
    w = v.witness
    m = Quintanilla(tau=1.0, xi=1.0, kappa=0.5)
    e = np.array([1.0, 0.0, 0.0])
    s = ThermalState(theta=1.0, q=w[0] * e, qdot=w[1] * e, grad_theta=w[2] * e)
    assert entropy_production(m, s) < 0.0


def test_anisotropic_quintanilla_sign_failure_has_no_witness():
    """The energy row exists only for isotropic tensors; the verdict still
    comes back, without a witness."""
    v = check_quintanilla(1.0, np.diag([1.0, 1.0, 2.0]), np.diag([2.0, 2.0, 1.0]))
    assert not v.passed and v.failure_mode == "sign"
    assert v.witness is None


# --- Burgers ------------------------------------------------------------------

def test_burgers_regime_examples():
    v = check_burgers(1.0, 2.0, 1.0, 1.0)
    assert v.passed and v.case_tag == "iii"
    v = check_burgers(-1.0, 0.0, 1.0, 7.0)
    assert v.passed and v.case_tag == "i"
    v = check_burgers(1.0, 2.0, 0.0, 1.0)
    assert v.passed and v.case_tag == "ii"
    v = check_burgers(1.0, 1.0, 2.0, 1.0)
    assert not v.passed and v.case_tag == "iii" and v.failure_mode == "sign"


def test_burgers_degenerate_raises():
    with pytest.raises(SingularParameterError):
        check_burgers(0.0, 1.0, 1.0, 1.0)


def test_burgers_full_examples():
    assert check_burgers_full(1.0, 2.0, 1.0, 1.0).passed
    v = check_burgers_full(1.0, 1.0, 2.0, 1.0)
    assert not v.passed
    assert "nu*tau^2" in v.failed_condition
    # thermodynamically fine regime i parameters fail the dynamic conditions
    v = check_burgers_full(-1.0, 0.0, 1.0, 7.0)
    assert not v.passed and v.failure_mode == "dynamic"


def test_burgers_marginal_dead_band():
    v = check_burgers(1.0, 1e-13, 1.0, 1.0)
    assert v.marginal


@pytest.mark.parametrize("lambda_b", [1e8, -1e8, 1e5])
def test_burgers_checker_and_energetics_share_a_regime(lambda_b):
    """|lambda_b| does not widen the zero band of tau*nu = 1e-5: the checker
    and the free energy are both in regime iii. Nor does it loosen regime
    iii's test: for lambda_b > 0, nu tau^2 - lambda_b mu = 1e-5 - lambda_b is
    far below zero next to lambda_b mu, so the verdict fails with a witness
    of negative entropy production."""
    m = Burgers(lambda_b, 1.0, 1.0, 1e-5)
    v = check_burgers(lambda_b, 1.0, 1.0, 1e-5)
    assert v.case_tag == burgers_case(m) == "iii"
    assert v.passed == (lambda_b < 0)
    if not v.passed:
        e, w = np.array([1.0, 0.0, 0.0]), v.witness
        s = ThermalState(theta=1.0, q=w[0] * e, qdot=w[1] * e, grad_theta=w[2] * e)
        assert entropy_production(m, s) < 0.0


def test_burgers_regime_iii_passes_have_a_nonnegative_sigma_form():
    """Magnitudes over 14 decades, either sign: every regime-iii pass has a
    positive semidefinite sigma form, to rounding of its largest entry."""
    rng = np.random.default_rng(11)
    passes = 0
    for _ in range(4000):
        lam, tau, mu, nu = rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-6.0, 8.0, 4)
        v = check_burgers(lam, tau, mu, nu)
        if not v.passed or v.case_tag != "iii":
            continue
        ev = np.linalg.eigvalsh(_sigma_amplitudes(Burgers(lam, tau, mu, nu)))
        assert ev.min() >= -1e-9 * np.abs(ev).max(), (lam, tau, mu, nu)
        passes += 1
    assert passes > 500


def test_burgers_regimes_agree_on_a_seeded_draw():
    """Magnitudes over 22 decades, either sign: the checker's regime is the
    energetics' every time, and all three regimes occur."""
    rng = np.random.default_rng(7)
    tags = set()
    for _ in range(3000):
        lam, tau, mu, nu = rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-14.0, 8.0, 4)
        tag = burgers_case(Burgers(lam, tau, mu, nu))
        assert check_burgers(lam, tau, mu, nu).case_tag == tag
        tags.add(tag)
    assert tags == {"i", "ii", "iii"}


def test_burgers_sigma_amplitudes_example():
    a = _sigma_amplitudes(Burgers(1.0, 2.0, 1.0, 1.0))
    np.testing.assert_allclose(
        7.0 * a, [[3.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 4.0]], atol=1e-12
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_burgers_case_iii_checker_agrees_with_quadratic_form(seed):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.05, 2.0)
    tau = rng.uniform(0.05, 2.0)
    mu = rng.uniform(0.05, 2.0)
    nu = rng.uniform(0.05, 2.0)
    slack = nu * tau**2 - lam * mu
    d = nu**2 * tau**2 + mu * slack
    if abs(slack) < 1e-8 or abs(d) < 1e-8:
        return
    verdict = check_burgers(lam, tau, mu, nu)
    try:
        psd = _is_psd(_sigma_amplitudes(Burgers(lam, tau, mu, nu)), 1e-8)
    except SingularParameterError:
        return
    assert verdict.passed == psd


def test_burgers_sign_failure_has_negative_sigma_witness():
    v = check_burgers(1.0, 1.0, 2.0, 1.0)
    assert v.witness is not None
    m = Burgers(1.0, 1.0, 2.0, 1.0)
    e = np.array([1.0, 0.0, 0.0])
    w = v.witness
    s = ThermalState(
        theta=1.0, q=w[0] * e, qdot=w[1] * e, grad_theta=w[2] * e
    )
    assert entropy_production(m, s) < 0.0


def test_burgers_sign_failure_with_singular_form_has_no_witness():
    """nu^2 tau^2 + mu (nu tau^2 - mu lambda_b) = 1 + 2 (1 - 1.5) = 0: the
    regime-iii free energy does not exist, so neither does a witness."""
    v = check_burgers(0.75, 1.0, 2.0, 1.0)
    assert not v.passed and v.case_tag == "iii" and v.failure_mode == "sign"
    assert v.witness is None


# --- weakly nonlocal ----------------------------------------------------------

def test_gk_derived_coefficients_pass():
    m = GKLinear(tau=1.0, ell=0.3, varkappa=CoefficientFn.power(2.0, 1.0))
    assert check_gk_params(m).passed


def test_gk_uncoupled_coefficients_fail():
    v = check_gk(
        ell=0.3,
        varkappa=lambda th: 2.0,
        kappa=lambda th: 2.0 / th**2,
        lambda2=lambda th: 0.09 * th,  # wrong theta dependence
    )
    assert not v.passed and v.failure_mode == "structural"


def test_gk_nonpositive_varkappa_fails():
    v = check_gk(
        ell=0.3,
        varkappa=lambda th: th - 5.0,
        kappa=lambda th: (th - 5.0) / th**2,
        lambda2=lambda th: 0.09 * (th - 5.0),
    )
    assert not v.passed and v.failure_mode == "sign"


def test_gk_nonlinear_derived_pass_and_broken_fail():
    m = GKNonlinear(tau=1.0, ell=0.3, varkappa=CoefficientFn.constant(2.0), delta=-0.4)
    v = check_gk_nonlinear(m.ell, m.varkappa, m.kappa, m.lambda2, m.mu, m.nu, m.delta)
    assert v.passed  # delta sign is unconstrained
    v = check_gk_nonlinear(
        m.ell, m.varkappa, m.kappa, m.lambda2, m.mu, lambda th: m.mu(th), m.delta
    )
    assert not v.passed and v.failed_condition == "mu != 2*nu"


@settings(max_examples=100, deadline=None)
@given(st.floats(0.1, 3.0), st.floats(0.01, 2.0), st.floats(0.1, 5.0))
def test_gk_coupling_identity_holds_for_any_power_law(p, ell, c):
    m = GKLinear(tau=1.0, ell=ell, varkappa=CoefficientFn.power(c, p))
    assert check_gk_params(m).passed


# --- monotonicity -------------------------------------------------------------

def test_quintanilla_margin_monotone_in_kappa():
    margins = [check_quintanilla(1.0, 1.0, k).margin for k in (1.5, 2.0, 3.0, 5.0)]
    assert margins == sorted(margins)


def test_burgers_full_margin_improves_with_nu():
    m1 = check_burgers_full(1.0, 1.0, 1.0, 1.1).margin
    m2 = check_burgers_full(1.0, 1.0, 1.0, 2.0).margin
    assert m2 > m1


# --- tolerance boundaries ------------------------------------------------------

def test_boundary_rounding_passes_as_marginal():
    """A pass whose margin rounds just below zero is tagged marginal."""
    v = check_quintanilla(1.0, 1.0, 0.9999999999999999)
    assert v.passed and v.marginal and v.margin < 0
    record = run_check(Fourier(kappa=-1e-12))
    assert record["pass"] == "true" and record["marginal"] == "true"


_POS = st.floats(0.05, 5.0)
_NEAR = st.floats(-1e-12, 1e-12)


@settings(max_examples=200, deadline=None)
@given(p=st.tuples(_POS, _POS, _POS, _POS), e=st.tuples(_NEAR, _NEAR))
def test_no_checker_raises_near_its_boundary(p, e):
    """Every kind's check returns a verdict, never an exception, for finite
    inputs within 1e-12 of one of its admissibility boundaries."""
    a, b, c, d = p
    e0, e1 = e
    models = [
        Fourier(kappa=e0),
        GN2(K=e0),
        MCV(tau=a, kappa=e0),
        Jeffreys(tau=a, xi=b, kappa=e0),
        Jeffreys(tau=a, xi=e0, kappa=e1),
        GN3(xi=b, kappa=e0),
        GN3(xi=e0, kappa=c),
        Quintanilla(tau=a, xi=b, kappa=a * b + e0),
        Burgers(lambda_b=a, tau=b, mu=c, nu=a * c / b**2 + e0),
        Burgers(lambda_b=a, tau=b, mu=e0, nu=c),
        Burgers(lambda_b=-a, tau=e0, mu=c, nu=d),
        GKLinear(tau=a, ell=b, varkappa=CoefficientFn.power(e0, c)),
        GKNonlinear(tau=a, ell=b, varkappa=CoefficientFn.power(e0, c), delta=d),
    ]
    for m in models:
        assert run_check(m)["pass"] in ("true", "false")
