import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonfourier.cli import run_check
from nonfourier.consistency import (
    CHECKS,
    ConsistencyVerdict,
    check_burgers,
    check_burgers_full,
    check_gk,
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
from nonfourier.tensors import InvalidInputError, SymTensor3, is_psd, psd_margin


def test_verdict_contract():
    with pytest.raises(InvalidInputError):
        ConsistencyVerdict(True, -1.0)
    with pytest.raises(InvalidInputError):
        ConsistencyVerdict(False, 0.0)


# --- Jeffreys -----------------------------------------------------------------

def test_jeffreys_proportional_passes():
    v = check_jeffreys(Jeffreys(tau=1.0, xi=2.0, kappa=1.0))
    assert v.passed
    assert "beta=0.5" in v.case_tag


def test_jeffreys_nonproportional_fails():
    v = check_jeffreys(Jeffreys(tau=1.0, xi=np.diag([1.0, 2.0, 3.0]), kappa=np.diag([1.0, 1.0, 1.0])))
    assert not v.passed
    assert v.failure_mode == "sign"
    assert "proportional" in v.failed_condition


def test_jeffreys_indefinite_xi_fails():
    v = check_jeffreys(Jeffreys(tau=1.0, xi=np.diag([1.0, -1.0, 1.0]), kappa=1.0))
    assert not v.passed
    assert "positive definite" in v.failed_condition


def test_jeffreys_zero_kappa_passes():
    # beta = 0 is admissible (pure relaxation)
    assert check_jeffreys(Jeffreys(tau=1.0, xi=1.0, kappa=0.0)).passed


# --- GN III -------------------------------------------------------------------

def test_gn3_examples():
    assert check_gn3(GN3(xi=1.0, kappa=2.0)).passed
    # indefinite nonsingular xi is fine, only kappa carries the sign condition
    assert check_gn3(GN3(xi=np.diag([1.0, -1.0, 2.0]), kappa=1.0)).passed
    v = check_gn3(GN3(xi=np.diag([1.0, 1.0, 0.0]), kappa=1.0))
    assert not v.passed and v.failure_mode == "structural"
    v = check_gn3(GN3(xi=1.0, kappa=np.diag([1.0, 1.0, -0.5])))
    assert not v.passed and v.failure_mode == "sign"


# --- GN II --------------------------------------------------------------------

def test_gn2_consistency_requires_a_nonsingular_k():
    assert CHECKS[GN2](GN2(K=1.0)).passed
    assert not CHECKS[GN2](GN2(K=np.diag([1.0, 1.0, 0.0]))).passed


# --- Quintanilla --------------------------------------------------------------

def test_quintanilla_examples():
    assert check_quintanilla(Quintanilla(1.0, 1.0, 2.0)).passed
    v = check_quintanilla(Quintanilla(1.0, 1.0, 0.5))
    assert not v.passed and v.failure_mode == "sign"
    with pytest.raises(SingularParameterError):
        check_quintanilla(Quintanilla(0.0, 1.0, 2.0))


def test_quintanilla_margin_is_gap_eigenvalue():
    v = check_quintanilla(Quintanilla(1.0, 1.0, 3.0))
    assert v.margin == pytest.approx(2.0)


def _sigma_amplitudes(m):
    """rho*theta^2*sigma of the kind's energy row over (q, qdot, grad_theta)
    amplitudes along x."""
    return m.energy["plus"].S.amplitudes()


def _is_psd(a):
    return is_psd(SymTensor3.from_matrix(a))


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
    verdict = check_quintanilla(Quintanilla(tau, xi, kappa))
    psd = _is_psd(_sigma_amplitudes(Quintanilla(tau, xi, kappa)))
    assert verdict.passed == psd


def test_quintanilla_sign_failure_has_negative_sigma_witness():
    """For a sign-type failure the witness eigenvector seeds a state with
    sigma < 0."""
    v = check_quintanilla(Quintanilla(1.0, 1.0, 0.5))
    assert v.witness is not None
    w = v.witness
    m = Quintanilla(tau=1.0, xi=1.0, kappa=0.5)
    e = np.array([1.0, 0.0, 0.0])
    s = ThermalState(theta=1.0, q=w[0] * e, qdot=w[1] * e, grad_theta=w[2] * e)
    assert entropy_production(m, s) < 0.0


def test_anisotropic_quintanilla_sign_failure_has_no_witness():
    """The energy row exists only for isotropic tensors; the verdict still
    comes back, without a witness."""
    v = check_quintanilla(Quintanilla(1.0, np.diag([1.0, 1.0, 2.0]), np.diag([2.0, 2.0, 1.0])))
    assert not v.passed and v.failure_mode == "sign"
    assert v.witness is None


# --- Burgers ------------------------------------------------------------------

def test_burgers_regime_examples():
    v = check_burgers(Burgers(1.0, 2.0, 1.0, 1.0))
    assert v.passed and v.case_tag == "iii"
    v = check_burgers(Burgers(-1.0, 0.0, 1.0, 7.0))
    assert v.passed and v.case_tag == "i"
    v = check_burgers(Burgers(1.0, 2.0, 0.0, 1.0))
    assert v.passed and v.case_tag == "ii"
    v = check_burgers(Burgers(1.0, 1.0, 2.0, 1.0))
    assert not v.passed and v.case_tag == "iii" and v.failure_mode == "sign"


def test_burgers_degenerate_raises():
    with pytest.raises(SingularParameterError):
        check_burgers(Burgers(0.0, 1.0, 1.0, 1.0))


def test_burgers_full_examples():
    assert check_burgers_full(Burgers(1.0, 2.0, 1.0, 1.0)).passed
    v = check_burgers_full(Burgers(1.0, 1.0, 2.0, 1.0))
    assert not v.passed
    assert "nu*tau^2" in v.failed_condition
    # thermodynamically fine regime i parameters fail the dynamic conditions
    v = check_burgers_full(Burgers(-1.0, 0.0, 1.0, 7.0))
    assert not v.passed and v.failure_mode == "dynamic"


@pytest.mark.parametrize("params", [(1e8, 1.0, 1.0, 1e-5), (1e-3, 1.0, 1e6, 1e-3)])
def test_burgers_full_tests_its_last_inequality_against_its_own_sides(params):
    """nu tau^2 - lambda_b mu is -1e8 and about -1e3 here: far outside a
    tolerance relative to the larger side, whatever lambda_b or mu alone."""
    v = check_burgers_full(Burgers(*params))
    assert not v.passed
    assert v.failed_condition == "nu*tau^2 >= lambda_b*mu" and v.failure_mode == "sign"
    assert v.margin < -1e2


@pytest.mark.parametrize("lam, tau, mu", [(3.0, 0.7, 1.9), (1e8, 1.0, 1.0), (0.01, 3.0, 1e6)])
def test_burgers_full_passes_its_boundary_within_rounding(lam, tau, mu):
    assert check_burgers_full(Burgers(lam, tau, mu, lam * mu / tau**2)).passed


def test_burgers_marginal_dead_band():
    v = check_burgers(Burgers(1.0, 1e-13, 1.0, 1.0))
    assert v.marginal


@pytest.mark.parametrize("lambda_b", [1e8, -1e8, 1e5])
def test_burgers_checker_and_energetics_share_a_regime(lambda_b):
    """|lambda_b| does not widen the zero band of tau*nu = 1e-5: the checker
    and the free energy are both in regime iii. Nor does it loosen regime
    iii's test: for lambda_b > 0, nu tau^2 - lambda_b mu = 1e-5 - lambda_b is
    far below zero next to lambda_b mu, so the verdict fails with a witness
    of negative entropy production."""
    m = Burgers(lambda_b, 1.0, 1.0, 1e-5)
    v = check_burgers(m)
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
        m = Burgers(lam, tau, mu, nu)
        v = check_burgers(m)
        if not v.passed or v.case_tag != "iii":
            continue
        ev = np.linalg.eigvalsh(_sigma_amplitudes(m))
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
        m = Burgers(lam, tau, mu, nu)
        tag = burgers_case(m)
        assert check_burgers(m).case_tag == tag
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
    verdict = check_burgers(Burgers(lam, tau, mu, nu))
    try:
        s = SymTensor3.from_matrix(_sigma_amplitudes(Burgers(lam, tau, mu, nu)))
        psd = psd_margin(s) >= -1e-8 * max(1.0, s.norm())  # is_psd's rule at a looser tolerance
    except SingularParameterError:
        return
    assert verdict.passed == psd


def test_burgers_sign_failure_has_negative_sigma_witness():
    v = check_burgers(Burgers(1.0, 1.0, 2.0, 1.0))
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
    v = check_burgers(Burgers(0.75, 1.0, 2.0, 1.0))
    assert not v.passed and v.case_tag == "iii" and v.failure_mode == "sign"
    assert v.witness is None


# --- weakly nonlocal ----------------------------------------------------------

def test_gk_derived_coefficients_pass():
    m = GKLinear(tau=1.0, ell=0.3, varkappa=CoefficientFn(2.0, 1.0))
    assert check_gk(m).passed


def test_gk_nonpositive_varkappa_fails():
    # varkappa is a field, not a method: the sign-changing function is its value
    v = check_gk(GKLinear(tau=1.0, ell=0.3, varkappa=lambda th: th - 5.0))
    assert not v.passed and v.failure_mode == "sign"


def test_gk_nonlinear_passes_for_either_sign_of_delta():
    for delta in (-0.4, 0.4):
        m = GKNonlinear(tau=1.0, ell=0.3, varkappa=CoefficientFn(2.0), delta=delta)
        v = CHECKS[GKNonlinear](m)
        assert v.passed and v.margin == 2.0


@settings(max_examples=100, deadline=None)
@given(st.floats(0.1, 3.0), st.floats(0.01, 2.0), st.floats(0.1, 5.0))
def test_gk_coupling_identity_holds_for_any_power_law(p, ell, c):
    m = GKLinear(tau=1.0, ell=ell, varkappa=CoefficientFn(c, p))
    assert check_gk(m).passed


# --- monotonicity -------------------------------------------------------------

def test_quintanilla_margin_monotone_in_kappa():
    margins = [check_quintanilla(Quintanilla(1.0, 1.0, k)).margin for k in (1.5, 2.0, 3.0, 5.0)]
    assert margins == sorted(margins)


def test_burgers_full_margin_improves_with_nu():
    m1 = check_burgers_full(Burgers(1.0, 1.0, 1.0, 1.1)).margin
    m2 = check_burgers_full(Burgers(1.0, 1.0, 1.0, 2.0)).margin
    assert m2 > m1


# --- tolerance boundaries ------------------------------------------------------

def test_boundary_rounding_passes_as_marginal():
    """A pass whose margin rounds just below zero is tagged marginal."""
    v = check_quintanilla(Quintanilla(1.0, 1.0, 0.9999999999999999))
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
        GKLinear(tau=a, ell=b, varkappa=CoefficientFn(e0, c)),
        GKNonlinear(tau=a, ell=b, varkappa=CoefficientFn(e0, c), delta=d),
    ]
    for m in models:
        assert run_check(m)["pass"] in ("true", "false")


# --- run_check records ---------------------------------------------------------

_RECORD_KEYS = ("pass", "case", "margin", "failed_condition", "failure_mode", "marginal")
_FULL_KEYS = ("full.pass", "full.margin", "full.failed_condition")

# every kind's pass, fail and boundary cases, each with the run_check record
# it must keep: no other test pins failed_condition, failure_mode, marginal,
# the full.* keys or a GN2 or gk record
_PINNED_RECORDS = {
    "fourier-pass": (Fourier(kappa=2.0), ("true", "", "2", "", "", "false")),
    "fourier-fail": (
        Fourier(kappa=np.diag([1.0, 1.0, -0.5])),
        ("false", "", "-0.5", "kappa not positive semidefinite", "sign", "false"),
    ),
    "fourier-marginal": (Fourier(kappa=-1e-12), ("true", "", "-1e-12", "", "", "true")),
    "gn2-pass": (GN2(K=-2.0), ("true", "", "8", "", "", "false")),
    "gn2-fail": (GN2(K=np.diag([1.0, 1.0, 0.0])), ("false", "", "0", "K singular", "structural", "false")),
    "mcv-pass": (MCV(tau=0.5, kappa=2.0), ("true", "", "2", "", "", "false")),
    "mcv-fail": (MCV(tau=0.5, kappa=0.0), ("false", "", "0", "kappa not positive definite", "sign", "false")),
    "jeffreys-pass": (Jeffreys(tau=0.8, xi=2.0, kappa=0.5), ("true", "beta=0.25", "0.25", "", "", "false")),
    "jeffreys-nonproportional": (
        Jeffreys(tau=0.8, xi=np.diag([1.0, 2.0, 3.0]), kappa=1.0),
        ("false", "", "-0.654653670708", "kappa not proportional to xi", "sign", "false"),
    ),
    "jeffreys-indefinite-xi": (
        Jeffreys(tau=0.8, xi=np.diag([1.0, -1.0, 1.0]), kappa=1.0),
        ("false", "", "-1", "xi not positive definite", "sign", "false"),
    ),
    "jeffreys-negative-beta": (
        Jeffreys(tau=0.8, xi=1.0, kappa=-1.0),
        ("false", "", "-1", "proportionality factor negative", "sign", "false"),
    ),
    "gn3-pass": (GN3(xi=np.diag([1.0, -1.0, 2.0]), kappa=1.0), ("true", "", "1", "", "", "false")),
    "gn3-singular-xi": (
        GN3(xi=np.diag([1.0, 1.0, 0.0]), kappa=1.0), ("false", "", "-1", "xi singular", "structural", "false"),
    ),
    "gn3-fail": (
        GN3(xi=1.0, kappa=np.diag([1.0, 1.0, -0.5])),
        ("false", "", "-0.5", "kappa not positive definite", "sign", "false"),
    ),
    "quintanilla-pass": (Quintanilla(tau=1.0, xi=1.0, kappa=2.0), ("true", "", "1", "", "", "false")),
    "quintanilla-fail": (
        Quintanilla(tau=1.0, xi=1.0, kappa=0.5),
        ("false", "", "-0.5", "kappa - tau*xi not positive semidefinite", "sign", "false"),
    ),
    "quintanilla-marginal": (
        Quintanilla(1, 1, 0.9999999999999999), ("true", "", "-1.11022302463e-16", "", "", "true"),
    ),
    "quintanilla-singular-xi": (
        Quintanilla(tau=1.0, xi=np.diag([1.0, 1.0, 0.0]), kappa=2.0),
        ("false", "", "-1", "xi singular", "structural", "false"),
    ),
    "quintanilla-anisotropic-fail": (
        Quintanilla(tau=1.0, xi=np.diag([1.0, 1.0, 2.0]), kappa=np.diag([2.0, 2.0, 1.0])),
        ("false", "", "-1", "kappa - tau*xi not positive semidefinite", "sign", "false"),
    ),
    "burgers-iii-pass": (
        Burgers(lambda_b=1.0, tau=2.0, mu=1.0, nu=1.0), ("true", "iii", "1", "", "", "false", "true", "1", ""),
    ),
    "burgers-iii-fail": (
        Burgers(lambda_b=1.0, tau=1.0, mu=2.0, nu=1.0),
        ("false", "iii", "-1", "regime iii needs mu > 0 and nu*tau^2 >= lambda_b*mu", "sign", "false",
         "false", "-1", "nu*tau^2 >= lambda_b*mu"),
    ),
    "burgers-iii-wide-fail": (
        Burgers(lambda_b=1e8, tau=1.0, mu=1.0, nu=1e-5),
        ("false", "iii", "-100000000", "regime iii needs mu > 0 and nu*tau^2 >= lambda_b*mu", "sign", "false",
         "false", "-100000000", "nu*tau^2 >= lambda_b*mu"),
    ),
    "burgers-i-pass": (
        Burgers(lambda_b=-1.0, tau=0.0, mu=1.0, nu=7.0),
        ("true", "i", "1", "", "", "false", "false", "-1", "lambda_b > 0"),
    ),
    "burgers-i-fail": (
        Burgers(lambda_b=1.0, tau=0.0, mu=1.0, nu=1.0),
        ("false", "i", "-1", "regime i needs mu > 0 and lambda_b < 0", "sign", "false",
         "false", "-1", "nu*tau^2 >= lambda_b*mu"),
    ),
    "burgers-full-tau-fail": (
        Burgers(lambda_b=1.0, tau=0.0, mu=0.0, nu=1.0),
        ("false", "i", "-1", "regime i needs mu > 0 and lambda_b < 0", "sign", "false", "false", "0", "tau > 0"),
    ),
    "burgers-ii-pass": (
        Burgers(lambda_b=1.0, tau=2.0, mu=0.0, nu=1.0), ("true", "ii", "1", "", "", "false", "true", "0", ""),
    ),
    "burgers-ii-fail": (
        Burgers(lambda_b=1.0, tau=2.0, mu=0.0, nu=-1.0),
        ("false", "ii", "-1", "regime ii needs nu > 0", "sign", "false", "false", "-4", "nu*tau^2 >= lambda_b*mu"),
    ),
    "burgers-marginal": (
        Burgers(1, 1e-13, 1, 1),
        ("false", "i", "-1", "regime i needs mu > 0 and lambda_b < 0", "sign", "true",
         "false", "-1", "nu*tau^2 >= lambda_b*mu"),
    ),
    "gk-pass": (
        GKLinear(tau=1.0, ell=0.3, varkappa=CoefficientFn(2.0, 1.0)), ("true", "", "2", "", "", "false"),
    ),
    "gk-fail": (
        GKLinear(tau=1.0, ell=0.3, varkappa=CoefficientFn(-1.0)),
        ("false", "", "-1", "varkappa not positive", "sign", "false"),
    ),
    "gk_nonlinear-pass": (
        GKNonlinear(tau=1.0, ell=0.3, varkappa=CoefficientFn(2.0), delta=-0.4),
        ("true", "", "2", "", "", "false"),
    ),
    "gk_nonlinear-fail": (
        GKNonlinear(tau=1.0, ell=0.3, varkappa=CoefficientFn(-2.0, 0.5), delta=0.4),
        ("false", "", "-6.32455532034", "varkappa not positive", "sign", "false"),
    ),
}


@pytest.mark.parametrize("case", list(_PINNED_RECORDS))
def test_run_check_records_are_pinned(case):
    """Every field of the record, Burgers' full.* keys included, in order."""
    model, values = _PINNED_RECORDS[case]
    keys = _RECORD_KEYS + (_FULL_KEYS if isinstance(model, Burgers) else ())
    assert list(run_check(model).items()) == list(zip(keys, values))


@pytest.mark.parametrize(
    "model, message",
    [
        (Quintanilla(tau=0.0, xi=1.0, kappa=2.0), "tau = 0: use the GN III checker"),
        (Burgers(lambda_b=0.0, tau=1.0, mu=1.0, nu=1.0), "lambda_b = 0: use the Jeffreys checker"),
        (GKLinear(tau=1.0, ell=0.3, varkappa=CoefficientFn(1.0, 1000.0)), r"varkappa\(theta\) must be finite"),
        (
            GKNonlinear(tau=1.0, ell=0.3, varkappa=CoefficientFn(1.0, 1000.0), delta=0.1),
            r"varkappa\(theta\) must be finite",
        ),
    ],
    ids=["quintanilla-tau0", "burgers-lambda0", "gk-overflow", "gk_nonlinear-overflow"],
)
def test_run_check_raises_on_a_singular_model(model, message):
    with pytest.raises(SingularParameterError, match=message):
        run_check(model)
