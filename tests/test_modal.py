import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonfourier.modal import (
    InvalidKindError,
    RepeatedRootError,
    SpectralProblem,
    characteristic_poly,
    classify_mode,
    classify_modes,
    cubic_discriminant,
    laplacian_eigenvalues,
    mgt_discriminant,
    modal_solution,
    mode_report,
    mode_reports,
    routh_hurwitz,
    routh_hurwitz_cubic,
    routh_hurwitz_quadratic,
)
from nonfourier.models import (
    MCV,
    GN2,
    GN3,
    Burgers,
    Fourier,
    Jeffreys,
    Quintanilla,
)
from nonfourier.tensors import InvalidInputError, Poly, RootSet, solve_poly, solve_polys

import modal_oracle as oracle


def test_dirichlet_spectrum_on_pi_interval():
    p = SpectralProblem(bc="dirichlet", L=np.pi, n_max=3)
    np.testing.assert_allclose(laplacian_eigenvalues(p), [1.0, 4.0, 9.0])


def test_neumann_spectrum_starts_at_zero():
    p = SpectralProblem(bc="neumann", L=np.pi, n_max=3)
    np.testing.assert_allclose(laplacian_eigenvalues(p), [0.0, 1.0, 4.0])


def test_spectral_problem_validation():
    with pytest.raises(InvalidInputError):
        SpectralProblem(bc="periodic", L=1.0, n_max=3)
    with pytest.raises(InvalidInputError):
        SpectralProblem(bc="dirichlet", L=-1.0, n_max=3)


def test_characteristic_polynomials():
    assert characteristic_poly(Fourier(kappa=2.0), 3.0).coeffs == (1.0, 6.0)
    assert characteristic_poly(MCV(tau=2.0, kappa=3.0), 1.0).coeffs == (2.0, 1.0, 3.0)
    assert characteristic_poly(
        Jeffreys(tau=2.0, xi=3.0, kappa=1.0), 1.0
    ).coeffs == (2.0, 3.0, 3.0)
    assert characteristic_poly(GN3(xi=2.0, kappa=3.0), 1.0).coeffs == (1.0, 3.0, 2.0)
    assert characteristic_poly(
        Quintanilla(tau=1.0, xi=1.0, kappa=2.0), 1.0
    ).coeffs == (1.0, 1.0, 2.0, 1.0)
    assert characteristic_poly(
        Burgers(lambda_b=1.0, tau=2.0, mu=7.0, nu=3.0), 1.0
    ).coeffs == (1.0, 2.0, 7.0, 7.0)


def test_characteristic_poly_rejects_unknown_and_negative():
    with pytest.raises(InvalidKindError):
        characteristic_poly(GN2(K=1.0), 1.0)
    with pytest.raises(InvalidInputError):
        characteristic_poly(Fourier(kappa=1.0), -1.0)


def test_routh_hurwitz_examples():
    assert routh_hurwitz_quadratic(1.0, 2.0, 3.0)
    assert not routh_hurwitz_quadratic(1.0, -2.0, 3.0)
    assert routh_hurwitz_quadratic(-1.0, -2.0, -3.0)
    assert routh_hurwitz_cubic(1.0, 2.0, 3.0, 4.0)  # 2*3 > 4*1
    assert not routh_hurwitz_cubic(1.0, 1.0, 1.0, 2.0)  # bridge fails
    assert not routh_hurwitz_cubic(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(InvalidInputError):
        routh_hurwitz_quadratic(0.0, 1.0, 1.0)


def test_routh_hurwitz_degree_one():
    assert routh_hurwitz(Poly((1.0, 2.0)))
    assert not routh_hurwitz(Poly((1.0, -2.0)))


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3))
def test_routh_hurwitz_agrees_with_roots(seed, degree):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-2.0, 2.0, degree + 1)
    if abs(coeffs[0]) < 1e-3:
        coeffs[0] = 1.0
    p = Poly(tuple(coeffs))
    roots = solve_poly(p).roots
    max_re = max(w.real for w in roots)
    if abs(max_re) < 1e-6:
        return  # too close to the imaginary axis to call either way
    assert routh_hurwitz(p) == (max_re < 0)


def test_cubic_discriminant_sign_examples():
    # (w+1)(w+2)(w+3): three distinct real roots, positive discriminant
    assert cubic_discriminant(1.0, 6.0, 11.0, 6.0) > 0
    # w^3 + w + 1: one real root, negative discriminant
    assert cubic_discriminant(1.0, 0.0, 1.0, 1.0) < 0
    # (w+1)^2 (w+2): repeated root, zero discriminant
    assert cubic_discriminant(1.0, 4.0, 5.0, 2.0) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cubic_discriminant_equals_root_product(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0, 4)
    if abs(a[0]) < 1e-2:
        a[0] = 1.0
    w = np.roots(a)
    prod = a[0] ** 4 * np.prod(
        [(w[i] - w[j]) ** 2 for i in range(3) for j in range(i + 1, 3)]
    )
    disc = cubic_discriminant(*a)
    assert disc == pytest.approx(float(np.real(prod)), rel=1e-6, abs=1e-9)


def test_mgt_discriminant_matches_standard_form():
    for tau, kappa, xi, lt in [(1.0, 1.0, 1.0, 1.0), (0.5, 2.0, 0.7, 3.0), (2.0, 0.3, 1.5, 9.0)]:
        std = cubic_discriminant(tau, 1.0, lt * kappa, lt * xi)
        assert mgt_discriminant(tau, kappa, xi, lt) == pytest.approx(std, rel=1e-12)


def test_mgt_unit_parameters_always_oscillate():
    """tau = kappa = xi = 1 gives a negative discriminant (one real root plus
    a conjugate pair) at every positive eigenvalue."""
    for lt in np.geomspace(1e-3, 1e3, 50):
        assert mgt_discriminant(1.0, 1.0, 1.0, lt) < 0
    assert mgt_discriminant(1.0, 1.0, 1.0, 1.0) == pytest.approx(-16.0)


def test_classify_mode_examples():
    mk = lambda rs: RootSet(tuple(rs))
    assert classify_mode(mk([-1.0 + 0j, -2.0 + 0j])) == "decaying"
    assert classify_mode(mk([-1.0 + 2j, -1.0 - 2j])) == "oscillatory_decaying"
    assert classify_mode(mk([2j, -2j])) == "neutral_oscillation"
    assert classify_mode(mk([1.0 + 0j, -1.0 + 0j])) == "unstable"
    assert classify_mode(mk([0j, -1.0 + 0j])) == "mixed"


def test_modal_solution_pure_decay():
    T = modal_solution(RootSet((-1.0 + 0j,)), [2.0])
    t = np.linspace(0.0, 3.0, 7)
    np.testing.assert_allclose(T(t), 2.0 * np.exp(-t), rtol=1e-12)


def test_modal_solution_cosine():
    # w = +-i with T(0) = 1, T'(0) = 0 gives cos t
    T = modal_solution(RootSet((1j, -1j)), [1.0, 0.0])
    t = np.linspace(0.0, 6.0, 13)
    np.testing.assert_allclose(T(t), np.cos(t), atol=1e-12)


def test_modal_solution_rejects_repeated_roots():
    with pytest.raises(RepeatedRootError):
        modal_solution(RootSet((-1.0 + 0j, -1.0 + 1e-12j)), [1.0, 0.0])
    with pytest.raises(InvalidInputError):
        modal_solution(RootSet((-1.0 + 0j, -2.0 + 0j)), [1.0])


def test_mode_report_mgt_first_mode():
    r = mode_report(Quintanilla(tau=1.0, xi=1.0, kappa=2.0), 1, 1.0, 1.0)
    assert r.poly.coeffs == (1.0, 1.0, 2.0, 1.0)
    assert r.rh_pass
    assert r.classification == "oscillatory_decaying"
    assert r.discriminant == pytest.approx(-23.0)
    reals = r.roots.real_roots(1e-9)
    assert len(reals) == 1 and reals[0] == pytest.approx(-0.56984, abs=1e-4)


def test_mode_reports_cover_whole_spectrum():
    p = SpectralProblem(bc="dirichlet", L=np.pi, n_max=5, rho_c=2.0)
    reports = mode_reports(p, MCV(tau=1.0, kappa=1.0))
    assert [r.n for r in reports] == [1, 2, 3, 4, 5]
    assert reports[2].Lambda_tilde == pytest.approx(9.0 / 2.0)
    assert all(r.rh_pass for r in reports)


def test_rh_dichotomy_for_mgt_family():
    """kappa > tau*xi stabilizes every mode; kappa < tau*xi destabilizes all
    of them (the bridge inequality is eigenvalue-independent here)."""
    stable = Quintanilla(tau=1.0, xi=1.0, kappa=2.0)
    unstable = Quintanilla(tau=1.0, xi=1.0, kappa=0.5)
    p = SpectralProblem(bc="dirichlet", L=np.pi, n_max=20)
    assert all(r.rh_pass for r in mode_reports(p, stable))
    assert not any(r.rh_pass for r in mode_reports(p, unstable))


def test_full_burgers_admissibility_implies_modal_stability():
    """Parameters passing the joint thermodynamic and dynamic check give
    Routh-Hurwitz stability at every eigenvalue."""
    from nonfourier.consistency import check_burgers_full

    rng = np.random.default_rng(0)
    p = SpectralProblem(bc="dirichlet", L=np.pi, n_max=30)
    found = 0
    while found < 20:
        lam, tau, mu, nu = rng.uniform(0.05, 3.0, 4)
        if not check_burgers_full(lam, tau, mu, nu).passed:
            continue
        found += 1
        m = Burgers(lambda_b=lam, tau=tau, mu=mu, nu=nu)
        assert all(r.rh_pass for r in mode_reports(p, m))


def _bits(x):
    """Exact identity of a report field: floats and complex parts by their
    hex form, so that -0.0 and 0.0 differ."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, (tuple, list)):
        return tuple(_bits(v) for v in x)
    if isinstance(x, (complex, np.complexfloating)):
        return (float(x.real).hex(), float(x.imag).hex())
    return float(x).hex()


def _report_bits(r):
    return (r.n, _bits(r.Lambda), _bits(r.Lambda_tilde), _bits(r.poly.coeffs), _bits(r.roots.roots),
            r.rh_pass, _bits(r.discriminant), r.classification)


# magnitudes below 1e-6 are left out: a root beyond ~1e154 made the per-mode
# path's residual test raise OverflowError from float ** degree
_param = st.one_of(
    st.floats(0.05, 3.0), st.floats(-1.0, 3.0).filter(lambda x: abs(x) >= 1e-6), st.sampled_from([0.0, 1.0])
)


@st.composite
def _spectral_cases(draw):
    """A temperature kind over a Dirichlet or Neumann spectrum. Some draws put
    a mode next to critical damping (a near-double root of the MCV or
    Jeffreys quadratic) or Quintanilla within 1e-9 of kappa = tau*xi."""
    p = SpectralProblem(
        bc=draw(st.sampled_from(["dirichlet", "neumann"])),
        L=draw(st.floats(0.3, 5.0)),
        n_max=draw(st.integers(1, 60)),
        rho_c=draw(st.floats(0.2, 3.0)),
    )
    kind = draw(st.sampled_from(["fourier", "mcv", "jeffreys", "gn3", "quintanilla", "burgers",
                                 "mcv_critical", "jeffreys_critical", "quintanilla_boundary"]))
    a, b, c, d = (draw(_param) for _ in range(4))
    eps = draw(st.sampled_from([0.0, 1e-15, -1e-12, 1e-9, 1e-6]))
    lts = [lam / p.rho_c for lam in laplacian_eigenvalues(p)]
    lt = max(lts[draw(st.integers(0, len(lts) - 1))], 1e-3)
    tau = abs(a) + 0.05
    m = {
        "fourier": lambda: Fourier(kappa=a),
        "mcv": lambda: MCV(tau=a if a != 0 else 1.0, kappa=b),
        "jeffreys": lambda: Jeffreys(tau=a if a != 0 else 1.0, xi=b, kappa=c),
        "gn3": lambda: GN3(xi=a, kappa=b),
        "quintanilla": lambda: Quintanilla(tau=a if a != 0 else 1.0, xi=b, kappa=c),
        "burgers": lambda: Burgers(lambda_b=a if a != 0 else 1.0, tau=b, mu=c, nu=d),
        # tau s^2 + s + lt*kappa has a double root at 4*tau*lt*kappa = 1
        "mcv_critical": lambda: MCV(tau=tau, kappa=(1.0 + eps) / (4.0 * tau * lt)),
        # tau s^2 + (1 + lt*tau*kappa) s + lt*xi: double root at xi = (1 + lt*tau*kappa)^2 / (4*tau*lt)
        "jeffreys_critical": lambda: Jeffreys(
            tau=tau, kappa=abs(b), xi=(1.0 + eps) * (1.0 + lt * tau * abs(b)) ** 2 / (4.0 * tau * lt)
        ),
        "quintanilla_boundary": lambda: Quintanilla(tau=tau, xi=abs(b) + 0.1, kappa=tau * (abs(b) + 0.1) * (1.0 + eps)),
    }[kind]()
    return p, m


@settings(max_examples=300, deadline=None)
@given(_spectral_cases())
def test_mode_reports_match_per_mode_oracle(case):
    """The batched spectral pass gives, field for field and bit for bit, the
    reports of the per-mode numpy.roots path it replaced."""
    p, m = case
    start = 1 if p.bc == "dirichlet" else 0
    pairs = list(zip(range(start, start + p.n_max), laplacian_eigenvalues(p)))
    want = [oracle.mode_report(m, n, lam, p.rho_c) for n, lam in pairs]
    got = mode_reports(p, m)
    assert [_report_bits(r) for r in got] == [_report_bits(r) for r in want]
    assert _report_bits(mode_report(m, *pairs[-1], p.rho_c)) == _report_bits(want[-1])


@st.composite
def _coefficient_rows(draw):
    """Rows of one degree: random coefficients, rows with trailing zeros,
    products of linear factors with a near-repeated root, and coefficients
    spread over 24 decades, whose companion roots may need the Newton step."""
    degree = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    c = rng.uniform(-2.0, 2.0, (n, degree + 1)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    roots = rng.uniform(-2.0, 2.0, (n, degree))
    roots[:, -1] = roots[:, 0] * (1.0 + rng.choice([0.0, 1e-14, 1e-10, 1e-7], n))
    products = np.array([np.poly(r) for r in roots]) * rng.uniform(0.5, 2.0, (n, 1))
    spread = rng.choice([-1.0, 1.0], (n, degree + 1)) * 10.0 ** rng.uniform(-12, 12, (n, degree + 1))
    pick = rng.random((n, 1))
    c = np.where(pick < 0.4, products, np.where(pick < 0.6, spread, c))
    zeros = rng.integers(0, degree + 1, n)
    c[np.arange(degree + 1) > degree - zeros[:, None]] = 0.0
    c[:, 0] = np.where(c[:, 0] == 0.0, 1.0, c[:, 0])
    return c


@settings(max_examples=300, deadline=None)
@given(_coefficient_rows())
def test_solve_polys_match_numpy_roots_oracle(c):
    """Each row's roots equal the scalar numpy.roots path bit for bit,
    including exact zero roots for trailing zero coefficients."""
    got = solve_polys(c)
    for row, roots in zip(c, got):
        want = oracle.solve_poly(Poly(tuple(row))).roots
        assert _bits(tuple(roots)) == _bits(want)
        assert _bits(solve_poly(Poly(tuple(row))).roots) == _bits(want)


def test_solve_polys_polish_matches_oracle():
    """Rows whose companion roots miss the residual test get the oracle's
    Newton step; some rows here need it."""
    rng = np.random.default_rng(0)
    c = rng.choice([-1.0, 1.0], (3000, 4)) * 10.0 ** rng.uniform(-12, 12, (3000, 4))
    got = solve_polys(c)
    polished = 0
    for row, roots in zip(c, got):
        want = oracle.solve_poly(Poly(tuple(row))).roots
        assert _bits(tuple(roots)) == _bits(want)
        polished += _bits(want) != _bits(oracle.pair_conjugates(np.roots(row)))
    assert polished > 0


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("model", [
    Fourier(kappa=0.8), MCV(tau=0.3, kappa=1.7), Jeffreys(tau=0.8, xi=2.0, kappa=0.5), GN3(xi=1.5, kappa=2.0),
    Quintanilla(tau=1.0, xi=1.0, kappa=0.5), Burgers(lambda_b=1.0, tau=1.0, mu=2.0, nu=1.0),
], ids=lambda m: type(m).__name__)
def test_mode_reports_solve_the_spectrum_with_one_eigvals_call(monkeypatch, model, bc):
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    reports = mode_reports(SpectralProblem(bc=bc, L=np.pi, n_max=50, rho_c=1.5), model)
    assert len(reports) == 50
    assert len(calls) == 1 and calls[0][0] == 50


def test_classify_modes_rows_match_classify_mode():
    roots = np.array([[-1.0, -2.0], [-1 + 2j, -1 - 2j], [2j, -2j], [1.0, -1.0], [0.0, -1.0], [1e-12 + 1j, 1e-12 - 1j]])
    want = ["decaying", "oscillatory_decaying", "neutral_oscillation", "unstable", "mixed", "neutral_oscillation"]
    assert classify_modes(roots) == want
    assert [classify_mode(RootSet(tuple(r))) for r in roots.tolist()] == want
    assert classify_modes(roots, tol=0.0)[-1] == "unstable"
