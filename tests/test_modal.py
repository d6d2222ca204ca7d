import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonfourier import tensors
from nonfourier.modal import (
    MAX_MODES,
    InvalidKindError,
    RepeatedRootError,
    SpectralProblem,
    characteristic_polys,
    classify_modes,
    cubic_discriminant,
    laplacian_eigenvalues,
    modal_solution,
    mode_reports,
    routh_hurwitz_rows,
)
from nonfourier.models import (
    MCV,
    GN2,
    GN3,
    Burgers,
    CoefficientFn,
    Fourier,
    GKLinear,
    Jeffreys,
    Quintanilla,
)
from nonfourier.tensors import InvalidInputError, solve_poly, solve_polys

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


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("setup", [
    dict(n_max=MAX_MODES + 1), dict(n_max=10**11), dict(n_max=0), dict(L=np.inf), dict(L=np.nan),
    dict(rho_c=np.inf), dict(L=1e-300), dict(L=1e-310), dict(rho_c=1e-320),
], ids=["budget", "1e11", "zero", "L_inf", "L_nan", "rho_c_inf", "L_tiny", "L_subnormal", "rho_c_subnormal"])
def test_spectral_problem_refuses_sizes_and_overflow_before_any_array(bc, setup):
    """n_max beyond MAX_MODES, a non-finite L or rho_c, and a spectrum whose
    largest Lambda_tilde overflows are refused at construction, with no
    warning."""
    with pytest.raises(InvalidInputError):
        SpectralProblem(bc=bc, **{"L": np.pi, "n_max": 10, **setup})


def test_largest_spectrum_within_the_budget_is_built():
    s = mode_reports(SpectralProblem(bc="dirichlet", L=np.pi, n_max=MAX_MODES), Fourier(kappa=1.0))
    assert len(s) == MAX_MODES and np.isfinite(s.roots).all()


def _char_row(m, lam_tilde: float) -> tuple:
    """The one coefficient row of characteristic_polys at lam_tilde."""
    return tuple(characteristic_polys(m, [lam_tilde])[0].tolist())


def test_characteristic_polynomials():
    assert _char_row(Fourier(kappa=2.0), 3.0) == (1.0, 6.0)
    assert _char_row(MCV(tau=2.0, kappa=3.0), 1.0) == (2.0, 1.0, 3.0)
    assert _char_row(
        Jeffreys(tau=2.0, xi=3.0, kappa=1.0), 1.0
    ) == (2.0, 3.0, 3.0)
    assert _char_row(GN3(xi=2.0, kappa=3.0), 1.0) == (1.0, 3.0, 2.0)
    assert _char_row(
        Quintanilla(tau=1.0, xi=1.0, kappa=2.0), 1.0
    ) == (1.0, 1.0, 2.0, 1.0)
    assert _char_row(
        Burgers(lambda_b=1.0, tau=2.0, mu=7.0, nu=3.0), 1.0
    ) == (1.0, 2.0, 7.0, 7.0)


def test_characteristic_poly_rejects_unknown_and_negative():
    # GN2's law q_dot = -K grad(theta) gives s^2 + Lambda_tilde K
    assert _char_row(GN2(K=1.5), 2.0) == (1.0, 0.0, 3.0)
    with pytest.raises(InvalidKindError):
        _char_row(GKLinear(1.0, 0.1, CoefficientFn(1.0)), 1.0)
    with pytest.raises(InvalidInputError):
        _char_row(Fourier(kappa=1.0), -1.0)


@pytest.mark.parametrize("model, limit", [
    (MCV(tau=0.0, kappa=1.0), "tau = 0: reduce to the Fourier model"),
    (Jeffreys(tau=0.0, xi=1.0, kappa=1.0), "tau = 0: reduce to the Fourier model"),
    (Quintanilla(tau=0.0, xi=1.0, kappa=2.0), "tau = 0: reduce to the GN III model"),
    (Burgers(lambda_b=0.0, tau=1.0, mu=1.0, nu=1.0), "lambda_b = 0: reduce to the Jeffreys model"),
], ids=["MCV", "Jeffreys", "Quintanilla", "Burgers"])
def test_vanishing_top_coefficient_names_the_limit(model, limit):
    """A rate law whose top coefficient is 0 has no polynomial of its
    order; the refusal is the law's limit, as in the 1-D layer, not the
    root solver's "leading coefficient must be nonzero"."""
    with pytest.raises(InvalidKindError, match=f"^{limit}$"):
        characteristic_polys(model, [1.0])


def _rh(c) -> bool:
    return bool(routh_hurwitz_rows(np.array([c]))[0])


def test_routh_hurwitz_examples():
    assert _rh((1.0, 2.0, 3.0))
    assert not _rh((1.0, -2.0, 3.0))
    assert _rh((-1.0, -2.0, -3.0))
    assert _rh((1.0, 2.0, 3.0, 4.0))  # 2*3 > 4*1
    assert not _rh((1.0, 1.0, 1.0, 2.0))  # bridge fails
    assert not _rh((1.0, 0.0, 1.0, 1.0))
    # a zero leading coefficient is no polynomial of the row's degree
    with pytest.raises(InvalidInputError):
        solve_polys([(0.0, 1.0, 1.0)])


def test_routh_hurwitz_degree_one():
    assert _rh((1.0, 2.0))
    assert not _rh((1.0, -2.0))


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3))
def test_routh_hurwitz_agrees_with_roots(seed, degree):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-2.0, 2.0, degree + 1)
    if abs(coeffs[0]) < 1e-3:
        coeffs[0] = 1.0
    roots = solve_poly(coeffs)
    max_re = max(w.real for w in roots)
    if abs(max_re) < 1e-6:
        return  # too close to the imaginary axis to call either way
    assert _rh(coeffs) == (max_re < 0)


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


def test_cubic_discriminant_rows_have_the_scalar_bits():
    """One array pass gives each row the bits of the scalar formula in
    Python floats, over coefficients spanning e^-30 to e^30 in both signs."""
    rng = np.random.default_rng(24)
    c = rng.choice([-1.0, 1.0], (20000, 4)) * np.exp(rng.uniform(-30.0, 30.0, (20000, 4)))
    got = cubic_discriminant(*c.T)
    want = [oracle.cubic_discriminant(*row) for row in c.tolist()]
    assert [float(x).hex() for x in got] == [float(x).hex() for x in want]


@pytest.mark.parametrize("row", [[1.0, 1.0, 1e103, 1.0], [1e200, 1e200, 1.0, 1.0], [1e300, -1e300, 1e300, -1e300]])
def test_overflowing_cubic_discriminant_is_refused(row):
    """A discriminant that overflows (where the scalar formula raised
    OverflowError from a power) is refused, naming the coefficient scale,
    with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="coefficient scale out of range: the cubic discriminant"):
            cubic_discriminant(*np.array([[1.0] * 4, row]).T)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("L", [np.pi, 1.0, 0.37, 3e-5, 1e7])
def test_laplacian_eigenvalues_have_the_scalar_bits(bc, L):
    p = SpectralProblem(bc=bc, L=L, n_max=2000)
    start = 1 if bc == "dirichlet" else 0
    want = [(n * np.pi / L) ** 2 for n in range(start, start + p.n_max)]
    assert [x.hex() for x in laplacian_eigenvalues(p).tolist()] == [x.hex() for x in want]


def test_mgt_discriminant_matches_standard_form():
    for tau, kappa, xi, lt in [(1.0, 1.0, 1.0, 1.0), (0.5, 2.0, 0.7, 3.0), (2.0, 0.3, 1.5, 9.0)]:
        std = cubic_discriminant(tau, 1.0, lt * kappa, lt * xi)
        assert oracle.mgt_discriminant(tau, kappa, xi, lt) == pytest.approx(std, rel=1e-12)


def test_mgt_unit_parameters_always_oscillate():
    """tau = kappa = xi = 1 gives a negative discriminant (one real root plus
    a conjugate pair) at every positive eigenvalue."""
    for lt in np.geomspace(1e-3, 1e3, 50):
        assert oracle.mgt_discriminant(1.0, 1.0, 1.0, lt) < 0
    assert oracle.mgt_discriminant(1.0, 1.0, 1.0, 1.0) == pytest.approx(-16.0)


def test_classify_mode_examples():
    mk = lambda rs: classify_modes(np.array([rs], dtype=complex))[0]
    assert mk([-1.0 + 0j, -2.0 + 0j]) == "decaying"
    assert mk([-1.0 + 2j, -1.0 - 2j]) == "oscillatory_decaying"
    assert mk([2j, -2j]) == "neutral_oscillation"
    assert mk([1.0 + 0j, -1.0 + 0j]) == "unstable"
    assert mk([0j, -1.0 + 0j]) == "mixed"


def test_modal_solution_pure_decay():
    T = modal_solution((-1.0 + 0j,), [2.0])
    t = np.linspace(0.0, 3.0, 7)
    np.testing.assert_allclose(T(t), 2.0 * np.exp(-t), rtol=1e-12)


def test_modal_solution_cosine():
    # w = +-i with T(0) = 1, T'(0) = 0 gives cos t
    T = modal_solution((1j, -1j), [1.0, 0.0])
    t = np.linspace(0.0, 6.0, 13)
    np.testing.assert_allclose(T(t), np.cos(t), atol=1e-12)


def test_modal_solution_rejects_repeated_roots():
    with pytest.raises(RepeatedRootError):
        modal_solution((-1.0 + 0j, -1.0 + 1e-12j), [1.0, 0.0])
    with pytest.raises(InvalidInputError):
        modal_solution((-1.0 + 0j, -2.0 + 0j), [1.0])


def test_mode_report_mgt_first_mode():
    s = mode_reports(SpectralProblem(bc="dirichlet", L=np.pi, n_max=1), Quintanilla(tau=1.0, xi=1.0, kappa=2.0))
    assert s.Lambda.tolist() == [1.0]
    assert s.coeffs.tolist() == [[1.0, 1.0, 2.0, 1.0]]
    assert s.rh_pass.tolist() == [True]
    assert s.classification == ["oscillatory_decaying"]
    assert s.discriminant.tolist() == [pytest.approx(-23.0)]
    reals = s.roots[0][np.abs(s.roots[0].imag) <= 1e-9].real
    assert len(reals) == 1 and reals[0] == pytest.approx(-0.56984, abs=1e-4)


def test_mode_reports_cover_whole_spectrum():
    p = SpectralProblem(bc="dirichlet", L=np.pi, n_max=5, rho_c=2.0)
    s = mode_reports(p, MCV(tau=1.0, kappa=1.0))
    assert len(s) == 5 and s.n.tolist() == [1, 2, 3, 4, 5]
    assert s.Lambda_tilde[2] == pytest.approx(9.0 / 2.0)
    assert s.coeffs.shape == (5, 3) and s.roots.shape == (5, 2) and s.discriminant is None
    assert s.rh_pass.all()


def test_rh_dichotomy_for_mgt_family():
    """kappa > tau*xi stabilizes every mode; kappa < tau*xi destabilizes all
    of them (the bridge inequality is eigenvalue-independent here)."""
    stable = Quintanilla(tau=1.0, xi=1.0, kappa=2.0)
    unstable = Quintanilla(tau=1.0, xi=1.0, kappa=0.5)
    p = SpectralProblem(bc="dirichlet", L=np.pi, n_max=20)
    assert mode_reports(p, stable).rh_pass.all()
    assert not mode_reports(p, unstable).rh_pass.any()


def test_full_burgers_admissibility_implies_modal_stability():
    """Parameters passing the joint thermodynamic and dynamic check give
    Routh-Hurwitz stability at every eigenvalue."""
    from nonfourier.consistency import check_burgers_full

    rng = np.random.default_rng(0)
    p = SpectralProblem(bc="dirichlet", L=np.pi, n_max=30)
    found = 0
    while found < 20:
        lam, tau, mu, nu = rng.uniform(0.05, 3.0, 4)
        m = Burgers(lambda_b=lam, tau=tau, mu=mu, nu=nu)
        if not check_burgers_full(m).passed:
            continue
        found += 1
        assert mode_reports(p, m).rh_pass.all()


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


def _row_bits(row):
    """A mode's row, in modal_oracle.mode_report's field order, with every
    float by its hex form."""
    n, lam, lt, coeffs, roots, rh_pass, disc, cls = row
    return (n, _bits(lam), _bits(lt), _bits(coeffs), _bits(roots), rh_pass, _bits(disc), cls)


def _spectrum_rows(s):
    """The rows of a Spectrum's columns, each cell a Python scalar or tuple."""
    return zip(s.n.tolist(), s.Lambda.tolist(), s.Lambda_tilde.tolist(), map(tuple, s.coeffs.tolist()),
               map(tuple, s.roots.tolist()), s.rh_pass.tolist(), [None] * len(s) if s.discriminant is None else s.discriminant.tolist(),
               s.classification)


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
    """Each row of the spectrum's columns is, field for field and bit for
    bit, the report of the per-mode numpy.roots path it replaced."""
    p, m = case
    start = 1 if p.bc == "dirichlet" else 0
    pairs = list(zip(range(start, start + p.n_max), laplacian_eigenvalues(p)))
    want = [oracle.mode_report(m, n, lam, p.rho_c) for n, lam in pairs]
    got = mode_reports(p, m)
    assert len(got) == len(want)
    assert [_row_bits(r) for r in _spectrum_rows(got)] == [_row_bits(r) for r in want]


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
        want = oracle.solve_poly(row)
        assert _bits(tuple(roots)) == _bits(want)
        assert _bits(solve_poly(row)) == _bits(want)


@pytest.mark.parametrize("row", [[1.0, 0.0, 4.0], [2.0, 0.0, 8.0, 0.0]])
def test_solve_polys_pure_imaginary_pair_matches_oracle(row):
    """x^2 + 4 (and 2x^3 + 8x) give the pair +-2i, whose zero real parts
    eigvals returns with opposite signs; both come back as +0.0, as the
    oracle's mean makes them."""
    got = solve_polys([row])[0]
    want = oracle.solve_poly(row)
    assert _bits(tuple(got)) == _bits(want)
    lo, hi = [r for r in got if r.imag != 0]
    assert _bits([lo.real, hi.real]) == _bits([0.0, 0.0])
    assert lo.imag == -hi.imag == pytest.approx(-2.0)


def test_solve_polys_polish_matches_oracle():
    """Rows whose companion roots miss the residual test get the oracle's
    Newton step; some rows here need it."""
    rng = np.random.default_rng(0)
    c = rng.choice([-1.0, 1.0], (3000, 4)) * 10.0 ** rng.uniform(-12, 12, (3000, 4))
    got = solve_polys(c)
    polished = 0
    for row, roots in zip(c, got):
        want = oracle.solve_poly(row)
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
    s = mode_reports(SpectralProblem(bc=bc, L=np.pi, n_max=50, rho_c=1.5), model)
    assert len(s) == 50
    assert len(calls) == 1 and calls[0][0] == 50


def test_mode_reports_build_no_object_per_mode(monkeypatch):
    """A 2500-mode spectrum goes to one Python-level call per row only for
    the rows that solve_polys polishes, and this one needs none: every
    column is one array or list."""
    polished = []
    polish = tensors._polish
    monkeypatch.setattr(tensors, "_polish", lambda c, roots: polished.append(c) or polish(c, roots))
    s = mode_reports(SpectralProblem(bc="dirichlet", L=np.pi, n_max=2500), Quintanilla(tau=1.0, xi=1.0, kappa=2.0))
    assert len(s) == 2500 and s.roots.shape == (2500, 3)
    assert polished == []
    for column in vars(s).values():
        assert isinstance(column, (np.ndarray, list)) and len(column) == 2500


def test_classify_modes_rows_match_classify_mode():
    roots = np.array([[-1.0, -2.0], [-1 + 2j, -1 - 2j], [2j, -2j], [1.0, -1.0], [0.0, -1.0], [1e-12 + 1j, 1e-12 - 1j]])
    want = ["decaying", "oscillatory_decaying", "neutral_oscillation", "unstable", "mixed", "neutral_oscillation"]
    assert classify_modes(roots) == want
    assert [oracle.classify_mode(tuple(r)) for r in roots.tolist()] == want
