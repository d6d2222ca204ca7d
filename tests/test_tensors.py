import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonfourier.tensors import (
    InvalidInputError,
    Poly,
    SymTensor3,
    coerce_tensor,
    is_nonsingular,
    is_pd,
    is_psd,
    psd_margin,
    solve_poly,
)
from tensors_oracle import cardano_cubic, is_psd_minors, principal_minors, representation_completion


def test_identity_is_psd_and_pd():
    eye = SymTensor3.isotropic(1.0)
    assert is_psd(eye)
    assert is_pd(eye)
    assert is_nonsingular(eye)


def test_negative_eigenvalue_rejected():
    assert not is_psd(SymTensor3(1.0, -1e-3, 0.0))


def test_quintanilla_proof_matrix_is_psd():
    # tau=1, xi=1, kappa=2, theta=1 gives the rank-one block matrix below
    a = SymTensor3(0.0, 1.0, 4.0, yz=2.0)
    assert is_psd(a)
    assert not is_pd(a)


def test_pd_vs_psd_boundary_cases():
    semidef = SymTensor3(1.0, 1.0, 0.0)
    assert is_psd(semidef)
    assert not is_pd(semidef)
    indef = SymTensor3(2.0, -1.0, 1.0)
    assert not is_pd(indef)
    assert is_nonsingular(indef)


def test_nonfinite_entries_rejected():
    with pytest.raises(InvalidInputError):
        SymTensor3(np.nan, 1.0, 1.0)
    # rejected before the symmetry check, whose tolerance would be infinite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError):
            SymTensor3.from_matrix(np.full((3, 3), np.inf))


def test_from_matrix_and_apply_refuse_wrong_shapes():
    with pytest.raises(InvalidInputError, match="expected 3x3 matrix"):
        SymTensor3.from_matrix(np.eye(2))
    with pytest.raises(InvalidInputError, match="expected 3-vectors"):
        SymTensor3.isotropic(1.0).apply([1.0, 2.0])


def test_norm_rescales_a_frobenius_norm_that_overflows():
    """Five entries of 1e160 square past the float range; the norm is
    recomputed scaled, with no warning, and is inf only if it is itself."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert SymTensor3(1e160, 1e160, 1e160, yz=1e160).norm() == pytest.approx(np.sqrt(5.0) * 1e160, rel=1e-15)
        assert SymTensor3.isotropic(1.5e308).norm() == np.inf


def test_from_matrix_requires_symmetry():
    with pytest.raises(InvalidInputError):
        SymTensor3.from_matrix([[1, 2, 0], [0, 1, 0], [0, 0, 1]])


def test_coerce_tensor_accepts_scalar_and_matrix():
    assert coerce_tensor(2.0).as_matrix()[1, 1] == 2.0
    t = coerce_tensor(np.diag([1.0, 2.0, 3.0]))
    assert t.zz == 3.0
    assert coerce_tensor(t) is t


def test_inverse_and_apply():
    t = SymTensor3(2.0, 4.0, 5.0)
    np.testing.assert_allclose(t.apply([1.0, 1.0, 1.0]), [2.0, 4.0, 5.0])


def test_principal_minors_count_and_values():
    minors = principal_minors(SymTensor3(1.0, 2.0, 3.0))
    assert minors.shape == (7,)
    np.testing.assert_allclose(minors, [1, 2, 3, 2, 3, 6, 6])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_psd_agrees_with_minors_oracle(seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, (3, 3))
    s = SymTensor3.from_matrix(0.5 * (m + m.T))
    tol = 1e-10
    # skip draws whose smallest eigenvalue sits inside the tolerance band
    if abs(psd_margin(s)) < 10 * tol:
        return
    assert is_psd(s) == is_psd_minors(s, tol)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_isotropic_value_matches_allclose(seed):
    """Perturbations straddle the atol 1e-8 + rtol 1e-5 * |c| band."""
    rng = np.random.default_rng(seed)
    c = float(rng.choice([0.0, 1.0, -3.0, 1e-9, 1e4])) * rng.uniform(0.5, 2.0)
    band = 1e-8 + 1e-5 * abs(c)
    off = rng.uniform(-2.0, 2.0, 6) * np.where(rng.random(6) < 0.5, band, 1e-8)
    off[0] = 0.0
    t = SymTensor3(*(np.array([c, c, c, 0.0, 0.0, 0.0]) + off))
    m = t.as_matrix()
    expected = float(m[0, 0]) if np.allclose(m, m[0, 0] * np.eye(3)) else None
    assert t.isotropic_value() == expected


def test_representation_completion_axis_aligned():
    z = representation_completion([1.0, 0.0, 0.0], 5.0, [9.0, 2.0, 3.0])
    np.testing.assert_allclose(z, [5.0, 2.0, 3.0])


def test_representation_completion_oblique():
    n = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    z = representation_completion(n, 0.0, [1.0, 0.0, 0.0])
    np.testing.assert_allclose(z, [0.5, -0.5, 0.0], atol=1e-14)


def test_representation_completion_rejects_zero_direction():
    with pytest.raises(InvalidInputError):
        representation_completion([0.0, 0.0, 0.0], 1.0, [1.0, 2.0, 3.0])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_representation_completion_projection_contract(seed):
    rng = np.random.default_rng(seed)
    nsrc = rng.standard_normal(3)
    if np.linalg.norm(nsrc) < 1e-6:
        return
    g = float(rng.standard_normal())
    big = rng.standard_normal(3)
    z = representation_completion(nsrc, g, big)
    n = nsrc / np.linalg.norm(nsrc)
    scale = max(1.0, abs(g), np.linalg.norm(big))
    assert abs(float(z @ n) - g) <= 1e-12 * scale


def test_solve_poly_pure_imaginary_pair():
    rs = solve_poly(Poly((1.0, 0.0, 1.0)))
    got = sorted(rs, key=lambda z: z.imag)
    assert got[0] == pytest.approx(-1j)
    assert got[1] == pytest.approx(1j)


def test_solve_poly_known_cubic():
    rs = solve_poly(Poly((1.0, 1.0, 2.0, 1.0)))
    reals = [r.real for r in rs if abs(r.imag) <= 1e-12]
    assert len(reals) == 1
    assert reals[0] == pytest.approx(-0.56984, abs=1e-4)
    pair = [r for r in rs if r.imag != 0]
    assert len(pair) == 2
    assert pair[0].real == pytest.approx(-0.21508, abs=1e-4)
    assert abs(pair[0].imag) == pytest.approx(1.30714, abs=1e-4)


def test_solve_poly_undamped_mode():
    # w^2 + 4 = 0, the dissipation-free limit of the second-order mode
    rs = solve_poly(Poly((1.0, 0.0, 4.0)))
    assert max(r.real for r in rs) == pytest.approx(0.0, abs=1e-12)
    assert sorted(abs(r.imag) for r in rs) == pytest.approx([2.0, 2.0])


def test_solve_poly_rejects_roots_beyond_the_residual_screen():
    # a root near -1e300: its square, in the screen's bound, overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="coefficient scale"):
            solve_poly(Poly((1e-300, 1.0, 1.0)))


def test_poly_rejects_degenerate_input():
    with pytest.raises(InvalidInputError):
        Poly((0.0, 1.0, 1.0))
    with pytest.raises(InvalidInputError):
        Poly((1.0,))
    with pytest.raises(InvalidInputError):
        Poly((1.0, np.nan))


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_solve_poly_residual_and_conjugate_symmetry(seed, degree):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-2.0, 2.0, degree + 1)
    if abs(coeffs[0]) < 1e-3:
        coeffs[0] = 1.0
    p = Poly(tuple(coeffs))
    rs = solve_poly(p)
    assert len(rs) == degree
    scale = max(abs(c) for c in p.coeffs)
    for w in rs:
        assert abs(p(w)) <= 1e-10 * scale * max(1.0, abs(w)) ** degree
    # complex roots must appear as exact conjugate pairs
    complex_roots = [w for w in rs if w.imag != 0]
    assert len(complex_roots) % 2 == 0
    for w in complex_roots:
        assert w.conjugate() in rs


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cubic_roots_match_cardano_oracle(seed):
    rng = np.random.default_rng(seed)
    a3, a2, a1, a0 = rng.uniform(-2.0, 2.0, 4)
    if abs(a3) < 1e-2:
        a3 = 1.0
    numeric = list(solve_poly(Poly((a3, a2, a1, a0))))
    closed = list(cardano_cubic(a3, a2, a1, a0))
    scale = max(1.0, max(abs(w) for w in closed))
    # pair each numeric root with its nearest closed-form root
    for u in numeric:
        v = min(closed, key=lambda z: abs(u - z))
        closed.remove(v)
        assert abs(u - v) <= 1e-6 * scale
