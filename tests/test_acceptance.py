"""Acceptance gate: every numbered criterion runs at its stated tolerance
and prints one pass/fail line (run with -s to see them live).

The criteria cross-validate independent implementations against each other:
the energy rows' entropy-production forms against the inequality checkers,
Routh-Hurwitz verdicts against numerically computed roots, discriminant
formulas against root products, the PDE solver against separated modal
solutions, and the entropy audits against the analytic steady profiles.
"""
import time

import numpy as np
import pytest

from nonfourier.consistency import check_burgers, check_burgers_full, check_quintanilla
from nonfourier.energetics import SingularParameterError, dissipation_terms, sample_state
from nonfourier.modal import SpectralProblem, mode_reports, routh_hurwitz_rows
from nonfourier.models import (
    MCV,
    GN2,
    GN3,
    Burgers,
    CoefficientFn,
    Fourier,
    GKLinear,
    Jeffreys,
    MaterialConstants,
    Quintanilla,
)
from nonfourier.pde1d import Grid1D, SimConfig, compare_modal_vs_pde, simulate, steady_gk_profile

from modal_oracle import mgt_discriminant

MAT = MaterialConstants(rho=1.0, cv=1.0)

# audits of the simulations run by criteria 5 and 6, re-read by criterion 8
_SIM_AUDITS = {}


def report(number, passed, detail, t0):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {detail} ({time.perf_counter() - t0:.2f}s)")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_quintanilla_checker_vs_quadratic_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n = 10_000
    taus = rng.uniform(0.05, 2.0, n)
    xis = rng.uniform(0.05, 2.0, n)
    kappas = rng.uniform(-2.0, 2.0, n)
    checked = 0
    mismatches = 0
    for tau, xi, kappa in zip(taus, xis, kappas):
        if abs(kappa - tau * xi) < 1e-8 or abs(kappa) < 1e-8:
            continue
        checked += 1
        m = Quintanilla(tau, xi, kappa)
        verdict = check_quintanilla(m)
        # tensors.is_psd's rule, on the sigma form's x-directed amplitudes
        a = m.energy["plus"].S.amplitudes()
        psd = np.linalg.eigvalsh(a)[0] >= -1e-8 * max(1.0, np.linalg.norm(a))
        if verdict.passed != psd:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        mismatches == 0 and elapsed < 5.0,
        f"{checked} draws, {mismatches} checker/PSD mismatches",
        t0,
    )


def test_criterion_2_burgers_checker_vs_quadratic_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    n = 10_000
    lams = rng.uniform(0.05, 2.0, n)
    taus = rng.uniform(0.05, 2.0, n)
    mus = rng.uniform(0.05, 2.0, n)
    nus = rng.uniform(0.05, 2.0, n)
    checked = 0
    mismatches = 0
    for lam, tau, mu, nu in zip(lams, taus, mus, nus):
        slack = nu * tau**2 - lam * mu
        denom = nu**2 * tau**2 + mu * slack
        if abs(slack) < 1e-8 or abs(denom) < 1e-8:
            continue
        checked += 1
        m = Burgers(lam, tau, mu, nu)
        verdict = check_burgers(m)
        try:
            a = m.energy["plus"].S.amplitudes()
        except SingularParameterError:
            checked -= 1
            continue
        psd = bool(np.linalg.eigvalsh(a).min() >= -1e-8)
        if verdict.passed != psd:
            mismatches += 1
    spot = check_burgers_full(Burgers(1.0, 2.0, 1.0, 1.0)).passed and not check_burgers_full(
        Burgers(1.0, 1.0, 2.0, 1.0)
    ).passed
    elapsed = time.perf_counter() - t0
    report(
        2,
        mismatches == 0 and spot and elapsed < 5.0,
        f"{checked} draws, {mismatches} mismatches, full-check spot tests {'ok' if spot else 'bad'}",
        t0,
    )


def test_criterion_3_routh_hurwitz_vs_roots():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    n = 100_000

    # quadratics: closed-form roots, vectorized
    q = rng.uniform(-2.0, 2.0, (n, 3))
    q = q[np.abs(q[:, 0]) > 1e-3]
    a2, a1, a0 = q[:, 0], q[:, 1], q[:, 2]
    disc = a1**2 - 4 * a2 * a0 + 0j
    r1 = (-a1 + np.sqrt(disc)) / (2 * a2)
    r2 = (-a1 - np.sqrt(disc)) / (2 * a2)
    max_re_q = np.maximum(r1.real, r2.real)
    keep = np.abs(max_re_q) > 1e-6
    rh_q = routh_hurwitz_rows(q[keep])
    mismatch_q = int(np.sum(rh_q != (max_re_q[keep] < 0)))

    # cubics: batched companion-matrix eigenvalues
    c = rng.uniform(-2.0, 2.0, (n, 4))
    c = c[np.abs(c[:, 0]) > 1e-3]
    m = c.shape[0]
    comp = np.zeros((m, 3, 3))
    comp[:, 1, 0] = 1.0
    comp[:, 2, 1] = 1.0
    comp[:, 0, :] = -c[:, 1:] / c[:, 0:1]
    roots = np.linalg.eigvals(comp)
    max_re_c = roots.real.max(axis=1)
    keep_c = np.abs(max_re_c) > 1e-6
    rh_c = routh_hurwitz_rows(c[keep_c])
    mismatch_c = int(np.sum(rh_c != (max_re_c[keep_c] < 0)))

    total = int(keep.sum() + keep_c.sum())
    elapsed = time.perf_counter() - t0
    report(
        3,
        mismatch_q == 0 and mismatch_c == 0 and elapsed < 10.0,
        f"{total} polynomials off the axis band, {mismatch_q + mismatch_c} RH/root mismatches",
        t0,
    )


def test_criterion_4_mgt_discriminant_vs_root_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    n = 10_000
    taus = rng.uniform(0.05, 2.0, n)
    kappas = rng.uniform(0.05, 2.0, n)
    xis = rng.uniform(0.05, 2.0, n)
    lts = rng.uniform(0.05, 20.0, n)

    # batched roots of tau w^3 + w^2 + lt kappa w + lt xi
    coeffs = np.stack([taus, np.ones(n), lts * kappas, lts * xis], axis=1)
    comp = np.zeros((n, 3, 3))
    comp[:, 1, 0] = 1.0
    comp[:, 2, 1] = 1.0
    comp[:, 0, :] = -coeffs[:, 1:] / coeffs[:, 0:1]
    roots = np.linalg.eigvals(comp)

    disc = mgt_discriminant(taus, kappas, xis, lts)
    prod = taus**4 * np.real(
        (roots[:, 0] - roots[:, 1]) ** 2
        * (roots[:, 0] - roots[:, 2]) ** 2
        * (roots[:, 1] - roots[:, 2]) ** 2
    )
    scale = np.maximum(np.abs(disc), np.abs(prod))
    clear = scale > 1e-9
    rel_err = np.abs(disc[clear] - prod[clear]) / scale[clear]
    value_ok = bool(rel_err.max() <= 1e-6)

    n_complex = np.sum(np.abs(roots.imag) > 1e-7 * np.abs(roots).max(axis=1)[:, None], axis=1)
    structure_clear = np.abs(disc) > 1e-9 * np.maximum(1.0, scale)
    sign_ok = bool(
        np.all((disc[structure_clear] < 0) == (n_complex[structure_clear] == 2))
    )

    unit_ok = bool(np.all(mgt_discriminant(1.0, 1.0, 1.0, np.geomspace(1.0, 1e4, 200)) < 0))
    elapsed = time.perf_counter() - t0
    report(
        4,
        value_ok and sign_ok and unit_ok and elapsed < 10.0,
        f"max relative defect {float(rel_err.max()):.2e}, "
        f"sign/structure {'ok' if sign_ok else 'bad'}, unit-parameter sweep {'ok' if unit_ok else 'bad'}",
        t0,
    )


@pytest.mark.parametrize(
    "label,model",
    [
        ("jeffreys", Jeffreys(tau=1.0, xi=1.0, kappa=0.5)),
        ("gn3", GN3(xi=1.0, kappa=0.5)),
        ("mgt", Quintanilla(tau=1.0, xi=1.0, kappa=2.0)),
        ("gn2", GN2(K=1.0)),
    ],
)
def test_criterion_5_pde_matches_modal_solution(label, model):
    t0 = time.perf_counter()
    cfg = SimConfig(
        model=model,
        material=MAT,
        grid=Grid1D(L=np.pi, N=200),
        dt=1e-4,
        t_end=1.0,
    )
    cmp = compare_modal_vs_pde(cfg, 1)
    # keep the audit of the same run for criterion 8
    traj = simulate(
        SimConfig(
            model=model,
            material=MAT,
            grid=cfg.grid,
            dt=cfg.dt,
            t_end=cfg.t_end,
            theta0=lambda x: np.sin(x),
        )
    )
    _SIM_AUDITS[f"c5-{label}"] = traj.audit
    elapsed = time.perf_counter() - t0
    report(
        5,
        cmp.linf_rel <= 1e-3 and elapsed < 30.0,
        f"{label}: Linf relative error vs modal solution {cmp.linf_rel:.2e}",
        t0,
    )


def test_criterion_6_mgt_stability_dichotomy():
    t0 = time.perf_counter()
    stable = Quintanilla(tau=1.0, xi=1.0, kappa=2.0)
    unstable = Quintanilla(tau=1.0, xi=1.0, kappa=0.5)
    problem = SpectralProblem(bc="dirichlet", L=np.pi, n_max=200)
    stable_ok = mode_reports(problem, stable).rh_pass.all()
    unstable_found = not mode_reports(problem, unstable).rh_pass.all()

    def run(model):
        return simulate(
            SimConfig(
                model=model,
                material=MAT,
                grid=Grid1D(L=np.pi, N=100),
                dt=1e-3,
                t_end=10.0,
                theta0=lambda x: np.sin(x),
            )
        )

    traj_s = run(stable)
    traj_u = run(unstable)
    _SIM_AUDITS["c6-stable"] = traj_s.audit
    amp_s, amp_u = traj_s.audit["max_amp"].max(), traj_u.audit["max_amp"].max()
    bounded = amp_s <= 1.0 + 1e-6
    grows = amp_u > 1.2
    elapsed = time.perf_counter() - t0
    report(
        6,
        stable_ok and unstable_found and bounded and grows and elapsed < 60.0,
        f"stable modes all RH-pass={stable_ok}, bounded to t=10 (amp {amp_s:.3f}); "
        f"unstable mode found={unstable_found}, growth to amp {amp_u:.3f}",
        t0,
    )


def test_criterion_7_dissipation_identity_on_random_states():
    t0 = time.perf_counter()
    n = 10_000
    rng = np.random.default_rng(707)
    worst = {}

    def scale(terms):
        return np.fmax(1.0, np.abs(terms).max(axis=-1))

    def rel(terms):
        return float((np.abs(np.sum(terms, axis=-1)) / scale(terms)).max())

    # each variant's n states are one stack, drawn as n single draws would be
    for label, model in (
        ("mcv", MCV(tau=0.7, kappa=2.0)),
        ("gn3", GN3(xi=1.5, kappa=2.0)),
        ("quintanilla", Quintanilla(tau=0.5, xi=1.0, kappa=2.0)),
        ("gk", GKLinear(tau=0.5, ell=0.3, varkappa=CoefficientFn(2.0, 1.0))),
    ):
        worst[label] = rel(dissipation_terms(model, sample_state(model, rng, size=n)))

    # the Jeffreys variants share one sampled state: plus, star, and the
    # half-weight mix of the two admissible (psi, sigma) pairs
    jeff = Jeffreys(tau=0.8, xi=2.0, kappa=0.5)
    s = sample_state(jeff, rng, size=n)
    tp, ts = dissipation_terms(jeff, s, "plus"), dissipation_terms(jeff, s, "star")
    mix = np.abs(0.5 * np.sum(tp, axis=-1) + 0.5 * np.sum(ts, axis=-1)) / np.fmax(scale(tp), scale(ts))
    worst.update({"jeffreys-plus": rel(tp), "jeffreys-star": rel(ts), "jeffreys-mix": float(mix.max())})

    overall = max(worst.values())
    elapsed = time.perf_counter() - t0
    report(
        7,
        overall <= 1e-9 and elapsed < 10.0,
        f"{n} states per variant, worst relative residual {overall:.2e}",
        t0,
    )


def test_criterion_8_simulations_keep_sigma_nonnegative():
    t0 = time.perf_counter()
    assert _SIM_AUDITS, "criteria 5 and 6 must run first"
    worst = 0.0
    for label, audit in _SIM_AUDITS.items():
        floor = -1e-8 * max(1e-300, float(audit["max_sigma"].max()))
        margin = float(audit["min_sigma"].min())
        worst = min(worst, margin - floor)
        assert margin >= floor, f"{label}: min sigma {margin:.3e} below floor {floor:.3e}"
    report(
        8,
        True,
        f"{len(_SIM_AUDITS)} passing-model simulations keep min sigma >= -1e-8*max sigma",
        t0,
    )


def test_criterion_9_gk_plug_profile_and_no_flow():
    t0 = time.perf_counter()
    grid = Grid1D(L=1.0, N=400)
    cfg = SimConfig(
        model=GKLinear(tau=0.0, ell=np.sqrt(1.0 / 300.0), varkappa=CoefficientFn(1.0)),
        material=MAT,
        grid=grid,
        dt=1e-2,
        t_end=0.1,
        theta_ref=1.0,
        imposed_gradient=1.0,
    )
    traj = simulate(cfg)
    oracle = steady_gk_profile(1.0, 1.0 / 300.0, 1.0, 1.0, traj.x)
    linf = float(np.abs(traj.fluxes[-1] - oracle).max())
    mid = float(np.interp(0.5, traj.x, traj.fluxes[-1]))
    k_wall = float(traj.audit["k_boundary"].max())
    elapsed = time.perf_counter() - t0
    passed = linf <= 1e-4 and abs(mid + 0.98653) <= 5e-4 and k_wall <= 1e-12 and elapsed < 60.0
    report(
        9,
        passed,
        f"Linf vs steady profile {linf:.2e}, midpoint {mid:.5f}, wall no-flow defect {k_wall:.1e}",
        t0,
    )


def _limit_gap(full_model, reduced_model):
    """Sup-norm distance over the whole trajectory (the transient layer near
    t of order the small parameter carries the leading-order gap)."""
    grid = Grid1D(L=np.pi, N=100)

    def run(model):
        return np.array(
            simulate(
                SimConfig(
                    model=model,
                    material=MAT,
                    grid=grid,
                    dt=1e-4,
                    t_end=1.0,
                    theta0=lambda x: np.sin(x),
                    snapshot_every=10,
                )
            ).thetas
        )

    return float(np.abs(run(full_model) - run(reduced_model)).max())


def test_criterion_10_singular_limits_converge():
    t0 = time.perf_counter()
    jeffreys = Jeffreys(tau=1.0, xi=1.0, kappa=0.5)
    gaps_b = {
        eps: _limit_gap(Burgers(lambda_b=eps, tau=1.0, mu=1.0, nu=0.5), jeffreys)
        for eps in (1e-2, 1e-3)
    }
    fourier = Fourier(kappa=1.0)
    gaps_m = {
        eps: _limit_gap(MCV(tau=eps, kappa=1.0), fourier) for eps in (1e-2, 1e-3)
    }
    close = gaps_b[1e-3] <= 1e-2 and gaps_m[1e-3] <= 1e-2
    # one decade in the small parameter shrinks the gap by roughly one decade
    rate_b = gaps_b[1e-2] / gaps_b[1e-3]
    rate_m = gaps_m[1e-2] / gaps_m[1e-3]
    first_order = 3.0 <= rate_b <= 30.0 and 3.0 <= rate_m <= 30.0
    elapsed = time.perf_counter() - t0
    report(
        10,
        close and first_order and elapsed < 60.0,
        f"Burgers->Jeffreys gaps {gaps_b[1e-2]:.2e}/{gaps_b[1e-3]:.2e} (ratio {rate_b:.1f}), "
        f"MCV->Fourier gaps {gaps_m[1e-2]:.2e}/{gaps_m[1e-3]:.2e} (ratio {rate_m:.1f})",
        t0,
    )
