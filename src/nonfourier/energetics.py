"""Free energies, entropy productions and dissipation-identity audits.

Each model carries an explicit quadratic free energy (the q-dependent excess,
the purely thermal part is fixed to zero) and a matching entropy production.
``dissipation_residual`` evaluates the reduced entropy equality term by term;
it vanishes identically when the supplied rates come from the model's own
rate law, which is the machine-checkable form of thermodynamic consistency.

Sign conventions: all returned energies and productions are densities
(rho * psi, rho * sigma); the nonlocal model returns the internal supply
rho * zeta together with the extra entropy flux k.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np

from .models import (
    MCV,
    GN2,
    GN3,
    Burgers,
    Fourier,
    GKLinear,
    GKNonlinear,
    Jeffreys,
    LocalModel,
    ModelParams,
    Quintanilla,
    ThermalState,
    flux_rate,
)
from .tensors import InvalidInputError, SymTensor3, is_nonsingular


class SingularParameterError(ValueError):
    """A tensor combination required by a formula is singular."""


def _inv(t: SymTensor3, label: str) -> np.ndarray:
    if not is_nonsingular(t):
        raise SingularParameterError(f"{label} is singular")
    return np.linalg.inv(t.as_matrix())


def _quintanilla_scalars(m: Quintanilla) -> Tuple[float, float, float]:
    xi, kappa = m.xi.isotropic_value(), m.kappa.isotropic_value()
    if xi is None or kappa is None:
        raise InvalidInputError("xi, kappa: this formula is implemented for isotropic tensors")
    return m.tau, xi, kappa


@dataclass(frozen=True)
class PsiGradients:
    """Analytic partial derivatives of rho*psi with respect to the state."""

    q: np.ndarray
    qdot: np.ndarray
    grad_theta: np.ndarray


@dataclass(frozen=True)
class EnergyAudit:
    psi: float
    sigma: float
    k_flux: np.ndarray
    residual: float


@dataclass(frozen=True)
class BurgersPsiCoefficients:
    """Quadratic free-energy coefficients for the two-relaxation-time model.

    rho*psi = a1/2 |q|^2 + a2/2 |qdot|^2 + a3/2 |grad|^2
              + g1 qdot.q + g2 q.grad + g3 qdot.grad
    The admissible coefficient sets come in three parameter regimes, tagged
    "i" (tau*nu = 0, lambda_b < 0), "ii" (mu = 0) and "iii" (generic).
    """

    case_tag: str
    a1: float
    a2: float
    a3: float
    g1: float
    g2: float
    g3: float


def burgers_case(m: Burgers, zero_tol: float = 1e-12) -> str:
    """Which coefficient regime applies; '' if none does structurally."""
    scale = max(1.0, abs(m.tau), abs(m.nu), abs(m.mu))
    tn_zero = abs(m.tau * m.nu) <= zero_tol * scale**2
    mu_zero = abs(m.mu) <= zero_tol * scale
    if not tn_zero and not mu_zero:
        return "iii"
    if not tn_zero and mu_zero:
        return "ii"
    if tn_zero:
        return "i"
    return ""


def burgers_psi_coefficients(
    m: Burgers, theta: float, case: str | None = None
) -> BurgersPsiCoefficients:
    """Free-energy coefficients for the requested (or auto-detected) regime."""
    if m.lambda_b == 0:
        raise SingularParameterError("lambda_b = 0 has no second-order free energy")
    lam, tau, mu, nu = m.lambda_b, m.tau, m.mu, m.nu
    tag = case if case is not None else burgers_case(m)
    if tag == "i":
        if mu == 0:
            raise SingularParameterError("regime i needs mu != 0")
        a2 = 0.0
        g1 = lam / (mu * theta)
        a1 = tau / (mu * theta)
        g2 = g3 = a3 = 0.0
    elif tag == "ii":
        if nu * tau == 0:
            raise SingularParameterError("regime ii needs nu*tau != 0")
        a2 = lam**2 / (nu * tau * theta)
        g1 = (tau / lam) * a2
        a1 = ((tau**2 + lam) / lam**2) * a2
        g3 = (tau * nu / lam) * a2
        g2 = (tau * nu / lam) * g1
        a3 = (tau * nu / lam) * g3
    elif tag == "iii":
        d = nu**2 * tau**2 + mu * (nu * tau**2 - mu * lam)
        if d == 0 or nu * tau == 0:
            raise SingularParameterError("regime iii denominator vanishes")
        a2 = nu * tau * lam**2 / (theta * d)
        g1 = ((nu * tau**2 - mu * lam) / (nu * tau * lam)) * a2
        a1 = ((nu * tau**2 + (nu - mu) * lam) / (nu * lam**2)) * a2
        g3 = (tau * nu / lam) * a2
        g2 = (tau * nu / lam) * g1
        a3 = (tau * nu / lam) * g3
    else:
        raise SingularParameterError(f"no free-energy regime {tag!r} for these parameters")
    return BurgersPsiCoefficients(tag, a1, a2, a3, g1, g2, g3)


def burgers_sigma_matrix(m: Burgers, theta: float, case: str | None = None) -> np.ndarray:
    """Symmetric 3x3 coefficient matrix B over blocks (q, qdot, grad_theta).

    rho*theta*sigma = x' B x with x the per-direction amplitudes; derived by
    eliminating qddot from the dissipation identity with the rate law, so the
    identity closes for any admissible coefficient set by construction.
    """
    c = burgers_psi_coefficients(m, theta, case)
    lam, tau, mu = m.lambda_b, m.tau, m.mu
    b11 = c.g1 / lam
    b22 = (tau / lam) * c.a2 - c.g1
    b33 = (mu / lam) * c.g3
    b12 = 0.5 * ((c.a2 + tau * c.g1) / lam - c.a1)
    b13 = 0.5 * ((c.g3 + mu * c.g1) / lam - 1.0 / theta)
    b23 = 0.5 * ((tau * c.g3 + mu * c.a2) / lam - c.g2)
    return np.array([[b11, b12, b13], [b12, b22, b23], [b13, b23, b33]])


# --- free energy -------------------------------------------------------------

def free_energy(m: ModelParams, s: ThermalState, variant: str = "plus") -> float:
    """rho*psi excess over the purely thermal part (which is fixed to 0).

    For the two-flux-rate Jeffreys family, variant "plus" selects the
    (xi + kappa)-weighted energy and "star" the (xi - kappa)-weighted one.
    Anisotropic Jeffreys inputs assume kappa and xi commute (they do in every
    consistent parameter set, where kappa is proportional to xi).
    """
    th = s.theta
    if isinstance(m, Fourier):
        return 0.0
    if isinstance(m, GN2):
        return 0.5 / th * float(s.q @ _inv(m.K, "K") @ s.q)
    if isinstance(m, MCV):
        return 0.5 * m.tau / th * float(s.q @ _inv(m.kappa, "kappa") @ s.q)
    if isinstance(m, Jeffreys):
        v = s.q + m.kappa.apply(s.grad_theta)
        w = _jeffreys_weight(m, variant)
        return 0.5 * m.tau / th * float(v @ w @ v)
    if isinstance(m, GN3):
        v = s.q + m.kappa.apply(s.grad_theta)
        return 0.5 / th * float(v @ _inv(m.xi, "xi") @ v)
    if isinstance(m, Quintanilla):
        s.require("qdot")
        tau, xi, kappa = _quintanilla_scalars(m)
        den = kappa - tau * xi
        if xi == 0 or den == 0:
            raise SingularParameterError("xi = 0 or kappa = tau*xi")
        v = tau * s.qdot + kappa * s.grad_theta
        return 0.5 / th * (
            kappa / (den * xi) * float(v @ v) + float((s.q + 2.0 * v) @ s.q) / xi
        )
    if isinstance(m, Burgers):
        s.require("qdot")
        c = burgers_psi_coefficients(m, th)
        q, qd, g = s.q, s.qdot, s.grad_theta
        return (
            0.5 * c.a1 * float(q @ q)
            + 0.5 * c.a2 * float(qd @ qd)
            + 0.5 * c.a3 * float(g @ g)
            + c.g1 * float(qd @ q)
            + c.g2 * float(q @ g)
            + c.g3 * float(qd @ g)
        )
    if isinstance(m, GKLinear):
        vk = m.varkappa(th)
        if vk <= 0:
            raise SingularParameterError("varkappa(theta) must be positive")
        return 0.5 * m.tau * th / vk * float(s.q @ s.q)
    raise InvalidInputError(f"no free energy for {type(m).__name__}")


def _jeffreys_weight(m: Jeffreys, variant: str) -> np.ndarray:
    if variant == "plus":
        return _inv(m.xi + m.kappa, "xi + kappa")
    if variant == "star":
        return _inv(m.xi - m.kappa, "xi - kappa")
    raise InvalidInputError(f"unknown variant {variant!r}")


# --- entropy production ------------------------------------------------------

def entropy_production(m: ModelParams, s: ThermalState, variant: str = "plus") -> float:
    """rho*sigma; for the nonlocal model the internal supply rho*zeta."""
    th = s.theta
    g = s.grad_theta
    if isinstance(m, Fourier):
        return float(g @ m.kappa.as_matrix() @ g) / th**2
    if isinstance(m, GN2):
        return 0.0
    if isinstance(m, MCV):
        return float(s.q @ _inv(m.kappa, "kappa") @ s.q) / th**2
    if isinstance(m, Jeffreys):
        km = m.kappa.as_matrix()
        xm = m.xi.as_matrix()
        if variant == "plus":
            w = _inv(m.xi + m.kappa, "xi + kappa")
            return (float(s.q @ w @ s.q) + float(g @ km @ w @ xm @ g)) / th**2
        if variant == "star":
            w = _inv(m.xi - m.kappa, "xi - kappa")
            v = s.q + km @ g
            return (float(v @ w @ v) + float(g @ km @ g)) / th**2
        raise InvalidInputError(f"unknown variant {variant!r}")
    if isinstance(m, GN3):
        return float(g @ m.kappa.as_matrix() @ g) / th**2
    if isinstance(m, Quintanilla):
        s.require("qdot")
        tau, xi, kappa = _quintanilla_scalars(m)
        den = kappa - tau * xi
        if den == 0:
            raise SingularParameterError("kappa = tau*xi")
        v = tau * s.qdot + kappa * g
        return float(v @ v) / (th**2 * den)
    if isinstance(m, Burgers):
        s.require("qdot")
        b = burgers_sigma_matrix(m, th)
        x = np.array([s.q, s.qdot, g])
        gram = x @ x.T
        return float(np.sum(b * gram)) / th
    if isinstance(m, GKLinear):
        s.require("grad_q")
        vk = m.varkappa(th)
        if vk <= 0:
            raise SingularParameterError("varkappa(theta) must be positive")
        ell2 = m.ell**2
        div_q = float(np.trace(s.grad_q))
        return (
            float(s.q @ s.q) / vk
            + ell2 * float(np.sum(s.grad_q**2))
            + 2.0 * ell2 * div_q**2
        )
    raise InvalidInputError(f"no entropy production for {type(m).__name__}")


def extra_entropy_flux(m: GKLinear, s: ThermalState) -> np.ndarray:
    """Extra entropy flux k of the nonlocal model; zero for q = 0 states."""
    if not isinstance(m, GKLinear):
        raise InvalidInputError("extra entropy flux only exists for the nonlocal model")
    s.require("grad_q")
    ell2 = m.ell**2
    k = -ell2 * (s.grad_q @ s.q + 2.0 * float(np.trace(s.grad_q)) * s.q)
    if isinstance(m, GKNonlinear):
        k = k - m.delta * float(s.q @ s.q) * s.q
    return k


def no_flow(k: np.ndarray, n: np.ndarray, tol: float = 1e-12) -> bool:
    return abs(float(np.asarray(k) @ np.asarray(n))) <= tol


def gk_flux_divergence(m: GKLinear, s: ThermalState) -> float:
    """div k from the pointwise identity, reading grad_q and nonlocal_q."""
    s.require("grad_q", "nonlocal_q")
    ell2 = m.ell**2
    div_q = float(np.trace(s.grad_q))
    out = -ell2 * (
        float(np.sum(s.grad_q**2)) + 2.0 * div_q**2 + float(s.nonlocal_q @ s.q)
    )
    if isinstance(m, GKNonlinear):
        out -= m.delta * (
            2.0 * float((s.grad_q @ s.q) @ s.q) + float(s.q @ s.q) * div_q
        )
    return out


# --- analytic free-energy gradients ------------------------------------------

def psi_gradients(m: ModelParams, s: ThermalState, variant: str = "plus") -> PsiGradients:
    """(d rho*psi / dq, d rho*psi / dqdot, d rho*psi / dgrad_theta)."""
    th = s.theta
    z = np.zeros(3)
    if isinstance(m, Fourier):
        return PsiGradients(z, z, z)
    if isinstance(m, GN2):
        return PsiGradients(_inv(m.K, "K") @ s.q / th, z, z)
    if isinstance(m, MCV):
        return PsiGradients(m.tau / th * (_inv(m.kappa, "kappa") @ s.q), z, z)
    if isinstance(m, Jeffreys):
        km = m.kappa.as_matrix()
        w = _jeffreys_weight(m, variant)
        qv = w @ (s.q + km @ s.grad_theta)
        return PsiGradients(m.tau / th * qv, z, m.tau / th * (km @ qv))
    if isinstance(m, GN3):
        km = m.kappa.as_matrix()
        xi_inv = _inv(m.xi, "xi")
        v = s.q + km @ s.grad_theta
        return PsiGradients(xi_inv @ v / th, z, km @ xi_inv @ v / th)
    if isinstance(m, Quintanilla):
        s.require("qdot")
        tau, xi, kappa = _quintanilla_scalars(m)
        den = kappa - tau * xi
        if xi == 0 or den == 0:
            raise SingularParameterError("xi = 0 or kappa = tau*xi")
        v = tau * s.qdot + kappa * s.grad_theta
        common = kappa * v / (den * xi) + s.q / xi
        return PsiGradients(
            (s.q + v) / (xi * th), tau / th * common, kappa / th * common
        )
    if isinstance(m, Burgers):
        s.require("qdot")
        c = burgers_psi_coefficients(m, th)
        q, qd, g = s.q, s.qdot, s.grad_theta
        return PsiGradients(
            c.a1 * q + c.g1 * qd + c.g2 * g,
            c.a2 * qd + c.g1 * q + c.g3 * g,
            c.a3 * g + c.g2 * q + c.g3 * qd,
        )
    if isinstance(m, GKLinear):
        vk = m.varkappa(th)
        if vk <= 0:
            raise SingularParameterError("varkappa(theta) must be positive")
        return PsiGradients(m.tau * th / vk * s.q, z, z)
    raise InvalidInputError(f"no free-energy gradients for {type(m).__name__}")


# --- dissipation identity ----------------------------------------------------

def dissipation_terms(m: ModelParams, s: ThermalState, variant: str = "plus") -> np.ndarray:
    """Individual addends of the reduced entropy equality; their sum is the
    residual and the largest magnitude sets the natural relative scale.

    Local models: [dpsi_q . qdot, dpsi_qdot . qddot, dpsi_grad . grad_thdot,
    q.grad/theta, theta*sigma]. The nonlocal model divides the first two
    groups by theta and adds div k and zeta instead, matching its split form
    of the Second Law.
    """
    th = s.theta
    g = psi_gradients(m, s, variant)
    if isinstance(m, GKLinear):
        s.require("qdot")
        return np.array(
            [
                float(g.q @ s.qdot) / th,
                float(s.q @ s.grad_theta) / th**2,
                gk_flux_divergence(m, s),
                entropy_production(m, s),
            ]
        )
    law = m.law
    if law.order == 2:
        s.require("qdot", "qddot")
        terms = [float(g.q @ s.qdot), float(g.qdot @ s.qddot)]
    else:
        if law.order == 1:
            s.require("qdot")
        terms = [float(g.q @ (s.qdot if law.order else s.q))]
    if law.b1 is not None:
        s.require("grad_theta_dot")
        terms.append(float(g.grad_theta @ s.grad_theta_dot))
    terms.append(float(s.q @ s.grad_theta) / th)
    terms.append(th * entropy_production(m, s, variant))
    return np.array(terms)


def dissipation_residual(m: ModelParams, s: ThermalState, variant: str = "plus") -> float:
    """Defect of the reduced entropy equality; zero when the rates obey the
    model's own rate law."""
    return float(np.sum(dissipation_terms(m, s, variant)))


def convex_energy_family(
    m: Jeffreys, weight: float
) -> Tuple[Callable[[ThermalState], float], Callable[[ThermalState], float]]:
    """Convex mix of the two admissible Jeffreys (psi, sigma) pairs.

    Any 0 <= weight <= 1 gives another pair satisfying the dissipation
    identity, since the identity is linear in (psi, sigma).
    """
    if not 0.0 <= weight <= 1.0:
        raise InvalidInputError("weight must lie in [0, 1]")

    def psi(s: ThermalState) -> float:
        return weight * free_energy(m, s, "plus") + (1 - weight) * free_energy(m, s, "star")

    def sigma(s: ThermalState) -> float:
        return weight * entropy_production(m, s, "plus") + (1 - weight) * entropy_production(
            m, s, "star"
        )

    return psi, sigma


def mixed_dissipation_residual(m: Jeffreys, s: ThermalState, weight: float) -> float:
    if not 0.0 <= weight <= 1.0:
        raise InvalidInputError("weight must lie in [0, 1]")
    return weight * dissipation_residual(m, s, "plus") + (1 - weight) * dissipation_residual(
        m, s, "star"
    )


def sample_state(
    m: ModelParams,
    rng: np.random.Generator,
    theta_low: float = 0.5,
    theta_high: float = 2.0,
    amplitude: float = 1.0,
) -> ThermalState:
    """Random state whose rate fields come from the model's own rate law,
    so the dissipation identity should close on it to rounding error."""
    theta = float(rng.uniform(theta_low, theta_high))
    vec = lambda: amplitude * rng.standard_normal(3)
    grad = vec()
    if isinstance(m, LocalModel):
        # draw q and its derivatives below the law's top one, then
        # grad(theta_dot) if the law reads it; seeded audit output depends
        # on this order. The top derivative comes from the law.
        law, names = m.law, ("q", "qdot", "qddot")
        fields = {name: vec() for name in names[: law.order]}
        if law.b1 is not None:
            fields["grad_theta_dot"] = vec()
        rate = names[law.order]
    elif isinstance(m, GKLinear):
        fields = {"q": vec(), "grad_q": amplitude * rng.standard_normal((3, 3)), "nonlocal_q": vec()}
        rate = "qdot"
    else:
        raise InvalidInputError(f"no state sampler for {type(m).__name__}")
    base = ThermalState(theta=theta, grad_theta=grad, **fields)
    fields[rate] = flux_rate(m, base)
    return ThermalState(theta=theta, grad_theta=grad, **fields)


def energy_audit(
    m: ModelParams, s: ThermalState, variant: str = "plus", with_residual: bool = True
) -> EnergyAudit:
    k = extra_entropy_flux(m, s) if isinstance(m, GKLinear) else np.zeros(3)
    res = dissipation_residual(m, s, variant) if with_residual else float("nan")
    return EnergyAudit(
        psi=free_energy(m, s, variant),
        sigma=entropy_production(m, s, variant),
        k_flux=k,
        residual=res,
    )
