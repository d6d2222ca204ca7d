"""The per-state energetics that the stacked path replaced, kept as a test
oracle, and the energetics helpers that only the tests use.

The oracle draws, evaluates and audits one state at a time, with the
arithmetic the stacked functions must reproduce bit for bit: 3-vector
products with @, Python float powers, and one np.sum and one max per
state's dissipation terms. It reads the parameter-level objects (energy
rows, Nonlocal coefficient formulas) from the program, which the stacking
does not touch.
"""
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from nonfourier.energetics import (
    Nonlocal,
    dissipation_residual,
    entropy_production,
    extra_entropy_flux,
    free_energy,
)
from nonfourier.models import GKLinear, GKNonlinear, Jeffreys, LocalModel, ModelParams, ThermalState
from nonfourier.tensors import InvalidInputError

# the rate paired with each free-energy block in the dissipation identity
_RATES = {"q": "qdot", "qdot": "qddot", "grad_theta": "grad_theta_dot"}


# --- test-only helpers -------------------------------------------------------

@dataclass(frozen=True)
class EnergyAudit:
    psi: float
    sigma: float
    k_flux: np.ndarray
    residual: float


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


def no_flow(k: np.ndarray, n: np.ndarray, tol: float = 1e-12) -> bool:
    return abs(float(np.asarray(k) @ np.asarray(n))) <= tol


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


# --- the per-state oracle ----------------------------------------------------

def _nonlocal(m: GKLinear, theta: float) -> Nonlocal:
    vk = m.varkappa.c * theta**m.varkappa.p
    return Nonlocal(m.tau, vk, m.ell**2, getattr(m, "delta", 0.0))


def _stack(form, s: ThermalState) -> np.ndarray:
    return np.concatenate([getattr(s, name) for name in form.fields])


def rate(m: ModelParams, s: ThermalState) -> np.ndarray:
    """The highest flux derivative from the rate law, on one state."""
    if isinstance(m, LocalModel):
        law = m.law
        *lower, top = law.a
        terms = [x if c == 1 else c * x for c, x in zip(lower, (s.q, s.qdot)) if c != 0]
        terms.append(law.b0.as_matrix() @ s.grad_theta)
        if law.b1 is not None:
            terms.append(law.b1.as_matrix() @ s.grad_theta_dot)
        total = sum(terms[1:], terms[0])
        return -total if top == 1 else -total / top
    th, gk = s.theta, _nonlocal(m, s.theta)
    nl = m.ell**2 * gk.vk * s.nonlocal_q
    if isinstance(m, GKNonlinear):
        nl = nl + 2.0 * m.delta * gk.vk * (s.grad_q @ s.q) + m.delta * gk.vk * np.trace(s.grad_q) * s.q
    return (-s.q - gk.vk / th**2 * s.grad_theta + nl) / m.tau


def sample_state(m: ModelParams, rng: np.random.Generator) -> ThermalState:
    """One state: theta, then grad_theta and the law's lower fields, 3 draws
    each (grad_q 9), and the top rate from the law."""
    theta = float(rng.uniform(0.5, 2.0))
    vec = lambda: rng.standard_normal(3)
    grad = vec()
    if isinstance(m, LocalModel):
        law, names = m.law, ("q", "qdot", "qddot")
        fields = {name: vec() for name in names[: law.order]}
        if law.b1 is not None:
            fields["grad_theta_dot"] = vec()
        top = names[law.order]
    else:
        fields = {"q": vec(), "grad_q": rng.standard_normal((3, 3)), "nonlocal_q": vec()}
        top = "qdot"
    base = ThermalState(theta=theta, grad_theta=grad, **fields)
    fields[top] = rate(m, base)
    return ThermalState(theta=theta, grad_theta=grad, **fields)


def psi(m: ModelParams, s: ThermalState, variant: str = "plus") -> float:
    th = s.theta
    if isinstance(m, GKLinear):
        gk = _nonlocal(m, th)
        return 0.5 * gk.tau * th / gk.vk * float(s.q @ s.q)
    P = m.energy[variant].P
    if P is None:
        return 0.0
    x = _stack(P, s)
    return 0.5 * float(x @ P.matrix @ x) / th


def sigma(m: ModelParams, s: ThermalState, variant: str = "plus") -> float:
    th = s.theta
    if isinstance(m, GKLinear):
        gk = _nonlocal(m, th)
        return gk.zeta(float(s.q @ s.q), float(np.sum(s.grad_q**2)), float(np.trace(s.grad_q)) ** 2)
    S = m.energy[variant].S
    if S is None:
        return 0.0
    x = _stack(S, s)
    return float(x @ S.matrix @ x) / th**2


def div_k(m: GKLinear, s: ThermalState) -> float:
    gk, div_q = _nonlocal(m, s.theta), float(np.trace(s.grad_q))
    delta_terms = (float((s.grad_q @ s.q) @ s.q), float(s.q @ s.q) * div_q) if gk.delta else (None, None)
    return gk.div_k(float(np.sum(s.grad_q**2)), div_q**2, float(s.nonlocal_q @ s.q), *delta_terms)


def terms(m: ModelParams, s: ThermalState, variant: str = "plus") -> np.ndarray:
    """The addends of the reduced entropy equality, on one state."""
    th = s.theta
    if isinstance(m, GKLinear):
        gk = _nonlocal(m, th)
        return np.array([
            float(gk.psi_q(th, s.q) @ s.qdot) / th,
            float(s.q @ s.grad_theta) / th**2,
            div_k(m, s),
            sigma(m, s),
        ])
    P = m.energy[variant].P
    out = []
    if P is not None:
        g = (P.matrix @ _stack(P, s) / th).reshape(-1, 3)
        out = [float(gi @ getattr(s, _RATES[name])) for gi, name in zip(g, P.fields)]
    out += [float(s.q @ s.grad_theta) / th, th * sigma(m, s, variant)]
    return np.array(out)


def audit(m: ModelParams, rng: np.random.Generator, samples: int, variant: str = "plus") -> List[tuple]:
    """The per-state audit loop: (theta, psi, sigma, terms, residual,
    rel_residual) of each state in draw order."""
    rows = []
    for _ in range(samples):
        s = sample_state(m, rng)
        t = terms(m, s, variant)
        res = float(np.sum(t))
        rel = abs(res) / max(1e-300, float(np.abs(t).max()))
        rows.append((s.theta, psi(m, s, variant), sigma(m, s, variant), t, res, rel))
    return rows
