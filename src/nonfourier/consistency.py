"""Mechanized thermodynamic-consistency checks.

Each checker takes the model it judges and returns a ConsistencyVerdict
carrying the smallest slack among its inequalities, a tag for which
parameter regime applied, and, for sign-type failures of the Quintanilla and
Burgers checks, a witness amplitude vector along which the entropy
production of the kind's own energy row goes negative. ``CHECKS`` maps each
model kind to its proposition.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from .energetics import ZERO_BAND, SingularParameterError, burgers_case, burgers_scale
from .models import MCV, GN2, GN3, Burgers, Fourier, GKLinear, GKNonlinear, Jeffreys, LocalModel, Quintanilla
from .tensors import DEFAULT_TOL, InvalidInputError, is_nonsingular, is_pd, is_psd, psd_margin

@dataclass(frozen=True)
class ConsistencyVerdict:
    passed: bool
    margin: float
    case_tag: str = ""
    failed_condition: str = ""
    # "sign": a state with sigma < 0 exists; "structural": a formula
    # precondition is broken; "dynamic": stability, not entropy, fails
    failure_mode: str = ""
    marginal: bool = False
    witness: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.passed and self.margin < 0 and not self.marginal:
            raise InvalidInputError("pass verdict requires nonnegative margin")
        if not self.passed and not self.failed_condition:
            raise InvalidInputError("fail verdict requires a failed condition")


def _witness(m: LocalModel) -> Optional[np.ndarray]:
    """Unit amplitude vector over (q, qdot, grad_theta) along which the
    x-directed entropy production of the kind's energy row is most negative;
    None if it is nowhere negative or the row cannot be built (a singular
    parameter combination, or an anisotropic Quintanilla)."""
    try:
        a = m.energy["plus"].S.amplitudes()
    except InvalidInputError:
        return None
    vals, vecs = np.linalg.eigh(a)
    if vals[0] < 0:
        return vecs[:, 0]
    return None


# --- proportionality and tensor-class checks ---------------------------------

def check_jeffreys(m: Jeffreys) -> ConsistencyVerdict:
    """Pass iff xi is positive definite and kappa = beta*xi for some beta >= 0.

    beta is the least-squares projection tr(kappa xi)/tr(xi xi); the
    proportionality test uses the projection residual, which is robust to
    zero entries.
    """
    xi, kappa = m.xi, m.kappa
    if not is_pd(xi):
        return ConsistencyVerdict(
            False, psd_margin(xi), failed_condition="xi not positive definite",
            failure_mode="sign",
        )
    xm, km = xi.as_matrix(), kappa.as_matrix()
    beta = float(np.sum(km * xm) / np.sum(xm * xm))
    resid = float(np.linalg.norm(km - beta * xm))
    scale = max(1.0, kappa.norm())
    if resid > DEFAULT_TOL * scale:
        return ConsistencyVerdict(
            False, -resid, failed_condition="kappa not proportional to xi",
            failure_mode="sign",
        )
    if beta < -DEFAULT_TOL:
        return ConsistencyVerdict(
            False, beta, failed_condition="proportionality factor negative",
            failure_mode="sign",
        )
    return ConsistencyVerdict(True, max(beta, 0.0), case_tag=f"beta={beta:.6g}")


def check_gn3(m: GN3) -> ConsistencyVerdict:
    """Pass iff xi is symmetric nonsingular (any signature) and kappa PD."""
    if not is_nonsingular(m.xi):
        return ConsistencyVerdict(
            False, -abs(m.xi.det()) - 1.0, failed_condition="xi singular",
            failure_mode="structural",
        )
    margin = psd_margin(m.kappa)
    if not is_pd(m.kappa):
        return ConsistencyVerdict(
            False, margin, failed_condition="kappa not positive definite",
            failure_mode="sign",
        )
    return ConsistencyVerdict(True, margin)


def check_quintanilla(m: Quintanilla) -> ConsistencyVerdict:
    """Pass iff xi is nonsingular and kappa - tau*xi is positive semidefinite
    (strictly, in the nondegenerate reading used here: positive definite up
    to tol). Margin is the smallest eigenvalue of kappa - tau*xi."""
    if m.tau == 0:
        raise SingularParameterError("tau = 0: use the GN III checker")
    if not is_nonsingular(m.xi):
        return ConsistencyVerdict(
            False, -1.0, failed_condition="xi singular", failure_mode="structural",
        )
    gap = m.kappa - m.tau * m.xi
    margin = psd_margin(gap)
    if not is_psd(gap):
        return ConsistencyVerdict(
            False, margin, failed_condition="kappa - tau*xi not positive semidefinite",
            failure_mode="sign", witness=_witness(m),
        )
    # within tol of the boundary the smallest eigenvalue may round below 0
    return ConsistencyVerdict(True, margin, marginal=margin < 0)


# --- Burgers regimes ---------------------------------------------------------

def check_burgers(m: Burgers) -> ConsistencyVerdict:
    """Thermodynamic admissibility of the two-relaxation-time law.

    One of three regimes must hold:
      i)   tau*nu = 0, mu > 0 and lambda_b < 0;
      ii)  tau*nu != 0, mu = 0 and nu > 0;
      iii) tau*nu != 0, mu > 0 and nu*tau**2 >= lambda_b*mu.
    The regime and the scale s of the sign tests are energetics.burgers_case's
    and burgers_scale's, whose exact-zero hypotheses use a relative dead-band;
    inputs within twice the band of it, but not exactly zero, come back
    tagged marginal. Regime iii's inequality is tested to tol relative to the
    larger of its two sides.
    """
    lambda_b, tau, mu, nu, tol = m.lambda_b, m.tau, m.mu, m.nu, DEFAULT_TOL
    if lambda_b == 0:
        raise SingularParameterError("lambda_b = 0: use the Jeffreys checker")
    case, scale = burgers_case(m), burgers_scale(m)
    band = ZERO_BAND * scale
    near_band = (0 < abs(tau * nu) <= 2 * band * scale) or (0 < abs(mu) <= 2 * band)

    if case == "i":
        margin = min(mu, -lambda_b)
        if mu > tol * scale and lambda_b < -tol * scale:
            return ConsistencyVerdict(True, margin, case_tag="i", marginal=near_band)
        return ConsistencyVerdict(
            False, margin, case_tag="i",
            failed_condition="regime i needs mu > 0 and lambda_b < 0",
            failure_mode="sign", marginal=near_band,
        )
    if case == "ii":
        if nu > tol * scale:
            return ConsistencyVerdict(True, nu, case_tag="ii", marginal=near_band)
        return ConsistencyVerdict(
            False, nu, case_tag="ii", failed_condition="regime ii needs nu > 0",
            failure_mode="sign", marginal=near_band,
        )
    slack = nu * tau**2 - lambda_b * mu
    margin = min(mu, slack)
    if mu > tol * scale and slack >= -tol * max(abs(nu * tau**2), abs(lambda_b * mu)):
        return ConsistencyVerdict(True, margin, case_tag="iii", marginal=near_band or margin < 0)
    return ConsistencyVerdict(
        False, margin, case_tag="iii",
        failed_condition="regime iii needs mu > 0 and nu*tau^2 >= lambda_b*mu",
        failure_mode="sign", marginal=near_band, witness=_witness(m),
    )


def check_burgers_full(m: Burgers) -> ConsistencyVerdict:
    """Joint thermodynamic and dynamic admissibility: mu >= 0, nu > 0,
    lambda_b > 0, tau > 0 and nu*tau**2 >= lambda_b*mu. Margin is the
    smallest slack among the five inequalities. Each inequality has its own
    tolerance: mu's sign is tested to DEFAULT_TOL at check_burgers' scale,
    the last inequality to DEFAULT_TOL relative to the larger of its two
    sides, as in check_burgers' regime iii, and the strict ones exactly."""
    lambda_b, tau, mu, nu, tol = m.lambda_b, m.tau, m.mu, m.nu, DEFAULT_TOL
    lead, rest = nu * tau**2, lambda_b * mu
    # each condition's slack, and whether it holds to its own tolerance
    checks = {
        "mu >= 0": (mu, mu >= -tol * burgers_scale(m)),
        "nu > 0": (nu, nu > 0),
        "lambda_b > 0": (lambda_b, lambda_b > 0),
        "tau > 0": (tau, tau > 0),
        "nu*tau^2 >= lambda_b*mu": (lead - rest, lead - rest >= -tol * max(abs(lead), abs(rest))),
    }
    margin = min(slack for slack, _ in checks.values())
    failed = {name: slack for name, (slack, ok) in checks.items() if not ok}
    if not failed:
        return ConsistencyVerdict(True, max(margin, 0.0))
    mode = "sign" if (mu < 0 or nu <= 0 or lead < rest) else "dynamic"
    return ConsistencyVerdict(False, margin, failed_condition=min(failed, key=failed.get), failure_mode=mode)


# --- weakly nonlocal model ---------------------------------------------------

# the temperatures the sign of varkappa is sampled at
_THETAS = np.geomspace(1.0, 10.0, 32)
_THETAS.flags.writeable = False


def check_gk(m: GKLinear) -> ConsistencyVerdict:
    """Pass iff varkappa > 0, sampled on 32 log-spaced temperatures in
    [1, 10] in one call. The law's coefficients are energetics.Nonlocal's,
    all derived from varkappa, so their functional coupling holds by
    construction and is not tested; the sign of delta is unconstrained.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        vk = np.broadcast_to(m.varkappa(_THETAS), _THETAS.shape)  # a constant may return a scalar
    if not np.isfinite(vk).all():
        raise SingularParameterError("varkappa(theta) must be finite")
    if np.any(vk <= 0):
        return ConsistencyVerdict(
            False, float(vk.min()), failed_condition="varkappa not positive",
            failure_mode="sign",
        )
    return ConsistencyVerdict(True, float(vk.min()))


# --- kind -> proposition -------------------------------------------------------

def _verdict(ok: bool, margin: float, condition: str, mode: str) -> ConsistencyVerdict:
    # a pass within tolerance of the boundary may carry a margin just below 0
    return ConsistencyVerdict(
        ok, margin,
        failed_condition="" if ok else condition, failure_mode="" if ok else mode,
        marginal=ok and margin < 0,
    )


# GN2's law q_dot = -K grad(theta) is dissipation-free for a constant,
# symmetric and nonsingular K; a parsed K is constant and symmetric
CHECKS: Dict[type, Callable[..., ConsistencyVerdict]] = {
    Fourier: lambda m: _verdict(is_psd(m.kappa), psd_margin(m.kappa), "kappa not positive semidefinite", "sign"),
    GN2: lambda m: _verdict(is_nonsingular(m.K), abs(m.K.det()), "K singular", "structural"),
    MCV: lambda m: _verdict(is_pd(m.kappa), psd_margin(m.kappa), "kappa not positive definite", "sign"),
    Jeffreys: check_jeffreys,
    GN3: check_gn3,
    Quintanilla: check_quintanilla,
    Burgers: check_burgers,
    GKLinear: check_gk,
    GKNonlinear: check_gk,
}
