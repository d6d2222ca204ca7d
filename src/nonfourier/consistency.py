"""Mechanized thermodynamic-consistency checks.

Each checker returns a ConsistencyVerdict carrying the smallest slack among
its inequalities, a tag for which parameter regime applied, and, for
sign-type failures of the Quintanilla and Burgers checks, a witness
amplitude vector along which the entropy production of the kind's own
energy row goes negative.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .energetics import ZERO_BAND, SingularParameterError, burgers_case, burgers_scale
from .models import Burgers, GKLinear, LocalModel, Quintanilla
from .tensors import (
    DEFAULT_TOL,
    InvalidInputError,
    coerce_tensor,
    is_nonsingular,
    is_pd,
    is_psd,
    psd_margin,
)

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
    except (SingularParameterError, InvalidInputError):
        return None
    vals, vecs = np.linalg.eigh(a)
    if vals[0] < 0:
        return vecs[:, 0]
    return None


# --- proportionality and tensor-class checks ---------------------------------

def check_jeffreys(xi, kappa, tol: float = DEFAULT_TOL) -> ConsistencyVerdict:
    """Pass iff xi is positive definite and kappa = beta*xi for some beta >= 0.

    beta is the least-squares projection tr(kappa xi)/tr(xi xi); the
    proportionality test uses the projection residual, which is robust to
    zero entries.
    """
    xi = coerce_tensor(xi)
    kappa = coerce_tensor(kappa)
    if not is_pd(xi, tol):
        return ConsistencyVerdict(
            False, psd_margin(xi), failed_condition="xi not positive definite",
            failure_mode="sign",
        )
    xm, km = xi.as_matrix(), kappa.as_matrix()
    beta = float(np.sum(km * xm) / np.sum(xm * xm))
    resid = float(np.linalg.norm(km - beta * xm))
    scale = max(1.0, kappa.norm())
    if resid > tol * scale:
        return ConsistencyVerdict(
            False, -resid, failed_condition="kappa not proportional to xi",
            failure_mode="sign",
        )
    if beta < -tol:
        return ConsistencyVerdict(
            False, beta, failed_condition="proportionality factor negative",
            failure_mode="sign",
        )
    return ConsistencyVerdict(True, max(beta, 0.0), case_tag=f"beta={beta:.6g}")


def check_gn3(xi, kappa, tol: float = DEFAULT_TOL) -> ConsistencyVerdict:
    """Pass iff xi is symmetric nonsingular (any signature) and kappa PD."""
    xi = coerce_tensor(xi)
    kappa = coerce_tensor(kappa)
    if not is_nonsingular(xi, tol):
        return ConsistencyVerdict(
            False, -abs(xi.det()) - 1.0, failed_condition="xi singular",
            failure_mode="structural",
        )
    m = psd_margin(kappa)
    if not is_pd(kappa, tol):
        return ConsistencyVerdict(
            False, m, failed_condition="kappa not positive definite",
            failure_mode="sign",
        )
    return ConsistencyVerdict(True, m)


def check_quintanilla(tau: float, xi, kappa, tol: float = DEFAULT_TOL) -> ConsistencyVerdict:
    """Pass iff xi is nonsingular and kappa - tau*xi is positive semidefinite
    (strictly, in the nondegenerate reading used here: positive definite up
    to tol). Margin is the smallest eigenvalue of kappa - tau*xi."""
    if tau == 0:
        raise SingularParameterError("tau = 0: use the GN III checker")
    xi = coerce_tensor(xi)
    kappa = coerce_tensor(kappa)
    if not is_nonsingular(xi, tol):
        return ConsistencyVerdict(
            False, -1.0, failed_condition="xi singular", failure_mode="structural",
        )
    gap = kappa - tau * xi
    m = psd_margin(gap)
    if not is_psd(gap, tol):
        return ConsistencyVerdict(
            False, m, failed_condition="kappa - tau*xi not positive semidefinite",
            failure_mode="sign", witness=_witness(Quintanilla(tau, xi, kappa)),
        )
    # within tol of the boundary the smallest eigenvalue may round below 0
    return ConsistencyVerdict(True, m, marginal=m < 0)


# --- Burgers regimes ---------------------------------------------------------

def check_burgers(
    lambda_b: float, tau: float, mu: float, nu: float, tol: float = DEFAULT_TOL
) -> ConsistencyVerdict:
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
    if lambda_b == 0:
        raise SingularParameterError("lambda_b = 0: use the Jeffreys checker")
    m = Burgers(lambda_b, tau, mu, nu)
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


def check_burgers_full(
    lambda_b: float, tau: float, mu: float, nu: float, tol: float = DEFAULT_TOL
) -> ConsistencyVerdict:
    """Joint thermodynamic and dynamic admissibility: mu >= 0, nu > 0,
    lambda_b > 0, tau > 0 and nu*tau**2 >= lambda_b*mu. Margin is the
    smallest slack among the five inequalities. Each inequality has its own
    tolerance: mu's sign is tested to tol at check_burgers' scale, the
    last inequality to tol relative to the larger of its two sides, as in
    check_burgers' regime iii, and the strict ones exactly."""
    lead, rest = nu * tau**2, lambda_b * mu
    # each condition's slack, and whether it holds to its own tolerance
    checks = {
        "mu >= 0": (mu, mu >= -tol * burgers_scale(Burgers(lambda_b, tau, mu, nu))),
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

def _default_theta_grid(theta_min: float = 1.0, theta_max: float = 10.0) -> np.ndarray:
    return np.geomspace(theta_min, theta_max, 32)


def _on_grid(theta_samples: Optional[Sequence[float]], *fns: Callable) -> Tuple[np.ndarray, ...]:
    """The temperature grid (default _default_theta_grid) and each
    coefficient function evaluated on the whole grid in one call; a
    constant one may return a scalar."""
    thetas = np.asarray(theta_samples if theta_samples is not None else _default_theta_grid(), dtype=float)
    return (thetas, *(np.broadcast_to(f(thetas), thetas.shape) for f in fns))


def check_gk(
    ell: float,
    varkappa: Callable[[np.ndarray], np.ndarray],
    kappa: Callable[[np.ndarray], np.ndarray],
    lambda2: Callable[[np.ndarray], np.ndarray],
    theta_samples: Optional[Sequence[float]] = None,
    tol: float = DEFAULT_TOL,
) -> ConsistencyVerdict:
    """The nonlocal coefficients must be functionally coupled:
    kappa(theta) * ell**2 * theta**2 == lambda2(theta), with varkappa > 0.

    The identity is sampled on a theta grid (default 32 log-spaced points)
    because the condition is functional, not algebraic; each coefficient
    function takes the whole grid as one array.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        thetas, vk = _on_grid(theta_samples, varkappa)
    if not np.isfinite(vk).all():
        raise SingularParameterError("varkappa(theta) must be finite")
    if np.any(vk <= 0):
        return ConsistencyVerdict(
            False, float(vk.min()), failed_condition="varkappa not positive",
            failure_mode="sign",
        )
    _, kv, lv = _on_grid(thetas, kappa, lambda2)
    defect = np.abs(kv * ell**2 * thetas**2 - lv)
    scale = max(1.0, float(np.abs(lv).max()), float(np.abs(kv).max()))
    worst = float(defect.max())
    if worst > tol * scale:
        return ConsistencyVerdict(
            False, -worst, failed_condition="kappa, lambda2 not functionally coupled",
            failure_mode="structural",
        )
    return ConsistencyVerdict(True, float(vk.min()))


def check_gk_params(m: GKLinear, theta_samples: Optional[Sequence[float]] = None) -> ConsistencyVerdict:
    """Convenience wrapper: derived coefficients pass by construction
    whenever varkappa stays positive on the sample grid."""
    return check_gk(m.ell, m.varkappa, m.kappa, m.lambda2, theta_samples)


def check_gk_nonlinear(
    ell: float,
    varkappa: Callable[[np.ndarray], np.ndarray],
    kappa: Callable[[np.ndarray], np.ndarray],
    lambda2: Callable[[np.ndarray], np.ndarray],
    mu: Callable[[np.ndarray], np.ndarray],
    nu: Callable[[np.ndarray], np.ndarray],
    delta: float,
    theta_samples: Optional[Sequence[float]] = None,
    tol: float = DEFAULT_TOL,
) -> ConsistencyVerdict:
    """Linear coupling plus mu = 2*nu and mu = 2*delta*varkappa; the sign of
    delta is unconstrained."""
    base = check_gk(ell, varkappa, kappa, lambda2, theta_samples, tol)
    if not base.passed:
        return base
    _, mv, nv, vk = _on_grid(theta_samples, mu, nu, varkappa)
    scale = max(1.0, float(np.abs(mv).max()), float(np.abs(vk).max()))
    if float(np.abs(mv - 2.0 * nv).max()) > tol * scale:
        return ConsistencyVerdict(
            False, -float(np.abs(mv - 2.0 * nv).max()),
            failed_condition="mu != 2*nu", failure_mode="structural",
        )
    if float(np.abs(mv - 2.0 * delta * vk).max()) > tol * scale:
        return ConsistencyVerdict(
            False, -float(np.abs(mv - 2.0 * delta * vk).max()),
            failed_condition="mu != 2*delta*varkappa", failure_mode="structural",
        )
    return ConsistencyVerdict(True, base.margin)
