"""Parameter sets and constitutive rate laws for the heat-conduction models.

Every local kind is one ``RATE_LAWS`` row of
a2 q'' + a1 q' + a0 q = -(b0 grad(theta) + b1 grad(theta_dot)); the flux
law, the modal polynomial, the 1-D assembly and the state sampler are all
derived from that row. Rate laws are solved for their highest time
derivative; degenerate parameter values (tau = 0 in a law dividing by tau)
are reached through ``reduce_limit`` instead of division by zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from .tensors import InvalidInputError, SymTensor3, coerce_tensor


class ContractError(InvalidInputError):
    """A required state field is missing for the requested operation."""


class DegenerateModelError(InvalidInputError):
    """The rate law divides by a vanishing parameter; use reduce_limit."""


class InvalidLimitError(InvalidInputError):
    """The requested reduction is not defined for this model kind."""


# --- temperature-dependent coefficient functions -----------------------------

@dataclass(frozen=True)
class CoefficientFn:
    """Named scalar function of temperature: c * theta**p, for one theta
    or an array of them. np.float_power is libm pow, as a Python float's
    ** is, on arrays too."""

    c: float
    p: float = 0.0

    def __call__(self, theta):
        return self.c * np.float_power(theta, self.p)


# --- parameter sets ----------------------------------------------------------

class LocalModel:
    """Parameter set of a local kind, each field coerced from its declared
    type (a SymTensor3 field also takes a scalar or a 3x3 array); its whole
    rate law is ``law``, its free energy and entropy production ``energy``."""

    def __post_init__(self):
        for f in fields(self):
            # annotations are strings under ``from __future__ import annotations``
            coerce = coerce_tensor if f.type == "SymTensor3" else float
            object.__setattr__(self, f.name, coerce(getattr(self, f.name)))

    @cached_property
    def law(self) -> "RateLaw":
        return RATE_LAWS[type(self)](self)

    @cached_property
    def energy(self) -> Dict[str, "EnergyRow"]:
        """Energy rows by variant; only Jeffreys has a second one, "star"."""
        from .energetics import ENERGY_ROWS  # energetics imports this module

        return ENERGY_ROWS[type(self)](self)


@dataclass(frozen=True)
class Fourier(LocalModel):
    kappa: SymTensor3


@dataclass(frozen=True)
class GN2(LocalModel):
    """Rate law q_dot = -K grad(theta); no entropy production."""

    K: SymTensor3


@dataclass(frozen=True)
class MCV(LocalModel):
    tau: float
    kappa: SymTensor3


@dataclass(frozen=True)
class Jeffreys(LocalModel):
    tau: float
    xi: SymTensor3
    kappa: SymTensor3


@dataclass(frozen=True)
class GN3(LocalModel):
    xi: SymTensor3
    kappa: SymTensor3


@dataclass(frozen=True)
class Quintanilla(LocalModel):
    tau: float
    xi: SymTensor3
    kappa: SymTensor3


@dataclass(frozen=True)
class Burgers(LocalModel):
    """Isotropic two-relaxation-time conductor; lambda_b carries units s^2."""

    lambda_b: float
    tau: float
    mu: float
    nu: float


@dataclass(frozen=True)
class GKLinear:
    """Weakly nonlocal conductor, given by tau, ell and varkappa(theta)
    alone; the coefficients of its law at a temperature (kappa, lambda2 and,
    for GKNonlinear, mu and nu) are energetics.Nonlocal's, derived from
    these fields, so their functional coupling holds by construction."""

    tau: float
    ell: float
    varkappa: CoefficientFn


@dataclass(frozen=True)
class GKNonlinear(GKLinear):
    delta: float = 0.0


ModelParams = Union[Fourier, GN2, MCV, Jeffreys, GN3, Quintanilla, Burgers, GKLinear, GKNonlinear]


@dataclass(frozen=True)
class MaterialConstants:
    rho: float
    cv: float

    def __post_init__(self):
        for key, what, v in (("material.rho", "density", self.rho), ("material.cv", "specific heat", self.cv)):
            if not v > 0:
                raise InvalidInputError(f"key {key!r}: need a {what} > 0, got {v:g}")

    @property
    def rho_cv(self) -> float:
        return self.rho * self.cv


@dataclass(frozen=True)
class ThermalState:
    """Pointwise state feeding energetics and rate laws, or a stack of n
    such states: theta is then an (n,) array and each field has a leading
    axis of n (a field given for one state is shared by the stack).

    q, gradients and rates are 3-vectors; grad_q is the 3x3 array with
    (grad_q)[i, j] = d q_j / d x_i. nonlocal_q holds the combination
    lap(q) + 2 grad(div q) needed by the nonlocal laws.
    """

    theta: float
    q: np.ndarray = field(default_factory=lambda: np.zeros(3))
    grad_theta: np.ndarray = field(default_factory=lambda: np.zeros(3))
    qdot: Optional[np.ndarray] = None
    grad_q: Optional[np.ndarray] = None
    grad_theta_dot: Optional[np.ndarray] = None
    qddot: Optional[np.ndarray] = None
    nonlocal_q: Optional[np.ndarray] = None

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim > 1 or not np.all((theta > 0) & np.isfinite(theta)):
            raise InvalidInputError("absolute temperature must be positive and finite")
        object.__setattr__(self, "theta", theta if theta.ndim else float(theta))
        for name in (f.name for f in fields(self)[1:] if getattr(self, f.name) is not None):
            a, shape = np.asarray(getattr(self, name), dtype=float), theta.shape + ((3, 3) if name == "grad_q" else (3,))
            if a.shape not in (shape, shape[theta.ndim :]):
                raise InvalidInputError(f"{name}: expected shape {shape}, got {a.shape}")
            object.__setattr__(self, name, a if a.shape == shape else np.broadcast_to(a, shape))

    def require(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) is None:
                raise ContractError(f"state field {name!r} required by this model")


# --- rate laws ---------------------------------------------------------------

@dataclass(frozen=True)
class RateLaw:
    """a2 q'' + a1 q' + a0 q = -(b0 grad(theta) + b1 grad(theta_dot)).

    ``a`` runs from a0 up to the coefficient of the highest flux derivative
    the law contains, so ``order`` is 0 for an algebraic law. b0 and b1 are
    tensors, or floats in a ``scalar()`` row; b1 is None where the law has
    no grad(theta_dot) term. ``limit`` names the reduction
    to use when the top coefficient vanishes.
    """

    a: Tuple[float, ...]
    b0: Union[SymTensor3, float]
    b1: Union[SymTensor3, float, None] = None
    limit: str = ""

    @property
    def order(self) -> int:
        return len(self.a) - 1

    def scalar(self) -> Optional["RateLaw"]:
        """The row with its tensors as scalars; None if one is anisotropic."""
        b0 = self.b0.isotropic_value()
        b1 = None if self.b1 is None else self.b1.isotropic_value()
        if b0 is None or (b1 is None and self.b1 is not None):
            return None
        return replace(self, b0=b0, b1=b1)

    def rate(self, s: ThermalState) -> np.ndarray:
        """Highest flux derivative solved from the law (q itself at order 0).

        Terms are summed in the order q, q_dot, grad(theta), grad(theta_dot).
        Zero coefficients are skipped and unit ones not multiplied out: the
        result is the same, at fewer array operations per call. A stacked
        state gives the stack of rates, each with the bits of its own call.
        """
        *lower, top = self.a
        if top == 0:
            raise DegenerateModelError(self.limit)
        if len(lower) == 2:
            s.require("qdot")
        if self.b1 is not None:
            s.require("grad_theta_dot")
        terms = [x if c == 1 else c * x for c, x in zip(lower, (s.q, s.qdot)) if c != 0]
        terms.append(self.b0.apply(s.grad_theta))
        if self.b1 is not None:
            terms.append(self.b1.apply(s.grad_theta_dot))
        total = sum(terms[1:], terms[0])
        return -total if top == 1 else -total / top


_TAU_FOURIER = "tau = 0: reduce to the Fourier model"

RATE_LAWS: Dict[type, Callable[..., RateLaw]] = {
    Fourier: lambda m: RateLaw((1.0,), m.kappa),
    GN2: lambda m: RateLaw((0.0, 1.0), m.K),
    MCV: lambda m: RateLaw((1.0, m.tau), m.kappa, limit=_TAU_FOURIER),
    Jeffreys: lambda m: RateLaw((1.0, m.tau), m.xi, m.tau * m.kappa, limit=_TAU_FOURIER),
    GN3: lambda m: RateLaw((0.0, 1.0), m.xi, m.kappa),
    Quintanilla: lambda m: RateLaw(
        (0.0, 1.0, m.tau), m.xi, m.kappa, limit="tau = 0: reduce to the GN III model"
    ),
    Burgers: lambda m: RateLaw(
        (1.0, m.tau, m.lambda_b), SymTensor3.isotropic(m.mu), SymTensor3.isotropic(m.tau * m.nu),
        limit="lambda_b = 0: reduce to the Jeffreys model",
    ),
}


def temperature_law(m: ModelParams, error: type) -> RateLaw:
    """Scalar row of a local kind, whose temperature equation the modal and
    1-D layers solve; other kinds, anisotropic tensors and a vanishing top
    coefficient (with the law's ``limit``) raise ``error``."""
    if not isinstance(m, LocalModel):
        raise error(f"no closed temperature equation for {type(m).__name__}")
    law = m.law.scalar()
    if law is None:
        raise error(f"{type(m).__name__}: the temperature equation is isotropic-only")
    if law.a[-1] == 0:
        raise error(law.limit)
    return law


def flux_rate(m: ModelParams, s: ThermalState) -> np.ndarray:
    """Highest time derivative of q solved explicitly from the rate law.

    Fourier returns q itself, first-order laws return q_dot, the
    second-order laws return q_ddot given (q, q_dot, grad_theta,
    grad_theta_dot).
    """
    if isinstance(m, LocalModel):
        return m.law.rate(s)
    if isinstance(m, GKLinear):
        from .energetics import nonlocal_coefficients  # energetics imports this module

        th = np.asarray(s.theta)[..., None]  # broadcasts against the vectors
        return nonlocal_coefficients(m, th).rate(th, s)
    raise InvalidInputError(f"unknown model kind {type(m).__name__}")


# --- limit reductions --------------------------------------------------------

def reduce_limit(m: ModelParams, target: str, theta_ref: float = 1.0) -> ModelParams:
    """Degenerate-parameter reduction to a simpler model kind.

    Supported: Burgers -> jeffreys (lambda_b -> 0), Jeffreys -> mcv
    (kappa -> 0), MCV -> fourier (tau -> 0), Quintanilla -> gn3
    (tau -> 0), GK -> mcv (ell -> 0, coefficients frozen at theta_ref).
    """
    target = target.lower()
    if isinstance(m, Burgers) and target == "jeffreys":
        return Jeffreys(tau=m.tau, xi=m.mu, kappa=m.nu)
    if isinstance(m, Jeffreys) and target == "mcv":
        return MCV(tau=m.tau, kappa=m.xi)
    if isinstance(m, MCV) and target == "fourier":
        return Fourier(kappa=m.kappa)
    if isinstance(m, Quintanilla) and target == "gn3":
        return GN3(xi=m.xi, kappa=m.kappa)
    if isinstance(m, GKLinear) and target == "mcv":
        from .energetics import nonlocal_coefficients  # energetics imports this module

        return MCV(tau=m.tau, kappa=nonlocal_coefficients(m, theta_ref).kappa(theta_ref))
    raise InvalidLimitError(f"no {target!r} limit for {type(m).__name__}")


def burgers_from_mixture(tau1: float, tau2: float, k1: float, k2: float) -> Burgers:
    """Combine two relaxing conductors into one second-order law."""
    if tau1 <= 0 or tau2 <= 0:
        raise InvalidInputError("both relaxation times must be positive")
    tau = tau1 + tau2
    return Burgers(
        lambda_b=tau1 * tau2,
        tau=tau,
        mu=k1 + k2,
        nu=(tau1 * k2 + tau2 * k1) / tau,
    )
