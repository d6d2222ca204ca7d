"""Free energies, entropy productions and dissipation-identity audits.

Each model carries an explicit quadratic free energy (the q-dependent excess,
the purely thermal part is fixed to zero) and a matching entropy production;
for a local kind they are the two forms of its ``ENERGY_ROWS`` row.
``dissipation_residual`` evaluates the reduced entropy equality term by term;
it vanishes identically when the supplied rates come from the model's own
rate law, which is the machine-checkable form of thermodynamic consistency.

Sign conventions: all returned energies and productions are densities
(rho * psi, rho * sigma); the nonlocal model returns the internal supply
rho * zeta together with the extra entropy flux k.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .models import (
    MCV,
    GN2,
    GN3,
    Burgers,
    DegenerateModelError,
    Fourier,
    GKLinear,
    Jeffreys,
    LocalModel,
    ModelParams,
    Quintanilla,
    ThermalState,
    flux_rate,
)
from .tensors import InvalidInputError, SymTensor3, is_nonsingular, matvec


class SingularParameterError(InvalidInputError):
    """A tensor combination required by a formula is singular."""


def _inv(t: SymTensor3, label: str) -> np.ndarray:
    if not is_nonsingular(t):
        raise SingularParameterError(f"{label} is singular")
    return np.linalg.inv(t.as_matrix())


@dataclass(frozen=True)
class PsiGradients:
    """Analytic partial derivatives of rho*psi with respect to the state."""

    q: np.ndarray
    qdot: np.ndarray
    grad_theta: np.ndarray


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


# tau*nu and mu count as zero within this band of their scale
ZERO_BAND = 1e-12


def burgers_scale(m: Burgers) -> float:
    """The scale s = max(1, |tau|, |nu|, |mu|) of the regime decision: tau*nu
    counts as zero within ZERO_BAND * s**2 and mu within ZERO_BAND * s."""
    return max(1.0, abs(m.tau), abs(m.nu), abs(m.mu))


def burgers_case(m: Burgers) -> str:
    """Which coefficient regime applies: "i" when tau*nu is zero, else "ii"
    when mu is, else "iii"."""
    s = burgers_scale(m)
    if abs(m.tau * m.nu) <= ZERO_BAND * s**2:
        return "i"
    return "ii" if abs(m.mu) <= ZERO_BAND * s else "iii"


def burgers_psi_coefficients(m: Burgers, theta: float) -> BurgersPsiCoefficients:
    """Free-energy coefficients of the model's regime (burgers_case); tau*nu
    is nonzero outside regime i."""
    if m.lambda_b == 0:
        raise SingularParameterError("lambda_b = 0 has no second-order free energy")
    lam, tau, mu, nu = m.lambda_b, m.tau, m.mu, m.nu
    tag = burgers_case(m)
    if tag == "i":
        if mu == 0:
            raise SingularParameterError("regime i needs mu != 0")
        a2 = 0.0
        g1 = lam / (mu * theta)
        a1 = tau / (mu * theta)
        g2 = g3 = a3 = 0.0
    elif tag == "ii":
        a2 = lam**2 / (nu * tau * theta)
        g1 = (tau / lam) * a2
        a1 = ((tau**2 + lam) / lam**2) * a2
        g3 = (tau * nu / lam) * a2
        g2 = (tau * nu / lam) * g1
        a3 = (tau * nu / lam) * g3
    else:
        d = nu**2 * tau**2 + mu * (nu * tau**2 - mu * lam)
        if d == 0:
            raise SingularParameterError("regime iii denominator vanishes")
        a2 = nu * tau * lam**2 / (theta * d)
        g1 = ((nu * tau**2 - mu * lam) / (nu * tau * lam)) * a2
        a1 = ((nu * tau**2 + (nu - mu) * lam) / (nu * lam**2)) * a2
        g3 = (tau * nu / lam) * a2
        g2 = (tau * nu / lam) * g1
        a3 = (tau * nu / lam) * g3
    return BurgersPsiCoefficients(tag, a1, a2, a3, g1, g2, g3)


def burgers_sigma_matrix(m: Burgers, theta: float) -> np.ndarray:
    """Symmetric 3x3 coefficient matrix B over blocks (q, qdot, grad_theta).

    rho*theta*sigma = x' B x with x the per-direction amplitudes; derived by
    eliminating qddot from the dissipation identity with the rate law, so the
    identity closes for any admissible coefficient set by construction.
    """
    c = burgers_psi_coefficients(m, theta)
    lam, tau, mu = m.lambda_b, m.tau, m.mu
    b11 = c.g1 / lam
    b22 = (tau / lam) * c.a2 - c.g1
    b33 = (mu / lam) * c.g3
    b12 = 0.5 * ((c.a2 + tau * c.g1) / lam - c.a1)
    b13 = 0.5 * ((c.g3 + mu * c.g1) / lam - 1.0 / theta)
    b23 = 0.5 * ((tau * c.g3 + mu * c.a2) / lam - c.g2)
    return np.array([[b11, b12, b13], [b12, b22, b23], [b13, b23, b33]])


# --- energy rows -------------------------------------------------------------

class Form(NamedTuple):
    """A quadratic form over the named state blocks it reads."""

    fields: Tuple[str, ...]
    matrix: np.ndarray

    def stack(self, s: ThermalState) -> np.ndarray:
        s.require(*self.fields)
        if len(self.fields) == 1:
            return getattr(s, self.fields[0])
        return np.concatenate([getattr(s, name) for name in self.fields], axis=-1)

    def amplitudes(self) -> np.ndarray:
        """The x-directed reduction (each 3x3 block's xx entry) as a 3x3
        array over (q, qdot, grad_theta), zero on blocks the form does not read."""
        read = [_QDG.index(name) for name in self.fields]
        out = np.zeros((3, 3))
        out[np.ix_(read, read)] = self.matrix[::3, ::3]
        return out


@dataclass(frozen=True)
class EnergyRow:
    """rho*psi = x'Px / (2 theta) and rho*sigma = x'Sx / theta^2 over blocks
    x of (q, qdot, grad_theta). P and S are built on first use, each on its
    own, so a parameter only one needs (xi != 0 for psi) raises only there;
    a zero form is None and costs no arithmetic."""

    psi_form: Callable[[], Optional[Form]] = lambda: None
    sigma_form: Callable[[], Optional[Form]] = lambda: None

    @cached_property
    def P(self) -> Optional[Form]:
        return self.psi_form()

    @cached_property
    def S(self) -> Optional[Form]:
        return self.sigma_form()


_Q, _G, _QG, _QDG = ("q",), ("grad_theta",), ("q", "grad_theta"), ("q", "qdot", "grad_theta")


def _through(w: np.ndarray, kappa: SymTensor3) -> np.ndarray:
    """v'wv with v = q + kappa grad_theta, as a form over (q, grad_theta)."""
    t = np.hstack([np.eye(3), kappa.as_matrix()])
    return t.T @ w @ t


def _iso(form) -> np.ndarray:
    """A form over scalar blocks, applied to every direction alike: the
    products of np.kron(form, I3), signed zeros included, in one multiply."""
    f = np.asarray(form, dtype=float)
    return (f[:, None, :, None] * np.eye(3)[:, None]).reshape(3 * len(f), -1)


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The square blocks a and b on the diagonal, zeros elsewhere."""
    z = np.zeros((len(a), len(b)))
    return np.block([[a, z], [z.T, b]])


def _jeffreys_rows(m: Jeffreys) -> Dict[str, EnergyRow]:
    """"plus" weights by (xi + kappa)^-1, "star" by (xi - kappa)^-1.
    Anisotropic inputs assume kappa and xi commute (they do in every
    consistent parameter set, where kappa is proportional to xi)."""
    km = m.kappa.as_matrix()

    def row(w, sigma):
        return EnergyRow(lambda: Form(_QG, m.tau * _through(w(), m.kappa)), lambda: Form(_QG, sigma(w())))

    return {
        "plus": row(lambda: _inv(m.xi + m.kappa, "xi + kappa"), lambda w: _block_diag(w, km @ w @ m.xi.as_matrix())),
        "star": row(lambda: _inv(m.xi - m.kappa, "xi - kappa"), lambda w: _through(w, m.kappa) + _block_diag(0 * km, km)),
    }


def _quintanilla_row(m: Quintanilla) -> EnergyRow:
    """With w = (0, tau, kappa) over (q, qdot, grad_theta): rho*psi =
    (q.q + 2 q.(w x) + kappa/(kappa - tau xi) |w x|^2) / (2 xi theta) and
    rho*sigma = |w x|^2 / ((kappa - tau xi) theta^2)."""
    xi, kappa = m.xi.isotropic_value(), m.kappa.isotropic_value()
    if xi is None or kappa is None:
        raise InvalidInputError("xi, kappa: this formula is implemented for isotropic tensors")
    e, w, d = np.eye(3)[0], np.array([0.0, m.tau, kappa]), kappa - m.tau * xi

    def psi():
        if xi == 0 or d == 0:
            raise SingularParameterError("xi = 0 or kappa = tau*xi")
        return Form(_QDG, _iso((np.outer(e, e + w) + np.outer(w, e) + kappa / d * np.outer(w, w)) / xi))

    def sigma():
        if d == 0:
            raise SingularParameterError("kappa = tau*xi")
        return Form(_QDG[1:], _iso(np.outer(w[1:], w[1:]) / d))

    return EnergyRow(psi, sigma)


def _burgers_psi(m: Burgers) -> Form:
    c = burgers_psi_coefficients(m, 1.0)
    return Form(_QDG, _iso([[c.a1, c.g1, c.g2], [c.g1, c.a2, c.g3], [c.g2, c.g3, c.a3]]))


# kind -> energy rows by variant; every kind but Jeffreys has one, "plus"
ENERGY_ROWS: Dict[type, Callable[..., Dict[str, EnergyRow]]] = {
    Fourier: lambda m: {"plus": EnergyRow(sigma_form=lambda: Form(_G, m.kappa.as_matrix()))},
    GN2: lambda m: {"plus": EnergyRow(lambda: Form(_Q, _inv(m.K, "K")))},
    MCV: lambda m: {"plus": EnergyRow(
        lambda: Form(_Q, m.tau * _inv(m.kappa, "kappa")), lambda: Form(_Q, _inv(m.kappa, "kappa"))
    )},
    Jeffreys: _jeffreys_rows,
    GN3: lambda m: {"plus": EnergyRow(
        lambda: Form(_QG, _through(_inv(m.xi, "xi"), m.kappa)), lambda: Form(_G, m.kappa.as_matrix())
    )},
    Quintanilla: lambda m: {"plus": _quintanilla_row(m)},
    Burgers: lambda m: {"plus": EnergyRow(
        lambda: _burgers_psi(m), lambda: Form(_QDG, _iso(burgers_sigma_matrix(m, 1.0)))
    )},
}


def _row(m: ModelParams, variant: str) -> EnergyRow:
    if not isinstance(m, LocalModel):
        raise InvalidInputError(f"no energy row for {type(m).__name__}")
    if variant not in m.energy:
        raise InvalidInputError(f"unknown variant {variant!r} for {type(m).__name__}")
    return m.energy[variant]


class Nonlocal(NamedTuple):
    """The nonlocal kinds' coefficients at one temperature, the one place
    they are defined: kappa, lambda2 = ell2 vk and mu = 2 nu = 2 delta vk
    all derive from vk = varkappa(theta), so they are coupled by
    construction. The energetics methods sum the flux products they are
    given (|q|^2, |grad q|^2, (div q)^2, (grad q)q, (div q)q, q.nonlocal_q,
    q.(grad q)q, |q|^2 div q), so they take one 3-D state's products or 1-D
    node arrays alike. The delta terms are skipped when delta = 0; the
    products or state fields only they read may then be None. Given `out`
    (and for zeta `tmp`, which takes a product), a method writes its result
    there, as numpy's `out=` does, with the same bits."""

    tau: float
    vk: float
    ell2: float
    delta: float = 0.0

    def kappa(self, theta):
        """The Fourier conductivity kappa = varkappa / theta^2."""
        return self.vk / np.float_power(theta, 2)

    def rate(self, theta, s: ThermalState) -> np.ndarray:
        """q_dot from the GK law tau q_dot = -q - kappa grad(theta)
        + lambda2 nonlocal_q + mu (grad q) q + nu (div q) q; theta carries
        a trailing axis of 1, so that it broadcasts against the vectors."""
        if self.tau == 0:
            raise DegenerateModelError("tau = 0: algebraic nonlocal law, no rate")
        s.require(*(("grad_q",) if self.delta else ()), "nonlocal_q")
        nl = self.ell2 * self.vk * s.nonlocal_q
        if self.delta:
            div_q = np.trace(s.grad_q, axis1=-2, axis2=-1)[..., None]
            nl = nl + 2.0 * self.delta * self.vk * matvec(s.grad_q, s.q) + self.delta * self.vk * div_q * s.q
        return (-s.q - self.kappa(theta) * s.grad_theta + nl) / self.tau

    def psi_q(self, theta, q):
        """d rho*psi / dq."""
        return self.tau * theta / self.vk * q

    def zeta(self, qq, gq2, dq2, out=None, tmp=None):
        """Internal entropy supply rho*zeta."""
        out = np.divide(qq, self.vk, out=out)
        out += np.multiply(self.ell2, gq2, out=tmp)
        out += np.multiply(2.0 * self.ell2, dq2, out=tmp)
        return out

    def k(self, q, gq_q, dq_q, qq, out=None):
        """Extra entropy flux k."""
        out = np.add(gq_q, np.multiply(2.0, dq_q, out=out), out=out)
        out *= -self.ell2
        if self.delta:
            out -= self.delta * qq * q
        return out

    def div_k(self, gq2, dq2, q_nl, q_gq_q, qq_dq, out=None):
        """div k from the pointwise identity."""
        out = np.add(gq2, np.multiply(2.0, dq2, out=out), out=out)
        out += q_nl
        out *= -self.ell2
        if self.delta:
            out -= self.delta * (2.0 * q_gq_q + qq_dq)
        return out


def nonlocal_coefficients(m: ModelParams, theta, variant: str = "plus") -> Optional[Nonlocal]:
    """The nonlocal kind's coefficients at theta (a float or an array of
    temperatures); None for a local kind."""
    if not isinstance(m, GKLinear):
        return None
    if variant != "plus":
        raise InvalidInputError(f"unknown variant {variant!r} for {type(m).__name__}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        vk = m.varkappa(theta)
    if not np.all(np.isfinite(vk) & (vk > 0)):
        raise SingularParameterError("varkappa(theta) must be finite and positive")
    return Nonlocal(m.tau, vk, m.ell**2, getattr(m, "delta", 0.0))


# --- stacked evaluation ------------------------------------------------------

# The functions below take one state or a stack of n. A per-state scalar is
# carried as (..., 1), so that it broadcasts against (..., 3) vectors, and
# is returned as a float for one state and an (n,) array for a stack.
# Products are stacked matmuls and powers np.float_power: each state gets
# the bits of its own unstacked evaluation.

def _col(v) -> np.ndarray:
    return np.asarray(v, dtype=float)[..., None]


def _out(v: np.ndarray):
    v = v[..., 0]
    return v if v.ndim else float(v)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b of each state's vectors, as (..., 1)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def _quad(form: Form, s: ThermalState) -> np.ndarray:
    """x'Mx of each state's blocks x, as (..., 1)."""
    x = form.stack(s)
    return ((x[..., None, :] @ form.matrix) @ x[..., :, None])[..., 0]


def _blocks(P: Form, s: ThermalState, th: np.ndarray) -> Dict[str, np.ndarray]:
    """d rho*psi / dx = Px / theta, split into the (..., 3) block of each field."""
    g = matvec(P.matrix, P.stack(s)) / th
    return {name: g[..., 3 * i : 3 * i + 3] for i, name in enumerate(P.fields)}


def _grad_q(s: ThermalState) -> Tuple[np.ndarray, np.ndarray]:
    """|grad q|^2 and div q, as (..., 1)."""
    s.require("grad_q")
    return np.sum(s.grad_q**2, axis=(-2, -1))[..., None], np.trace(s.grad_q, axis1=-2, axis2=-1)[..., None]


# --- free energy, entropy production, extra entropy flux ---------------------

def free_energy(m: ModelParams, s: ThermalState, variant: str = "plus"):
    """rho*psi excess over the purely thermal part (which is fixed to 0).

    For the two-flux-rate Jeffreys family, variant "plus" selects the
    (xi + kappa)-weighted energy and "star" the (xi - kappa)-weighted one.
    """
    th = _col(s.theta)
    gk = nonlocal_coefficients(m, th, variant)
    if gk is not None:
        return _out(0.5 * gk.tau * th / gk.vk * _dot(s.q, s.q))
    P = _row(m, variant).P
    return _out(np.zeros_like(th) if P is None else 0.5 * _quad(P, s) / th)


def entropy_production(m: ModelParams, s: ThermalState, variant: str = "plus"):
    """rho*sigma; for the nonlocal model the internal supply rho*zeta."""
    th = _col(s.theta)
    gk = nonlocal_coefficients(m, th, variant)
    if gk is not None:
        gq2, div_q = _grad_q(s)
        return _out(gk.zeta(_dot(s.q, s.q), gq2, np.float_power(div_q, 2)))
    S = _row(m, variant).S
    return _out(np.zeros_like(th) if S is None else _quad(S, s) / np.float_power(th, 2))


def extra_entropy_flux(m: GKLinear, s: ThermalState) -> np.ndarray:
    """Extra entropy flux k of the nonlocal model; zero for q = 0 states."""
    gk = nonlocal_coefficients(m, _col(s.theta))
    if gk is None:
        raise InvalidInputError("extra entropy flux only exists for the nonlocal model")
    return gk.k(s.q, matvec(s.grad_q, s.q), _grad_q(s)[1] * s.q, _dot(s.q, s.q))


def gk_flux_divergence(m: GKLinear, s: ThermalState):
    """div k from the pointwise identity, reading grad_q and nonlocal_q."""
    s.require("nonlocal_q")
    gk, (gq2, div_q) = nonlocal_coefficients(m, _col(s.theta)), _grad_q(s)
    delta_terms = (_dot(matvec(s.grad_q, s.q), s.q), _dot(s.q, s.q) * div_q) if gk.delta else (None, None)
    return _out(gk.div_k(gq2, np.float_power(div_q, 2), _dot(s.nonlocal_q, s.q), *delta_terms))


# --- analytic free-energy gradients ------------------------------------------

def psi_gradients(m: ModelParams, s: ThermalState, variant: str = "plus") -> PsiGradients:
    """(d rho*psi / dq, d rho*psi / dqdot, d rho*psi / dgrad_theta)."""
    th, z = _col(s.theta), np.zeros(np.shape(s.q))
    gk = nonlocal_coefficients(m, th, variant)
    if gk is not None:
        return PsiGradients(gk.psi_q(th, s.q), z, z)
    P = _row(m, variant).P
    g = {} if P is None else _blocks(P, s, th)
    return PsiGradients(g.get("q", z), g.get("qdot", z), g.get("grad_theta", z))


# --- dissipation identity ----------------------------------------------------

# the rate paired with each free-energy block in the dissipation identity
_RATES = {"q": "qdot", "qdot": "qddot", "grad_theta": "grad_theta_dot"}


def dissipation_terms(m: ModelParams, s: ThermalState, variant: str = "plus") -> np.ndarray:
    """Individual addends of the reduced entropy equality, along the last
    axis; their sum is the residual and the largest magnitude sets the
    natural relative scale.

    Local models: dpsi_x . x_dot for each block x in (q, qdot, grad_theta)
    that the free energy reads, then q.grad/theta and theta*sigma. The
    nonlocal model divides the first two groups by theta and adds div k and
    zeta instead, matching its split form of the Second Law.
    """
    th = _col(s.theta)
    gk = nonlocal_coefficients(m, th, variant)
    if gk is not None:
        s.require("qdot")
        terms = [_dot(gk.psi_q(th, s.q), s.qdot) / th, _dot(s.q, s.grad_theta) / np.float_power(th, 2),
                 _col(gk_flux_divergence(m, s)), _col(entropy_production(m, s))]
        return np.concatenate(terms, axis=-1)
    P = _row(m, variant).P
    terms = []
    if P is not None:
        s.require(*(_RATES[name] for name in P.fields))
        terms = [_dot(g, getattr(s, _RATES[name])) for name, g in _blocks(P, s, th).items()]
    terms += [_dot(s.q, s.grad_theta) / th, th * _col(entropy_production(m, s, variant))]
    return np.concatenate(terms, axis=-1)


def dissipation_residual(m: ModelParams, s: ThermalState, variant: str = "plus"):
    """Defect of the reduced entropy equality; zero when the rates obey the
    model's own rate law."""
    return _out(np.sum(dissipation_terms(m, s, variant), axis=-1, keepdims=True))


def sample_state(m: ModelParams, rng: np.random.Generator, size: Optional[int] = None) -> ThermalState:
    """Random state whose rate fields come from the model's own rate law,
    so the dissipation identity should close on it to rounding error;
    size=n gives a stack of n, the states of n calls with size=None. Per
    state: theta in [0.5, 2), then one standard_normal fill of grad_theta,
    q and its derivatives below the law's top one, then grad(theta_dot) if
    the law reads it (nonlocal kinds: q, grad_q, nonlocal_q). Seeded audit
    output depends on this order. The top derivative comes from the law.
    """
    if isinstance(m, LocalModel):
        law, names = m.law, ("q", "qdot", "qddot")
        drawn = ("grad_theta",) + names[: law.order] + (("grad_theta_dot",) if law.b1 is not None else ())
        rate = names[law.order]
    elif isinstance(m, GKLinear):
        drawn, rate = ("grad_theta", "q", "grad_q", "nonlocal_q"), "qdot"
    else:
        raise InvalidInputError(f"no state sampler for {type(m).__name__}")
    shape, widths = () if size is None else (size,), [9 if name == "grad_q" else 3 for name in drawn]
    theta, z = np.empty(shape), np.empty(shape + (sum(widths),))
    uniform, fill = rng.random, rng.standard_normal
    for i, row in enumerate(z.reshape(-1, z.shape[-1])):
        theta.flat[i] = 0.5 + 1.5 * uniform()  # rng.uniform(0.5, 2.0), bit for bit
        fill(out=row)
    parts = np.split(z, np.cumsum(widths)[:-1], axis=-1)
    fields = {name: p.reshape(shape + (3, 3)) if name == "grad_q" else p for name, p in zip(drawn, parts)}
    fields[rate] = flux_rate(m, ThermalState(theta=theta, **fields))
    return ThermalState(theta=theta, **fields)
