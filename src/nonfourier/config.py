"""Flat key=value configuration files with dotted sections.

Example::

    # two-relaxation-time conductor
    model.kind = burgers
    model.lambda_b = 1.0
    model.tau = 2.0
    model.mu = 1.0
    model.nu = 1.0
    grid.L = 3.14159
    grid.N = 100
    time.dt = 1e-3
    time.t_end = 1.0

Tensor-valued keys accept a plain scalar (isotropic), ``diag:a,b,c`` or
``full:xx,yy,zz,yz,xz,xy``. Temperature-dependent coefficients are written
``constant:c`` or ``power:c,p`` (meaning c * theta**p).
"""
from __future__ import annotations

from dataclasses import MISSING, fields
from pathlib import Path
from typing import Callable, Dict, Optional, Union

import numpy as np

from .modal import SpectralProblem
from .models import (
    MCV,
    GN2,
    GN3,
    Burgers,
    CoefficientFn,
    Fourier,
    GKLinear,
    GKNonlinear,
    Jeffreys,
    MaterialConstants,
    ModelParams,
    Quintanilla,
)
from .pde1d import Grid1D, SimConfig
from .tensors import InvalidInputError, SymTensor3


class ConfigError(InvalidInputError):
    """Malformed configuration; the message names the offending key."""


# the keys build_spectral reads: with model.*, what a sweep may vary
SPECTRAL_KEYS = ("spectral.bc", "spectral.L", "spectral.n_max", "material.rho", "material.cv")
# every key outside model.* that a subcommand reads (build_model checks model.*)
KEYS = {*SPECTRAL_KEYS, *"grid.L grid.N time.dt time.t_end time.snapshot_every bc.kind bc.value ic.kind ic.mode "
        "ic.amplitude sim.theta_ref gk.imposed_gradient audit.samples sweep.param sweep.values".split()}


def parse_config(path: Union[str, Path]) -> Dict[str, str]:
    """The file's key = value pairs; a key no subcommand reads is refused."""
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    unknown = [key for key in out if key not in KEYS and not key.startswith("model.")]
    if unknown:
        raise ConfigError(f"key {unknown[0]!r}: no subcommand reads it")
    return out


def _get(cfg: Dict[str, str], key: str, default: Optional[str] = None) -> str:
    if key in cfg:
        return cfg[key]
    if default is not None:
        return default
    raise ConfigError(f"missing required key {key!r}")


def _float(cfg: Dict[str, str], key: str, default: Optional[str] = None) -> float:
    raw = _get(cfg, key, default)
    try:
        value = float(raw)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise ConfigError(f"key {key!r}: not a finite number: {raw!r}")
    return value


def _int(cfg: Dict[str, str], key: str, default: Optional[str] = None, positive: bool = False) -> int:
    raw = _get(cfg, key, default)
    try:
        n = int(raw)
    except ValueError as e:
        raise ConfigError(f"key {key!r}: not an integer: {raw!r}") from e
    if positive and n <= 0:
        raise ConfigError(f"key {key!r}: need a positive integer, got {n}")
    return n


def parse_tensor(raw: str, key: str = "") -> SymTensor3:
    raw = raw.strip()
    try:
        if raw.startswith("diag:"):
            a, b, c = (float(v) for v in raw[5:].split(","))
            return SymTensor3(a, b, c)
        if raw.startswith("full:"):
            comps = [float(v) for v in raw[5:].split(",")]
            if len(comps) != 6:
                raise ValueError("need 6 components xx,yy,zz,yz,xz,xy")
            return SymTensor3(*comps)
        return SymTensor3.isotropic(float(raw))
    except ValueError as e:
        raise ConfigError(f"key {key!r}: bad tensor value {raw!r} ({e})") from e


def parse_coefficient(raw: str, key: str = "") -> CoefficientFn:
    raw = raw.strip()
    try:
        if raw.startswith("constant:"):
            return CoefficientFn(float(raw[9:]))
        if raw.startswith("power:"):
            c, p = (float(v) for v in raw[6:].split(","))
            return CoefficientFn(c, p)
        return CoefficientFn(float(raw))
    except ValueError as e:
        raise ConfigError(f"key {key!r}: bad coefficient {raw!r} ({e})") from e


def _parsed(parse: Callable[[str, str], object]) -> Callable[..., object]:
    return lambda cfg, key, default=None: parse(_get(cfg, key, default), key)


# a parameter set's declared field type -> the reader of its model.<field> key
_READERS = {"float": _float, "SymTensor3": _parsed(parse_tensor), "CoefficientFn": _parsed(parse_coefficient)}

MODEL_KINDS = {
    "fourier": Fourier, "gn2": GN2, "mcv": MCV, "jeffreys": Jeffreys, "gn3": GN3,
    "quintanilla": Quintanilla, "burgers": Burgers, "gk": GKLinear, "gk_nonlinear": GKNonlinear,
}


def build_model(cfg: Dict[str, str]) -> ModelParams:
    """The kind's parameter set, each field read from model.<field> in
    declaration order, with the field's default where it has one; a
    model.<name> key the kind has no field for is refused."""
    kind = _get(cfg, "model.kind").lower()
    if kind not in MODEL_KINDS:
        raise ConfigError(f"key 'model.kind': unknown kind {kind!r} (one of {tuple(MODEL_KINDS)})")
    cls = MODEL_KINDS[kind]
    known = {"model.kind"} | {f"model.{f.name}" for f in fields(cls)}
    unknown = [key for key in cfg if key.startswith("model.") and key not in known]
    if unknown:
        raise ConfigError(f"key {unknown[0]!r}: model kind {kind!r} has no such parameter")
    return cls(**{
        f.name: _READERS[f.type](cfg, f"model.{f.name}", None if f.default is MISSING else str(f.default))
        for f in fields(cls)
    })


def build_material(cfg: Dict[str, str]) -> MaterialConstants:
    return MaterialConstants(
        rho=_float(cfg, "material.rho", "1.0"), cv=_float(cfg, "material.cv", "1.0")
    )


def build_grid(cfg: Dict[str, str]) -> Grid1D:
    return Grid1D(L=_float(cfg, "grid.L"), N=_int(cfg, "grid.N"))


def build_spectral(cfg: Dict[str, str]) -> SpectralProblem:
    material = build_material(cfg)
    return SpectralProblem(
        bc=_get(cfg, "spectral.bc", "dirichlet").lower(),
        L=_float(cfg, "spectral.L", str(np.pi)),
        n_max=_int(cfg, "spectral.n_max", "10"),
        rho_c=material.rho_cv,
    )


# the most states one audit draws (README: Config format)
MAX_AUDIT_SAMPLES = 1_000_000


def build_audit_samples(cfg: Dict[str, str]) -> int:
    """audit.samples, a positive integer (default 1000) of at most
    MAX_AUDIT_SAMPLES, refused before any state is drawn."""
    n = _int(cfg, "audit.samples", "1000", positive=True)
    if n > MAX_AUDIT_SAMPLES:
        raise ConfigError(f"key 'audit.samples': at most {MAX_AUDIT_SAMPLES} states, got {n}")
    return n


# the ic.* keys each initial condition reads, besides ic.kind
IC_KEYS = {"zero": (), "constant": ("ic.amplitude",), "sine": ("ic.mode", "ic.amplitude"),
           "cosine": ("ic.mode", "ic.amplitude")}


def _initial_field(cfg: Dict[str, str], grid: Grid1D):
    kind = _get(cfg, "ic.kind", "zero").lower()
    if kind not in IC_KEYS:
        raise ConfigError(f"key 'ic.kind': unknown initial condition {kind!r}")
    unread = [key for key in cfg if key.startswith("ic.") and key not in ("ic.kind", *IC_KEYS[kind])]
    if unread:
        raise ConfigError(f"key {unread[0]!r}: ic.kind {kind!r} does not read it")
    if kind == "zero":
        return None
    if kind == "constant":
        return _float(cfg, "ic.amplitude", "0.0")
    # sin(0 x) is zero whatever the amplitude, and a negative mode only flips its sign
    mode = _int(cfg, "ic.mode", "1", positive=kind == "sine")
    amp = _float(cfg, "ic.amplitude", "1.0")
    wave = np.sin if kind == "sine" else np.cos
    return lambda x: amp * wave(mode * np.pi * x / grid.L)


def build_sim_config(cfg: Dict[str, str]) -> SimConfig:
    grid = build_grid(cfg)
    return SimConfig(
        model=build_model(cfg),
        material=build_material(cfg),
        grid=grid,
        dt=_float(cfg, "time.dt"),
        t_end=_float(cfg, "time.t_end"),
        bc_kind=_get(cfg, "bc.kind", "dirichlet").lower(),
        bc_value=_float(cfg, "bc.value", "0.0"),
        theta0=_initial_field(cfg, grid),
        theta_ref=_float(cfg, "sim.theta_ref") if "sim.theta_ref" in cfg else None,
        snapshot_every=_int(cfg, "time.snapshot_every", positive=True) if "time.snapshot_every" in cfg else None,
        imposed_gradient=_float(cfg, "gk.imposed_gradient") if "gk.imposed_gradient" in cfg else None,
    )
