#!/usr/bin/env python3
"""Save the exact numbers of a set of 1-D runs, so two checkouts' solvers
and modal oracles can be compared bit for bit.

Cases: every local kind the 1-D layer simulates (GN III also with
kappa = 0, which produces no entropy), at N = 100, 333 and 2000, with
Dirichlet and with Neumann data; and the coupled, the relaxing
(imposed gradient, tau > 0) and the steady (imposed gradient, tau = 0)
Guyer-Krumhansl runs at each N. For each case <out.npz> holds the snapshot
times, the stacked theta and flux snapshots and every audit column, under
"<case>/times", "<case>/theta", "<case>/flux" and "<case>/audit/<column>".
For each local kind at each N it also holds compare_modal_vs_pde's errors
against the modal oracle (Dirichlet, mode 2), under
"<kind>/modal/<N>/linf_rel" and "<kind>/modal/<N>/l2_rel".

Usage, with this one script run against each checkout's src/:
    PYTHONPATH=<checkout>/src python3 scripts/trajectory_bits.py <out.npz>

Two such files (a.npz from one checkout, b.npz from another) agree when

    python3 -c "import sys, numpy as np; a, b = map(np.load, sys.argv[1:]); print('all arrays equal' if a.files == b.files and all((a[k].dtype, a[k].shape, a[k].tobytes()) == (b[k].dtype, b[k].shape, b[k].tobytes()) for k in a.files) else 'arrays differ')" a.npz b.npz

prints "all arrays equal". It compares the arrays' bytes, so a zero whose
sign flipped (which simulate writes as -0 against 0) counts as a
difference, as np.array_equal's 0.0 == -0.0 would not.

The Guyer-Krumhansl cases run GKLinear(tau, ell = sqrt(1e-3), varkappa =
1) at theta_ref = 1, so they step with lambda2 = ell**2 = sqrt(1e-3)**2,
which is not 1e-3 in the last bit. A checkout from before the gk kinds ran
through SimConfig built these runs from kappa and lambda2 directly; for a
bitwise comparison with one, run its gk cases with
lambda2 = math.sqrt(1e-3)**2.
"""
import argparse
import math

import numpy as np

from nonfourier.models import MCV, GN2, GN3, Burgers, CoefficientFn, Fourier, GKLinear, Jeffreys, MaterialConstants, Quintanilla
from nonfourier.pde1d import Grid1D, SimConfig, compare_modal_vs_pde, simulate

MAT = MaterialConstants(rho=1.0, cv=1.0)
MODELS = (
    Fourier(kappa=2.0),
    GN2(K=1.5),
    MCV(tau=0.7, kappa=2.0),
    Jeffreys(tau=0.8, xi=2.0, kappa=0.5),
    GN3(xi=1.5, kappa=2.0),
    GN3(xi=1.5, kappa=0.0),  # no entropy production: the audit's zero-sigma branch
    Quintanilla(tau=0.5, xi=1.0, kappa=2.0),
    Burgers(lambda_b=1.0, tau=2.0, mu=1.0, nu=1.0),
)
SIZES = (100, 333, 2000)
DT, STEPS = 1e-3, 300


def bump(x: np.ndarray) -> np.ndarray:
    """A smooth, lopsided initial field on [0, 1]."""
    return 0.1 * np.sin(np.pi * x) + 0.05 * np.cos(3.0 * x)


def trajectory(cfg: SimConfig) -> dict:
    traj = simulate(cfg)
    return {"times": traj.times, "theta": np.array(traj.thetas), "flux": np.array(traj.fluxes),
            **{f"audit/{column}": values for column, values in traj.audit.items()}}


def modal_errors(cfg: SimConfig) -> dict:
    c = compare_modal_vs_pde(cfg, 2)
    return {"linf_rel": np.float64(c.linf_rel), "l2_rel": np.float64(c.l2_rel)}


def cases():
    """(case, a function returning the case's arrays by name) pairs."""
    for N in SIZES:
        grid = Grid1D(L=1.0, N=N)
        for i, model in enumerate(MODELS):
            for bc in ("dirichlet", "neumann"):
                cfg = SimConfig(model=model, material=MAT, grid=grid, dt=DT, t_end=STEPS * DT, bc_kind=bc,
                                bc_value=(0.3, -0.2), theta0=bump, theta_dot0=lambda x: 0.2 * x,
                                q0=lambda x: 0.1 * x * (1.0 - x), snapshot_every=7)
                yield f"{type(model).__name__}{i}/{bc}/{N}", lambda cfg=cfg: trajectory(cfg)
            cfg = SimConfig(model=model, material=MAT, grid=grid, dt=DT, t_end=STEPS * DT)
            yield f"{type(model).__name__}{i}/modal/{N}", lambda cfg=cfg: modal_errors(cfg)
        for name, tau, setup in (
            ("coupled", 0.1, dict(theta0=bump, bc_value=(0.05, -0.02))),
            ("relaxing", 0.05, dict(imposed_gradient=1.0)),
            ("steady", 0.0, dict(imposed_gradient=1.0)),
        ):
            cfg = SimConfig(model=GKLinear(tau, ell=math.sqrt(1e-3), varkappa=CoefficientFn(1.0)), material=MAT,
                            grid=grid, dt=DT, t_end=STEPS * DT, q0=lambda x: 0.3 * x * (1.0 - x), theta_ref=1.0,
                            **setup)
            yield f"gk_{name}/{N}", lambda cfg=cfg: trajectory(cfg)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", help="the .npz file to write")
    args = ap.parse_args()
    arrays, count = {}, 0
    for count, (case, run) in enumerate(cases(), 1):
        arrays.update({f"{case}/{name}": values for name, values in run().items()})
    np.savez(args.out, **arrays)
    print(f"wrote {len(arrays)} arrays of {count} cases to {args.out}")


if __name__ == "__main__":
    main()
