#!/usr/bin/env python3
"""Save the exact numbers of a set of 1-D runs, so two checkouts' solvers
can be compared bit for bit.

Cases: every local kind the 1-D layer simulates (GN III also with
kappa = 0, which produces no entropy), at N = 100, 333 and 2000, with
Dirichlet and with Neumann data; and the coupled, the relaxing
(imposed gradient, tau > 0) and the steady (imposed gradient, tau = 0)
Guyer-Krumhansl runs at each N. For each case <out.npz> holds the snapshot
times, the stacked theta and flux snapshots and every audit column, under
"<case>/times", "<case>/theta", "<case>/flux" and "<case>/audit/<column>".

Usage:
    PYTHONPATH=src python3 scripts/trajectory_bits.py <out.npz>

Two such files (a.npz from one checkout, b.npz from another) agree when

    python3 -c "import sys, numpy as np; a, b = map(np.load, sys.argv[1:]); print('all arrays equal' if a.files == b.files and all(np.array_equal(a[k], b[k], equal_nan=True) for k in a.files) else 'arrays differ')" a.npz b.npz

prints "all arrays equal".

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

from nonfourier.models import MCV, GN3, Burgers, CoefficientFn, Fourier, GKLinear, Jeffreys, MaterialConstants, Quintanilla
from nonfourier.pde1d import Grid1D, SimConfig, simulate

MAT = MaterialConstants(rho=1.0, cv=1.0)
MODELS = (
    Fourier(kappa=2.0),
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


def cases():
    for N in SIZES:
        grid = Grid1D(L=1.0, N=N)
        for i, model in enumerate(MODELS):
            for bc in ("dirichlet", "neumann"):
                cfg = SimConfig(model=model, material=MAT, grid=grid, dt=DT, t_end=STEPS * DT, bc_kind=bc,
                                bc_value=(0.3, -0.2), theta0=bump, theta_dot0=lambda x: 0.2 * x,
                                q0=lambda x: 0.1 * x * (1.0 - x), snapshot_every=7)
                yield f"{type(model).__name__}{i}/{bc}/{N}", lambda cfg=cfg: simulate(cfg)
        for name, tau, setup in (
            ("coupled", 0.1, dict(theta0=bump, bc_value=(0.05, -0.02))),
            ("relaxing", 0.05, dict(imposed_gradient=1.0)),
            ("steady", 0.0, dict(imposed_gradient=1.0)),
        ):
            cfg = SimConfig(model=GKLinear(tau, ell=math.sqrt(1e-3), varkappa=CoefficientFn(1.0)), material=MAT,
                            grid=grid, dt=DT, t_end=STEPS * DT, q0=lambda x: 0.3 * x * (1.0 - x), theta_ref=1.0,
                            **setup)
            yield f"gk_{name}/{N}", lambda cfg=cfg: simulate(cfg)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", help="the .npz file to write")
    args = ap.parse_args()
    arrays, count = {}, 0
    for count, (case, run) in enumerate(cases(), 1):
        traj = run()
        arrays[f"{case}/times"] = traj.times
        arrays[f"{case}/theta"] = np.array(traj.thetas)
        arrays[f"{case}/flux"] = np.array(traj.fluxes)
        for column, values in traj.audit.items():
            arrays[f"{case}/audit/{column}"] = values
    np.savez(args.out, **arrays)
    print(f"wrote {len(arrays)} arrays of {count} cases to {args.out}")


if __name__ == "__main__":
    main()
