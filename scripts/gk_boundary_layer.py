#!/usr/bin/env python3
"""Relax the weakly nonlocal flux under an imposed gradient and compare the
final profile against the analytic cosh plug profile for several lambda2.

Usage:
    python3 scripts/gk_boundary_layer.py [--N 400] [--gradient 1.0]
"""
import argparse

import numpy as np

from nonfourier.models import CoefficientFn, GKLinear, MaterialConstants
from nonfourier.pde1d import Grid1D, SimConfig, simulate, steady_gk_profile


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=400)
    ap.add_argument("--gradient", type=float, default=1.0)
    ap.add_argument("--kappa", type=float, default=1.0)
    args = ap.parse_args()

    grid = Grid1D(L=1.0, N=args.N)
    print(f"{'lambda2':>10} {'midpoint_q':>12} {'linf_vs_exact':>14} {'min_zeta':>10}")
    for lambda2 in (1e-1, 1e-2, 1.0 / 300.0, 1e-3):
        # at theta_ref = 1, varkappa = kappa and ell^2 = lambda2 / kappa
        cfg = SimConfig(
            model=GKLinear(tau=0.0, ell=np.sqrt(lambda2 / args.kappa), varkappa=CoefficientFn(args.kappa)),
            material=MaterialConstants(rho=1.0, cv=1.0),
            grid=grid,
            dt=1e-2,
            t_end=0.1,
            theta_ref=1.0,
            imposed_gradient=args.gradient,
        )
        traj = simulate(cfg)
        exact = steady_gk_profile(args.kappa, lambda2, args.gradient, 1.0, traj.x)
        linf = float(np.abs(traj.fluxes[-1] - exact).max())
        mid = float(np.interp(0.5, traj.x, traj.fluxes[-1]))
        print(
            f"{lambda2:10.4g} {mid:12.6f} {linf:14.3e} "
            f"{traj.audit['min_zeta'].min():10.3e}"
        )


if __name__ == "__main__":
    main()
