#!/usr/bin/env python3
"""Map per-mode stability of the third-order temperature equation over a
(kappa, tau) parameter grid and print where the first unstable mode appears.

Usage:
    python3 scripts/modal_stability_map.py [--n-max 100] [--xi 1.0]
"""
import argparse

import numpy as np

from nonfourier.consistency import check_quintanilla
from nonfourier.modal import SpectralProblem, mode_reports
from nonfourier.models import Quintanilla


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--xi", type=float, default=1.0)
    ap.add_argument("--n-max", type=int, default=100)
    ap.add_argument("--L", type=float, default=np.pi)
    args = ap.parse_args()

    problem = SpectralProblem(bc="dirichlet", L=args.L, n_max=args.n_max)
    taus = [0.25, 0.5, 1.0, 2.0]
    kappas = np.linspace(0.1, 3.0, 30)

    print(f"{'tau':>6} {'kappa':>7} {'consistent':>10} {'first_unstable_n':>16} {'worst_class':>22}")
    for tau in taus:
        for kappa in kappas:
            model = Quintanilla(tau=tau, xi=args.xi, kappa=float(kappa))
            verdict = check_quintanilla(model)
            s = mode_reports(problem, model)
            bad = s.n[~s.rh_pass].tolist()
            rank = {
                "decaying": 0,
                "oscillatory_decaying": 1,
                "neutral_oscillation": 2,
                "mixed": 3,
                "unstable": 4,
            }
            worst = max(s.classification, key=rank.__getitem__)
            print(
                f"{tau:6.2f} {kappa:7.3f} {str(verdict.passed):>10} "
                f"{(bad[0] if bad else '-'):>16} {worst:>22}"
            )


if __name__ == "__main__":
    main()
