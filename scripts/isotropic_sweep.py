"""Map brute-force verdicts over a (lambda, mu) grid of isotropic tensors.

Usage: python3 scripts/isotropic_sweep.py [--n-lam 13] [--n-mu 9]

For each pair the sphere minimum of the form is min(mu, lambda + 2 mu) in
closed form, so every cell doubles as a regression check: the script prints
'+' (strictly positive), '0' (boundary band), '-' (negative), uppercase when
the brute-force verdict disagrees with the closed form, and reports the
largest deviation between the refined minimum and the closed-form value.
The oracle runs as in `check`: on its oracle.GRID_N lattice, and a closed
form within oracle.TOL of 0 is the boundary band.
"""

import argparse

import numpy as np

import ellipticity_lab as el
from ellipticity_lab import oracle


def cell(lam, mu):
    theory = min(mu, lam + 2.0 * mu)
    ov = el.oracle_verdict(el.tensor_isotropic(lam, mu))
    if theory < -oracle.TOL:
        want = el.ORACLE_NOT_MPSD
        mark = "-"
    elif theory > oracle.TOL:
        want = el.ORACLE_MPD_LIKELY
        mark = "+"
    else:
        want = el.ORACLE_BOUNDARY
        mark = "0"
    agree = ov.verdict == want
    return (mark if agree else mark.upper() + "!"), abs(ov.report.min_value - theory)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lam-min", type=float, default=-4.0)
    ap.add_argument("--lam-max", type=float, default=2.0)
    ap.add_argument("--n-lam", type=int, default=13)
    ap.add_argument("--mu-min", type=float, default=0.25)
    ap.add_argument("--mu-max", type=float, default=2.25)
    ap.add_argument("--n-mu", type=int, default=9)
    args = ap.parse_args()

    lams = np.linspace(args.lam_min, args.lam_max, args.n_lam)
    mus = np.linspace(args.mu_min, args.mu_max, args.n_mu)

    header = "mu \\ lam"
    print(f"{header:>9} " + " ".join(f"{lam:>6.2f}" for lam in lams))
    worst = 0.0
    disagreements = 0
    for mu in mus[::-1]:
        row = []
        for lam in lams:
            mark, err = cell(lam, mu)
            worst = max(worst, err)
            disagreements += mark.endswith("!")
            row.append(f"{mark:>6}")
        print(f"{mu:>9.2f} " + " ".join(row))
    print(f"\nmax |refined min - closed form| = {worst:.3e}")
    print(f"disagreements with the closed form: {disagreements}")


if __name__ == "__main__":
    main()
