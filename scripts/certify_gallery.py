"""Certify the bundled gallery of tensors and tabulate which route decides each.

Usage: python3 scripts/certify_gallery.py [--grid-n 2000]

Columns: the minimum unfolding eigenvalue (the S-PSD shortcut), the
alternating-projection outcome, the structured-case verdict when a case shape
matches, the brute-force minimum, and the verdict the evidence supports.
"""

import argparse

import numpy as np

import ellipticity_lab as el


def gallery():
    yield "E", el.tensor_e(), None
    yield "two-squares", el.tensor_two_squares(), None
    yield "choi-lam(1.0)", el.tensor_choi_lam(1.0), el.choi_lam_case2_decomposition(1.0)
    yield "choi-lam(1.5)", el.tensor_choi_lam(1.5), el.choi_lam_case2_decomposition(1.5)
    yield "isotropic(1,1)", el.tensor_isotropic(1.0, 1.0), None
    yield "isotropic(-1.9,1)", el.tensor_isotropic(-1.9, 1.0), None
    yield "isotropic(-3,0.1)", el.tensor_isotropic(-3.0, 0.1), None
    rng = np.random.default_rng(0)
    yield "random-spd(0)", el.random_spd_tensor(rng), None


def decide(t, dec, grid_n):
    lam_min = el.min_eigenvalue(el.unfold(t))
    pocs = el.certify_mpsd(t)
    if dec is None:
        dec = el.spectral_decomposition(t)
    case_rep = el.check_case(dec)
    case_verdict = "-" if case_rep is None else case_rep.verdict
    ov = el.oracle_verdict(t, n=grid_n)
    if ov.verdict == el.ORACLE_NOT_MPSD:
        verdict = "NotMPSD"
    elif pocs.certified or case_verdict in ("MPSD", "MPD"):
        verdict = "MPSD"
    else:
        verdict = "undecided"
    return lam_min, pocs.certified, case_verdict, ov.report.min_value, verdict


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid-n", type=int, default=2000)
    args = ap.parse_args()

    head = f"{'tensor':<18} {'min eig':>10} {'pocs':>6} {'case':>18} {'oracle min':>12} {'verdict':>10}"
    print(head)
    print("-" * len(head))
    for name, t, dec in gallery():
        lam_min, certified, case_verdict, oracle_min, verdict = decide(
            t, dec, args.grid_n
        )
        print(
            f"{name:<18} {lam_min:>10.3e} {str(certified):>6} "
            f"{case_verdict:>18} {oracle_min:>12.3e} {verdict:>10}"
        )


if __name__ == "__main__":
    main()
