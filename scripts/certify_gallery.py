"""Run the check pipeline on the bundled gallery of tensors and tabulate it.

Usage: python3 scripts/certify_gallery.py

Columns: the minimum unfolding eigenvalue (the S-PSD shortcut), the
structured-case verdict when a case shape matches, the brute-force minimum,
check's verdict, and the stage that decided it (both sides of a Conflict).
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


def decided_by(rep):
    if rep.verdict == "Conflict":
        return f"{rep.certified_mpd_by or rep.certified_mpsd_by}/{rep.refuted_by}"
    by = {
        "MPD": rep.certified_mpd_by,
        "MPSD": rep.certified_mpsd_by,
        "NotMPSD": rep.refuted_by,
    }.get(rep.verdict)
    return by or "-"


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()

    head = (
        f"{'tensor':<18} {'min eig':>10} {'case':>18} {'oracle min':>12} "
        f"{'verdict':>10} {'decided by':>11}"
    )
    print(head)
    print("-" * len(head))
    for name, t, dec in gallery():
        rep = el.check(t, dec)
        stages = {s["stage"]: s for s in rep.stages}
        print(
            f"{name:<18} {stages['spsd-eigen']['min_eigenvalue']:>10.3e} "
            f"{stages['case'].get('verdict', '-'):>18} "
            f"{stages['oracle']['report']['min_value']:>12.3e} "
            f"{rep.verdict:>10} {decided_by(rep):>11}"
        )


if __name__ == "__main__":
    main()
