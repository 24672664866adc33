"""Seeded operation pools for the three workloads.

Every continuous parameter (gamma, c, margins, Lame moduli, rotations) is
drawn from seeded strata: stratum k of n covers [k/n, (k+1)/n) of the range,
so every seed yields the same mix of cost classes and the percentiles land
inside a class, not on the gap between two. Each item records its truth
class from ``refs``, which never calls the library.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

import refs
from refs import MPD, MPSD, NOT_MPSD

WORKLOADS = ("check-mix", "pocs-certify", "case-sup")
EXTREME_SCALES = (1e-160, 1e-150, 1e150, 1e160)


@dataclass(frozen=True)
class Item:
    label: str
    a: np.ndarray
    truth: str
    dec: tuple | None = None  # (alphas, mats) handed to the case stage
    kind: str = ""  # pocs: "mpd" | "mpsd"; cases: "1" | "2" | "3"
    extreme: bool = False  # copy at 1e+-150 / 1e+-160 (known seed defects)


def strata(rng, n: int, lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]


def _normalized_random(rng) -> np.ndarray:
    r = refs.sym_pairs(rng.standard_normal((3, 3, 3, 3)))
    return r / np.linalg.norm(r)


# Random base tensors come from a fixed stream, not from the run's seed: the
# cost of a POCS run or an oracle refinement depends on the tensor itself,
# and tensors drawn per seed would move the median and tail between seeds.
# The seed draws the rotations and the stratified parameters instead; both
# leave each base tensor's minimum, and its cost class, unchanged.
BASE_SEED = 20170515


@functools.lru_cache(maxsize=None)
def base_spd(n: int) -> tuple:
    """Tensors whose unfolding has min eigenvalue > 2% of their norm."""
    rng = np.random.default_rng([BASE_SEED, 1])
    out = []
    while len(out) < n:
        g = rng.standard_normal((9, 9))
        m = g @ g.T / 9.0 + 0.3 * np.eye(9)
        a = refs.sym_pairs(m.reshape(3, 3, 3, 3).transpose(1, 3, 0, 2))
        if refs.unfolding_min_eig(a) > 0.02 * np.linalg.norm(a):
            out.append(a)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def base_gap(n: int) -> tuple:
    """(R, c_M, width) with min form of R = -c_M and lambda_min(unfold R) =
    -(c_M + width); only widths in [0.045, 0.075] are kept."""
    rng = np.random.default_rng([BASE_SEED, 2])
    out = []
    while len(out) < n:
        r = _normalized_random(rng)
        c_m = -refs.sphere_min(r)[0]
        width = -refs.unfolding_min_eig(r) - c_m
        if 0.045 <= width <= 0.075:
            out.append((r, c_m, width))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def base_refuting(n: int) -> tuple:
    """Tensors with a form value below -0.05 (a witness) somewhere."""
    rng = np.random.default_rng([BASE_SEED, 3])
    out = []
    while len(out) < n:
        r = _normalized_random(rng)
        if refs.sphere_min(r)[0] < -0.05:
            out.append(r)
    return tuple(out)


def gap_tensor(rng, base: tuple, t: float) -> tuple[np.ndarray, float]:
    """R + c E with c at fraction t across the gap (c_M, c_S) of R, rotated.

    Inside the gap the form is M-PD with margin c - c_M = t * width, but the
    unfolding is indefinite, so only the POCS stage can certify it.
    """
    r, c_m, width = base
    margin = t * width
    return _rotated(rng, r + (c_m + margin) * refs.identity_form()), margin


def _iso_negative(rng, n: int) -> list[np.ndarray]:
    """Isotropic tensors with lambda + 2 mu in [-3, -0.5] and mu in [0.1, 1]."""
    mus = strata(rng, n, 0.1, 1.0)
    p_waves = strata(rng, n, -3.0, -0.5)
    rng.shuffle(p_waves)
    return [refs.isotropic(p - 2.0 * mu, mu) for mu, p in zip(mus, p_waves)]


def _choi_lam(rng, gamma: float, rotate_y: bool):
    """Choi-Lam tensor and its case-2 terms, with x (and optionally y) rotated.

    Nonnegative iff gamma >= 1, and zero at x = e1, y = e3 for every gamma,
    so the truth is MPSD or NotMPSD, never MPD.
    """
    px = refs.rotation(rng)
    qy = refs.rotation(rng) if rotate_y else np.eye(3)
    alphas, mats = refs.choi_lam_terms(gamma)
    mats = refs.rotate_terms(mats, px, qy)
    a = refs.rank_one_terms_tensor(alphas, mats)
    return a, (alphas, mats), MPSD if gamma >= 1.0 else NOT_MPSD


def _rotated(rng, a: np.ndarray) -> np.ndarray:
    return refs.rotate(a, refs.rotation(rng), refs.rotation(rng))


def check_mix(rng) -> list[Item]:
    """33 checks: 21 cheap (oracle-bound) ones and 12 that add a case-2
    supremum or a stalled POCS run, so the tail level (10 beyond) falls
    inside the 12 and the median inside the 21."""
    items: list[Item] = []

    def add(label, a, truth, dec=None, extreme=False):
        items.append(Item(f"{label}-{len(items):02d}", a, truth, dec, extreme=extreme))

    for a in base_spd(3):
        add("spd", _rotated(rng, a), MPD)
    for base, t in zip(base_gap(4), strata(rng, 4, 0.25, 0.95)):
        add("gap", gap_tensor(rng, base, t)[0], MPD)
    for _ in range(2):
        add("two-squares", _rotated(rng, refs.two_squares()), MPSD)
    for a in _iso_negative(rng, 2):
        add("iso-neg", a, NOT_MPSD)
    for a in base_refuting(2):
        add("random-neg", _rotated(rng, a), NOT_MPSD)
    for _ in range(3):
        a, dec, truth = _choi_lam(rng, 1.0, rotate_y=False)
        add("choi-lam-1", a, truth, dec)
    for g in strata(rng, 3, 0.5, 0.9):
        a, dec, truth = _choi_lam(rng, g, rotate_y=False)
        add("choi-lam-below", a, truth, dec)
    for g in strata(rng, 3, 1.2, 2.0):
        a, dec, truth = _choi_lam(rng, g, rotate_y=False)
        add("choi-lam-above", a, truth, dec)
    for g in strata(rng, 3, 1.0, 2.0):
        a, _, truth = _choi_lam(rng, g, rotate_y=True)
        add("choi-lam-nodec", a, truth)
    # Extreme-scale copies: positivity is scale-invariant, so the truth is
    # that of the unscaled tensor. The library overflows or loses its
    # absolute thresholds at these scales, so some of them fail today.
    for s in EXTREME_SCALES:
        add(f"iso-neg-x{s:.0e}", s * _iso_negative(rng, 1)[0], NOT_MPSD, extreme=True)
        add(f"two-squares-x{s:.0e}", s * _rotated(rng, refs.two_squares()), MPSD, extreme=True)
    return items


def pocs_certify(rng) -> list[Item]:
    """48 runs: 12 that stall into GapPositive after ~60 sweeps and 36 that
    converge across the gap in ~100-300 sweeps (median and tail both land
    among the converging runs)."""
    items: list[Item] = []

    def add(label, a, truth, kind):
        items.append(Item(f"{label}-{len(items):02d}", a, truth, kind=kind))

    for g in strata(rng, 6, 1.0, 2.0):
        a, _, truth = _choi_lam(rng, g, rotate_y=True)
        add("choi-lam-stall", a, truth, "mpsd")
    for a in _iso_negative(rng, 6):
        add("iso-neg-stall", a, NOT_MPSD, "mpsd")
    for kind in ("mpd", "mpsd"):
        for base, t in zip(base_gap(18), strata(rng, 18, 0.25, 0.95)):
            add(f"gap-{kind}", gap_tensor(rng, base, t)[0], MPD, kind)
    return items


def case_sup(rng) -> list[Item]:
    """52 checks in four cost classes: 10 closed-form or rejected ones
    (~1 ms), 20 case-3 suprema (~12 ms), 16 case-2 suprema at gamma <= 1
    (~70 ms) and 6 at gamma > 1 that need the probe rings (~500 ms). The
    median falls inside the case-3 class and the tail level (10 beyond)
    inside the gamma <= 1 class, away from the edges between classes."""
    items: list[Item] = []

    def add(label, alphas, mats, truth, kind):
        a = refs.rank_one_terms_tensor(alphas, mats)
        items.append(Item(f"{label}-{len(items):02d}", a, truth, (alphas, mats), kind))

    # Case 1: C = I + alpha sigma sigma^T is PSD iff alpha |sigma|^2 >= -1.
    for f in strata(rng, 4, 0.2, 0.8) + strata(rng, 2, 1.3, 2.0):
        sigma = rng.standard_normal(3)
        alphas, mats = refs.case1_terms(sigma, -f / float(sigma @ sigma))
        mats = refs.rotate_terms(mats, refs.rotation(rng), refs.rotation(rng))
        add("case1", alphas, mats, MPSD if f <= 1.0 else NOT_MPSD, "1")
    # A case-2 shape whose negative term 3 v_2 v_1^T leaves the rank-one
    # span: the structure test rejects it (StructureMismatch). At x = v_2,
    # y = v_1 the form is at most 4 - 9 < 0, so the truth is NotMPSD.
    for g in strata(rng, 4, 1.0, 2.0):
        _, (alphas, mats), _ = _choi_lam(rng, g, rotate_y=False)
        mats = mats.copy()
        mats[6] = 3.0 * np.outer(mats[1] @ np.ones(3), mats[0] @ np.ones(3))
        add("case2-offspan", alphas, mats, NOT_MPSD, "2")
    # Case 3: |x|^2 |y|^2 - c^2 (x.y)^2 in rotated frames, minimum 1 - c^2.
    for c in strata(rng, 12, 0.3, 0.9) + strata(rng, 8, 1.1, 1.5):
        alphas, mats = refs.case3_terms(c)
        mats = refs.rotate_terms(mats, refs.rotation(rng), refs.rotation(rng))
        add("case3", alphas, mats, refs.truth_class(1.0 - c * c), "3")
    for g in strata(rng, 14, 0.75, 0.95) + [1.0, 1.0]:
        _, (alphas, mats), truth = _choi_lam(rng, g, rotate_y=False)
        add("case2-below" if g < 1.0 else "case2-at-1", alphas, mats, truth, "2")
    for g in strata(rng, 6, 1.1, 2.0):
        _, (alphas, mats), truth = _choi_lam(rng, g, rotate_y=False)
        add("case2-above", alphas, mats, truth, "2")
    return items


BUILDERS = {"check-mix": check_mix, "pocs-certify": pocs_certify, "case-sup": case_sup}


def build(workload: str, seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return BUILDERS[workload](rng)
