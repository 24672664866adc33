"""Reference answers computed with numpy alone, never with ellipticity_lab.

The form of a tensor a[i,j,k,l] is F(x, y) = sum a[ijkl] x_i x_j y_k y_l.
Over unit x it is minimised by the smallest eigenvalue of the 3x3 matrix
A y^2 = (sum_kl a[ijkl] y_k y_l)_ij, so min F over the two unit spheres is
min over unit y of lambda_min(A y^2). Each pool item carries a truth class:

* ``MPD``: min F > 0 (the strong ellipticity condition);
* ``MPSD``: min F == 0 (nonnegative, on the boundary);
* ``NotMPSD``: min F < 0.

Where a closed form exists it is used: isotropic min(mu, lambda + 2 mu),
Choi-Lam nonnegative iff gamma >= 1 (and zero at x = e1, y = e3 for every
gamma), the two-squares form (minimum 0), and the case-1/case-3
thresholds. Otherwise ``sphere_min`` gives the smallest value of F found by
a y-scan plus alternating refinement. It is an achieved value, so a
negative one is a witness; R + c E is taken as M-PD only when c exceeds
-sphere_min(R) by a margin (>= 0.011 in the pools) far above the refined
scan's error.
"""

from __future__ import annotations

import numpy as np

MPD = "MPD"
MPSD = "MPSD"
NOT_MPSD = "NotMPSD"


def truth_class(min_form: float, tol: float = 1e-12) -> str:
    if min_form > tol:
        return MPD
    if min_form < -tol:
        return NOT_MPSD
    return MPSD


def unfold(a: np.ndarray) -> np.ndarray:
    """9x9 matrix with a[ijkl] at row 3k+i, column 3l+j (zero-based)."""
    return a.transpose(2, 0, 3, 1).reshape(9, 9)


def sym_pairs(a: np.ndarray) -> np.ndarray:
    """Average over both pair swaps, bit-exactly symmetric in each pair."""
    m = 0.5 * (a + a.transpose(1, 0, 2, 3))
    return 0.5 * (m + m.transpose(0, 1, 3, 2))


def identity_form() -> np.ndarray:
    """e[iikk] = 1: the form |x|^2 |y|^2."""
    eye = np.eye(3)
    return np.einsum("ij,kl->ijkl", eye, eye)


def two_squares() -> np.ndarray:
    """Form 2 (x1 y1 + x2 y2)^2 + 2 x3^2 y3^2; min 0, indefinite unfolding."""
    a = np.zeros((3, 3, 3, 3))
    a[0, 0, 0, 0] = a[1, 1, 1, 1] = a[2, 2, 2, 2] = 2.0
    a[0, 1, 1, 0] = a[1, 0, 1, 0] = a[1, 0, 0, 1] = a[0, 1, 0, 1] = 1.0
    return a


def isotropic(lam: float, mu: float) -> np.ndarray:
    """Form mu |x|^2 |y|^2 + (lam + mu) (x.y)^2, minimum min(mu, lam + 2 mu)."""
    eye = np.eye(3)
    a = mu * np.einsum("ij,kl->ijkl", eye, eye) + 0.5 * (lam + mu) * (
        np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye)
    )
    return sym_pairs(a)


def rank_one_terms_tensor(alphas, mats) -> np.ndarray:
    """Tensor whose A y^2 is sum_s alpha_s (U_s y)(U_s y)^T."""
    b = np.einsum("s,sik,sjl->ijkl", np.asarray(alphas), mats, mats)
    return sym_pairs(b)


def choi_lam_terms(gamma: float):
    """Case-2 terms (2, e_s e_s^T), (gamma, e_s e_{s+1}^T), (-1, I)."""
    eye = np.eye(3)
    mats = [np.outer(eye[s], eye[s]) for s in range(3)]
    mats += [np.outer(eye[s], eye[(s + 1) % 3]) for s in range(3)]
    mats.append(eye)
    return np.array([2.0] * 3 + [gamma] * 3 + [-1.0]), np.stack(mats)


def case3_terms(c: float):
    """Case-3 terms e_s e_t^T (all nine, weight 1) and (-1, c I).

    Form |x|^2 |y|^2 - c^2 (x.y)^2, whose minimum on the spheres is 1 - c^2.
    """
    eye = np.eye(3)
    # Slot k of every left-vector triple pairs e_s with e_{s+k}, so each slot
    # forms a nonsingular frame, as the case-3 structure requires.
    mats = [np.outer(eye[s], eye[(s + k) % 3]) for k in range(3) for s in range(3)]
    mats.append(c * eye)
    return np.array([1.0] * 9 + [-1.0]), np.stack(mats)


def case1_terms(sigma, alpha_neg: float):
    """Case-1 terms (1, e_s e_s^T) and (alpha_neg, diag(sigma)).

    C = I + alpha_neg sigma sigma^T, so the form is nonnegative iff
    1 + alpha_neg |sigma|^2 >= 0 (the case-1 threshold), never positive.
    """
    eye = np.eye(3)
    mats = [np.outer(eye[s], eye[s]) for s in range(3)] + [np.diag(sigma)]
    return np.array([1.0, 1.0, 1.0, alpha_neg]), np.stack(mats)


def rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed proper rotation of R^3."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def rotate(a: np.ndarray, px: np.ndarray, qy: np.ndarray) -> np.ndarray:
    """F'(x, y) = F(px^T x, qy^T y): same minimum, rotated frames."""
    return sym_pairs(np.einsum("ip,jq,kr,ls,pqrs->ijkl", px, px, qy, qy, a))


def rotate_terms(mats: np.ndarray, px: np.ndarray, qy: np.ndarray) -> np.ndarray:
    """Terms U_s -> px U_s qy^T, matching ``rotate`` on the induced tensor."""
    return np.einsum("ip,spq,jq->sij", px, mats, qy)


def _hemisphere(n_polar: int) -> np.ndarray:
    """Latitude rings on the upper hemisphere, azimuth count ~ sin(polar)."""
    pts = []
    for k in range(n_polar):
        th = 0.5 * np.pi * (k + 0.5) / n_polar
        m = max(1, int(round(4 * n_polar * np.sin(th))))
        ph = 2.0 * np.pi * (np.arange(m) + 0.5 * (k % 2)) / m
        st = np.sin(th)
        pts.append(np.column_stack((st * np.cos(ph), st * np.sin(ph), np.full(m, np.cos(th)))))
    return np.concatenate(pts)


def _min_eigvec(mats: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mats)
    return w[..., 0], v[..., :, 0]


def sphere_min(a: np.ndarray, n_polar: int = 60, starts: int = 8, steps: int = 200):
    """Smallest form value found by a y-scan plus alternating refinement.

    Returns (value, x, y) with value == F(x, y) recomputed directly, so the
    value is achieved by the form: it bounds the minimum from above.
    """
    ys = _hemisphere(n_polar)
    mats = np.einsum("ijkl,nk,nl->nij", a, ys, ys)
    lam, _ = _min_eigvec(0.5 * (mats + mats.transpose(0, 2, 1)))
    order = np.argsort(lam, kind="stable")[:starts]
    best = (np.inf, None, None)
    for idx in order:
        y = ys[idx]
        x = None
        for _ in range(steps):
            _, x = _min_eigvec(np.einsum("ijkl,k,l->ij", a, y, y))
            _, y_new = _min_eigvec(np.einsum("ijkl,i,j->kl", a, x, x))
            if abs(abs(float(y_new @ y)) - 1.0) < 1e-15:
                y = y_new
                break
            y = y_new
        _, x = _min_eigvec(np.einsum("ijkl,k,l->ij", a, y, y))
        val = form_value(a, x, y)
        if val < best[0]:
            best = (val, x, y)
    return best


def form_value(a: np.ndarray, x, y) -> float:
    return float(np.einsum("ijkl,i,j,k,l->", a, x, x, y, y))


def unfolding_min_eig(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(unfold(a))[0])
