"""Fourth-order tensors a[i,j,k,l] on R^3: symmetry classes, matricization, forms.

Index conventions, fixed once here and used everywhere else:

* An elasticity tensor satisfies a[ijkl] = a[jikl] = a[ijlk] (swap inside
  either index pair). A weakly symmetric tensor satisfies only the joint
  swap t[ijkl] = t[jilk].
* The 9x9 matricization places t[ijkl] at row 3*(k-1)+i, column 3*(l-1)+j
  (1-based), i.e. a 3x3 grid of 3x3 blocks where block (k, l) holds the
  matrix (t[ijkl])_ij. Under this layout weak symmetry of the tensor is
  exactly symmetry of the matrix, and for z = vec(Z) stacking the columns
  of a 3x3 matrix Z, z^T M z equals sum over ijkl of t[ijkl] z[ik] z[jl].
* The bi-quadratic form pairs x with the first index pair and y with the
  second: A(x,x,y,y) = sum a[ijkl] x_i x_j y_k y_l.

Arrays are float64 throughout, shape (3, 3, 3, 3), zero-based in code.

A tensor is validated where it is built: Pair4 and Elast4 check the shape,
finiteness and their exact symmetry, and store a read-only C-ordered copy.
Code that takes one trusts those invariants and does not test the tensor
again; a later check guards an array derived from it, such as an unfolding
or a report's limit. make_elast4 and make_pair4 are the way in for raw input.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEntries, SymmetryViolation
from .spectral import _require_symmetric, min_eigenvalue

__all__ = [
    "Pair4",
    "Elast4",
    "make_elast4",
    "make_pair4",
    "symmetrize_pairs",
    "orbit_spread",
    "unfold",
    "fold",
    "vec",
    "unvec",
    "contract_yy",
    "contract_xx",
    "biquadratic",
    "tensor_e",
    "tensor_choi_lam",
    "tensor_isotropic",
    "tensor_two_squares",
    "tensor_from_rank_one_terms",
    "random_tensor",
    "random_spd_tensor",
]


def _as_tensor_array(raw) -> np.ndarray:
    """raw as a fresh C-ordered float64 (3, 3, 3, 3) array (81 entries are
    reshaped); ValueError for another shape, NonFiniteEntries for inf or NaN."""
    arr = np.array(raw, dtype=float, order="C")
    if arr.shape == (81,):
        arr = arr.reshape(3, 3, 3, 3)
    if arr.shape != (3, 3, 3, 3):
        raise ValueError(f"expected shape (3,3,3,3), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteEntries("tensor entries must be finite")
    return arr


def _mean(a, b):
    """(a + b) / 2 that stays finite for finite a, b. Halving first is exact
    above the subnormal range but rounds differently, so it is taken only
    where the sum overflows; like the sum, it is symmetric in a and b."""
    with np.errstate(over="ignore"):
        total = a + b
    if np.isfinite(total).all():
        return 0.5 * total
    return np.where(np.isinf(total), 0.5 * a + 0.5 * b, 0.5 * total)


def _orbit_mean(arr: np.ndarray, swaps) -> np.ndarray:
    """arr averaged with its image under each index permutation of swaps in turn."""
    for s in swaps:
        arr = _mean(arr, arr.transpose(s))
    return arr


def _spread(arr: np.ndarray, swaps) -> float:
    """Largest |arr - arr.transpose(s)| over the index permutations s. Entries
    of opposite sign near the float limit spread to inf, which fails every
    tolerance, as it should."""
    with np.errstate(over="ignore"):
        return max(float(np.max(np.abs(arr - arr.transpose(s)))) for s in swaps)


@dataclass(frozen=True)
class Pair4:
    """Weakly symmetric tensor: t[ijkl] == t[jilk] exactly.

    The entry array is stored read-only; instances are safe to share.
    Construction checks the invariant to exact equality (two distinct
    finite floats never differ by 0), so go through make_pair4 for noisy
    input.
    """

    a: np.ndarray
    _SWAPS = ((1, 0, 3, 2),)

    def __post_init__(self):
        arr = _as_tensor_array(self.a)
        # On finite entries a swap spreads by 0 exactly where it maps every
        # entry to an equal one (0.0 == -0.0), so the spread is computed
        # only for the message.
        for s in self._SWAPS:
            if not (arr == arr.transpose(s)).all():
                raise SymmetryViolation(_spread(arr, self._SWAPS), 0.0)
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)


@dataclass(frozen=True)
class Elast4(Pair4):
    """Elasticity tensor: symmetric inside each index pair, exactly."""

    _SWAPS = ((1, 0, 2, 3), (0, 1, 3, 2))


def symmetrize_pairs(raw) -> np.ndarray:
    """Average raw entries over the pair-swap orbit.

    Done in two commutative stages so the result is bit-exactly invariant
    under both swaps (IEEE addition commutes, so (a+b)/2 == (b+a)/2).
    """
    return _orbit_mean(_as_tensor_array(raw), Elast4._SWAPS)


_ORBIT = Elast4._SWAPS + Pair4._SWAPS  # the orbit's three nontrivial swaps


def orbit_spread(raw) -> float:
    """Largest max-min disagreement across any pair-swap orbit: every pair of
    an orbit is an entry and one of its three images."""
    return _spread(_as_tensor_array(raw), _ORBIT)


# make_elast4 and make_pair4 average away orbit spreads up to this times max|raw|.
ORBIT_TOL = 1e-8


def _canonical(raw, cls, swaps):
    """cls of raw averaged over cls._SWAPS in turn (for Elast4, as in
    symmetrize_pairs), once its spread over swaps is at most ORBIT_TOL * max|raw|."""
    arr = _as_tensor_array(raw)
    spread, tol = _spread(arr, swaps), ORBIT_TOL * float(np.max(np.abs(arr)))
    if spread > tol:
        raise SymmetryViolation(spread, tol)
    return cls(_orbit_mean(arr, cls._SWAPS))


def make_elast4(raw) -> Elast4:
    """Canonicalize raw entries into an Elast4 by orbit averaging.

    Raises SymmetryViolation when entries inside one orbit disagree by more
    than ORBIT_TOL * max|raw| (inf always does); less is averaged away.
    """
    return _canonical(raw, Elast4, _ORBIT)


def make_pair4(raw) -> Pair4:
    """Canonicalize raw entries into a Pair4 (joint-swap average), as make_elast4."""
    return _canonical(raw, Pair4, Pair4._SWAPS)


def unfold_array(arr: np.ndarray) -> np.ndarray:
    """The 9x9 layout of a (3, 3, 3, 3) array, unchecked: a fresh C-ordered copy."""
    return arr.transpose(2, 0, 3, 1).reshape(9, 9)


def fold_array(mat: np.ndarray) -> np.ndarray:
    """Inverse of unfold_array, unchecked: a (3, 3, 3, 3) view of mat."""
    return mat.reshape(3, 3, 3, 3).transpose(1, 3, 0, 2)


def pow2_rescale(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """(ldexp(arr, -e), e) with e the frexp exponent of max|arr|.

    The rescaled entries have max magnitude in [0.5, 1). Scaling by a power
    of two is exact, so a form value of the rescaled tensor times 2**e is
    the value of the original wherever nothing overflows or underflows. A
    zero, inf or NaN peak has exponent 0 and leaves the array as it is.
    """
    e = int(np.frexp(np.max(np.abs(arr)))[1])
    return np.ldexp(arr, -e), e


def unfold(t: Pair4) -> np.ndarray:
    """9x9 matricization; symmetric exactly when t is weakly symmetric."""
    return unfold_array(t.a)


def fold(m) -> Pair4:
    """Inverse of unfold, for a 9x9 m symmetric within SYMMETRY_TOL * max|m|
    (else AsymmetricInput), finite and with 9 max|m| < 2**1020 (else
    EigensolverFailure): the input rule of every spectral function.

    The matrix is symmetrized exactly, so the result satisfies the weak-symmetry
    invariant bit-for-bit and unfold(fold(m)) == m for a symmetric m.
    """
    return Pair4(fold_array(_require_symmetric(m)))


def vec(z) -> np.ndarray:
    """Column-stacking vectorization of a 3x3 matrix; vec(Z)[3k+i] = Z[i,k]."""
    zm = np.asarray(z, dtype=float)
    if zm.shape != (3, 3):
        raise ValueError(f"expected shape (3,3), got {zm.shape}")
    return zm.T.reshape(9).copy()


def unvec(u) -> np.ndarray:
    """Inverse of vec."""
    uv = np.asarray(u, dtype=float)
    if uv.shape != (9,):
        raise ValueError(f"expected shape (9,), got {uv.shape}")
    return uv.reshape(3, 3).T.copy()


def contract_yy(t: Pair4, y) -> np.ndarray:
    """Contract the second index pair with y twice: M_ij = sum_kl t[ijkl] y_k y_l.

    Returns the symmetrized 3x3 matrix. For an Elast4 the raw contraction is
    already symmetric and symmetrization is a bit-exact no-op.
    """
    yv = np.asarray(y, dtype=float)
    raw = np.einsum("ijkl,k,l->ij", t.a, yv, yv)
    return 0.5 * (raw + raw.T)


def contract_xx(t: Pair4, x) -> np.ndarray:
    """Contract the first index pair with x twice: N_kl = sum_ij t[ijkl] x_i x_j."""
    xv = np.asarray(x, dtype=float)
    raw = np.einsum("ijkl,i,j->kl", t.a, xv, xv)
    return 0.5 * (raw + raw.T)


def biquadratic(t: Pair4, x, y) -> float:
    """Bi-quadratic form sum t[ijkl] x_i x_j y_k y_l."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    return float(np.einsum("ijkl,i,j,k,l->", t.a, xv, xv, yv, yv))


# ---------------------------------------------------------------------------
# Named tensors


def tensor_e() -> Elast4:
    """The tensor with e[iikk] = 1 whose form is (x.x)(y.y); unfolds to I9."""
    eye = np.eye(3)
    return Elast4(np.einsum("ij,kl->ijkl", eye, eye))


def tensor_choi_lam(gamma: float = 1.0) -> Elast4:
    """Classical bi-quadratic with form

        sum_s x_s^2 y_s^2 - 2(x1 x2 y1 y2 + x2 x3 y2 y3 + x3 x1 y3 y1)
        + gamma (x1^2 y2^2 + x2^2 y3^2 + x3^2 y1^2).

    Nonnegative for every x, y when gamma >= 1 even though no matrix-level
    positive representative exists at gamma = 1. Values below 1 are accepted
    but leave the nonnegative regime, so they are flagged with a warning.
    """
    if gamma < 1.0:
        warnings.warn(
            f"gamma={gamma} is below 1; the form is no longer nonnegative",
            stacklevel=2,
        )
    a = np.zeros((3, 3, 3, 3))
    for s in range(3):
        t = (s + 1) % 3
        a[s, s, s, s] = 1.0
        a[s, s, t, t] = gamma
        # The cross monomial -2 x_s x_t y_s y_t split evenly over its orbit.
        a[s, t, s, t] = a[t, s, s, t] = a[s, t, t, s] = a[t, s, t, s] = -0.5
    return Elast4(a)


def tensor_isotropic(lam: float, mu: float) -> Elast4:
    """Isotropic elasticity tensor with Lame parameters (lambda, mu).

    In the index pairing used here the entries are

        a[ijkl] = mu * d_ij d_kl + (lam + mu)/2 * (d_ik d_jl + d_il d_jk),

    which makes the bi-quadratic form mu (x.x)(y.y) + (lam + mu)(x.y)^2,
    the classical acoustic form whose minimum over unit spheres is
    min(mu, lam + 2 mu).
    """
    eye = np.eye(3)
    # An entry lam + 2 mu beyond the float limit is inf here, and
    # make_elast4 rejects it as NonFiniteEntries.
    with np.errstate(over="ignore"):
        a = mu * np.einsum("ij,kl->ijkl", eye, eye) + _mean(lam, mu) * (
            np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye)
        )
    return make_elast4(a)


def tensor_two_squares() -> Elast4:
    """Form 2(x1 y1 + x2 y2)^2 + 2 x3^2 y3^2: nonnegative, yet the 9x9
    unfolding is indefinite. The standard witness that matrix-level
    positivity is strictly stronger than form-level positivity."""
    a = np.zeros((3, 3, 3, 3))
    a[0, 0, 0, 0] = a[1, 1, 1, 1] = a[2, 2, 2, 2] = 2.0
    a[0, 1, 1, 0] = a[1, 0, 1, 0] = a[1, 0, 0, 1] = a[0, 1, 0, 1] = 1.0
    return Elast4(a)


def tensor_from_rank_one_terms(alphas, mats) -> Elast4:
    """Elasticity tensor whose contracted matrix A y^2 equals
    sum_s alpha_s (U_s y)(U_s y)^T.

    Entries are a[ijkl] = 1/2 sum_s alpha_s (U[ik] U[jl] + U[jk] U[il]),
    the symmetric placement of the monomials of the rank-one terms.
    """
    al = np.asarray(alphas, dtype=float)
    us = np.asarray(mats, dtype=float)
    if us.ndim != 3 or us.shape[1:] != (3, 3) or al.shape != (us.shape[0],):
        raise ValueError("need alphas (r,) and mats (r,3,3)")
    b = np.einsum("s,sik,sjl->ijkl", al, us, us)
    # b is weakly symmetric up to contraction rounding; the two-stage
    # average restores both pair symmetries bit-exactly.
    return Elast4(symmetrize_pairs(b))


def random_tensor(rng: np.random.Generator) -> Elast4:
    """Orbit-symmetrized standard normal entries, scaled to Frobenius norm 1."""
    raw = symmetrize_pairs(rng.standard_normal((3, 3, 3, 3)))
    nrm = np.linalg.norm(raw)
    if nrm == 0.0:
        raw[0, 0, 0, 0] = 1.0
        return Elast4(symmetrize_pairs(raw))
    # Times the reciprocal, not raw / nrm, which rounds differently: these
    # are the bits `gen random` writes.
    return Elast4(raw * (1.0 / nrm))


# random_spd_tensor keeps a draw whose smallest unfolding eigenvalue is at
# least this share of its norm, and gives up after this many draws.
SPD_MIN_EIG_FRAC = 1e-3
SPD_MAX_TRIES = 200


def random_spd_tensor(rng: np.random.Generator) -> Elast4:
    """Random elasticity tensor whose unfolding is strictly PSD.

    Draws a random PSD 9x9 matrix, folds it, and orbit-averages into the
    elasticity class. The averaging acts on the unfolding like a partial
    transpose and can destroy definiteness, so candidates are re-verified
    and rejected until the smallest eigenvalue clears a relative margin.
    """
    for _ in range(SPD_MAX_TRIES):
        g = rng.standard_normal((9, 9))
        m = g @ g.T / 9.0
        folded = fold(m)
        cand = Elast4(symmetrize_pairs(folded.a))
        lam_min = min_eigenvalue(unfold(cand))
        if lam_min >= SPD_MIN_EIG_FRAC * max(1e-30, float(np.linalg.norm(cand.a))):
            return cand
    raise RuntimeError("failed to draw a strictly positive unfolding")
