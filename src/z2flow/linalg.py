"""Dense real linear algebra with exact sign bookkeeping.

Pfaffians, determinant signs and the singular system of skew matrices that
the windowed engine cuts its spectral windows from; that system is one SVD,
of T itself or of the off-diagonal block of a chiral T.  Matrices are plain
two-dimensional float64 numpy arrays (the universal operator carrier
throughout the package); inputs are never mutated.
"""

from __future__ import annotations

import math

import numpy as np

from . import tolerances as tol
from .errors import ConfigError, DimensionError, SingularError, SymmetryError
from .z2 import Z2

__all__ = [
    "as_real_matrix",
    "max_abs",
    "pfaffian",
    "pfaffian_sign",
    "sign_det",
    "skew_singular_system",
]


def _real_array(m) -> np.ndarray:
    """Coerce input to a finite float64 array.  Entries that are not finite
    real numbers (complex, strings, NaN or inf from an evaluator) are
    invalid input and raise ``ConfigError``."""
    a = np.asarray(m)
    if a.dtype.kind not in "biuf":
        raise ConfigError(f"matrix entries must be real numbers, got dtype {a.dtype}")
    a = a.astype(float, copy=False)
    if a.size and not np.isfinite(a).all():
        raise ConfigError("matrix entries must be finite")
    return a


def as_real_matrix(m) -> np.ndarray:
    """``_real_array`` of a matrix; other dimensions raise ``DimensionError``."""
    a = _real_array(m)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of ndim={a.ndim}")
    return a


def max_abs(a: np.ndarray) -> float:
    """Max-norm of a matrix; 0 for empty matrices."""
    return float(np.abs(a).max()) if a.size else 0.0


def require_square(a: np.ndarray) -> int:
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"square matrix required, got shape {a.shape}")
    return a.shape[0]


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values in ascending order."""
    if a.size == 0:
        return np.zeros(min(a.shape))
    return np.linalg.svd(a, compute_uv=False)[::-1].copy()


def _step_norms(steps: np.ndarray) -> np.ndarray:
    """2-norms of the differences of consecutive stacked step matrices.

    Differences that overflow are taken of the steps scaled by their
    largest entry; a norm beyond the float range is then inf, without a
    numpy warning.
    """
    with np.errstate(over="ignore"):
        diffs = np.diff(steps, axis=0)
    if diffs.size == 0:
        return np.zeros(diffs.shape[0])
    if not np.isfinite(diffs).all():
        scale = max_abs(steps)
        with np.errstate(over="ignore"):
            return _step_norms(steps / scale) * scale
    return np.linalg.svd(diffs, compute_uv=False)[:, 0]


# ---------------------------------------------------------------------------
# Pfaffian


def _reduce_skew(a: np.ndarray):
    """Householder reduction of a skew matrix at the even steps k = 0, 2, ...:
    step k clears column k below row k + 1, so Pf(A) = a[k, k+1]
    Pf(A[k+2:, k+2:]) (an odd step would clear entries no factor reads).

    Returns the reduced matrix and the sign of the determinant of the
    accumulated orthogonal transform (each applied reflection contributes -1).
    """
    a = a.copy()
    n = a.shape[0]
    sign = 1.0
    for k in range(0, n - 2, 2):
        x = a[k + 1:, k]
        tail = np.linalg.norm(x[1:])
        if tail == 0.0:
            continue
        alpha = -np.copysign(np.hypot(x[0], tail), x[0])
        v = x.copy()
        v[0] -= alpha
        v /= np.linalg.norm(v)
        blk = a[k + 1:, k + 1:]
        w = blk @ v
        # H blk H with H = 1 - 2 v v^T; the v^T blk v term vanishes for skew blk
        blk += 2.0 * (np.outer(v, w) - np.outer(w, v))
        a[k + 1, k] = alpha
        a[k + 2:, k] = 0.0
        a[k, k + 1] = -alpha
        a[k, k + 2:] = 0.0
        sign = -sign
    return a, sign


# Entries of magnitude 2^-500 to 2^500 keep the squared norms of the
# reduction finite and normal (for n < 2^12)
_SAFE_EXP = 500


def _pfaffian_factors(m, check: bool = True):
    """The one Pfaffian route: validate m (unless ``check`` is off) and
    reduce it.  Returns the reflection sign, the factors a[k, k+1] at even
    k and an exponent e; the Pfaffian is the sign times the product of the
    factors, each times 2^e.  A matrix whose largest entry lies beyond
    2^(+-_SAFE_EXP) is first divided by the power of two 2^e that brings it
    to that bound, which is exact, so neither the skew check nor a norm of
    the reduction over- or underflows; any other matrix is not scaled."""
    a = as_real_matrix(m) if check else m
    n = require_square(a)
    if n % 2:
        raise DimensionError(f"Pfaffian requires even dimension, got {n}")
    top = max_abs(a)
    e = math.frexp(top)[1]
    e -= min(max(e, -_SAFE_EXP), _SAFE_EXP)
    if e:
        a, top = np.ldexp(a, -e), math.ldexp(top, -e)
    if check and max_abs(a + a.T) > tol.sym(top):
        raise SymmetryError("matrix is not skew-symmetric within tolerance")
    tri, sign = _reduce_skew((a - a.T) / 2.0)
    return sign, tri.diagonal(1)[::2], e


def pfaffian(m) -> float:
    """Pfaffian of an even-dimensional real skew-symmetric matrix.

    Normalized so that the canonical symplectic block [[0, 1], [-1, 0]] has
    Pfaffian +1 and the empty matrix has Pfaffian 1.  Every even dimension
    takes one route (``_pfaffian_factors``): Householder reflections at the
    even steps with explicit sign tracking (none for n = 2), after an exact
    power-of-two scaling at extreme scales; the Pfaffian is the sign times
    the product of the entries a[k, k+1] at even k, each scaled back first.
    """
    sign, factors, e = _pfaffian_factors(m)
    return float(sign * np.prod(np.ldexp(factors, e)))


def pfaffian_sign(m) -> int:
    """Sign of the Pfaffian, computed without forming the possibly huge value.

    Returns +1, -1 or 0 (0 when some factor vanishes exactly).
    It is the product of the factor signs of ``pfaffian``'s route, whose
    power-of-two scaling keeps it free of over- and underflow at any scale
    of finite entries.
    """
    sign, factors, _ = _pfaffian_factors(m)
    return int(sign * math.prod(np.sign(factors).tolist()))


def _skew_pfaffian_sign(a: np.ndarray) -> int:
    """``pfaffian_sign`` of an even-order float matrix built exactly
    antisymmetric (a window restriction), without checking it again."""
    sign, factors, _ = _pfaffian_factors(a, check=False)
    return int(sign * math.prod(np.sign(factors).tolist()))


# ---------------------------------------------------------------------------
# determinant sign


def sign_det(m) -> Z2:
    """Sign of the determinant of an invertible real square matrix.

    The sign is extracted from a pivoted triangular factorization (via
    ``slogdet``), never from the determinant value itself, so it cannot
    over- or underflow.  A matrix singular within tolerance raises
    ``SingularError`` (``checked_signs``).
    """
    a = as_real_matrix(m)
    n = require_square(a)
    if n == 0:
        return Z2(1)
    sign, sigma_min = checked_signs(a)
    if math.isnan(sign):
        raise singular_error(sigma_min)
    return Z2(int(sign))


def singular_error(sigma_min: float) -> SingularError:
    """The error of a matrix singular within tolerance."""
    return SingularError(
        f"matrix is singular within tolerance (sigma_min={sigma_min:.3e})")


def checked_signs(a: np.ndarray, sign=None):
    """Signs of the matrices of a stack (..., n, n), n >= 1, each checked
    invertible first.

    One values-only SVD of the stack checks every matrix: one whose
    sigma_min <= tol.inv(sigma_max) is singular within tolerance, and its
    sign is NaN.  The other signs are those of the determinants, from one
    stacked ``slogdet``, or ``sign(m)`` of each such matrix m, in stack
    order (a Pfaffian sign).  Returns the signs and every matrix's
    sigma_min.  Each row of a stacked SVD or ``slogdet`` is bitwise the
    call on its matrix alone.
    """
    sv = np.linalg.svd(a, compute_uv=False)
    sigma_min = sv[..., -1]
    singular = sigma_min <= tol.inv(sv[..., 0])
    if sign is None:
        signs = np.linalg.slogdet(a)[0]
    else:
        signs, flat = np.zeros(sigma_min.shape), a.reshape(-1, *a.shape[-2:])
        for i in np.flatnonzero(~singular):
            signs.flat[i] = sign(flat[i])
    return np.where(singular, math.nan, signs), sigma_min


# ---------------------------------------------------------------------------
# spectral windows


def skew_singular_system(mat: np.ndarray, chiral: bool = False,
                         compute_uv: bool = True):
    """Singular values (ascending) and directions of a skew matrix T.

    A plain skew T is solved by one SVD: the directions are its right
    singular vectors, column i belonging to singular value i.

    With ``chiral`` set, ``mat`` is the block B (n_plus x n_minus) of
    T = [[0, B], [-B^T, 0]], and only B is decomposed; T is never built.
    The d = |n_plus - n_minus| structural zeros come first, then every
    singular value s_i of B twice, with the grading-pure directions [x_i; 0]
    and [0; y_i].  The directions are the pair (X, Y) of the left and the
    right singular vectors, the full U and V read backwards (views), with
    the structural kernel first; X Y^T = W V^T is the phase of a square
    B = W S V^T that the pair route reads.  A wide B is solved as its
    transpose, sides swapped: the longer side is always a tall SVD's U.

    Both routes resolve singular values down to eps * sigma_max and never
    square the entries, so they neither over- nor underflow where T itself
    does not.  Without ``compute_uv`` only the singular values are solved,
    and the directions are None.  A stack of matrices is solved by one
    batched SVD, each entry bitwise the system of its matrix alone.
    """
    if chiral and mat.shape[-2] < mat.shape[-1]:
        s, f = skew_singular_system(mat.swapaxes(-1, -2), True, compute_uv)
        return s, f and f[::-1]
    if compute_uv:
        u, s, vt = np.linalg.svd(mat)
        v = vt[..., ::-1, :].swapaxes(-1, -2)
    else:
        s = np.linalg.svd(mat, compute_uv=False)
    if not chiral:
        return s[..., ::-1], (v if compute_uv else None)
    d = abs(mat.shape[-2] - mat.shape[-1])
    return (np.concatenate([np.zeros(s.shape[:-1] + (d,)),
                            np.repeat(s[..., ::-1], 2, axis=-1)], axis=-1),
            (u[..., ::-1], v) if compute_uv else None)
