"""Dense real linear algebra with exact sign bookkeeping.

Pfaffian and determinant signs and the singular system of skew matrices that
the windowed engine cuts its spectral windows from; that system is one SVD,
of T itself or of the off-diagonal block of a chiral T, and the smallest
singular pair of a block can instead come from one certified shifted
solve.  Matrices are plain two-dimensional float64 numpy arrays (the
universal operator carrier throughout the package); inputs are never
mutated.
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np

from . import tolerances as tol
from .errors import ConfigError, DimensionError, SingularError, SymmetryError
from .z2 import Z2

__all__ = [
    "as_real_matrix",
    "max_abs",
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


# ---------------------------------------------------------------------------
# certificates: sigma_min above the floor without an SVD

_U = 2.0 ** -53      # unit roundoff
_ETA = 2.0 ** -1074  # smallest positive subnormal

# diagonal magnitudes a values-only SVD leaves unscaled: there it returns
# the |d_i| of a diagonal matrix bitwise (its bidiagonal reduction leaves a
# diagonal alone, and the qd solver only sorts one)
_PIN_RANGE = (2.0 ** -450, 2.0 ** 450)


def _gamma(k: int) -> float:
    return k * _U / (1.0 - k * _U)


def _weyl_bounds(a: np.ndarray):
    """Bounds lo <= sigma_i(a) <= hi on every singular value of a square
    matrix a, in O(n^2), or None (an empty, non-square or non-finite case).

    With d the diagonal of a and E = a - diag(d), Weyl's inequality gives
    |sigma_i(a) - sigma_i(diag d)| <= ||E||_2 <= ||E||_F, so lo = min|d_i| -
    ||E||_F and hi = max|d_i| + ||E||_F.  The computed ||E||_F (of E scaled
    by its largest entry, so no square over- or underflows to a wrong
    bound) is widened by its rounding, gamma_{n^2 + 6}, and hi by one more
    rounding.  When E = 0 the bounds are min|d_i| and max|d_i| exactly, so
    lo == hi pins every singular value.
    """
    n = a.shape[-1]
    if a.ndim != 2 or a.shape[0] != n or n == 0:
        return None
    d = np.abs(a.diagonal())
    if np.count_nonzero(a) == np.count_nonzero(d):  # E = 0
        return float(d.min()), float(d.max())
    e = a.copy()
    np.fill_diagonal(e, 0.0)
    top = max_abs(e)
    with np.errstate(over="ignore", invalid="ignore"):
        f = top * (float(np.linalg.norm(e / top)) * (1.0 + _gamma(n * n + 6)))
        lo, hi = float(d.min()) - f, (float(d.max()) + f) * (1.0 + 2.0 * _U)
    return (lo, hi) if math.isfinite(hi) else None


def _pinned_values(a: np.ndarray):
    """The singular values of a square matrix that ``_weyl_bounds`` pins
    (lo == hi), ascending and bitwise those of a values-only SVD, or None:
    lo must be 0 or in ``_PIN_RANGE``, where the SVD does not rescale."""
    bounds = _weyl_bounds(a)
    if bounds is None or bounds[0] != bounds[1]:
        return None
    s = bounds[0]
    if s and not _PIN_RANGE[0] <= s <= _PIN_RANGE[1]:
        return None
    return np.full(a.shape[0], s)


def _proof_floor(hi: float, n: int) -> float:
    """The sigma_min that the certificates must prove for a square n x n
    matrix of sigma_max <= hi: twice the admissibility floor tol.inv(hi),
    and at least the Gram's resolution sqrt(2 (n + 2) u) hi.  A values-only
    SVD, whose sigma_min is off by about n u sigma_max, then refuses
    nothing the certificates accept."""
    return max(2.0 * tol.inv(hi), math.sqrt(2.0 * (n + 2) * _U) * hi)


def _gram_certificate(b: np.ndarray, theta: float) -> bool:
    """Whether a floating-point Cholesky proves sigma_min(b) > theta for a
    square n x n matrix b; False means "not proven", not "singular".

    sigma_min(b)^2 = lambda_min(b^T b), and G = fl(b^T b) is factored as
    fl(G - c I).  The shift c covers three terms (u the unit roundoff,
    gamma_k = k u / (1 - k u), eta the smallest subnormal):
    - theta^2;
    - the rounding of the Gram: |G - b^T b| <= gamma_n |b|^T |b|
      entrywise, so ||G - b^T b||_2 <= gamma_n ||b||_F^2 <= gamma_n s for
      s = tr(G) / (1 - gamma_{2n}) >= ||b||_F^2, plus n^2 eta for products
      that underflow;
    - Rump's bound (*Verification of positive definiteness*, BIT 2006):
      if the floating-point Cholesky of fl(A - c' I) runs to completion
      for a symmetric A and c' >= gamma_{n+1} / (1 - gamma_{n+1}) tr(A) +
      4 n (2 (n + 2) + max A_ii) eta, then A is positive definite.  Here
      A = G - (theta^2 + gamma_n s + n^2 eta) I, with tr(A) <= s.
    The two gamma terms are taken together as 2 gamma_{n+2} s, whose
    slack covers the roundings of c and of the diagonal subtraction.  A
    completed factorization thus proves lambda_min(G) > theta^2 + gamma_n
    s + n^2 eta, so lambda_min(b^T b) > theta^2.  A Gram that is not
    finite, a square of theta that over- or underflows, or a failed
    factorization (any ``LinAlgError``) proves nothing, without a numpy
    warning.
    """
    n = b.shape[0]
    with np.errstate(all="ignore"):
        g = b.T @ b
        theta2 = theta * theta
        if not (np.isfinite(g).all() and math.isfinite(theta2)) or (theta and not theta2):
            return False
        diag = g.diagonal()
        s = float(diag.sum()) / (1.0 - _gamma(2 * n))
        c = (theta2 + 2.0 * _gamma(n + 2) * s
             + (4 * n * (2 * (n + 2) + float(diag.max())) + n * n) * _ETA)
        if not math.isfinite(c):
            return False
        g[np.diag_indices(n)] -= c
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            return False
    return True


def _certified_invertible(b: np.ndarray) -> bool:
    """Whether sigma_min(b) > ``_proof_floor`` is proven for a square
    block b without an SVD: by its Weyl bounds (``_weyl_bounds``), else by
    a Gram-Cholesky proof (``_gram_certificate``) at the floor of their hi.
    False means "not proven"; the caller solves the SVD then."""
    bounds = _weyl_bounds(b)
    if bounds is None:
        return False
    floor = _proof_floor(bounds[1], b.shape[0])
    return bounds[0] > floor or _gram_certificate(b, floor)


# step stacks whose largest entry lies in 2^(+-_NORM_EXP) are normed
# unscaled: no square of theirs overflows, and none that a bound reads
# underflows (for n m < 2^250)
_NORM_EXP = 250


def _norm_exp(top: float) -> int:
    """The exponent e of the power of two 2^e that a step stack of largest
    entry ``top`` is divided by before its Frobenius norms are taken
    (exact but for entries that underflow): 0 inside 2^(+-_NORM_EXP), else
    the exponent above ``top``."""
    e = math.frexp(top)[1]
    return e if top and not -_NORM_EXP <= e <= _NORM_EXP else 0


class _StepAnchor:
    """One path's step direction: the largest difference of the first step
    stack of the path that ``_step_norms`` solves, by which it bounds the
    near-multiples of every stack, that first one included, without an SVD.

    ``direction`` is that difference D_a divided by the power of two 2^e
    of its stack (``_norm_exp``), flattened; ``frob2`` its squared
    Frobenius norm and ``norm`` the values-only SVD of D_a divided by 2^e.
    It stays None while every difference solved is zero.
    """

    __slots__ = ("direction", "frob2", "norm")

    def __init__(self):
        self.direction, self.frob2, self.norm = None, 0.0, 0.0

    def bounds(self, d: np.ndarray, top: float) -> np.ndarray:
        """Upper bounds on the 2-norms of the near-multiples of the
        direction in a (k, n, m) stack d of finite matrices whose largest
        entry is ``top``, NaN for every other matrix.  Without a direction
        the stack's matrix of largest Frobenius norm is solved and becomes
        it, and its bound is its SVD norm (a stack of zeros has the bounds
        0 and sets none).

        With S the direction and a matrix D of the stack divided by its
        power of two 2^e (``_norm_exp``), D = c S + R for c = <D, S>_F /
        ||S||_F^2.  D is a near-multiple when ||R||_F <= tol.gap(|c|
        ||S||_F / sqrt(min(n, m))), GAP_REL times a lower bound on
        ||D||_2, and |c| ||S||_F >= 2^-_NORM_EXP, so that what underflows
        is negligible.  Then ||D||_2 <= |c| ||S||_2 + ||R||_F for the
        computed c, within twice that gap of ||D||_2.  The bound is that
        sum widened by (1 + gamma_k), k = n m + 2 min(n, m) + 8, and
        multiplied back by 2^e: n m + 2 covers the computed ||R||_F (n m
        squares, their sum, a square root), min(n, m) the rounding of c S,
        at most u |c| ||S||_F <= u sqrt(min(n, m)) |c| ||S||_2, another
        min(n, m) the relative error of the SVD that gave ||S||_2 (a few
        u in practice), and 8 the remaining roundings and underflows.
        Nothing overflows before that last product, and a bound beyond the
        float range is inf.
        """
        k, n, m = d.shape
        e = _norm_exp(top)
        flat = np.ldexp(d.reshape(k, -1), -e) if e else d.reshape(k, -1)
        a = None
        if self.direction is None:
            if not top:
                return np.zeros(k)
            a = int(np.einsum("ij,ij->i", flat, flat).argmax())
            norm = np.linalg.svd(d[a:a + 1], compute_uv=False)[0, 0]
            self.direction, self.norm = flat[a].copy(), math.ldexp(norm, -e)
            self.frob2 = float(self.direction @ self.direction)
        c = (flat @ self.direction) / self.frob2
        r = np.einsum("i,j->ij", c, self.direction)
        np.subtract(flat, r, out=r)
        res = np.sqrt(np.einsum("ij,ij->i", r, r))
        c = np.abs(c)
        frob = c * math.sqrt(self.frob2)
        near = ((res <= tol.gap(frob / math.sqrt(min(n, m))))
                & (frob >= math.ldexp(1.0, -_NORM_EXP)))
        bounds = (c * self.norm + res) * (1.0 + _gamma(n * m + 2 * min(n, m) + 8))
        if e:
            with np.errstate(over="ignore"):
                bounds = np.ldexp(bounds, e)
        bounds[~near] = math.nan
        if a is not None:
            bounds[a] = norm
        return bounds


def _step_norms(steps: np.ndarray, anchor: _StepAnchor | None = None) -> np.ndarray:
    """Upper bounds on the 2-norms of the differences of consecutive
    matrices stacked along the third-to-last axis of ``steps``; leading
    axes stack more such sequences, as a (pairs, 2, n, m) stack of separate
    pairs does.

    A difference with an entry that overflows has a norm beyond the float
    range (the 2-norm is at least every entry): it is inf, taken without a
    numpy warning and without an SVD, and its stack skips ``anchor``.

    ``anchor``, one per path (``flow._PathData``), carries the path's step
    direction from stack to stack (``_StepAnchor``): the first stack
    solved solves its largest difference first and takes it as the
    direction, and in that stack and every later one a near-multiple of
    the direction takes an upper bound within 2 ``tol.gap`` of its norm
    without an SVD.  A path that moves along one matrix direction, M(t) =
    A + f(t) D such as a straight line, so solves one step SVD in all.
    Every other difference is solved exactly, by one values-only SVD of
    the stack's rest: its norm depends on its two matrices alone, bitwise
    the same in any stack.
    """
    with np.errstate(over="ignore"):
        diffs = steps[..., 1:, :, :] - steps[..., :-1, :, :]
    if diffs.size == 0:
        return np.zeros(diffs.shape[:-2])
    flat = diffs.reshape(-1, *diffs.shape[-2:])
    top = max_abs(flat)  # inf if and only if a difference overflows
    if not math.isfinite(top):
        norms = np.full(len(flat), math.inf)
        solve = np.isfinite(flat).all(axis=(-2, -1))
    elif anchor is None:
        norms, solve = np.empty(len(flat)), slice(None)
    else:
        norms = anchor.bounds(flat, top)
        solve = np.isnan(norms)
    d = flat[solve]  # the differences solved exactly
    if len(d):
        norms[solve] = np.linalg.svd(d, compute_uv=False)[:, 0]
    return norms.reshape(diffs.shape[:-2])


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


def pfaffian_sign(m) -> int:
    """Sign of the Pfaffian, computed without forming the possibly huge value.

    Returns +1, -1 or 0 (0 when some factor vanishes exactly).
    It is the product of the factor signs of ``_pfaffian_factors``'s route,
    whose power-of-two scaling keeps it free of over- and underflow at any
    scale of finite entries.
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
    and the directions are None: the windowed engine's records are solved
    so, and their directions later, only where a window reads them
    (``_smallest_pair``, else this solve with ``compute_uv``).  A stack of
    matrices is solved by one batched SVD, each entry bitwise the system of
    its matrix alone.
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


# the sin(theta) bound below which a pair from one shifted solve stands in
# for the SVD's directions: orders of magnitude below WINDOW_EPS
_PAIR_SIN = 1e-8


@functools.lru_cache(maxsize=None)
def _start_vector(size: int) -> np.ndarray:
    """A fixed generic right-hand side of ``size`` entries (one seeded
    normal draw, read-only): no block's smallest pair is orthogonal to it
    by structure, as it can be to a vector of ones."""
    r = np.random.default_rng(size).standard_normal((size, 1))
    r.flags.writeable = False
    return r


def _smallest_pair(b: np.ndarray, s: np.ndarray):
    """The singular pair (u, v) of the smallest singular value of each
    square block of a stack b (k, n, n), given the blocks' singular values
    s (k, n) ascending (a values-only SVD's), from one stacked solve; and
    whether each pair is certified.  Returns u and v (k, n), unit, and a
    boolean mask (k,); an uncertified row holds no usable pair, and its
    caller takes the SVD's directions.

    Each block and its values are divided by the power of two above
    sigma_max (exact), so that nothing below over- or underflows (a
    subnormal sigma_max, whose scale overflows, certifies nothing).  The
    solve is one step of inverse iteration on the symmetric
    A = [[-s I, B], [B^T, -s I]] at the shift s = sigma_1 + 8 eps sigma_max
    (eps the unit roundoff).  A has the eigenvalues +-sigma_i - s with the
    eigenvectors [u_i; +-v_i] / sqrt(2).  Only sigma_1 - s, and -sigma_1 - s
    for sigma_1 near 0, are of the size of the offset, and their
    eigenvectors lie in the span of [u_1; 0] and [0; v_1].  So A x = r for
    a generic r (``_start_vector``) amplifies those components over the
    rest by about (sigma_2 - sigma_1) / (8 eps sigma_max): the two halves of
    x, normalized, are u_1 and v_1.  The offset keeps an exact kernel
    (sigma_1 = 0) from making A exactly singular; a solve that fails
    anyway (``LinAlgError``) certifies nothing.

    The certificate is Wedin's sin(theta) theorem for one pair of a square
    matrix.  Write B = sum_i sigma_i u_i v_i^T, u = sum_i a_i u_i and
    v = sum_i b_i v_i, and take the residuals r = B v - rho u and
    q = B^T u - rho v for any 0 <= rho <= sigma_2.  Then (r_i, q_i) is
    [[-rho, sigma_i], [sigma_i, -rho]] (a_i, b_i), whose eigenvalues
    -rho +- sigma_i have magnitudes of at least sigma_i - rho >= sigma_2 -
    rho for i >= 2.  Hence ||r||^2 + ||q||^2 >= (sigma_2 - rho)^2
    (sin^2 theta_u + sin^2 theta_v), where sin^2 theta_u = 1 - a_1^2 is
    the squared sine between u and u_1, and likewise for v:

        sqrt(sin^2 theta_u + sin^2 theta_v)
            <= sqrt(||r||^2 + ||q||^2) / (sigma_2 - rho).

    Here rho is the given sigma_1 and sigma_2 the given one, which a
    values-only SVD gives within a few n eps sigma_max of the exact value.
    The computed residual is widened, and the gap narrowed, by 4 n eps
    sigma_max, which covers that error and the roundings of the residual.
    A pair whose widened residual over its narrowed gap is at most
    ``_PAIR_SIN`` is certified.  A gap that closes (sigma_1 = sigma_2)
    certifies nothing, and a 1 x 1 block has no sigma_2, so its pair is
    certified by a finite residual.  Each row is bitwise the call on its
    block alone.
    """
    k, n = s.shape
    r = _start_vector(2 * n)
    with np.errstate(all="ignore"):
        scale = np.ldexp(1.0, -np.frexp(s[:, -1])[1])  # 1 / the power of two above sigma_max
        low, top = s[:, 0] * scale, s[:, -1] * scale
        shift = low + 8.0 * _U * top
        a = np.zeros((k, 2 * n, 2 * n))
        np.multiply(b, scale[:, None, None], out=a[:, :n, n:])
        a[:, n:, :n] = a[:, :n, n:].swapaxes(-1, -2)
        a.reshape(k, -1)[:, ::2 * n + 1] = -shift[:, None]
        try:
            x = np.linalg.solve(a, r)
        except np.linalg.LinAlgError:  # a row at a time: only the failing rows fail
            x = np.full((k, 2 * n, 1), np.nan)
            for i in range(k):
                with contextlib.suppress(np.linalg.LinAlgError):
                    x[i] = np.linalg.solve(a[i], r)
        w = x.reshape(k, 2, n)
        w = w / np.sqrt(np.square(w).sum(-1, keepdims=True))  # [u; v], each unit
        # [B v - sigma_1 u; B^T u - sigma_1 v] = (A + (s - sigma_1) I) [u; v]
        uv = w.reshape(k, 2 * n, 1)
        res = (a @ uv)[..., 0] + (shift - low)[:, None] * uv[..., 0]
        res = np.sqrt(np.square(res).sum(-1))
        slack = 4.0 * n * _U * top
        gap = s[:, 1] * scale - low - slack if n > 1 else np.full(k, math.inf)
        certified = (res + slack <= _PAIR_SIN * gap) & (gap > 0)
    return w[:, 0], w[:, 1], certified
