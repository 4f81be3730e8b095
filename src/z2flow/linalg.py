"""Dense real linear algebra with exact sign bookkeeping.

Pfaffians, determinant signs, spectral window projections and orthonormal
subspace transport.  Matrices are plain two-dimensional float64 numpy arrays
(the universal operator carrier throughout the package); inputs are never
mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import (
    DimensionError,
    SingularError,
    SymmetryError,
    TransportError,
    WindowCollisionError,
)
from .z2 import Z2

__all__ = [
    "Projection",
    "OrthonormalFrame",
    "as_real_matrix",
    "max_abs",
    "pfaffian",
    "pfaffian_sign",
    "sign_det",
    "spectral_window_projection",
    "frame_of_range",
    "transport_frame",
    "skew_singular_system",
]


def as_real_matrix(m) -> np.ndarray:
    """Coerce input to a finite 2-d float64 array."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of ndim={a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def max_abs(a: np.ndarray) -> float:
    """Max-norm of a matrix; 0 for empty matrices."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def require_square(a: np.ndarray) -> int:
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"square matrix required, got shape {a.shape}")
    return a.shape[0]


def require_skew(a: np.ndarray) -> None:
    if max_abs(a + a.T) > tol.sym(max_abs(a)):
        raise SymmetryError("matrix is not skew-symmetric within tolerance")


def require_symmetric(a: np.ndarray) -> None:
    if max_abs(a - a.T) > tol.sym(max_abs(a)):
        raise SymmetryError("matrix is not symmetric within tolerance")


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values in ascending order."""
    if a.size == 0:
        return np.zeros(min(a.shape))
    return np.linalg.svd(a, compute_uv=False)[::-1].copy()


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Projection:
    """A real orthogonal projection together with its rank."""

    matrix: np.ndarray
    rank: int

    def __post_init__(self):
        p = as_real_matrix(self.matrix)
        n = require_square(p)
        scale = max(max_abs(p), 1.0 if self.rank else 0.0)
        t = tol.proj(scale)
        if max_abs(p - p.T) > tol.sym(max(max_abs(p), 1e-300)):
            raise SymmetryError("projection matrix is not symmetric")
        if max_abs(p @ p - p) > max(t, 10 * np.finfo(float).eps):
            raise SymmetryError("projection matrix is not idempotent")
        if abs(float(np.trace(p)) - self.rank) > max(t * max(n, 1), 1e-9):
            raise DimensionError(
                f"trace {float(np.trace(p)):.3e} does not match rank {self.rank}"
            )
        object.__setattr__(self, "matrix", p)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class OrthonormalFrame:
    """Orthonormal column vectors spanning a subspace of R^ambient_dim."""

    ambient_dim: int
    vectors: np.ndarray  # shape (ambient_dim, k)

    def __post_init__(self):
        v = as_real_matrix(self.vectors)
        if v.shape[0] != self.ambient_dim:
            raise DimensionError("frame vectors have wrong ambient dimension")
        if v.shape[1]:
            gram = v.T @ v
            if max_abs(gram - np.eye(v.shape[1])) > tol.frame():
                raise SymmetryError("frame vectors are not orthonormal")
        object.__setattr__(self, "vectors", v)

    def __len__(self) -> int:
        return self.vectors.shape[1]

    def projection(self) -> Projection:
        return Projection(self.vectors @ self.vectors.T, len(self))


# ---------------------------------------------------------------------------
# Pfaffian


def _tridiagonalize_skew(a: np.ndarray):
    """Householder reduction of a skew matrix to tridiagonal form.

    Returns the tridiagonalized matrix and the sign of the determinant of the
    accumulated orthogonal transform (each applied reflection contributes -1).
    """
    a = a.copy()
    n = a.shape[0]
    sign = 1.0
    for k in range(n - 2):
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


def pfaffian(m) -> float:
    """Pfaffian of an even-dimensional real skew-symmetric matrix.

    Normalized so that the canonical symplectic block [[0, 1], [-1, 0]] has
    Pfaffian +1 and the empty matrix has Pfaffian 1.  Direct expansion is used
    up to dimension 4; above that the matrix is tridiagonalized by Householder
    reflections with explicit sign tracking, after which the Pfaffian is the
    product of the odd superdiagonal entries.
    """
    a = as_real_matrix(m)
    n = require_square(a)
    if n % 2:
        raise DimensionError(f"Pfaffian requires even dimension, got {n}")
    require_skew(a)
    a = (a - a.T) / 2.0
    if n == 0:
        return 1.0
    if n == 2:
        return float(a[0, 1])
    if n == 4:
        return float(a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2])
    tri, sign = _tridiagonalize_skew(a)
    return float(sign * np.prod(tri[np.arange(0, n, 2), np.arange(1, n + 1, 2)]))


def pfaffian_sign(m) -> int:
    """Sign of the Pfaffian, computed without forming the possibly huge value.

    Returns +1, -1 or 0 (0 when some tridiagonal factor vanishes exactly).
    """
    a = as_real_matrix(m)
    n = require_square(a)
    if n % 2:
        raise DimensionError(f"Pfaffian requires even dimension, got {n}")
    require_skew(a)
    a = (a - a.T) / 2.0
    if n == 0:
        return 1
    if n <= 4:
        v = pfaffian(a)
        return int(np.sign(v))
    tri, sign = _tridiagonalize_skew(a)
    for b in tri[np.arange(0, n, 2), np.arange(1, n + 1, 2)]:
        if b == 0.0:
            return 0
        if b < 0.0:
            sign = -sign
    return int(sign)


# ---------------------------------------------------------------------------
# determinant sign


def sign_det(m) -> Z2:
    """Sign of the determinant of an invertible real square matrix.

    The sign is extracted from a pivoted triangular factorization (via
    ``slogdet``), never from the determinant value itself, so it cannot
    over- or underflow.
    """
    a = as_real_matrix(m)
    n = require_square(a)
    if n == 0:
        return Z2(1)
    sv = singular_values(a)
    if sv[0] <= tol.inv(sv[-1]):
        raise SingularError(
            f"matrix is singular within tolerance (sigma_min={sv[0]:.3e})"
        )
    s = np.linalg.slogdet(a)[0]
    return Z2(int(round(s)))


# ---------------------------------------------------------------------------
# spectral windows


def skew_singular_system(t_mat: np.ndarray, n_plus: int | None = None):
    """Singular values (ascending) and directions of a skew matrix.

    The columns of the returned matrix are orthonormal directions, column i
    belonging to singular value i.  A general skew matrix is solved in real
    arithmetic through the symmetric eigenproblem of -T^2, which resolves
    singular values only down to about sqrt(eps) * sigma_max.

    With ``n_plus`` given, T is taken to be chiral, [[0, B], [-B^T, 0]] with
    B = T[:n_plus, n_plus:], and only the block is decomposed: every
    singular value s_i of B appears twice, with the grading-pure directions
    [u_i; 0] and [0; v_i], and the |n_plus - n_minus| structural kernel
    directions (listed first) come from the full U or V.  One SVD of B
    resolves singular values down to eps * sigma_max and never squares the
    entries, so it neither over- nor underflows where T itself does not.
    """
    n = t_mat.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    if n_plus is None:
        s = t_mat.T @ t_mat  # equals -T^2 for skew T
        s = (s + s.T) / 2.0
        w, v = np.linalg.eigh(s)
        return np.sqrt(np.clip(w, 0.0, None)), v
    b = t_mat[:n_plus, n_plus:]
    if b.size == 0:
        return np.zeros(n), np.eye(n)
    u, s, vt = np.linalg.svd(b)
    r = s.size
    d = n - 2 * r
    up = slice(None, n_plus)
    down = slice(n_plus, None)
    dirs = np.zeros((n, n))
    if n_plus > n - n_plus:
        dirs[up, :d] = u[:, r:]
    else:
        dirs[down, :d] = vt[r:].T
    dirs[up, d::2] = u[:, r - 1::-1]
    dirs[down, d + 1::2] = vt[r - 1::-1].T
    return np.concatenate([np.zeros(d), np.repeat(s[::-1], 2)]), dirs


def spectral_window_projection(t_mat, a: float) -> Projection:
    """Projection onto the spectral subspace of a skew matrix below radius a.

    This is the real form of the characteristic-function projection of i*T
    onto (-a, a), obtained from the eigendecomposition of -T^2.
    """
    t = as_real_matrix(t_mat)
    require_square(t)
    require_skew(t)
    if not a > 0:
        raise ValueError(f"window radius must be positive, got {a}")
    sv, v = skew_singular_system(t)
    smax = float(sv[-1]) if sv.size else 0.0
    if sv.size and np.min(np.abs(sv - a)) <= tol.gap(smax):
        raise WindowCollisionError(
            f"radius {a} collides with a singular value of the operator"
        )
    cols = sv < a
    rank = int(cols.sum())
    basis = v[:, cols]
    p = basis @ basis.T
    return Projection((p + p.T) / 2.0, rank)


# ---------------------------------------------------------------------------
# frames and transport


def frame_of_range(p: Projection) -> OrthonormalFrame:
    """Deterministic orthonormal basis of the range of a projection.

    Column-pivoted orthogonalization of the projection's columns: at each
    step the residual column of largest norm (lowest index on ties) is
    normalized and deflated, so repeated calls yield identical frames.
    """
    n = p.dim
    cols = p.matrix.copy()
    vecs = []
    for _ in range(p.rank):
        norms = np.linalg.norm(cols, axis=0)
        j = int(np.argmax(norms))
        if norms[j] <= tol.frame():
            raise DimensionError("projection rank is smaller than declared")
        v = cols[:, j] / norms[j]
        for u in vecs:  # re-orthogonalization pass for numerical hygiene
            v -= u * (u @ v)
        v /= np.linalg.norm(v)
        vecs.append(v)
        cols -= np.outer(v, v @ cols)
    basis = np.column_stack(vecs) if vecs else np.zeros((n, 0))
    return OrthonormalFrame(n, basis)


def transport_frame(frame: OrthonormalFrame, q_target: Projection) -> OrthonormalFrame:
    """Transport an orthonormal frame onto the range of a nearby projection.

    Applies the target projection to every frame vector and returns the
    orthogonal factor of the polar decomposition of the resulting map.  The
    output spans the range of ``q_target``; transporting back through the
    original subspace recovers the input frame.
    """
    k = len(frame)
    if q_target.rank != k:
        raise DimensionError(
            f"target rank {q_target.rank} does not match frame size {k}"
        )
    if k == 0:
        return OrthonormalFrame(q_target.dim, np.zeros((q_target.dim, 0)))
    x = q_target.matrix @ frame.vectors
    w, s, vt = np.linalg.svd(x, full_matrices=False)
    if s[-1] < tol.transport():
        raise TransportError(
            f"polar factor ill-conditioned (sigma_min={s[-1]:.3e})"
        )
    return OrthonormalFrame(q_target.dim, w @ vt)
