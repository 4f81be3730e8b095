"""Reference definitions that no engine calls, kept as test oracles.

``pfaffian`` is the value whose sign ``pfaffian_sign`` takes,
``selfadjoint_to_skew`` the pointwise form of ``selfadjoint_path_to_skew``,
``window_product`` the product of a result's window factors, and
``k_real_reduce`` the K-real reduction of a chiral self-adjoint complex
matrix to its real form.
"""

import numpy as np

from z2flow import tolerances as tol
from z2flow.errors import ConfigError, DimensionError, SymmetryError
from z2flow.flow import FlowResult, embed_chiral
from z2flow.linalg import _pfaffian_factors, as_real_matrix, max_abs
from z2flow.paths import ChiralFrame, validate_symmetry
from z2flow.z2 import Z2, z2_product


def pfaffian(m) -> float:
    """Pfaffian of an even-dimensional real skew-symmetric matrix.

    Normalized so that the canonical symplectic block [[0, 1], [-1, 0]] has
    Pfaffian +1 and the empty matrix has Pfaffian 1.  It takes the route of
    ``pfaffian_sign`` (``_pfaffian_factors``): the sign times the product of
    the entries a[k, k+1] at even k of the reduction, each scaled back first.
    """
    sign, factors, e = _pfaffian_factors(m)
    return float(sign * np.prod(np.ldexp(factors, e)))


def window_product(result: FlowResult) -> Z2:
    """Product of the Z2 factors of a flow result's windows."""
    return z2_product(w.factor for w in result.windows)


def selfadjoint_to_skew(h_mat, frame: ChiralFrame) -> np.ndarray:
    """Convert a chiral self-adjoint matrix to its chiral skew-adjoint form.

    For H = [[0, B], [B^T, 0]] the result is [[0, B], [-B^T, 0]]; this is the
    real form of conjugation by the square root of the grading.
    """
    h = as_real_matrix(h_mat)
    validate_symmetry(h, "chiral-selfadjoint", frame)
    return embed_chiral(h[:frame.n_plus, frame.n_plus:])


def k_real_reduce(h_mat, k_mat, frame: ChiralFrame) -> np.ndarray:
    """Reduce a K-real chiral self-adjoint complex matrix to its real form.

    K must be a real symmetric involution commuting with the grading, and H
    must satisfy K conj(H) K = H.  Conjugation by the root of K with spectrum
    {1, i} produces a real symmetric chiral matrix with the same spectrum.
    """
    h = np.asarray(h_mat, dtype=complex)
    if h.size and not np.isfinite(h).all():
        raise ConfigError("H entries must be finite")
    k = as_real_matrix(k_mat)
    n = k.shape[0]
    if k.shape[0] != k.shape[1] or h.shape != k.shape or frame.dim != n:
        raise DimensionError("H, K and the frame must share one dimension")
    scale_k = max(max_abs(k), 1.0)
    t_k = tol.sym(scale_k)
    if max_abs(k - k.T) > t_k or max_abs(k @ k - np.eye(n)) > 10 * t_k:
        raise SymmetryError("K is not a symmetric involution")
    j = frame.grading()
    if max_abs(k @ j - j @ k) > t_k:
        raise SymmetryError("K does not commute with the grading")
    scale_h = max(float(np.max(np.abs(h))) if h.size else 0.0, 1e-300)
    t_h = tol.sym(scale_h)
    if float(np.max(np.abs(h - h.conj().T))) > t_h:
        raise SymmetryError("H is not self-adjoint")
    if float(np.max(np.abs(j @ h @ j + h))) > t_h:
        raise SymmetryError("H is not chiral")
    if float(np.max(np.abs(k @ h.conj() @ k - h))) > t_h:
        raise SymmetryError("H is not K-real")
    p_minus = (np.eye(n) - k) / 2.0
    l_root = (np.eye(n) - p_minus) + 1j * p_minus
    reduced = l_root.conj().T @ h @ l_root
    if float(np.max(np.abs(reduced.imag))) > 10 * t_h:
        raise SymmetryError("reduction did not produce a real matrix")
    out = reduced.real
    return (out + out.T) / 2.0
