"""Parity and Z2-valued spectral flow engines.

The finite-dimensional formulas (endpoint determinant and Pfaffian signs),
the windowed path algorithm that accumulates the flow on small spectral
subspaces, the Leray-Schauder degree, and the symmetry-class conversions
between chiral self-adjoint and chiral skew-adjoint families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tolerances as tol
from .errors import (
    ConfigError,
    DimensionError,
    NotAdmissibleError,
    RefinementError,
    SingularError,
    SymmetryError,
    TransportError,
)
from .linalg import (
    as_real_matrix,
    max_abs,
    pfaffian_sign,
    sign_det,
    singular_values,
    skew_singular_system,
)
from .paths import ChiralFrame, OperatorPath, validate_symmetry
from .z2 import Z2, z2_product

__all__ = [
    "SpectralWindow",
    "FlowResult",
    "parity_finite",
    "embed_chiral",
    "embed_chiral_path",
    "sf2_finite",
    "sf2_path",
    "parity_path",
    "parity_path_general",
    "to_skew_path",
    "refine",
    "leray_schauder_degree",
    "selfadjoint_to_skew",
    "selfadjoint_path_to_skew",
    "k_real_reduce",
]

# pairwise window continuity: ||Q(t) - Q(t')|| < WINDOW_EPS, expressed as a
# lower bound on the smallest principal cosine between the two subspaces
_COS_MIN = math.sqrt(1.0 - tol.WINDOW_EPS ** 2)


@dataclass
class SpectralWindow:
    """One partition segment of the windowed flow computation."""

    t_lo: float
    t_hi: float
    a: float
    rank: int
    factor: Z2


@dataclass
class FlowResult:
    """Value of a windowed flow computation plus its audit trail."""

    value: Z2
    windows: list
    refinement_depth: int
    evaluations: int

    def window_product(self) -> Z2:
        return z2_product(w.factor for w in self.windows)


# ---------------------------------------------------------------------------
# finite-dimensional formulas


def parity_finite(path: OperatorPath) -> Z2:
    """Parity of an admissible path of square matrices.

    The product of the determinant signs of the endpoint matrices.
    """
    b0 = path.at(path.t_start)
    b1 = path.at(path.t_end)
    if b0.shape[0] != b0.shape[1]:
        raise DimensionError("parity of square families only; see parity_path_general")
    try:
        return sign_det(b1) * sign_det(b0)
    except Exception as exc:
        raise NotAdmissibleError(f"endpoint matrix is singular: {exc}") from exc


def embed_chiral(b) -> np.ndarray:
    """Embed a (possibly rectangular) block B as [[0, B], [-B^T, 0]].

    The result is skew-symmetric and anticommutes with the grading
    diag(1_rows, -1_cols).
    """
    b = as_real_matrix(b)
    n, m = b.shape
    t = np.zeros((n + m, n + m))
    t[:n, n:] = b
    t[n:, :n] = -b.T
    return t


def embed_chiral_path(path: OperatorPath) -> OperatorPath:
    """Chiral skew-adjoint doubling of a path of general matrices."""
    n, m = path.at(path.t_start).shape
    frame = ChiralFrame(n, m)
    return OperatorPath(
        path.interval,
        lambda t: embed_chiral(path.evaluator(t)),
        "chiral-skew",
        frame,
        n - m,
    )


def sf2_finite(t0, t1) -> Z2:
    """Two-endpoint Z2 flow of invertible skew matrices of equal dimension.

    Equal to the product of the Pfaffian signs, which coincides with the
    determinant sign of any invertible congruence mapping one endpoint to
    the other.
    """
    a0 = as_real_matrix(t0)
    a1 = as_real_matrix(t1)
    if a0.shape != a1.shape or a0.shape[0] != a0.shape[1]:
        raise DimensionError(f"matching square shapes required: {a0.shape} vs {a1.shape}")
    if a0.shape[0] % 2:
        raise DimensionError("even dimension required")
    for a in (a0, a1):
        sv = singular_values(a)
        if sv.size and sv[0] <= tol.inv(sv[-1]):
            raise NotAdmissibleError("skew endpoint is singular within tolerance")
    s0 = pfaffian_sign(a0)
    s1 = pfaffian_sign(a1)
    if s0 == 0 or s1 == 0:
        raise NotAdmissibleError("Pfaffian sign vanished on a nominally invertible input")
    return Z2(s0) * Z2(s1)


# ---------------------------------------------------------------------------
# refinement and transport


def refine(points, accept, what: str = "acceptable segment"):
    """Adaptive partition of the segments between consecutive ``points``.

    Segments are visited left to right and ``accept(lo, hi)`` is called on
    each; a result of None bisects the segment at its midpoint, anything
    else is kept as the segment's value.  Returns the accepted
    ``(lo, hi, value)`` triples in order and the deepest bisection level.
    A segment shorter than the refinement floor that is still refused
    raises ``RefinementError``.
    """
    stack = [(lo, hi, 0) for lo, hi in zip(points[:-1], points[1:])][::-1]
    accepted = []
    max_depth = 0
    while stack:
        lo, hi, depth = stack.pop()
        max_depth = max(max_depth, depth)
        value = accept(lo, hi)
        if value is not None:
            accepted.append((lo, hi, value))
            continue
        if hi - lo < tol.MIN_SEGMENT:
            raise RefinementError(
                f"no {what} above segment length {tol.MIN_SEGMENT} "
                f"on [{lo}, {hi}]"
            )
        mid = lo + (hi - lo) / 2.0
        stack.append((mid, hi, depth + 1))
        stack.append((lo, mid, depth + 1))
    return accepted, max_depth


def _polar(x: np.ndarray, floor: float) -> np.ndarray:
    """Orthogonal factor of the polar decomposition of a tall matrix.

    The columns of x are the images of an orthonormal frame; the result is
    the orthonormal frame of the same span closest to them.  A smallest
    singular value below ``floor`` means the frame was carried too far to
    be transported and raises ``TransportError``.
    """
    w, s, vt = np.linalg.svd(x, full_matrices=False)
    if s.size and s[-1] < floor:
        raise TransportError(
            f"polar factor ill-conditioned (sigma_min={s[-1]:.3e})"
        )
    return w @ vt


# ---------------------------------------------------------------------------
# windowed path engine


class _PathData:
    """Caches path evaluations and their skew singular systems per parameter.

    A record is (T, singular values ascending, directions, step matrix).
    Chiral-skew paths are solved on their block B = T[:n_plus, n_plus:],
    which is also the step matrix: ||T_i - T_j||_2 = ||B_i - B_j||_2.  A
    plain skew path is its own step matrix.
    """

    def __init__(self, path: OperatorPath):
        self.path = path
        self.n_plus = path.frame.n_plus if path.symmetry_tag == "chiral-skew" else None
        self._cache = {}
        self.sigma_scale = 0.0
        self.step_bound = math.inf

    def at(self, t: float):
        key = float(t)
        rec = self._cache.get(key)
        if rec is None:
            m = self.path.at(key)
            m = (m - m.T) / 2.0
            if self.n_plus is None:
                step = m
            else:  # drop the diagonal blocks, which validation bounds by tol.sym
                p = self.n_plus
                m[:p, :p] = 0.0
                m[p:, p:] = 0.0
                step = m[:p, p:]
            sv, v = skew_singular_system(m, self.n_plus)
            rec = (m, sv, v, step)
            self._cache[key] = rec
            if sv.size:
                self.sigma_scale = max(self.sigma_scale, float(sv[-1]))
        return rec

    @property
    def evaluations(self) -> int:
        return len(self._cache)


def _step_norms(steps: np.ndarray) -> np.ndarray:
    """2-norms of the differences of consecutive stacked step matrices."""
    diffs = np.diff(steps, axis=0)
    if diffs.size == 0:
        return np.zeros(diffs.shape[0])
    return np.linalg.svd(diffs, compute_uv=False)[:, 0]


def _pairwise_window_continuity(bases: np.ndarray) -> bool:
    """Check that all pairs of equal-rank subspaces stay WINDOW_EPS-close.

    ``bases`` stacks one orthonormal basis per sample; the principal cosines
    of every pair come from one batched SVD of the pair overlaps.
    """
    if bases.shape[2] == 0:
        return True
    i, j = np.triu_indices(len(bases), 1)
    overlaps = np.matmul(bases[i].transpose(0, 2, 1), bases[j])
    return bool(np.linalg.svd(overlaps, compute_uv=False)[:, -1].min() >= _COS_MIN)


def _segment_window(data: _PathData, lo: float, hi: float, n_grid: int, rng):
    """Try to find a valid window radius for one segment.

    Returns (a, rank) or None when the segment must be bisected.  A valid
    radius lies in a gap of the singular spectrum common to all samples,
    inflated by the largest step between consecutive samples: by Weyl's
    inequality this guarantees that no singular value can cross the radius
    between samples, so the window rank is constant over the whole segment
    (a crossing inside a segment is forced into a positive-rank window).
    The windowed subspaces of all samples must also be pairwise
    WINDOW_EPS-close.
    """
    ts = np.linspace(lo, hi, n_grid)
    recs = [data.at(t) for t in ts]
    n = recs[0][0].shape[0]
    svs = np.stack([r[1] for r in recs])
    s_seg = float(svs.max()) if svs.size else 0.0

    # path continuity at this sampling resolution
    steps = _step_norms(np.stack([r[3] for r in recs]))
    if steps.size and steps.max() > data.step_bound:
        return None
    slack = 0.75 * float(steps.max()) if steps.size else 0.0

    margin = 4.0 * tol.gap(max(s_seg, 1e-300)) + slack
    lo_env = svs.max(axis=0)
    hi_env = svs.min(axis=0)

    candidates = []
    for k in range(0, n + 1, 2):
        glo = float(lo_env[k - 1]) if k > 0 else 0.0
        ghi = float(hi_env[k]) if k < n else math.inf
        if ghi - glo > 2.0 * margin:
            candidates.append((k, glo, ghi))
    if not candidates:
        return None

    # preferred radius: half the smallest nonzero endpoint singular value
    floor = tol.inv(max(data.sigma_scale, 1e-300))
    pref = None
    end_sv = np.concatenate([recs[0][1], recs[-1][1]])
    positive = end_sv[end_sv > max(floor, margin)]
    if positive.size:
        pref = float(positive.min()) / 2.0

    def order_key(c):
        k, glo, ghi = c
        contains_pref = pref is not None and glo + margin < pref < ghi - margin
        return (0 if contains_pref else 1, k)

    candidates.sort(key=order_key)
    if rng is not None:
        rng.shuffle(candidates)

    for k, glo, ghi in candidates:
        if math.isinf(ghi):
            a = glo + margin + max(s_seg, glo, 1.0) * 0.75
        elif pref is not None and glo + margin < pref < ghi - margin and rng is None:
            a = pref
        else:
            u = 0.5 if rng is None else float(rng.uniform(0.3, 0.7))
            a = (glo + margin) + u * ((ghi - margin) - (glo + margin))
        if a <= margin:
            continue
        bases = np.stack([r[2][:, :k] for r in recs])
        if not _pairwise_window_continuity(bases):
            continue
        return a, k
    return None


def _kernel_lift(data: _PathData, t: float, a_min: float,
                 frame: Optional[ChiralFrame], rng) -> Optional[np.ndarray]:
    """Skew perturbation lifting the near-kernel of the path matrix at t.

    Pairs of near-kernel directions receive canonical 2x2 skew blocks of
    scale delta = a_min/10 (kept inside both adjacent windows); in the
    chiral case each pair joins a +grading vector with a -grading vector so
    the perturbation stays chiral.  Directions strictly below delta/2 count
    as kernel, so the lifted block dominates them and the unlifted part is
    untouched (the cluster spans an invariant subspace).
    """
    delta = a_min / 10.0
    if rng is not None:
        delta *= float(rng.uniform(0.2, 1.0))
    threshold = delta / 2.0
    _, sv, v, _ = data.at(t)
    cluster = sv < threshold
    m = int(cluster.sum())
    if m == 0:
        return None
    if m % 2:
        raise RefinementError(
            f"odd near-kernel cluster of size {m} at t={t}; cannot lift"
        )
    basis = v[:, cluster]

    pairs = []
    if frame is not None:
        j_diag = np.concatenate([np.ones(frame.n_plus), -np.ones(frame.n_minus)])
        c = basis.T @ (j_diag[:, None] * basis)
        c = (c + c.T) / 2.0
        w, rot = np.linalg.eigh(c)
        if np.all(np.abs(np.abs(w) - 1.0) < 0.1):
            minus = basis @ rot[:, w < 0]
            plus = basis @ rot[:, w > 0]
            if plus.shape[1] == minus.shape[1]:
                if rng is not None:
                    plus = plus @ _random_orthogonal(rng, plus.shape[1])
                    minus = minus @ _random_orthogonal(rng, minus.shape[1])
                pairs = [(plus[:, i], minus[:, i]) for i in range(plus.shape[1])]
    if not pairs:
        if rng is not None:
            basis = basis @ _random_orthogonal(rng, m)
        pairs = [(basis[:, 2 * i], basis[:, 2 * i + 1]) for i in range(m // 2)]

    r = np.zeros((basis.shape[0], basis.shape[0]))
    for u, w_ in pairs:
        r += delta * (np.outer(u, w_) - np.outer(w_, u))
    return r


def _random_orthogonal(rng, k: int) -> np.ndarray:
    if k == 0:
        return np.zeros((0, 0))
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def sf2_path(path: OperatorPath, *, rng=None,
             initial_samples: int = 9) -> FlowResult:
    """Z2-valued spectral flow of an admissible path of skew matrices.

    The interval is partitioned adaptively; on each segment the flow is
    accumulated on the spectral subspace below a window radius chosen in a
    gap of the singular spectrum common to the whole segment.  Interior
    partition points with a kernel are lifted by a small skew perturbation
    shared between the two adjacent windows.  The returned report records
    every window with its radius, rank and Z2 factor; their product is the
    flow.

    A generator ``rng`` randomizes all admissible choices (partition,
    radii, lift perturbations); by the well-definedness of the flow the
    result does not depend on them.
    """
    if path.symmetry_tag not in ("skew", "chiral-skew"):
        raise ConfigError("sf2_path requires a skew or chiral-skew path")
    data = _PathData(path)
    t0, t1 = path.interval

    for t in (t0, t1):
        sv = data.at(t)[1]
        if sv.size == 0:
            continue
        if sv[0] <= tol.inv(sv[-1]):
            raise NotAdmissibleError(
                f"path endpoint at t={t} is singular (sigma_min={sv[0]:.3e})"
            )
    if data.at(t0)[0].shape[0] % 2:
        raise DimensionError("skew flow requires even ambient dimension")

    data.step_bound = 0.1 * min(
        float(data.at(t0)[1][0]) if data.at(t0)[1].size else math.inf,
        float(data.at(t1)[1][0]) if data.at(t1)[1].size else math.inf,
    )
    if not math.isfinite(data.step_bound):
        data.step_bound = math.inf  # 0-dimensional path

    n_grid = max(3, int(initial_samples))

    points = [t0]
    if rng is not None:  # random cuts, comfortably above the refinement floor
        extra = int(rng.integers(0, 3))
        pad = 0.05 * (t1 - t0)
        for c in sorted(rng.uniform(t0 + pad, t1 - pad, size=extra)):
            if c - points[-1] > 10 * tol.MIN_SEGMENT and t1 - c > 10 * tol.MIN_SEGMENT:
                points.append(float(c))
    points.append(t1)
    accepted, max_depth = refine(
        points, lambda lo, hi: _segment_window(data, lo, hi, n_grid, rng),
        "valid spectral window")

    # shared kernel lifts at interior partition points
    lifts = {}
    for (_, t_mid, left), (_, _, right) in zip(accepted, accepted[1:]):
        r = _kernel_lift(data, t_mid, min(left[0], right[0]), path.frame, rng)
        if r is not None:
            lifts[t_mid] = r

    windows = [_window_factor(data, lo, hi, a, k, lifts)
               for lo, hi, (a, k) in accepted]
    value = z2_product(w.factor for w in windows)
    return FlowResult(value, windows, max_depth, data.evaluations)


def _window_factor(data: _PathData, lo: float, hi: float, a: float, k: int,
                   lifts) -> SpectralWindow:
    m_lo, sv_lo, v_lo, _ = data.at(lo)
    m_hi, sv_hi, v_hi, _ = data.at(hi)
    if int((sv_lo < a).sum()) != k or int((sv_hi < a).sum()) != k:
        raise RefinementError("window rank drifted between validation and use")
    u_p = v_lo[:, :k]
    u_q = v_hi[:, :k]

    r_lo = lifts.get(lo)
    r_hi = lifts.get(hi)
    s_lo = u_p.T @ m_lo @ u_p
    if r_lo is not None:
        s_lo += u_p.T @ r_lo @ u_p
    s_lo = (s_lo - s_lo.T) / 2.0

    f_q = u_q @ _polar(u_q.T @ u_p, max(tol.transport(), _COS_MIN / 2.0))
    s_hi = f_q.T @ m_hi @ f_q
    if r_hi is not None:
        s_hi += f_q.T @ r_hi @ f_q
    s_hi = (s_hi - s_hi.T) / 2.0

    try:
        factor = sf2_finite(s_lo, s_hi)
    except NotAdmissibleError as exc:
        raise RefinementError(
            f"restricted endpoint singular on window [{lo}, {hi}]: {exc}"
        ) from exc
    return SpectralWindow(lo, hi, a, k, factor)


# ---------------------------------------------------------------------------
# parity engines


def to_skew_path(path: OperatorPath) -> OperatorPath:
    """The skew path whose Z2 flow is the parity of ``path``.

    General families are doubled to chiral skew-adjoint form, rectangular
    ones after reduction to a square block path (``_square_block_path``);
    chiral self-adjoint families are converted through the grading root;
    skew families are passed through unchanged.
    """
    if path.symmetry_tag == "chiral-selfadjoint":
        return selfadjoint_path_to_skew(path)
    if path.symmetry_tag != "general":
        return path
    if path.declared_index:
        path = _square_block_path(path)
    return embed_chiral_path(path)


def parity_path(path: OperatorPath, *, rng=None) -> Z2:
    """Parity of an admissible path, via the windowed Z2 flow of its skew
    form (see ``to_skew_path``); rectangular families take
    ``parity_path_general``."""
    if path.symmetry_tag == "general" and path.declared_index:
        raise DimensionError("rectangular families need parity_path_general")
    return sf2_path(to_skew_path(path), rng=rng).value


def parity_path_general(path: OperatorPath, *, rng=None) -> Z2:
    """Parity of a path of blocks with constant, possibly nonzero, index:
    the Z2 flow of ``to_skew_path(path)``.  At the endpoints the block may
    have no kernel or cokernel beyond the ``|declared_index|`` structural
    directions."""
    if path.symmetry_tag != "general":
        raise ConfigError("parity_path_general expects a path of plain blocks")
    return sf2_path(to_skew_path(path), rng=rng).value


def _square_block_path(path: OperatorPath) -> OperatorPath:
    """Square block path with the parity of a rectangular one.

    With B(t) tall (a wide block is transposed), N x k, a continuous
    d-dimensional near-cokernel frame F(t), d = N - k, is polar-transported
    along samples refined until consecutive frames are WINDOW_EPS-close.
    The result interpolates W(t)^T B(t), W(t) the transported complement of
    F(t); its parity does not depend on the choice of F.
    """
    wide = path.declared_index < 0
    d = abs(path.declared_index)
    t0, t1 = path.interval
    cache = {}
    sigma_max = 0.0

    def at(t):  # (B, U, singular values) of the tall block at t
        nonlocal sigma_max
        if t not in cache:
            b = path.at(t).T if wide else path.at(t)
            u, s, _ = np.linalg.svd(b)
            cache[t] = (b, u, s)
            sigma_max = max(sigma_max, s.max(initial=0.0))
        return cache[t]

    # endpoint admissibility: kernel dimension exactly the block index
    for t in (t0, t1):
        s = at(t)[2]
        extra = 2 * int((s <= tol.inv(s.max(initial=0.0)) * 10).sum())
        if extra:
            raise NotAdmissibleError(
                f"endpoint kernel dimension {d + extra} != |index| {d} at t={t}"
            )

    def kernel_frame(t, prev):
        _, u, s = at(t)
        k = s.size
        cluster = s < tol.inv(max(sigma_max, 1e-300)) * 10
        if prev is None or not cluster.any():
            return u[:, k:]
        near = np.concatenate([u[:, k:], u[:, :k][:, cluster]], axis=1)
        return near @ _polar(near.T @ prev, tol.transport())

    # kernel frames on a sample grid refined until consecutive frames are
    # WINDOW_EPS-close; refine's left-to-right order makes every frame the
    # transport of its left neighbour
    frames = {t0: kernel_frame(t0, None)}

    def continue_frame(a, b):
        f = kernel_frame(b, frames[a])
        if np.linalg.svd(frames[a].T @ f, compute_uv=False)[-1] < _COS_MIN:
            return None
        frames[b] = f
        return f

    segments, _ = refine(np.linspace(t0, t1, 65), continue_frame,
                         "continuous kernel family")
    ts = [t0] + [hi for _, hi, _ in segments]

    # complement frames, transported along the samples
    _, u, s = at(t0)
    w = u[:, :s.size]
    blocks = []
    for t in ts:
        f = frames[t]
        w = _polar(w - f @ (f.T @ w), tol.transport())
        blocks.append(w.T @ at(t)[0])
    return OperatorPath.from_samples(ts, blocks, "general")


# ---------------------------------------------------------------------------
# degree and symmetry conversions


def leray_schauder_degree(k_mat) -> Z2:
    """Degree of 1 + K: (-1)^n with n the eigenvalue count of K below -1.

    Complex-conjugate eigenvalue pairs cannot contribute; eigenvalues are
    treated as real when their imaginary part is below the realness
    threshold.  Coincides with the determinant sign of 1 + K.
    """
    k = as_real_matrix(k_mat)
    if k.shape[0] != k.shape[1]:
        raise DimensionError("square matrix required")
    n = k.shape[0]
    if n == 0:
        return Z2(1)
    one_plus = np.eye(n) + k
    sv = singular_values(one_plus)
    if sv[0] <= tol.inv(sv[-1]):
        raise SingularError("1 + K is singular within tolerance")
    eig = np.linalg.eigvals(k)
    smax = float(singular_values(k)[-1]) if max_abs(k) else 0.0
    real = eig[np.abs(eig.imag) <= tol.eig_imag(max(smax, 1e-300))]
    count = int(np.sum(real.real < -1.0))
    return Z2(1) if count % 2 == 0 else Z2(-1)


def selfadjoint_to_skew(h_mat, frame: ChiralFrame) -> np.ndarray:
    """Convert a chiral self-adjoint matrix to its chiral skew-adjoint form.

    For H = [[0, B], [B^T, 0]] the result is [[0, B], [-B^T, 0]]; this is the
    real form of conjugation by the square root of the grading.
    """
    h = as_real_matrix(h_mat)
    validate_symmetry(h, "chiral-selfadjoint", frame)
    return embed_chiral(h[:frame.n_plus, frame.n_plus:])


def selfadjoint_path_to_skew(path: OperatorPath) -> OperatorPath:
    """Pointwise chiral-selfadjoint to chiral-skew conversion of a path."""
    if path.symmetry_tag != "chiral-selfadjoint":
        raise ConfigError("expected a chiral-selfadjoint path")
    frame = path.frame
    return OperatorPath(
        path.interval,
        lambda t: selfadjoint_to_skew(path.evaluator(t), frame),
        "chiral-skew",
        frame,
        frame.n_plus - frame.n_minus,
    )


def k_real_reduce(h_mat, k_mat, frame: ChiralFrame) -> np.ndarray:
    """Reduce a K-real chiral self-adjoint complex matrix to its real form.

    K must be a real symmetric involution commuting with the grading, and H
    must satisfy K conj(H) K = H.  Conjugation by the root of K with spectrum
    {1, i} produces a real symmetric chiral matrix with the same spectrum.
    """
    h = np.asarray(h_mat, dtype=complex)
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
