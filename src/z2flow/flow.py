"""Parity and Z2-valued spectral flow engines.

The finite-dimensional formulas (endpoint determinant and Pfaffian signs),
the windowed path algorithm that accumulates the flow on small spectral
subspaces, the Leray-Schauder degree, and the symmetry-class conversions
between chiral self-adjoint and chiral skew-adjoint families.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import linalg, tolerances as tol
from .errors import (
    ConfigError,
    DimensionError,
    NotAdmissibleError,
    RefinementError,
    SingularError,
    TransportError,
)
from .linalg import (
    _step_norms,
    as_real_matrix,
    max_abs,
    pfaffian_sign,
    sign_det,
    singular_values,
    skew_singular_system,
)
from .paths import ChiralFrame, FamilyMember, OperatorPath, _check_shape, _stacked
from .z2 import MINUS, PLUS, Z2, z2_product

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
    "leray_schauder_degree",
    "selfadjoint_path_to_skew",
]

# pairwise window continuity: ||Q(t) - Q(t')|| < WINDOW_EPS, expressed as a
# lower bound on the smallest principal cosine between the two subspaces
_COS_MIN = math.sqrt(1.0 - tol.WINDOW_EPS ** 2)

# records of blocks of at most this order (plain skew matrices: twice
# it) are solved with their frames at once (``_eager``): on 9-stacks of
# 8 x 8 blocks, 1 BLAS thread, a values-only SVD and a later shifted solve
# each cost about two thirds of a full SVD, and on smaller blocks the
# shifted solve alone costs about what the directions add to an SVD
_EAGER_MAX = 8

# equispaced samples per partition segment, endpoints included: 2^3 + 1,
# three bisections of the segment, written out by _segment_grid
_SEGMENT_SAMPLES = 9


@dataclass
class SpectralWindow:
    """One partition segment of the windowed flow computation.

    ``summand`` is the position of its part in a declared direct sum (see
    ``sf2_path``), 0 on a path solved whole.
    """

    t_lo: float
    t_hi: float
    a: float
    rank: int
    factor: Z2
    summand: int = 0


@dataclass
class FlowResult:
    """Value of a windowed flow computation plus its audit trail.

    ``motion_rank`` is the rank r of a declared low-rank motion whose r x r
    reduced path was solved in place of the block (see ``sf2_path``; the
    largest r over the parts of a declared sum), 0 when no reduction ran.
    """

    value: Z2
    windows: list
    refinement_depth: int
    evaluations: int
    motion_rank: int = 0


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


def _doubling(source: OperatorPath, frame: ChiralFrame, tag: str) -> OperatorPath:
    """Chiral doubling of the blocks of ``source``: [[0, B], [-B^T, 0]] for
    the tag ``chiral-skew``, [[0, B], [B^T, 0]] for ``chiral-selfadjoint``.
    Its evaluator declares the ``source`` path, whose blocks the reader
    (``paths._stacked``) reads, so only ``at`` builds the doubled matrix,
    and the source's ``arc``, ``parts`` (with their ``block_shape``) and
    ``motion`` if it declares them."""
    def evaluator(t):
        m = embed_chiral(source.block(t))
        if tag == "chiral-selfadjoint":
            m[frame.n_plus:, :frame.n_plus] *= -1.0
        return m

    evaluator.source = source
    evaluator.arc = getattr(source.evaluator, "arc", None)
    evaluator.parts = getattr(source.evaluator, "parts", None)
    evaluator.block_shape = getattr(source.evaluator, "block_shape", None)
    evaluator.motion = getattr(source.evaluator, "motion", None)
    return OperatorPath(source.interval, evaluator, tag, frame,
                        frame.n_plus - frame.n_minus)


def embed_chiral_path(path: OperatorPath) -> OperatorPath:
    """Chiral skew-adjoint doubling of a path of general matrices."""
    return _doubling(path, ChiralFrame(*path.block_shape), "chiral-skew")


def sf2_finite(t0, t1) -> Z2:
    """Two-endpoint Z2 flow of invertible skew matrices of equal dimension.

    Equal to the product of the Pfaffian signs, which coincides with the
    determinant sign of any invertible congruence mapping one endpoint to
    the other.  Both endpoints are checked invertible by one stacked
    ``linalg.checked_signs`` before their signs are taken.
    """
    a0 = as_real_matrix(t0)
    a1 = as_real_matrix(t1)
    if a0.shape != a1.shape or a0.shape[0] != a0.shape[1]:
        raise DimensionError(f"matching square shapes required: {a0.shape} vs {a1.shape}")
    if a0.shape[0] % 2:
        raise DimensionError("even dimension required")
    if not a0.size:
        return PLUS
    signs, sigma_min = linalg.checked_signs(np.array([a0, a1]), pfaffian_sign)
    failure = _sign_failure(signs, sigma_min, False)
    if failure is not None:
        raise failure
    return Z2(signs[0] * signs[1])


def _sign_failure(signs, sigma_min, det: bool):
    """What the signs of two restricted ends or endpoints (``checked_signs``,
    NaN for a singular one) raise, None if both are +-1: a singular
    determinant's ``SingularError`` (as ``sign_det``), or a skew endpoint's
    ``NotAdmissibleError`` (as ``sf2_finite``)."""
    singular = np.isnan(signs)
    if det and singular.any():
        return linalg.singular_error(sigma_min[singular][0])
    if singular.any():
        return NotAdmissibleError("skew endpoint is singular within tolerance")
    if not signs.all():
        return NotAdmissibleError("Pfaffian sign vanished on a nominally invertible input")
    return None


# ---------------------------------------------------------------------------
# refinement and transport


def _refine(points, accept, what: str, depth_first: bool = False, floor=None):
    """The one bisection loop, by default in level order: ``accept`` takes
    one level's pending ``(lo, hi)`` segments, left to right, and returns a
    verdict for each; refused ones bisect into the next level, and the
    accepted ones are sorted into partition order.  Depth first, it takes
    one-segment lists off a stack that a refused segment pushes its halves
    onto (``_square_block_path``).  No segment below ``floor`` (default:
    ``tol.MIN_SEGMENT`` of the points' span) is bisected.  Any exception in
    level order replays the search depth first from the records already
    solved, so the error raised is the one the depth-first order meets first."""
    try:
        floor = tol.MIN_SEGMENT * (points[-1] - points[0]) if floor is None else floor
        pending = [(lo, hi, 0) for lo, hi in zip(points[:-1], points[1:])][::-1]
        accepted, max_depth = [], 0
        while pending:
            level, pending = ([pending.pop()], pending) if depth_first else (pending[::-1], [])
            bisected = []
            for (lo, hi, depth), value in zip(level, accept([s[:2] for s in level])):
                max_depth = max(max_depth, depth)
                if value is not None:
                    accepted.append((lo, hi, value))
                    continue
                mid = lo + (hi - lo) / 2.0
                if hi - lo < floor:
                    raise RefinementError(
                        f"no {what} above segment length {floor:.3g} "
                        f"on [{lo}, {hi}]"
                    )
                if not lo < mid < hi:
                    raise RefinementError(
                        f"no {what} on [{lo:.17g}, {hi:.17g}], and the segment "
                        "cannot be bisected in floating point"
                    )
                bisected += [(lo, mid, depth + 1), (mid, hi, depth + 1)]
            pending += bisected[::-1]
    except Exception:
        if depth_first:
            raise
        return _refine(points, accept, what, True, floor)
    accepted.sort(key=lambda segment: segment[0])
    return accepted, max_depth


def _polar_split(x: np.ndarray, floor: float):
    """Orthogonal factor of the polar decomposition of a tall matrix x, and
    an orthonormal basis of the orthogonal complement of its span (no
    columns for a square x).  The columns of x are the images of an
    orthonormal frame; the factor is the orthonormal frame of the same span
    closest to them.  A smallest singular value below ``floor`` means the
    frame was carried too far to be transported and raises
    ``TransportError``.  A stack of matrices x is factored by one batched
    SVD and checked against the one floor."""
    w, s, vt = np.linalg.svd(x)
    smallest = s[..., -1:]
    low = smallest[smallest < floor]
    if low.size:
        raise TransportError(f"polar factor ill-conditioned (sigma_min={low[0]:.3e})")
    return w[..., :s.shape[-1]] @ vt, w[..., s.shape[-1]:]


def _smallest_cosines(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Smallest principal cosines between the spans of the orthonormal
    frames f and g, or of each pair of frames of two equally long stacks.
    The cosine of two lines is the absolute value of their 1 x 1 overlap,
    bitwise its singular value."""
    overlaps = f.swapaxes(-1, -2) @ g
    if overlaps.shape[-2:] == (1, 1):
        return np.abs(overlaps[..., 0, 0])
    return np.linalg.svd(overlaps, compute_uv=False)[..., -1]


# ---------------------------------------------------------------------------
# windowed path engine


def _record_matrix(path: OperatorPath, ts: list) -> np.ndarray:
    """The matrices the engine solves at the list of parameters ts, along a
    leading axis, read and validated as one stack by the one reader
    (``paths._stacked``): the block of a chiral path or of a general one
    (its own block), the antisymmetrized matrix of a plain skew path."""
    if path.symmetry_tag != "skew":
        return _stacked(path, ts, True)
    m = _stacked(path, ts)
    return (m - m.swapaxes(-1, -2)) / 2.0


def _eager(shape: tuple, chiral: bool) -> bool:
    """Whether the records of matrices of ``shape`` solve their frames with
    their values: blocks of order at most ``_EAGER_MAX``, plain skew
    matrices of at most twice that."""
    return min(shape[-2:]) <= _EAGER_MAX * (1 if chiral else 2)


class _PathData:
    """Caches path evaluations and their skew singular systems per parameter.

    A record is (M, singular values of T ascending, frames or None), its
    values solved values-only: a chiral-skew path is carried by its block, a
    general one is its own, so M = B = ``path.block(t)`` and the doubled T
    is never formed; a plain skew path has M = T antisymmetrized.  M is also
    the step matrix: ||T_i - T_j||_2 = ||B_i - B_j||_2, and the step norm of
    each consecutive sample pair an opaque search reads is kept under the
    pair's two parameters (``steps``), so a half that tries its parent's
    samples finds their steps solved.  The path's step anchor
    (``linalg._StepAnchor``) is its first stack's largest step: a step that
    is a near-multiple of it, as every step of a line is, takes an upper
    bound within 2 ``tol.gap`` of its 2-norm without an SVD, and every other
    step is solved exactly (``linalg._step_norms``).

    Frames are read only where a window of positive rank is tried, and are
    kept in the record as its j smallest directions on each side: the left
    and right singular vectors (X, Y) of a block (see
    ``skew_singular_system``), the right ones (V,) of a plain record.
    ``frames`` solves the missing ones of a request as one stack: the one
    pair (x_1, y_1) of a rank-2 window of a square block by one certified
    shifted solve (``linalg._smallest_pair``), every other request, and a
    pair the certificate refuses, by the SVD's full directions; the values
    stay those the search read.  A record keeps the frames of its first
    request: a certified pair lies within ``linalg._PAIR_SIN`` of the SVD's
    directions, so a cosine the search reads moves by about that much with
    the request order.  ``full`` (the rectangular reduction and the pair
    route, which read every direction from ``at``) solves each stack's
    frames with its values instead, as does a block of order at most
    ``_EAGER_MAX`` (a plain matrix of twice that), where values-first saves
    nothing (``_eager``).

    ``arc`` is the evaluator's arc modulus (``OperatorPath``), read on the
    interval's 9-point grid (``_arc_growth``): an increase that is not a
    finite float bounds nothing (``arc`` None, an opaque path), and none
    declares one matrix (``constant``), whose every parameter reads the
    start's record: its singular values alone, pinned without a solve by
    the Weyl bounds of a square block whose off-diagonal is zero and whose
    diagonal magnitudes are equal, such as the ring's identity
    (``linalg._pinned_values``, bitwise the values-only SVD), else from a
    values-only solve, also under ``full``.  A ``general`` path, solved
    only by the rectangular reduction, is opaque: its arc is not read.
    """

    def __init__(self, path: OperatorPath, full: bool = False):
        self.path = path
        self.chiral = path.symmetry_tag != "skew"
        self.full = full
        arc = None if path.symmetry_tag == "general" else getattr(path.evaluator, "arc", None)
        growth = _arc_growth(arc, path.interval)
        self.arc = arc if math.isfinite(growth) else None
        self.constant = growth == 0
        self._start = float(path.interval[0])
        self._cache = {}
        self._first = None  # (t, shape) of the first evaluation
        self._steps = {}  # step norm per sample pair (t_i, t_i+1)
        self._anchor = linalg._StepAnchor()  # the path's step direction
        self.step_bound = math.inf
        self.near_zero = 0.0

    def _key(self, t: float) -> float:
        return self._start if self.constant else float(t)

    def _evaluate(self, t: float) -> np.ndarray:
        m = _record_matrix(self.path, [t])[0]
        self._first = self._first or (t, m.shape)
        _check_shape(m, t, *self._first)
        return m

    def at(self, t: float):
        """The record at t, solved alone if it is new."""
        rec = self._cache.get(self._key(t))
        return rec if rec is not None else self.solve(np.array([t], dtype=float))[0]

    def solve(self, ts) -> list:
        """The records at ts, the new parameters solved as one ``stack``."""
        keys = [self._start] * len(ts) if self.constant else ts.tolist()
        new = [t for t in dict.fromkeys(keys) if t not in self._cache]
        if new:
            self.stack(new)
        return [self._cache[t] for t in keys]

    def stack(self, new: list):
        """Solve the distinct uncached ts ``new`` as one stack, read and
        validated as one (``_record_matrix`` of their list; one t at a time
        if that fails, so the first failing t raises alone) and solved,
        unless a constant record's values are pinned, by one stacked
        ``linalg.skew_singular_system``, values-only unless ``full`` (flow's
        own name is the one-matrix boundary ``bench/spans.py`` traces);
        cache the records, each bitwise its matrix's own, and return the
        stacks (M, sv, frames), the frames None unless solved."""
        m = None
        if len(new) > 1:  # one read of the stack; on any failure one t at a time
            with contextlib.suppress(Exception):
                stack, first = _record_matrix(self.path, new), self._first
                first = first or (new[0], stack.shape[-2:])
                _check_shape(stack[0], new[0], *first)
                m, self._first = stack, first
        if m is None:
            m = _stack([self._evaluate(t) for t in new])
        # a constant block whose values Weyl's bounds pin needs no solve
        pinned = linalg._pinned_values(m[0]) if self.constant and self.chiral else None
        if pinned is not None:
            sv, f = np.repeat(pinned, 2)[None], None
        else:
            eager = self.full or _eager(m.shape, self.chiral)
            sv, f = linalg.skew_singular_system(m, self.chiral, eager and not self.constant)
        f = f if f is None or self.chiral else (f,)  # (X, Y) of a block, (V,)
        self._cache.update(zip(new, zip(m, sv, zip(*f) if f else [None] * len(new))))
        return m, sv, f

    def steps(self, ts: list, row: list) -> list:
        """The step norms ||M_i+1 - M_i||_2 of the consecutive samples ts
        with records ``row``.  Each pair is stepped once per path: its norm
        is kept under its two parameters, and a row with a pair not yet
        stepped is solved as one values-only (samples, n, m) stack of its
        matrices (``_step_norms``) against the path's step anchor: a
        near-multiple of the anchor takes an upper bound within 2
        ``tol.gap`` without an SVD, so a path that moves along one matrix
        direction solves one step SVD in all; every other pair's norm is
        solved, bitwise its own.  A pair already stepped keeps its norm (a
        half's parent-sample pairs are its parent's grid pairs, so a row's
        pairs are all new or all stepped).  The opaque rule reads only upper
        bounds: the step bound and the 0.75-step margin only grow."""
        pairs = list(zip(ts[:-1], ts[1:]))
        if any(pair not in self._steps for pair in pairs):
            norms = _step_norms(np.array([r[0] for r in row]), self._anchor)
            for pair, norm in zip(pairs, norms.tolist()):
                self._steps.setdefault(pair, norm)
        return [self._steps[pair] for pair in pairs]

    def frames(self, ts: list, k: int) -> np.ndarray:
        """The frames of the window of the k > 0 smallest values of the
        records at the floats ts, stacked (sides, len(ts), n, k / sides):
        the first k directions of a plain record, the first k / 2 of each
        side of a block (an admissible block is square).  The records that
        hold fewer directions are solved as one stack: for k = 2 on
        a square block by ``linalg._smallest_pair``, and the rows it does
        not certify, as every other request, by the SVD's full frames."""
        keys = [self._start] * len(ts) if self.constant else ts
        j = k // 2 if self.chiral else k
        f = [self._cache[t][2] for t in keys]
        widths = {0 if x is None else x[0].shape[-1] for x in f}
        if min(widths) < j:  # each record solved once
            self._solve_frames([t for t, x in dict(zip(keys, f)).items()
                                if x is None or x[0].shape[-1] < j], j == 1 and self.chiral)
            f = [self._cache[t][2] for t in keys]
            widths = {x[0].shape[-1] for x in f}
        if len(widths) > 1:  # certified pairs among full frames: each trimmed
            f = [[side[:, :j] for side in x] for x in f]
        # one stack per side, as wide as the window
        return np.array([np.array(side)[..., :j] for side in zip(*f)])

    def _solve_frames(self, keys: list, pair: bool):
        """Solve the frames of the cached records ``keys`` as one stack: by
        ``linalg._smallest_pair`` if ``pair`` (a block's one smallest pair),
        then by the SVD's full frames for the rows not yet certified."""
        recs = [self._cache[t] for t in keys]
        m = _stack([r[0] for r in recs])
        frames = [None] * len(keys)
        if pair:  # an admissible block is square
            x, y, certified = linalg._smallest_pair(m, np.array([r[1][::2] for r in recs]))
            frames = [(x[i, :, None], y[i, :, None]) if ok else None
                      for i, ok in enumerate(certified.tolist())]
        rest = [i for i, f in enumerate(frames) if f is None]
        if rest:
            f = linalg.skew_singular_system(m if len(rest) == len(m) else m[rest], self.chiral)[1]
            for i, f_i in zip(rest, zip(*(f if self.chiral else (f,)))):
                frames[i] = f_i
        self._cache.update((t, (r[0], r[1], f)) for t, r, f in zip(keys, recs, frames))

    @property
    def evaluations(self) -> int:
        return len(self._cache)


def _read_arc(arc, ts: np.ndarray, members=None) -> np.ndarray:
    """The arc at the ascending ts; ``ConfigError`` unless it gives one
    real, nondecreasing value per parameter (NaN and inf bound nothing, and
    pass), or for the arc of a family of ``members`` paths one such row per
    parameter, one column per member."""
    values = np.asarray(arc(ts))
    if values.dtype.kind not in "biuf":
        raise ConfigError("the evaluator's arc must return real numbers, "
                          f"got dtype {values.dtype}")
    values = values.astype(float, copy=False)
    shape = ts.shape if members is None else (ts.size, members)
    if values.shape != shape or (values[1:] < values[:-1]).any():
        raise ConfigError(
            "the evaluator's arc must return one value per parameter, "
            f"nondecreasing in t; it does not on [{ts[0]}, {ts[-1]}]")
    return values


def _arc_growth(arc, interval, members=None):
    """How far a declared arc grows over the interval, read on its 9-point
    grid (``_read_arc``): 0 declares one matrix, and a growth that is not a
    finite float bounds nothing (NaN for no arc).  The arc of a family of
    ``members`` paths grows once per member."""
    if arc is None:
        return math.nan if members is None else np.full(members, math.nan)
    values = _read_arc(arc, _segment_grid(*interval), members)
    if members is None:
        return float(values[-1]) - float(values[0])
    with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic
        return values[-1] - values[0]


def _require_arc(s, t, m_s, m_t, grown):
    """Refuse an arc declared to grow by ``grown`` from s to t if the path
    matrices m_s and m_t held there are further apart: max |M(t) - M(s)|
    <= ||M(t) - M(s)||_2 <= arc(t) - arc(s) for an honest arc, checked
    within ``tol.sym`` of the larger matrix's scale.  Stacks are checked
    pair by pair in one pass (one s, t and ``grown`` per pair, or one for
    all), and the message names the first pair that fails; only a pair
    whose step exceeds ``grown`` reads its scales.  A path that moves and
    returns between the given matrices passes."""
    with np.errstate(over="ignore"):  # a step past the largest float is inf
        moved = np.abs(m_t - m_s).max(axis=(-2, -1), initial=0.0)
    over = moved > grown
    if not over.any():
        return
    over = np.flatnonzero(over)
    s, t, grown, moved = (np.broadcast_to(x, np.shape(moved)).reshape(-1)[over]
                          for x in (s, t, grown, moved))
    top = np.maximum(*(np.abs(m.reshape(-1, *m.shape[-2:])[over]).max(
        axis=(-2, -1), initial=0.0) for m in (m_s, m_t)))
    lies = np.flatnonzero(moved > grown + tol.sym(top))
    if lies.size:
        j = lies[0]
        raise ConfigError(
            f"the declared arc grows by {grown[j]:.3e} from t={s[j]} to t={t[j]}, "
            f"but the path moves by max |M(t) - M(s)| = {moved[j]:.3e} there; the "
            "arc must bound ||M(t) - M(s)||_2")


def _stack(mats: list) -> np.ndarray:
    """The arrays along a leading axis: a view of a lone one, else a copy."""
    return mats[0][None] if len(mats) == 1 else np.array(mats)


@functools.lru_cache(maxsize=None)
def _sample_pairs(n: int):
    """The index pairs i < j of n samples, computed once per sample count."""
    return np.triu_indices(n, 1)


def _pairwise_window_continuity(bases: np.ndarray) -> bool:
    """Check that all pairs of equal-rank subspaces stay WINDOW_EPS-close.

    ``bases`` stacks one orthonormal basis per sample along its
    third-to-last axis; leading axes stack more such sets, as the two sides
    of a block window.  The principal cosines of every pair of every set
    come from one batched SVD of the pair overlaps.
    """
    if bases.shape[-1] == 0:
        return True
    i, j = _sample_pairs(bases.shape[-3])
    return bool(_smallest_cosines(bases[..., i, :, :],
                                  bases[..., j, :, :]).min() >= _COS_MIN)


def _endpoint_rule(low0, low1, high, grown, rng):
    """The two-endpoint rule over steps of arc ``grown`` whose ends have
    smallest singular values low0 and low1 and largest ``high`` (arrays of
    them, or one step's floats): sigma_min >= floor = (low0 + low1 -
    grown) / 2 must clear the margin 4 tol.gap(high) on both sides.
    Returns whether each floor clears, and each radius midway."""
    floor = low0 / 2.0 + low1 / 2.0 - grown / 2.0
    margin = 4.0 * tol.gap(high)
    u = 0.5 if rng is None else rng.uniform(0.3, 0.7, np.shape(floor))
    return floor > 2.0 * margin, margin + u * (floor - 2.0 * margin)


def _segment_grid(lo: float, hi: float) -> np.ndarray:
    """The ``_SEGMENT_SAMPLES`` = 9 equispaced samples of [lo, hi], each the
    midpoint a + (b - a) / 2 of its two neighbours of the coarser grid, as
    ``_refine`` bisects: a half's even samples are then bitwise its parent's
    samples, so the halves of a refused segment find them solved.  Python
    floats round each step as numpy does, faster than arrays of 9 values."""
    lo, hi = float(lo), float(hi)
    m4 = lo + (hi - lo) / 2.0
    m2, m6 = lo + (m4 - lo) / 2.0, m4 + (hi - m4) / 2.0
    return np.array([lo, lo + (m2 - lo) / 2.0, m2, m2 + (m4 - m2) / 2.0, m4,
                     m4 + (m6 - m4) / 2.0, m6, m6 + (hi - m6) / 2.0, hi])


def _level_windows(data: _PathData, segments, rng) -> list:
    """The window search of one refinement level: for each segment
    (lo, hi), a window radius and rank (a, rank), or None to bisect it.

    A valid radius lies, with a margin 4 tol.gap on each side, between an
    upper envelope of the singular values below it and a lower one of those
    above it over the segment (Weyl), so the window rank is constant there,
    and the windowed subspaces of the samples must be pairwise
    WINDOW_EPS-close; the samples are the segment's 9-point grid, searched
    by ``_sampled_windows``.  A declared arc bounds every sigma_j between
    samples t_i and t_i+1 by (sigma_j(t_i) + sigma_j(t_i+1) -+ d_i) / 2, d_i
    the arc step, at any spacing, so such a path first tries its endpoints
    for a rank-0 window (``_endpoint_rule``; the arc read once for the
    level, all pairs audited by one ``_require_arc``).  On an opaque path
    the envelopes are the extreme sampled values widened by 0.75 times the
    largest step ||M_i+1 - M_i||_2, and a step above the path's step bound
    (a tenth of the largest endpoint singular value) refuses the segment,
    as a jump does not shrink under bisection.  Both rules read only
    consecutive sample pairs (a sign change between two samples forces
    their step to at least sigma_min), so every path then tries the even
    grid points of a half of a refused segment, its parent's samples, which
    are pairs its parent solved and, opaque, stepped at the same spacing
    (``_PathData.steps``); only then the whole grid.  The rank is capped
    at max(2, k_near), k_near the count, rounded up to even, of values whose
    sampled minimum is below half the smallest endpoint singular value.  A
    verdict depends only on its segment's samples (and rng draws), so a
    level of one segment is searched as the depth-first order searches it.
    """
    grids = _stack([_segment_grid(lo, hi) for lo, hi in segments])
    verdicts, arcs = [None] * len(segments), None
    if data.arc is not None:
        ends = [(data.at(a), data.at(b)) for a, b in segments]
        arcs = _read_arc(data.arc, grids.ravel()).reshape(grids.shape)
        if ends[0][0][1].size:  # a 0-dimensional path has no floor
            grown = (arcs[:, -1] - arcs[:, 0]).tolist()
            _require_arc(*zip(*segments), *(_stack([e[j][0] for e in ends]) for j in (0, 1)),
                         np.array(grown))
            for i, ((_, s0, _), (_, s1, _)) in enumerate(ends):
                clears, a = _endpoint_rule(float(s0[0]), float(s1[0]),
                                           float(max(s0[-1], s1[-1])), grown[i], rng)
                verdicts[i] = (float(a), 0) if clears else None
            if None not in verdicts:
                return verdicts
    for step in (2, 1):  # the parent's samples, then all
        todo = [i for i, window in enumerate(verdicts)
                if window is None and (step == 1 or all(
                    data._key(t) in data._cache for t in grids[i, ::2].tolist()))]
        rows = todo if len(todo) < len(verdicts) else slice(None)
        for i, window in zip(todo, todo and _sampled_windows(
                data, grids[rows, ::step], None if arcs is None else arcs[rows, ::step], rng)):
            verdicts[i] = window
    return verdicts


def _sampled_windows(data: _PathData, grids: np.ndarray, arcs, rng) -> list:
    """The window search of ``_level_windows`` over the samples of each row
    of ``grids``, with their arc values ``arcs`` (None on an opaque path):
    the rows' new samples are solved as one stack, one pass over their
    (rows, samples, n) singular values takes the envelopes and gaps, and
    each row tries its candidate ranks, the frames of each rank requested
    as one stack (``_PathData.frames``).  An opaque row whose singular-value
    steps leave a candidate reads its step norms from ``_PathData.steps``,
    which solves only the pairs not yet stepped."""
    recs = data.solve(grids.ravel())
    svs = np.array([r[1] for r in recs]).reshape(grids.shape + recs[0][1].shape)
    rows, size, n = svs.shape
    near = svs.min(axis=1)
    s_seg = svs.max(axis=(1, 2), initial=0.0).tolist()
    if arcs is not None:
        mid = svs[:, :-1] / 2.0 + svs[:, 1:] / 2.0
        half = (arcs[:, 1:] - arcs[:, :-1])[:, :, None] / 2.0
        with np.errstate(over="ignore"):  # a bound past the largest float is inf
            lo_env = (mid + half).max(axis=1)
        hi_env = (mid - half).min(axis=1)
    else:
        lo_env, hi_env = svs.max(axis=1), near
        lower = np.abs(svs[:, 1:] - svs[:, :-1]).max(axis=(1, 2), initial=0.0).tolist()
    # the gap (glo, ghi) of rank 2j lies between the envelopes of the 2j
    # values below and of those above
    glo = [[0.0] + row[1::2] for row in lo_env.tolist()]
    ghi = [row[::2] + [math.inf] for row in hi_env.tolist()]
    near, ends = near.tolist(), svs[:, [0, -1]].reshape(rows, -1).tolist()

    def window(i):
        # windows hold at most the values that come near zero on the segment
        k_near = sum(v < data.near_zero for v in near[i])
        count = min(n, max(2, k_near + k_near % 2)) // 2 + 1
        low_env, high_env = glo[i][:count], ghi[i][:count]
        row, margin = recs[i * size:(i + 1) * size], 4.0 * tol.gap(max(s_seg[i], 1e-300))

        def fits(margin):
            return [j for j, (low, high) in enumerate(zip(low_env, high_env))
                    if high - low > 2.0 * margin]

        if arcs is None:
            if lower[i] > data.step_bound or not fits(margin + 0.75 * lower[i]):
                return None
            step = max(data.steps(grids[i].tolist(), row))
            if step > data.step_bound:
                return None
            margin += 0.75 * step
        candidates = fits(margin)
        if not candidates:
            return None
        # preferred radius: half the smallest endpoint singular value above
        # the margin; candidates whose gap holds it come first, each group
        # by rank
        positive = [v for v in ends[i] if v > margin]
        pref = min(positive) / 2.0 if positive else None
        inside = [pref is not None and low + margin < pref < high - margin
                  for low, high in zip(low_env, high_env)]
        candidates.sort(key=lambda j: not inside[j])
        if rng is not None:
            rng.shuffle(candidates)
        for j in candidates:
            k, low, high = 2 * j, low_env[j], high_env[j]
            if math.isinf(high):
                a = low + margin + max(s_seg[i], low, 1.0) * 0.75
            elif inside[j] and rng is None:
                a = pref
            else:
                u = 0.5 if rng is None else float(rng.uniform(0.3, 0.7))
                a = (low + margin) + u * ((high - margin) - (low + margin))
            if a <= margin:
                continue
            # a rank-0 window has no subspace to check; the sides of a
            # block's window are checked as two sets of samples
            if k and not _pairwise_window_continuity(data.frames(grids[i].tolist(), k)):
                continue
            return a, k
        return None

    return [window(i) for i in range(rows)]


def _kernel_lift(data: _PathData, t: float, a_min: float,
                 rng) -> Optional[np.ndarray]:
    """Perturbation R of the record matrix lifting the near-kernel at t.

    Directions strictly below delta/2 count as kernel, delta = a_min/10
    (kept inside both adjacent windows), so the lift dominates them and the
    unlifted part is untouched (the cluster spans an invariant subspace).
    On a chiral block path the i-th left and right null vectors of B are
    paired: R = delta * sum x_i y_i^T joins [x_i; 0] with [0; y_i] in a
    chiral 2x2 skew block of the doubling.  On a plain skew path
    consecutive kernel directions are joined by skew blocks.
    """
    delta = a_min / 10.0
    if rng is not None:
        delta *= float(rng.uniform(0.2, 1.0))
    threshold = delta / 2.0
    m = int((data.at(t)[1] < threshold).sum())
    if m == 0:
        return None
    if m % 2:
        raise RefinementError(
            f"odd near-kernel cluster of size {m} at t={t}; cannot lift"
        )
    kernels = list(data.frames([float(t)], m)[:, 0])
    if rng is not None:
        kernels = [c @ _random_orthogonal(rng, c.shape[1]) for c in kernels]
    if data.chiral:  # an admissible chiral path has no structural kernel
        x, y = kernels
        return delta * (x @ y.T)
    u, w = kernels[0][:, 0::2], kernels[0][:, 1::2]
    return delta * (u @ w.T - w @ u.T)


def _random_orthogonal(rng, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def sf2_path(path: OperatorPath, *, rng=None) -> FlowResult:
    """Z2-valued spectral flow of an admissible path of skew matrices.

    The interval is partitioned adaptively; on each segment the flow is
    accumulated on the spectral subspace below a window radius chosen in a
    gap of the singular spectrum common to the whole segment.  Interior
    partition points with a kernel are lifted by a small skew perturbation
    shared between the two adjacent windows.  The returned report records
    every window with its radius, rank and Z2 factor; their product is the
    flow.

    Each refinement level is searched as one stack (``_level_windows``).
    On a path that declares an arc modulus a segment of arc L first tries
    its endpoints, sigma_min >= (s0 + s1 - L) / 2 (Weyl): a path whose
    floor clears the margins is one rank-0 window of flow +1 from the two
    endpoint solves.

    Declared structure is walked first (``_flow``, shared with
    ``parity_via_pairs``).  The doubling of a declared direct sum
    (``OperatorPath.direct_sum``) is solved part by part, each distinct part
    once: the flow is multiplicative, so a part listed c times contributes
    its flow to the power c and its windows c times, tagged with its
    position (``SpectralWindow.summand``), and the report counts the
    distinct parts' evaluations and deepest refinement.  A part whose arc
    does not increase is one matrix, solved once for its singular values.
    The calm members of a path family (``PathFamily``) are rank-0 windows
    from one solve of each endpoint stack (``_family_batch``).  A block
    path that declares its low-rank motion ``(p, q, c)`` (see
    ``OperatorPath``) is solved on its r x r reduced path (``_reduced``),
    which has the parity of B; its windows are listed, its evaluations
    counted plus B's two, and ``motion_rank`` is r.

    A declared arc is checked, at no solve, wherever the engine holds two
    matrices (the ends of a segment, of a family member, of a motion's c,
    and a constant path's end against its one matrix): one that grows from
    s to t by less than max |M(t) - M(s)| raises ``ConfigError``; a path
    that moves and returns between the held matrices passes.

    A generator ``rng`` randomizes all admissible choices (partition,
    radii, lift perturbations); by the well-definedness of the flow the
    result does not depend on them.
    """
    if path.symmetry_tag not in ("skew", "chiral-skew"):
        raise ConfigError("sf2_path requires a skew or chiral-skew path")
    return _flow(path, rng)


def _family_batch(family, members, rng):
    """The two-endpoint rule (``_endpoint_rule``) for the listed
    ``members`` (ascending indices) of a path family, all at once.

    The family is evaluated once at each endpoint, and the blocks of its
    moving members (whose arc grows, or is opaque) are solved by one stacked
    ``skew_singular_system``, each bitwise the record of the member's own
    windowed walk: values-only, unless the blocks are small enough to solve
    their frames with their values (``_eager``).  Each must be admissible at
    both ends (``_require_admissible``) and grow by at least max |B(t1) -
    B(t0)| along a declared arc (``_require_arc``).  The radius is bitwise
    the member's own walk's (under ``rng``, u from one draw).  Returns the
    radius of each certified member; every other member, and one whose arc
    does not grow, is left to its leaf engine (``_flow``), which solves its
    endpoints again.
    """
    members = np.asarray(members)
    t0, t1 = family.interval
    growth = _arc_growth(family.arc, family.interval, len(family))[members]
    moving = growth != 0  # NaN included: an opaque member is solved too
    members, declared = members[moving], np.isfinite(growth[moving])
    if not members.size:
        return {}
    ends = [family.stack(t)[members] for t in (t0, t1)]
    # the stack is solved through the linalg module: flow's own name is the
    # one-matrix boundary that bench/spans.py traces
    svs = [linalg.skew_singular_system(b, True, _eager(b.shape, True))[0] for b in ends]
    if not svs[0].shape[1]:  # 0 x 0 blocks have no floor: walked
        declared[:] = False
    for t, sv in zip((t0, t1), svs):
        singular = np.flatnonzero(sv[:, :1] <= tol.inv(sv[:, -1:]))
        if singular.size:
            _require_admissible(t, sv[singular[0]])
    if not declared.any():
        return {}
    b0, b1 = (b[declared] for b in ends)
    s0, s1 = (sv[declared] for sv in svs)
    arcs = _read_arc(family.arc, np.array([t0, t1]), len(family))
    grown = arcs[1, members[declared]] - arcs[0, members[declared]]
    _require_arc(t0, t1, b0, b1, grown)
    clears, a = _endpoint_rule(s0[:, 0], s1[:, 0], np.maximum(s0[:, -1], s1[:, -1]),
                               grown, rng)
    # a radius no endpoint value lies below is rank 0 at both ends
    calm = clears & (a <= s0[:, 0]) & (a <= s1[:, 0])
    return dict(zip(members[declared][calm].tolist(), a[calm].tolist()))


def _flow(path: OperatorPath, rng, leaf=None) -> FlowResult:
    """The structural walk of both engines (see ``sf2_path``): a declared
    sum part by part, a path family's calm members first from its endpoint
    stacks (``_family_batch``), a declared motion on its reduced path
    (``_reduced``), and every other path by the leaf engine ``leaf``:
    ``_windowed_flow`` unless given (``parity_via_pairs`` gives
    ``pairs._pair_leaf``)."""
    leaf = leaf or _windowed_flow
    parts = getattr(path.evaluator, "parts", None)
    if parts is not None:
        families = {}  # each family's listed members
        for part, _, _ in parts:
            if isinstance(part, FamilyMember):
                families.setdefault(part.family, set()).add(part.index)
        solved = {}
        for family, members in families.items():
            for i, a in _family_batch(family, sorted(members), rng).items():
                solved[id(family[i])] = FlowResult(
                    PLUS, [SpectralWindow(*family.interval, a, 0, PLUS)], 0, 2)
        for part, rows, cols in parts:
            if id(part) not in solved:
                source = part.path if isinstance(part, FamilyMember) else part
                frame = ChiralFrame(len(rows), len(cols))
                solved[id(part)] = _flow(_doubling(source, frame, "chiral-skew"),
                                         rng, leaf)
        results = [solved[id(part)] for part, _, _ in parts]
        windows = [SpectralWindow(w.t_lo, w.t_hi, w.a, w.rank, w.factor, i)
                   for i, r in enumerate(results) for w in r.windows]
        return FlowResult(z2_product(r.value for r in results), windows,
                          max(r.refinement_depth for r in solved.values()),
                          sum(r.evaluations for r in solved.values()),
                          max(r.motion_rank for r in solved.values()))
    if getattr(path.evaluator, "motion", None) is not None:
        reduced = _reduced(path)
        result = leaf(reduced, rng)
        # the block's two endpoint evaluations, then the reduced path's
        return replace(result, evaluations=2 + result.evaluations,
                       motion_rank=reduced.frame.n_plus)
    return leaf(path, rng)


def _reduced(path: OperatorPath) -> OperatorPath:
    """The path with the parity of a block path that declares its low-rank
    motion ``(p, q, c)``, B(t) = B(t0) + p c(t) q^T (see ``OperatorPath``):
    the chiral skew doubling of the r x r path A(t) = I + K c(t), with
    K = q^T B(t0)^-1 p.

    By Sylvester's identity det B(t) = det B(t0) det A(t).  B is evaluated
    at its two endpoints only, which must be admissible: each is certified
    without an SVD (``linalg._certified_invertible``: its Weyl bounds, such
    as an identity's, else a Gram-Cholesky proof), and only an endpoint
    neither proves is solved for its singular values and refused if
    singular (``_require_admissible``, the same text and sigma_min).  Both
    must satisfy the declaration within ``tol.sym`` of the block's scale
    (``ConfigError``; at t0 this asks p c(t0) q^T = 0); shapes that do
    not fit raise ``DimensionError``.  A declares the arc ||K||_2 arc_c
    when c declares arc_c, which must grow by at least max |c(t1) - c(t0)|
    of the two matrices of c read there."""
    p, q, c = path.evaluator.motion
    p, q = as_real_matrix(p), as_real_matrix(q)
    if not (isinstance(c, OperatorPath) and c.symmetry_tag == "general"
            and tuple(c.interval) == tuple(path.interval)):
        raise ConfigError("a declared motion needs a general path c on the "
                          "block path's interval")
    t0, t1 = (float(t) for t in path.interval)
    b0 = path.block(t0)
    n, r = p.shape
    if b0.shape != (n, n) or q.shape != (n, r) or c.block_shape != (r, r):
        raise DimensionError(
            f"a declared motion needs a square n x n block, n x r arrays p "
            f"and q and an r x r path c; got the block {b0.shape}, p "
            f"{p.shape}, q {q.shape} and c {c.block_shape}")
    b1 = path.block(t1)
    _check_shape(b1, t1, t0, b0.shape)
    bound = tol.sym(max(max_abs(b0), max_abs(b1)))
    ends = [c.at(t) for t in (t0, t1)]
    for t, b, ct in zip((t0, t1), (b0, b1), ends):
        if not linalg._certified_invertible(b):
            _require_admissible(t, skew_singular_system(b, True, compute_uv=False)[0])
        residual = max_abs(b - b0 - p @ ct @ q.T)
        if residual > bound:
            raise ConfigError(
                f"the declared motion does not match the block at t={t}: "
                f"max |B(t) - B(t0) - p c(t) q^T| = {residual:.3e} exceeds "
                f"{bound:.3e}")
    k = q.T @ np.linalg.solve(b0, p)
    eye = np.eye(r)

    def block(t):
        ct = c.at(t)
        if ct.shape != (r, r):
            raise DimensionError(f"the motion path c has shape {ct.shape} at "
                                 f"t={t} but is declared {(r, r)}")
        return eye + k @ ct

    arc = getattr(c.evaluator, "arc", None)
    if arc is not None:
        _require_arc(t0, t1, *ends, np.diff(_read_arc(arc, np.array([t0, t1])))[0])
        norm = float(singular_values(k)[-1]) if k.size else 0.0
        block.arc = lambda ts: norm * np.asarray(arc(ts), dtype=float)
    return embed_chiral_path(OperatorPath(path.interval, block))


def _windowed_flow(path: OperatorPath, rng) -> FlowResult:
    """The windowed flow of one path (see ``sf2_path``): the partition
    searched level by level (``_refine`` of ``_level_windows``), the kernel
    lifts at its interior points, in order, and all window factors from one
    pass over it (``_window_factors``)."""
    data = _PathData(path)
    t0, t1 = path.interval

    ends = _endpoint_spectra(data)
    if ends[0].size:  # a 0-dimensional path keeps the infinite step bound
        data.step_bound = 0.1 * max(float(sv[-1]) for sv in ends)
        data.near_zero = 0.5 * min(float(sv[0]) for sv in ends)

    points = [t0]
    if rng is not None:  # random cuts, comfortably above the refinement floor
        extra = int(rng.integers(0, 3))
        pad = 0.05 * (t1 - t0)
        guard = 10 * tol.MIN_SEGMENT * (t1 - t0)
        for c in sorted(rng.uniform(t0 + pad, t1 - pad, size=extra)):
            if c - points[-1] > guard and t1 - c > guard:
                points.append(float(c))
    points.append(t1)
    accepted, max_depth = _refine(
        points, lambda level: _level_windows(data, level, rng),
        "valid spectral window")

    # shared kernel lifts at interior partition points
    lifts = {}
    for (_, t_mid, left), (_, _, right) in zip(accepted, accepted[1:]):
        r = _kernel_lift(data, t_mid, min(left[0], right[0]), rng)
        if r is not None:
            lifts[t_mid] = r

    windows = _window_factors(data, accepted, lifts)
    value = z2_product(w.factor for w in windows)
    return FlowResult(value, windows, max_depth, data.evaluations)


def _endpoint_spectra(data: _PathData):
    """Both endpoint spectra, from one ``_PathData.solve`` (one by one if it
    fails, so a singular t0 is refused before t1 is evaluated).  A plain
    skew matrix of odd dimension raises ``DimensionError`` before its
    structural zero is read, at every tolerance scale; a singular endpoint
    raises ``NotAdmissibleError`` (as a chiral record of odd dimension
    does: its structural zero is exact).  A constant path is also evaluated
    at its end, not solved there, and must hold its one matrix there
    (``_require_arc``)."""
    t0, t1 = data.path.interval
    with contextlib.suppress(Exception):
        data.solve(np.array([t0, t1], dtype=float))
    if not data.chiral and data.at(t0)[1].size % 2:
        raise DimensionError("skew flow requires even ambient dimension")
    for t in (t0, t1):
        _require_admissible(t, data.at(t)[1])
    if data.constant:
        m1 = _record_matrix(data.path, [t1])[0]
        _check_shape(m1, t1, *data._first)
        _require_arc(t0, t1, data.at(t0)[0], m1, 0.0)
    return [data.at(t)[1] for t in (t0, t1)]


def _require_admissible(t: float, sv: np.ndarray):
    """Refuse the endpoint t of spectrum sv (ascending) if it is singular."""
    if sv.size and sv[0] <= tol.inv(sv[-1]):
        raise NotAdmissibleError(f"path endpoint at t={t} is singular "
                                 f"(sigma_min={sv[0]:.3e})")


def _restricted(m: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Restrictions of record operators M, lifts added, to window frames
    stacked with their sides along the first axis: F^T M F antisymmetrized
    for one side (a plain record), or for a block's sides (X, Y) the square
    S = X^T M Y that carries the window's [[0, S], [-S^T, 0]]."""
    s = frames[0].swapaxes(-1, -2) @ m @ frames[-1]
    return (s - s.swapaxes(-1, -2)) / 2.0 if len(frames) == 1 else s


def _window_factors(data: _PathData, accepted, lifts) -> list:
    """The windows of an accepted partition with their Z2 factors, from one
    pass over it (``_factor_pass``).  The stacked stages of the pass meet
    failures out of partition order, so on a failure the windows are
    passed one by one, and the first that fails raises what it raises
    alone."""
    try:
        return _factor_pass(data, accepted, lifts)
    except RefinementError as exc:
        failure = exc
    for window in accepted:
        _factor_pass(data, [window], lifts)
    raise failure


def _factor_pass(data: _PathData, accepted, lifts) -> list:
    """Z2 factor of every window: the two-endpoint flow of the restrictions
    of the lifted operator to the window at its ends.

    Every window's rank is checked against the stacked spectra of the
    partition points at once.  The windows of positive rank are grouped
    by rank, and each group is one stacked pass: one polar factor of all its
    transport overlaps (the frames at hi carried onto those at lo),
    batched restrictions at both ends, and one ``linalg.checked_signs``.
    A block window's factor is sign det S_lo * sign det S_hi of its m x m
    restrictions S, as Pf [[0, S], [-S^T, 0]] = (-1)^(m(m-1)/2) det S; a
    plain skew window's is the product of the Pfaffian signs of its
    restrictions, exactly antisymmetric by construction and so signed
    without ``pfaffian_sign``'s checks.  Nothing is drawn from an rng.  A
    drifted rank or a singular restricted end raises ``RefinementError``,
    and a transport below its floor ``TransportError``.
    """
    points = [lo for lo, _, _ in accepted] + [accepted[-1][1]]
    radii, ranks = zip(*(window for _, _, window in accepted))
    svs = np.array([data.at(t)[1] for t in points])
    below = np.array((svs[:-1], svs[1:])) < np.array(radii)[:, None]
    if (np.count_nonzero(below, axis=-1) != ranks).any():
        raise RefinementError("window rank drifted between validation and use")
    factors = [1.0] * len(accepted)
    floor = max(tol.transport(), _COS_MIN / 2.0)
    for k in sorted(set(ranks) - {0}):
        group = [i for i, rank in enumerate(ranks) if rank == k]
        ends = [(points[i], points[i + 1]) for i in group]
        # (side, window, end, n, k / sides), one request for the group
        frames = data.frames([t for ts in ends for t in ts], k)
        frames = frames.reshape(len(frames), len(group), 2, *frames.shape[2:])
        at_lo, at_hi = frames[:, :, 0], frames[:, :, 1]
        frames[:, :, 1] = at_hi @ _polar_split(at_hi.swapaxes(-1, -2) @ at_lo, floor)[0]
        m = np.array([[data.at(t)[0] + lifts[t] if t in lifts else data.at(t)[0]
                       for t in ts] for ts in ends])
        signs, sigma_min = linalg.checked_signs(
            _restricted(m, frames), None if data.chiral else linalg._skew_pfaffian_sign)
        product = signs[:, 0] * signs[:, 1]  # NaN or 0 where an end fails
        failed = np.flatnonzero(np.abs(product) != 1)
        if failed.size:
            j = failed[0]
            failure = _sign_failure(signs[j], sigma_min[j], data.chiral)
            raise RefinementError(
                f"restricted endpoint singular on window [{ends[j][0]}, {ends[j][1]}]: "
                f"{failure}") from failure
        for i, f in zip(group, product.tolist()):
            factors[i] = f
    return [SpectralWindow(lo, hi, a, k, PLUS if f > 0 else MINUS)
            for (lo, hi, (a, k)), f in zip(accepted, factors)]


# ---------------------------------------------------------------------------
# parity engines


def to_skew_path(path: OperatorPath) -> OperatorPath:
    """The skew path whose Z2 flow is the parity of ``path``.

    General families are doubled to chiral skew-adjoint form, rectangular
    ones after reduction to a square block path (``_square_block_path``);
    chiral self-adjoint families are converted through the grading root;
    skew families are passed through unchanged.  The doublings are carried
    by the source's blocks (``OperatorPath.block``).
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

    With B(t) tall (a wide block is transposed), N x k, and B = U S V^T, a
    continuous d-dimensional near-cokernel frame F(t), d = N - k, is carried
    along samples refined until consecutive frames are WINDOW_EPS-close: F
    is the structural block U[:, k:], polar-transported from the left
    neighbour only where singular values of B cluster near zero.  The
    result interpolates W(t)^T B(t), W(t) the complement of F(t) transported
    as W_i = polar((1 - F_i F_i^T) W_i-1); its parity does not depend on the
    choice of F.  With C_i an orthonormal basis of that complement
    (U[:, :k] away from a cluster), W_i = C_i Q_i for the running product
    Q_i = polar(C_i^T C_i-1) Q_i-1 of k x k factors.

    The samples are ``_PathData`` records of the opaque path, solved with
    their frames (``full``; U is X, Y for a wide B, read backwards).  The
    65-point grid is one batch: one stacked solve, and one
    ``_smallest_cosines`` of the grid pairs before the first cluster point
    (t0 excluded), their frames F sliced from U.  The segments before the
    first refused pair of that prefix, or else before the point ahead of
    the first cluster, stand; the depth-first ``_refine`` starts there, each
    frame continued from its settled left neighbour, and does every
    transport.  Polar factors, products Q_i and blocks W_i^T B_i are
    batched.  A shape change raises ``DimensionError``.
    """
    wide = path.declared_index < 0
    d = abs(path.declared_index)
    t0, t1 = path.interval
    grid = np.linspace(t0, t1, 65)
    grid = grid[np.diff(grid, prepend=-np.inf) > 0]  # fewer if 65 floats do not fit
    data = _PathData(path, full=True)  # every direction of U is read
    m, sv, sides = data.stack(grid.tolist())
    # singular values of B tall, descending, and its U
    s, u = sv[:, d::2][:, ::-1], sides[wide][..., ::-1]

    # endpoint admissibility: kernel dimension exactly the block index; the
    # near-cokernel cluster is read against the endpoints' largest value
    ends = s[[0, -1]]
    extra = 2 * (ends <= tol.inv(ends.max(1, initial=0.0, keepdims=True)) * 10).sum(1)
    for t, e in zip((t0, t1), extra):
        if e:
            raise NotAdmissibleError(
                f"endpoint kernel dimension {d + e} != |index| {d} at t={t}")
    cluster_floor = tol.inv(max(ends.max(initial=0.0), 1e-300)) * 10

    def kernel_frame(s, u, prev):
        """(F, C) of the point with values s and U = u: the near-cokernel frame,
        continued from the left neighbour's frame prev where s clusters."""
        cluster = s < cluster_floor
        f, c = u[:, -d:], u[:, :-d]
        if not cluster.any():
            return f, c
        near = np.concatenate([f, c[:, cluster]], axis=1)
        p, rest = _polar_split(near.T @ prev, tol.transport())
        return near @ p, np.concatenate([c[:, ~cluster], near @ rest], axis=1)

    # the grid's frames up to the first cluster point (not t0), one
    # contiguous slice for the stacked cosines; the pairs before the first
    # refused one stand, and the depth-first search continues from there,
    # left to right, each frame from the last settled one: it transports
    # the cluster frames (or bisects where one does not transport)
    cluster = np.flatnonzero((s[1:] < cluster_floor).any(axis=1))
    end = cluster[0] + 1 if cluster.size else grid.size
    f = u[:end, :, -d:].copy()
    refused = np.flatnonzero(_smallest_cosines(f[:-1], f[1:]) < _COS_MIN)
    j = refused[0] if refused.size else len(f) - 1
    # the settled frame is read as views of its U, laid out as its record's,
    # so products with it round as they do in the depth-first search
    settled = [(u[j, :, -d:], u[j, :, :-d])]

    def continue_frame(t):
        sv_t, sides_t = data.at(t)[1:]
        # a frame that does not transport refuses its segment, which bisects
        try:
            fc = kernel_frame(sv_t[d::2][::-1], sides_t[wide][:, ::-1], settled[-1][0])
        except TransportError:
            return None
        if _smallest_cosines(settled[-1][0], fc[0]) >= _COS_MIN:
            settled.append(fc)
            return fc

    segments, _ = _refine(grid[j:], lambda level: [continue_frame(level[0][1])],
                          "continuous kernel family", True,
                          tol.MIN_SEGMENT * (grid[-1] - grid[0]))
    tail = [grid[j]] + [hi for _, hi, _ in segments]

    # complement frames W_i = C_i Q_i, transported along the samples; the
    # running products Q_i of the polar factors by a doubling scan
    c = np.concatenate([u[:j, :, :-d], [fc[1] for fc in settled]])
    q, _ = _polar_split(c[1:].transpose(0, 2, 1) @ c[:-1], tol.transport())
    q = np.concatenate([np.eye(c.shape[2])[None], q])
    span = 1
    while span < len(q):  # q[i] = P_i ... P_i-2span+1 from P_i ... P_i-span+1
        q[span:] = q[span:] @ q[:-span]
        span *= 2
    w = c @ q
    b = [r[0].T if wide else r[0] for r in data.solve(np.array(tail))]
    blocks = w.transpose(0, 2, 1) @ np.concatenate([(m.swapaxes(1, 2) if wide else m)[:j], b])
    return OperatorPath.from_samples(np.concatenate([grid[:j], tail]), blocks, "general")


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


def selfadjoint_path_to_skew(path: OperatorPath) -> OperatorPath:
    """Pointwise chiral-selfadjoint to chiral-skew conversion of a path;
    its block is the source's block (``OperatorPath.block``)."""
    if path.symmetry_tag != "chiral-selfadjoint":
        raise ConfigError("expected a chiral-selfadjoint path")
    return _doubling(path, path.frame, "chiral-skew")
