"""Fredholm pairs of chiral complex structures and their Z2-index.

A chiral complex structure is a real matrix that is simultaneously skew,
orthogonal and anticommuting with the grading, hence of the form
[[0, U], [-U^T, 0]] with U orthogonal.  The Z2-index of a certified pair is
read off the kernel of the sum; it agrees with the straight-line flow
between the two structures and feeds the index map over grading-preserving
orthogonals.

Everything is computed on the n x n blocks: the kernel of I0 + I1 is twice
that of U0 + U1; the straight line is the doubling of (1 - t) U0 + t U1,
solved on the reduced path of its rank-r motion; the phases along a path
are the blocks X Y^T of the flow engine's chiral records, and both routes
share the structural walk ``flow._flow``, with ``_pair_leaf`` as this
route's leaf engine.  Orthogonality is checked on the Grams of the two
nonzero blocks (the 2n x 2n Gram only where a block taken for zero is zero
within tolerance but not exactly); O I O^T is the structure of O+ U O-^T,
the cross-check of ``pi_index`` one values-only SVD of U0 - U1, and the
index theorem's right-hand side one of (O+ + U O- U^T) / 2.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import (
    DimensionError,
    NotFredholmPairError,
    StructureError,
    SymmetryError,
)
from .flow import (FlowResult, _endpoint_spectra, _flow, _PathData,
                   _random_orthogonal, _read_arc, _refine, _require_arc,
                   embed_chiral, embed_chiral_path, sf2_path)
from .linalg import as_real_matrix, max_abs, singular_values, skew_singular_system
from .paths import ChiralFrame, OperatorPath
from .z2 import PLUS, Z2, z2_product

__all__ = [
    "ComplexStructure",
    "FredholmPair",
    "pi_index",
    "straight_line_sf2",
    "phase_complete",
    "parity_via_pairs",
    "j_index",
    "index_pairing_rhs",
]


@dataclass(frozen=True)
class ComplexStructure:
    """A real chiral complex structure: skew, orthogonal, anticommuting
    with the grading."""

    matrix: np.ndarray
    frame: ChiralFrame

    def __post_init__(self):
        m = as_real_matrix(self.matrix)
        n = m.shape[0]
        if m.shape[0] != m.shape[1] or n != self.frame.dim:
            raise DimensionError("matrix does not match the chiral frame")
        if self.frame.n_plus != self.frame.n_minus:
            raise DimensionError("chiral complex structures need balanced blocks")
        t = tol.sym(max(max_abs(m), 1.0))
        if max_abs(m + m.T) > t:
            raise SymmetryError("complex structure must be skew")
        np_ = self.frame.n_plus
        if _orthogonality_defect(m, np_, chiral=True) > 10 * t:
            raise SymmetryError("complex structure must be orthogonal")
        if max_abs(m[:np_, :np_]) > t or max_abs(m[np_:, np_:]) > t:
            raise SymmetryError("complex structure must anticommute with the grading")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _orthogonality_defect(m: np.ndarray, n: int, chiral: bool) -> float:
    """max |m^T m - 1| for m split after row and column n.

    Where the diagonal blocks of m (``chiral``) or its off-diagonal ones
    (otherwise) are exactly zero, m^T m is block diagonal: the Grams of the
    two other blocks.  Otherwise the whole Gram is formed, and a block that
    is zero only within tolerance is left to the check that follows."""
    if chiral:
        zero, rest = (m[:n, :n], m[n:, n:]), (m[n:, :n], m[:n, n:])
    else:
        zero, rest = (m[:n, n:], m[n:, :n]), (m[:n, :n], m[n:, n:])
    if any(block.any() for block in zero):
        return max_abs(m.T @ m - np.eye(m.shape[0]))
    return max(max_abs(b.T @ b - np.eye(b.shape[1])) for b in rest)


def _block(structure: ComplexStructure) -> np.ndarray:
    """The orthogonal block U of a structure [[0, U], [-U^T, 0]]."""
    n = structure.frame.n_plus
    return structure.matrix[:n, n:]


def _half_kernel(sv: np.ndarray, kernel_tol: float) -> int | None:
    """Certified kernel dimension of a sum U0 + U1 of orthogonal blocks,
    from its singular values ``sv`` (ascending).

    The singular values below ``kernel_tol`` are the kernel proxy; the rest
    must lie above the structural gap ``PAIR_GAP_MIN``, or the pair is not
    certified (None).  The doubled sum I0 + I1 has twice this kernel.
    """
    cluster = int((sv < kernel_tol).sum())
    rest = sv[cluster:]
    return None if rest.size and float(rest.min()) <= tol.PAIR_GAP_MIN else cluster


@dataclass(frozen=True)
class FredholmPair:
    """Two chiral complex structures whose sum certifies a spectral gap.

    The singular values of first + second must split into a kernel proxy
    below the pair tolerance and a remainder above the structural gap; the
    size of the proxy, twice that of the block sum, is stored as the gap
    certificate.
    """

    first: ComplexStructure
    second: ComplexStructure
    gap_certificate: int = -1

    def __post_init__(self):
        if self.first.dim != self.second.dim or self.first.frame != self.second.frame:
            raise DimensionError("pair members must share shape and frame")
        cluster = _half_kernel(singular_values(_block(self.first) + _block(self.second)),
                               tol.pair_kernel())
        if cluster is None:
            raise NotFredholmPairError(
                "no spectral gap: singular values of the sum fall between "
                f"{tol.pair_kernel():.1e} and {tol.PAIR_GAP_MIN}")
        object.__setattr__(self, "gap_certificate", 2 * cluster)


def pi_index(pair: FredholmPair) -> Z2:
    """Z2-index of a certified pair: parity of half the kernel dimension
    of the sum.

    Cross-checked against the equivalent complex count, the kernel dimension
    of first - second +/- 2i over the complexification, for both signs.
    first - second = I0 - I1 is real skew with eigenvalues +/- i s_j, s_j
    the singular values of U0 - U1, so I0 - I1 +/- 2i has the singular
    values |2 +/- s_j|: both signs count the s_j within ``tol.pair_kernel``
    of 2, read from one values-only SVD of U0 - U1.  A count whose parity
    differs from that of half the kernel raises ``StructureError``.
    """
    k = pair.gap_certificate
    value = Z2(1) if (k // 2) % 2 == 0 else Z2(-1)

    sv = singular_values(_block(pair.first) - _block(pair.second))
    count = int((np.abs(2.0 - sv) < tol.pair_kernel()).sum())
    if count % 2 != (k // 2) % 2:
        raise StructureError(
            f"index formulas disagree (kernel/2={k // 2}, complex counts={[count] * 2})"
        )
    return value


def straight_line_sf2(pair: FredholmPair, *, rng=None) -> Z2:
    """Flow of the straight line between the two structures: the chiral
    doubling of the block line (1 - t) U0 + t U1, of arc ||U1 - U0||_2 t.

    For 0 < r < n, r the rank of U1 - U0 = W S V^T (its values above
    ``tol.sym`` of the blocks' scale), the line declares its motion
    (W_r S_r, V_r, t I_r), and the engine solves the r x r reduced path:
    2 + 9 evaluations for the rank-one pair at any n."""
    u0, u1 = _block(pair.first), _block(pair.second)
    w, s, vt = np.linalg.svd(u1 - u0)
    speed = s.max(initial=0.0)

    def line(t):
        return (1.0 - t) * u0 + t * u1

    line.arc = lambda ts: speed * np.asarray(ts)
    r = int((s > tol.sym(max(max_abs(u0), max_abs(u1)))).sum())
    if 0 < r < s.size:  # c(t) = t I_r declares its knot arc t
        line.motion = (w[:, :r] * s[:r], vt[:r].T, OperatorPath.from_samples(
            [0.0, 1.0], [np.zeros((r, r)), np.eye(r)]))
    return sf2_path(embed_chiral_path(OperatorPath((0.0, 1.0), line)),
                    rng=rng).value


def phase_complete(t_mat, frame: ChiralFrame) -> ComplexStructure:
    """Complete the phase of a chiral skew matrix to a complex structure.

    With T = [[0, B], [-B^T, 0]] and B = W S V^T, the result is built from
    the orthogonal factor W V^T = X Y^T of the chiral record of B
    (``skew_singular_system``), which agrees with the phase of T on the
    range of |T| and extends it over the kernel.
    """
    t = as_real_matrix(t_mat)
    if frame.n_plus != frame.n_minus:
        raise DimensionError("phase completion needs balanced chiral blocks")
    if t.shape[0] != t.shape[1] or t.shape[0] != frame.dim:
        raise DimensionError("matrix does not match the chiral frame")
    n = frame.n_plus
    _, (x, y) = skew_singular_system(t[:n, n:], True)
    return ComplexStructure(embed_chiral(x @ y.T), frame)


# [[0, U], [-U^T, 0]] from an orthogonal block U, kept importable under the
# name the acceptance suite uses; flow.embed_chiral builds the same matrix
embed_unitary = embed_chiral


def parity_via_pairs(path: OperatorPath, *, rng=None) -> Z2:
    """Parity of a chiral skew path through consecutive phase pairs.

    The partition is refined until every consecutive pair of phase
    completions certifies (kernel proxy cleanly separated from the rest of
    the spectrum of the sum); the parity is the product of their
    Z2-indices.  Interior kernel completions appear in two adjacent pairs
    and cancel, so randomizing them (via ``rng``) leaves the result
    unchanged.

    Unlike the rigid certificate of :class:`FredholmPair`, a phase pair that
    straddles a crossing of the path has a kernel proxy that is only
    dynamically small (it shrinks with the partition spacing but never
    reaches machine zero), so everything below the looser partition bound
    ``PAIR_PARTITION_ABS`` counts as kernel.

    The phase at t is X Y^T = W V^T, X and Y the frames of the flow
    engine's chiral record of B = W S V^T = ``path.block(t)``
    (``flow._PathData``), solved once per t.  The pairs are certified level
    by level (``flow._refine``): each level's new points by one stacked
    solve, its phase-pair sums by one stacked values-only SVD.  A part whose
    declared arc does not increase is solved at t0 alone and contributes +1
    (U + U = 2U has every singular value 2).  A block singular at an
    endpoint raises ``NotAdmissibleError``, as in ``sf2_path``.  ``rng``
    mixes the kernel columns of X (values below ``tol.gap(max(sigma_max,
    1))``) once per interior t.

    Declared structure is walked as by ``sf2_path`` (``flow._flow``): a
    direct sum part by part, a path family's calm members from its endpoint
    stacks, a low-rank motion on its reduced path.  A declared arc must grow
    between the two ends of every certified phase pair by at least the
    largest entry of the difference of their blocks, or ``ConfigError`` is
    raised.
    """
    if path.symmetry_tag != "chiral-skew":
        raise DimensionError("parity_via_pairs expects a chiral-skew path")
    if path.frame.n_plus != path.frame.n_minus:
        raise DimensionError("phase completion needs balanced chiral blocks")
    return _flow(path, rng, leaf=_pair_leaf).value


def _pair_leaf(path: OperatorPath, rng) -> FlowResult:
    """The pair route's leaf engine of ``flow._flow``: the phase-pair parity
    of a path, and no windows.  Its records hold their full frames
    (``full``) unless the path is one matrix, which returns at once."""
    data = _PathData(path, full=True)  # every phase reads all directions
    _endpoint_spectra(data)
    if data.constant:
        return FlowResult(PLUS, [], 0, data.evaluations)
    t0, t1 = (float(t) for t in path.interval)
    cluster_tol = tol.PAIR_PARTITION_ABS * tol.scale()
    phases = {}

    def phase(t):
        if t not in phases:
            sv, (x, y) = data.at(t)[1:]
            if rng is not None and t not in (t0, t1):
                j = int((sv[::2] < tol.gap(float(sv.max(initial=1.0)))).sum())
                if j:
                    x = np.concatenate(
                        [x[:, :j] @ _random_orthogonal(rng, j), x[:, j:]], axis=1)
            phases[t] = x @ y.T
        return phases[t]

    def certify(level):
        data.solve(np.array(sorted({t for segment in level for t in segment})))
        sums = np.array([phase(a) + phase(b) for a, b in level])
        svs = (np.linalg.svd(sums, compute_uv=False)[:, ::-1] if sums.size
               else np.zeros(sums.shape[:2]))
        halves = [_half_kernel(sv, cluster_tol) for sv in svs]
        return [None if k is None else Z2(1) if k % 2 == 0 else Z2(-1) for k in halves]

    grid = np.linspace(t0, t1, 9)
    certified, depth = _refine(grid, certify, "certifiable phase pair")
    if data.arc is not None:  # the arc must bound every certified pair
        ts = np.array([t0] + [hi for _, hi, _ in certified])
        blocks = np.array([rec[0] for rec in data.solve(ts)])
        _require_arc(ts[:-1], ts[1:], blocks[:-1], blocks[1:],
                     np.diff(_read_arc(data.arc, ts)))
    return FlowResult(z2_product(value for _, _, value in certified), [], depth,
                      data.evaluations)


# an orthogonal that ``cli.run`` checked once for both sides of the index theorem
_CheckedOrthogonal = namedtuple("_CheckedOrthogonal", "matrix")


def _require_grading_orthogonal(o_mat, frame: ChiralFrame) -> np.ndarray:
    if isinstance(o_mat, _CheckedOrthogonal):
        return o_mat.matrix
    o = as_real_matrix(o_mat)
    n = o.shape[0]
    if o.shape[0] != o.shape[1] or n != frame.dim:
        raise DimensionError("orthogonal does not match the chiral frame")
    t = tol.sym(max(max_abs(o), 1.0))
    np_ = frame.n_plus
    if _orthogonality_defect(o, np_, chiral=False) > 10 * t:
        raise SymmetryError("matrix is not orthogonal")
    if max_abs(o[:np_, np_:]) > t or max_abs(o[np_:, :np_]) > t:
        raise SymmetryError("matrix does not commute with the grading")
    return o


def _conjugate(structure: ComplexStructure, o: np.ndarray) -> ComplexStructure:
    """O I O^T for a grading-preserving O = diag(O+, O-): the structure of
    the block O+ U O-^T."""
    n = structure.frame.n_plus
    return ComplexStructure(embed_chiral(o[:n, :n] @ _block(structure) @ o[n:, n:].T),
                            structure.frame)


def j_index(structure: ComplexStructure, o_mat) -> Z2:
    """Index map over grading-preserving orthogonals: the Z2-index of the
    pair (I, O I O^T)."""
    o = _require_grading_orthogonal(o_mat, structure.frame)
    return pi_index(FredholmPair(structure, _conjugate(structure, o)))


def index_pairing_rhs(structure: ComplexStructure, o_mat) -> int:
    """Right-hand side of the index theorem: the complex kernel dimension of
    P O P + 1 - P mod 2, with P the positive-imaginary spectral projection
    of the complexified structure.

    P projects onto {(a, i U^T a)}, on which P O P acts as
    (O+ + U O- U^T) / 2 in the coordinates a, and 1 - P is the identity on
    the complement of that range.  The singular values are therefore those
    of that real n x n matrix and n ones, of largest max(1, s_max); the
    kernel counts the former below ``tol.inv`` of it.  The blocks are read
    even where a zero block of I or O is zero only within tolerance, so the
    count is that of the structure and orthogonal with those blocks dropped.
    """
    o = _require_grading_orthogonal(o_mat, structure.frame)
    n, u = structure.frame.n_plus, _block(structure)
    sv = singular_values(0.5 * (o[:n, :n] + u @ o[n:, n:] @ u.T))
    count = int((sv < tol.inv(max(1.0, float(sv.max(initial=0.0))))).sum())
    return count % 2
