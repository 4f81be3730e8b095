"""Parametrized operator families and their symmetry classes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import tolerances as tol
from .errors import ConfigError, DimensionError, SymmetryError
from .linalg import _real_array, _step_norms, as_real_matrix, max_abs

__all__ = ["SYMMETRY_TAGS", "ChiralFrame", "OperatorPath", "validate_symmetry"]

SYMMETRY_TAGS = ("general", "skew", "chiral-skew", "chiral-selfadjoint")


@dataclass(frozen=True)
class ChiralFrame:
    """Block sizes of the chiral grading in its spectral representation."""

    n_plus: int
    n_minus: int

    def __post_init__(self):
        if self.n_plus < 0 or self.n_minus < 0:
            raise ConfigError("chiral block sizes must be non-negative")

    @property
    def dim(self) -> int:
        return self.n_plus + self.n_minus

    def grading(self) -> np.ndarray:
        """The grading matrix diag(+1, ..., +1, -1, ..., -1)."""
        return np.diag(np.concatenate(
            [np.ones(self.n_plus), -np.ones(self.n_minus)]))


def validate_symmetry(mat: np.ndarray, tag: str, frame: Optional[ChiralFrame]) -> None:
    """Check that a matrix satisfies its declared symmetry class."""
    m = as_real_matrix(mat)
    if tag == "general":
        return
    t = tol.sym(max_abs(m))
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{tag} requires a square matrix, got {m.shape}")
    if tag == "skew":
        if max_abs(m + m.T) > t:
            raise SymmetryError("matrix is not skew-symmetric within tolerance")
        return
    if frame is None:
        raise ConfigError(f"symmetry tag {tag!r} requires a chiral frame")
    if frame.dim != m.shape[0]:
        raise DimensionError("chiral frame does not match matrix dimension")
    np_, nm = frame.n_plus, frame.n_minus
    if tag == "chiral-skew":
        if max_abs(m + m.T) > t:
            raise SymmetryError("matrix is not skew-symmetric within tolerance")
    elif tag == "chiral-selfadjoint":
        if max_abs(m - m.T) > t:
            raise SymmetryError("matrix is not symmetric within tolerance")
    else:
        raise ConfigError(f"unknown symmetry tag {tag!r}")
    # chiral operators are exactly off-diagonal in the grading
    if max_abs(m[:np_, :np_]) > t or max_abs(m[np_:, np_:]) > t:
        raise SymmetryError("matrix does not anticommute with the chiral grading")


@dataclass(frozen=True)
class OperatorPath:
    """A continuous family t -> matrix over an interval.

    The evaluator must return matrices of a fixed shape; the symmetry tag is
    validated at every evaluated parameter.  ``declared_index`` is the block
    index rows - cols of the off-diagonal block (0 for square families).
    An evaluator may declare an arc modulus ``arc(ts)``, elementwise and
    nondecreasing, with ||M(t) - M(s)||_2 <= |arc(t) - arc(s)| for M the
    path's matrix or its chiral ``block`` (``L * ts`` on an L-Lipschitz
    path): the flow engine then certifies segments by arc length instead of
    sampling the evaluator as an opaque callable.  Next to ``arc``, the
    evaluator of a block path may declare its direct-sum ``parts``, the
    (part, rows, cols) triples of ``direct_sum``: the flow engine and the
    pair route then solve each distinct part once instead of the assembled
    block.  The evaluator of a square block path may also declare its
    low-rank ``motion = (p, q, c)``: n x r arrays p and q and an r x r
    ``general`` path c on the same interval, with c(t0) = 0 and a declared
    arc, such that B(t) = B(t0) + p c(t) q^T.  The flow engine and the pair
    route then solve the r x r reduced path I + q^T B(t0)^-1 p c(t), which
    has the parity of B, after checking the declaration at both endpoints.
    """

    interval: tuple
    evaluator: Callable[[float], np.ndarray] = field(repr=False)
    symmetry_tag: str = "general"
    frame: Optional[ChiralFrame] = None
    declared_index: int = 0

    def __post_init__(self):
        lo, hi = self.interval
        if not (np.isfinite(self.interval).all() and lo < hi
                and math.isfinite(float(hi) - float(lo))):
            raise ConfigError(f"invalid parameter interval {self.interval}; "
                              "a finite lo < hi with a finite length hi - lo "
                              "is required")
        if self.symmetry_tag not in SYMMETRY_TAGS:
            raise ConfigError(f"unknown symmetry tag {self.symmetry_tag!r}")
        if self.symmetry_tag.startswith("chiral") and self.frame is None:
            raise ConfigError("chiral symmetry tags require a chiral frame")
        if self.symmetry_tag == "general":
            rows, cols = self.block_shape
            expected = rows - cols
        elif self.frame is not None:
            expected = self.frame.n_plus - self.frame.n_minus
        else:
            expected = 0
        if self.declared_index != expected:
            raise ConfigError(
                f"declared index {self.declared_index} inconsistent with "
                f"block shape (expected {expected})"
            )

    @property
    def t_start(self) -> float:
        return self.interval[0]

    @property
    def t_end(self) -> float:
        return self.interval[1]

    def at(self, t: float) -> np.ndarray:
        """Evaluate the path and validate the symmetry tag at t."""
        m = as_real_matrix(self.evaluator(t))
        validate_symmetry(m, self.symmetry_tag, self.frame)
        return m

    @property
    def block_shape(self) -> tuple:
        """Shape of the block B(t) (see ``block``); a declared direct sum
        gives it from its parts' placements, without assembling B."""
        parts = getattr(self.evaluator, "parts", None)
        if parts is not None:
            return (sum(len(r) for _, r, _ in parts),
                    sum(len(c) for _, _, c in parts))
        if self.symmetry_tag == "general":  # a general path is its own block
            return as_real_matrix(self.evaluator(self.t_start)).shape
        return self.block(self.t_start).shape

    def block(self, t: float) -> np.ndarray:
        """The block B(t) that carries a chiral path T = [[0, B], [-B^T, 0]].

        A general path is its own block; a chiral path gives the upper block
        of its validated matrix, antisymmetrized if chiral-skew.  An
        evaluator with a ``block`` attribute (the doublings built in
        ``flow``) answers from it, without building T.
        """
        source = getattr(self.evaluator, "block", None)
        if source is not None:
            return source(t)
        if self.symmetry_tag == "skew":
            raise ConfigError("a plain skew path has no chiral block")
        m = self.at(t)
        if self.symmetry_tag == "general":
            return m
        p = self.frame.n_plus
        if self.symmetry_tag == "chiral-selfadjoint":
            return m[:p, p:]
        return (m[:p, p:] - m[p:, :p].T) / 2.0

    @staticmethod
    def direct_sum(parts: Sequence["OperatorPath"], rows=None,
                   cols=None) -> "OperatorPath":
        """Block path of the direct sum of the ``general`` paths ``parts``.

        Part i fills the rows ``rows[i]`` and the columns ``cols[i]`` of the
        block, zeros elsewhere (by default the next rows and columns, a
        block diagonal); together the placements must take every row and
        every column once.  The parts share one interval, and one part may
        be listed several times.  The evaluator declares ``parts``, the
        (part, rows, cols) triples, which chiral doublings forward, so the
        flow engine solves each distinct part once; assembling the block
        evaluates each distinct part once too, and fills all its listings
        with one assignment.
        """
        parts = list(parts)
        if not parts:
            raise ConfigError("a direct sum needs at least one part")
        interval = parts[0].interval
        shapes = {}
        for part in parts:
            if part.symmetry_tag != "general" or part.interval != interval:
                raise ConfigError("direct-sum parts must be general paths on "
                                  "one interval")
            if id(part) not in shapes:
                shapes[id(part)] = part.block_shape
        placed = []
        for i, axis in enumerate((rows, cols)):
            sizes = [shapes[id(part)][i] for part in parts]
            if axis is None:
                ends = np.cumsum([0] + sizes)
                axis = [np.arange(a, b) for a, b in zip(ends[:-1], ends[1:])]
            axis = [np.asarray(a, dtype=np.intp).ravel() for a in axis]
            if ([a.size for a in axis] != sizes or not np.array_equal(
                    np.sort(np.concatenate(axis)), np.arange(sum(sizes)))):
                raise ConfigError("direct-sum placements must match the part "
                                  "shapes and take every row and column once")
            placed.append(axis)
        triples = tuple(zip(parts, *placed))
        shape = (sum(r.size for r in placed[0]), sum(c.size for c in placed[1]))
        # each distinct part, with its first position and the rows (c, p, 1)
        # and columns (c, 1, q) of its c listings stacked, so one assignment
        # fills all its places
        listed = {}
        for i, (part, r, c) in enumerate(triples):
            _, _, part_rows, part_cols = listed.setdefault(
                id(part), (part, i, [], []))
            part_rows.append(r[:, None])
            part_cols.append(c[None, :])
        scatter = [(part, i, np.stack(r), np.stack(c))
                   for part, i, r, c in listed.values()]

        def evaluator(t):
            out = np.zeros(shape)
            for part, i, r, c in scatter:
                b = part.block(t)
                if b.shape != shapes[id(part)]:
                    raise DimensionError(
                        f"direct-sum part {i} has shape {b.shape} at t={t} "
                        f"but is placed as {shapes[id(part)]}; the evaluator "
                        "must keep one shape")
                out[r, c] = b
            return out

        evaluator.parts = triples
        return OperatorPath(interval, evaluator, "general", None,
                            shape[0] - shape[1])

    @staticmethod
    def from_samples(ts: Sequence[float], mats: Sequence[np.ndarray],
                     symmetry_tag: str = "general",
                     frame: Optional[ChiralFrame] = None) -> "OperatorPath":
        """Piecewise-linear path through the given samples.

        Its evaluator declares the knot arc, the cumulative 2-norm of the
        sample differences interpolated linearly (between samples the path
        moves along a line at constant speed), computed on first use over
        (t - t0) / (t1 - t0), which stays finite on a subnormal interval.
        A knot arc too long for a float is infinite, and the flow engine
        then treats the path as opaque.
        """
        ts = np.asarray([float(t) for t in ts])
        if (ts.size < 2 or not np.isfinite(ts).all()
                or not np.all(ts[1:] > ts[:-1])):
            raise ConfigError("samples require finite, strictly increasing parameters")
        if not math.isfinite(float(ts[-1]) - float(ts[0])):
            raise ConfigError(
                f"sample parameters span [{ts[0]}, {ts[-1]}], whose length "
                "overflows; rescale the parameter")
        try:  # a copy, so the caller may reuse its arrays
            stacked = np.array(mats)
            if stacked.dtype.kind == "O":  # stack an object array's elements
                stacked = np.array(stacked.tolist())
        except ValueError as exc:  # ragged samples do not stack
            raise ConfigError("all samples must share one matrix shape") from exc
        stacked = _real_array(stacked)
        if stacked.ndim == 0 or len(stacked) != ts.size:
            raise ConfigError("sample count mismatch")
        if stacked.ndim != 3:
            raise DimensionError(
                f"expected a matrix, got array of ndim={stacked.ndim - 1}")
        shape = stacked.shape[1:]

        def evaluator(t, _ts=ts, _m=stacked):
            if t <= _ts[0]:
                return _m[0]
            if t >= _ts[-1]:
                return _m[-1]
            j = int(np.searchsorted(_ts, t, side="right")) - 1
            h = (_ts[j + 1] - _ts[j])
            w = (t - _ts[j]) / h
            return (1.0 - w) * _m[j] + w * _m[j + 1]

        lengths = []

        def arc(s, _unit=(ts - ts[0]) / (ts[-1] - ts[0])):
            if not lengths:
                with np.errstate(over="ignore"):
                    steps = np.cumsum(_step_norms(stacked))
                lengths.append(np.concatenate([[0.0], steps]))
            return np.interp((np.asarray(s) - ts[0]) / (ts[-1] - ts[0]),
                             _unit, lengths[0])

        evaluator.arc = arc
        if symmetry_tag == "general":
            index = shape[0] - shape[1]
        elif frame is not None:
            index = frame.n_plus - frame.n_minus
        else:
            index = 0
        return OperatorPath((float(ts[0]), float(ts[-1])), evaluator,
                            symmetry_tag, frame, index)
