"""Parametrized operator families and their symmetry classes."""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import tolerances as tol
from .errors import ConfigError, DimensionError, SymmetryError
from .linalg import _real_array, _step_norms, as_real_matrix

__all__ = ["SYMMETRY_TAGS", "ChiralFrame", "OperatorPath", "PathFamily",
           "validate_symmetry"]

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


def validate_symmetry(mat: np.ndarray, tag: str,
                      frame: Optional[ChiralFrame]) -> np.ndarray:
    """Check that a matrix satisfies its declared symmetry class, and
    return it as a real matrix (``as_real_matrix``)."""
    return _validated(as_real_matrix(mat), tag, frame)


def _stacked(path: "OperatorPath", ts: list, block: bool = False) -> np.ndarray:
    """``path.at`` (``path.block`` with ``block``) of each parameter of ts
    along a leading axis, validated as one stack; a doubling's blocks are
    its declared ``source`` path's, another declared ``block`` read t by t."""
    ev = path.evaluator
    if block and getattr(ev, "block", None) is not None:
        source = getattr(ev, "source", None)
        return (_stacked(source, ts, True) if source is not None
                else np.array([ev.block(t) for t in ts]))
    if block and path.symmetry_tag == "skew":
        raise ConfigError("a plain skew path has no chiral block")
    m = np.array([ev(t) for t in ts])
    if m.ndim != 3:
        raise DimensionError(f"expected matrices, got arrays of ndim={m.ndim - 1}")
    k, p, q = m.shape  # one coercion of the stack, read as one tall matrix
    m = _validated(as_real_matrix(m.reshape(k * p, q)).reshape(k, p, q),
                   path.symmetry_tag, path.frame)
    return path._cut(m) if block else m


def _peak(m: np.ndarray) -> np.ndarray:
    """``max_abs`` of each matrix of m, along its last two axes."""
    return np.abs(m).max(axis=(-2, -1), initial=0.0)


def _validated(m: np.ndarray, tag: str, frame: Optional[ChiralFrame]) -> np.ndarray:
    """The checks of ``validate_symmetry`` on a real matrix, or on a stack
    of them along leading axes, each within ``tol.sym`` of its own scale,
    in one pass; returns m."""
    if tag == "general":
        return m
    t = tol.sym(_peak(m))
    if m.shape[-2] != m.shape[-1]:
        raise DimensionError(f"{tag} requires a square matrix, got {m.shape[-2:]}")
    if tag != "skew":
        if frame is None:
            raise ConfigError(f"symmetry tag {tag!r} requires a chiral frame")
        if frame.dim != m.shape[-1]:
            raise DimensionError("chiral frame does not match matrix dimension")
        if tag not in ("chiral-skew", "chiral-selfadjoint"):
            raise ConfigError(f"unknown symmetry tag {tag!r}")
    if tag == "chiral-selfadjoint":
        if (_peak(m - m.swapaxes(-1, -2)) > t).any():
            raise SymmetryError("matrix is not symmetric within tolerance")
    elif (_peak(m + m.swapaxes(-1, -2)) > t).any():
        raise SymmetryError("matrix is not skew-symmetric within tolerance")
    if tag != "skew":  # chiral operators are exactly off-diagonal in the grading
        p = frame.n_plus
        if (_peak(m[..., :p, :p]) > t).any() or (_peak(m[..., p:, p:]) > t).any():
            raise SymmetryError("matrix does not anticommute with the chiral grading")
    return m


def _check_interval(interval):
    lo, hi = interval
    if not (np.isfinite(interval).all() and lo < hi
            and math.isfinite(float(hi) - float(lo))):
        raise ConfigError(f"invalid parameter interval {interval}; "
                          "a finite lo < hi with a finite length hi - lo "
                          "is required")


@dataclass(frozen=True)
class OperatorPath:
    """A continuous family t -> matrix over an interval.

    The evaluator must return matrices of a fixed shape; the symmetry tag is
    validated at every evaluated parameter.  ``declared_index`` is the block
    index rows - cols of the off-diagonal block (0 for square families).
    The evaluator may declare:

    - an arc modulus ``arc(ts)``, elementwise and nondecreasing, with
      ||M(t) - M(s)||_2 <= |arc(t) - arc(s)| for M the path's matrix or its
      chiral ``block`` (``L * ts`` on an L-Lipschitz path): the flow engine
      then certifies segments by arc length, not as an opaque callable;
    - on a block path, its direct-sum ``parts``, the (part, rows, cols)
      triples of ``direct_sum``, whose distinct parts the engines solve
      once each (a ``PathFamily``'s calm members together, from one solve
      of each endpoint stack);
    - on a square block path, its low-rank ``motion = (p, q, c)``: n x r
      arrays p and q and an r x r ``general`` path c on the same interval,
      with c(t0) = 0 and a declared arc, such that B(t) = B(t0) +
      p c(t) q^T; the engines then solve the r x r reduced path
      I + q^T B(t0)^-1 p c(t), which has the parity of B, after checking
      the declaration at both endpoints.
    """

    interval: tuple
    evaluator: Callable[[float], np.ndarray] = field(repr=False)
    symmetry_tag: str = "general"
    frame: Optional[ChiralFrame] = None
    declared_index: int = 0

    def __post_init__(self):
        _check_interval(self.interval)
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
        """Evaluate the path and validate the matrix and its symmetry tag at
        t, in one ``validate_symmetry``."""
        return validate_symmetry(self.evaluator(t), self.symmetry_tag, self.frame)

    @property
    def block_shape(self) -> tuple:
        """Shape of the block B(t) (see ``block``).  An evaluator that
        declares its ``block_shape`` gives it without an evaluation: a
        declared direct sum the shape its placements fill, which
        ``direct_sum`` computed once, and a family member its family's."""
        declared = getattr(self.evaluator, "block_shape", None)
        if declared is not None:
            return declared
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
        return self._cut(self.at(t))

    def _cut(self, m: np.ndarray) -> np.ndarray:
        """``block`` of validated matrices m of this path, stacked or not."""
        if self.symmetry_tag == "general":
            return m
        p = self.frame.n_plus
        if self.symmetry_tag == "chiral-selfadjoint":
            return m[..., :p, p:]
        return (m[..., :p, p:] - m[..., p:, :p].swapaxes(-1, -2)) / 2.0

    @staticmethod
    def direct_sum(parts: Sequence["OperatorPath"], rows=None,
                   cols=None) -> "OperatorPath":
        """Block path of the direct sum of the ``general`` paths ``parts``.

        Part i fills the rows ``rows[i]`` and the columns ``cols[i]`` of the
        block, zeros elsewhere (by default the next rows and columns, a
        block diagonal); together the placements must take every row and
        every column once.  The parts share one interval; a part may be
        listed several times, and a listing may name a member ``family[i]``
        of a ``PathFamily``.  The evaluator declares ``parts``, the
        (part, rows, cols) triples, and the ``block_shape``, which chiral
        doublings forward; assembling the block evaluates each distinct
        part and family once and fills all its listings by one assignment.
        """
        parts = list(parts)
        if not parts:
            raise ConfigError("a direct sum needs at least one part")
        interval = parts[0].interval
        # each distinct part or family (a source) with the positions and
        # members of its listings, which all share the source's shape
        listed, sizes = {}, []
        for j, part in enumerate(parts):
            member = isinstance(part, FamilyMember)
            source = part.family if member else part
            if id(source) not in listed:
                if part.symmetry_tag != "general" or part.interval != interval:
                    raise ConfigError("direct-sum parts must be general paths "
                                      "or family members on one interval")
                listed[id(source)] = (source, part.block_shape, [], [])
            listed[id(source)][2].append(j)
            listed[id(source)][3].append(part.index if member else 0)
            sizes.append(listed[id(source)][1])
        # a source's c listings take one (c, size) array of rows and one of
        # columns, validated together
        sizes = np.array(sizes, dtype=np.intp).reshape(-1, 2)
        placed = []
        for i, axis in enumerate((rows, cols)):
            ends = np.cumsum(sizes[:, i])
            try:
                if axis is not None and len(axis := list(axis)) != len(parts):
                    raise ValueError  # one entry per listing
                arrays = [(ends[js] - shape[i])[:, None] + np.arange(shape[i])
                          if axis is None else np.array(
                              [axis[j] for j in js],
                              dtype=np.intp).reshape(len(js), shape[i])
                          for _, shape, js, _ in listed.values()]
                if not np.array_equal(np.sort(np.concatenate(
                        [a.ravel() for a in arrays])), np.arange(ends[-1])):
                    raise ValueError
            except (ValueError, TypeError) as exc:
                raise ConfigError("direct-sum placements must match the part "
                                  "shapes and take every row and column "
                                  "once") from exc
            placed.append(arrays)
        # the triples list each listing's rows and columns as rows of those
        # arrays; one assignment of a source's stacked rows (c, p, 1) and
        # columns (c, 1, q) fills all its places
        order = np.argsort(np.concatenate([js for _, _, js, _ in listed.values()]))
        flat = [[row for a in arrays for row in a] for arrays in placed]
        triples = tuple(zip(parts, *([axis[k] for k in order] for axis in flat)))
        total = tuple(int(n) for n in sizes.sum(axis=0))
        scatter = [(source, shape, js[0], r[:, :, None], c[:, None, :],
                    np.array(members))
                   for (source, shape, js, members), r, c
                   in zip(listed.values(), *placed)]

        def evaluator(t):
            out = np.zeros(total)
            for source, shape, i, r, c, members in scatter:
                if isinstance(source, PathFamily):
                    out[r, c] = source.stack(t)[members]
                    continue
                b = source.block(t)
                if b.shape != shape:
                    raise DimensionError(
                        f"direct-sum part {i} has shape {b.shape} at t={t} "
                        f"but is placed as {shape}; the "
                        "evaluator must keep one shape")
                out[r, c] = b
            return out

        evaluator.parts, evaluator.block_shape = triples, total
        return OperatorPath(interval, evaluator, "general", None,
                            total[0] - total[1])

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

        def evaluator(t, _ts=ts.tolist(), _m=stacked):
            if t <= _ts[0]:
                return _m[0]
            if t >= _ts[-1]:
                return _m[-1]
            j = bisect.bisect_right(_ts, t) - 1
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


class PathFamily:
    """m ``general`` paths of one p x q shape, declared by one evaluator.

    ``evaluator(t)`` returns the (m, p, q) stack of the members' matrices
    at t, and ``arc(ts)``, if given, a (len(ts), m) array whose column i is
    the arc modulus of member i (see ``OperatorPath``); without an arc
    every member is opaque.  ``family[i]`` is member i, which
    ``OperatorPath.direct_sum`` lists in place of a part.  The engines'
    structural walk certifies the calm members from one solve of each
    endpoint stack (see ``sf2_path``) and walks the others as parts.
    """

    def __init__(self, interval, evaluator, arc=None):
        _check_interval(interval)
        self.interval = interval
        self.evaluator = evaluator
        self.arc = arc
        first = _real_array(evaluator(interval[0]))
        if first.ndim != 3:
            raise DimensionError("a path family evaluates to an (m, p, q) "
                                 f"stack, got an array of ndim={first.ndim}")
        self.shape = first.shape
        self._members = {}

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, i) -> "FamilyMember":
        """Member i, one object per index."""
        if not (isinstance(i, (int, np.integer)) and 0 <= i < len(self)):
            raise ConfigError(f"a family of {len(self)} paths has no member {i!r}")
        i = int(i)
        if i not in self._members:
            self._members[i] = FamilyMember(self, i)
        return self._members[i]

    def stack(self, t) -> np.ndarray:
        """The members' matrices at t, checked real, finite and of the
        family's shape."""
        s = _real_array(self.evaluator(t))
        if s.shape != self.shape:
            raise DimensionError(
                f"path family has shape {s.shape} at t={t} but {self.shape} "
                f"at t={self.interval[0]}; the evaluator must keep one shape")
        return s


class FamilyMember:
    """Member ``index`` of a ``PathFamily``, listed by
    ``OperatorPath.direct_sum`` in place of a part."""

    symmetry_tag = "general"

    def __init__(self, family: PathFamily, index: int):
        self.family = family
        self.index = index

    @property
    def interval(self):
        return self.family.interval

    @property
    def block_shape(self) -> tuple:
        return self.family.shape[1:]

    @functools.cached_property
    def path(self) -> OperatorPath:
        """The member as a path of its own: its matrix and arc are read
        from the family's."""
        family, i = self.family, self.index

        def evaluator(t):
            return family.stack(t)[i]

        def arc(ts):
            values = np.asarray(family.arc(ts), dtype=float)
            # an arc of another shape is handed on whole, to be refused
            if values.shape == (np.size(ts), len(family)):
                return values[:, i]
            return values

        if family.arc is not None:
            evaluator.arc = arc
        evaluator.block_shape = self.block_shape  # building the path evaluates nothing
        return OperatorPath(family.interval, evaluator)
