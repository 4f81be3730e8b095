"""Unit tests for the dense linear-algebra kernels."""

import re
import warnings

import numpy as np
import pytest

from z2flow import tolerances as tol
from z2flow.errors import (
    DimensionError,
    RefinementError,
    SingularError,
    SymmetryError,
    TransportError,
)
from z2flow.flow import _polar_split, sf2_finite
from z2flow.linalg import (
    _PAIR_SIN,
    _certified_invertible,
    _gram_certificate,
    _pinned_values,
    _reduce_skew,
    _smallest_pair,
    _weyl_bounds,
    checked_signs,
    pfaffian_sign,
    sign_det,
    singular_values,
    skew_singular_system,
)

from conftest import pf_matchings, with_singular_values
from oracles import pfaffian


def skew(rng, dim):
    m = rng.standard_normal((dim, dim))
    return m - m.T


def chiral(b):
    """[[0, B], [-B^T, 0]] for a block B."""
    n_plus, n_minus = b.shape
    t = np.zeros((n_plus + n_minus, n_plus + n_minus))
    t[:n_plus, n_plus:] = b
    t[n_plus:, :n_plus] = -b.T
    return t


def doubled_system(b):
    """Singular values and directions of [[0, B], [-B^T, 0]] from the chiral
    route on the block B, laid out in the doubled space: the structural
    kernel first, then [x_i; 0] and [0; y_i] for each singular value."""
    sv, (x, y) = skew_singular_system(b, True)
    n_plus, n_minus = b.shape
    r = min(b.shape)
    d = abs(n_plus - n_minus)
    dirs = np.zeros((n_plus + n_minus, n_plus + n_minus))
    dirs[:n_plus, :n_plus - r] = x[:, :n_plus - r]
    dirs[n_plus:, :n_minus - r] = y[:, :n_minus - r]
    dirs[:n_plus, d::2] = x[:, n_plus - r:]
    dirs[n_plus:, d + 1::2] = y[:, n_minus - r:]
    return sv, dirs


def window_projection(t, a, n_plus=None):
    """Projection onto the directions of T below radius a and its rank, cut
    from the singular system the way the engine cuts its windows; with
    n_plus given, from the chiral route on the block T[:n_plus, n_plus:]."""
    if n_plus is None:
        sv, dirs = skew_singular_system(t)
    else:
        sv, dirs = doubled_system(t[:n_plus, n_plus:])
    basis = dirs[:, sv < a]
    return basis @ basis.T, basis.shape[1]


class TestPfaffian:
    def test_canonical_block(self):
        assert pfaffian([[0, 1], [-1, 0]]) == pytest.approx(1.0)

    def test_two_by_two_entry(self):
        t = -3.0
        assert pfaffian([[0, t], [-t, 0]]) == pytest.approx(-3.0)

    def test_doubled_perturbed_block(self):
        # 4x4 doubled-and-perturbed family at t = s = 1; value frozen from
        # the matching-sum oracle, cross-checked against Pf^2 = det = 4
        m = np.array([
            [0, 0, 1, -1],
            [0, 0, 1, 1],
            [-1, -1, 0, 0],
            [1, -1, 0, 0],
        ], dtype=float)
        assert pf_matchings(m) == pytest.approx(-2.0)
        assert pfaffian(m) == pytest.approx(-2.0)
        assert pfaffian(m) ** 2 == pytest.approx(np.linalg.det(m))

    def test_empty_matrix(self):
        assert pfaffian(np.zeros((0, 0))) == 1.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionError):
            pfaffian(np.zeros((3, 3)))

    def test_non_skew_rejected(self):
        with pytest.raises(SymmetryError):
            pfaffian(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_square_equals_det(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            dim = 2 * int(rng.integers(1, 6))
            m = skew(rng, dim)
            pf = pfaffian(m)
            det = np.linalg.det(m)
            assert pf ** 2 == pytest.approx(det, rel=1e-8, abs=1e-12)

    def test_congruence_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            dim = 2 * int(rng.integers(1, 6))
            m = skew(rng, dim)
            a = rng.standard_normal((dim, dim))
            lhs = pfaffian(a.T @ m @ a)
            rhs = np.linalg.det(a) * pfaffian(m)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)

    def test_matches_matching_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            dim = 2 * int(rng.integers(1, 5))
            m = skew(rng, dim)
            assert pfaffian(m) == pytest.approx(pf_matchings(m), rel=1e-10)

    def test_reflects_at_the_even_steps_only(self):
        # once column k is cleared below row k + 1, Pf(A) = a[k, k+1]
        # Pf(A[k+2:, k+2:]): a generic n x n matrix takes n/2 - 1 reflections
        rng = np.random.default_rng(15)
        for n in range(2, 15, 2):
            reduced, sign = _reduce_skew(skew(rng, n))
            assert sign == (-1) ** (n // 2 - 1)
            for k in range(0, n - 2, 2):
                assert not reduced[k + 2:, k].any() and not reduced[k, k + 2:].any()

    def test_sign_variant_agrees(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            dim = 2 * int(rng.integers(1, 7))
            m = skew(rng, dim)
            assert pfaffian_sign(m) == int(np.sign(pfaffian(m)))

    @pytest.mark.parametrize("factor", [1e200, 1e-200])
    def test_sign_is_scale_free(self, factor):
        # at these scales a product of two entries, or a squared norm inside
        # the Householder reduction, leaves the float range
        rng = np.random.default_rng(20)
        for n in range(2, 13, 2):
            for _ in range(5):
                m0, m1 = skew(rng, n), skew(rng, n)
                assert pfaffian_sign(factor * m0) == pfaffian_sign(m0)
                assert sf2_finite(factor * m0, factor * m1) == sf2_finite(m0, m1)

    @pytest.mark.parametrize("scales", [[1e4] + [1.0] * 99, [1e200] + [1.0] * 99,
                                        [1e200, 1e-150]])
    def test_blocks_of_unequal_scale(self, scales):
        # block-diagonal, so the Pfaffian is the product of the blocks' entries;
        # the small factors must survive the scaling of the largest entry
        m = np.kron(np.diag(scales), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert pfaffian(m) == pytest.approx(np.prod(scales), rel=1e-14)
        assert pfaffian_sign(m) == 1


class TestUncheckedPfaffianSign:
    """The window factor pass signs its restrictions, which it builds
    exactly antisymmetric, without ``pfaffian_sign``'s checks."""

    def test_matches_the_checked_sign(self):
        from z2flow.linalg import _skew_pfaffian_sign

        rng = np.random.default_rng(71)
        for n in (2, 4, 6, 8):
            for scale in (1.0, 1e-200, 1e200):
                g = rng.standard_normal((n, n))
                a = (g - g.T) / 2.0 * scale
                assert _skew_pfaffian_sign(a) == pfaffian_sign(a)

    def test_factor_pass_reads_no_checked_sign(self, monkeypatch):
        import z2flow.flow as flow_module
        import z2flow.linalg as linalg_module
        from z2flow.flow import sf2_path
        from z2flow.paths import OperatorPath

        # a line whose first 2 x 2 block passes through zero: a crossing,
        # so a window of rank 2 on a plain skew path
        q = np.linalg.qr(np.random.default_rng(72).standard_normal((4, 4)))[0]
        ends = [q @ np.array([[0.0, s, 0.0, 0.0], [-s, 0.0, 0.0, 0.0],
                              [0.0, 0.0, 0.0, 2.0], [0.0, 0.0, -2.0, 0.0]]) @ q.T
                for s in (1.0, -1.0)]
        ends = [(m - m.T) / 2.0 for m in ends]
        path = OperatorPath.from_samples([0.0, 1.0], ends, "skew")
        expected = sf2_finite(*ends)

        def refuse(m):
            raise AssertionError("the factor pass re-checked a restriction")

        monkeypatch.setattr(flow_module, "pfaffian_sign", refuse)
        monkeypatch.setattr(linalg_module, "pfaffian_sign", refuse)
        res = sf2_path(path)
        assert res.value == expected
        assert any(w.rank for w in res.windows)


class TestSignDet:
    def test_identity(self):
        for n in (1, 3, 7):
            assert sign_det(np.eye(n)) == 1

    def test_rank_one_reflection(self):
        for n in (1, 2, 5):
            d = np.ones(n)
            d[0] = -1.0
            assert sign_det(np.diag(d)) == -1

    def test_transposition(self):
        assert sign_det([[0.0, 1.0], [1.0, 0.0]]) == -1

    def test_singular_rejected(self):
        with pytest.raises(SingularError):
            sign_det(np.zeros((2, 2)))

    def test_tracks_numpy_det(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            m = rng.standard_normal((n, n))
            if np.linalg.svd(m, compute_uv=False)[-1] < 1e-6:
                continue
            assert sign_det(m) == int(np.sign(np.linalg.det(m)))

    def test_extreme_scale(self):
        # the determinant value itself would overflow / underflow
        n = 40
        big = np.diag(np.full(n, 1e20))
        big[0, 0] = -1e20
        assert sign_det(big) == -1
        small = np.diag(np.full(n, 1e-18))
        assert sign_det(small) == 1


class TestSpectralWindow:
    """Window subspaces of skew_singular_system on both routes."""

    def test_full_window(self):
        t = np.array([[0.0, 0.7], [-0.7, 0.0]])
        for n_plus in (None, 1):
            q, rank = window_projection(t, 1.0, n_plus)
            assert rank == 2
            np.testing.assert_allclose(q, np.eye(2), atol=1e-12)

    def test_empty_window(self):
        t = np.array([[0.0, 0.7], [-0.7, 0.0]])
        for n_plus in (None, 1):
            q, rank = window_projection(t, 0.2, n_plus)
            assert rank == 0
            np.testing.assert_allclose(q, np.zeros((2, 2)), atol=1e-12)

    def test_block_selection(self):
        t = np.zeros((4, 4))
        t[0, 1], t[1, 0] = 1.0, -1.0
        t[2, 3], t[3, 2] = 0.1, -0.1
        q, rank = window_projection(t, 0.5)
        assert rank == 2
        expected = np.diag([0.0, 0.0, 1.0, 1.0])
        np.testing.assert_allclose(q, expected, atol=1e-12)

    def test_invariants_random(self):
        # the window subspace is invariant under the operator it was cut from
        rng = np.random.default_rng(16)
        for i in range(100):
            if i % 2:
                n_plus = int(rng.integers(1, 5))
                n_minus = int(rng.integers(1, 5))
                t = chiral(rng.standard_normal((n_plus, n_minus)))
            else:
                n_plus = None
                t = skew(rng, 2 * int(rng.integers(1, 5)))
            sv = np.linalg.svd(t, compute_uv=False)
            a = (sv.min() + sv.max()) / 2.0 if sv.min() < sv.max() else sv.max() * 2
            if np.min(np.abs(sv - a)) < 1e-6:
                continue
            q, _ = window_projection(t, a, n_plus)
            assert np.max(np.abs(q @ q - q)) < 1e-10
            assert np.max(np.abs(q - q.T)) < 1e-12
            assert np.max(np.abs(q @ t - t @ q)) < 1e-9 * max(sv.max(), 1)

    def test_chiral_projection_commutes_with_grading(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            t = chiral(rng.standard_normal((n, n)))
            sv = np.linalg.svd(t, compute_uv=False)
            a = float(sv.max()) * 2.0 if n == 1 else float(np.median(sv)) * 1.01
            if np.min(np.abs(sv - a)) < 1e-8:
                continue
            j = np.diag([1.0] * n + [-1.0] * n)
            for n_plus in (None, n):
                q, _ = window_projection(t, a, n_plus)
                assert np.max(np.abs(j @ q @ j - q)) < 1e-9


class TestPlainSingularSystem:
    def test_small_pair_resolved(self):
        # a squared solve would return this pair as 0; one SVD resolves it
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        d = np.zeros((6, 6))
        for i, s in enumerate((1e-12, 0.5, 2.0)):
            d[2 * i:2 * i + 2, 2 * i:2 * i + 2] = s * j
        q, _ = np.linalg.qr(np.random.default_rng(18).standard_normal((6, 6)))
        t = q @ d @ q.T
        sv, dirs = skew_singular_system(t)
        np.testing.assert_allclose(sv[:2], 1e-12, rtol=1e-3)
        np.testing.assert_allclose(sv[2:], [0.5, 0.5, 2.0, 2.0], rtol=1e-12)
        np.testing.assert_allclose(dirs.T @ dirs, np.eye(6), atol=1e-13)
        np.testing.assert_allclose(np.linalg.norm(t @ dirs, axis=0), sv,
                                   atol=1e-14)


class TestChiralSingularSystem:
    """The block solve of [[0, B], [-B^T, 0]], which takes B alone, against
    the plain route (one SVD of the doubled matrix)."""

    SHAPES = [(5, 5), (6, 3), (2, 5), (0, 4), (3, 0), (1, 1)]

    doubled = staticmethod(chiral)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_singular_values_match_doubled_eigh(self, shape):
        rng = np.random.default_rng(sum(shape) + 40)
        b = rng.standard_normal(shape)
        t = self.doubled(b)
        sv, _ = doubled_system(b)
        sv_eigh, _ = skew_singular_system(t)
        assert sv.shape == sv_eigh.shape == (t.shape[0],)
        assert np.all(np.diff(sv) >= 0.0)
        scale = max(float(sv[-1]), 1.0) if sv.size else 1.0
        d = abs(shape[0] - shape[1])
        # the structural kernel is exact; the plain SVD leaves rounding
        assert np.all(sv[:d] == 0.0)
        np.testing.assert_allclose(sv_eigh[:d], 0.0, atol=1e-7 * scale)
        np.testing.assert_allclose(sv[d:], sv_eigh[d:], rtol=1e-12, atol=1e-12 * scale)
        if t.size:
            true_sv = np.linalg.svd(t, compute_uv=False)[::-1]
            np.testing.assert_allclose(sv, true_sv, atol=1e-13 * scale)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_directions(self, shape):
        rng = np.random.default_rng(sum(shape) + 50)
        b = rng.standard_normal(shape)
        t = self.doubled(b)
        sv, dirs = doubled_system(b)
        n = t.shape[0]
        np.testing.assert_allclose(dirs.T @ dirs, np.eye(n), atol=1e-13)
        # every direction is grading-pure and is scaled by its singular value
        pure = np.minimum(np.linalg.norm(dirs[:shape[0]], axis=0),
                          np.linalg.norm(dirs[shape[0]:], axis=0))
        assert np.all(pure == 0.0)
        np.testing.assert_allclose(np.linalg.norm(t @ dirs, axis=0), sv,
                                   atol=1e-13 * max(n, 1))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_window_subspaces_match_doubled_eigh(self, shape):
        rng = np.random.default_rng(sum(shape) + 60)
        b = rng.standard_normal(shape)
        t = self.doubled(b)
        sv, dirs = doubled_system(b)
        _, dirs_eigh = skew_singular_system(t)
        gaps = [k for k in range(1, t.shape[0]) if sv[k] - sv[k - 1] > 1e-3]
        if t.shape[0]:
            gaps.append(t.shape[0])
        for k in gaps:
            cosines = np.linalg.svd(dirs[:, :k].T @ dirs_eigh[:, :k], compute_uv=False)
            assert cosines.min() >= 1.0 - 1e-12

    def test_extreme_scale(self):
        # squaring would overflow at 1e200 and underflow at 1e-200; neither
        # route squares
        b = np.array([[2.0, 0.0], [0.0, 0.5]])
        for factor in (1e200, 1e-200):
            for sv, _ in (doubled_system(factor * b),
                          skew_singular_system(self.doubled(factor * b))):
                np.testing.assert_allclose(sv, factor * np.array([0.5, 0.5, 2.0, 2.0]))


class TestStackedSolve:
    """A stack solved by one ``skew_singular_system`` call gives, row by row,
    bitwise the system of each matrix solved alone: the flow engine keeps
    the rows of its stacked segment solves as its records."""

    @staticmethod
    def assert_rows_bitwise(stack, chiral, compute_uv):
        sv, frames = skew_singular_system(stack, chiral, compute_uv)
        for i, mat in enumerate(stack):
            sv_i, frames_i = skew_singular_system(mat, chiral, compute_uv)
            assert np.array_equal(sv[i], sv_i)
            if not compute_uv:
                assert frames is None and frames_i is None
            elif chiral:
                assert all(np.array_equal(f[i], f_i)
                           for f, f_i in zip(frames, frames_i))
            else:
                assert np.array_equal(frames[i], frames_i)

    @pytest.mark.parametrize("compute_uv", [True, False])
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_plain_skew(self, n, compute_uv):
        rng = np.random.default_rng(70 + n)
        stack = np.stack([skew(rng, n) for _ in range(9)])
        self.assert_rows_bitwise(stack, False, compute_uv)

    @pytest.mark.parametrize("compute_uv", [True, False])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (8, 8), (32, 32),
                                       (6, 3), (8, 5), (32, 20),
                                       (2, 7), (3, 8), (20, 32)])
    def test_chiral_blocks(self, shape, compute_uv):
        # square, tall and wide blocks
        rng = np.random.default_rng(sum(shape) + 80)
        self.assert_rows_bitwise(rng.standard_normal((7,) + shape), True,
                                 compute_uv)


class TestWideBlocks:
    """A wide block B is solved as B^T with its two sides swapped, bitwise:
    the longer side's vectors always come from the U of a tall SVD."""

    @pytest.mark.parametrize("compute_uv", [True, False])
    @pytest.mark.parametrize("shape", [(1, 2), (2, 7), (3, 8), (20, 32)])
    def test_transpose_with_sides_swapped(self, shape, compute_uv):
        rng = np.random.default_rng(sum(shape) + 110)
        stack = rng.standard_normal((6,) + shape)
        for b in (stack, stack[2]):  # stacked and single
            sv, frames = skew_singular_system(b, True, compute_uv)
            sv_t, frames_t = skew_singular_system(
                np.ascontiguousarray(b.swapaxes(-1, -2)), True, compute_uv)
            assert np.array_equal(sv, sv_t)
            if compute_uv:
                assert all(np.array_equal(f, g) for f, g in zip(frames, frames_t[::-1]))
                assert [f.shape[-2] for f in frames] == list(shape)
            else:
                assert frames is None and frames_t is None


class TestStackedSigns:
    """The window factor pass reads the signs of every restricted end of a
    group of windows from one stacked values-only SVD and one stacked
    ``slogdet`` (``checked_signs``): each row is bitwise the call on its
    matrix alone, at every k x k size the pass stacks."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_rows_bitwise(self, k):
        rng = np.random.default_rng(90 + k)
        stack = rng.standard_normal((5, 2, k, k))
        sv = np.linalg.svd(stack, compute_uv=False)
        signs, logs = np.linalg.slogdet(stack)
        for i in np.ndindex(stack.shape[:2]):
            assert np.array_equal(sv[i], np.linalg.svd(stack[i], compute_uv=False))
            assert np.array_equal((signs[i], logs[i]), np.linalg.slogdet(stack[i]))

    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_checked_signs(self, k):
        rng = np.random.default_rng(100 + k)
        stack = np.array([skew(rng, k) for _ in range(6)]).reshape(3, 2, k, k)
        stack[1, 1, :, 0] = stack[1, 1, 0, :] = 0.0  # singular
        det, low = checked_signs(stack)
        pf, low_pf = checked_signs(stack, pfaffian_sign)
        assert np.array_equal(low, np.linalg.svd(stack, compute_uv=False)[..., -1])
        assert np.array_equal(low, low_pf)
        assert np.isnan(det[1, 1]) and np.isnan(pf[1, 1])
        for i in [(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)]:
            assert det[i] == sign_det(stack[i]) == 1  # even skew: det = Pf^2
            assert pf[i] == pfaffian_sign(stack[i])
        with pytest.raises(SingularError, match=re.escape(f"sigma_min={low[1, 1]:.3e}")):
            sign_det(stack[1, 1])


class TestTransport:
    """The polar factor that carries a frame onto a nearby subspace."""

    @staticmethod
    def transport(frame, target):
        return _polar_split(target @ frame, tol.transport())[0]

    def test_identity_transport(self):
        f = np.eye(3)[:, :2]
        np.testing.assert_allclose(self.transport(f, f @ f.T), f, atol=1e-12)

    def test_single_vector(self):
        theta = 0.1
        v = np.array([np.cos(theta), np.sin(theta)])
        out = self.transport(np.eye(2)[:, :1], np.outer(v, v))
        np.testing.assert_allclose(out[:, 0], v, atol=1e-12)

    def test_rotation_about_axis(self):
        theta = 0.2
        rot = np.array([
            [1.0, 0.0, 0.0],
            [0.0, np.cos(theta), -np.sin(theta)],
            [0.0, np.sin(theta), np.cos(theta)],
        ])
        f = np.eye(3)[:, :2]
        out = self.transport(f, rot @ f @ f.T @ rot.T)
        np.testing.assert_allclose(out, rot @ f, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            dim = int(rng.integers(2, 7))
            r = int(rng.integers(1, dim))
            basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0][:, :r]
            other = np.linalg.qr(
                basis + 0.2 * rng.standard_normal((dim, r)))[0]
            there = self.transport(basis, other @ other.T)
            np.testing.assert_allclose(there @ there.T, other @ other.T, atol=1e-12)
            back = self.transport(there, basis @ basis.T)
            np.testing.assert_allclose(back, basis, atol=1e-9)

    def test_rank_mismatch_rejected(self):
        # a target of lower rank than the frame collapses a frame direction
        with pytest.raises(TransportError):
            self.transport(np.eye(3)[:, :2], np.diag([1.0, 0.0, 0.0]))

    def test_stack_equals_per_matrix_calls(self):
        rng = np.random.default_rng(22)
        stack = rng.standard_normal((6, 4, 2))
        out, _ = _polar_split(stack, tol.transport())
        for x, o in zip(stack, out):
            np.testing.assert_array_equal(o, _polar_split(x, tol.transport())[0])

    def test_stack_with_one_matrix_below_the_floor_rejected(self):
        stack = np.stack([np.eye(3)[:, :2]] * 4)
        stack[2, :, 1] *= 1e-3
        with pytest.raises(TransportError, match="sigma_min=1.000e-03"):
            _polar_split(stack, 0.1)

    def test_orthogonal_target_rejected(self):
        with pytest.raises(TransportError):
            self.transport(np.eye(2)[:, :1], np.diag([0.0, 1.0]))
        # an ill-conditioned transport is a refinement failure
        assert issubclass(TransportError, RefinementError)


def admissible(a):
    """The SVD's verdict on a square block, as ``flow._require_admissible``."""
    sv = skew_singular_system(a, True, compute_uv=False)[0]
    return bool(sv[0] > tol.inv(sv[-1]))


class TestCertificates:
    """Weyl bounds and the Gram-Cholesky proof of sigma_min above the floor
    prove admissibility or say nothing; the SVD decides the rest."""

    def test_weyl_bounds_enclose_every_singular_value(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(1, 12))
            a = np.diag(rng.uniform(-3.0, 3.0, n))
            a += rng.uniform(0.0, 0.3) * rng.standard_normal((n, n))
            lo, hi = _weyl_bounds(a)
            sv = singular_values(a)
            assert lo <= sv[0] and sv[-1] <= hi
        assert _weyl_bounds(np.ones((2, 3))) is None
        assert _weyl_bounds(np.zeros((0, 0))) is None

    def test_pinned_values_are_the_svds_bitwise(self):
        link = np.array([[np.cos(np.pi * 0.5)]])
        for a in (np.eye(7), -2.5 * np.eye(3), np.diag([3.0, -3.0, 3.0]),
                  np.zeros((4, 4)), link, np.eye(399)):
            pinned = _pinned_values(a)
            assert pinned.tobytes() == singular_values(a).tobytes()
        coupled = np.eye(4)
        coupled[0, 1] = 1e-300
        for a in (coupled, np.diag([1.0, 2.0]), np.ones((2, 3)),
                  1e-200 * np.eye(3), 1e200 * np.eye(3)):
            assert _pinned_values(a) is None

    @pytest.mark.parametrize("factor", [1.01, 0.99])
    def test_near_the_floor_falls_back(self, factor):
        # a constant diagonal and a dense block with sigma_min a hair above
        # or below tol.inv(sigma_max): neither certificate proves them, and
        # the SVD accepts the one above and refuses the one below
        rng = np.random.default_rng(32)
        sigma_min = factor * tol.inv(1.0)
        for a in (np.diag([1.0, 0.5, sigma_min]),
                  with_singular_values(rng, [1.0, 0.7, 0.3, sigma_min])):
            assert not _certified_invertible(a)
            assert admissible(a) == (factor > 1.0)

    def test_between_the_floor_and_the_grams_resolution(self):
        # sigma_min = 1e-9 sigma_max: admissible, but below sqrt(n u)
        # sigma_max, where the Gram cannot prove it
        a = with_singular_values(np.random.default_rng(33), [1.0, 0.6, 0.2, 1e-9])
        assert not _certified_invertible(a)
        assert admissible(a)

    def test_cholesky_fails_by_a_hair(self):
        a = with_singular_values(np.random.default_rng(34), [2.0, 1.0, 0.5])
        sigma_min = float(singular_values(a)[0])
        assert _gram_certificate(a, sigma_min * (1.0 - 1e-6))
        # theta^2 in the shift just above sigma_min^2: the factorization fails
        assert not _gram_certificate(a, sigma_min * (1.0 + 1e-6))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scales_fall_back_without_warnings(self, scale):
        a = scale * with_singular_values(np.random.default_rng(35), [1.0, 0.8, 0.5, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not _gram_certificate(a, 0.0)
            assert not _certified_invertible(a)
            assert admissible(a)

    def test_certified_blocks_are_admissible(self):
        # whatever a certificate proves, the SVD accepts with room to spare
        rng = np.random.default_rng(36)
        assert _certified_invertible(np.eye(5))
        assert not _certified_invertible(np.zeros((3, 3)))
        shift = np.roll(np.eye(64), 1, axis=1)
        assert _certified_invertible(shift + 0.1 * rng.standard_normal((64, 64)) / 8.0)
        proven = 0
        for _ in range(200):
            n = int(rng.integers(1, 9))
            values = 10.0 ** rng.uniform(-12.0, 0.0, n)
            a = with_singular_values(rng, values)
            if rng.integers(2):
                a = np.diag(rng.uniform(1.0, 2.0, n)) + 1e-3 * a
            if _certified_invertible(a):
                proven += 1
                sv = singular_values(a)
                assert sv[0] > 2.0 * tol.inv(sv[-1])
        assert proven > 50


class TestSmallestPair:
    """The smallest singular pair (u, v) of square blocks from one shifted
    solve (``_smallest_pair``): where its Wedin certificate holds, within
    1e-12 of the SVD's directions; where the gap closes or the shifted
    matrix is exactly singular, refused, so that the engine takes the SVD's
    frames."""

    @staticmethod
    def values(b):
        """The ascending values-only singular values of a block or stack."""
        return np.linalg.svd(b, compute_uv=False)[..., ::-1].copy()

    @pytest.mark.parametrize("ratio", [0.0, 1e-10, 0.3, 0.62])
    def test_pair_matches_the_svd(self, ratio):
        # sigma_1 / sigma_2 = ratio on a 32 x 32 block
        rng = np.random.default_rng(140)
        values = rng.uniform(0.75, 2.25, 32)
        values[:2] = ratio * 0.5, 0.5
        b = with_singular_values(rng, values)
        s = self.values(b)
        u, v, certified = _smallest_pair(b[None], s[None])
        assert certified.tolist() == [True]
        w, _, vt = np.linalg.svd(b)
        assert abs(u[0] @ w[:, -1]) >= 1.0 - 1e-12
        assert abs(v[0] @ vt[-1]) >= 1.0 - 1e-12
        # the certificate itself: Wedin's bound on both sines
        residual = np.hypot(np.linalg.norm(b @ v[0] - s[0] * u[0]),
                            np.linalg.norm(b.T @ u[0] - s[0] * v[0]))
        assert residual / (s[1] - s[0]) <= _PAIR_SIN

    def test_one_by_one_blocks(self):
        b = np.array([[[-3.0]], [[0.5]], [[0.0]]])
        u, v, certified = _smallest_pair(b, self.values(b))
        # no sigma_2 to separate from; a zero block has no shift to solve at
        assert certified.tolist() == [True, True, False]
        assert (u[:2] * v[:2] * b[:2, 0]).ravel().tolist() == [3.0, 0.5]

    def test_closed_gap_is_refused(self):
        b = with_singular_values(np.random.default_rng(141), [0.5, 0.5, 1.0, 2.0])
        assert _smallest_pair(b[None], self.values(b)[None])[2].tolist() == [False]

    def test_exactly_singular_shift_is_refused_without_warnings(self):
        # the zero block's shift is 0: the solve raises LinAlgError, and only
        # its own row of a stack is refused
        rng = np.random.default_rng(142)
        stack = np.array([rng.standard_normal((3, 3)), np.zeros((3, 3)),
                          rng.standard_normal((3, 3))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, v, certified = _smallest_pair(stack, self.values(stack))
        assert certified.tolist() == [True, False, True]
        for i in (0, 2):
            single = _smallest_pair(stack[i:i + 1], self.values(stack[i:i + 1]))
            assert single[0].tobytes() == u[i].tobytes()
            assert single[1].tobytes() == v[i].tobytes()

    @pytest.mark.parametrize("n", [1, 3, 8, 32])
    def test_stacked_rows_are_bitwise_their_own(self, n):
        rng = np.random.default_rng(143 + n)
        stack = rng.standard_normal((7, n, n)) * np.logspace(-3, 3, 7)[:, None, None]
        u, v, certified = _smallest_pair(stack, self.values(stack))
        for i in range(len(stack)):
            single = _smallest_pair(stack[i:i + 1], self.values(stack[i:i + 1]))
            assert single[0].tobytes() == u[i].tobytes()
            assert single[1].tobytes() == v[i].tobytes()
            assert single[2].tolist() == [certified[i]]

    def test_subnormal_block_is_refused_without_warnings(self):
        # the power of two above a subnormal sigma_max overflows
        b = 1e-310 * with_singular_values(np.random.default_rng(147), [0.1, 0.5, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            certified = _smallest_pair(b[None], self.values(b)[None])[2]
        assert certified.tolist() == [False]

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_extreme_scales_without_warnings(self, scale):
        b = scale * with_singular_values(np.random.default_rng(144), [0.1, 0.5, 1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, v, certified = _smallest_pair(b[None], self.values(b)[None])
        w, _, vt = np.linalg.svd(b)
        assert certified.tolist() == [True]
        assert abs(u[0] @ w[:, -1]) >= 1.0 - 1e-12
        assert abs(v[0] @ vt[-1]) >= 1.0 - 1e-12
