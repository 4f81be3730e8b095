"""Unit tests for the parity and flow engines."""

import numpy as np
import pytest

from z2flow.errors import (
    ConfigError,
    DimensionError,
    NotAdmissibleError,
    RefinementError,
    SingularError,
    SymmetryError,
)
from z2flow.flow import (
    _COS_MIN,
    _pairwise_window_continuity,
    _step_norms,
    embed_chiral,
    embed_chiral_path,
    k_real_reduce,
    leray_schauder_degree,
    parity_finite,
    parity_path,
    parity_path_general,
    refine,
    selfadjoint_path_to_skew,
    selfadjoint_to_skew,
    sf2_finite,
    sf2_path,
    to_skew_path,
)
from z2flow.linalg import sign_det
from z2flow.models import (
    GalerkinSpec,
    RingShiftSpec,
    build_bifurcation_path,
    build_example_path,
    build_insulator_path,
)
from z2flow.paths import ChiralFrame, OperatorPath

from conftest import (
    random_admissible_path,
    random_chiral_skew_path,
    random_invertible_path,
    random_orthogonal_path,
)


class TestParityFinite:
    def test_constant_invertible(self):
        path = OperatorPath((0.0, 1.0), lambda t: np.eye(3), "general")
        assert parity_finite(path) == 1

    def test_single_crossing(self):
        path = OperatorPath((-1.0, 1.0),
                            lambda t: np.diag([t, 1.0]), "general")
        assert parity_finite(path) == -1

    def test_bifurcation_linearization(self):
        path = build_bifurcation_path(GalerkinSpec(4, 2.0, 0.5))
        assert parity_finite(path) == -1

    def test_singular_endpoint_rejected(self):
        path = OperatorPath((0.0, 1.0),
                            lambda t: np.diag([t, 1.0]), "general")
        with pytest.raises(NotAdmissibleError):
            parity_finite(path)


class TestEmbedChiral:
    def test_scalar_block(self):
        t = 0.3
        np.testing.assert_allclose(
            embed_chiral([[t]]), [[0.0, t], [-t, 0.0]])

    def test_zero_block(self):
        np.testing.assert_allclose(embed_chiral([[0.0]]), np.zeros((2, 2)))

    def test_doubled_block(self):
        out = embed_chiral(np.diag([0.5, 0.5]))
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[1, 3] = 0.5
        expected[2, 0] = expected[3, 1] = -0.5
        np.testing.assert_allclose(out, expected)

    def test_rectangular_symmetries(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((3, 2))
        t = embed_chiral(b)
        assert np.max(np.abs(t + t.T)) == 0.0
        j = np.diag([1.0, 1.0, 1.0, -1.0, -1.0])
        np.testing.assert_allclose(j @ t @ j, -t)


class TestSf2Finite:
    def test_equal_endpoints(self):
        t = np.array([[0.0, 2.0], [-2.0, 0.0]])
        assert sf2_finite(t, t) == 1

    def test_orientation_flip(self):
        t0 = np.array([[0.0, -1.0], [1.0, 0.0]])
        t1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert sf2_finite(t0, t1) == -1

    def test_doubled_endpoints(self):
        b0 = np.diag([-1.0, -1.0])
        b1 = np.diag([1.0, 1.0])
        assert sf2_finite(embed_chiral(b0), embed_chiral(b1)) == 1

    def test_empty(self):
        e = np.zeros((0, 0))
        assert sf2_finite(e, e) == 1

    def test_singular_rejected(self):
        t = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(NotAdmissibleError):
            sf2_finite(np.zeros((2, 2)), t)

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionError):
            sf2_finite(np.zeros((3, 3)), np.zeros((3, 3)))

    def test_basis_covariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dim = 2 * int(rng.integers(1, 5))
            m0 = rng.standard_normal((dim, dim))
            m1 = rng.standard_normal((dim, dim))
            t0, t1 = m0 - m0.T, m1 - m1.T
            o = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
            assert sf2_finite(o.T @ t0 @ o, o.T @ t1 @ o) == sf2_finite(t0, t1)

    def test_self_flow_trivial(self):
        # finite closed loops cannot carry flow: both endpoints coincide
        rng = np.random.default_rng(2)
        for _ in range(50):
            dim = 2 * int(rng.integers(1, 6))
            m = rng.standard_normal((dim, dim))
            t = m - m.T
            assert sf2_finite(t, t) == 1


class TestSf2Path:
    def test_simple_crossing(self):
        res = sf2_path(build_example_path("examp"))
        assert res.value == -1

    def test_absolute_value_twin(self):
        res = sf2_path(build_example_path("examp_abs"))
        assert res.value == 1

    def test_doubled(self):
        assert sf2_path(build_example_path("doubled")).value == 1

    def test_perturbed_doubled_invertible(self):
        res = sf2_path(build_example_path("doubled_perturbed", s=0.3))
        assert res.value == 1

    def test_window_product_matches_value(self):
        res = sf2_path(build_example_path("examp"))
        assert res.window_product() == res.value
        for w in res.windows:
            assert w.rank % 2 == 0
            assert w.t_lo < w.t_hi
            assert w.a > 0

    def test_closed_loop_trivial(self):
        def loop(t):
            s = t if t <= 1.0 else 2.0 - t
            return np.array([[0.0, s + 0.5], [-(s + 0.5), 0.0]])
        path = OperatorPath((0.0, 2.0), loop, "skew")
        assert sf2_path(path).value == 1

    def test_singular_endpoint_rejected(self):
        path = OperatorPath((0.0, 1.0),
                            lambda t: np.array([[0.0, t], [-t, 0.0]]), "skew")
        with pytest.raises(NotAdmissibleError):
            sf2_path(path)

    def test_wrong_tag_rejected(self):
        path = OperatorPath((0.0, 1.0), lambda t: np.eye(2), "general")
        with pytest.raises(ConfigError):
            sf2_path(path)

    def test_discontinuous_path_refused(self):
        def jump(t):
            v = 1.0 if t < 0.377 else -1.0
            return np.array([[0.0, v], [-v, 0.0]])
        path = OperatorPath((0.0, 1.0), jump, "skew")
        with pytest.raises(RefinementError):
            sf2_path(path)

    def test_non_finite_evaluation_is_config_error(self):
        # NaN inside the interval is invalid input, not a numpy failure
        def bad(t):
            s = np.nan if 0.85 < t < 0.95 else t - 0.5
            return np.array([[0.0, s], [-s, 0.0]])
        with pytest.raises(ConfigError, match="finite"):
            sf2_path(OperatorPath((0.0, 1.0), bad, "skew"))
        general = OperatorPath((0.0, 1.0), lambda t: bad(t)[:1, 1:], "general")
        with pytest.raises(ConfigError, match="finite"):
            parity_path(general)

    def test_interval_rescaling(self):
        # same family on a shifted interval gives the same flow
        path = OperatorPath(
            (3.0, 5.0),
            lambda t: np.array([[0.0, t - 4.0], [-(t - 4.0), 0.0]]),
            "skew")
        assert sf2_path(path).value == -1


class TestScaledPaths:
    """The flow is scale-invariant; both singular-system routes keep it so
    at 1e+-200, and the plain route at 1e+-300."""

    @pytest.mark.parametrize("factor", [1e100, 1e-100, 1e200, 1e-200])
    @pytest.mark.parametrize("name", ["examp", "examp_abs"])
    def test_scaled_example(self, name, factor):
        base = build_example_path(name)
        scaled = OperatorPath(base.interval,
                              lambda t: factor * base.evaluator(t),
                              base.symmetry_tag, base.frame, 0)
        # the same path tagged plain skew takes the plain SVD route
        plain = OperatorPath(base.interval, scaled.evaluator, "skew")
        expected = sf2_path(base).value
        for path in (scaled, plain):
            assert sf2_path(path).value == expected
            assert parity_path(path) == expected
        if name == "examp":  # near the ends of the float range too
            extreme = 1e300 if factor > 1 else 1e-300
            edge = OperatorPath(base.interval,
                                lambda t: extreme * base.evaluator(t), "skew")
            assert expected == -1
            assert sf2_path(edge).value == expected


class TestRefine:
    def test_left_to_right_bisection(self):
        visited = []

        def accept(lo, hi):
            visited.append((lo, hi))
            if lo < 0.3 < hi and hi - lo > 0.2:
                return None
            return 0 if hi == 1.0 else hi - lo  # any value but None is kept

        segments, depth = refine([0.0, 0.5, 1.0], accept)
        assert visited == [(0.0, 0.5), (0.0, 0.25), (0.25, 0.5),
                           (0.25, 0.375), (0.375, 0.5), (0.5, 1.0)]
        assert segments == [(0.0, 0.25, 0.25), (0.25, 0.375, 0.125),
                            (0.375, 0.5, 0.125), (0.5, 1.0, 0)]
        assert depth == 2

    def test_floor_names_the_segment(self):
        with pytest.raises(RefinementError, match=r"no thing above .* on \[0\.0, "):
            refine([0.0, 1.0], lambda lo, hi: None, "thing")


class TestChiralCore:
    """Chiral-skew paths are solved on their block; plain skew via -T^2."""

    @staticmethod
    def as_plain_skew(path):
        return OperatorPath(path.interval, path.evaluator, "skew")

    def test_fixed_line_partition(self):
        rng = np.random.default_rng(9)
        b0 = rng.standard_normal((16, 16))
        b1 = b0.copy()
        b1[0] *= -1.0
        b1 += 0.1 * rng.standard_normal((16, 16))
        line = OperatorPath((0.0, 1.0), lambda t: (1 - t) * b0 + t * b1, "general")
        chiral = embed_chiral_path(line)
        res = sf2_path(chiral)
        assert res.value == parity_finite(line) == -1
        assert (len(res.windows), res.evaluations, res.refinement_depth) == (64, 513, 6)
        plain = sf2_path(self.as_plain_skew(chiral))
        assert plain.value == res.value
        assert plain.evaluations == res.evaluations
        assert [(w.t_lo, w.t_hi, w.rank) for w in plain.windows] == \
            [(w.t_lo, w.t_hi, w.rank) for w in res.windows]

    def test_randomized_partitions_agree(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            n = int(rng.integers(1, 5))
            path = random_chiral_skew_path(rng, n)
            base = sf2_path(path).value
            assert sf2_path(self.as_plain_skew(path)).value == base
            for rep in range(3):
                assert sf2_path(path, rng=np.random.default_rng(rep)).value == base

    @pytest.mark.parametrize("wide", [False, True])
    def test_rectangular_blocks_agree_with_oracle(self, wide):
        # rotated padded blocks as in the parity_path_general oracle test,
        # tall (n_plus > n_minus) and transposed to wide (n_minus > n_plus)
        rng = np.random.default_rng(42)
        for _ in range(4):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 3))
            mpath = random_admissible_path(rng, n)
            qfun = random_orthogonal_path(rng, n + d)

            def ev(t, _m=mpath, _q=qfun, _n=n, _d=d):
                b = _q(t) @ np.vstack([_m.evaluator(t), np.zeros((_d, _n))])
                return b.T if wide else b

            path = OperatorPath((0.0, 1.0), ev, "general", None, -d if wide else d)
            oracle = parity_finite(mpath)
            assert parity_path_general(path) == oracle
            assert parity_path_general(path, rng=np.random.default_rng(1)) == oracle


class TestBatchedSegmentChecks:
    """The batched step norms and window-continuity check against loops."""

    def test_step_norms_match_loop(self):
        rng = np.random.default_rng(43)
        for shape in [(9, 4, 4), (9, 5, 2), (3, 1, 6), (9, 0, 3)]:
            steps = rng.standard_normal(shape)
            loop = [np.linalg.norm(b - a, 2) if a.size else 0.0
                    for a, b in zip(steps[:-1], steps[1:])]
            np.testing.assert_allclose(_step_norms(steps), loop, rtol=1e-14)

    def test_window_continuity_matches_loop(self):
        def loop(bases):
            for i in range(len(bases)):
                for j in range(i + 1, len(bases)):
                    overlap = bases[i].T @ bases[j]
                    if np.linalg.svd(overlap, compute_uv=False)[-1] < _COS_MIN:
                        return False
            return True

        rng = np.random.default_rng(44)
        outcomes = []
        for _ in range(200):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n))
            base = np.linalg.qr(rng.standard_normal((n, n)))[0]
            drift = float(rng.uniform(0.0, 0.4))
            bases = []
            for _ in range(int(rng.integers(2, 6))):
                g = rng.standard_normal((n, n))
                q = np.linalg.qr(np.eye(n) + drift * (g - g.T))[0]
                bases.append((q * np.sign(np.diag(q)) @ base)[:, :k])
            expected = loop(bases)
            assert _pairwise_window_continuity(np.stack(bases)) == expected
            outcomes.append(expected)
        assert set(outcomes) == {True, False}
        assert _pairwise_window_continuity(np.zeros((3, 4, 0)))


class TestParityPath:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            dim = int(rng.integers(1, 9))
            path = random_admissible_path(rng, dim,
                                          knots=int(rng.integers(2, 5)))
            assert parity_path(path) == parity_finite(path)

    def test_insulator_odd_class(self):
        path = build_insulator_path(RingShiftSpec(8, 1, 1))
        assert parity_path(path) == -1

    def test_rectangular_redirected(self):
        path = OperatorPath((0.0, 1.0),
                            lambda t: np.ones((2, 1)), "general", None, 1)
        with pytest.raises(DimensionError):
            parity_path(path)


class TestParityPathGeneral:
    def test_constant_full_rank(self):
        path = OperatorPath((0.0, 1.0),
                            lambda t: np.array([[1.0], [0.0]]),
                            "general", None, 1)
        assert parity_path_general(path) == 1

    def test_growing_column(self):
        path = OperatorPath((0.0, 1.0),
                            lambda t: np.array([[1.0 + t * t], [0.0]]),
                            "general", None, 1)
        assert parity_path_general(path) == 1

    def test_restricted_crossing(self):
        # 3x1 family whose complement path is exactly the simple crossing
        path = OperatorPath((-1.0, 1.0),
                            lambda t: np.array([[t], [0.0], [0.0]]),
                            "general", None, 2)
        assert parity_path_general(path) == -1

    @pytest.mark.parametrize("wide", [False, True])
    def test_skew_form_is_square_doubling(self, wide):
        # the 3x1 crossing and its transpose reduce to a 1x1 block path whose
        # doubling carries the parity through sf2_path
        def ev(t):
            b = np.array([[t], [0.0], [0.0]])
            return b.T if wide else b
        path = OperatorPath((-1.0, 1.0), ev, "general", None, -2 if wide else 2)
        skew = to_skew_path(path)
        assert skew.symmetry_tag == "chiral-skew"
        assert skew.frame == ChiralFrame(1, 1) and skew.declared_index == 0
        assert sf2_path(skew).value == parity_path_general(path) == -1

    def test_wrong_endpoint_kernel_rejected(self):
        # kernel dimension at the endpoints exceeds the declared index
        path = OperatorPath((0.0, 1.0),
                            lambda t: np.zeros((2, 1)), "general", None, 1)
        with pytest.raises(NotAdmissibleError):
            parity_path_general(path)

    def test_square_inputs_delegate(self):
        rng = np.random.default_rng(4)
        path = random_admissible_path(rng, 3)
        assert parity_path_general(path) == parity_finite(path)

    def test_rotated_embedding_oracle(self):
        # B(t) = Q(t) [[M(t)], [0]] with Q orthogonal: the kernel family is
        # Q(t) applied to the padding rows and the reduced family carries
        # exactly the parity of the square factor M
        rng = np.random.default_rng(12)
        for _ in range(15):
            n = int(rng.integers(1, 5))
            d = int(rng.integers(1, 4))
            mpath = random_admissible_path(rng, n, knots=3)
            qfun = random_orthogonal_path(rng, n + d)

            def ev(t, _m=mpath, _q=qfun, _n=n, _d=d):
                return _q(t) @ np.vstack([_m.evaluator(t), np.zeros((_d, _n))])

            path = OperatorPath((0.0, 1.0), ev, "general", None, d)
            assert parity_path_general(path) == parity_finite(mpath)

    def test_kernel_jump_refused(self):
        # the kernel direction of the 2x1 block jumps at t = 0.377: no
        # continuous kernel family exists at any sampling resolution
        def jump(t):
            return np.array([[1.0], [0.0]]) if t < 0.377 else np.array([[0.0], [1.0]])
        path = OperatorPath((0.0, 1.0), jump, "general", None, 1)
        with pytest.raises(RefinementError, match="continuous kernel family"):
            parity_path_general(path)

    def test_singular_nonzero_endpoint_rejected(self):
        # endpoint with a kernel but nonzero entries must still be refused
        path = OperatorPath(
            (0.0, 1.0), lambda t: np.diag([t, 1.0 + t]), "general")
        with pytest.raises(NotAdmissibleError):
            parity_path(path)


class TestLeraySchauderDegree:
    def test_zero(self):
        assert leray_schauder_degree(np.zeros((5, 5))) == 1

    def test_rank_one_shift(self):
        k = np.zeros((4, 4))
        k[0, 0] = -2.0
        assert leray_schauder_degree(k) == -1

    def test_small_norm_trivial(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            k = rng.standard_normal((n, n))
            k *= 0.9 / np.linalg.norm(k, 2)
            assert leray_schauder_degree(k) == 1
            assert sign_det(np.eye(n) + k) == 1

    def test_eigenvalue_at_minus_one_rejected(self):
        with pytest.raises(SingularError):
            leray_schauder_degree(np.diag([-1.0, 0.0]))

    def test_matches_sign_det(self):
        rng = np.random.default_rng(6)
        count = 0
        while count < 200:
            n = int(rng.integers(1, 8))
            k = rng.standard_normal((n, n)) * rng.uniform(0.2, 3.0)
            if np.linalg.svd(np.eye(n) + k, compute_uv=False)[-1] < 0.05:
                continue
            assert leray_schauder_degree(k) == sign_det(np.eye(n) + k)
            count += 1


class TestSelfadjointToSkew:
    def test_block_substitution(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(
            selfadjoint_to_skew(h, ChiralFrame(1, 1)),
            [[0.0, 1.0], [-1.0, 0.0]])

    def test_zero(self):
        np.testing.assert_allclose(
            selfadjoint_to_skew(np.zeros((2, 2)), ChiralFrame(1, 1)),
            np.zeros((2, 2)))

    def test_ring_hopping_is_orthogonal(self):
        h = build_insulator_path(RingShiftSpec(6, 1, 1)).at(0.0)
        t = selfadjoint_to_skew(h, ChiralFrame(6, 6))
        sv = np.linalg.svd(t, compute_uv=False)
        np.testing.assert_allclose(sv, np.ones(12), atol=1e-12)

    def test_non_symmetric_rejected(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(SymmetryError):
            selfadjoint_to_skew(bad, ChiralFrame(1, 1))

    def test_non_chiral_rejected(self):
        bad = np.eye(2)
        with pytest.raises(SymmetryError):
            selfadjoint_to_skew(bad, ChiralFrame(1, 1))

    def test_path_conversion_preserves_flow(self):
        path = build_insulator_path(RingShiftSpec(8, 1, 1))
        skew = selfadjoint_path_to_skew(path)
        assert skew.symmetry_tag == "chiral-skew"
        assert sf2_path(skew).value == -1


class TestKRealReduce:
    def test_identity_involution(self):
        frame = ChiralFrame(2, 2)
        b = np.array([[1.0, 0.5], [0.5, 2.0]])
        h = np.zeros((4, 4), dtype=complex)
        h[:2, 2:] = b
        h[2:, :2] = b.T
        out = k_real_reduce(h, np.eye(4), frame)
        np.testing.assert_allclose(out, h.real, atol=1e-12)

    def test_imaginary_sector(self):
        frame = ChiralFrame(2, 2)
        k = np.diag([1.0, -1.0, 1.0, -1.0])
        b = np.array([[0.7, 0.4j], [0.9j, -1.1]])
        h = np.zeros((4, 4), dtype=complex)
        h[:2, 2:] = b
        h[2:, :2] = b.conj().T
        out = k_real_reduce(h, k, frame)
        assert out.dtype == float
        np.testing.assert_allclose(out, out.T, atol=1e-12)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(7)
        frame = ChiralFrame(2, 2)
        k = np.diag([1.0, -1.0, 1.0, -1.0])
        a, b_, c, d = rng.standard_normal(4)
        blk = np.array([[a, 1j * c], [1j * d, b_]])
        h = np.zeros((4, 4), dtype=complex)
        h[:2, 2:] = blk
        h[2:, :2] = blk.conj().T
        out = k_real_reduce(h, k, frame)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(out)),
            np.sort(np.linalg.eigvalsh(h)), atol=1e-10)

    def test_not_k_real_rejected(self):
        frame = ChiralFrame(1, 1)
        k = np.diag([1.0, -1.0])
        h = np.array([[0.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])
        with pytest.raises(SymmetryError):
            k_real_reduce(h, k, frame)

    def test_bad_involution_rejected(self):
        frame = ChiralFrame(1, 1)
        with pytest.raises(SymmetryError):
            k_real_reduce(np.zeros((2, 2)), np.diag([1.0, 2.0]), frame)


class TestFlowProperties:
    """Smoke versions of the invariance properties (full runs in acceptance)."""

    def test_partition_independence(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            dim = int(rng.integers(1, 5))
            path = embed_chiral_path(random_admissible_path(rng, dim))
            base = sf2_path(path).value
            for rep in range(4):
                assert sf2_path(
                    path, rng=np.random.default_rng(rep)).value == base

    def test_invertible_paths_trivial(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            path = random_invertible_path(rng, int(rng.integers(1, 5)))
            assert parity_path(path) == 1

    def test_orthogonal_conjugation(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            path = random_admissible_path(rng, dim)
            o_of = random_orthogonal_path(rng, dim)
            conj = OperatorPath(
                path.interval,
                lambda t, _p=path, _o=o_of: _o(t) @ _p.evaluator(t) @ _o(t).T,
                "general")
            assert parity_path(conj) == parity_path(path)
