"""Unit tests for pairs of chiral complex structures and their index."""

import numpy as np
import pytest

from z2flow import tolerances as tol
from z2flow.errors import (
    DimensionError,
    NotAdmissibleError,
    NotFredholmPairError,
    StructureError,
    SymmetryError,
)
from z2flow.flow import embed_chiral, embed_chiral_path, sf2_path
from z2flow.models import build_example_path, build_rank_one_pair
from z2flow.pairs import (
    ComplexStructure,
    FredholmPair,
    index_pairing_rhs,
    j_index,
    parity_via_pairs,
    phase_complete,
    pi_index,
    straight_line_sf2,
)
from z2flow.paths import ChiralFrame, OperatorPath
from z2flow.z2 import Z2

from conftest import (
    random_certified_pair,
    random_chiral_skew_path,
    random_chiral_structure,
)


def kernel_dim(m, tol=1e-8):
    sv = np.linalg.svd(m, compute_uv=False)
    scale = max(float(sv.max()), 1.0)
    return int((sv < tol * scale).sum())


# The complex definitions on the 2n x 2n matrices, which the library reads
# from real n x n blocks: oracles for pi_index, j_index and index_pairing_rhs.


def oracle_pi_index(pair):
    """Half the kernel of the sum, cross-checked by the kernel dimensions of
    I0 - I1 +/- 2i over the complexification."""
    k = pair.gap_certificate
    diff = pair.first.matrix - pair.second.matrix
    n = diff.shape[0]
    counts = []
    for sign in (+1.0, -1.0):
        sv = np.linalg.svd(diff.astype(complex) + sign * 2j * np.eye(n),
                           compute_uv=False)
        counts.append(int((sv < tol.pair_kernel()).sum()))
    if counts[0] != counts[1] or counts[0] % 2 != (k // 2) % 2:
        raise StructureError(
            f"index formulas disagree (kernel/2={k // 2}, complex counts={counts})")
    return Z2(1) if (k // 2) % 2 == 0 else Z2(-1)


def oracle_j_index(structure, o):
    conjugated = ComplexStructure(o @ structure.matrix @ o.T, structure.frame)
    return oracle_pi_index(FredholmPair(structure, conjugated))


def oracle_index_pairing_rhs(structure, o):
    """The kernel of P O P + 1 - P mod 2, P = (1 - iI) / 2."""
    n = structure.dim
    p = (np.eye(n) - 1j * structure.matrix) / 2.0
    sv = np.linalg.svd(p @ o.astype(complex) @ p + np.eye(n) - p,
                       compute_uv=False)
    smax = float(sv[0]) if sv.size else 0.0
    return int((sv < tol.inv(max(smax, 1e-300))).sum()) % 2


def outcome(call):
    """The value of a call, or the type and text of the error it raises."""
    try:
        return call()
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


def random_orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def reflecting_orthogonal(rng, structure, r, dead_zone=False):
    """A grading-preserving O = diag(O+, O-) with O+ = U O- U^T R, where R
    reflects r random directions and turns the others by angles below 2.5
    (the last one by pi - 1e-3 under ``dead_zone``): the sum I + O I O^T
    then has the kernel 2r, and the rest of its spectrum clears the gap
    unless ``dead_zone``."""
    n = structure.frame.n_plus
    u = structure.matrix[:n, n:]
    o_minus = random_orthogonal(rng, n)
    rest = np.eye(n)
    for i in range(r, n - 1, 2):
        th = rng.uniform(-2.5, 2.5)
        rest[i:i + 2, i:i + 2] = [[np.cos(th), -np.sin(th)],
                                  [np.sin(th), np.cos(th)]]
    if dead_zone and r < n - 1:
        th = np.pi - 1e-3
        rest[r:r + 2, r:r + 2] = [[np.cos(th), -np.sin(th)],
                                  [np.sin(th), np.cos(th)]]
    rest[:r, :r] = -np.eye(r)
    basis = random_orthogonal(rng, n)
    o = np.zeros((2 * n, 2 * n))
    o[:n, :n] = u @ o_minus @ u.T @ basis @ rest @ basis.T
    o[n:, n:] = o_minus
    return o


class TestComplexStructure:
    def test_standard_structure(self):
        s = ComplexStructure(embed_chiral(np.eye(3)), ChiralFrame(3, 3))
        np.testing.assert_allclose(s.matrix @ s.matrix, -np.eye(6), atol=1e-12)

    def test_non_orthogonal_rejected(self):
        bad = embed_chiral(np.diag([1.0, 2.0]))
        with pytest.raises(SymmetryError, match="^complex structure must be orthogonal$"):
            ComplexStructure(bad, ChiralFrame(2, 2))

    def test_non_chiral_rejected(self):
        m = np.zeros((4, 4))
        m[0, 1], m[1, 0] = 1.0, -1.0
        m[2, 3], m[3, 2] = 1.0, -1.0
        with pytest.raises(SymmetryError,
                           match="^complex structure must anticommute with the grading$"):
            ComplexStructure(m, ChiralFrame(2, 2))
        with pytest.raises(SymmetryError, match="^complex structure must be skew$"):
            ComplexStructure(np.eye(4), ChiralFrame(2, 2))

    def test_unbalanced_frame_rejected(self):
        with pytest.raises(DimensionError):
            ComplexStructure(np.zeros((4, 4)), ChiralFrame(3, 1))


class TestFredholmPair:
    def test_trivial_pair(self):
        s = random_chiral_structure(np.random.default_rng(0), 3)
        pair = FredholmPair(s, s)
        assert pair.gap_certificate == 0

    def test_rank_one_pair_kernel(self):
        structure, o = build_rank_one_pair(4)
        other = ComplexStructure(o @ structure.matrix @ o.T, structure.frame)
        pair = FredholmPair(structure, other)
        assert pair.gap_certificate == 2

    def test_dead_zone_rejected(self):
        # a conjugation angle close to pi leaves small nonzero singular
        # values in the sum: no certifiable gap
        n = 2
        base = ComplexStructure(embed_chiral(np.eye(n)), ChiralFrame(n, n))
        th = np.pi - 1e-3
        g = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        o = np.block([[g, np.zeros((n, n))], [np.zeros((n, n)), np.eye(n)]])
        other = ComplexStructure(o @ base.matrix @ o.T, base.frame)
        with pytest.raises(NotFredholmPairError):
            FredholmPair(base, other)


class TestPiIndex:
    def test_identical_pair(self):
        s = random_chiral_structure(np.random.default_rng(1), 3)
        assert pi_index(FredholmPair(s, s)) == 1

    def test_rank_one_example(self):
        structure, o = build_rank_one_pair(5)
        other = ComplexStructure(o @ structure.matrix @ o.T, structure.frame)
        assert pi_index(FredholmPair(structure, other)) == -1

    def test_doubled_reflection(self):
        n = 5
        structure = ComplexStructure(embed_chiral(np.eye(n)), ChiralFrame(n, n))
        reflect = np.eye(n)
        reflect[0, 0] = reflect[1, 1] = -1.0
        o = np.block([[reflect, np.zeros((n, n))],
                      [np.zeros((n, n)), np.eye(n)]])
        other = ComplexStructure(o @ structure.matrix @ o.T, structure.frame)
        pair = FredholmPair(structure, other)
        # brute-force eigencount of the kernel of the sum
        assert kernel_dim(structure.matrix + other.matrix) == 4
        assert pi_index(pair) == 1

    def test_matches_both_formulas_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            pair = random_certified_pair(rng, int(rng.integers(2, 6)))
            k = kernel_dim(pair.first.matrix + pair.second.matrix, tol=1e-10)
            assert k == pair.gap_certificate
            assert pi_index(pair) == (1 if (k // 2) % 2 == 0 else -1)


class TestAlgebraicIdentities:
    def test_half_sum_half_difference_relations(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            pair = random_certified_pair(rng, n)
            i0, i1 = pair.first.matrix, pair.second.matrix
            t0 = (i0 + i1) / 2.0
            t1 = (i0 - i1) / 2.0
            eye = np.eye(2 * n)
            for lhs, rhs in [
                (t0.T @ t0 + t1.T @ t1, eye),
                (t0 @ t0.T + t1 @ t1.T, eye),
                (t0.T @ t1 + t1.T @ t0, 0 * eye),
                (t0 @ t1.T + t1 @ t0.T, 0 * eye),
                (t0 @ i0, i1 @ t0),
                (t0 @ i1, i0 @ t0),
                (t1 @ i0, -i1 @ t1),
                (t1 @ i1, -i0 @ t1),
            ]:
                assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_kernel_always_even(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            pair = random_certified_pair(rng, int(rng.integers(2, 6)))
            assert kernel_dim(pair.first.matrix + pair.second.matrix) % 2 == 0

    def test_interior_multiplicities_divisible_by_four(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(60):
            pair = random_certified_pair(rng, int(rng.integers(2, 6)))
            t0 = (pair.first.matrix + pair.second.matrix) / 2.0
            w = np.linalg.eigvalsh(t0.T @ t0)
            interior = w[(w > 1e-6) & (w < 1.0 - 1e-6)]
            if interior.size == 0:
                continue
            checked += 1
            clusters = []
            for x in interior:
                if clusters and abs(x - clusters[-1][-1]) < 1e-7:
                    clusters[-1].append(x)
                else:
                    clusters.append([x])
            for c in clusters:
                assert len(c) % 4 == 0
        assert checked >= 10


class TestStraightLine:
    def test_identical_pair(self):
        s = random_chiral_structure(np.random.default_rng(6), 3)
        assert straight_line_sf2(FredholmPair(s, s)) == 1

    def test_rank_one_example(self):
        structure, o = build_rank_one_pair(4)
        other = ComplexStructure(o @ structure.matrix @ o.T, structure.frame)
        pair = FredholmPair(structure, other)
        assert straight_line_sf2(pair) == -1

    def test_matches_index_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            pair = random_certified_pair(rng, int(rng.integers(2, 5)))
            assert straight_line_sf2(pair) == pi_index(pair)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_low_rank_lines_declare_their_motion(self, n, monkeypatch):
        # (I, O I O^T) for O = diag(R, 1), R reflecting r random directions
        # of a random structure's block: U1 - U0 has rank r, and the line
        # has the parity (-1)^r of pi_index
        import z2flow.pairs as pairs_module

        flows = []

        def spy(path, *, rng=None):
            flows.append(sf2_path(path, rng=rng))
            return flows[-1]

        monkeypatch.setattr(pairs_module, "sf2_path", spy)
        rng = np.random.default_rng(60 + n)
        structure = random_chiral_structure(rng, n)
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
        for r in range(min(n, 3) + 1):
            o = np.eye(2 * n)
            o[:n, :n] -= 2.0 * basis[:, :r] @ basis[:, :r].T
            pair = FredholmPair(structure, ComplexStructure(
                o @ structure.matrix @ o.T, structure.frame))
            values = [straight_line_sf2(pair)] + [
                straight_line_sf2(pair, rng=np.random.default_rng(seed))
                for seed in range(2)]
            assert values == [pi_index(pair)] * 3 == [(-1) ** r] * 3, (n, r)
            res = flows[-3]
            # a motion only for 0 < r < n, of 2 block checks and one rank-2r
            # window of the r x r path I - 2t I_r; a constant line is one
            # solve, and a full-rank one (here n = 1) is solved whole
            got = (res.motion_rank, res.evaluations, len(res.windows))
            assert got == ((r, 11, 1) if 0 < r < n else
                           (0, 1, 1) if r == 0 else (0, 9, 1)), (n, r)


class TestPhaseComplete:
    def test_invertible_matches_polar_phase(self):
        rng = np.random.default_rng(8)
        n = 3
        b = rng.standard_normal((n, n)) + 2 * np.eye(n)
        t = np.zeros((2 * n, 2 * n))
        t[:n, n:] = b
        t[n:, :n] = -b.T
        out = phase_complete(t, ChiralFrame(n, n))
        w, s, vt = np.linalg.svd(b)
        np.testing.assert_allclose(out.matrix[:n, n:], w @ vt, atol=1e-12)

    def test_zero_matrix_completion(self):
        out = phase_complete(np.zeros((2, 2)), ChiralFrame(1, 1))
        np.testing.assert_allclose(out.matrix, [[0.0, 1.0], [-1.0, 0.0]])

    def test_scaling_normalized(self):
        t = np.array([[0.0, 3.0], [-3.0, 0.0]])
        out = phase_complete(t, ChiralFrame(1, 1))
        np.testing.assert_allclose(out.matrix, [[0.0, 1.0], [-1.0, 0.0]])

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        b = rng.standard_normal((3, 3))
        b[:, 0] = 0.0  # force a kernel
        t = np.zeros((6, 6))
        t[:3, 3:] = b
        t[3:, :3] = -b.T
        first = phase_complete(t, ChiralFrame(3, 3))
        second = phase_complete(t, ChiralFrame(3, 3))
        np.testing.assert_array_equal(first.matrix, second.matrix)

    def test_unbalanced_rejected(self):
        with pytest.raises(DimensionError):
            phase_complete(np.zeros((3, 3)), ChiralFrame(2, 1))


class TestParityViaPairs:
    def test_simple_crossing(self):
        assert parity_via_pairs(build_example_path("examp")) == -1

    def test_invertible_family(self):
        assert parity_via_pairs(
            build_example_path("doubled_perturbed", s=0.5)) == 1

    def test_matches_flow_randomized(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            path = random_chiral_skew_path(rng, int(rng.integers(1, 5)))
            assert parity_via_pairs(path) == sf2_path(path).value

    def test_completion_independence(self):
        path = build_example_path("examp")
        base = parity_via_pairs(path)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            assert parity_via_pairs(path, rng=rng) == base

    @pytest.mark.parametrize("block", [
        lambda t: np.diag([t, 1.0]),    # singular at t = 0
        lambda t: np.zeros((2, 2)),     # singular everywhere
    ], ids=["diag_t_1", "zero_blocks"])
    def test_singular_endpoint_refused(self, block):
        path = embed_chiral_path(OperatorPath((0.0, 1.0), block))
        with pytest.raises(NotAdmissibleError, match="t=0.0 is singular"):
            parity_via_pairs(path)
        with pytest.raises(NotAdmissibleError):
            sf2_path(path)

    def test_sum_with_rectangular_parts_refused_whole(self):
        # a tall part's rows meet only its own columns, so a sum with
        # rectangular parts is singular everywhere: both routes walk the
        # sum part by part, and the tall part is refused at its own endpoint
        tall = OperatorPath((0.0, 1.0), lambda t: np.array([[t - 0.3], [1.0]]),
                            "general", None, 1)
        wide = OperatorPath((0.0, 1.0), lambda t: np.array([[1.0, 0.5]]),
                            "general", None, -1)
        path = embed_chiral_path(OperatorPath.direct_sum(
            [tall, wide], [[0, 1], [2]], [[0], [1, 2]]))
        with pytest.raises(NotAdmissibleError, match="t=0.0 is singular"):
            parity_via_pairs(path)
        with pytest.raises(NotAdmissibleError):
            sf2_path(path)

    def test_full_rank_phase_jump_refused(self):
        # the whole matrix vanishes at the crossing while the phase jumps by
        # an angle so close to a half turn that consecutive phases stay in
        # the uncertifiable band at every spacing: an honest refusal
        from z2flow.errors import RefinementError
        from z2flow.paths import OperatorPath

        th = np.pi - 0.05
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])

        def ev(t):
            b = (2.0 * t - 1.0) * rot
            out = np.zeros((4, 4))
            out[:2, 2:] = b
            out[2:, :2] = -b.T
            return out

        path = OperatorPath((0.0, 1.0), ev, "chiral-skew", ChiralFrame(2, 2))
        with pytest.raises(RefinementError):
            parity_via_pairs(path)


class TestIndexMap:
    def test_identity_orthogonal(self):
        structure, _ = build_rank_one_pair(4)
        assert j_index(structure, np.eye(8)) == 1
        assert index_pairing_rhs(structure, np.eye(8)) == 0

    def test_rank_one_orthogonal(self):
        structure, o = build_rank_one_pair(4)
        assert j_index(structure, o) == -1
        assert index_pairing_rhs(structure, o) == 1

    def test_two_disjoint_reflections(self):
        n = 5
        structure = ComplexStructure(embed_chiral(np.eye(n)),
                                     ChiralFrame(n, n))
        reflect = np.eye(n)
        reflect[0, 0] = reflect[1, 1] = -1.0
        o = np.block([[reflect, np.zeros((n, n))],
                      [np.zeros((n, n)), np.eye(n)]])
        assert kernel_dim(structure.matrix
                          + o @ structure.matrix @ o.T) == 4
        assert j_index(structure, o) == 1
        assert index_pairing_rhs(structure, o) == 0

    def test_block_diagonal_two_sectors(self):
        # the rank-one pattern repeated in two independent sectors
        n = 6
        structure = ComplexStructure(embed_chiral(np.eye(n)),
                                     ChiralFrame(n, n))
        reflect = np.eye(n)
        reflect[0, 0] = reflect[3, 3] = -1.0
        o = np.block([[reflect, np.zeros((n, n))],
                      [np.zeros((n, n)), np.eye(n)]])
        assert index_pairing_rhs(structure, o) == 0

    def test_non_orthogonal_rejected(self):
        structure, _ = build_rank_one_pair(3)
        o = np.eye(6)
        o[3:, 3:] *= 1.5  # a non-orthogonal diagonal block
        for bad in (2.0 * np.eye(6), o, 2.0 * np.eye(6)[list(range(1, 6)) + [0]]):
            for call in (j_index, index_pairing_rhs):
                with pytest.raises(SymmetryError, match="^matrix is not orthogonal$"):
                    call(structure, bad)

    def test_grading_mixing_rejected(self):
        structure, _ = build_rank_one_pair(3)
        o = np.eye(6)[list(range(1, 6)) + [0]]  # cyclic permutation mixes blocks
        for call in (j_index, index_pairing_rhs):
            with pytest.raises(SymmetryError,
                               match="^matrix does not commute with the grading$"):
                call(structure, o)

    def test_homomorphism_on_certified_products(self):
        rng = np.random.default_rng(11)
        n = 6
        structure = ComplexStructure(embed_chiral(np.eye(n)),
                                     ChiralFrame(n, n))
        done = 0
        while done < 15:
            i1, i2 = rng.choice(n, size=2, replace=False)
            ra, rb = np.eye(n), np.eye(n)
            ra[i1, i1] = -1.0
            rb[i2, i2] = -1.0
            o1 = np.block([[ra, np.zeros((n, n))],
                           [np.zeros((n, n)), np.eye(n)]])
            o2 = np.block([[rb, np.zeros((n, n))],
                           [np.zeros((n, n)), np.eye(n)]])
            try:
                v1 = j_index(structure, o1)
                v2 = j_index(structure, o2)
                v12 = j_index(structure, o1 @ o2)
            except NotFredholmPairError:
                continue
            assert v12 == v1 * v2
            done += 1


class TestBlockReductions:
    """pi_index, j_index and index_pairing_rhs read one real n x n SVD each;
    they must equal the complex 2n x 2n definitions above."""

    def test_pi_index_matches_complex_oracle_on_random_pairs(self):
        rng = np.random.default_rng(12)
        for n in range(2, 12):
            for _ in range(6):
                pair = random_certified_pair(rng, n)
                assert outcome(lambda: pi_index(pair)) == \
                    outcome(lambda: oracle_pi_index(pair)), n

    def test_index_map_matches_complex_oracles_for_every_kernel(self):
        rng = np.random.default_rng(13)
        refused = 0
        for n in range(1, 12):
            for r in range(n + 1):
                for dead_zone in (False, True):
                    structure = random_chiral_structure(rng, n)
                    o = reflecting_orthogonal(rng, structure, r, dead_zone)
                    lhs = outcome(lambda: j_index(structure, o))
                    rhs = index_pairing_rhs(structure, o)
                    assert lhs == outcome(lambda: oracle_j_index(structure, o))
                    assert rhs == oracle_index_pairing_rhs(structure, o) == r % 2
                    if dead_zone and r < n - 1:
                        assert lhs[0] is NotFredholmPairError, (n, r)
                        refused += 1
                    else:
                        assert lhs == (-1) ** r, (n, r)
                        pair = FredholmPair(structure, ComplexStructure(
                            o @ structure.matrix @ o.T, structure.frame))
                        assert pair.gap_certificate == 2 * r
                        assert pi_index(pair) == oracle_pi_index(pair)
        assert refused == sum(max(n - 1, 0) for n in range(1, 12))

    def test_singular_values_match_the_complex_definitions(self, monkeypatch):
        # the counts above are read mod 2, which determinants already fix;
        # the spectra themselves must be those of the 2n x 2n matrices
        import z2flow.pairs as pairs_module
        from z2flow.linalg import singular_values

        read = []

        def spy(a):
            read.append(singular_values(a))
            return read[-1]

        monkeypatch.setattr(pairs_module, "singular_values", spy)
        rng = np.random.default_rng(17)
        for n in range(1, 12):
            structure = random_chiral_structure(rng, n)
            o = reflecting_orthogonal(rng, structure, int(rng.integers(n + 1)))
            read.clear()
            index_pairing_rhs(structure, o)
            (half,) = read
            p = (np.eye(2 * n) - 1j * structure.matrix) / 2.0
            whole = np.linalg.svd(p @ o @ p + np.eye(2 * n) - p, compute_uv=False)
            np.testing.assert_allclose(np.sort(np.concatenate([half, np.ones(n)])),
                                       np.sort(whole), atol=1e-12)
            pair = FredholmPair(structure, ComplexStructure(
                o @ structure.matrix @ o.T, structure.frame))
            read.clear()
            pi_index(pair)
            (diff,) = read
            for sign in (+1.0, -1.0):
                whole = np.linalg.svd(pair.first.matrix - pair.second.matrix
                                      + sign * 2j * np.eye(2 * n), compute_uv=False)
                np.testing.assert_allclose(
                    np.sort(np.concatenate([2.0 + diff, np.abs(2.0 - diff)])),
                    np.sort(whole), atol=1e-12)

    def test_rank_one_pair_at_n_16(self):
        structure, o = build_rank_one_pair(16)
        assert index_pairing_rhs(structure, o) == \
            oracle_index_pairing_rhs(structure, o) == 1
        assert j_index(structure, o) == oracle_j_index(structure, o) == -1


class TestValidationParity:
    """The block checks keep the type and text of every refusal, and their
    order; a zero block that is zero only within tolerance is checked on the
    whole 2n x 2n Gram."""

    def test_zero_blocks_within_tolerance_are_dropped(self):
        # j_index and index_pairing_rhs read U, O+ and O- alone: a block taken
        # for zero that is zero only within tolerance (0.9e-10, tolerance
        # 1e-10) gives the values of the input without it.  The 2n x 2n
        # definitions can refuse the conjugate there (its diagonal blocks,
        # rotated, exceed the tolerance) or miss a kernel vector of
        # P O P + 1 - P; both happen below, so the test tells them apart.
        rng = np.random.default_rng(15)
        refused = missed = 0
        for n in range(2, 12):
            for r in range(n + 1):
                exact = random_chiral_structure(rng, n)
                o_exact = reflecting_orthogonal(rng, exact, r)
                m, o = exact.matrix.copy(), o_exact.copy()
                w = 0.9e-10 * np.sign(rng.standard_normal((2, n, n)))
                m[:n, :n] = np.triu(w[0], 1) - np.triu(w[0], 1).T
                o[:n, n:] = w[1]
                structure = ComplexStructure(m, exact.frame)
                assert j_index(structure, o) == \
                    oracle_j_index(exact, o_exact) == (-1) ** r, (n, r)
                assert index_pairing_rhs(structure, o) == \
                    oracle_index_pairing_rhs(exact, o_exact) == r % 2, (n, r)
                refused += isinstance(outcome(lambda: oracle_j_index(structure, o)), tuple)
                missed += oracle_index_pairing_rhs(structure, o) != r % 2
        assert refused > 0 and missed > 0

    def test_zero_blocks_within_tolerance_read_the_whole_gram(self):
        # blocks of 0.9e-10 pass the grading checks (tolerance 1e-10) but
        # put about 0.9e-10 sqrt(n) = 1.4e-9 into the 2n x 2n Gram, above
        # its bound 1e-9: orthogonality is refused, as by the whole Gram
        n = 256
        # an orthogonal block whose first column is ones / sqrt(n)
        q = np.linalg.qr(np.column_stack(
            [np.ones(n), np.random.default_rng(14).standard_normal((n, n - 1))]))[0]
        m = embed_chiral(q)
        sign = np.triu(np.ones((n, n)), 1)
        m[:n, :n] = 0.9e-10 * (sign - sign.T)
        with pytest.raises(SymmetryError, match="^complex structure must be orthogonal$"):
            ComplexStructure(m, ChiralFrame(n, n))
        o = np.eye(2 * n)
        o[:n, :n] = q
        o[:n, n:] = 0.9e-10
        structure = ComplexStructure(embed_chiral(np.eye(n)), ChiralFrame(n, n))
        with pytest.raises(SymmetryError, match="^matrix is not orthogonal$"):
            j_index(structure, o)

    def test_orthogonality_is_checked_before_the_grading(self):
        n = 2
        m = embed_chiral(2.0 * np.eye(n))
        m[:n, :n] = [[0.0, 1.0], [-1.0, 0.0]]
        with pytest.raises(SymmetryError, match="^complex structure must be orthogonal$"):
            ComplexStructure(m, ChiralFrame(n, n))
        m = embed_chiral(np.eye(n))
        m[:n, :n] = [[0.0, 0.5], [-0.5, 0.0]]
        with pytest.raises(SymmetryError, match="^complex structure must be orthogonal$"):
            ComplexStructure(m, ChiralFrame(n, n))

    def test_pi_index_mod_2_mismatch(self, monkeypatch):
        import z2flow.pairs as pairs_module

        s = random_chiral_structure(np.random.default_rng(16), 3)
        pair = FredholmPair(s, s)
        # three singular values of U0 - U1 at 2: an odd count on a kernel 0
        monkeypatch.setattr(pairs_module, "singular_values",
                            lambda a: np.full(a.shape[0], 2.0))
        with pytest.raises(StructureError) as info:
            pi_index(pair)
        assert str(info.value) == \
            "index formulas disagree (kernel/2=0, complex counts=[3, 3])"
