"""Tests for equivalent-channel factorization and structure detection."""

import numpy as np
import pytest

from bostbc import codes
from bostbc.codes import (
    GOLDEN_ORDERING_222,
    GOLDEN_ORDERING_421,
    GOLDEN_ORDERING_SCRAMBLED,
    alamouti_code,
    bhv_code,
    cda_2x2,
    code_from_json,
    code_to_json,
    construction_ii,
    cuwd_rate1_4group,
    golden_code,
    golden_linear_forms,
    named_code,
    reorder,
)
from bostbc.decoder import _layout
from bostbc.linalg import check_expand, cvec, gram_schmidt_qr, tilde_vec
from bostbc.structure import (
    BlockOrthogonalProfile,
    TooFewReceiveAntennas,
    classify,
    detect_profile,
    equivalent_channel,
    ordering_search,
    profile_validates,
    r_factorize,
    random_channel,
    structural_pattern,
    verify_cuwd_sum_structure,
    verify_hr_grouping,
    verify_paraunitary_premises,
    verify_multi_block_premises,
)

from conftest import (
    GOLDEN_PATTERN_222,
    GOLDEN_PATTERN_421,
    GOLDEN_PATTERN_SCRAMBLED,
)


class TestEquivalentChannel:
    def test_trivial_code(self):
        code = codes._make_code([np.eye(1)], ["x1"])
        h_eq = equivalent_channel(code, np.array([[1.0 + 0j]]))
        assert h_eq.shape == (2, 1)
        assert np.array_equal(h_eq, np.array([[1.0], [0.0]]))

    def test_column_route_agrees_with_kron_route(self, rng):
        code = golden_code()
        h = random_channel(2, 2, rng)
        h_eq = equivalent_channel(code, h)
        for i, w in enumerate(code.weights):
            col = tilde_vec(cvec(h @ w))
            assert np.abs(h_eq[:, i] - col).max() < 1e-12

    def test_alamouti_columns_orthogonal(self, rng):
        code = alamouti_code()
        h = random_channel(2, 2, rng)
        h_eq = equivalent_channel(code, h)
        gram = h_eq.T @ h_eq
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 1e-12

    def test_golden_222_gram_block_diagonal(self, rng):
        code = reorder(golden_code(), GOLDEN_ORDERING_222)
        h = random_channel(2, 2, rng)
        gram = equivalent_channel(code, h)[:, :4].T @ equivalent_channel(code, h)[:, :4]
        off = gram.copy()
        off[:2, :2] = 0
        off[2:, 2:] = 0
        assert np.abs(off).max() < 1e-12 * np.abs(gram).max()

    def test_too_few_receive_antennas(self):
        with pytest.raises(TooFewReceiveAntennas):
            equivalent_channel(golden_code(), np.ones((1, 2), dtype=complex))


class TestPatterns:
    def test_alamouti_diagonal(self, rng):
        fact = r_factorize(alamouti_code(), random_channel(2, 2, rng))
        assert np.array_equal(~fact.zero_pattern, np.eye(4, dtype=bool))

    @pytest.mark.parametrize("perm,expected", [
        (GOLDEN_ORDERING_421, GOLDEN_PATTERN_421),
        (GOLDEN_ORDERING_222, GOLDEN_PATTERN_222),
        (GOLDEN_ORDERING_SCRAMBLED, GOLDEN_PATTERN_SCRAMBLED),
    ])
    def test_golden_reference_patterns(self, perm, expected):
        pattern = structural_pattern(reorder(golden_code(), perm))
        assert np.array_equal(pattern, expected)

    @pytest.mark.parametrize("tol_rel", [-1.0, np.nan, np.inf, 1.0])
    def test_tol_outside_unit_interval_rejected(self, tol_rel):
        # at 1 even the largest entry would count as zero
        with pytest.raises(ValueError, match="tol_rel"):
            structural_pattern(bhv_code(), tol_rel=tol_rel)

    def test_pattern_channel_independent(self, rng):
        # the boolean support is the same on every draw for shipped codes
        for name in ("golden", "bhv", "srinath-rajan", "cda-2x2"):
            code = named_code(name)
            reference = None
            for _ in range(10):
                fact = r_factorize(code, random_channel(2, 2, rng))
                support = ~fact.zero_pattern
                if reference is None:
                    reference = support
                assert np.array_equal(support, reference)


def _profiles_up_to(n):
    for total in range(1, n + 1):
        for gamma_blocks in range(1, total + 1):
            for k in range(1, total + 1):
                if total % (gamma_blocks * k) == 0:
                    yield BlockOrthogonalProfile(gamma_blocks, k,
                                                 total // (gamma_blocks * k))


class TestStructuralZeros:
    PROFILES = list(_profiles_up_to(12))

    def test_matches_entry_oracle(self):
        assert len(self.PROFILES) == 74
        for profile in self.PROFILES:
            n, m, g = profile.total, profile.block_size, profile.gamma
            oracle = np.array([[i // m == j // m and j > i and i // g != j // g
                                for j in range(n)] for i in range(n)])
            mask = profile.structural_zeros()
            assert mask.dtype == bool
            assert np.array_equal(mask, oracle), profile
            mask[:] = True  # fresh per call: writing it changes no later mask
            assert np.array_equal(profile.structural_zeros(), oracle), profile

    def test_decoder_layout_uses_profile_mask(self):
        for profile in self.PROFILES:
            layout = _layout(profile, 2)
            assert np.array_equal(layout.structural_zero,
                                  profile.structural_zeros()), profile
            assert not layout.structural_zero.flags.writeable


class TestDetectProfile:
    def test_displays(self):
        assert detect_profile(GOLDEN_PATTERN_421).as_tuple() == (4, 2, 1)
        assert detect_profile(GOLDEN_PATTERN_222).as_tuple() == (2, 2, 2)
        assert detect_profile(GOLDEN_PATTERN_SCRAMBLED) is None

    def test_dense_pattern_has_no_profile(self):
        assert detect_profile(np.triu(np.ones((8, 8), dtype=bool))) is None

    def test_alamouti_gives_group_decodable_profile(self):
        assert detect_profile(np.eye(4, dtype=bool)).as_tuple() == (1, 4, 1)

    def test_rejects_lower_triangular_support(self):
        with pytest.raises(ValueError, match="upper-triangular"):
            detect_profile(np.ones((4, 4), dtype=bool))

    def test_detected_profile_revalidates(self):
        for pattern in (GOLDEN_PATTERN_421, GOLDEN_PATTERN_222,
                        np.eye(4, dtype=bool)):
            profile = detect_profile(pattern)
            assert profile_validates(pattern, profile)

    def test_validates_accepts_coarser_profile(self):
        # a fully diagonal conditioned block satisfies any sub-blocking
        pattern = structural_pattern(named_code("srinath-rajan"))
        assert profile_validates(pattern, BlockOrthogonalProfile(2, 2, 2))
        assert detect_profile(pattern).as_tuple() == (2, 4, 1)


class TestClassify:
    def test_alamouti_multi_group(self):
        report = classify(structural_pattern(alamouti_code()))
        assert report.classification == "multi-group"
        assert report.group_count == 4

    def test_bhv_block_orthogonal(self):
        report = classify(structural_pattern(bhv_code()))
        assert report.classification == "block-orthogonal"
        assert report.profile.as_tuple() == (2, 4, 1)

    def test_dense_unstructured(self):
        report = classify(np.triu(np.ones((6, 6), dtype=bool)))
        assert report.classification == "unstructured"

    def test_scrambled_golden_fast_decodable(self):
        report = classify(GOLDEN_PATTERN_SCRAMBLED)
        assert report.profile is None
        assert report.classification == "fast-decodable"

    def test_report_serializes(self):
        data = classify(structural_pattern(bhv_code())).to_json()
        assert data["classification"] == "block-orthogonal"
        assert data["profile"] == [2, 4, 1]


class TestHrGrouping:
    def test_alamouti_singletons(self):
        code = alamouti_code()
        assert verify_hr_grouping(code, [(0,), (1,), (2,), (3,)])

    def test_cuwd_table_columns(self):
        design = cuwd_rate1_4group(2)
        code = codes._make_code(design.weights, [f"x{i}" for i in range(8)])
        assert verify_hr_grouping(code, design.groups)

    def test_golden_two_part_split_fails(self):
        code = golden_code()
        assert not verify_hr_grouping(code, [tuple(range(4)), tuple(range(4, 8))])

    def test_partition_required(self):
        with pytest.raises(ValueError, match="partition"):
            verify_hr_grouping(alamouti_code(), [(0, 1), (1, 2, 3)])


class TestSufficientConditionPremises:
    def test_golden_222_two_block_conditions(self):
        code = named_code("ciii-golden")
        report = verify_multi_block_premises(code, BlockOrthogonalProfile(2, 2, 2))
        assert report.all_pass
        assert report.condition("ete-block-diagonal-at-4").residual < 1e-9
        assert report.condition("block-1-group-decodable").passed
        assert report.condition("block-2-group-decodable").passed

    def test_bhv_two_block_conditions(self):
        report = verify_multi_block_premises(bhv_code(),
                                             BlockOrthogonalProfile(2, 4, 1))
        assert report.all_pass
        assert report.condition("ete-block-diagonal-at-4").residual < 1e-9

    def test_rank_deficient_code_fails_condition_iii(self):
        # duplicated halves; built through the JSON path, which skips the
        # generator rank gate
        data = code_to_json(alamouti_code())
        data["weights"] = data["weights"] + data["weights"]
        data["k_real"] = 8
        data["labels"] = [f"x{i}" for i in range(8)]
        broken = code_from_json(data)
        report = verify_multi_block_premises(broken, BlockOrthogonalProfile(2, 2, 2))
        assert not report.condition("r-full-rank").passed
        assert not report.all_pass

    def test_construction_ii_golden_all_splits(self):
        code = construction_ii(golden_linear_forms())
        report = verify_multi_block_premises(code, BlockOrthogonalProfile(4, 2, 1))
        assert report.all_pass
        pattern = structural_pattern(code)
        assert detect_profile(pattern).as_tuple() == (4, 2, 1)

    def test_unstructured_weights_fail_some_split(self, rng):
        weights = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                   for _ in range(8)]
        code = codes._make_code(weights, [f"x{i}" for i in range(8)])
        report = verify_multi_block_premises(code, BlockOrthogonalProfile(4, 2, 1))
        assert not report.all_pass

    def test_single_complex_symbol_vacuous(self):
        code = construction_ii([np.array([[1.0 + 0j]])])
        report = verify_multi_block_premises(code, BlockOrthogonalProfile(1, 2, 1))
        assert report.all_pass  # no splits to check; group conditions only

    def test_paraunitary_orthonormal_completion_passes(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        report = verify_paraunitary_premises(
            [np.eye(2, dtype=complex), np.array([[0, -1], [1, 0]], dtype=complex)],
            q[:, :2],
        )
        assert report.hr_orthogonal
        assert report.identity_residual < 1e-12
        assert report.para_unitary

    def test_paraunitary_zero_e_fails(self):
        report = verify_paraunitary_premises([np.eye(2, dtype=complex)], np.zeros((4, 2)))
        assert not report.para_unitary

    def test_paraunitary_construction_ii_split_diagonal(self, rng):
        code = cda_2x2()
        fact = r_factorize(code, random_channel(2, 2, rng))
        e = fact.qr.r[:2, 2:]
        report = verify_paraunitary_premises(code.weights[2:], e)
        assert report.hr_orthogonal
        assert report.offdiag_residual < 1e-9


@pytest.mark.parametrize("n_channels", [0, -3])
@pytest.mark.parametrize("check", [
    lambda n: structural_pattern(bhv_code(), n_channels=n),
    lambda n: verify_multi_block_premises(
        bhv_code(), BlockOrthogonalProfile(2, 4, 1), n_channels=n),
    lambda n: verify_cuwd_sum_structure(bhv_code(), n_channels=n),
], ids=["structural_pattern", "verify_multi_block_premises",
        "verify_cuwd_sum_structure"])
def test_channel_draws_need_at_least_one_channel(check, n_channels):
    # zero draws would report every entry zero and every premise as holding
    with pytest.raises(ValueError, match="n_channels must be >= 1"):
        check(n_channels)


class TestCuwdSumStructure:
    def test_bhv_holds(self):
        report = verify_cuwd_sum_structure(bhv_code(), n_channels=50)
        assert report.passes(1e-9)
        assert report.e_structure_orientation == -1  # size-2 designs mirror

    def test_canonical_a1_holds(self):
        report = verify_cuwd_sum_structure(named_code("ci-a1"),
                                                    n_channels=50)
        assert report.passes(1e-9)

    def test_a2_matches_reference_layout(self):
        report = verify_cuwd_sum_structure(named_code("ci-a2"),
                                                    n_channels=50)
        assert report.passes(1e-9)
        assert report.e_structure_orientation == +1
        assert report.e_structure_reference < 1e-9

    def test_golden_flags_structure_absent(self):
        report = verify_cuwd_sum_structure(golden_code(), n_channels=10)
        assert not report.passes(1e-9)
        assert report.e_structure > 1e-3  # sign relations genuinely fail


class TestStructureIdentities:
    def test_split_gram_identity(self, rng):
        # H2' H2 - E' E = R2' R2 at every split of the conditioned region
        for name in ("ciii-golden", "bhv"):
            code = named_code(name)
            half = code.k_real // 2
            h = random_channel(2, 2, rng)
            h_eq = equivalent_channel(code, h)
            res = gram_schmidt_qr(h_eq)
            h2 = h_eq[:, half:]
            e = res.r[:half, half:]
            r2 = res.r[half:, half:]
            lhs = h2.T @ h2 - e.T @ e
            rel = np.abs(lhs - r2.T @ r2).max() / np.abs(r2.T @ r2).max()
            assert rel < 1e-9

    def test_construction_ii_r_is_check_of_complex_r(self, rng):
        # oracle: complex QR with positive real diagonal, then check-expand
        code = construction_ii(golden_linear_forms())
        h = random_channel(2, 2, rng)
        h_eq_c = np.column_stack([cvec(h @ c) for c in golden_linear_forms()])
        qc, rc = np.linalg.qr(h_eq_c)
        phase = np.diag(rc).copy()
        phase /= np.abs(phase)
        rc = np.diag(phase.conj()) @ rc
        expected = check_expand(rc)
        fact = r_factorize(code, h)
        assert np.abs(fact.qr.r - expected).max() < 1e-10 * np.abs(rc).max()
        # consequence: every (2i-1, 2i) entry is structurally zero
        pattern = structural_pattern(code)
        for i in range(4):
            assert not pattern[2 * i, 2 * i + 1]


class TestOrderingSearch:
    def test_golden_achieves_finest_split(self):
        perm, profile = ordering_search(golden_code())
        assert profile.as_tuple() == (4, 2, 1)

    def test_alamouti_identity_order(self):
        perm, profile = ordering_search(alamouti_code())
        assert perm == (0, 1, 2, 3)
        assert profile.as_tuple() == (1, 4, 1)

    def test_scrambled_golden_recovered(self):
        scrambled = reorder(golden_code(), GOLDEN_ORDERING_SCRAMBLED)
        perm, profile = ordering_search(scrambled)
        assert profile is not None
        assert profile.as_tuple() in ((4, 2, 1), (2, 2, 2))
        recovered = structural_pattern(reorder(scrambled, perm))
        assert profile_validates(recovered, profile)
