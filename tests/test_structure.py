"""Tests for equivalent-channel factorization and structure detection."""

import hashlib
import re

import numpy as np
import pytest

from bostbc import codes
from bostbc.codes import (
    CODE_NAMES,
    GOLDEN_ORDERING_222,
    GOLDEN_ORDERING_421,
    GOLDEN_ORDERING_SCRAMBLED,
    alamouti_code,
    bhv_code,
    cda_2x2,
    code_from_json,
    code_to_json,
    construction_ii,
    golden_code,
    golden_linear_forms,
    named_code,
    reorder,
)
from bostbc.decoder import _zero_cut
from bostbc.linalg import check_expand, cvec, gram_schmidt_qr, tilde_vec
from bostbc.structure import (
    DEFAULT_TOL_REL,
    BlockOrthogonalProfile,
    TooFewReceiveAntennas,
    _cut_points,
    _has_fast_split,
    classify,
    detect_profile,
    equivalent_channel,
    ordering_search,
    profile_validates,
    random_channel,
    structural_pattern,
    verify_cuwd_sum_structure,
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

    @pytest.mark.parametrize("shape", [(2,), (), (2, 2, 1), (2, 3)])
    def test_channel_not_n_r_by_n_t_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"channel must be an n_r x 2 matrix, got shape {shape}")):
            equivalent_channel(golden_code(), np.ones(shape, dtype=complex))


class TestPatterns:
    def test_alamouti_diagonal(self, rng):
        h_eq = equivalent_channel(alamouti_code(), random_channel(2, 2, rng))
        abs_r = np.abs(gram_schmidt_qr(h_eq).r)
        support = abs_r > DEFAULT_TOL_REL * abs_r.max()
        assert np.array_equal(support, np.eye(4, dtype=bool))

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
                h = random_channel(2, 2, rng)
                abs_r = np.abs(gram_schmidt_qr(equivalent_channel(code, h)).r)
                support = abs_r > DEFAULT_TOL_REL * abs_r.max()
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
        # the walk's misplaced-entry cut: 0 below the diagonal, the zero
        # tolerance on the profile's structural zeros, 1 elsewhere
        for profile in self.PROFILES:
            zero_cut = _zero_cut(profile)
            below = np.tri(profile.total, k=-1, dtype=bool)
            want = np.where(profile.structural_zeros(), DEFAULT_TOL_REL,
                            np.where(below, 0.0, 1.0))
            assert np.array_equal(zero_cut, want), profile
            assert not zero_cut.flags.writeable


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

    @pytest.mark.parametrize("shape", [(2, 2, 1), (5, 2, 1), (3, 2, 2)])
    def test_validates_rejects_profile_of_another_size(self, shape):
        # golden's 8 symbols against a claim over 4, 10 and 12
        assert not profile_validates(GOLDEN_PATTERN_421,
                                     BlockOrthogonalProfile(*shape))


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

    @pytest.mark.parametrize("pattern, named", [
        (np.tril(np.ones((4, 4), dtype=bool)),
         "pattern must have upper-triangular support"),
        (np.ones((4, 4), dtype=bool),
         "pattern must have upper-triangular support"),
        (np.eye(3, 2, dtype=bool), "pattern must be square"),
        (np.ones(4, dtype=bool), "pattern must be square"),
    ], ids=["lower-triangular", "full", "3x2", "1-d"])
    def test_refuses_what_detect_profile_refuses(self, pattern, named):
        # the first read "multi-group, g = 4", the third "multi-group,
        # g = 2", and the last raised IndexError
        for call in (classify, detect_profile,
                     lambda p: profile_validates(
                         p, BlockOrthogonalProfile(1, 2, 2))):
            with pytest.raises(ValueError, match=f"^{named}$"):
                call(pattern)

    def test_scrambled_golden_fast_decodable(self):
        report = classify(GOLDEN_PATTERN_SCRAMBLED)
        assert report.profile is None
        assert report.classification == "fast-decodable"

    def test_decoupled_fast_segments_are_fast_group(self):
        # two decoupled 3x3 segments, each coupled as a whole but with a
        # leading 2x2 block that splits
        seg = np.eye(3, dtype=bool)
        seg[:2, 2] = True
        pattern = np.zeros((6, 6), dtype=bool)
        pattern[:3, :3] = pattern[3:, 3:] = seg
        report = classify(pattern)
        assert report.classification == "fast-group"
        assert report.group_count == 2
        assert classify(seg).classification == "fast-decodable"

    def test_fast_split_matches_leading_block_search(self):
        # the definition: some leading principal block of size 2 .. K - 1
        # has a cut point
        def oracle(pattern):
            k = pattern.shape[0]
            return any(_cut_points(pattern[:n, :n]) for n in range(2, k))

        rng = np.random.default_rng(31)
        for _ in range(3000):
            k = int(rng.integers(1, 11))
            density = rng.uniform(0.05, 0.95)
            pattern = np.triu(rng.random((k, k)) < density)
            pattern[np.diag_indices(k)] = True
            assert _has_fast_split(pattern) == oracle(pattern), pattern

    def test_report_serializes(self):
        data = classify(structural_pattern(bhv_code())).to_json()
        assert data["classification"] == "block-orthogonal"
        assert data["profile"] == [2, 4, 1]


@pytest.mark.parametrize("call", [
    lambda profile: profile_validates(GOLDEN_PATTERN_421, profile),
    lambda profile: verify_multi_block_premises(bhv_code(), profile),
], ids=["profile_validates", "verify_multi_block_premises"])
@pytest.mark.parametrize("profile, named", [
    ((2, 4, 1), "tuple"), (None, "NoneType")])
def test_profile_of_another_type_rejected(call, profile, named):
    # a declared profile tuple used to raise AttributeError
    with pytest.raises(ValueError, match="^profile must be a "
                       f"BlockOrthogonalProfile, got a {named}$"):
        call(profile)


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
        # the smallest construction-II code: E^T E is diagonal at its one split
        report = verify_multi_block_premises(cda_2x2(), BlockOrthogonalProfile(2, 2, 1))
        assert report.all_pass
        assert report.condition("ete-block-diagonal-at-2").residual < 1e-9

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


CHANNEL_CHECKS = pytest.mark.parametrize("check", [
    lambda n: structural_pattern(bhv_code(), n_channels=n),
    lambda n: verify_multi_block_premises(
        bhv_code(), BlockOrthogonalProfile(2, 4, 1), n_channels=n),
    lambda n: verify_cuwd_sum_structure(bhv_code(), n_channels=n),
    lambda n: ordering_search(bhv_code(), n_channels=n),
], ids=["structural_pattern", "verify_multi_block_premises",
        "verify_cuwd_sum_structure", "ordering_search"])


@pytest.mark.parametrize("n_channels", [0, -3])
@CHANNEL_CHECKS
def test_channel_draws_need_at_least_one_channel(check, n_channels):
    # zero draws would report every entry zero and every premise as holding
    with pytest.raises(ValueError, match="n_channels must be >= 1"):
        check(n_channels)


@pytest.mark.parametrize("n_channels", [2.5, True])
@CHANNEL_CHECKS
def test_channel_draws_need_an_integer_count(check, n_channels):
    with pytest.raises(ValueError,
                       match=f"^n_channels = {n_channels} must be an integer$"):
        check(n_channels)


@CHANNEL_CHECKS
def test_channel_draws_take_a_numpy_integer(check):
    check(np.int64(3))


@pytest.mark.parametrize("check", [
    lambda seed: structural_pattern(bhv_code(), seed=seed),
    lambda seed: verify_multi_block_premises(
        bhv_code(), BlockOrthogonalProfile(2, 4, 1), seed=seed),
    lambda seed: verify_cuwd_sum_structure(bhv_code(), seed=seed),
    lambda seed: ordering_search(bhv_code(), seed=seed),
], ids=["structural_pattern", "verify_multi_block_premises",
        "verify_cuwd_sum_structure", "ordering_search"])
@pytest.mark.parametrize("seed", ["a", -1, 2.0, True])
def test_channel_draws_need_a_non_negative_integer_seed(check, seed):
    # numpy's SeedSequence raised a stray TypeError for "a" and 2.0
    with pytest.raises(ValueError,
                       match=f"^seed = {re.escape(repr(seed))} must be an "
                             "integer >= 0$"):
        check(seed)


@pytest.mark.parametrize("tol_rel", ["a", None, True])
def test_pattern_tolerance_must_be_a_number(tol_rel):
    # 0.0 <= "a" raised a stray TypeError; True read as a tolerance of 1
    with pytest.raises(ValueError, match=f"^tol_rel = {tol_rel} must satisfy "):
        structural_pattern(bhv_code(), tol_rel=tol_rel)


@pytest.mark.parametrize("call, error, named", [
    (lambda: detect_profile(np.ones((2, 3), dtype=bool)),
     ValueError, "pattern must be square"),
    (lambda: verify_multi_block_premises(bhv_code(),
                                         BlockOrthogonalProfile(2, 2, 1)),
     ValueError, "profile size must match the code"),
    (lambda: verify_cuwd_sum_structure(alamouti_code()),
     ValueError, "construction-I codes have K = 8*lambda symbols"),
    (lambda: verify_multi_block_premises(
        bhv_code(), BlockOrthogonalProfile(2, 4, 1)).condition("nosuch"),
     KeyError, "'nosuch'"),
], ids=["detect_profile", "verify_multi_block_premises",
        "verify_cuwd_sum_structure", "PremiseReport.condition"])
def test_malformed_request_rejected(call, error, named):
    with pytest.raises(error, match=f"^{re.escape(named)}$"):
        call()


class TestProfileParameters:
    @pytest.mark.parametrize("params, named", [
        ((0, 1, 1), "profile parameters must be >= 1"),
        ((2.0, 2, 1), "gamma_blocks = 2.0 must be an integer"),
        ((2, 2.5, 1), "k = 2.5 must be an integer"),
        ((2, 2, True), "gamma = True must be an integer"),
    ])
    def test_rejected(self, params, named):
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            BlockOrthogonalProfile(*params)

    def test_numpy_integers_stored_as_int(self):
        profile = BlockOrthogonalProfile(*np.array([2, 4, 1]))
        assert profile == BlockOrthogonalProfile(2, 4, 1)
        assert [type(p) for p in profile.as_tuple()] == [int, int, int]


class TestCuwdSumStructure:
    def test_bhv_holds(self):
        report = verify_cuwd_sum_structure(bhv_code(), n_channels=50)
        assert report.passes()
        assert report.e_structure_orientation == -1  # size-2 designs mirror

    def test_canonical_a1_holds(self):
        report = verify_cuwd_sum_structure(named_code("ci-a1"),
                                                    n_channels=50)
        assert report.passes()

    def test_a2_matches_reference_layout(self):
        report = verify_cuwd_sum_structure(named_code("ci-a2"),
                                                    n_channels=50)
        assert report.passes()
        assert report.e_structure_orientation == +1

    def test_golden_flags_structure_absent(self):
        report = verify_cuwd_sum_structure(golden_code(), n_channels=10)
        assert not report.passes()
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
        r = gram_schmidt_qr(equivalent_channel(code, h)).r
        assert np.abs(r - expected).max() < 1e-10 * np.abs(rc).max()
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


def _duplicated_alamouti():
    """Alamouti's weights twice over: every equivalent channel of it has
    rank 4 of 8.  Built through the JSON path, which skips the generator
    rank gate."""
    data = code_to_json(alamouti_code())
    data["weights"] = data["weights"] + data["weights"]
    data["k_real"] = 8
    data["labels"] = [f"x{i}" for i in range(8)]
    return code_from_json(data)


def _structure_records():
    """Every structural output of the sampled checks, as text: patterns by
    their bytes, residuals by ``float.hex``."""
    def residual(x):
        return None if x is None else float(x).hex()

    for name in CODE_NAMES:
        code = named_code(name)
        for n_r in (None, 3):
            pattern = structural_pattern(code, n_r=n_r)
            yield f"pattern {name} {n_r} {pattern.shape} {pattern.tobytes().hex()}"
        yield f"ordering {name} {ordering_search(code)}"
    premises = [(name, named_code(name).declared_profile) for name in CODE_NAMES
                if named_code(name).declared_profile is not None]
    # golden (8, 1, 1): k = 1 splits read 0.0 and its zero first coupling
    # column inf; alamouti (2, 2, 1): a coupling zero only to rounding;
    # cda-2x2 (2, 1, 2): k = 1; duplicated Alamouti: never full rank
    premises += [("golden", (8, 1, 1)), ("alamouti", (2, 2, 1)),
                 ("cda-2x2", (2, 1, 2)), ("duplicated-alamouti", (2, 2, 2))]
    for name, shape in premises:
        code = (_duplicated_alamouti() if name == "duplicated-alamouti"
                else named_code(name))
        report = verify_multi_block_premises(
            code, BlockOrthogonalProfile(*shape))
        yield f"premises {name} {shape} " + " ".join(
            f"{c.name}:{c.passed}:{residual(c.residual)}"
            for c in report.conditions)
    for name in ("bhv", "ci-a1", "ci-a2", "golden"):
        rep = verify_cuwd_sum_structure(named_code(name))
        yield (f"cuwd {name} {residual(rep.r1_blocks_equal)} "
               f"{residual(rep.r1_block_diagonal)} {residual(rep.e_structure)} "
               f"{rep.e_structure_orientation} {residual(rep.r2_block_diagonal)}")


class TestStructureDigest:
    # every structural pattern, ordering, premise residual and sum-structure
    # residual bit, as one digest; any change to the draws, the equivalent
    # channel, the QR or the checks' arithmetic moves it
    EXPECTED = (55, "8172414c485a872e")

    def test_structure_digest_is_pinned(self):
        h = hashlib.sha256()
        count = 0
        for record in _structure_records():
            h.update(record.encode() + b"\n")
            count += 1
        assert (count, h.hexdigest()[:16]) == self.EXPECTED

    def test_edge_profiles_read_as_before(self):
        # the digest's edge cases, spelled out
        def residuals(code, shape):
            report = verify_multi_block_premises(
                code, BlockOrthogonalProfile(*shape))
            return [(c.passed, c.residual) for c in report.conditions
                    if c.name.startswith("ete-")]

        assert (False, float("inf")) in residuals(golden_code(), (8, 1, 1))
        assert residuals(alamouti_code(), (2, 2, 1)) == [(False, float("inf"))]
        assert residuals(named_code("cda-2x2"), (2, 1, 2)) == [(True, 0.0)]
        report = verify_multi_block_premises(_duplicated_alamouti(),
                                             BlockOrthogonalProfile(2, 2, 2))
        assert not report.condition("r-full-rank").passed
        assert report.condition("ete-block-diagonal-at-4").residual == 0.0
