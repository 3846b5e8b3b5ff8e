"""Tests for the code constructors, sum constructions and serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest

from bostbc import codes
from bostbc.codes import (
    CODE_NAMES,
    GOLDEN_ORDERING_222,
    GOLDEN_ORDERING_421,
    GOLDEN_ORDERING_SCRAMBLED,
    InvalidPermutation,
    M_A2,
    M_GOLDEN,
    M_SRINATH_RAJAN,
    PremiseViolated,
    RankDeficient,
    UnsupportedSize,
    alamouti_code,
    bhv_code,
    cda_2x2,
    ciod,
    code_from_json,
    code_to_json,
    construction_i,
    construction_ii,
    construction_iii,
    construction_iv,
    cuwd_rate1_4group,
    generator_matrix,
    golden_code,
    golden_diagonal_half,
    golden_linear_forms,
    load_code,
    named_code,
    reorder,
    save_code,
    srinath_rajan_code,
)
from bostbc.linalg import cvec, tilde_vec

SQRT5 = math.sqrt(5.0)
THETA = (1 + SQRT5) / 2
ALPHA = 1 + 1j * (1 - THETA)
ALPHA_BAR = 1 + 1j * (1 - (1 - SQRT5) / 2)


def hr_defect(a, b):
    return np.abs(a @ b.conj().T + b @ a.conj().T).max()


def cuwd_groups(design):
    """A CUWD's four groups: contiguous quarters of its ``K = 4 lam``
    weights."""
    lam = design.k_real // 4
    return [range(g * lam, (g + 1) * lam) for g in range(4)]


def ciod_groups(design):
    """A CIOD's groups: weights 2g and 2g+1, one pair per interleaved
    input."""
    return [range(2 * g, 2 * g + 2) for g in range(design.k_real // 2)]


def same_column_space(code_a, code_b):
    ga, gb = generator_matrix(code_a), generator_matrix(code_b)
    return np.linalg.matrix_rank(np.hstack([ga, gb]), tol=1e-8) == code_a.k_real


class TestGoldenCode:
    def test_single_symbol_codeword(self):
        code = golden_code()
        x = np.zeros(8)
        x[0] = 1.0  # s1 = 1, everything else 0
        expected = np.diag([ALPHA, ALPHA_BAR]) / SQRT5
        assert np.abs(code.codeword(x) - expected).max() < 1e-15

    def test_codeword_needs_k_symbols(self):
        with pytest.raises(ValueError, match="^expected 8 real symbols, got 7$"):
            golden_code().codeword(np.zeros(7))

    def test_zero_symbols_give_zero_matrix(self):
        assert np.abs(golden_code().codeword(np.zeros(8))).max() == 0.0

    def test_generator_rank(self):
        g = generator_matrix(golden_code())
        assert np.linalg.matrix_rank(g, tol=1e-10) == 8

    def test_quadrature_weights(self):
        code = golden_code()
        for i in range(0, 8, 2):
            assert np.abs(code.weights[i + 1] - 1j * code.weights[i]).max() == 0.0


class TestBhvCode:
    def test_default_rotation_is_unitary(self):
        code = bhv_code()
        assert code.k_real == 8
        assert code.declared_profile == (2, 4, 1)

    def test_rotated_flip_second_block(self):
        # z1 = cos(theta) s3 - sin(theta) s4 and z2 = sin(theta) s3 +
        # cos(theta) s4, so s3I's weight is T (cos(theta) A0 + sin(theta) A2)
        code = bhv_code()
        theta = math.atan(2.0) / 2
        a0, a2 = code.weights[0], code.weights[2]
        want = np.diag([1.0, -1.0]) @ (math.cos(theta) * a0 + math.sin(theta) * a2)
        assert np.abs(code.weights[4] - want).max() <= 1e-15 * np.abs(want).max()

    def test_first_block_is_alamouti(self):
        code = bhv_code()
        assert np.array_equal(code.weights[0], np.eye(2))
        assert np.array_equal(code.weights[2], np.array([[0, -1], [1, 0]]))


_E = np.exp(1j * np.pi / 4)

#: The Srinath-Rajan weights written out entry by entry, in the shipped
#: symbol order; the reference for the construction-IV recipe.
SRINATH_RAJAN_WEIGHTS = (
    np.diag([1, 0]).astype(complex),        # x1I
    np.diag([1j, 0]),                        # x2Q
    np.diag([0, 1]).astype(complex),         # x2I
    np.diag([0, 1j]),                        # x1Q
    np.array([[0, _E], [0, 0]]),             # x3I
    np.array([[0, 1j * _E], [0, 0]]),        # x4Q
    np.array([[0, 0], [_E, 0]]),             # x4I
    np.array([[0, 0], [1j * _E, 0]]),        # x3Q
)


class TestSrinathRajanCode:
    def test_matches_reference_table(self):
        code = srinath_rajan_code()
        want = np.array(SRINATH_RAJAN_WEIGHTS, dtype=complex)
        assert code.weights.tobytes() == want.tobytes()
        assert code.labels == ("x1I", "x2Q", "x2I", "x1Q",
                               "x3I", "x4Q", "x4I", "x3Q")
        assert code.declared_profile == (2, 2, 2)

    def test_entry_placement(self):
        code = srinath_rajan_code()
        x = np.zeros(8)
        x[code.labels.index("x1I")] = 1.0
        assert np.abs(code.codeword(x) - np.array([[1, 0], [0, 0]])).max() == 0.0
        x = np.zeros(8)
        x[code.labels.index("x2Q")] = 1.0
        assert np.abs(code.codeword(x) - np.array([[1j, 0], [0, 0]])).max() == 0.0

    def test_off_diagonal_phase(self):
        code = srinath_rajan_code()
        x = np.zeros(8)
        x[code.labels.index("x3I")] = 1.0
        e = np.exp(1j * np.pi / 4)
        assert np.abs(code.codeword(x) - np.array([[0, e], [0, 0]])).max() < 1e-15

    def test_zero_matrix(self):
        assert np.abs(srinath_rajan_code().codeword(np.zeros(8))).max() == 0.0


class TestCuwd:
    def test_a1_matrices(self):
        design = cuwd_rate1_4group(1)
        assert design.k_real == 4  # lam = 1
        assert design.labels == ("x1", "x2", "x3", "x4")
        expected = [
            np.eye(2),
            np.diag([1j, -1j]),
            np.array([[0, 1j], [1j, 0]]),
            np.array([[0, 1], [-1, 0]]),
        ]
        for got, want in zip(design.weights, expected):
            assert np.abs(got - want).max() == 0.0
        # pairwise HR orthogonality, checked directly
        for i in range(4):
            for j in range(i + 1, 4):
                assert hr_defect(design.weights[i], design.weights[j]) < 1e-12

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_identity_head_and_count(self, a):
        design = cuwd_rate1_4group(a)
        assert len(design.weights) == design.k_real == 4 * 2 ** (a - 1)
        assert np.array_equal(design.weights[0], np.eye(2 ** a))

    def test_a2_first_row_squares_to_minus_identity(self):
        design = cuwd_rate1_4group(2)
        eye = np.eye(4)
        lam = design.k_real // 4
        for idx in (lam, 2 * lam, 3 * lam):
            w = design.weights[idx]
            assert np.abs(w @ w + eye).max() < 1e-12

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_cross_group_hr_orthogonality(self, a):
        design = cuwd_rate1_4group(a)
        groups = cuwd_groups(design)
        for gi in range(4):
            for gj in range(gi + 1, 4):
                for i in groups[gi]:
                    for j in groups[gj]:
                        assert hr_defect(design.weights[i], design.weights[j]) < 1e-12

    def test_unsupported_size(self):
        with pytest.raises(UnsupportedSize):
            cuwd_rate1_4group(4)


def _ciod2_weight(block, slot, coef):
    """One weight of the 4x4 CIOD, written out: ``coef`` at slot "a" (the
    diagonal, conjugated below) or "b" (the anti-diagonal, ``-conj`` above)
    of 2x2 diagonal block ``block``."""
    out = np.zeros((4, 4), dtype=complex)
    o = 2 * block
    if slot == "a":
        out[o, o] = coef
        out[o + 1, o + 1] = np.conj(coef)
    else:
        out[o, o + 1] = -np.conj(coef)
        out[o + 1, o] = coef
    return out


#: The 4x4 CIOD's weights written out entry by entry; the reference for
#: building it from two Alamouti designs.
CIOD2_WEIGHTS = (
    _ciod2_weight(0, "a", 1), _ciod2_weight(0, "a", 1j),    # x0I, x2Q
    _ciod2_weight(0, "b", 1), _ciod2_weight(0, "b", 1j),    # x1I, x3Q
    _ciod2_weight(1, "a", 1), _ciod2_weight(1, "a", 1j),    # x2I, x0Q
    _ciod2_weight(1, "b", 1), _ciod2_weight(1, "b", 1j),    # x3I, x1Q
)


class TestCiod:
    def test_a2_matches_reference_table(self):
        design = ciod(2)
        want = np.array(CIOD2_WEIGHTS)
        # equal as numbers; the table's -conj(1j) and the Alamouti design's
        # -1j differ only in the sign of a zero real part
        assert np.array_equal(design.weights, want)
        assert (design.weights + 0.0).tobytes() == (want + 0.0).tobytes()
        assert design.labels == ("x0I", "x2Q", "x1I", "x3Q",
                                 "x2I", "x0Q", "x3I", "x1Q")

    def test_a1_entries(self):
        design = ciod(1)
        x = {lab: i for i, lab in enumerate(design.labels)}
        w = design.weights
        assert np.array_equal(w[x["x0I"]], np.diag([1.0 + 0j, 0]))
        assert np.array_equal(w[x["x1Q"]], np.diag([1j, 0]))
        assert np.array_equal(w[x["x1I"]], np.diag([0, 1.0 + 0j]))
        assert np.array_equal(w[x["x0Q"]], np.diag([0, 1j]))

    def test_a2_four_group_decodable(self):
        design = ciod(2)
        groups = ciod_groups(design)
        assert len(groups) == 4
        for gi in range(4):
            for gj in range(4):
                if gi == gj:
                    continue
                for i in groups[gi]:
                    for j in groups[gj]:
                        assert hr_defect(design.weights[i], design.weights[j]) < 1e-12

    def test_unsupported_size(self):
        with pytest.raises(UnsupportedSize):
            ciod(3)


class TestConstructionI:
    def test_bhv_equivalence(self):
        # the rotated Alamouti sum spans the same real code
        built = construction_i(cuwd_rate1_4group(1),
                               codes.named_m_matrix("bhv"))
        assert built.declared_profile == (2, 4, 1)
        assert same_column_space(built, bhv_code())

    def test_a2_profile(self):
        built = construction_i(cuwd_rate1_4group(2), M_A2)
        assert built.k_real == 16
        assert built.declared_profile == (2, 4, 2)

    def test_identity_m_rank_deficient(self):
        with pytest.raises(RankDeficient):
            construction_i(cuwd_rate1_4group(1), np.eye(2))

    def test_second_half_is_m_times_first(self):
        m = codes.named_m_matrix("bhv")
        built = construction_i(cuwd_rate1_4group(1), m)
        for i in range(4):
            assert np.abs(built.weights[4 + i] - m @ built.weights[i]).max() < 1e-15

    @pytest.mark.parametrize("forms", [1, 3])
    def test_symbol_count_not_a_multiple_of_four(self, forms):
        x1 = construction_ii(golden_linear_forms()[:forms])  # K = 2 or 6
        with pytest.raises(PremiseViolated, match="K divisible by 4"):
            construction_i(x1, np.eye(2))

    def test_groups_not_hr_orthogonal(self):
        with pytest.raises(PremiseViolated, match="not four-group decodable"):
            construction_i(golden_code(), M_GOLDEN)


@pytest.mark.parametrize("build, n_t", [
    (lambda m: construction_i(cuwd_rate1_4group(1), m), 2),
    (lambda m: construction_iii(golden_diagonal_half(), m), 2),
    (lambda m: construction_iv(ciod(2), m), 4),
], ids=["i", "iii", "iv"])
def test_sum_constructions_check_m_shape(build, n_t):
    with pytest.raises(ValueError, match=f"^m must be {n_t}x{n_t}$"):
        build(np.eye(n_t + 1))


_NILPOTENT = np.array([[0, 1], [0, 0]], dtype=complex)


@pytest.mark.parametrize("call, error, named", [
    (lambda: construction_ii(()), ValueError, "need at least one linear form"),
    (lambda: construction_iii(codes._make_code([np.eye(2)], ["x1"]), M_GOLDEN),
     PremiseViolated, "two-group premise needs an even symbol count"),
    # Q halves are j times the I halves, but I and j N are not HR orthogonal
    (lambda: construction_iii(codes._make_code(
        [np.eye(2), _NILPOTENT, 1j * np.eye(2), 1j * _NILPOTENT],
        ["aI", "bI", "aQ", "bQ"]), M_GOLDEN),
     PremiseViolated, "halves are not two-group decodable"),
    (lambda: codes.ordering_from_labels(golden_code(), [f"y{i}" for i in range(8)]),
     InvalidPermutation, "labels do not match the code's symbols"),
    (lambda: codes.named_m_matrix("nosuch"),
     ValueError, "unknown m matrix 'nosuch'"),
], ids=["construction_ii", "construction_iii-odd-K",
        "construction_iii-halves", "ordering_from_labels", "named_m_matrix"])
def test_malformed_request_rejected(call, error, named):
    with pytest.raises(error, match=f"^{named}$"):
        call()


class TestHrOrthogonal:
    # the Alamouti weights are pairwise HR orthogonal; the identity appended
    # as weight 4 violates only with weight 0, which is also the identity
    WEIGHTS = tuple(alamouti_code().weights) + (np.eye(2, dtype=complex),)

    def test_violating_cross_group_pair(self):
        assert not codes.hr_orthogonal(self.WEIGHTS, [(i,) for i in range(5)])

    def test_violating_pair_in_one_group(self):
        assert codes.hr_orthogonal(self.WEIGHTS, [(0, 4), (1,), (2,), (3,)])

    def test_single_group(self):
        assert codes.hr_orthogonal(self.WEIGHTS, [range(5)])

    def test_cuwd_table_columns(self):
        design = cuwd_rate1_4group(2)
        assert codes.hr_orthogonal(design.weights, cuwd_groups(design))

    def test_golden_two_part_split_fails(self):
        weights = golden_code().weights
        assert not codes.hr_orthogonal(weights, [range(4), range(4, 8)])

    @staticmethod
    def pairwise(weights, groups):
        """Reference verdict: one product per cross-group pair."""
        groups = [tuple(g) for g in groups]
        return all(hr_defect(weights[i], weights[j]) <= 1e-12
                   for gi, first in enumerate(groups)
                   for second in groups[gi + 1:]
                   for i in first for j in second)

    @pytest.mark.parametrize("design, grouping", [
        (cuwd_rate1_4group(1), cuwd_groups), (cuwd_rate1_4group(2), cuwd_groups),
        (cuwd_rate1_4group(3), cuwd_groups), (ciod(1), ciod_groups),
        (ciod(2), ciod_groups)], ids=["cuwd-a1", "cuwd-a2", "cuwd-a3",
                                      "ciod-a1", "ciod-a2"])
    def test_matches_pairwise_reference(self, design, grouping):
        weights = [np.array(w) for w in design.weights]
        groups = grouping(design)
        assert codes.hr_orthogonal(weights, groups)
        assert self.pairwise(weights, groups)
        for i in range(len(weights)):
            bumped = list(weights)
            bumped[i] = weights[i] + 1e-9
            assert not self.pairwise(bumped, groups)
            assert not codes.hr_orthogonal(bumped, groups)

    def test_matches_pairwise_reference_on_shipped_codes(self):
        # the halves of every two-block code, and every code split into
        # single-weight groups, both ways of the verdict
        verdicts = set()
        for name in CODE_NAMES:
            weights = named_code(name).weights
            k = len(weights)
            for groups in ([range(k // 2), range(k // 2, k)],
                           [(i,) for i in range(k)]):
                want = self.pairwise(weights, groups)
                assert codes.hr_orthogonal(weights, groups) is want
                verdicts.add(want)
        assert verdicts == {True, False}


class TestConstructionII:
    def test_golden_forms(self):
        built = construction_ii(golden_linear_forms())
        assert built.declared_profile == (4, 2, 1)
        for i in range(0, 8, 2):
            assert np.abs(built.weights[i + 1] - 1j * built.weights[i]).max() == 0.0
        assert same_column_space(built, golden_code())

    def test_single_form(self):
        built = construction_ii([np.array([[1.0 + 0j]])])
        assert built.k_real == 2
        assert built.declared_profile == (1, 2, 1)

    def test_cda_instance(self):
        built = cda_2x2()
        assert built.declared_profile == (2, 2, 1)
        assert np.linalg.matrix_rank(generator_matrix(built), tol=1e-10) == 4


class TestConstructionIII:
    def test_golden_assembly(self):
        built = construction_iii(golden_diagonal_half(), M_GOLDEN)
        assert built.declared_profile == (2, 2, 2)
        # identical weight matrices to the reordered full Golden code
        target = reorder(golden_code(), GOLDEN_ORDERING_222)
        for a, b in zip(built.weights, target.weights):
            assert np.abs(a - b).max() < 1e-15

    def test_identity_m_rank_deficient(self):
        with pytest.raises(RankDeficient):
            construction_iii(golden_diagonal_half(), np.eye(2))

    def test_premise_checked(self):
        with pytest.raises(PremiseViolated):
            construction_iii(golden_code(), M_GOLDEN)  # not two-group ordered


class TestConstructionIV:
    def test_srinath_rajan_equivalence(self):
        built = construction_iv(ciod(1), M_SRINATH_RAJAN)
        assert built.declared_profile == (2, 2, 2)
        assert same_column_space(built, srinath_rajan_code())

    def test_identity_m_rank_deficient(self):
        with pytest.raises(RankDeficient):
            construction_iv(ciod(1), np.eye(2))

    def test_a2_declared_profile(self):
        built = construction_iv(ciod(2), M_A2)
        assert built.k_real == 16
        assert built.declared_profile == (2, 4, 2)


class TestReorder:
    def test_identity_permutation_is_noop(self):
        code = golden_code()
        assert reorder(code, range(8)) is code

    def test_round_trip(self):
        code = golden_code()
        perm = GOLDEN_ORDERING_222
        inverse = [perm.index(i) for i in range(8)]
        back = reorder(reorder(code, perm), inverse)
        assert back.labels == code.labels
        for a, b in zip(back.weights, code.weights):
            assert np.array_equal(a, b)

    def test_declared_profile_dropped(self):
        assert reorder(golden_code(), GOLDEN_ORDERING_421).declared_profile is None

    def test_invalid_permutation(self):
        with pytest.raises(InvalidPermutation):
            reorder(golden_code(), [0, 0, 1, 2, 3, 4, 5, 6])

    @pytest.mark.parametrize("perm", [
        "01234567", [0, 1, 2, 3, 4, 5, 6, 7.5], [0, 1, 2, 3, 4, 5, 6, 7.0],
        [True, False, 2, 3, 4, 5, 6, 7]])
    def test_non_integer_entries(self, perm):
        # int() would coerce every one of these into a permutation
        with pytest.raises(InvalidPermutation, match="must be integers"):
            reorder(golden_code(), perm)

    def test_numpy_integer_entries(self):
        perm = np.array(GOLDEN_ORDERING_222)
        assert reorder(golden_code(), perm).labels == reorder(
            golden_code(), GOLDEN_ORDERING_222).labels

    def test_orderings_are_permutations(self):
        for perm in (GOLDEN_ORDERING_421, GOLDEN_ORDERING_222,
                     GOLDEN_ORDERING_SCRAMBLED):
            assert sorted(perm) == list(range(8))


class TestWeightStack:
    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_read_only_complex_stack(self, name):
        code = named_code(name)
        w = code.weights
        assert type(w) is np.ndarray and w.dtype == np.complex128
        assert w.shape == (code.k_real, code.n_t, code.t)
        with pytest.raises(ValueError):
            w[0, 0, 0] = 1.0

    def test_replace_keeps_the_stack(self):
        code = reorder(golden_code(), GOLDEN_ORDERING_222)
        again = dataclasses.replace(code, declared_profile=(2, 2, 2))
        assert again.weights is code.weights

    def test_equality_is_identity(self):
        a, b = named_code("bhv"), named_code("bhv")
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a)
        keyed = {a: "first", b: "second"}
        assert (keyed[a], keyed[b]) == ("first", "second")
        assert len({a, b, a}) == 2

    def test_named_golden_222_is_the_reordered_stack(self):
        want = golden_code().weights[list(GOLDEN_ORDERING_222)]
        assert named_code("golden-222").weights.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(codes._SUM_CODES))
    def test_sum_code_halves_bit_exact(self, name):
        # the batched m @ stack must equal one product per weight, bit for bit
        _, base, default = codes._SUM_CODES[name]
        x1 = base()
        m = codes.named_m_matrix(default, x1.n_t)
        k = x1.k_real
        built = named_code(name)
        per_weight = np.array([m @ a for a in x1.weights])
        assert built.weights[:k].tobytes() == x1.weights.tobytes()
        assert built.weights[k:].tobytes() == per_weight.tobytes()


class TestGeneratorMatrix:
    def test_read_only_and_fresh_equal(self):
        for name in CODE_NAMES:
            code = named_code(name)
            g = generator_matrix(code)
            fresh = np.column_stack([tilde_vec(cvec(a)) for a in code.weights])
            assert np.array_equal(g, fresh)
            assert g.flags.c_contiguous and g.dtype == np.float64
            assert generator_matrix(code) is g  # computed once per code
            with pytest.raises(ValueError):
                g[0, 0] = 1.0

    def test_reorder_permutes_columns(self):
        code = golden_code()
        g = generator_matrix(code)
        for perm in (GOLDEN_ORDERING_421, GOLDEN_ORDERING_222,
                     GOLDEN_ORDERING_SCRAMBLED):
            assert np.array_equal(generator_matrix(reorder(code, perm)),
                                  g[:, list(perm)])

    def test_named_golden_222_is_reordered(self):
        g = generator_matrix(golden_code())
        assert np.array_equal(generator_matrix(named_code("golden-222")),
                              g[:, list(GOLDEN_ORDERING_222)])

    def test_json_round_trip_keeps_generator(self):
        code = bhv_code()
        generator_matrix(code)  # the cached matrix is not serialized
        data = code_to_json(code)
        assert set(data) == {"n_t", "t", "k_real", "labels", "weights",
                             "declared_profile"}
        loaded = code_from_json(json.dumps(data))
        assert code_to_json(loaded) == data
        assert np.array_equal(generator_matrix(loaded), generator_matrix(code))


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        code = golden_code()
        path = tmp_path / "golden.json"
        save_code(code, path)
        loaded = load_code(path)
        assert loaded.labels == code.labels
        assert loaded.declared_profile == code.declared_profile
        for a, b in zip(loaded.weights, code.weights):
            assert np.array_equal(a, b)  # exact, not approximate
        # a second dump produces identical bytes
        again = tmp_path / "golden2.json"
        save_code(loaded, again)
        assert path.read_bytes() == again.read_bytes()

    def test_schema_fields(self):
        data = code_to_json(bhv_code())
        assert set(data) == {"n_t", "t", "k_real", "labels", "weights",
                             "declared_profile"}
        assert data["k_real"] == 8
        parsed = code_from_json(json.dumps(data))
        assert parsed.k_real == 8

    @pytest.mark.parametrize("entry", [[1, "x"], [1, 2, 3], [True, False],
                                       [10 ** 400, 0], 1.0])
    def test_malformed_weight_entry_rejected(self, entry):
        data = code_to_json(alamouti_code())
        data["weights"][2][0][1] = entry
        with pytest.raises(ValueError, match=r"^weights\[2\]\[0\]\[1\] = "):
            code_from_json(data)

    @pytest.mark.parametrize("weight, named", [
        (7, r"weights\[1\] = 7 must be an array of rows"),
        ([[[1, 0]], [[1, 0], [0, 0]]], r"weights\[1\] rows must share one length"),
    ])
    def test_malformed_weight_matrix_rejected(self, weight, named):
        data = code_to_json(alamouti_code())
        data["weights"][1] = weight
        with pytest.raises(ValueError, match=f"^{named}"):
            code_from_json(data)

    @pytest.mark.parametrize("edit, named", [
        ({"n_t": 3}, "declared dimensions do not match the weights"),
        ({"t": 1}, "declared dimensions do not match the weights"),
        ({"labels": ["s1I", "s1Q", "s2I"]}, "need one label per weight matrix"),
        ({"weights": [[[[1, 0]]]] + code_to_json(alamouti_code())["weights"][1:]},
         "all weight matrices must share one shape"),
    ])
    def test_inconsistent_fields_rejected(self, edit, named):
        with pytest.raises(ValueError, match=f"^{named}$"):
            code_from_json(code_to_json(alamouti_code()) | edit)

    def test_overflowing_weight_rejected(self):
        # JSON reads 1e400 as inf
        text = json.dumps(code_to_json(alamouti_code())).replace("1.0", "1e400", 1)
        with pytest.raises(ValueError, match="^weight entries must be finite$"):
            code_from_json(text)

    def test_dimension_mismatch_rejected(self):
        data = code_to_json(alamouti_code())
        data["k_real"] = 3
        with pytest.raises(ValueError):
            code_from_json(data)


def test_named_code_registry():
    for name in ("alamouti", "golden", "golden-222", "bhv", "srinath-rajan",
                 "cda-2x2", "ci-a1", "ci-a2", "cii-golden", "ciii-golden",
                 "civ-a1", "civ-a2"):
        code = named_code(name)
        g = generator_matrix(code)
        assert np.linalg.matrix_rank(g, tol=1e-10) == code.k_real
    with pytest.raises(ValueError, match="unknown code"):
        named_code("silver")
