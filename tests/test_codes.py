"""Tests for the code constructors, sum constructions and serialization."""

import dataclasses
import hashlib
import json
import math
import re

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

    @pytest.mark.parametrize("a", [1.0, 2.0, True, "2"])
    def test_size_must_be_an_integer(self, a):
        # 1.0 used to pass the size check and then fail inside range()
        with pytest.raises(UnsupportedSize, match="^supported design sizes"):
            cuwd_rate1_4group(a)

    def test_numpy_integer_size(self):
        assert (cuwd_rate1_4group(np.int64(2)).weights.tobytes()
                == cuwd_rate1_4group(2).weights.tobytes())


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

    @pytest.mark.parametrize("a", [1.0, True, "1"])
    def test_size_must_be_an_integer(self, a):
        # True used to build ciod(1)
        with pytest.raises(UnsupportedSize, match="^supported design sizes"):
            ciod(a)


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

    @pytest.mark.parametrize("forms", [
        [np.eye(2), np.eye(3)],      # ragged stack
        [np.ones(2)],                # vectors, not matrices
        [np.ones((1, 2, 2))],        # a stack of stacks
    ], ids=["ragged", "vectors", "stacks"])
    def test_forms_not_one_matrix_shape_rejected(self, forms):
        with pytest.raises(ValueError,
                           match="^all weight matrices must share one shape$"):
            construction_ii(forms)

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

    def test_non_sequence_rejected(self):
        # tuple(5) raised a stray TypeError
        with pytest.raises(InvalidPermutation,
                           match="^perm = 5 must be a sequence of integers$"):
            reorder(golden_code(), 5)

    @pytest.mark.parametrize("labels", [5, [0, *golden_code().labels[1:]]],
                             ids=["non-sequence", "non-string"])
    def test_labels_of_another_type_rejected(self, labels):
        # list(5) and sorting an int among strings raised a stray TypeError
        with pytest.raises(InvalidPermutation, match="^labels "):
            codes.ordering_from_labels(golden_code(), labels)

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


#: The base designs of the sum codes (and the a = 3 CUWD), by name.
BASE_DESIGNS = {
    "cuwd-a1": lambda: cuwd_rate1_4group(1),
    "cuwd-a2": lambda: cuwd_rate1_4group(2),
    "cuwd-a3": lambda: cuwd_rate1_4group(3),
    "golden-diagonal-half": golden_diagonal_half,
    "ciod-a1": lambda: ciod(1),
    "ciod-a2": lambda: ciod(2),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def code_digests(code):
    """sha256 of the weight stack's, the generator matrix's and the code
    JSON's bytes; a flipped signed zero changes all three."""
    return (_sha256(code.weights.tobytes()),
            _sha256(generator_matrix(code).tobytes()),
            _sha256(json.dumps(code_to_json(code)).encode()))


class TestShippedCodeBytes:
    # digests of every shipped code and base design as first built; a
    # change to how a construction is computed must keep every byte
    EXPECTED = {
        "alamouti": (
            "5cd2e8cc4d757cd90ef309e43e9eb62f8fea4d038569f2660fdf4f2eed0dbc7c",
            "8bf46e5032a3da1ae5cecefd4de9e2d30423e83584e3b59a909ea05fc4ed0095",
            "a0e6d9c54bc1821f4bc6d8cc83be7fc94efe5fe8ce668dbcfdfea8a4bb407b71"),
        "golden": (
            "4ebeaf462cbf0d497dcf7e8966238e41bb2179fc0812cc6f36270cdde1ee8d6b",
            "e19cadcda21d611ca027730125a7b7200f909fe3e18593fd845820a8e1289f76",
            "592f573365a08c4395de86d501b70a24be40c8097a26b0dbe4b39c55eeab4c7a"),
        "golden-222": (
            "6c9351e5890313a5f6089e8d583c63dcf1864b21936b3d449d19ae277d47818e",
            "9f06538d85e31e81ecd8df888a0d1c279520d5c0f822bc1220fbd2221bafecd1",
            "3098fb7335302e4014f639520620ab8f3df8a0b4277fe215937bf4c5e9ac68a8"),
        "bhv": (
            "ac3301a4804d2ccc9819cb1ff1e294fb06ee4a97f66c9de33e066c7dce547c92",
            "acb59ed5dd0cb062a318615b89c00e059d6327e5ca1fa898b93175e2a155fda3",
            "520531280f75fd856cb8e27d5717d6f2b028eea2e91f0d798de94adcc216d4d0"),
        "srinath-rajan": (
            "429eb8817a87bf4aa09aea69afdf887b436b063111a7df52741e36c70611179b",
            "6ee77c789c145c36d3dcfff534768c459310950e5b2f136be75997b25dc494b2",
            "e80c8d9752b50864b36a07e22921fe754bdfb3c5fef25417a7b075716d6f7da5"),
        "cda-2x2": (
            "4aa151c230928dee72142cd6d59da3459787f29755d285f67d21f346ecb325d2",
            "a4e936e3f7dcf108aefbcf59644a023490def092c865ae88f05d3b992b59313b",
            "d630e2ddeb7b15ad36bde170c33d29691789c2a0c7b0d3e8e9f39928113782ec"),
        "cii-golden": (
            "4ebeaf462cbf0d497dcf7e8966238e41bb2179fc0812cc6f36270cdde1ee8d6b",
            "e19cadcda21d611ca027730125a7b7200f909fe3e18593fd845820a8e1289f76",
            "51d3eece5b8d21d976d7547cb8bcc8908265a1d4f1c47369eaa81daf12cd4451"),
        "ci-a1": (
            "60926cd6513c99601bac4d55477bdf49739d480fc023bf5040972c32a980c653",
            "10169df9b2536b298c706249a13358b5a3a5fd512fc3b66328ac1cab6785f154",
            "cade91d7ef3ae427f557ec90caa5409683ff19e5c5e4fa2fbf98f70ed6c55481"),
        "ci-a2": (
            "e68d09edd72648b63ce7578666979b5a721193b59b92341690157e56f57c6484",
            "82cde376702cd3ecb0adb497af0455704e7f8947d467e2eafe8f1e5106f01ec3",
            "3fb93554b45ec80d6933fecebd07f7ae32babc5e8170e7f470056ed240311956"),
        "ciii-golden": (
            "6afbd2c83fdb3d8ffde9297d7dbce0aa0b5a1b91a55fab26058bbcc0117cd9c5",
            "3e9eaa9e63faab0526b2644c8aceee3a31efe019283d279d6a6d4a6f385a1fb2",
            "478407230199364188b76675fc3c42b4f9e98d216bc4b3d2676b3ef4ba7a93bb"),
        "civ-a1": (
            "851836654e81ec08c6c0f557622f10b50c19add43d2118aa6319ca10f3b59437",
            "284bc4d930934b077f049d58e329ca3f70f9af88658b141d37de5b154ff333d1",
            "a589d6ee4220bda511a27c68682a238ad1d68720a8c0c3c736f47172b9a9440d"),
        "civ-a2": (
            "9c36a6e14f5fd0a4b327acef0d9228f03044b4a7c4a6b7d38c831ac910ae8bba",
            "ae866ec3d94cf73a561b4f18e5c9b263fb26409636b83cf8cce5d5e1ae423d17",
            "7e972eb8418434e47b155c3d40e1a92d8d180d6adcc795e6a572a5a90d86290f"),
        "cuwd-a1": (
            "58ae0e12e8517cdd1cf12771556686ff6c2040742824305abd109054d483abe9",
            "b01bfa12e2b4a76ca77aefa9105d17ca256edf44ee4bf1cf0306bbc2cc5a1a54",
            "516e5ca72f442a6499329e71b5d66d1d98a68578c312de5ca69b24f5ebbbfb2b"),
        "cuwd-a2": (
            "6114bc65f0d8ab94a02e17ee7fe81e6d5d159d71b222b5c49a3d24dc9f7bb55e",
            "454412d1cbb9dd5256261534e766f18adf6978ca06b23ac7c075372586c0aa74",
            "b071c855ff1e996a36c4b83a8f851010df05bbd7314233f8161c9d273fba7186"),
        "cuwd-a3": (
            "1e7ee9a1b1fb587e0b612a4dcbc8d44ef4086cbc54a88593c7170b1b20294400",
            "a4980146a9d0b4f5815f83e4a826bf602df7de0b9b7f843b3f7a896ca6114f31",
            "0ec2afee036b7a262c5ff6c7aa96e669da446bd4ae32d31f4ec758d253577f59"),
        "golden-diagonal-half": (
            "b64beed02248e49e3a672b7807c592d67a4793dc2a098198b8c2f77881e4092b",
            "8523fd22bf8e7aafe5f1dc598302844b8f136d2322a43c699139bf3bbb51e059",
            "35d7e84ae32952485ec5dcaff785d4de3c35da984a1e641c86805fb7a015a643"),
        "ciod-a1": (
            "50d3a937cd847e34162b2198283c54469278f1cc437ad5c8680dd4614ba6348a",
            "889aaa244da77237beb1b352f323e6a17df7937f262fdd877e02f37275358b27",
            "59c260e4873aff4bd292750f9798064be0dfbe237c369507cb0e49d0862d7a73"),
        "ciod-a2": (
            "a8887659d12832a03c8a6432cf09da847845c576b1b40226e6b4b8cc7008bf68",
            "dfbf19ed1eb08457f7c39564a0fc5c2682210a35898d9ede8ebf03b44d05d997",
            "4888d4ba33bd1714cf835a579a4ad9a02ce247b510e0f7e16bbd408fc734cc43"),
    }

    def test_every_code_is_pinned(self):
        assert set(self.EXPECTED) == set(CODE_NAMES) | set(BASE_DESIGNS)

    @pytest.mark.parametrize("name", [*CODE_NAMES, *BASE_DESIGNS])
    def test_bytes_are_pinned(self, name):
        build = BASE_DESIGNS.get(name) or (lambda: named_code(name))
        assert code_digests(build()) == self.EXPECTED[name]

    def test_pin_sees_signed_zeros(self):
        # bhv's stack holds -0.0 parts; clearing their sign moves every pin
        code = bhv_code()
        parts = code.weights.view(float)
        assert np.signbit(parts[parts == 0]).any()
        cleared = dataclasses.replace(code, weights=code.weights + 0.0)
        assert all(got != want for got, want in
                   zip(code_digests(cleared), self.EXPECTED["bhv"]))


#: Declared profiles a code refuses: two entries, negative entries, a
#: product other than K = 8, and entries that are not integers.
BAD_PROFILES = [(2, 4), (2, -1, -4), (3, 3, 3), (2.0, 4, 1), (2, True, 4),
                "241"]


class TestCodeChecksItself:
    """Every way to build a code runs the same checks: the constructor,
    ``_make_code``, ``reorder`` and ``dataclasses.replace``."""

    @pytest.mark.parametrize("profile", BAD_PROFILES)
    def test_replace_refuses_a_bad_declared_profile(self, profile):
        with pytest.raises(ValueError, match="^declared_profile = "):
            dataclasses.replace(named_code("bhv"), declared_profile=profile)

    @pytest.mark.parametrize("profile", BAD_PROFILES)
    def test_make_code_refuses_a_bad_declared_profile(self, profile):
        code = bhv_code()
        with pytest.raises(ValueError, match="^declared_profile = "):
            codes._make_code(code.weights, code.labels, profile)

    def test_declared_profile_stored_as_int_tuple(self):
        code = dataclasses.replace(named_code("bhv"),
                                   declared_profile=[np.int64(2), 4, 1])
        assert code.declared_profile == (2, 4, 1)
        assert [type(p) for p in code.declared_profile] == [int, int, int]

    @pytest.mark.parametrize("labels, named", [
        (("a",), "need one label per weight matrix"),
        (tuple(range(8)), "labels = "),
        ("abcdefgh", "labels = "),
    ])
    def test_replace_refuses_bad_labels(self, labels, named):
        with pytest.raises(ValueError, match=f"^{named}"):
            dataclasses.replace(named_code("bhv"), labels=labels)

    @pytest.mark.parametrize("field", ["n_t", "t"])
    def test_shape_is_not_settable(self, field):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(named_code("bhv"), **{field: 3})

    def test_shape_is_read_from_the_weights(self):
        code = dataclasses.replace(alamouti_code(),
                                   weights=ciod(2).weights[:4])
        assert (code.n_t, code.t, code.k_real) == (4, 4, 4)
        assert generator_matrix(code).shape == (32, 4)

    @pytest.mark.parametrize("weights, named", [
        (lambda w: w[0], "all weight matrices must share one shape"),
        (lambda w: w[:, :, :0], r"weights of shape \(8, 2, 0\) hold no entry"),
        (lambda w: w + np.inf, "weight entries must be finite"),
        (lambda w: None, "all weight matrices must share one shape"),
    ], ids=["2-d", "empty", "infinite", "none"])
    def test_replace_refuses_bad_weights(self, weights, named):
        code = bhv_code()
        with pytest.raises(ValueError, match=f"^{named}$"):
            dataclasses.replace(code, weights=weights(code.weights))

    def test_writable_weights_are_copied_once(self):
        code = alamouti_code()
        weights = np.array(code.weights)
        built = codes.LinearSTBC(weights, code.labels)
        assert built.weights is not weights and not built.weights.flags.writeable
        weights[0, 0, 0] = 5.0
        assert built.weights[0, 0, 0] == 1.0

    def test_strided_weights_are_copied(self):
        # a read-only view with a reversed last axis used to be kept, and
        # the generator matrix then failed inside numpy
        code = bhv_code()
        flipped = dataclasses.replace(code, weights=code.weights[:, :, ::-1])
        assert flipped.weights.flags.c_contiguous
        assert np.array_equal(generator_matrix(flipped).reshape(2, 2, 2, 8),
                              generator_matrix(code).reshape(2, 2, 2, 8)[::-1])

    def test_reorder_runs_the_checks(self):
        code = reorder(golden_code(), GOLDEN_ORDERING_222)
        assert not code.weights.flags.writeable
        assert (code.n_t, code.t, code.declared_profile) == (2, 2, None)


class TestSerialization:
    @pytest.mark.parametrize("name", [*CODE_NAMES, *BASE_DESIGNS])
    def test_every_code_reads_back(self, name):
        code = (BASE_DESIGNS.get(name) or (lambda: named_code(name)))()
        data = code_to_json(code)
        loaded = code_from_json(json.dumps(data))
        assert code_to_json(loaded) == data
        assert loaded.weights.tobytes() == code.weights.tobytes()
        assert (loaded.n_t, loaded.t, loaded.labels, loaded.declared_profile) \
            == (code.n_t, code.t, code.labels, code.declared_profile)

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

    @pytest.mark.parametrize("key", ["n_t", "t", "k_real", "labels", "weights"])
    def test_missing_key_rejected(self, key):
        # each used to raise a bare KeyError
        data = code_to_json(alamouti_code())
        del data[key]
        with pytest.raises(ValueError,
                           match=rf"^missing code key\(s\) \['{key}'\]$"):
            code_from_json(data)

    def test_unknown_key_rejected(self):
        # the code schema has additionalProperties: false
        with pytest.raises(ValueError,
                           match=r"^unknown code key\(s\) \['note'\]$"):
            code_from_json(code_to_json(alamouti_code()) | {"note": "x"})

    def test_declared_profile_may_be_left_out(self):
        data = code_to_json(bhv_code())
        del data["declared_profile"]
        assert code_from_json(data).declared_profile is None

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


@pytest.mark.parametrize("call", [
    lambda: named_code("ci-a1", companion=5),
    lambda: codes.named_m_matrix(5),
], ids=["named_code", "named_m_matrix"])
def test_m_matrix_name_must_be_a_string(call):
    # name.lower() raised a stray AttributeError
    with pytest.raises(ValueError, match="^m matrix name = 5 must be a string$"):
        call()


@pytest.mark.parametrize("name", [7, None])
def test_named_code_rejects_a_non_string(name):
    # each used to raise AttributeError from name.lower()
    with pytest.raises(ValueError, match=f"^name = {re.escape(repr(name))} "
                                         "must be a code name, one of"):
        named_code(name)
