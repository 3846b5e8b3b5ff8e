"""Tests for the real/complex expansion operators and Gram-Schmidt QR."""

import warnings

import numpy as np
import pytest

from bostbc.codes import named_code
from bostbc.linalg import (
    RankDeficient,
    check_expand,
    cvec,
    gram_schmidt_qr,
    kron,
    tilde_vec,
)
from bostbc.structure import equivalent_channel, random_channel

NAMED_CODES = ("alamouti", "golden", "golden-222", "bhv", "srinath-rajan",
               "cda-2x2", "ci-a1", "ci-a2", "cii-golden", "ciii-golden",
               "civ-a1", "civ-a2")


def mgs_reference(h, rank_tol=1e-10):
    """Modified Gram-Schmidt loop, the oracle for ``gram_schmidt_qr``."""
    q = np.array(h, dtype=float)
    cols = q.shape[1]
    threshold = rank_tol * np.linalg.norm(q, axis=0).max()
    r = np.zeros((cols, cols))
    for i in range(cols):
        norm = np.linalg.norm(q[:, i])
        if norm <= threshold:
            raise RankDeficient(f"column {i} is dependent (|r_{i}| = {norm:.3e})")
        r[i, i] = norm
        q[:, i] /= norm
        coeffs = q[:, i] @ q[:, i + 1:]
        r[i, i + 1:] = coeffs
        q[:, i + 1:] -= np.outer(q[:, i], coeffs)
    return q, r


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestCheckExpand:
    def test_real_scalar(self):
        assert np.array_equal(check_expand([[1.0]]), np.eye(2))

    def test_imaginary_scalar(self):
        expected = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.array_equal(check_expand([[1j]]), expected)

    def test_product_homomorphism(self, rng):
        # oracle: multiply in complex arithmetic first, then expand
        for _ in range(10):
            a = _rand_complex(rng, (2, 2))
            b = _rand_complex(rng, (2, 2))
            direct = check_expand(a @ b)
            assert np.abs(check_expand(a) @ check_expand(b) - direct).max() < 1e-12

    def test_sum_and_adjoint_homomorphism(self, rng):
        for _ in range(10):
            a = _rand_complex(rng, (3, 3))
            b = _rand_complex(rng, (3, 3))
            assert np.abs(check_expand(a + b)
                          - (check_expand(a) + check_expand(b))).max() < 1e-12
            assert np.abs(check_expand(a.conj().T) - check_expand(a).T).max() < 1e-12


class TestTildeVec:
    def test_single_entry(self):
        assert np.array_equal(tilde_vec([1 + 2j]), [1.0, 2.0])

    def test_two_entries(self):
        assert np.array_equal(tilde_vec([1j, 1]), [0.0, 1.0, 1.0, 0.0])

    def test_matrix_vector_compatibility(self, rng):
        # tilde(M x) == check(M) tilde(x)
        m = _rand_complex(rng, (3, 2))
        x = _rand_complex(rng, 2)
        assert np.abs(tilde_vec(m @ x) - check_expand(m) @ tilde_vec(x)).max() < 1e-12

    def test_hurwitz_radon_pair_is_orthogonal(self, rng):
        # Alamouti pair: explicit equivalent-channel columns are orthogonal
        a1 = np.eye(2, dtype=complex)
        a2 = np.array([[0, -1], [1, 0]], dtype=complex)
        h = _rand_complex(rng, (2, 2))
        col1 = tilde_vec(cvec(h @ a1))
        col2 = tilde_vec(cvec(h @ a2))
        assert abs(col1 @ col2) < 1e-12


class TestKron:
    def test_identity_times_scalar(self):
        assert np.array_equal(kron(np.eye(2), [[5.0]]), np.diag([5.0, 5.0]))

    def test_swap_structure(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = kron(swap, np.eye(2))
        expected = np.zeros((4, 4))
        expected[0:2, 2:4] = np.eye(2)
        expected[2:4, 0:2] = np.eye(2)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("shape_a, shape_b", [
        ((1, 1), (3, 2)), ((2, 2), (4, 4)), ((3, 1), (2, 5)),
        ((2, 3), (1, 4)), ((4, 4), (8, 8)),
    ])
    def test_bit_equal_to_numpy(self, rng, shape_a, shape_b):
        a = rng.standard_normal(shape_a)
        b = rng.standard_normal(shape_b)
        out = kron(a, b)
        assert out.shape == np.kron(a, b).shape
        assert np.array_equal(out, np.kron(a, b))

    @pytest.mark.parametrize("shape_a, shape_b", [
        ((1, 1), (2, 2)), ((2, 2), (2, 2)), ((4, 4), (2, 2)), ((2, 3), (3, 1)),
    ])
    @pytest.mark.parametrize("b_complex", [True, False])
    def test_complex_bit_equal_to_numpy(self, rng, shape_a, shape_b, b_complex):
        # the Clifford chains of codes._kron_chain are complex
        a = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
        b = rng.standard_normal(shape_b)
        if b_complex:
            b = b + 1j * rng.standard_normal(shape_b)
        out, want = kron(a, b), np.kron(a, b)
        assert out.shape == want.shape and out.dtype == want.dtype
        assert out.tobytes() == want.tobytes()

    def test_against_index_formula(self, rng):
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2))
        out = kron(a, b)
        for i in range(4):
            for j in range(4):
                assert out[i, j] == a[i // 2, j // 2] * b[i % 2, j % 2]


class TestGramSchmidtQr:
    def test_identity(self):
        res = gram_schmidt_qr(np.eye(4))
        assert np.array_equal(res.q, np.eye(4))
        assert np.array_equal(res.r, np.eye(4))

    def test_orthogonal_columns_give_diagonal_r(self):
        h = np.zeros((4, 2))
        h[0, 0] = 2.0
        h[1, 1] = 3.0
        res = gram_schmidt_qr(h)
        assert np.allclose(res.r, np.diag([2.0, 3.0]))
        assert np.allclose(res.q, h / [2.0, 3.0])

    def test_reconstruction(self, rng):
        for _ in range(5):
            h = rng.standard_normal((8, 8))
            if np.linalg.cond(h) > 1e3:
                continue
            res = gram_schmidt_qr(h)
            rel = np.linalg.norm(res.q @ res.r - h) / np.linalg.norm(h)
            assert rel < 1e-10

    def test_q_orthonormal_and_r_shape(self, rng):
        h = rng.standard_normal((10, 6))
        res = gram_schmidt_qr(h)
        assert np.abs(res.q.T @ res.q - np.eye(6)).max() < 1e-10
        assert np.array_equal(np.tril(res.r, -1), np.zeros((6, 6)))
        assert (np.diag(res.r) > 0).all()

    def test_rank_deficient_raises(self, rng):
        h = rng.standard_normal((6, 3))
        h[:, 2] = 2 * h[:, 0] - h[:, 1]
        with pytest.raises(RankDeficient):
            gram_schmidt_qr(h)

    @pytest.mark.parametrize("imag", [0.5, 0.0])
    def test_complex_raises(self, imag):
        # a float cast would only warn and factorize the real part
        h = np.eye(4) + imag * 1j * np.eye(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^h must be real"):
                gram_schmidt_qr(h)

    def test_wide_matrix_raises(self, rng):
        with pytest.raises(RankDeficient, match="rows >= cols"):
            gram_schmidt_qr(rng.standard_normal((3, 5)))

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_not_a_matrix_raises(self, shape):
        with pytest.raises(ValueError, match="^expected a 2-D matrix$"):
            gram_schmidt_qr(np.ones(shape))

    @pytest.mark.parametrize("exponent", range(-200, 201, 25))
    def test_verdict_is_scale_free(self, rng, exponent):
        # squaring entries near 1e200 once overflowed the threshold to inf,
        # and near 1e-200 underflowed it to 0
        s = 10.0 ** exponent
        full = rng.standard_normal((6, 4))
        dependent = full.copy()
        dependent[:, 2] = 2 * dependent[:, 0] - dependent[:, 1]
        assert (np.diag(gram_schmidt_qr(s * full).r) > 0).all()
        with pytest.raises(RankDeficient, match="column 2 is dependent"):
            gram_schmidt_qr(s * dependent)

    def test_dependence_is_relative_to_the_largest_column(self):
        # |r_1| = 1 is below RANK_TOL times the largest column norm, 1e200
        with pytest.raises(RankDeficient,
                           match=r"column 1 is dependent \(\|r_1\| = 1\.000e\+00\)"):
            gram_schmidt_qr([[1e200, 0.0], [0.0, 1.0]])
        with pytest.raises(RankDeficient, match="column 0 is dependent"):
            gram_schmidt_qr(np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        h = np.eye(3)
        h[2, 1] = bad
        with pytest.raises(ValueError, match="entries must be finite"):
            gram_schmidt_qr(h)


class TestQrMatchesGramSchmidt:
    @pytest.mark.parametrize("name", NAMED_CODES)
    def test_equivalent_channel_draws(self, rng, name):
        code = named_code(name)
        for _ in range(5):
            h_eq = equivalent_channel(code, random_channel(code.n_t, code.n_t, rng))
            q_ref, r_ref = mgs_reference(h_eq)
            res = gram_schmidt_qr(h_eq)
            assert np.abs(res.r - r_ref).max() <= 1e-12 * np.abs(r_ref).max()
            assert np.abs(res.q - q_ref).max() <= 1e-10
            assert (np.diag(res.r) > 0).all()
            lower = res.r[np.tril_indices(code.k_real, -1)]
            assert (lower == 0).all() and not np.signbit(lower).any()

    def test_rank_deficient_on_same_column(self, rng):
        for dependent in (1, 3, 5):
            h = rng.standard_normal((9, 6))
            h[:, dependent] = h[:, :dependent] @ rng.standard_normal(dependent)
            with pytest.raises(RankDeficient) as ref:
                mgs_reference(h)
            with pytest.raises(RankDeficient, match=f"column {dependent} is dependent"):
                gram_schmidt_qr(h)
            assert f"column {dependent} " in str(ref.value)
