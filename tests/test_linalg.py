"""Tests for the real/complex expansion operators, Gram-Schmidt QR and
the triangularization of ``[h | y]``."""

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
    triangularize,
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

    @pytest.mark.parametrize("shape", [(3,), ()])
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


class TestStackedQr:
    # a (..., rows, cols) stack is factored by one LAPACK call, and each
    # matrix gets the q, r and verdict it gets alone
    @pytest.mark.parametrize("name", NAMED_CODES)
    def test_stack_equals_each_matrix_alone(self, rng, name):
        code = named_code(name)
        h_eq = np.stack([
            equivalent_channel(code, random_channel(code.n_t, code.n_t, rng))
            for _ in range(6)]).reshape(2, 3, 2 * code.n_t * code.t, -1)
        res = gram_schmidt_qr(h_eq)
        for index in np.ndindex(2, 3):
            alone = gram_schmidt_qr(h_eq[index])
            assert res.q[index].tobytes() == alone.q.tobytes()
            assert res.r[index].tobytes() == alone.r.tobytes()

    def test_each_matrix_judged_at_its_own_scale(self, rng):
        a = rng.standard_normal((6, 4))
        res = gram_schmidt_qr(np.stack([1e-200 * a, 1e200 * a]))
        assert (res.r.diagonal(0, -2, -1) > 0).all()
        assert np.array_equal(res.r[1], gram_schmidt_qr(1e200 * a).r)

    def test_first_deficient_matrix_raises_its_own_message(self, rng):
        full = rng.standard_normal((6, 4))
        dependent = []
        for col in (2, 1):
            h = rng.standard_normal((6, 4))
            h[:, col] = h[:, :col] @ rng.standard_normal(col)
            dependent.append(h)
        with pytest.raises(RankDeficient) as alone:
            gram_schmidt_qr(dependent[0])
        assert "column 2 is dependent" in str(alone.value)
        with pytest.raises(RankDeficient) as stacked:
            gram_schmidt_qr(np.stack([full, *dependent]))
        assert str(stacked.value) == str(alone.value)

    def test_wide_stack_raises(self, rng):
        with pytest.raises(RankDeficient,
                           match="^matrix is 3x5; need rows >= cols$"):
            gram_schmidt_qr(rng.standard_normal((2, 3, 5)))


class TestTriangularize:
    # one Householder QR of [h | y] gives gram_schmidt_qr's R and q.T @ y
    # up to rounding, and raises what gram_schmidt_qr raises for h

    @pytest.mark.parametrize("name, n_r", [("bhv", None), ("golden", None),
                                           ("golden", 3), ("ci-a2", None)])
    def test_agrees_with_gram_schmidt(self, rng, name, n_r):
        code = named_code(name)
        for _ in range(20):
            h_eq = equivalent_channel(
                code, random_channel(n_r or code.n_t, code.n_t, rng))
            y = h_eq @ rng.standard_normal(code.k_real) \
                + rng.standard_normal(h_eq.shape[0])
            r, y_prime = triangularize(h_eq, y)
            qr = gram_schmidt_qr(h_eq)
            gs_y = qr.q.T @ y
            assert r.shape == qr.r.shape and y_prime.shape == gs_y.shape
            assert np.abs(r - qr.r).max() <= 1e-13 * np.abs(qr.r).max()
            assert np.abs(y_prime - gs_y).max() <= 1e-13 * np.abs(gs_y).max()
            assert (np.diag(r) > 0).all()
            lower = r[np.tril_indices(code.k_real, -1)]
            assert (lower == 0).all() and not np.signbit(lower).any()

    def test_stack_equals_each_matrix_alone(self, rng):
        code = named_code("ci-a2")
        h_eq = np.stack([
            equivalent_channel(code, random_channel(code.n_t, code.n_t, rng))
            for _ in range(6)]).reshape(2, 3, 2 * code.n_t * code.t, -1)
        y = rng.standard_normal(h_eq.shape[:-1])
        r, y_prime = triangularize(h_eq, y)
        for index in np.ndindex(2, 3):
            alone = triangularize(h_eq[index], y[index])
            assert r[index].tobytes() == alone[0].tobytes()
            assert y_prime[index].tobytes() == alone[1].tobytes()

    @pytest.mark.parametrize("h", [
        np.eye(4) + 0.5j * np.eye(4),  # complex
        np.ones(4),  # not a matrix
        np.ones((3, 5)),  # wide
        np.where(np.eye(4, 3) > 0, np.nan, 0.0),  # not finite
        np.array([[1e200, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
        np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
    ], ids=["complex", "1-D", "wide", "nan", "relative-rank", "zero-column"])
    def test_raises_as_gram_schmidt_does(self, h):
        with pytest.raises(ValueError) as want:
            gram_schmidt_qr(h)
        with pytest.raises(ValueError) as got:
            triangularize(h, np.ones(np.shape(h)[0]))
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_rank_deficient_on_same_column(self, rng):
        for dependent in (1, 3, 5):
            h = rng.standard_normal((9, 6))
            h[:, dependent] = h[:, :dependent] @ rng.standard_normal(dependent)
            with pytest.raises(RankDeficient,
                               match=f"^column {dependent} is dependent"):
                triangularize(h, rng.standard_normal(9))

    @pytest.mark.parametrize("y", [np.ones(5), np.ones(7), np.ones((6, 1)),
                                   np.ones(()), np.ones((2, 6))])
    def test_y_of_the_wrong_shape_raises(self, rng, y):
        with pytest.raises(ValueError, match=r"^y has shape .* one entry per "
                                             "row of h$"):
            triangularize(rng.standard_normal((6, 4)), y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j])
    def test_y_not_finite_or_complex_raises(self, bad):
        # on an upper-triangular h the reflectors are identities, so a NaN
        # below row cols would not even reach y'
        y = np.ones(4, dtype=complex if isinstance(bad, complex) else float)
        y[3] = bad
        with pytest.raises(ValueError, match="^y (entries must be finite|"
                                             "must be real)"):
            triangularize(np.eye(4, 2), y)
