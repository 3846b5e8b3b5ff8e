"""Dense real/complex matrix kernels shared by the whole package.

Everything here is a pure function of its arguments.  The two expansion
operators map complex objects to their real counterparts:

* ``check_expand`` replaces each complex entry ``x`` by the 2x2 real block
  ``[[xI, -xQ], [xQ, xI]]`` (an n x m complex matrix becomes 2n x 2m real).
* ``tilde_vec`` interleaves real and imaginary parts of a complex vector,
  ``[x1, x2, ...] -> [x1I, x1Q, x2I, x2Q, ...]``.

They satisfy ``tilde_vec(M @ x) == check_expand(M) @ tilde_vec(x)``, which is
what makes the real-valued equivalent channel model work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RankDeficient",
    "QrResult",
    "check_expand",
    "tilde_vec",
    "untilde_vec",
    "cvec",
    "kron",
    "gram_schmidt_qr",
    "trace_inner_product",
]

#: Relative threshold below which a residual column norm ``|r_ii|`` is
#: treated as dependent.  Relative to the largest input column norm so that
#: scaling the input does not change the verdict.
RANK_TOL = 1e-10


class RankDeficient(ValueError):
    """Input columns are numerically dependent (no unique factorization)."""


@dataclass(frozen=True)
class QrResult:
    """QR factorization with orthonormal ``q`` and upper-triangular ``r``.

    ``r`` has exact zeros below the diagonal and a nonnegative diagonal;
    ``q @ r`` reconstructs the input within floating-point error.
    """

    q: np.ndarray
    r: np.ndarray


def check_expand(m) -> np.ndarray:
    """Expand a complex matrix to its 2n x 2m real form.

    Each entry ``x`` becomes the block ``[[xI, -xQ], [xQ, xI]]``.  The map is
    a ring homomorphism: it preserves sums, products and sends the conjugate
    transpose to the real transpose.
    """
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    out = np.empty((2 * m.shape[0], 2 * m.shape[1]))
    out[0::2, 0::2] = m.real
    out[0::2, 1::2] = -m.imag
    out[1::2, 0::2] = m.imag
    out[1::2, 1::2] = m.real
    return out


def tilde_vec(x) -> np.ndarray:
    """Interleave real/imag parts of a complex vector (length doubles)."""
    x = np.asarray(x, dtype=complex).ravel()
    out = np.empty(2 * x.size)
    out[0::2] = x.real
    out[1::2] = x.imag
    return out


def untilde_vec(v) -> np.ndarray:
    """Inverse of :func:`tilde_vec`."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size % 2:
        raise ValueError("interleaved vector must have even length")
    return v[0::2] + 1j * v[1::2]


def cvec(m) -> np.ndarray:
    """Stack the columns of a matrix into a vector (column-major vec)."""
    return np.asarray(m).ravel(order="F")


def kron(a, b) -> np.ndarray:
    """Kronecker product of two real matrices.

    Each entry is the single product ``a[i, j] * b[k, l]``, as in
    ``np.kron``, so the two agree bit for bit.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def gram_schmidt_qr(h) -> QrResult:
    """Gram-Schmidt QR of a real matrix with ``rows >= cols``.

    The result is the Gram-Schmidt factorization: ``r[i, i]`` is the norm of
    the i-th residual column and ``r[i, j]`` (j > i) the projection
    coefficient ``<q_i, h_j>``.  It is computed by LAPACK's Householder QR
    (``np.linalg.qr``) with each sign-flipped row of ``r`` (and column of
    ``q``) negated so the diagonal is positive.  For full column rank that
    factorization is unique, so it equals the Gram-Schmidt one up to
    rounding.

    Raises
    ------
    RankDeficient
        If the matrix has fewer rows than columns, or some residual column
        norm falls below ``RANK_TOL`` times the largest input column norm;
        the first such column is reported.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = h.shape
    if rows < cols:
        raise RankDeficient(f"matrix is {rows}x{cols}; need rows >= cols")
    if not np.isfinite(h).all():
        raise ValueError("matrix entries must be finite")

    q, r = np.linalg.qr(h)
    diag = r.diagonal()
    col_norm_max = np.sqrt((h * h).sum(axis=0).max()) if cols else 0.0
    threshold = RANK_TOL * col_norm_max
    for i, d in enumerate(diag.tolist()):
        if abs(d) <= threshold:
            raise RankDeficient(f"column {i} is dependent (|r_{i}| = {abs(d):.3e})")
    sign = np.copysign(1.0, diag)
    q *= sign
    r *= sign[:, None]
    r += 0.0  # turns the -0.0 a flipped zero becomes back into +0.0
    return QrResult(q=q, r=r)


def trace_inner_product(h, a_k, a_j) -> float:
    """Inner product of two equivalent-channel columns via the trace form.

    Returns ``0.5 * tr(check(h) check(a_k) check(a_j)^T check(h)^T)``, which
    equals the Euclidean inner product of the real equivalent-channel columns
    generated by weight matrices ``a_k`` and ``a_j`` under channel ``h``.
    """
    hc = check_expand(h)
    ak = check_expand(a_k)
    aj = check_expand(a_j)
    return 0.5 * float(np.trace(hc @ ak @ aj.T @ hc.T))
