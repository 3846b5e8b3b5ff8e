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

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RankDeficient",
    "QrResult",
    "check_expand",
    "tilde_vec",
    "cvec",
    "kron",
    "gram_schmidt_qr",
]

#: Relative threshold below which a residual column norm ``|r_ii|`` is
#: treated as dependent.  Relative to the largest input column norm so that
#: scaling the input does not change the verdict.
RANK_TOL = 1e-10


class RankDeficient(ValueError):
    """Input columns are numerically dependent (no unique factorization)."""


def _real_array(x, name: str) -> np.ndarray:
    """``x`` as a float array.  Complex input raises ``ValueError`` naming
    argument ``name``: casting it would silently drop the imaginary part."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValueError(f"{name} must be real, got a complex array")
    return np.asarray(x, dtype=float)


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


def cvec(m) -> np.ndarray:
    """Stack the columns of a matrix into a vector (column-major vec)."""
    return np.asarray(m).ravel(order="F")


def kron(a, b) -> np.ndarray:
    """Kronecker product of two real or complex matrices.

    Each entry is the single product ``a[i, j] * b[k, l]``, as in
    ``np.kron``, so the two agree bit for bit.  It serves the real
    equivalent channel and the complex Clifford chains of
    ``codes._kron_chain`` alike, without ``np.kron``'s per-call overhead.
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
    ValueError
        If ``h`` is complex, not 2-D or not finite.
    RankDeficient
        If the matrix has fewer rows than columns, or some residual column
        norm falls below ``RANK_TOL`` times the largest input column norm;
        the first such column is reported.
    """
    h = _real_array(h, "h")
    if h.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = h.shape
    if rows < cols:
        raise RankDeficient(f"matrix is {rows}x{cols}; need rows >= cols")
    # the max is NaN or inf iff some entry is
    h_max = float(abs(h).max()) if cols else 0.0
    if not h_max < math.inf:
        raise ValueError("matrix entries must be finite")

    q, r = np.linalg.qr(h)
    sign = np.copysign(1.0, r.diagonal())
    q *= sign
    r *= sign[:, None]
    r += 0.0  # turns the -0.0 a flipped zero becomes back into +0.0
    if cols:
        # the test runs on h / max|h|, so no square over- or underflows at
        # any scale; no column norm of it exceeds sqrt(rows), so a larger
        # smallest |r_ii| passes without the norms being computed
        scale = h_max or 1.0
        diag = r.diagonal()
        if diag.min() / scale <= RANK_TOL * math.sqrt(rows):
            scaled = h / scale
            norm_max = math.sqrt((scaled * scaled).sum(axis=0).max())
            threshold = RANK_TOL * norm_max
            for i, d in enumerate(diag.tolist()):
                if d / scale <= threshold:
                    raise RankDeficient(
                        f"column {i} is dependent (|r_{i}| = {d:.3e})")
    return QrResult(q=q, r=r)
