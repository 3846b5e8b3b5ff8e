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

import functools
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
    "triangularize",
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
    """Gram-Schmidt QR of a real matrix with ``rows >= cols``, or of each
    matrix of a ``(..., rows, cols)`` stack.

    The result is the Gram-Schmidt factorization: ``r[i, i]`` is the norm of
    the i-th residual column and ``r[i, j]`` (j > i) the projection
    coefficient ``<q_i, h_j>``.  It is computed by LAPACK's Householder QR
    (``np.linalg.qr``, one call per stack) with each sign-flipped row of
    ``r`` (and column of ``q``) negated so the diagonal is positive.  For
    full column rank that factorization is unique, so it equals the
    Gram-Schmidt one up to rounding.  Each matrix of a stack is judged at
    its own scale, so its ``q``, ``r`` and verdict are those it gets alone.

    Raises
    ------
    ValueError
        If ``h`` is complex, has fewer than 2 dimensions or is not finite.
    RankDeficient
        If the matrices have fewer rows than columns, or some residual
        column norm falls below ``RANK_TOL`` times the largest input column
        norm of its matrix; the first such column of the first such matrix
        is reported.
    """
    h = _checked_matrix(h)
    h_max = _finite_max(h)
    q, r = np.linalg.qr(h)
    q *= _positive_rows(r)[..., None, :]
    _check_rank(h, h_max, r.diagonal(0, -2, -1))
    return QrResult(q=q, r=r)


def _checked_matrix(h) -> np.ndarray:
    """``h`` as a float ``(..., rows, cols)`` array with ``rows >= cols``."""
    h = _real_array(h, "h")
    if h.ndim < 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = h.shape[-2:]
    if rows < cols:
        raise RankDeficient(f"matrix is {rows}x{cols}; need rows >= cols")
    return h


def _finite_max(x) -> float:
    """The largest ``|entry|`` of ``x`` (0.0 if empty); ``ValueError`` if
    some entry is not finite."""
    # the max is NaN or inf iff some entry is
    x_max = float(abs(x).max()) if x.size else 0.0
    if not x_max < math.inf:
        raise ValueError("matrix entries must be finite")
    return x_max


def _positive_rows(r) -> np.ndarray:
    """Negate in place each row of the ``(..., n, >= n)`` array ``r`` whose
    diagonal entry is negative, so its diagonal reads >= 0; the signs."""
    sign = np.copysign(1.0, r.diagonal(0, -2, -1))
    r *= sign[..., None]
    r += 0.0  # turns the -0.0 a flipped zero becomes back into +0.0
    return sign


def _check_rank(h, h_max: float, diag) -> None:
    """Raise ``RankDeficient`` if some ``diag`` entry, a matrix of ``h``'s
    ``|r_ii|``, falls below ``RANK_TOL`` times that matrix's largest input
    column norm; the first such column of the first such matrix is named.
    ``h_max`` is any bound on ``max|h|``; only the quick pass reads it."""
    rows = h.shape[-2]
    # the test runs on h / max|h| of each matrix, so no square over- or
    # underflows at any scale; no column norm of it exceeds sqrt(rows), and
    # the stack's max|h| bounds each matrix's, so a larger smallest
    # |r_ii| / max|h| passes every matrix without the norms being computed
    if h.size and diag.min() / (h_max or 1.0) <= RANK_TOL * math.sqrt(rows):
        scale = abs(h).max(axis=(-2, -1), keepdims=True)
        scale[scale == 0.0] = 1.0
        scaled = h / scale
        norm_max = np.sqrt((scaled * scaled).sum(axis=-2).max(axis=-1))
        dependent = diag / scale[..., 0] <= RANK_TOL * norm_max[..., None]
        if dependent.any():
            first = tuple(np.argwhere(dependent)[0])  # first matrix, column
            i = first[-1]
            raise RankDeficient(
                f"column {i} is dependent (|r_{i}| = {diag[first]:.3e})")


@functools.lru_cache(maxsize=None)
def _strictly_lower(cols: int) -> np.ndarray:
    """Read-only mask of the entries below the diagonal of a
    ``(cols, cols + 1)`` matrix."""
    mask = np.tri(cols, cols + 1, -1, dtype=bool)
    mask.setflags(write=False)
    return mask


def triangularize(h, y) -> tuple[np.ndarray, np.ndarray]:
    """``(r, y')``: the R of :func:`gram_schmidt_qr` for ``h`` and
    ``y' = q.T @ y``, without forming ``q``.

    One Householder QR (``np.linalg.qr(..., mode="raw")``) of the augmented
    matrix ``[h | y]`` gives both: ``r`` is its leading ``cols x cols``
    upper triangle and ``y'`` the first ``cols`` entries of its last
    column, since the reflectors that triangularize ``h`` are applied to
    ``y`` alike.  Each row whose diagonal entry is negative is negated,
    ``y'`` entry included, so ``r`` has a positive diagonal and +0.0 below
    it.  ``r`` equals ``gram_schmidt_qr(h).r`` and ``y'`` its
    ``q.T @ y`` up to rounding, though not bit for bit: LAPACK sees one
    more column.  A ``(..., rows, cols)`` stack with ``y`` of shape
    ``(..., rows)`` is factored by the same one call.  ``r`` and ``y'`` are
    views of one ``(..., cols, cols + 1)`` array.

    Raises
    ------
    ValueError
        If ``h`` or ``y`` is complex or not finite, ``h`` has fewer than 2
        dimensions, or ``y`` does not have one entry per row of ``h``.
    RankDeficient
        Exactly as :func:`gram_schmidt_qr` raises it for ``h``.
    """
    h = _checked_matrix(h)
    y = _real_array(y, "y")
    *stack, rows, cols = h.shape
    if y.shape != (*stack, rows):
        raise ValueError(f"y has shape {y.shape}; need {(*stack, rows)}, "
                         "one entry per row of h")
    a = np.empty((*stack, rows, cols + 1))
    a[..., :cols] = h
    a[..., cols] = y
    # one scan of [h | y] checks both and bounds max|h| for the rank rule
    try:
        a_max = _finite_max(a)
    except ValueError:
        _finite_max(h)  # gram_schmidt_qr's error when h is at fault
        raise ValueError("y entries must be finite") from None
    # raw mode returns LAPACK's factor transposed; R sits in its top rows
    ry = np.linalg.qr(a, mode="raw")[0].swapaxes(-2, -1)[..., :cols, :]
    _positive_rows(ry)
    np.copyto(ry, 0.0, where=_strictly_lower(cols))
    _check_rank(h, a_max, ry.diagonal(0, -2, -1))
    return ry[..., :cols], ry[..., cols]
