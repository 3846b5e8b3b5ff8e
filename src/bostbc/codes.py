"""Linear STBC constructions as weight-matrix families.

A code is a stack of fixed complex ``n_t x t`` weight matrices ``A_i``; the
transmitted matrix for real symbols ``x`` is ``sum_i x_i A_i``.  The CUWD
and CIOD base designs of the sum constructions are codes too.  Block
orthogonality of the QR factor depends on the *order* of the weight
matrices, so every constructor fixes a documented default ordering and
:func:`reorder` produces relabeled variants.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce

import numpy as np

from .linalg import RANK_TOL, RankDeficient, check_expand, kron

__all__ = [
    "LinearSTBC",
    "UnsupportedSize",
    "InvalidPermutation",
    "PremiseViolated",
    "RankDeficient",
    "alamouti_code",
    "golden_code",
    "golden_linear_forms",
    "golden_diagonal_half",
    "bhv_code",
    "srinath_rajan_code",
    "cuwd_rate1_4group",
    "ciod",
    "construction_i",
    "construction_ii",
    "construction_iii",
    "construction_iv",
    "hr_orthogonal",
    "cda_2x2",
    "reorder",
    "ordering_from_labels",
    "code_to_json",
    "code_from_json",
    "save_code",
    "load_code",
    "named_code",
    "named_m_matrix",
    "CODE_NAMES",
    "GOLDEN_ORDERING_421",
    "GOLDEN_ORDERING_222",
    "GOLDEN_ORDERING_SCRAMBLED",
    "M_GOLDEN",
    "M_SRINATH_RAJAN",
    "M_A2",
    "generator_matrix",
]


class UnsupportedSize(ValueError):
    """Requested design size is outside the supported desk-scale range."""


class InvalidPermutation(ValueError):
    """Sequence is not a permutation of the symbol indices."""


class PremiseViolated(ValueError):
    """Input code does not satisfy the construction's premise."""


#: tolerance for numerically-exact weight-matrix identities
_EXACT_TOL = 1e-12


def _is_integer(value) -> bool:
    """True for an ``int`` or a numpy integer; ``bool`` is not one here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class LinearSTBC:
    """A linear STBC: ``X(x) = sum_i x_i * weights[i]`` over real symbols.

    Every way to build one, :func:`reorder` and ``dataclasses.replace``
    included, checks it and raises ``ValueError`` naming a bad field:
    ``weights`` is one read-only complex ``(K, n_t, t)`` array of finite
    entries whose shape gives ``n_t`` and ``t``, ``labels`` holds one string
    per weight, and ``declared_profile`` is None or three integers >= 1
    whose product is K.  A read-only, C-contiguous complex stack is kept as
    is (``replace`` keeps it); anything else is copied once.  Equality is
    identity, so codes hash and serve as dict keys.
    """

    n_t: int = field(init=False)
    t: int = field(init=False)
    weights: np.ndarray
    labels: tuple
    declared_profile: tuple | None = None

    def __post_init__(self):
        weights, labels, profile = self.weights, self.labels, self.declared_profile
        if not (type(weights) is np.ndarray and weights.dtype == complex
                and weights.flags.c_contiguous and not weights.flags.writeable):
            try:
                weights = _frozen(weights)  # a ragged stack raises here
            except (TypeError, ValueError):
                weights = None
        if weights is None or weights.ndim != 3:
            raise ValueError("all weight matrices must share one shape")
        if not weights.size:
            raise ValueError(f"weights of shape {weights.shape} hold no entry")
        if not np.isfinite(weights).all():
            raise ValueError("weight entries must be finite")
        if type(labels) not in (list, tuple) or not {*map(type, labels)} <= {str}:
            raise ValueError(f"labels = {labels!r} must be a list of strings")
        if len(labels) != len(weights):
            raise ValueError("need one label per weight matrix")
        if profile is not None:
            if not (type(profile) in (list, tuple) and len(profile) == 3
                    and all(map(_is_integer, profile)) and min(profile) >= 1
                    and math.prod(profile) == len(weights)):
                raise ValueError(f"declared_profile = {profile!r} must be None "
                                 "or three integers >= 1 with product "
                                 f"K = {len(weights)}")
            profile = tuple(map(int, profile))
        _, n_t, t = weights.shape
        vars(self).update(n_t=n_t, t=t, weights=weights, labels=tuple(labels),
                          declared_profile=profile)  # frozen: past __setattr__

    @property
    def k_real(self) -> int:
        return len(self.weights)

    def codeword(self, x) -> np.ndarray:
        """Transmit matrix for the real symbol vector ``x``."""
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.k_real:
            raise ValueError(f"expected {self.k_real} real symbols, got {x.size}")
        out = np.zeros((self.n_t, self.t), dtype=complex)
        for xi, a in zip(x, self.weights):
            out = out + xi * a
        return out

    @cached_property
    def _generator(self) -> np.ndarray:
        # weights[i, r, c] viewed as reals is w[i, r, c, p] (p = 0 real, 1
        # imag); row 2 * (c * n_t + r) + p of G is the cvec-then-tilde_vec
        # position of that part, so G is w moved to (c, r, p, i) order
        k = self.k_real
        w = self.weights.view(float).reshape(k, self.n_t, self.t, 2)
        g = np.ascontiguousarray(w.transpose(2, 1, 3, 0).reshape(-1, k))
        g.setflags(write=False)
        return g


def generator_matrix(code: LinearSTBC) -> np.ndarray:
    """Real generator matrix G: column i is ``tilde_vec(cvec(A_i))``.

    Computed once per code; the returned array is shared and read-only.
    """
    return code._generator


def _make_code(weights, labels, declared_profile=None) -> LinearSTBC:
    code = LinearSTBC(weights, labels, declared_profile)
    # the rank test: np.linalg.matrix_rank's count, without its wrapper
    g = generator_matrix(code)
    singular = np.linalg.svd(g, compute_uv=False)
    rank = np.count_nonzero(singular > RANK_TOL * np.abs(g).max())
    if rank < code.k_real:
        raise RankDeficient(f"generator matrix rank {rank} < K = {code.k_real}")
    return code


# ---------------------------------------------------------------------------
# named 2x2 codes
# ---------------------------------------------------------------------------

_SQRT5 = math.sqrt(5.0)
_THETA = (1 + _SQRT5) / 2
_THETA_BAR = (1 - _SQRT5) / 2
_ALPHA = 1 + 1j * (1 - _THETA)
_ALPHA_BAR = 1 + 1j * (1 - _THETA_BAR)

_ALAMOUTI_WEIGHTS = (
    np.eye(2, dtype=complex),                       # s1I
    np.diag([1j, -1j]),                             # s1Q
    np.array([[0, -1], [1, 0]], dtype=complex),      # s2I
    np.array([[0, 1j], [1j, 0]]),                    # s2Q
)

_BHV_ANGLE = math.atan(2.0) / 2
#: The symbol rotation of :func:`bhv_code`: a real Givens rotation by
#: ``atan(2)/2``.
_BHV_ROTATION = _frozen([[math.cos(_BHV_ANGLE), -math.sin(_BHV_ANGLE)],
                         [math.sin(_BHV_ANGLE), math.cos(_BHV_ANGLE)]])

#: Column swap with a quarter-turn phase; pairs the diagonal Golden half
#: into the full Golden code under construction III.
M_GOLDEN = _frozen([[0, 1j], [1, 0]])

#: Phase-rotated antenna swap; pairs the 2x2 coordinate-interleaved design
#: into the Srinath-Rajan code under construction IV.
M_SRINATH_RAJAN = _frozen(np.exp(1j * np.pi / 4) * np.array([[0, 1], [1, 0]]))

#: Full-rank companion matrix for the 4-antenna (a = 2) sum constructions.
#: Found by seeded search over structured unitaries, then frozen.
M_A2 = _frozen([
    [0, 0, 1, 0],
    [0, 0, 0, -1],
    [1, 0, 0, 0],
    [0, -1, 0, 0],
])

# Orderings of the Golden code weights (positions into the default
# [s1I s1Q s2I s2Q s3I s3Q s4I s4Q] order) and the structure each exhibits:
#: R splits into four 2x2 diagonal blocks: profile (4, 2, 1).
GOLDEN_ORDERING_421 = (0, 1, 3, 2, 4, 5, 7, 6)
#: R splits into two halves of two 2x2 upper-triangular blocks: (2, 2, 2).
GOLDEN_ORDERING_222 = (0, 2, 1, 3, 4, 6, 5, 7)
#: An ordering whose R has no block-orthogonal structure at all.
GOLDEN_ORDERING_SCRAMBLED = (0, 1, 6, 3, 4, 5, 2, 7)


def alamouti_code() -> LinearSTBC:
    """The 2x2 orthogonal design; R is diagonal for every channel."""
    labels = ("s1I", "s1Q", "s2I", "s2Q")
    return _make_code(_ALAMOUTI_WEIGHTS, labels)


def golden_linear_forms() -> np.ndarray:
    """The four complex-linear coefficient matrices of the Golden code.

    ``X = sum_k s_k * C_k`` with complex symbols ``s_k``; no entry involves a
    conjugate, so the code fits construction II directly.  Returned as one
    read-only ``(4, 2, 2)`` stack ``[C_1, C_2, C_3, C_4]``.
    """
    forms = np.array([
        [[_ALPHA, 0], [0, _ALPHA_BAR]],
        [[_ALPHA * _THETA, 0], [0, _ALPHA_BAR * _THETA_BAR]],
        [[0, 1j * _ALPHA_BAR], [_ALPHA, 0]],
        [[0, 1j * _ALPHA_BAR * _THETA_BAR], [_ALPHA * _THETA, 0]],
    ]) / _SQRT5
    forms.setflags(write=False)
    return forms


def golden_code() -> LinearSTBC:
    """Full-rate 2x2 Golden code, K = 8 real symbols.

    Default ordering interleaves I/Q per complex symbol; this is the
    construction-II ordering and already carries a (4, 2, 1) structure.
    """
    forms = golden_linear_forms()
    weights = np.stack((forms, 1j * forms), axis=1).reshape(8, 2, 2)
    labels = ("s1I", "s1Q", "s2I", "s2Q", "s3I", "s3Q", "s4I", "s4Q")
    return _make_code(weights, labels, declared_profile=(4, 2, 1))


def golden_diagonal_half() -> LinearSTBC:
    """Diagonal half of the Golden code (symbols s1, s2), two-group ordered.

    Weight order is [s1I, s2I, s1Q, s2Q]; the Q-part weights are j times the
    I-part ones, which is the premise of construction III.
    """
    half = golden_linear_forms()[:2]
    weights = np.concatenate((half, 1j * half))
    labels = ("s1I", "s2I", "s1Q", "s2Q")
    return _make_code(weights, labels)


def bhv_code() -> LinearSTBC:
    """Rate-2 2x2 code: an Alamouti block plus a flipped, rotated second one.

    ``X = X1(s1, s2) + T X1(z1, z2)`` where ``X1`` is the Alamouti design,
    ``T = diag(1, -1)`` and ``(z1, z2) = U @ (s3, s4)`` with ``U`` the real
    Givens rotation by ``atan(2)/2``.  Carries a (2, 4, 1) block-orthogonal
    structure in the default ordering.
    """
    # z-tilde = check_expand(U) @ s-tilde, so the weight of the p-th real
    # symbol in the second block is T times the matching mix of Alamouti
    # weights.  The + 0.0 gives an exact-zero sum the +0.0 that a sum
    # started from 0 has.
    cu = check_expand(_BHV_ROTATION)
    alamouti = np.array(_ALAMOUTI_WEIGHTS)
    mixed = (cu[:, :, None, None] * alamouti[:, None]).sum(axis=0) + 0.0
    weights = np.concatenate((alamouti, _SIGMA3 @ mixed))
    labels = ("s1I", "s1Q", "s2I", "s2Q", "s3I", "s3Q", "s4I", "s4Q")
    return _make_code(weights, labels, declared_profile=(2, 4, 1))


def srinath_rajan_code() -> LinearSTBC:
    """The 2x2 coordinate-interleaved code of Srinath and Rajan.

    Entries: ``X[0,0] = x1I + j x2Q``, ``X[1,1] = x2I + j x1Q``,
    ``X[0,1] = e^{j pi/4} (x3I + j x4Q)``, ``X[1,0] = e^{j pi/4} (x4I + j x3Q)``.
    It is construction IV of the 2x2 CIOD with ``M_SRINATH_RAJAN``, its
    last two symbol pairs swapped so that the two real symbols sharing a
    codeword entry are adjacent; that order exhibits the declared (2, 2, 2)
    structure.
    """
    code = reorder(construction_iv(ciod(1), M_SRINATH_RAJAN),
                   (0, 1, 2, 3, 6, 7, 4, 5))
    labels = ("x1I", "x2Q", "x2I", "x1Q", "x3I", "x4Q", "x4I", "x3Q")
    return replace(code, labels=labels, declared_profile=(2, 2, 2))


# ---------------------------------------------------------------------------
# Clifford unitary weight designs
# ---------------------------------------------------------------------------

_SIGMA1 = _frozen([[0, 1], [-1, 0]])
_SIGMA2 = _frozen([[0, 1j], [1j, 0]])
_SIGMA3 = _frozen([[1, 0], [0, -1]])


def _kron_chain(mats) -> np.ndarray:
    # every zero part of the sigma matrices is +0.0, so starting from the
    # first factor gives the bytes a chain started from [[1]] gives; a
    # single factor comes back as is, which is why the sigmas are read-only
    return reduce(kron, mats)


def _clifford_generators(a: int) -> dict:
    """Unitary representations of the 2a+1 anticommuting generators.

    Index 1 is the ``j * sigma3^(x a)`` element (sign fixed to +); indices
    2k and 2k+1 place sigma1/sigma2 at tensor slot a-k over a sigma3 tail.
    """
    reps = {1: 1j * _kron_chain([_SIGMA3] * a)}
    eye = np.eye(2, dtype=complex)
    for k in range(1, a + 1):
        tail = [eye] * (a - k)
        reps[2 * k] = _kron_chain(tail + [_SIGMA1] + [_SIGMA3] * (k - 1))
        reps[2 * k + 1] = _kron_chain(tail + [_SIGMA2] + [_SIGMA3] * (k - 1))
    return reps


def cuwd_rate1_4group(a: int) -> LinearSTBC:
    """The rate-1, four-group CUWD for 2^a transmit antennas, as a code.

    Its ``K = 4 lam`` weights (``lam = 2^(a-1)``), labelled
    ``x1 .. x{4 lam}``, are in group-contiguous order: group g occupies
    positions [g*lam, (g+1)*lam).  Positions lam+1, 2*lam+1, 3*lam+1 hold
    the generator representations (the first of them listed as R(1) is
    taken to be the j*sigma3 tensor element); position j*lam+k is
    ``A_k @ A_{j*lam+1}`` with ``A_k`` the product of paired-generator
    elements selected by the bits of k-1.  The design is full rank by
    construction, so only the rank of each sum code built from it is
    checked.
    """
    if not _is_integer(a) or a not in (1, 2, 3):
        raise UnsupportedSize("supported design sizes are a in {1, 2, 3}")
    lam = 2 ** (a - 1)
    reps = _clifford_generators(a)
    alphas = [1j * reps[2 * i] @ reps[2 * i + 1] for i in range(1, a)]
    a_k = []
    for k in range(1, lam + 1):
        mat = np.eye(2 ** a, dtype=complex)
        for i in range(a - 1):
            if ((k - 1) >> i) & 1:
                mat = mat @ alphas[i]
        a_k.append(mat)
    heads = (reps[1], reps[2 * a + 1], reps[2 * a])
    weights = list(a_k)
    for head in heads:
        weights.extend(mat @ head for mat in a_k)
    labels = tuple(f"x{i+1}" for i in range(4 * lam))
    return LinearSTBC(weights, labels)


# ---------------------------------------------------------------------------
# coordinate interleaved orthogonal designs
# ---------------------------------------------------------------------------

def ciod(a: int) -> LinearSTBC:
    """The rate-1 CIOD for 2^a antennas (a = 1 or 2), as a code.

    With ``n = 2^(a-1)``, the codeword is block diagonal in two copies of
    the rate-1 orthogonal design for n antennas (``[x]`` for a = 1, the
    Alamouti design for a = 2), whose complex inputs interleave I/Q
    coordinates: input i of the 2n is ``x_iI + j x_{(i+n) mod 2n, Q}``.
    Diagonal block b takes inputs bn .. bn+n-1, its design's weights in
    order, so weights 2i and 2i+1 are input i's group.  The design is full
    rank by construction, so only the rank of each sum code built from it
    is checked.
    """
    if not _is_integer(a) or a not in (1, 2):
        raise UnsupportedSize("supported design sizes are a in {1, 2}")
    n = 2 ** (a - 1)
    design = np.reshape((1, 1j), (2, 1, 1)) if a == 1 else _ALAMOUTI_WEIGHTS
    weights = np.zeros((4 * n, 2 * n, 2 * n), dtype=complex)
    for b in range(2):
        block = slice(n * b, n * (b + 1))
        weights[2 * n * b:2 * n * (b + 1), block, block] = design
    labels = [lab for i in range(2 * n)
              for lab in (f"x{i}I", f"x{(i + n) % (2 * n)}Q")]
    return LinearSTBC(weights, labels)


# ---------------------------------------------------------------------------
# sum constructions
# ---------------------------------------------------------------------------

def hr_orthogonal(weights, groups) -> bool:
    """True iff every cross-group weight pair is Hurwitz-Radon orthogonal.

    A pair ``(A, B)`` from different groups passes when
    ``A B^H + B A^H = 0`` to ``_EXACT_TOL``; all pairs are checked at once.
    """
    groups = [tuple(g) for g in groups]
    pairs = [(i, j) for gi, first in enumerate(groups)
             for second in groups[gi + 1:] for i in first for j in second]
    if not pairs:
        return True
    stack = np.asarray(weights, dtype=complex)
    k, n_t, t = stack.shape
    # every A_i A_j^H from one product: p[i, :, j] = A_i A_j^H, so pair
    # (i, j) fails when |p[i, :, j] + p[j, :, i]| exceeds the tolerance
    flat = stack.reshape(k * n_t, t)
    p = (flat @ flat.conj().T).reshape(k, n_t, k, n_t)
    fails = (np.abs(p + p.transpose(2, 1, 0, 3)) > _EXACT_TOL).any(axis=(1, 3))
    left, right = zip(*pairs)
    return not fails[left, right].any()


def _sum_code(x1, m, labels, declared_profile) -> LinearSTBC:
    """The sum construction: ``x1``'s weights, then ``m`` times each of them."""
    m = np.asarray(m, dtype=complex)
    n_t = x1.n_t
    if m.shape != (n_t, n_t):
        raise ValueError(f"m must be {n_t}x{n_t}")
    weights = np.concatenate((x1.weights, m @ x1.weights))
    return _make_code(weights, labels, declared_profile)


def construction_i(x1: LinearSTBC, m) -> LinearSTBC:
    """Sum of a four-group design (e.g. a CUWD) with an m-copy of itself.

    ``x1``'s ``K = 4 lam`` weights must form four Hurwitz-Radon orthogonal
    groups of contiguous quarters, else :class:`PremiseViolated`.  Weight
    list is ``[A_1 .. A_{4 lam}, m A_1 .. m A_{4 lam}]``; the result carries
    the declared profile (2, 4, lam).  Raises :class:`RankDeficient` when
    the combined generator loses rank (e.g. ``m = I``).
    """
    lam, rest = divmod(x1.k_real, 4)
    if rest:
        raise PremiseViolated("four-group premise needs K divisible by 4")
    if not hr_orthogonal(x1.weights, [range(g * lam, (g + 1) * lam)
                                      for g in range(4)]):
        raise PremiseViolated("base design is not four-group decodable")
    labels = tuple(f"x{i+1}" for i in range(2 * x1.k_real))
    return _sum_code(x1, m, labels, (2, 4, lam))


def construction_ii(linear_forms) -> LinearSTBC:
    """Code from a matrix of complex-linear symbol forms, I/Q interleaved.

    ``linear_forms`` is one complex coefficient matrix per complex symbol
    (the design must be conjugate-free, so the Q-part weight of each symbol
    is exactly j times its I-part weight).  Ordering is
    ``[A_1, jA_1, A_2, jA_2, ...]`` and the declared profile is (K, 2, 1).
    """
    forms = [np.asarray(c, dtype=complex) for c in linear_forms]
    if not forms:
        raise ValueError("need at least one linear form")
    weights = []
    labels = []
    for i, c in enumerate(forms, start=1):
        weights.extend((c, 1j * c))
        labels.extend((f"x{i}I", f"x{i}Q"))
    return _make_code(weights, labels, declared_profile=(len(forms), 2, 1))


def cda_2x2() -> LinearSTBC:
    """2x2 cyclic-algebra style design ``[[x0, j*x1], [x1, x0]]``.

    A conjugate-free two-symbol design over Q(i); shipped as the small
    construction-II instance with profile (2, 2, 1).
    """
    return construction_ii((np.eye(2, dtype=complex), M_GOLDEN))


def construction_iii(x1: LinearSTBC, m) -> LinearSTBC:
    """Sum of a two-group code (Q-weights = j * I-weights) with an m-copy.

    ``x1`` must list its K I-part weights first and the matching j-multiples
    second.  The combined code ``[x1 weights, m @ x1 weights]`` carries the
    declared profile (2, 2, K).
    """
    if x1.k_real % 2:
        raise PremiseViolated("two-group premise needs an even symbol count")
    half = x1.k_real // 2
    if np.abs(x1.weights[half:] - 1j * x1.weights[:half]).max() > _EXACT_TOL:
        raise PremiseViolated("second half must equal j times the first half")
    if not hr_orthogonal(x1.weights, (range(half), range(half, 2 * half))):
        raise PremiseViolated("halves are not two-group decodable")
    labels = tuple(x1.labels) + tuple(f"{lab}'" for lab in x1.labels)
    return _sum_code(x1, m, labels, (2, 2, half))


def construction_iv(x1: LinearSTBC, m) -> LinearSTBC:
    """Sum of a rate-1 CIOD code (see :func:`ciod`) with an m-copy of itself.

    Declared profile is (2, K/2, 2) with K the CIOD's real symbol count.
    """
    labels = tuple(x1.labels) + tuple(f"{lab}'" for lab in x1.labels)
    return _sum_code(x1, m, labels, (2, x1.k_real // 2, 2))


# ---------------------------------------------------------------------------
# reordering and serialization
# ---------------------------------------------------------------------------

def reorder(code: LinearSTBC, perm) -> LinearSTBC:
    """Permute the symbol order: position i of the result is ``perm[i]``.

    The identity permutation returns the code unchanged (declared profile
    kept); any other permutation drops the declared profile, since block
    orthogonality depends on the ordering.
    """
    try:
        perm = tuple(perm)
    except TypeError:
        raise InvalidPermutation(f"perm = {perm!r} must be a sequence of "
                                 "integers") from None
    if not all(map(_is_integer, perm)):
        raise InvalidPermutation(f"permutation entries must be integers: {perm}")
    if sorted(perm) != list(range(code.k_real)):
        raise InvalidPermutation(f"not a permutation of 0..{code.k_real - 1}")
    if perm == tuple(range(code.k_real)):
        return code
    weights = code.weights[list(perm)]
    weights.setflags(write=False)  # already a fresh copy
    return LinearSTBC(weights, tuple(code.labels[p] for p in perm))


def ordering_from_labels(code: LinearSTBC, labels) -> tuple:
    """Translate a label sequence into a permutation for :func:`reorder`."""
    try:
        labels = list(labels)
    except TypeError:
        raise InvalidPermutation(f"labels = {labels!r} must be a sequence of "
                                 "labels") from None
    if (not all(isinstance(lab, str) for lab in labels)
            or sorted(labels) != sorted(code.labels)):
        raise InvalidPermutation("labels do not match the code's symbols")
    return tuple(code.labels.index(lab) for lab in labels)


def code_to_json(code: LinearSTBC) -> dict:
    """Serializable dict; floats survive the round trip bit-exactly."""
    return {
        "n_t": code.n_t,
        "t": code.t,
        "k_real": code.k_real,
        "labels": list(code.labels),
        "weights": [
            [[[float(x.real), float(x.imag)] for x in row] for row in w]
            for w in code.weights
        ],
        "declared_profile": list(code.declared_profile) if code.declared_profile else None,
    }


def _json_text(text, noun):
    """The value of JSON ``text``; text the parser refuses, nesting too deep
    for it included, raises ``ValueError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{noun} JSON is nested too deeply to parse") from None


def _json_object(data, noun, required, optional):
    """Refuse with ``ValueError`` a ``data`` that is not a JSON object holding
    every ``required`` key and no other key but ``optional`` ones."""
    if type(data) is not dict:
        raise ValueError(f"{noun} = {data!r} must be a JSON object")
    if unknown := sorted(data.keys() - {*required, *optional}, key=str):
        raise ValueError(f"unknown {noun} key(s) {unknown}")
    if missing := [key for key in required if key not in data]:
        raise ValueError(f"missing {noun} key(s) {missing}")


def _json_array(value, name, entry, noun) -> tuple:
    """A list or tuple, as the tuple of ``entry(v, "name[i]")`` over it."""
    if type(value) not in (list, tuple):
        raise ValueError(f"{name} = {value!r} must be an array of {noun}")
    return tuple(entry(v, f"{name}[{i}]") for i, v in enumerate(value))


def _json_number(value, name) -> float:
    """An ``int`` or ``float`` (not ``bool``) that fits a float, as one."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} = {value!r} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a number that fits a float") from None


def _json_integer(value, name) -> int:
    """``value`` as an ``int``: JSON integers, ``3.0`` included, pass;
    ``bool``, strings and non-integral numbers raise ``ValueError``."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"{name} = {value!r} must be an integer")


def _json_entry(entry, i, r, c) -> complex:
    """Entry ``weights[i][r][c]``: ``[re, im]``, two numbers that fit a float
    (``bool`` is not a number here)."""
    name = f"weights[{i}][{r}][{c}]"
    if type(entry) is list and len(entry) == 2:
        try:
            return complex(*(_json_number(x, name) for x in entry))
        except ValueError:
            pass
    raise ValueError(f"{name} = {entry!r} must be an array of two numbers "
                     "[re, im]")


def _json_weight(w, i) -> np.ndarray:
    """Weight ``i`` of a code JSON object: an array of equal-length rows of
    ``[re, im]`` entries."""
    if type(w) is not list or not all(type(row) is list for row in w):
        raise ValueError(f"weights[{i}] = {w!r} must be an array of rows")
    if len({len(row) for row in w}) > 1:
        raise ValueError(f"weights[{i}] rows must share one length")
    return np.array([[_json_entry(e, i, r, c) for c, e in enumerate(row)]
                     for r, row in enumerate(w)], dtype=complex)


def code_from_json(data) -> LinearSTBC:
    """The code of a ``schemas/code.schema.json`` object (or its text) whose
    ``declared_profile`` may be left out; a bad key raises ``ValueError``."""
    if isinstance(data, str):
        data = _json_text(data, "code")
    _json_object(data, "code", ("n_t", "t", "k_real", "labels", "weights"),
                 ("declared_profile",))
    weights, profile = data["weights"], data.get("declared_profile")
    if type(weights) is not list or not weights:
        raise ValueError(f"weights = {weights!r} must be a non-empty array")
    if type(profile) is list:
        profile = list(_json_array(profile, "declared_profile", _json_integer,
                                   "integers"))
    weights = [_json_weight(w, i) for i, w in enumerate(weights)]
    if len(weights) != data["k_real"]:
        raise ValueError("k_real does not match the number of weight matrices")
    code = LinearSTBC(weights, data["labels"], profile)
    if (code.n_t, code.t) != (data["n_t"], data["t"]):
        raise ValueError("declared dimensions do not match the weights")
    return code


def save_code(code: LinearSTBC, path) -> None:
    with open(path, "w") as f:
        json.dump(code_to_json(code), f, indent=1)
        f.write("\n")


def load_code(path) -> LinearSTBC:
    with open(path) as f:
        return code_from_json(f.read())


# ---------------------------------------------------------------------------
# registries used by the CLI and the simulation harness
# ---------------------------------------------------------------------------

def named_m_matrix(name: str, n_t: int = 2) -> np.ndarray:
    """Companion matrices referred to by name on the command line."""
    if not isinstance(name, str):
        raise ValueError(f"m matrix name = {name!r} must be a string")
    name = name.lower()
    if name == "identity":
        return np.eye(n_t, dtype=complex)
    if name == "bhv":
        return _SIGMA3 @ _BHV_ROTATION
    if name == "golden":
        return np.array(M_GOLDEN)
    if name in ("sr", "srinath-rajan"):
        return np.array(M_SRINATH_RAJAN)
    if name == "a2":
        return np.array(M_A2)
    raise ValueError(f"unknown m matrix {name!r}")


#: The sum codes: construction, base design and the name of the default
#: companion matrix its m-multiplied copy uses.
_SUM_CODES = {
    "ci-a1": (construction_i, lambda: cuwd_rate1_4group(1), "bhv"),
    "ci-a2": (construction_i, lambda: cuwd_rate1_4group(2), "a2"),
    "ciii-golden": (construction_iii, golden_diagonal_half, "golden"),
    "civ-a1": (construction_iv, lambda: ciod(1), "sr"),
    "civ-a2": (construction_iv, lambda: ciod(2), "a2"),
}

#: The codes without a companion matrix.
_FIXED_CODES = {
    "alamouti": alamouti_code,
    "golden": golden_code,
    "golden-222": lambda: replace(
        reorder(golden_code(), GOLDEN_ORDERING_222), declared_profile=(2, 2, 2)),
    "bhv": bhv_code,
    "srinath-rajan": srinath_rajan_code,
    "cda-2x2": cda_2x2,
    "cii-golden": lambda: construction_ii(golden_linear_forms()),
}

#: Every shipped code name :func:`named_code` builds.
CODE_NAMES = (*_FIXED_CODES, *_SUM_CODES)


def named_code(name: str, companion: str | None = None) -> LinearSTBC:
    """Construct one of the shipped codes by name.

    ``companion`` names the matrix (see :func:`named_m_matrix`) a sum code's
    m-multiplied copy uses instead of its default; naming one for a code
    without a companion matrix raises ``ValueError``.
    """
    if not isinstance(name, str):
        raise ValueError(f"name = {name!r} must be a code name, one of "
                         f"{sorted(CODE_NAMES)}")
    name = name.lower()
    if name in _SUM_CODES:
        construction, base, default = _SUM_CODES[name]
        x1 = base()
        m = named_m_matrix(default if companion is None else companion, x1.n_t)
        return construction(x1, m)
    if name not in _FIXED_CODES:
        raise ValueError(f"unknown code {name!r}; choose from {sorted(CODE_NAMES)}")
    if companion is not None:
        raise ValueError(f"code {name!r} takes no companion matrix")
    return _FIXED_CODES[name]()
