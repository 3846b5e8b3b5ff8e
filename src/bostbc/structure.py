"""Equivalent-channel factorization and R-matrix structure analysis.

The central object is the boolean zero pattern of the upper-triangular QR
factor of the real equivalent channel.  Structural zeros are declared only
when an entry stays below tolerance on every one of several independent
random channels, so they reflect weight-matrix algebra rather than channel
luck.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import codes as _codes
from .linalg import RankDeficient, check_expand, gram_schmidt_qr, kron

__all__ = [
    "TooFewReceiveAntennas",
    "BlockOrthogonalProfile",
    "ConditionResult",
    "StructureReport",
    "equivalent_channel",
    "structural_pattern",
    "detect_profile",
    "profile_validates",
    "classify",
    "detect_structure",
    "verify_multi_block_premises",
    "verify_cuwd_sum_structure",
    "ordering_search",
    "random_channel",
    "DEFAULT_TOL_REL",
    "DEFAULT_PATTERN_CHANNELS",
    "DEFAULT_SEED",
]

DEFAULT_TOL_REL = 1e-9
DEFAULT_PATTERN_CHANNELS = 20
DEFAULT_SEED = 20230

# largest relative residual a sampled premise or sum-structure fact may show
_PREMISE_TOL = 1e-9


class TooFewReceiveAntennas(ValueError):
    """2 * n_r * t < K: the equivalent channel cannot have full column rank."""


@dataclass(frozen=True)
class BlockOrthogonalProfile:
    """Parameters (Gamma, k, gamma) of a block-orthogonal R pattern.

    Gamma diagonal blocks, each block-diagonal with k upper-triangular
    sub-blocks of gamma symbols.
    """

    gamma_blocks: int
    k: int
    gamma: int

    def __post_init__(self):
        for name in ("gamma_blocks", "k", "gamma"):
            value = getattr(self, name)
            if not _codes._is_integer(value):
                raise ValueError(f"{name} = {value!r} must be an integer")
            object.__setattr__(self, name, int(value))
        if min(self.gamma_blocks, self.k, self.gamma) < 1:
            raise ValueError("profile parameters must be >= 1")

    @property
    def block_size(self) -> int:
        return self.k * self.gamma

    @property
    def total(self) -> int:
        return self.gamma_blocks * self.k * self.gamma

    def as_tuple(self) -> tuple:
        return (self.gamma_blocks, self.k, self.gamma)

    def structural_zeros(self) -> np.ndarray:
        """Fresh ``total x total`` mask of the entries of R that must be zero.

        An entry ``(i, j)`` is masked when it lies inside a diagonal block,
        above the diagonal (``j > i``) and outside that block's sub-blocks.
        """
        idx = np.arange(self.total)
        block, sub = idx // self.block_size, idx // self.gamma
        return ((block[:, None] == block[None, :])
                & (sub[:, None] != sub[None, :])
                & (idx[:, None] < idx[None, :]))


def _check_profile(profile, *, or_none=False) -> None:
    """Refuse with ``ValueError`` anything but a :class:`BlockOrthogonalProfile`
    (or None, where ``or_none``: the decoders read it as plain decoding).  A
    code's ``declared_profile`` is a tuple, so it is refused too."""
    if not (isinstance(profile, BlockOrthogonalProfile)
            or (or_none and profile is None)):
        kind = "a BlockOrthogonalProfile" + (" or None" if or_none else "")
        raise ValueError(f"profile must be {kind}, "
                         f"got a {type(profile).__name__}")


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    residual: float | None = None

    def to_json(self) -> dict:
        return {"name": self.name, "pass": bool(self.passed),
                "residual": None if self.residual is None else float(self.residual)}


@dataclass(frozen=True)
class StructureReport:
    """Classification of an R zero pattern plus the checks behind it.

    It describes the pattern alone; the tolerance and seeds that produced
    the pattern belong to its caller (``bostbc analyze`` prints them).
    """

    classification: str
    profile: BlockOrthogonalProfile | None
    group_count: int | None
    conditions: tuple

    def to_json(self) -> dict:
        return {
            "classification": self.classification,
            "profile": list(self.profile.as_tuple()) if self.profile else None,
            "group_count": self.group_count,
            "conditions": [c.to_json() for c in self.conditions],
        }


def random_channel(n_r: int, n_t: int, rng) -> np.ndarray:
    """i.i.d. unit-variance complex Gaussian channel draw: ``n_r * n_t``
    real parts, then as many imaginary parts, from one call.  Antenna counts
    that are not integers >= 1 (``bool`` included) raise ``ValueError``."""
    if not (_codes._is_integer(n_r) and _codes._is_integer(n_t)
            and min(n_r, n_t) >= 1):
        raise ValueError(f"n_r, n_t = {n_r!r}, {n_t!r} must be integers >= 1")
    re, im = rng.standard_normal((2, n_r, n_t))
    return (re + 1j * im) / math.sqrt(2.0)


def _receive_antennas(n_r, n_t=None):
    """``n_r`` as an ``int``, or ``n_t`` when ``n_r`` is None; any other
    ``n_r`` that is not an integer >= 1 (``bool`` included, numpy integers
    not) raises ``ValueError``."""
    if n_r is None:
        return n_t
    if not _codes._is_integer(n_r) or n_r < 1:
        raise ValueError(f"n_r = {n_r!r} must be null or an integer >= 1")
    return int(n_r)


#: Channel-count ceiling of every structural check: one holds every sampled
#: R at once, about 16 KB a channel on ci-a2.
_MAX_CHANNELS = 10_000


def _sampled_r(code, n_channels: int, seed: int,
               n_r: int | None = None) -> np.ndarray:
    """The ``(n_channels, K, K)`` stack of R every structural check reads:
    the equivalent channels of ``n_channels`` seeded channel draws (``n_t``
    receive antennas unless ``n_r`` is given), factored by one
    ``gram_schmidt_qr`` call.  On Gaussian draws rank deficiency is a
    property of the code, so its ``RankDeficient`` hits every draw.  A
    count above ``_MAX_CHANNELS`` raises ``ValueError`` before any draw."""
    if not _codes._is_integer(n_channels):
        raise ValueError(f"n_channels = {n_channels!r} must be an integer")
    if n_channels < 1:
        raise ValueError("n_channels must be >= 1")
    if n_channels > _MAX_CHANNELS:
        raise ValueError(f"n_channels = {n_channels} must be at most "
                         f"{_MAX_CHANNELS}")
    if not _codes._is_integer(seed) or seed < 0:
        raise ValueError(f"seed = {seed!r} must be an integer >= 0")
    n_r = _receive_antennas(n_r, code.n_t)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return gram_schmidt_qr(np.stack([
        equivalent_channel(code, random_channel(n_r, code.n_t, rng))
        for _ in range(n_channels)])).r


def equivalent_channel(code, h) -> np.ndarray:
    """Real equivalent channel ``(I_t (x) check(h)) @ G``.

    Column i equals ``tilde_vec(cvec(h @ A_i))``; the Kronecker route and
    the per-column route agree to rounding.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[1] != code.n_t:
        raise ValueError(f"channel must be an n_r x {code.n_t} matrix, "
                         f"got shape {h.shape}")
    n_r = h.shape[0]
    if 2 * n_r * code.t < code.k_real:
        raise TooFewReceiveAntennas(
            f"2*{n_r}*{code.t} < K = {code.k_real}: add receive antennas")
    g = _codes.generator_matrix(code)
    return kron(_identity(code.t), check_expand(h)) @ g


@functools.lru_cache(maxsize=16)
def _identity(t: int) -> np.ndarray:
    """Read-only ``t x t`` identity, built once per size."""
    eye = np.eye(t)
    eye.setflags(write=False)
    return eye


def structural_pattern(code, *, n_r: int | None = None,
                       n_channels: int = DEFAULT_PATTERN_CHANNELS,
                       tol_rel: float = DEFAULT_TOL_REL,
                       seed: int = DEFAULT_SEED) -> np.ndarray:
    """Boolean support of R: True where the entry is structurally nonzero.

    On each of ``n_channels`` seeded channel draws, R is the QR factor of
    the equivalent channel and its support is ``|r_ij| > tol_rel * max|r|``
    with ``0 <= tol_rel < 1``.  An entry counts as structurally zero only if
    it lies outside the support on every draw.
    """
    if not (isinstance(tol_rel, numbers.Real) and type(tol_rel) is not bool
            and 0.0 <= tol_rel < 1.0):
        raise ValueError(f"tol_rel = {tol_rel} must satisfy 0 <= tol_rel < 1")
    abs_r = np.abs(_sampled_r(code, n_channels, seed, n_r))
    return (abs_r > tol_rel * abs_r.max(axis=(1, 2), keepdims=True)).any(axis=0)


def _candidate_profiles(k_total: int):
    # largest Gamma first, then largest k; k = 1 profiles are vacuous
    for gamma_blocks in range(k_total, 0, -1):
        if k_total % gamma_blocks:
            continue
        block = k_total // gamma_blocks
        for k in range(block, 1, -1):
            if block % k:
                continue
            yield BlockOrthogonalProfile(gamma_blocks, k, block // k)


def _upper_pattern(pattern) -> np.ndarray:
    """``pattern`` as a boolean array; ``ValueError`` unless it is square
    with upper-triangular support."""
    pattern = np.asarray(pattern, dtype=bool)
    if pattern.ndim != 2 or pattern.shape[0] != pattern.shape[1]:
        raise ValueError("pattern must be square")
    if np.tril(pattern, -1).any():
        raise ValueError("pattern must have upper-triangular support")
    return pattern


def profile_validates(pattern, profile: BlockOrthogonalProfile) -> bool:
    """Check a (Gamma, k, gamma) claim against a support pattern.

    Inside every diagonal block, entries outside the k gamma x gamma
    diagonal sub-blocks must be structural zeros; every block above the
    diagonal must contain at least one nonzero (when Gamma > 1).
    """
    _check_profile(profile)
    return _fits(_upper_pattern(pattern), profile)


def _fits(pattern, profile: BlockOrthogonalProfile) -> bool:
    """:func:`profile_validates` on an already checked pattern and profile."""
    if profile.total != pattern.shape[0]:
        return False
    if (pattern & profile.structural_zeros()).any():
        return False
    m = profile.block_size
    for bi in range(profile.gamma_blocks):
        for bj in range(bi + 1, profile.gamma_blocks):
            if not pattern[bi * m:(bi + 1) * m, bj * m:(bj + 1) * m].any():
                return False
    return True


def detect_profile(pattern) -> BlockOrthogonalProfile | None:
    """Maximal uniform profile consistent with the pattern, if any.

    Maximality: largest Gamma, then largest k.  Profiles with k = 1 impose
    nothing and are never reported; a pattern admitting only those returns
    None.
    """
    pattern = _upper_pattern(pattern)
    for profile in _candidate_profiles(pattern.shape[0]):
        if _fits(pattern, profile):
            return profile
    return None


def _cut_points(pattern) -> list:
    """Split positions p where no nonzero couples columns < p to >= p."""
    k = pattern.shape[0]
    cuts = []
    for p in range(1, k):
        if not pattern[:p, p:].any():
            cuts.append(p)
    return cuts


def _has_fast_split(pattern) -> bool:
    """True if some proper leading principal block is >= 2-way block
    diagonal, i.e. some column p, 1 <= p <= K - 2, has no support above the
    diagonal (the block of the first p + 1 columns then splits at p)."""
    return not np.triu(pattern, 1)[:, 1:-1].any(axis=0).all()


def classify(pattern) -> StructureReport:
    """Label a zero pattern with the most specific structure it supports.

    Order of specificity: fully decoupled patterns are multi-group (or
    fast-group when the groups decode fast internally); coupled patterns are
    block-orthogonal when a (Gamma >= 2, k >= 2) profile validates, else
    fast-decodable when a leading block-diagonal section exists, else
    unstructured.  The label depends on ``pattern`` only, which must be
    square with upper-triangular support, as :func:`detect_profile` asks.
    """
    pattern = _upper_pattern(pattern)
    k = pattern.shape[0]
    conditions = []

    cuts = _cut_points(pattern)
    segments = list(zip([0] + cuts, cuts + [k]))
    g = len(segments)
    conditions.append(ConditionResult("diagonal-split-count", g > 1, float(g)))

    if g > 1:
        inner_fast = [
            _has_fast_split(pattern[a:b, a:b]) for a, b in segments if b - a >= 2
        ]
        if inner_fast and all(inner_fast):
            return StructureReport("fast-group", None, g, tuple(conditions))
        return StructureReport("multi-group", None, g, tuple(conditions))

    profile = detect_profile(pattern)
    if profile is not None and profile.gamma_blocks >= 2:
        conditions.append(ConditionResult("block-orthogonal-profile", True, None))
        return StructureReport("block-orthogonal", profile, None, tuple(conditions))
    conditions.append(ConditionResult("block-orthogonal-profile", False, None))

    if _has_fast_split(pattern):
        return StructureReport("fast-decodable", None, None, tuple(conditions))
    return StructureReport("unstructured", None, None, tuple(conditions))


def detect_structure(code, *, n_r: int | None = None) -> StructureReport:
    """Classify a code from its channel-independent structural pattern."""
    return classify(structural_pattern(code, n_r=n_r))


# ---------------------------------------------------------------------------
# premise verifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PremiseReport:
    conditions: tuple

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, name: str) -> ConditionResult:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


def verify_multi_block_premises(code, profile: BlockOrthogonalProfile, *,
                                n_channels: int = DEFAULT_PATTERN_CHANNELS,
                                seed: int = DEFAULT_SEED) -> PremiseReport:
    """Check the sufficient conditions for a ``(Gamma, k, gamma)`` claim.

    Conditions: every block of ``k gamma`` symbols is k-group decodable with
    gamma symbols per contiguous group, R keeps full rank on sampled
    channels, and at every block boundary ``s`` the coupling
    ``E = R[:s, s:s+k gamma]`` has ``E^T E`` block diagonal with k
    gamma x gamma blocks on every sample.  Gamma = 2 is the two-block case.
    An E that is zero on some sample, exactly or to within ``_PREMISE_TOL``
    of that sample's max|R|, fails with residual ``inf``.
    """
    _check_profile(profile)
    K = code.k_real
    if profile.total != K:
        raise ValueError("profile size must match the code")
    m, k, gamma = profile.block_size, profile.k, profile.gamma
    groups = [range(i * gamma, (i + 1) * gamma) for i in range(k)]
    cond = []
    for b in range(profile.gamma_blocks):
        ok = _codes.hr_orthogonal(code.weights[b * m:(b + 1) * m], groups)
        cond.append(ConditionResult(f"block-{b + 1}-group-decodable", ok))
    off_block = BlockOrthogonalProfile(1, k, gamma).structural_zeros()
    off_block |= off_block.T
    try:
        r = _sampled_r(code, n_channels, seed)
    except RankDeficient:
        r = None
    cond.append(ConditionResult("r-full-rank", r is not None))
    for s in range(m, K, m):
        # the worst draw's max|E^T E| off the k diagonal blocks relative to
        # max|E^T E|; an E zero to within the tolerance couples nothing and
        # reads inf
        w = 0.0
        if r is not None:
            e = r[:, :s, s:s + m]
            cut = _PREMISE_TOL * np.abs(r).max(axis=(1, 2))
            if (np.abs(e).max(axis=(1, 2)) <= cut).any():
                w = math.inf
            elif off_block.any():
                ete = np.abs(e.transpose(0, 2, 1) @ e)
                w = float((ete[:, off_block].max(axis=1)
                           / ete.max(axis=(1, 2))).max())
        cond.append(ConditionResult(f"ete-block-diagonal-at-{s}",
                                    r is not None and w < _PREMISE_TOL, w))
    return PremiseReport(conditions=tuple(cond))


# ---------------------------------------------------------------------------
# sum-construction structure checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SumStructureReport:
    """Residuals of the three structural facts of the CUWD sum construction.

    ``e_structure_orientation`` records which sign orientation of the inner
    permuted blocks matched: +1 for the reference layout, -1 for its mirror
    (the lambda = 1 and lambda = 4 designs realize the mirror).
    """

    r1_blocks_equal: float
    r1_block_diagonal: float
    e_structure: float
    e_structure_orientation: int
    r2_block_diagonal: float

    def passes(self) -> bool:
        return all(r < _PREMISE_TOL for r in (
            self.r1_blocks_equal, self.r1_block_diagonal,
            self.e_structure, self.r2_block_diagonal))


def verify_cuwd_sum_structure(code, *, n_channels: int = 50,
                              seed: int = DEFAULT_SEED) -> SumStructureReport:
    """Numerically check the R1/E/R2 structure of a CUWD sum code.

    (a) the four lambda x lambda diagonal blocks of R1 are equal,
    (b) E is built from four lambda-size blocks with the quaternion-like
        sign/permutation layout (orientation reported),
    (c) R2 is block diagonal with four lambda x lambda blocks.
    """
    K = code.k_real
    if K % 8:
        raise ValueError("construction-I codes have K = 8*lambda symbols")
    lam = K // 8
    L = 4 * lam
    # R1 and R2 are upper triangular, so their off-block mass lies above
    # the diagonal
    mask = BlockOrthogonalProfile(1, 4, lam).structural_zeros()

    r = _sampled_r(code, n_channels, seed)
    scale = np.abs(r).max(axis=(1, 2))

    def worst(*parts):
        """Largest ``|entry|`` of the parts on any draw, relative to that
        draw's max|R|."""
        return float((np.max([np.abs(p).reshape(len(r), -1).max(axis=1)
                              for p in parts], axis=0) / scale).max())

    # r1b[:, i, j] and eb[:, i, j] are the (i, j) lambda x lambda blocks of
    # R1 and E; f2..f4 are e2..e4 @ fliplr(I), their columns reversed
    r1b, eb = (x.reshape(-1, 4, lam, 4, lam).swapaxes(2, 3)
               for x in (r[:, :L, :L], r[:, :L, L:]))
    e1, e2, e3, e4 = (eb[:, i, 0] for i in range(4))
    f2, f3, f4 = (x[..., ::-1] for x in (e2, e3, e4))
    res_inner = {eps: worst(eb[:, 1, 2] + eps * f4, eb[:, 2, 1] - eps * f4,
                            eb[:, 1, 3] - eps * f3, eb[:, 3, 1] + eps * f3,
                            eb[:, 2, 3] + eps * f2, eb[:, 3, 2] - eps * f2)
                 for eps in (+1, -1)}
    orientation = +1 if res_inner[+1] <= res_inner[-1] else -1
    return SumStructureReport(
        r1_blocks_equal=worst(*(r1b[:, i, i] - r1b[:, 0, 0]
                                for i in range(4))),
        r1_block_diagonal=worst(r[:, :L, :L][:, mask]),
        e_structure=max(worst(eb[:, 1, 1] - e1, eb[:, 2, 2] - e1,
                              eb[:, 3, 3] - e1, eb[:, 0, 1] + e2,
                              eb[:, 0, 2] + e3, eb[:, 0, 3] + e4),
                        res_inner[orientation]),
        e_structure_orientation=orientation,
        r2_block_diagonal=worst(r[:, L:, L:][:, mask]),
    )


# ---------------------------------------------------------------------------
# ordering search
# ---------------------------------------------------------------------------

def _quadrature_pairs(code):
    """Pairs (i, j) with weight_j = +/- j * weight_i, if they cover the code."""
    used = set()
    pairs = []
    for i in range(code.k_real):
        if i in used:
            continue
        for j in range(code.k_real):
            if j == i or j in used:
                continue
            d = code.weights[j] - 1j * code.weights[i]
            s = code.weights[j] + 1j * code.weights[i]
            if min(np.abs(d).max(), np.abs(s).max()) < _codes._EXACT_TOL:
                pairs.append((i, j))
                used.update((i, j))
                break
        else:
            return None
    return pairs


def ordering_search(code, *, n_channels: int = DEFAULT_PATTERN_CHANNELS,
                    seed: int = DEFAULT_SEED):
    """Search structured symbol orders for the richest detected profile.

    Tries the identity plus, when the weights split into quadrature pairs
    (A, jA), all chunked interleavings of those pairs: pairwise
    [p1 q1 p2 q2 ...] through fully separated [p... q...] orders.
    Returns ``(permutation, profile)`` maximizing Gamma * k, ties to the
    earliest candidate.
    """
    k_total = code.k_real
    candidates = [tuple(range(k_total))]
    pairs = _quadrature_pairs(code)
    if pairs:
        n_pairs = len(pairs)
        for chunk in [d for d in range(1, n_pairs + 1) if n_pairs % d == 0]:
            order = []
            for base in range(0, n_pairs, chunk):
                group = pairs[base:base + chunk]
                order.extend(p for p, _ in group)
                order.extend(q for _, q in group)
            candidates.append(tuple(order))
    best = (tuple(range(k_total)), None, -1)
    for cand in candidates:
        perm_code = _codes.reorder(code, cand)
        profile = detect_profile(structural_pattern(
            perm_code, n_channels=n_channels, seed=seed))
        score = profile.gamma_blocks * profile.k if profile else 0
        if score > best[2]:
            best = (cand, profile, score)
    return best[0], best[1]
