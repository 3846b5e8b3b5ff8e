"""Equivalent-channel factorization and R-matrix structure analysis.

The central object is the boolean zero pattern of the upper-triangular QR
factor of the real equivalent channel.  Structural zeros are declared only
when an entry stays below tolerance on every one of several independent
random channels, so they reflect weight-matrix algebra rather than channel
luck.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codes as _codes
from .linalg import QrResult, RankDeficient, check_expand, gram_schmidt_qr, kron

__all__ = [
    "TooFewReceiveAntennas",
    "BlockOrthogonalProfile",
    "EquivalentChannelFactorization",
    "ConditionResult",
    "StructureReport",
    "equivalent_channel",
    "r_factorize",
    "structural_pattern",
    "detect_profile",
    "profile_validates",
    "classify",
    "detect_structure",
    "verify_hr_grouping",
    "verify_paraunitary_premises",
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

# tolerance for numerically-exact weight-matrix identities
_EXACT_TOL = 1e-12


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


@dataclass(frozen=True)
class EquivalentChannelFactorization:
    """H_eq together with its QR factors and thresholded zero pattern."""

    h_eq: np.ndarray
    qr: QrResult
    zero_pattern: np.ndarray


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
    """Classification of an R zero pattern plus the checks behind it."""

    classification: str
    profile: BlockOrthogonalProfile | None
    group_count: int | None
    conditions: tuple
    tol: float
    seeds: tuple

    def to_json(self) -> dict:
        return {
            "classification": self.classification,
            "profile": list(self.profile.as_tuple()) if self.profile else None,
            "group_count": self.group_count,
            "conditions": [c.to_json() for c in self.conditions],
            "tol": self.tol,
            "seeds": list(self.seeds),
        }


def random_channel(n_r: int, n_t: int, rng) -> np.ndarray:
    """i.i.d. unit-variance complex Gaussian channel draw."""
    return (rng.standard_normal((n_r, n_t))
            + 1j * rng.standard_normal((n_r, n_t))) / np.sqrt(2.0)


def _channels(code, n_channels: int, seed: int, n_r: int | None = None) -> list:
    """The ``n_channels`` seeded channel draws every structural check uses,
    with ``n_t`` receive antennas unless ``n_r`` is given."""
    if n_channels < 1:
        raise ValueError("n_channels must be >= 1")
    n_r = n_r or code.n_t
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [random_channel(n_r, code.n_t, rng) for _ in range(n_channels)]


def equivalent_channel(code, h) -> np.ndarray:
    """Real equivalent channel ``(I_t (x) check(h)) @ G``.

    Column i equals ``tilde_vec(cvec(h @ A_i))``; the Kronecker route and
    the per-column route agree to rounding.
    """
    h = np.asarray(h, dtype=complex)
    n_r = h.shape[0]
    if h.shape[1] != code.n_t:
        raise ValueError(f"channel must have {code.n_t} columns")
    if 2 * n_r * code.t < code.k_real:
        raise TooFewReceiveAntennas(
            f"2*{n_r}*{code.t} < K = {code.k_real}: add receive antennas")
    g = _codes.generator_matrix(code)
    return kron(np.eye(code.t), check_expand(h)) @ g


def r_factorize(code, h, tol_rel: float = DEFAULT_TOL_REL) -> EquivalentChannelFactorization:
    """QR-factorize the equivalent channel and threshold its zero pattern:
    an entry is zero when ``|r_ij| <= tol_rel * max|r|``, ``0 <= tol_rel < 1``."""
    if not 0.0 <= tol_rel < 1.0:
        raise ValueError(f"tol_rel = {tol_rel} must satisfy 0 <= tol_rel < 1")
    h_eq = equivalent_channel(code, h)
    qr = gram_schmidt_qr(h_eq)
    abs_r = np.abs(qr.r)
    pattern = abs_r <= tol_rel * abs_r.max()
    return EquivalentChannelFactorization(h_eq=h_eq, qr=qr, zero_pattern=pattern)


def structural_pattern(code, *, n_r: int | None = None,
                       n_channels: int = DEFAULT_PATTERN_CHANNELS,
                       tol_rel: float = DEFAULT_TOL_REL,
                       seed: int = DEFAULT_SEED) -> np.ndarray:
    """Boolean support of R: True where the entry is structurally nonzero.

    An entry counts as structurally zero only if it falls below tolerance on
    every one of ``n_channels`` seeded channel draws.
    """
    support = np.zeros((code.k_real, code.k_real), dtype=bool)
    for h in _channels(code, n_channels, seed, n_r):
        support |= ~r_factorize(code, h, tol_rel).zero_pattern
    return support


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


def profile_validates(pattern, profile: BlockOrthogonalProfile) -> bool:
    """Check a (Gamma, k, gamma) claim against a support pattern.

    Inside every diagonal block, entries outside the k gamma x gamma
    diagonal sub-blocks must be structural zeros; every block above the
    diagonal must contain at least one nonzero (when Gamma > 1).
    """
    pattern = np.asarray(pattern, dtype=bool)
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
    pattern = np.asarray(pattern, dtype=bool)
    if pattern.ndim != 2 or pattern.shape[0] != pattern.shape[1]:
        raise ValueError("pattern must be square")
    if np.tril(pattern, -1).any():
        raise ValueError("pattern must have upper-triangular support")
    for profile in _candidate_profiles(pattern.shape[0]):
        if profile_validates(pattern, profile):
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
    """True if some leading principal block is >= 2-way block diagonal."""
    k = pattern.shape[0]
    for L in range(2, k):
        lead = pattern[:L, :L]
        if _cut_points(lead):
            return True
    return False


def classify(pattern, *, tol: float = DEFAULT_TOL_REL,
             seeds: tuple = ()) -> StructureReport:
    """Label a zero pattern with the most specific structure it supports.

    Order of specificity: fully decoupled patterns are multi-group (or
    fast-group when the groups decode fast internally); coupled patterns are
    block-orthogonal when a (Gamma >= 2, k >= 2) profile validates, else
    fast-decodable when a leading block-diagonal section exists, else
    unstructured.
    """
    pattern = np.asarray(pattern, dtype=bool)
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
            return StructureReport("fast-group", None, g, tuple(conditions), tol, seeds)
        return StructureReport("multi-group", None, g, tuple(conditions), tol, seeds)

    profile = detect_profile(pattern)
    if profile is not None and profile.gamma_blocks >= 2:
        conditions.append(ConditionResult("block-orthogonal-profile", True, None))
        return StructureReport("block-orthogonal", profile, None, tuple(conditions), tol, seeds)
    conditions.append(ConditionResult("block-orthogonal-profile", False, None))

    if _has_fast_split(pattern):
        return StructureReport("fast-decodable", None, None, tuple(conditions), tol, seeds)
    return StructureReport("unstructured", None, None, tuple(conditions), tol, seeds)


def detect_structure(code, *, n_r: int | None = None,
                     n_channels: int = DEFAULT_PATTERN_CHANNELS,
                     tol_rel: float = DEFAULT_TOL_REL,
                     seed: int = DEFAULT_SEED) -> StructureReport:
    """Classify a code from its channel-independent structural pattern."""
    pattern = structural_pattern(code, n_r=n_r, n_channels=n_channels,
                                 tol_rel=tol_rel, seed=seed)
    return classify(pattern, tol=tol_rel, seeds=(seed,))


# ---------------------------------------------------------------------------
# premise verifiers
# ---------------------------------------------------------------------------

def verify_hr_grouping(code, grouping) -> bool:
    """True iff all cross-group weight pairs are Hurwitz-Radon orthogonal."""
    groups = [tuple(g) for g in grouping]
    flat = sorted(i for g in groups for i in g)
    if flat != list(range(code.k_real)):
        raise ValueError("grouping must partition the symbol indices")
    return _codes.hr_orthogonal(code.weights, groups)


def _ete_block_residual(ete, mask) -> float:
    """Largest ``|ete|`` entry under ``mask`` relative to the largest entry."""
    scale = np.abs(ete).max()
    if scale == 0:
        return float("inf")
    return float(np.abs(ete[mask]).max() / scale) if mask.any() else 0.0


@dataclass(frozen=True)
class ParaunitaryReport:
    hr_orthogonal: bool
    identity_residual: float
    offdiag_residual: float

    @property
    def para_unitary(self) -> bool:
        return self.hr_orthogonal and self.identity_residual < 1e-9


def verify_paraunitary_premises(b_weights, e) -> ParaunitaryReport:
    """Check HR orthogonality of the conditioned half and E^T E ~ identity.

    ``identity_residual`` is ``max|E^T E - I|`` relative to ``max|E^T E|``;
    ``offdiag_residual`` ignores the diagonal, which is the part that must
    vanish for single-symbol (gamma = 1) splits.
    """
    b_weights = list(b_weights)
    hr_ok = _codes.hr_orthogonal(b_weights, [(i,) for i in range(len(b_weights))])
    e = np.asarray(e, dtype=float)
    ete = e.T @ e
    scale = max(np.abs(ete).max(), 1e-300)
    ident = float(np.abs(ete - np.eye(ete.shape[0])).max() / scale)
    off = float(np.abs(ete - np.diag(np.diag(ete))).max() / scale)
    return ParaunitaryReport(hr_orthogonal=hr_ok, identity_residual=ident, offdiag_residual=off)


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
                                seed: int = DEFAULT_SEED,
                                tol: float = 1e-9) -> PremiseReport:
    """Check the sufficient conditions for a ``(Gamma, k, gamma)`` claim.

    Conditions: every block of ``k gamma`` symbols is k-group decodable with
    gamma symbols per contiguous group, R keeps full rank on sampled
    channels, and at every block boundary ``s`` the coupling
    ``E = R[:s, s:s+k gamma]`` has ``E^T E`` block diagonal with k
    gamma x gamma blocks on every sample.  Gamma = 2 is the two-block case.
    """
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
    rank_ok = True
    worst = {s: 0.0 for s in range(m, K, m)}
    for h in _channels(code, n_channels, seed):
        try:
            fact = r_factorize(code, h)
        except RankDeficient:
            rank_ok = False
            continue
        for s in worst:
            e = fact.qr.r[:s, s:s + m]
            worst[s] = max(worst[s], _ete_block_residual(e.T @ e, off_block))
    cond.append(ConditionResult("r-full-rank", rank_ok))
    for s, w in worst.items():
        cond.append(ConditionResult(f"ete-block-diagonal-at-{s}", rank_ok and w < tol, w))
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
    e_structure_reference: float
    r2_block_diagonal: float

    def passes(self, tol: float = 1e-9) -> bool:
        return (self.r1_blocks_equal < tol and self.r1_block_diagonal < tol
                and self.e_structure < tol and self.r2_block_diagonal < tol)


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
    perm = np.fliplr(np.eye(lam))
    # R1 and R2 are upper triangular, so their off-block mass lies above
    # the diagonal
    mask = BlockOrthogonalProfile(1, 4, lam).structural_zeros()

    res_a = res_adiag = res_c = 0.0
    res_first = 0.0
    res_inner = {+1: 0.0, -1: 0.0}
    for h in _channels(code, n_channels, seed):
        r = r_factorize(code, h).qr.r
        scale = np.abs(r).max()
        r1, e, r2 = r[:L, :L], r[:L, L:], r[L:, L:]

        blocks = [r1[i * lam:(i + 1) * lam, i * lam:(i + 1) * lam] for i in range(4)]
        res_a = max(res_a, max(np.abs(b - blocks[0]).max() for b in blocks) / scale)
        res_adiag = max(res_adiag, np.abs(r1[mask]).max() / scale)
        res_c = max(res_c, np.abs(r2[mask]).max() / scale)

        eb = [[e[i * lam:(i + 1) * lam, j * lam:(j + 1) * lam] for j in range(4)]
              for i in range(4)]
        e1, e2, e3, e4 = eb[0][0], eb[1][0], eb[2][0], eb[3][0]
        first = [eb[1][1] - e1, eb[2][2] - e1, eb[3][3] - e1,
                 eb[0][1] + e2, eb[0][2] + e3, eb[0][3] + e4]
        res_first = max(res_first, max(np.abs(x).max() for x in first) / scale)
        for eps in (+1, -1):
            inner = [eb[1][2] + eps * e4 @ perm, eb[2][1] - eps * e4 @ perm,
                     eb[1][3] - eps * e3 @ perm, eb[3][1] + eps * e3 @ perm,
                     eb[2][3] + eps * e2 @ perm, eb[3][2] - eps * e2 @ perm]
            res_inner[eps] = max(res_inner[eps],
                                 max(np.abs(x).max() for x in inner) / scale)

    orientation = +1 if res_inner[+1] <= res_inner[-1] else -1
    return SumStructureReport(
        r1_blocks_equal=res_a,
        r1_block_diagonal=res_adiag,
        e_structure=max(res_first, res_inner[orientation]),
        e_structure_orientation=orientation,
        e_structure_reference=max(res_first, res_inner[+1]),
        r2_block_diagonal=res_c,
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
            if np.abs(d).max() < _EXACT_TOL or np.abs(s).max() < _EXACT_TOL:
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
