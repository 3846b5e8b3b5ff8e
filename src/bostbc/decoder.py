"""Depth-first sphere decoding with per-sub-block metric memoization.

The decoder enumerates the conditioned blocks of the upper-triangular
factor from the last column inward, visiting each level's candidates in
increasing order of metric increment (Schnorr-Euchner) and pruning once
the partial metric passes the best leaf found.  Interference from each
accepted symbol is propagated incrementally to the rows above its block,
so every row's conditioned offset is ready when the row is reached.  Once
all conditioned symbols are fixed, the leading block is fast-decodable:
its sub-blocks share no columns, so each is minimized independently (the
last undecided symbol of a sub-block is sliced to the nearest level) and
the minima are summed.

The metric increments inside a conditioned sub-block do not depend on the
values of sibling sub-blocks, so the memoized decoder caches and replays
them instead of recomputing; the cache is discarded whenever a conditioning
symbol in a higher block changes.  A code without block-orthogonal
structure is the trivial profile ``(K, 1, 1)``: every symbol is its own
block, the walk is plain Schnorr-Euchner enumeration, and the last symbol
is sliced.  Its counters follow the conventions below with every symbol but
that last one in a conditioned block.

Counting conventions
--------------------
``em_evaluations``
    Metric increments computed inside the conditioned blocks (all blocks
    after the first).  Entering a level computes the increments of all M
    candidates at once, so each uncached level entry adds M.
``flops``
    One unit per real multiply and per real add/subtract inside metric
    computation and interference cancellation.  Comparisons, sorting,
    cache lookups, bookkeeping copies and control flow are free.
``cache_entries_peak``
    Largest number of metric values held at any time; bounded by
    ``(Gamma - 1)(k - 1) M (M^gamma - 1) / (M - 1)``.
``nodes_visited``
    One per accepted candidate in the conditioned tree plus one per
    candidate examined while minimizing a leading-block sub-block.

Exact ties always resolve to the lexicographically smallest symbol-index
vector, in every mode, which is what makes baseline, memoized and
exhaustive decoding agree symbol for symbol.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .structure import DEFAULT_TOL_REL, BlockOrthogonalProfile

__all__ = [
    "PamConstellation",
    "DecoderStats",
    "TooLarge",
    "InvalidProfile",
    "NotUpperTriangular",
    "sphere_decode",
    "force_full_tree_decode",
    "exhaustive_ml",
    "EmCountBounds",
    "em_count_bounds",
    "qrdm_bound",
]

#: Enumeration guard: refuse grids larger than this many points.
MAX_GRID = 2 ** 20


class TooLarge(ValueError):
    """The requested enumeration exceeds the desk-scale guard."""


class InvalidProfile(ValueError):
    """R's zero pattern is incompatible with the supplied profile."""


class NotUpperTriangular(ValueError):
    """R has nonzero entries below the diagonal."""


@dataclass(frozen=True)
class PamConstellation:
    """Odd-integer PAM levels ``{+-1, ..., +-(M-1)}`` times a scale factor.

    The default scale makes a complex symbol (two PAM reals) average unit
    energy, i.e. ``scale = sqrt(3 / (2 (M^2 - 1)))``.  Pass ``scale=1.0``
    for plain integer levels.
    """

    m: int
    scale: float
    levels: tuple

    def __init__(self, m: int, scale: float | None = None):
        if m not in (2, 4, 8):
            raise ValueError("points per real dimension must be 2, 4 or 8")
        if scale is None:
            scale = math.sqrt(3.0 / (2.0 * (m * m - 1)))
        levels = tuple(scale * (2 * i - m + 1) for i in range(m))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "scale", float(scale))
        object.__setattr__(self, "levels", levels)

    @property
    def energy_per_symbol(self) -> float:
        """Mean energy of one real PAM symbol under a uniform draw."""
        return sum(v * v for v in self.levels) / self.m


@dataclass(frozen=True)
class DecoderStats:
    em_evaluations: int
    nodes_visited: int
    flops: int
    cache_hits: int
    cache_entries_peak: int
    best_metric: float
    decoded: tuple


class _MetricCache:
    """Per-block tables of cached increment vectors, keyed by the partial
    assignment inside one sub-block."""

    def __init__(self):
        self.tables = {}
        self.size = 0
        self.peak = 0

    def get(self, block, key):
        table = self.tables.get(block)
        if table is None:
            return None
        return table.get(key)

    def put(self, block, key, values):
        self.tables.setdefault(block, {})[key] = values
        self.size += len(values)
        if self.size > self.peak:
            self.peak = self.size

    def clear_below(self, block):
        for b in [b for b in self.tables if b < block]:
            table = self.tables.pop(b)
            self.size -= sum(len(v) for v in table.values())


@dataclass(frozen=True, eq=False)
class _Layout:
    """Per-level metadata of one profile and constellation size, shared by
    every walker on them; the tuples and read-only masks cannot be mutated."""

    block_of: tuple
    block_start: tuple
    sub_end: tuple
    cacheable: tuple
    cond_source: tuple
    tails: tuple
    strict_lower: np.ndarray
    structural_zero: np.ndarray


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=64)
def _layout(profile: BlockOrthogonalProfile, m: int) -> _Layout:
    """Layout of ``profile`` decoded over ``m`` levels per symbol."""
    k_total, blk, gam = profile.total, profile.block_size, profile.gamma
    cols = range(k_total)
    return _Layout(
        block_of=tuple(c // blk for c in cols),
        block_start=tuple((c // blk) * blk for c in cols),
        sub_end=tuple((c // blk) * blk + ((c % blk) // gam + 1) * gam - 1
                      for c in cols),
        # cache all but the first-enumerated (last) sub-block per
        # conditioned block
        cacheable=tuple(c >= blk and (c % blk) // gam < profile.k - 1
                        for c in cols),
        cond_source=tuple((c // blk + 1) * blk for c in cols),
        # joint values of a leading sub-block's trailing gamma - 1 symbols
        tails=tuple(itertools.product(range(m), repeat=gam - 1)),
        strict_lower=_read_only(np.tri(k_total, k=-1, dtype=bool)),
        structural_zero=_read_only(profile.structural_zeros()),
    )


class _Walker:
    def __init__(self, r, y, cons, profile, memoize, prune,
                 trace=None, validate_cache=False):
        r = np.asarray(r, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        k_total = y.size
        if r.shape != (k_total, k_total):
            raise ValueError("r must be square and match y'")
        if profile.total != k_total:
            raise InvalidProfile(
                f"profile covers {profile.total} symbols, r has {k_total}")
        layout = _layout(profile, cons.m)
        abs_r = np.abs(r)
        r_max = abs_r.max()  # the max is NaN or inf iff some entry is
        y_max = np.abs(y).max()
        if not (math.isfinite(r_max) and math.isfinite(y_max)):
            raise ValueError("r and y' must be finite")
        if r[layout.strict_lower].any():
            raise NotUpperTriangular("r has entries below the diagonal")
        diag_min = abs_r.diagonal().min()
        if not diag_min:
            raise ValueError("r must have a nonzero diagonal (full rank)")
        # every offset the walk forms is at most `reach` in magnitude, so
        # every metric is at most K reach^2; levels[0] is the outermost level
        reach = float(y_max) + k_total * float(r_max) * abs(cons.levels[0])
        if not math.isfinite(k_total * reach * reach):
            raise ValueError("r and y' are too large: the metric overflows")
        if not math.isfinite(1.0 / float(diag_min)):
            raise ValueError("r has a diagonal entry too small to invert")
        bad = layout.structural_zero & (abs_r > DEFAULT_TOL_REL * r_max)
        if bad.any():
            c, j = divmod(int(bad.argmax()), k_total)  # row-major first
            raise InvalidProfile(
                f"r[{c},{j}] = {r[c, j]:.3e} should be structurally zero")
        self.k_total = k_total
        self.top_size = profile.block_size
        self.gamma = profile.gamma
        self.k_sub = profile.k
        self.rows = r.tolist()
        self.y = y.tolist()
        self.levels = list(cons.levels)
        self.m = cons.m
        self.prune = prune
        self.memoize = memoize
        self.trace = trace
        self.validate_cache = validate_cache

        self.layout = layout
        self.block_of = layout.block_of
        self.block_start = layout.block_start
        self.sub_end = layout.sub_end
        self.cacheable = layout.cacheable
        self.cond_source = layout.cond_source
        self.tails = layout.tails

        self.idx = [0] * k_total
        self.val = [0.0] * k_total
        # offsets[c]: y minus conditioned interference for rows above the
        # block of level c, captured when level c was accepted
        self.offsets = [None] * (k_total + 1)
        self.offsets[k_total] = list(self.y)
        self.inv_diag = [1.0 / self.rows[c][c] for c in range(k_total)]
        self.inv_spacing = 1.0 / (self.levels[1] - self.levels[0])
        self.cache = _MetricCache()
        self.em = 0
        self.nodes = 0
        self.flops = 0
        self.hits = 0
        self.best = math.inf
        self.best_idx = None

    # -- conditioned-block enumeration ----------------------------------

    def _compute_increments(self, c):
        """Increment vector for level c: conditioned offset minus the
        within-sub-block interference, squared per candidate."""
        # conditioning offset captured when the block below was finished
        t = self.offsets[self.cond_source[c]][c]
        row = self.rows[c]
        val = self.val
        sub_end = self.sub_end[c]
        for cc in range(c + 1, sub_end + 1):
            t -= row[cc] * val[cc]
        if self.memoize:
            n_intf = sub_end - c
        else:
            # a baseline decoder has no block-diagonal zeros to skip: price
            # interference over the whole in-block row (the skipped entries
            # are structural zeros, so the metric value is unchanged)
            n_intf = self.cond_source[c] - 1 - c
        rdd = row[c]
        inc = [0.0] * self.m
        for a, lev in enumerate(self.levels):
            d = t - rdd * lev
            inc[a] = d * d
        self.flops += 2 * n_intf + 3 * self.m
        self.em += self.m  # every level below the leading block is measured
        return inc

    def _edge_metrics(self, c):
        if not (self.memoize and self.cacheable[c]):
            return self._compute_increments(c), False
        key = (c, tuple(self.idx[c + 1:self.sub_end[c] + 1]))
        cached = self.cache.get(self.block_of[c], key)
        if cached is not None:
            self.hits += 1
            if self.validate_cache:
                em0, fl0 = self.em, self.flops
                fresh = self._compute_increments(c)
                self.em, self.flops = em0, fl0
                if fresh != cached:
                    raise AssertionError("cache returned a stale metric vector")
            return cached, True
        inc = self._compute_increments(c)
        self.cache.put(self.block_of[c], key, inc)
        return inc, False

    def _propagate(self, c):
        """Cancel level c's symbol from the rows above its block."""
        upto = self.block_start[c]
        parent = self.offsets[c + 1]
        xc = self.val[c]
        col = c
        out = [0.0] * upto
        for r in range(upto):
            out[r] = parent[r] - self.rows[r][col] * xc
        self.offsets[c] = out
        self.flops += 2 * upto

    def run(self):
        if self.top_size == self.k_total:
            self._solve_top_block(0.0, self.y)  # no conditioned blocks
        else:
            self._descend(self.k_total - 1, 0.0)
        return DecoderStats(
            em_evaluations=self.em,
            nodes_visited=self.nodes,
            flops=self.flops,
            cache_hits=self.hits,
            cache_entries_peak=self.cache.peak,
            best_metric=self.best,
            decoded=self.best_idx,
        )

    def _descend(self, c, partial):
        inc, was_hit = self._edge_metrics(c)
        order = sorted(range(self.m), key=lambda a: (inc[a], a))
        block = self.block_of[c]
        at_top_boundary = c == self.top_size
        for a in order:
            total = partial + inc[a]
            self.flops += 1
            if self.prune and total > self.best:
                break  # increments are sorted; later candidates only grow
            self.idx[c] = a
            self.val[c] = self.levels[a]
            self.nodes += 1
            if self.memoize and block >= 2:
                self.cache.clear_below(block)
            self._propagate(c)
            if self.trace is not None:
                self.trace.append({
                    "level": c,
                    "partial_metric": total,
                    "symbol_index": a,
                    "cache_hit": was_hit,
                })
            if at_top_boundary:
                self._solve_top_block(total, self.offsets[c])
            else:
                self._descend(c - 1, total)

    # -- leading (fast-decodable) block ----------------------------------

    def _slice_level(self, t, c):
        """Nearest PAM level to t / r[c,c]; midpoint ties take the lower
        index, matching exhaustive first-minimum order.  A position beyond
        the outer levels, infinite included, clamps to them."""
        pos = (t * self.inv_diag[c] - self.levels[0]) * self.inv_spacing
        self.flops += 3
        if pos <= 0.5:
            return 0
        if pos > self.m - 1.5:
            return self.m - 1
        return math.ceil(pos - 0.5)

    def _solve_sub_block(self, lo, offsets, budget):
        """Exact minimum of one leading-block sub-block given conditioning.

        Enumerates the trailing gamma - 1 symbols jointly and slices the
        first one (its row involves no other undecided columns).  Returns
        (metric, index tuple); ties inside the sub-block resolve to the
        lexicographically smallest tuple.
        """
        gam = self.gamma
        rows = self.rows
        lev = self.levels
        if gam == 1:
            t = offsets[lo]
            a = self._slice_level(t, lo)
            d = t - rows[lo][lo] * lev[a]
            self.flops += 3
            self.nodes += 1
            return d * d, (a,)
        best = math.inf
        best_combo = None
        for tail in self.tails:
            metric = 0.0
            abort = False
            for d in range(gam - 1, 0, -1):  # rows below the top, bottom first
                r = lo + d
                row = rows[r]
                t = offsets[r]
                for dd in range(d + 1, gam):
                    t -= row[lo + dd] * lev[tail[dd - 1]]
                    self.flops += 2
                resid = t - row[r] * lev[tail[d - 1]]
                metric += resid * resid
                self.flops += 4
                if self.prune and metric > budget and metric > best:
                    abort = True
                    break
            self.nodes += 1
            if abort:
                continue
            row = rows[lo]
            t = offsets[lo]
            for dd in range(1, gam):
                t -= row[lo + dd] * lev[tail[dd - 1]]
                self.flops += 2
            a = self._slice_level(t, lo)
            resid = t - row[lo] * lev[a]
            metric += resid * resid
            self.flops += 4
            combo = (a,) + tail
            if metric < best or (metric == best and combo < best_combo):
                best = metric
                best_combo = combo
        return best, best_combo

    def _solve_top_block(self, partial, offsets):
        """Sum of independent sub-block minima over the leading block."""
        gam = self.gamma
        total = partial
        chosen = []
        for s in range(self.k_sub):
            budget = self.best - total if self.prune else math.inf
            metric, combo = self._solve_sub_block(s * gam, offsets, budget)
            total += metric
            self.flops += 1
            chosen.append(combo)
            if self.prune and total > self.best:
                return
        for s, combo in enumerate(chosen):
            for d in range(gam):
                self.idx[s * gam + d] = combo[d]
        if total < self.best or (total == self.best
                                 and tuple(self.idx) < self.best_idx):
            self.best = total
            self.best_idx = tuple(self.idx)


def sphere_decode(r, y_prime, cons: PamConstellation,
                  profile: BlockOrthogonalProfile | None = None, *,
                  memoize: bool | None = None, prune: bool = True,
                  trace=None, validate_cache: bool = False):
    """ML-decode ``argmin_x ||y' - R x||^2`` over the PAM grid.

    The R pattern is validated against the profile, the leading block is
    solved by independent sub-block minimization, and, unless ``memoize``
    is explicitly False, conditioned sub-block metric vectors are cached.
    Passing a profile with ``memoize=False`` runs the baseline decoder while
    still restricting the metric counters to the conditioned blocks, which
    is the pairing used for reduction-ratio measurements.  ``profile=None``
    is plain sphere decoding: the trivial profile ``(K, 1, 1)``, in which
    every symbol is its own block and nothing is cached.

    Raises ``ValueError`` for non-finite ``r`` or ``y'``, for inputs so large
    that the metric would overflow, and for a zero diagonal.

    Returns ``(symbols, stats)`` where ``symbols`` are the decoded PAM
    levels and ``stats.decoded`` the matching level indices.
    """
    if memoize is None:
        memoize = profile is not None
    if profile is None:
        profile = BlockOrthogonalProfile(np.size(y_prime), 1, 1)
    walker = _Walker(r, y_prime, cons, profile, memoize, prune,
                     trace=trace, validate_cache=validate_cache)
    stats = walker.run()
    symbols = tuple(cons.levels[i] for i in stats.decoded)
    return symbols, stats


def force_full_tree_decode(r, y_prime, cons: PamConstellation,
                           profile: BlockOrthogonalProfile | None = None, *,
                           memoize: bool | None = None) -> DecoderStats:
    """Run the decoder with pruning disabled so every node is visited.

    The resulting ``em_evaluations`` equal the closed forms of
    :func:`em_count_bounds` exactly (baseline vs memoized).
    """
    k_total = np.asarray(y_prime).size
    if cons.m ** k_total > MAX_GRID:
        raise TooLarge(f"full tree has {cons.m}^{k_total} leaves")
    _, stats = sphere_decode(r, y_prime, cons, profile,
                             memoize=memoize, prune=False)
    return stats


_GRIDS = {}


def _level_grid(cons: PamConstellation, k: int) -> np.ndarray:
    if cons.m ** k > MAX_GRID:
        raise TooLarge(f"grid of {cons.m}^{k} points exceeds the guard")
    key = (cons.m, k, cons.scale)
    grid = _GRIDS.get(key)
    if grid is None:
        idx = np.stack(np.meshgrid(*[np.arange(cons.m)] * k, indexing="ij"),
                       axis=-1).reshape(-1, k)
        grid = np.asarray(cons.levels, dtype=float)[idx]
        grid.setflags(write=False)
        _GRIDS[key] = grid
    return grid


def exhaustive_ml(h_eq, y, cons: PamConstellation) -> np.ndarray:
    """Exact ML by full enumeration of the PAM grid (the reference oracle).

    Grid rows are ordered lexicographically by index vector, so
    ``np.argmin`` resolves exact metric ties to the lexicographically
    smallest symbol-index vector, matching the tree decoder's rule.
    """
    h_eq = np.asarray(h_eq, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    grid = _level_grid(cons, h_eq.shape[1])
    diff = grid @ h_eq.T - y
    metrics = np.einsum("ij,ij->i", diff, diff)
    return grid[int(np.argmin(metrics))].copy()


@dataclass(frozen=True)
class EmCountBounds:
    """Closed-form full-tree metric counts for the conditioned blocks."""

    o_stbc: int
    o_bostbc: int
    emrr: Fraction
    mem_entries: int


def em_count_bounds(profile: BlockOrthogonalProfile, m: int) -> EmCountBounds:
    """Exact full-tree EM counts, their ratio, and the cache size bound.

    ``o_stbc`` counts one metric per node over the conditioned blocks of a
    plain decoder; ``o_bostbc`` counts only the cache misses of the
    memoized one.  Integer arithmetic throughout, so arbitrarily large
    constellations do not overflow.
    """
    if m < 2:
        raise ValueError("need at least two points per real dimension")
    g, k, gam = profile.gamma_blocks, profile.k, profile.gamma
    if g < 2:
        raise ValueError("profiles with a single block have no conditioned blocks")
    o_stbc = sum(m ** d for d in range(1, (g - 1) * k * gam + 1))
    per_conditioning = k * sum(m ** d for d in range(1, gam + 1))
    o_bostbc = per_conditioning * sum(m ** ((g - i) * k * gam) for i in range(2, g + 1))
    mem = (g - 1) * (k - 1) * sum(m ** d for d in range(1, gam + 1))
    return EmCountBounds(
        o_stbc=o_stbc,
        o_bostbc=o_bostbc,
        emrr=Fraction(o_bostbc, o_stbc),
        mem_entries=mem,
    )


def qrdm_bound(k: int, gamma: int, m: int) -> Fraction:
    """Best-case metric-count ratio for a breadth-first M-path decoder:
    ``M^gamma / (k (M^gamma - 1))``."""
    if min(k, gamma) < 1 or m < 2:
        raise ValueError("parameters must satisfy k, gamma >= 1 and m >= 2")
    return Fraction(m ** gamma, k * (m ** gamma - 1))
