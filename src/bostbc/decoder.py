"""Depth-first sphere decoding with per-sub-block metric memoization.

A decode has three parts, each with one owner.

*Set-up* (:func:`prepare`): the validation of ``(R, y')`` and everything the
walk reads of them (the row, column and ``y'`` copies, ``1 / r_cc`` and the
products ``r_cc * level``) are built once, in an immutable instance that
remembers which ``r`` and ``y'`` objects, profile and constellation it was
built from.  :func:`sphere_decode` builds its own unless it is handed one
with ``prepared=``, which is how a trial's baseline and memoized decodes
share one set-up.  Products are formed ahead, never reassociated, so every
float is the same IEEE operation on the same operands.

*Conditioned walk* (``_Walker._descend``): the conditioned blocks are
enumerated from the last column inward, each level's candidates in
increasing order of metric increment (Schnorr-Euchner), pruning once the
partial metric passes the best leaf found.  For equally spaced levels that
order depends only on where the level's conditioned offset slices between
the levels, so it is read from a per-M table of zig-zag orders indexed by
twice the sliced position; where float rounding or underflow could decide it
(near a midpoint, far outside the constellation, or when ``|r_cc|`` times the
level spacing is tiny) the increments are sorted instead, so exact ties still
take the lower index.  Each accepted symbol's interference is propagated to
the rows above its block, so every row's conditioned offset is ready when the
row is reached.  The increments inside a conditioned sub-block depend only on
the symbols of the blocks above, so the memoized decoder caches them with
their order and replays both; a block's table lives for one visit, from the
walk entering the block's last column to leaving the block.

*Leading block* (``_Walker._solve_leading``): once the conditioned symbols
are fixed the leading block is fast-decodable: its sub-blocks share no
columns, so each is minimized independently (its last undecided symbol is
sliced to the nearest level) and the minima are summed.  The walk's last
conditioned level calls it once per accepted candidate, and a single-block
profile once with no conditioning.  A gamma = 1 block is one slicing loop, a
gamma = 2 sub-block one loop over the M values of its trailing symbol, and a
larger gamma enumerates the trailing gamma - 1 symbols jointly.

A code without block-orthogonal structure is the trivial profile
``(K, 1, 1)``: every symbol is its own block, the walk is plain
Schnorr-Euchner enumeration, and the last symbol is sliced.  Its counters
follow the conventions below with every other symbol conditioned.

Counting conventions
--------------------
``em_evaluations``
    Metric increments computed inside the conditioned blocks (all blocks
    after the first).  Entering a level computes the increments of all M
    candidates at once, so each uncached level entry adds M.
``flops``
    One unit per real multiply and per real add/subtract inside metric
    computation and interference cancellation.  Comparisons, ordering
    (table or sort), cache lookups, bookkeeping copies and control flow are
    free.
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
from typing import NamedTuple

import numpy as np

from .codes import _is_integer
from .linalg import _real_array
from .structure import DEFAULT_TOL_REL, BlockOrthogonalProfile

__all__ = [
    "PamConstellation",
    "DecoderStats",
    "TooLarge",
    "InvalidProfile",
    "NotUpperTriangular",
    "prepare",
    "sphere_decode",
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
        if not _is_integer(m) or m not in (2, 4, 8):
            raise ValueError("points per real dimension must be 2, 4 or 8")
        m = int(m)
        if scale is None:
            scale = math.sqrt(3.0 / (2.0 * (m * m - 1)))
        scale = float(scale)
        if not math.isfinite(scale) or scale == 0.0:
            raise ValueError(f"scale = {scale!r} must be finite and nonzero")
        levels = tuple(scale * (2 * i - m + 1) for i in range(m))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "scale", scale)
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


#: The Schnorr-Euchner order is read from a table while the sliced position
#: lies within this many level spacings of the constellation; beyond it, and
#: within ``_ORDER_MARGIN`` of a multiple of one half (in units of
#: ``2 * pos``), the increments are sorted.  Inside those limits the rounding
#: error of every squared increment, relative to ``(r_cc * spacing)^2``, is
#: below 1e-10, far under the gap the margin leaves between two increments,
#: so the table order equals the ``(inc, a)`` sort.
_ORDER_REACH = 256
_ORDER_MARGIN = 1e-6
#: An ``r`` with some ``|r_cc| * spacing`` below this is sorted at every
#: level: its squared increments may underflow, and exact zeros tie by index.
_ORDER_MIN_STEP = 1e-100


@functools.lru_cache(maxsize=8)
def _zigzag_orders(m: int) -> tuple:
    """Candidate order for each unit interval ``[j, j + 1)`` of
    ``g = 2 * (pos + _ORDER_REACH)``, where ``pos`` is the sliced position
    in level spacings from level 0.  The order changes only where ``pos``
    crosses a midpoint between two levels, a multiple of one half, so the
    order at the interval's centre holds on all of it; outside the level span
    it is the monotone order."""
    orders = []
    for j in range(4 * _ORDER_REACH + 2 * m - 2):
        pos = (j + 0.5) / 2 - _ORDER_REACH
        orders.append(tuple(sorted(range(m), key=lambda a: abs(pos - a))))
    return tuple(orders)


@dataclass(frozen=True, eq=False)
class _Layout:
    """Per-level metadata of one profile and constellation size, shared by
    every walker on them; the tuples and the read-only mask cannot be
    mutated.

    ``steps[memoize][c]`` holds, for a conditioned level ``c``, the facts
    ``_Walker._descend`` reads on every entry: condition source, sub-block
    end, cacheable flag, whether entering ``c`` opens a memo table, FLOPs of
    one increment vector, FLOPs of one accepted candidate, and whether ``c``
    borders the leading block.  The baseline pricing (``memoize`` False)
    caches nothing and charges interference over the whole in-block row."""

    steps: tuple
    tails: tuple
    orders: tuple
    zero_cut: np.ndarray


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=64)
def _layout(profile: BlockOrthogonalProfile, m: int) -> _Layout:
    """Layout of ``profile`` decoded over ``m`` levels per symbol."""
    k_total, blk, gam = profile.total, profile.block_size, profile.gamma
    cols = range(k_total)
    block_start = tuple((c // blk) * blk for c in cols)
    sub_end = tuple((c // blk) * blk + ((c % blk) // gam + 1) * gam - 1
                    for c in cols)
    # cache all but the first-enumerated (last) sub-block per conditioned block
    cacheable = tuple(c >= blk and (c % blk) // gam < profile.k - 1
                      for c in cols)
    cond_source = tuple((c // blk + 1) * blk for c in cols)
    # |r| above zero_cut * max|r| is an error: any entry below the diagonal,
    # a structural zero above the tolerance, and (cut 1) nothing else
    zero_cut = np.where(profile.structural_zeros(), DEFAULT_TOL_REL, 1.0)
    zero_cut[np.tri(k_total, k=-1, dtype=bool)] = 0.0

    def steps(memoize):
        # a memoized walk prices interference inside the sub-block only; a
        # baseline one has no block-diagonal zeros to skip and prices the
        # whole in-block row (the skipped entries are structural zeros, so
        # the metric value is the same)
        return tuple(
            (cond_source[c], sub_end[c],
             memoize and cacheable[c],
             memoize and profile.k > 1 and c + 1 == cond_source[c],
             2 * ((sub_end[c] if memoize else cond_source[c] - 1) - c) + 3 * m,
             1 + 2 * block_start[c],
             c == blk)
            for c in cols)

    return _Layout(
        steps=(steps(False), steps(True)),
        # joint values of a leading sub-block's trailing gamma - 1 symbols
        tails=tuple(itertools.product(range(m), repeat=gam - 1)),
        orders=_zigzag_orders(m),
        zero_cut=_read_only(zero_cut),
    )


class _Instance(NamedTuple):
    """One validated ``(R, y')`` over one profile and constellation, in the
    forms the walk reads, with the ``r`` and ``y'`` objects, profile and
    constellation it was built from.  Nothing in it depends on how the walk
    prices or caches, so the baseline and memoized decodes of a trial share
    it.

    ``cols[c]`` is column ``c`` of R cut at the start of ``c``'s block: the
    rows a symbol accepted at ``c`` is cancelled from.  ``diag_levels[c][a]``
    is ``r[c,c] * levels[a]``, and ``pairs`` holds, for each gamma = 2
    leading sub-block, ``(lo, hi, triples)`` with one triple
    ``(b, r[hi,hi] * levels[b], r[lo,hi] * levels[b])`` per level ``b``."""

    r: object
    y_prime: object
    profile: BlockOrthogonalProfile
    cons: PamConstellation
    layout: _Layout
    rows: tuple
    cols: tuple
    y: tuple
    inv_diag: tuple
    diag_levels: tuple
    pairs: tuple
    pos_shift: float


def prepare(r, y_prime, cons: PamConstellation,
            profile: BlockOrthogonalProfile | None = None) -> _Instance:
    """Validate ``r`` and ``y'`` against ``profile`` and set up what every
    walk over them reads.

    The result is immutable and holds copies of the values, so changing
    ``r`` or ``y'`` in place later does not reach it.  Hand it to
    :func:`sphere_decode` as ``prepared=`` together with the same ``r`` and
    ``y'`` objects, profile and constellation; ``profile=None`` prepares for
    plain decoding.  Raises what :func:`sphere_decode` raises for bad input.
    """
    r_in, y_in = r, y_prime
    r = _real_array(r, "r")
    y = _real_array(y_prime, "y_prime").ravel()
    k_total = y.size
    if profile is None:
        profile = BlockOrthogonalProfile(k_total, 1, 1)
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
    # one comparison finds both kinds of misplaced entry; which error
    # applies is decided only when one is found
    misplaced = np.count_nonzero(abs_r > layout.zero_cut * r_max)
    if misplaced and np.tril(r, -1).any():
        raise NotUpperTriangular("r has entries below the diagonal")
    diag = r.diagonal().tolist()
    diag_min = min(map(abs, diag))
    if not diag_min:
        raise ValueError("r must have a nonzero diagonal (full rank)")
    # every offset the walk forms is at most `reach` in magnitude, so
    # every metric is at most K reach^2; levels[0] is the outermost level
    reach = float(y_max) + k_total * float(r_max) * abs(cons.levels[0])
    if not math.isfinite(k_total * reach * reach):
        raise ValueError("r and y' are too large: the metric overflows")
    if not math.isfinite(1.0 / diag_min):
        raise ValueError("r has a diagonal entry too small to invert")
    if misplaced:
        bad = profile.structural_zeros() & (abs_r > DEFAULT_TOL_REL * r_max)
        c, j = divmod(int(bad.argmax()), k_total)  # row-major first
        raise InvalidProfile(
            f"r[{c},{j}] = {r[c, j]:.3e} should be structurally zero")
    rows = tuple(map(tuple, r.tolist()))
    blk = profile.block_size
    levels = cons.levels
    diag_levels = tuple([tuple([d * lev for lev in levels]) for d in diag])
    pairs = ()
    if profile.gamma == 2:
        pairs = tuple(
            (lo, lo + 1, tuple(zip(range(cons.m), diag_levels[lo + 1],
                                   [rows[lo][lo + 1] * lev for lev in levels])))
            for lo in range(0, blk, 2))
    # a NaN shift, never inside the order table, sorts every level of an r
    # whose squared increments may underflow
    pos_shift = math.nan
    if diag_min * (levels[1] - levels[0]) >= _ORDER_MIN_STEP:
        pos_shift = cons.m - 1.0 + 2 * _ORDER_REACH
    return _Instance(
        r=r_in,
        y_prime=y_in,
        profile=profile,
        cons=cons,
        layout=layout,
        rows=rows,
        # the leading block's columns are never cancelled from any row
        cols=((),) * blk + tuple(
            col for s in range(blk, k_total, blk)
            for col in itertools.islice(zip(*rows[:s]), s, s + blk)),
        y=tuple(y.tolist()),
        inv_diag=tuple([1.0 / d for d in diag]),
        diag_levels=diag_levels,
        pairs=pairs,
        pos_shift=pos_shift,
    )


class _Walker:
    def __init__(self, inst, memoize, prune, trace=None):
        layout = inst.layout
        profile = inst.profile
        k_total = len(inst.y)
        levels = inst.cons.levels
        spacing = levels[1] - levels[0]
        self.k_total = k_total
        self.top_size = profile.block_size
        self.gamma = profile.gamma
        self.rows = inst.rows
        self.cols = inst.cols
        self.inv_diag = inst.inv_diag
        self.diag_levels = inst.diag_levels
        self.pairs = inst.pairs
        self.levels = levels
        self.m = inst.cons.m
        self.prune = prune
        self.trace = trace

        self.steps = layout.steps[bool(memoize)]  # falsy: baseline pricing
        self.tails = layout.tails
        self.orders = layout.orders
        self.inv_spacing = 1.0 / spacing
        # g = t * inv_diag[c] * pos_scale + pos_shift maps a conditioned
        # offset t to 2 (pos + _ORDER_REACH) (levels[0] sits (m - 1) / 2
        # spacings below zero)
        self.pos_scale = 2.0 / spacing
        self.pos_shift = inst.pos_shift
        self.order_span = float(len(self.orders))

        self.idx = [0] * k_total
        self.val = [0.0] * k_total
        # offsets[c]: y minus conditioned interference for rows above the
        # block of level c, captured when level c was accepted
        self.offsets = [None] * (k_total + 1)
        self.offsets[k_total] = inst.y
        self.cache_size = 0
        self.cache_peak = 0
        self.em = 0
        self.nodes = 0
        self.flops = 0
        self.hits = 0
        self.best = math.inf
        self.best_idx = None

    def run(self):
        if self.top_size == self.k_total:
            # no conditioned blocks: the leading block is all of R
            self._solve_leading(0.0, self.offsets[self.k_total],
                                (0.0,) * self.k_total, 0.0)
        else:
            self._descend(self.k_total - 1, 0.0, None)
        return DecoderStats(
            em_evaluations=self.em,
            nodes_visited=self.nodes,
            flops=self.flops,
            cache_hits=self.hits,
            cache_entries_peak=self.cache_peak,
            best_metric=self.best,
            decoded=self.best_idx,
        )

    def _offer(self, total):
        """Keep a completed leaf if it beats the best one, exact ties going
        to the lexicographically smaller index vector."""
        if total < self.best or (total == self.best
                                 and tuple(self.idx) < self.best_idx):
            self.best = total
            self.best_idx = tuple(self.idx)

    # -- conditioned-block enumeration ----------------------------------

    def _descend(self, c, partial, table):
        (src, end, cacheable, opens_table, inc_flops, node_flops,
         at_top) = self.steps[c]
        # the walk enters a block at its last column, after a new symbol
        # was accepted above it: the block's conditioning is new, and so is
        # the table keyed by (level, rest of the sub-block's assignment), or
        # by the level alone where the sub-block ends at it
        if opens_table:
            table = {}
        idx = self.idx
        val = self.val
        entry = None
        if cacheable:
            key = (c, *idx[c + 1:end + 1]) if end > c else c
            entry = table.get(key)
        if entry is None:
            # conditioning offset captured when the block below was
            # finished, minus the interference inside the sub-block
            t = self.offsets[src][c]
            if end > c:
                row = self.rows[c]
                for cc in range(c + 1, end + 1):
                    t -= row[cc] * val[cc]
            # candidate a adds d * d, d = t - r[c,c] * levels[a]
            inc = [(d := t - p) * d for p in self.diag_levels[c]]
            g = t * self.inv_diag[c] * self.pos_scale + self.pos_shift
            order = None
            if 0.0 < g < self.order_span:
                j = int(g)
                if _ORDER_MARGIN < g - j < 1.0 - _ORDER_MARGIN:
                    order = self.orders[j]
            if order is None:  # stable: equal increments keep index order
                order = tuple(sorted(range(self.m), key=inc.__getitem__))
            self.em += self.m  # every level below the leading block
            flops = inc_flops
            if cacheable:
                table[key] = (inc, order)
                self.cache_size += self.m
                if self.cache_size > self.cache_peak:
                    self.cache_peak = self.cache_size
        else:
            self.hits += 1
            inc, order = entry
            flops = 0
        prune = self.prune
        trace = self.trace
        levels = self.levels
        offsets = self.offsets
        # the rows above c's block, before and after cancelling c; the
        # column is cut at the block start, so zip drops the rest
        parent = offsets[c + 1]
        col = self.cols[c]
        accepted = 0
        for a in order:
            total = partial + inc[a]
            if prune and total > self.best:
                flops += 1
                break  # increments are in order; later candidates only grow
            accepted += 1
            idx[c] = a
            x = levels[a]
            val[c] = x
            if trace is not None:
                trace.append({
                    "level": c,
                    "partial_metric": total,
                    "symbol_index": a,
                    "cache_hit": entry is not None,
                })
            if at_top:
                self._solve_leading(total, parent, col, x)
            else:
                # cancel the symbol from the rows above its block
                offsets[c] = [p - q * x for p, q in zip(parent, col)]
                self._descend(c - 1, total, table)
        self.flops += flops + accepted * node_flops
        self.nodes += accepted
        if opens_table:
            self.cache_size -= self.m * len(table)

    # -- leading (fast-decodable) block -----------------------------------

    def _solve_leading(self, total, parent, col, x):
        """Add each leading sub-block's minimum to ``total`` and offer the
        leaf.  Leading row ``lo`` sees the offset ``parent[lo] - col[lo] *
        x``; a single-block profile passes ``y'``, zero columns and ``x =
        0.0``, which leave ``y'`` bit for bit.  Slicing (3 FLOPs) takes the
        lower index at a midpoint and clamps beyond the outer levels; ties
        between sub-block assignments take the lexicographically smaller."""
        prune = self.prune
        idx = self.idx
        inv_diag = self.inv_diag
        diag_levels = self.diag_levels
        lev0 = self.levels[0]
        inv_spacing = self.inv_spacing
        ceil = math.ceil
        m = self.m
        last = m - 1
        clamp = m - 1.5
        gam = self.gamma
        nodes = flops = 0
        if gam == 1:
            # singleton sub-blocks: slice each leading symbol to the
            # nearest level, 7 FLOPs and one node each
            for lo, q in enumerate(col):
                t = parent[lo] - q * x
                pos = (t * inv_diag[lo] - lev0) * inv_spacing
                if pos <= 0.5:
                    s = 0
                elif pos > clamp:
                    s = last
                else:
                    s = ceil(pos - 0.5)
                d = t - diag_levels[lo][s]
                total += d * d
                idx[lo] = s
                if prune and total > self.best:
                    nodes += lo + 1
                    flops += 7 * (lo + 1)
                    break
            else:
                nodes += len(col)
                flops += 7 * len(col)
                self._offer(total)
        elif gam == 2:
            # each sub-block (lo, lo + 1): every value b of the trailing
            # symbol, its row first (4 FLOPs), then the leading symbol
            # sliced given b (9 more)
            for lo, hi, sub in self.pairs:
                t_lo = parent[lo] - col[lo] * x
                t_hi = parent[hi] - col[hi] * x
                inv_lo = inv_diag[lo]
                dl_lo = diag_levels[lo]
                budget = self.best - total if prune else math.inf
                best = math.inf
                for b, p_hi, p_lo in sub:
                    resid = t_hi - p_hi
                    metric = resid * resid
                    if prune and metric > budget and metric > best:
                        flops += 4
                        continue
                    t = t_lo - p_lo
                    pos = (t * inv_lo - lev0) * inv_spacing
                    if pos <= 0.5:
                        s = 0
                    elif pos > clamp:
                        s = last
                    else:
                        s = ceil(pos - 0.5)
                    resid = t - dl_lo[s]
                    metric += resid * resid
                    flops += 13
                    # b only grows, so a tie is smaller iff its a is
                    if metric < best or (metric == best and s < best_a):
                        best = metric
                        best_a = s
                        best_b = b
                nodes += m
                flops += 1
                total += best
                idx[lo] = best_a
                idx[hi] = best_b
                if prune and total > self.best:
                    break
            else:
                self._offer(total)
        else:
            # enumerate the trailing gamma - 1 symbols jointly, their rows
            # bottom first, and slice the top symbol given them
            rows = self.rows
            levels = self.levels
            tails = self.tails
            offs = [p - q * x for p, q in zip(parent, col)]
            for lo in range(0, self.top_size, gam):
                budget = self.best - total if prune else math.inf
                best = math.inf
                for tail in tails:
                    metric = 0.0
                    for d in range(gam - 1, 0, -1):
                        r = lo + d
                        row = rows[r]
                        t = offs[r]
                        for dd in range(d + 1, gam):
                            t -= row[lo + dd] * levels[tail[dd - 1]]
                        resid = t - row[r] * levels[tail[d - 1]]
                        metric += resid * resid
                        flops += 2 * (gam - 1 - d) + 4
                        if prune and metric > budget and metric > best:
                            break
                    else:
                        row = rows[lo]
                        t = offs[lo]
                        for dd in range(1, gam):
                            t -= row[lo + dd] * levels[tail[dd - 1]]
                        pos = (t * inv_diag[lo] - lev0) * inv_spacing
                        if pos <= 0.5:
                            s = 0
                        elif pos > clamp:
                            s = last
                        else:
                            s = ceil(pos - 0.5)
                        resid = t - diag_levels[lo][s]
                        # the top row's square adds to the lower rows' sum
                        metric += resid * resid
                        flops += 2 * gam + 5
                        # tails arrive in lexicographic order, so a tie is
                        # smaller iff its top symbol is
                        if metric < best or (metric == best and s < best_a):
                            best = metric
                            best_a = s
                            best_tail = tail
                nodes += len(tails)
                flops += 1
                total += best
                idx[lo] = best_a
                idx[lo + 1:lo + gam] = best_tail
                if prune and total > self.best:
                    break
            else:
                self._offer(total)
        self.nodes += nodes
        self.flops += flops


def sphere_decode(r, y_prime, cons: PamConstellation,
                  profile: BlockOrthogonalProfile | None = None, *,
                  memoize: bool = True, prune: bool = True, trace=None,
                  prepared: _Instance | None = None):
    """ML-decode ``argmin_x ||y' - R x||^2`` over the PAM grid.

    The R pattern is validated against the profile, the leading block is
    solved by independent sub-block minimization, and, unless ``memoize``
    is False, conditioned sub-block metric vectors are cached.  Passing a
    profile with ``memoize=False`` runs the baseline decoder while still
    restricting the metric counters to the conditioned blocks, which is the
    pairing used for reduction-ratio measurements.  ``profile=None`` is
    plain sphere decoding: the trivial profile ``(K, 1, 1)``, in which every
    symbol is its own block and nothing is cached whatever ``memoize`` says.

    ``prune=False`` visits every node of the tree, so its
    ``em_evaluations`` equal the closed forms of :func:`em_count_bounds`
    exactly (baseline vs memoized).  It raises :class:`TooLarge` before any
    set-up when the tree's ``M^(K - k gamma)`` leaves, one leading-block
    solve each, exceed ``MAX_GRID``.

    ``prepared``, the result of :func:`prepare` on these same ``r`` and
    ``y'`` objects, profile and constellation, replaces the decode's own
    set-up; one built from anything else raises ``ValueError``.

    Raises ``ValueError`` for complex or non-finite ``r`` or ``y'``, for
    inputs so large that the metric would overflow, and for a zero diagonal.

    Returns ``(symbols, stats)`` where ``symbols`` are the decoded PAM
    levels and ``stats.decoded`` the matching level indices.
    """
    if profile is None:
        profile = BlockOrthogonalProfile(np.size(y_prime), 1, 1)
    depth = profile.total - profile.block_size
    if not prune and cons.m ** depth > MAX_GRID:
        raise TooLarge(f"full tree has {cons.m}^{depth} leaves")
    if prepared is None:
        prepared = prepare(r, y_prime, cons, profile)
    elif not (prepared.r is r and prepared.y_prime is y_prime
              and prepared.profile == profile and prepared.cons == cons):
        raise ValueError("prepared instance was built from another r, y', "
                         "profile or constellation")
    stats = _Walker(prepared, memoize, prune, trace=trace).run()
    symbols = tuple(map(cons.levels.__getitem__, stats.decoded))
    return symbols, stats


@functools.lru_cache(maxsize=16)
def _level_grid(cons: PamConstellation, k: int) -> np.ndarray:
    if cons.m ** k > MAX_GRID:
        raise TooLarge(f"grid of {cons.m}^{k} points exceeds the guard")
    idx = np.stack(np.meshgrid(*[np.arange(cons.m)] * k, indexing="ij"),
                   axis=-1).reshape(-1, k)
    return _read_only(np.asarray(cons.levels, dtype=float)[idx])


def exhaustive_ml(h_eq, y, cons: PamConstellation) -> np.ndarray:
    """Exact ML by full enumeration of the PAM grid (the reference oracle).

    Grid rows are ordered lexicographically by index vector, so
    ``np.argmin`` resolves exact metric ties to the lexicographically
    smallest symbol-index vector, matching the tree decoder's rule.

    Raises ``ValueError`` for complex or non-finite input, an ``h_eq`` that
    is not a non-empty 2-D matrix, a ``y`` whose length is not ``h_eq``'s
    row count, and input so large that every metric overflows.
    """
    h_eq = _real_array(h_eq, "h_eq")
    y = _real_array(y, "y").ravel()
    if h_eq.ndim != 2 or not h_eq.size:
        raise ValueError(f"h_eq must be a non-empty 2-D matrix, got shape "
                         f"{h_eq.shape}")
    if y.size != h_eq.shape[0]:
        raise ValueError(f"y has {y.size} entries, h_eq has "
                         f"{h_eq.shape[0]} rows")
    if not (np.isfinite(h_eq).all() and np.isfinite(y).all()):
        raise ValueError("h_eq and y must be finite")
    grid = _level_grid(cons, h_eq.shape[1])
    diff = grid @ h_eq.T - y
    metrics = np.einsum("ij,ij->i", diff, diff)
    best = int(np.argmin(metrics))
    if not math.isfinite(metrics[best]):
        raise ValueError("h_eq and y are too large: the metric overflows")
    return grid[best].copy()


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
    if not _is_integer(m):
        raise ValueError(f"m = {m!r} must be an integer")
    m = int(m)
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
    if not all(map(_is_integer, (k, gamma, m))):
        raise ValueError(f"k, gamma, m = {k!r}, {gamma!r}, {m!r} must be integers")
    k, gamma, m = int(k), int(gamma), int(m)
    if min(k, gamma) < 1 or m < 2:
        raise ValueError("parameters must satisfy k, gamma >= 1 and m >= 2")
    return Fraction(m ** gamma, k * (m ** gamma - 1))
