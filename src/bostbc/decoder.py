"""Depth-first sphere decoding with per-sub-block metric memoization.

A decode has two parts, each with one owner.

*Set-up* (:func:`prepare`): the validation of ``(R, y')`` and everything the
walk reads of them (the row and ``y'`` copies, ``1 / r_cc`` and the products
``r_cc * level``, its only reads of R's diagonal) are built once, in an
immutable instance that remembers which ``r`` and ``y'`` objects, profile and
constellation it was built from.  :func:`sphere_decode` builds its own unless
it is handed one with ``prepared=``, which is how a trial's baseline and
memoized decodes share one set-up.  Products are formed ahead, never
reassociated, so every float is the same IEEE operation on the same operands.

*Walk* (``_walk``): each layout, that is a profile, a constellation size
and whether the decode memoizes, prunes and traces, has one walk function,
generated as Python source by ``_walk_source`` and compiled on its first
decode (a few milliseconds; at most 64 layouts are kept).  The generator
alone works out what each level of a layout does: which rows it reads,
whether it caches, where its block starts and what it costs.  Its source
holds only the layout's integers, with the candidate orders and the leading
block's joint tails bound as globals; every float is read from the prepared
instance on each call, so one function serves every instance of its layout.

The conditioned blocks are enumerated from the last column inward, each level
a ``for`` loop over its candidates nested in the loop of the level above, in
increasing order of metric increment (Schnorr-Euchner), pruning once the
partial metric passes the best leaf found.  That order is read from a per-M
table of zig-zag orders (:func:`_zigzag_orders`), or the increments are sorted
where float rounding or underflow could decide it, so exact ties still take
the lower index.  Every accepted symbol, the last conditioned one included, is
cancelled at once from all the rows above its block, one local per row, as the
FLOP count charges it, so every row's conditioned offset is ready when the row
is reached.  The increments inside a conditioned sub-block depend only on the
symbols of the blocks above, so the memoized walk caches them with their order
and replays both, in every sub-block of a block but the one it enumerates
first, whose increments a visit never repeats; a level's table lives for one
visit of its block, from the walk entering the block's last column to leaving
the block, and holds one entry where the level ends its sub-block, else one per
value of the sub-block's later symbols.  A walk deeper than
``_LEVELS_PER_FUNCTION`` conditioned levels chains nested functions.

*Leading block* (part of the walk): once the conditioned symbols are fixed the
leading block is fast-decodable: its sub-blocks share no columns, so each is
minimized independently (its last undecided symbol is sliced to the nearest
level) and the minima are summed, a pruned walk of more than one block moving
on to the next candidate once the sum passes the best leaf.  The walk solves
it, unrolled sub-block by sub-block, once per accepted candidate of the last
conditioned level, reading the offsets that level wrote, and a single-block
profile once, reading ``y'``.  A gamma = 1 sub-block is sliced directly; a
larger one enumerates the M^(gamma - 1) joint values of its trailing gamma - 1
symbols in lexicographic order and slices its top symbol given each.  A pruned
walk of more than one block drops a joint tail at the first of its rows where
the partial metric before the sub-block plus the tail's partial metric passes
the best leaf, or the tail's partial metric alone passes the sub-block's best
so far.  A tail's full metric is at least its partial one and rounding is
monotone, so either test proves the tail cannot give an accepted leaf.  When a
solve drops every tail its minimum stays ``inf``, so its leaf is refused
without the sub-block's indices being read.

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
    computation and interference cancellation; comparisons, ordering, cache
    lookups, bookkeeping copies and control flow are free.  The walk charges:

    - ``2 (e - c) + 3 M`` per uncached entry of conditioned level ``c``:
      two per symbol cancelled inside the row up to column ``e`` (the end
      of ``c``'s sub-block when memoizing, of its block in the baseline),
      and three per candidate increment;
    - ``1 + 2 s`` per accepted candidate of a block starting at column
      ``s``: its partial-metric add and its cancellation from the ``s``
      rows above its block, all done before the level below is entered (the
      leading block, for the last conditioned level), so an early exit
      skips none of them;
    - 1 per pruning break, the add that formed the pruned partial metric;
    - 7 per gamma = 1 leading sub-block solved before a leaf or early exit;
    - per gamma > 1 leading sub-block, 1 for adding its minimum, and per
      joint tail ``2 (gamma - 1 - j) + 4`` for each row ``lo + j``
      evaluated (bottom row first, up to a skip), one more on each row but
      the bottom one where the walk tests for a skip, plus ``2 gamma + 5``
      if the tail reaches the top symbol.

    Each ``r[c,c] * level`` is priced as one multiply where the walk reads
    it, though :func:`prepare` forms it once per instance.  A leading
    sub-block's fixed charge (7, or the 1 for adding its minimum) is not
    added as the walk goes: each solve adds a fixed node count, so the
    walk prices the leading block from its nodes when it returns.  The
    walk starts from the empty prefix's zero partial metric, so the top
    conditioned level and a single-block profile's first leading sub-block
    do the add they are charged.  A joint tail's skip test adds the partial
    metric before its sub-block to the tail's, once per row evaluated; on
    the bottom row that add is the row's fourth unit.  So every charge is
    work the walk does, with one exception: a walk without the skip test
    (``prune=False``, or a single-block profile, which knows no leaf before
    its leading block) still charges a joint tail's bottom row
    (``met = res * res``) 4 for its 3 operations.
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
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .codes import _is_integer
from .linalg import _real_array
from .structure import (DEFAULT_TOL_REL, BlockOrthogonalProfile,
                        _check_profile)

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
    for plain integer levels.  A ``scale`` that is not a finite nonzero
    real number (``bool`` included) raises ``ValueError``, and so does one
    whose levels overflow or whose energy per symbol over- or underflows
    (a zero energy would make every trial noise-free).
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
        if type(scale) is bool or not isinstance(scale, numbers.Real):
            raise ValueError(f"scale = {scale!r} must be a real number")
        try:
            scale = float(scale)
        except OverflowError:  # an int past the float range
            scale = math.inf
        if not math.isfinite(scale) or scale == 0.0:
            raise ValueError(f"scale = {scale!r} must be finite and nonzero")
        levels = tuple(scale * (2 * i - m + 1) for i in range(m))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "levels", levels)
        if not 0.0 < self.energy_per_symbol < math.inf:
            raise ValueError(f"scale = {scale!r} puts a level or the energy "
                             "per symbol out of float range")

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


@functools.lru_cache(maxsize=64)
def _zero_cut(profile: BlockOrthogonalProfile) -> np.ndarray:
    """``|r|`` above ``_zero_cut(profile) * max|r|`` is an error: any entry
    below the diagonal (cut 0), a structural zero above the tolerance, and
    nothing else (cut 1).  Shared and read-only."""
    zero_cut = np.where(profile.structural_zeros(), DEFAULT_TOL_REL, 1.0)
    zero_cut[np.tri(profile.total, k=-1, dtype=bool)] = 0.0
    zero_cut.setflags(write=False)
    return zero_cut


class _Instance(NamedTuple):
    """One validated ``(R, y')`` over one profile and constellation, in the
    forms the walk reads, with the ``r`` and ``y'`` objects, profile and
    constellation it was built from.  Nothing in it depends on how the walk
    prices or caches, so the baseline and memoized decodes of a trial share it.

    ``diag_levels[c][a]`` is ``r[c,c] * levels[a]``; the walk reads R's
    diagonal only through it and ``inv_diag``."""

    r: object
    y_prime: object
    profile: BlockOrthogonalProfile
    cons: PamConstellation
    rows: tuple
    y: tuple
    inv_diag: tuple
    diag_levels: tuple
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
    _check_profile(profile, or_none=True)
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
    abs_r = np.abs(r)
    r_max = abs_r.max()  # the max is NaN or inf iff some entry is
    y_max = np.abs(y).max()
    if not (math.isfinite(r_max) and math.isfinite(y_max)):
        raise ValueError("r and y' must be finite")
    # one mask holds both kinds of misplaced entry (see _zero_cut); which
    # error applies is decided only when one is found
    bad = abs_r > _zero_cut(profile) * r_max
    misplaced = bad.any()
    if misplaced and np.tril(bad, -1).any():
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
        c, j = divmod(int(bad.argmax()), k_total)  # row-major first
        raise InvalidProfile(
            f"r[{c},{j}] = {r[c, j]:.3e} should be structurally zero")
    rows = tuple(map(tuple, r.tolist()))
    levels = cons.levels
    diag_levels = tuple([tuple([d * lev for lev in levels]) for d in diag])
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
        rows=rows,
        y=tuple(y.tolist()),
        inv_diag=tuple([1.0 / d for d in diag]),
        diag_levels=diag_levels,
        pos_shift=pos_shift,
    )


#: Conditioned levels one generated function holds.  CPython refuses more
#: than 20 statically nested loops in one function, so a deeper walk hands
#: each further run of levels to a function nested in the one before.
_LEVELS_PER_FUNCTION = 16

#: The names a generated walk reads besides its arguments.  Its source holds
#: only integers; every float reaches it through these or the instance.
_WALK_GLOBALS = {
    "inf": math.inf,
    "ceil": math.ceil,
    "DecoderStats": DecoderStats,
    "_HALF": 0.5,
    "_ZERO": 0.0,
    "_ORDER_MARGIN": _ORDER_MARGIN,
}


def _walk_source(profile: BlockOrthogonalProfile, m: int, memoize: bool,
                 prune: bool, traced: bool) -> str:
    """Python source of ``walk(inst, trace)``, the decode of one
    :func:`prepare`d instance of ``profile`` at ``m`` levels, returning its
    :class:`DecoderStats`.

    Each conditioned level is a ``for`` loop over its candidate order,
    nested in the loop of the level above, and each row offset a local;
    names carry the row and column they stand for: ``a5`` is the index of
    symbol 5, ``x5`` its level, ``o2_5`` row 2's offset once the symbols
    from column 5 on are cancelled, ``r2_5`` and ``iv5`` entries of R and
    ``1 / r[5,5]``, ``dl5`` the products ``r[5,5] * level`` (``dl5_0``,
    ... on a conditioned level), ``tot5`` the partial metric after symbol
    5, ``n5`` and ``mis5`` its accepted candidates and uncached entries.
    The prologue binds the empty prefix, K being the symbol count:
    ``o2_K`` is ``y'[2]`` and ``totK`` a zero, so every level and the
    leading block add to a partial metric and cancel from an offset.  The
    candidate orders and a leading sub-block's joint tails are the walk's
    globals ``ORDERS`` and ``TAILS``."""
    k_total, blk, gam = profile.total, profile.block_size, profile.gamma
    conditioned = range(k_total - 1, blk - 1, -1)  # in walk order
    chunks = [conditioned[i:i + _LEVELS_PER_FUNCTION]
              for i in range(0, len(conditioned), _LEVELS_PER_FUNCTION)]
    lead_prune = prune and bool(chunks)  # nothing prunes before a first leaf
    lines = []

    def emit(depth, *text):
        lines.extend("    " * depth + line for line in text)

    def sub_end(c):
        # the last column of c's sub-block
        return c - c % gam + gam - 1

    def cacheable(c):
        # the memoized walk stores and replays the increments of every
        # sub-block of a conditioned block but its last, enumerated first
        return memoize and c % blk < blk - gam

    def memo(c):
        # where the sub-block ends at c its one entry is keyed by c alone
        return f"slot{c}" if sub_end(c) == c else f"tab{c}"

    def shared(chunk):
        names = ["best", "best_idx", "nodes", "flops", "hits", "size", "peak"]
        for c in chunk:
            names += [f"n{c}", f"mis{c}"]
            if cacheable(c):
                names.append(memo(c))
        return names

    def slice_top(depth, lo, off, sym):
        # the level nearest off / r[lo,lo], lower index at a midpoint, clamped
        emit(depth, f"pos = ({off} * iv{lo} - lev0) * inv_spacing",
             "if pos <= half:", f"    {sym} = 0",
             "elif pos > clamp:", f"    {sym} = {m - 1}",
             "else:", f"    {sym} = ceil(pos - half)")

    def leading(depth):
        # each sub-block's minimum is added to the partial metric; an early
        # exit moves on to the last conditioned level's next candidate
        subs = range(0, blk, gam)
        picks = []  # a gamma > 1 sub-block's indices, bound from its best
        for lo in subs:
            acc = f"tot{blk}" if lo == 0 else "tl"
            last = lo == subs[-1]
            if gam == 1:
                slice_top(depth, lo, f"o{lo}_{blk}", f"a{lo}")
                emit(depth, f"res = o{lo}_{blk} - dl{lo}[a{lo}]",
                     f"tl = {acc} + res * res")
                if lead_prune and not last:
                    emit(depth, "if tl > best:", f"    nodes += {lo + 1}",
                         "    continue")
                continue
            # the trailing gamma - 1 symbols jointly, their rows bottom
            # first, and the top symbol sliced given them
            ws = [f"w{j}" for j in range(1, gam)]
            emit(depth, "bst = inf",
                 f"for {', '.join(ws)}{',' if gam == 2 else ''} in tails:")
            d = depth + 1
            cost = 0
            for j in range(gam - 1, 0, -1):
                row = lo + j
                terms = "".join(f" - r{row}_{lo + jj} * v{jj}"
                                for jj in range(j + 1, gam))
                cost += 2 * (gam - 1 - j) + 4
                if lead_prune and j < gam - 1:
                    # the skip test's add; on the bottom row it is the
                    # fourth unit, which a walk without the test never does
                    cost += 1
                emit(d, f"res = o{row}_{blk}{terms} - dl{row}[w{j}]",
                     "met = res * res" if j == gam - 1
                     else "met = met + res * res")
                if lead_prune:
                    # a full tail metric is at least its partial one, and
                    # rounding is monotone, so past the best leaf with the
                    # add the leaf test does, or past the sub-block's best,
                    # the tail cannot give an accepted leaf
                    emit(d, f"if {acc} + met > best or met > bst:",
                         f"    flops += {cost}", "    continue")
                emit(d, f"v{j} = lev[w{j}]")
            terms = "".join(f" - r{lo}_{lo + j} * v{j}" for j in range(1, gam))
            emit(d, f"t = o{lo}_{blk}{terms}")
            slice_top(d, lo, "t", "a")
            emit(d, f"res = t - dl{lo}[a]", "met = met + res * res",
                 f"flops += {cost + 2 * gam + 5}",
                 # tails arrive in lexicographic order, so a tie is smaller
                 # iff its top symbol is
                 "if met < bst or (met == bst and a < ba):",
                 "    bst = met", "    ba = a",
                 *(f"    b{w} = {w}" for w in ws))
            emit(depth, f"nodes += {m ** (gam - 1)}", f"tl = {acc} + bst")
            # a solve whose every tail was skipped keeps bst = inf and binds
            # no ba, so the indices are read only once tl is known finite
            picks = [f"a{lo} = ba",
                     *(f"a{lo + j} = bw{j}" for j in range(1, gam))]
            if lead_prune and not last:
                emit(depth, "if tl > best:", "    continue")
            if not last:
                emit(depth, *picks)
        if gam == 1:
            emit(depth, f"nodes += {blk}")
        leaf = ", ".join(f"a{i}" for i in range(k_total))
        emit(depth, "if tl <= best:", *(f"    {pick}" for pick in picks),
             f"    leaf = ({leaf},)",
             "    if tl < best or leaf < best_idx:",
             "        best = tl", "        best_idx = leaf")

    def level(ci, pos, depth):
        c = chunks[ci][pos]
        start = c - c % blk
        src, end = start + blk, sub_end(c)  # src: the next block's first column
        # entering the block's last column: its conditioning is new, and so
        # are its tables
        opens = memoize and profile.k > 1 and c + 1 == src
        if opens:
            emit(depth, f"size{c} = size")
            for cc in range(start, c):
                if cacheable(cc):
                    emit(depth, f"{memo(cc)} = " + (
                        "None" if sub_end(cc) == cc else "{}"))
        d = depth
        if cacheable(c):
            if end == c:
                emit(depth, f"if slot{c} is None:")
            else:
                key = " + ".join(
                    [f"a{cc} * {m ** (end - cc)}" for cc in range(c + 1, end)]
                    + [f"a{end}"])
                emit(depth, f"k{c} = {key}", f"e{c} = tab{c}.get(k{c})",
                     f"if e{c} is None:")
            d = depth + 1
        # the offset captured when the block below was finished, minus the
        # interference inside the sub-block; candidate a adds d * d with
        # d = t - r[c,c] * levels[a]
        terms = "".join(f" - r{c}_{cc} * x{cc}"
                        for cc in range(c + 1, end + 1))
        emit(d, f"t = o{c}_{src}{terms}",
             *(f"d{a} = t - dl{c}_{a}" for a in range(m)),
             f"inc{c} = ({', '.join(f'd{a} * d{a}' for a in range(m))},)",
             f"g = t * iv{c} * pos_scale + pos_shift",
             f"if 0 < g < {len(_zigzag_orders(m))} and "
             "lo_margin < g - (j := int(g)) < hi_margin:",
             f"    ord{c} = orders[j]",
             "else:  # stable: equal increments keep index order",
             f"    ord{c} = sorted(range({m}), key=inc{c}.__getitem__)",
             f"mis{c} += 1")
        hit = "False"
        if cacheable(c):
            hit = f"h{c}"
            store = f"slot{c}" if end == c else f"tab{c}[k{c}]"
            emit(d, f"{store} = (inc{c}, ord{c})", f"size += {m}",
                 "if size > peak:", "    peak = size")
            if traced:
                emit(d, f"h{c} = False")
            # a replay is the one statement `incC, ordC = entry`, which the
            # tests rewrite to corrupt a memo entry
            entry = f"slot{c}" if end == c else f"e{c}"
            emit(depth, "else:", "    hits += 1",
                 f"    inc{c}, ord{c} = {entry}")
            if traced:
                emit(depth, f"    h{c} = True")
        emit(depth, f"for a{c} in ord{c}:")
        d = depth + 1
        emit(d, f"tot{c} = tot{c + 1} + inc{c}[a{c}]")
        if prune:
            # increments are in order; later candidates only grow
            emit(d, f"if tot{c} > best:", "    flops += 1", "    break")
        emit(d, f"n{c} += 1", f"x{c} = lev[a{c}]")
        if traced:
            emit(d, f'trace_append({{"level": {c}, "partial_metric": '
                    f'tot{c}, "symbol_index": a{c}, "cache_hit": {hit}}})')
        # cancel the symbol from the rows above its block
        emit(d, *(f"o{i}_{c} = o{i}_{c + 1} - r{i}_{c} * x{c}"
                  for i in range(start)))
        if c == blk:
            leading(d)
        elif pos + 1 < len(chunks[ci]):
            level(ci, pos + 1, d)
        else:
            emit(d, f"walk{ci + 1}()")
        if opens:
            emit(depth, f"size = size{c}")

    def body(ci, depth):
        if ci + 1 < len(chunks):
            emit(depth, f"def walk{ci + 1}():",
                 "    nonlocal " + ", ".join(shared(chunks[ci + 1])))
            body(ci + 1, depth + 1)
        level(ci, 0, depth)

    emit(0, "def walk(inst, trace):")
    emit(1, "lev = inst.cons.levels", "lev0 = lev[0]",
         "spacing = lev[1] - lev0", "inv_spacing = 1 / spacing",
         "half = _HALF", f"clamp = {m - 1} - half",
         # the empty prefix: no symbol cancelled, a zero partial metric
         f"[{', '.join(f'o{i}_{k_total}' for i in range(k_total))}] = inst.y",
         f"tot{k_total} = _ZERO",
         f"[{', '.join(f'iv{i}' for i in range(k_total))}] = inst.inv_diag",
         "dls = inst.diag_levels", "rows = inst.rows")
    if chunks:
        # g = t * iv * pos_scale + pos_shift maps a conditioned offset t to
        # 2 (pos + _ORDER_REACH)
        emit(1, "pos_scale = 2 / spacing", "pos_shift = inst.pos_shift",
             "lo_margin = _ORDER_MARGIN", "hi_margin = 1 - _ORDER_MARGIN",
             "orders = ORDERS")
    if gam > 1:
        emit(1, "tails = TAILS")
    if traced:
        emit(1, "trace_append = trace.append")
    emit(1, *(f"dl{i} = dls[{i}]" for i in range(blk)))
    for c in conditioned:
        emit(1, f"[{', '.join(f'dl{c}_{a}' for a in range(m))}] = dls[{c}]")
    for i in range(k_total):
        # the entries of row i the walk reads: right of the diagonal in i's
        # sub-block, and every column of the later blocks, whose symbols are
        # cancelled from row i; each contiguous run is one slice
        runs = [(i + 1, sub_end(i) + 1), (i - i % blk + blk, k_total)]
        if runs[0][1] == runs[1][0]:
            runs = [(i + 1, k_total)]
        for lo, hi in runs:
            if lo < hi:
                names = ", ".join(f"r{i}_{j}" for j in range(lo, hi))
                emit(1, f"[{names}] = rows[{i}][{lo}:{hi}]")
    emit(1, "best = inf", "best_idx = None",
         "nodes = flops = hits = size = peak = 0")
    for c in conditioned:
        emit(1, f"n{c} = mis{c} = 0")
        if cacheable(c):
            emit(1, f"{memo(c)} = None")
    if chunks:
        body(0, 1)
    else:
        leading(1)
    em = " + ".join(f"mis{c}" for c in conditioned) or "0"
    nodes = "".join(f" + n{c}" for c in conditioned)
    # `nodes` holds the leading block's nodes alone, and each solved
    # sub-block adds a fixed count of them: 1 for 7 FLOPs at gamma = 1, or
    # M^(gamma - 1) for the 1 FLOP that adds its minimum
    flops = " + 7 * nodes" if gam == 1 else f" + nodes // {m ** (gam - 1)}"
    for c in conditioned:
        start = c - c % blk
        # an increment vector and an accepted candidate's cancellation; a
        # memoized walk prices interference inside the sub-block only, a
        # baseline one has no block-diagonal zeros to skip and prices the
        # whole in-block row (the skipped entries are structural zeros, so
        # the metric value is the same)
        row_end = sub_end(c) if memoize else start + blk - 1
        flops += (f" + {2 * (row_end - c) + 3 * m} * mis{c}"
                  f" + {1 + 2 * start} * n{c}")
    emit(1, "return DecoderStats(",
         f"    em_evaluations={m} * ({em}),",
         f"    nodes_visited=nodes{nodes},",
         f"    flops=flops{flops},",
         "    cache_hits=hits,",
         "    cache_entries_peak=peak,",
         "    best_metric=best,",
         "    decoded=best_idx,",
         ")")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=64)
def _walk(profile: BlockOrthogonalProfile, m: int, memoize: bool,
          prune: bool, traced: bool):
    """The compiled :func:`_walk_source` of one layout, shared by every
    decode of it."""
    namespace = dict(_WALK_GLOBALS, ORDERS=_zigzag_orders(m),
                     # a leading sub-block's trailing gamma - 1 symbols'
                     # joint values, in lexicographic order
                     TAILS=tuple(itertools.product(range(m),
                                                   repeat=profile.gamma - 1)))
    exec(compile(_walk_source(profile, m, memoize, prune, traced),
                 f"<walk {profile} m={m}>", "exec"), namespace)
    return namespace["walk"]


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

    Raises ``ValueError`` for a profile of another type (a declared
    profile tuple, say), for complex or non-finite ``r`` or ``y'``, for
    inputs so large that the metric would overflow, and for a zero diagonal.

    Returns ``(symbols, stats)`` where ``symbols`` are the decoded PAM
    levels and ``stats.decoded`` the matching level indices.
    """
    _check_profile(profile, or_none=True)
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
    walk = _walk(profile, cons.m, bool(memoize), bool(prune),
                 trace is not None)
    stats = walk(prepared, trace)
    symbols = tuple(map(cons.levels.__getitem__, stats.decoded))
    return symbols, stats


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
    k = h_eq.shape[1]
    if cons.m ** k > MAX_GRID:
        raise TooLarge(f"grid of {cons.m}^{k} points exceeds the guard")
    grid = np.asarray(cons.levels)[np.indices((cons.m,) * k).reshape(k, -1).T]
    diff = grid @ h_eq.T - y
    metrics = np.einsum("ij,ij->i", diff, diff)
    best = int(np.argmin(metrics))
    if not math.isfinite(metrics[best]):
        raise ValueError("h_eq and y are too large: the metric overflows")
    return grid[best].copy()  # a view would keep the whole grid alive


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
    memoized one.  Integer arithmetic in closed form throughout, so large
    constellations and deep trees neither overflow nor take long.
    """
    _check_profile(profile)
    if not _is_integer(m):
        raise ValueError(f"m = {m!r} must be an integer")
    m = int(m)
    if m < 2:
        raise ValueError("need at least two points per real dimension")
    g, k, gam = profile.gamma_blocks, profile.k, profile.gamma
    if g < 2:
        raise ValueError("profiles with a single block have no conditioned blocks")
    # geometric sums in closed form: sum_{d=1}^{n} m^d = m (m^n - 1) / (m - 1)
    # and sum_{i=2}^{g} q^(g-i) = (q^(g-1) - 1) / (q - 1) with q = m^(k gam)
    deep = m ** ((g - 1) * k * gam) - 1  # q^(g-1) - 1
    per_sub_block = m * (m ** gam - 1) // (m - 1)
    o_stbc = m * deep // (m - 1)
    o_bostbc = k * per_sub_block * (deep // (m ** (k * gam) - 1))
    return EmCountBounds(o_stbc, o_bostbc, Fraction(o_bostbc, o_stbc),
                         mem_entries=(g - 1) * (k - 1) * per_sub_block)


def qrdm_bound(k: int, gamma: int, m: int) -> Fraction:
    """Best-case metric-count ratio for a breadth-first M-path decoder:
    ``M^gamma / (k (M^gamma - 1))``."""
    if not all(map(_is_integer, (k, gamma, m))):
        raise ValueError(f"k, gamma, m = {k!r}, {gamma!r}, {m!r} must be integers")
    k, gamma, m = int(k), int(gamma), int(m)
    if min(k, gamma) < 1 or m < 2:
        raise ValueError("parameters must satisfy k, gamma >= 1 and m >= 2")
    return Fraction(m ** gamma, k * (m ** gamma - 1))
