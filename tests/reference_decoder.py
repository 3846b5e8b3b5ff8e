"""A plain recursive sphere decoder that counts by the decoder docstring's
"Counting conventions" and tie rule, to check every ``DecoderStats`` field
of the generated walk against.

It has no generated source, no candidate-order table and no chained
functions: each conditioned level is one call, candidates are sorted by
``(increment, index)``, a leading symbol is the level of least residual
(lower index on a tie) and a sub-block's minimum the lexicographically
smallest of its least metrics.  Every charge is added where its work
happens, not priced from node counts afterwards.  Only the float operations
copy the walk's, operand for operand and in the same order, so
``best_metric`` agrees bit for bit.
"""

import itertools
import math
import types

import numpy as np

from bostbc.decoder import DecoderStats
from bostbc.structure import BlockOrthogonalProfile

#: The leading block's joint-tail skip rules.  A tail whose partial metric
#: ``met`` (its rows so far, bottom row first) passes ``skip(acc, met, best,
#: bst)`` is left unfinished: ``acc`` is the partial metric before its
#: sub-block, ``best`` the best leaf's metric and ``bst`` the sub-block's
#: least full tail metric so far.  ``adds`` is the real adds the test does
#: per tail row, charged on every row but the bottom one, whose fourth unit
#: the conventions always charge.  ``"and"`` forms its budget ``best - acc``
#: once per solve, uncharged.
TAIL_RULES = {
    "and": (lambda acc, met, best, bst: met > best - acc and met > bst, 0),
    "or": (lambda acc, met, best, bst: acc + met > best or met > bst, 1),
}

#: The rule ``decoder._walk_source`` emits.
WALK_RULE = "or"


def reference_decode(r, y_prime, cons, profile=None, *, memoize=True,
                     prune=True, rule=WALK_RULE, emptied=None):
    """``DecoderStats`` of decoding ``(r, y')`` as :func:`sphere_decode`
    with the same arguments, the joint tails skipped by ``rule``: a name in
    :data:`TAIL_RULES` or a ``(skip, adds)`` pair.  ``emptied``, a list,
    receives the first column of every leading sub-block solve whose tails
    were all skipped."""
    skip, adds = TAIL_RULES[rule] if isinstance(rule, str) else rule
    rows = np.asarray(r, dtype=float).tolist()
    y = np.asarray(y_prime, dtype=float).ravel().tolist()
    k_total = len(y)
    if profile is None:
        profile = BlockOrthogonalProfile(k_total, 1, 1)
    blk, gam, m, lev = profile.block_size, profile.gamma, cons.m, cons.levels
    dl = [[rows[c][c] * v for v in lev] for c in range(k_total)]
    # a single block is solved once, before any leaf, so nothing prunes it
    prune_lead = prune and blk < k_total
    x, idx = [None] * k_total, [None] * k_total
    tables = {}  # per cacheable level, its memo for one visit of its block
    st = types.SimpleNamespace(em=0, nodes=0, flops=0, hits=0, size=0,
                               peak=0, best=math.inf, best_idx=None)

    def nearest(t, c):
        res = [t - v for v in dl[c]]
        return min(range(m), key=lambda a: (res[a] * res[a], a))

    def level(c, off, tot):
        start = c - c % blk
        end = c - c % gam + gam - 1
        opens = memoize and c == start + blk - 1
        if opens:
            size = st.size
            for cc in range(start, start + blk - gam):
                tables[cc] = {}
        key = tuple(idx[c + 1:end + 1])
        entry = tables[c].get(key) if c in tables else None
        if entry is None:
            t = off[c]
            for cc in range(c + 1, end + 1):
                t = t - rows[c][cc] * x[cc]
            inc = [d * d for d in (t - v for v in dl[c])]
            order = sorted(range(m), key=lambda a: (inc[a], a))
            st.em += m
            # the memoized walk prices interference inside the sub-block,
            # the baseline over the whole in-block row
            row_end = end if memoize else start + blk - 1
            st.flops += 2 * (row_end - c) + 3 * m
            if c in tables:
                tables[c][key] = inc, order
                st.size += m
                st.peak = max(st.peak, st.size)
        else:
            st.hits += 1
            inc, order = entry
        for a in order:
            part = tot + inc[a]
            if prune and part > st.best:
                st.flops += 1
                break
            st.nodes += 1
            st.flops += 1 + 2 * start
            x[c], idx[c] = lev[a], a
            below = [off[i] - rows[i][c] * x[c] if i < start else off[i]
                     for i in range(k_total)]
            if c == blk:
                lead(below, part)
            else:
                level(c - 1, below, part)
        if opens:
            st.size = size
            for cc in range(start, start + blk - gam):
                del tables[cc]

    def solve(lo, off, acc):
        # (least metric, symbol indices) of the gamma > 1 sub-block at lo
        bst, pick = math.inf, None
        for tail in itertools.product(range(m), repeat=gam - 1):
            v = (None, *(lev[w] for w in tail))  # v[j]: symbol lo + j's level
            finished = True
            for j in range(gam - 1, 0, -1):
                row = lo + j
                res = off[row]
                for jj in range(j + 1, gam):
                    res = res - rows[row][lo + jj] * v[jj]
                res = res - dl[row][tail[j - 1]]
                met = res * res if j == gam - 1 else met + res * res
                st.flops += 2 * (gam - 1 - j) + 4
                if prune_lead:
                    st.flops += adds if j < gam - 1 else 0
                    if skip(acc, met, st.best, bst):
                        finished = False
                        break
            if not finished:
                continue
            t = off[lo]
            for j in range(1, gam):
                t = t - rows[lo][lo + j] * v[j]
            a = nearest(t, lo)
            res = t - dl[lo][a]
            met = met + res * res
            st.flops += 2 * gam + 5
            if met < bst or (met == bst and (a, *tail) < pick):
                bst, pick = met, (a, *tail)
        st.nodes += m ** (gam - 1)
        st.flops += 1
        if pick is None and emptied is not None:
            emptied.append(lo)
        return bst, pick

    def lead(off, acc):
        tl = acc
        for lo in range(0, blk, gam):
            if gam == 1:
                a = nearest(off[lo], lo)
                res = off[lo] - dl[lo][a]
                tl = tl + res * res
                st.nodes += 1
                st.flops += 7
                pick = (a,)
            else:
                bst, pick = solve(lo, off, tl)
                tl = tl + bst
            if pick is not None:
                idx[lo:lo + gam] = pick
            if prune_lead and lo + gam < blk and tl > st.best:
                return
        if tl <= st.best:
            leaf = tuple(idx)
            if tl < st.best or leaf < st.best_idx:
                st.best, st.best_idx = tl, leaf

    if blk < k_total:
        level(k_total - 1, y, 0.0)
    else:
        lead(y, 0.0)
    return DecoderStats(
        em_evaluations=st.em, nodes_visited=st.nodes,
        flops=st.flops, cache_hits=st.hits,
        cache_entries_peak=st.peak, best_metric=st.best,
        decoded=st.best_idx)
