"""Tests for the sphere decoder, the exhaustive oracle and the bound math."""

import dataclasses
import functools
import itertools
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bostbc.codes import bhv_code, golden_code, named_code
from bostbc.decoder import (
    InvalidProfile,
    NotUpperTriangular,
    PamConstellation,
    TooLarge,
    _layout,
    _Walker,
    em_count_bounds,
    exhaustive_ml,
    prepare,
    qrdm_bound,
    sphere_decode,
)
from bostbc.linalg import gram_schmidt_qr
from bostbc.structure import (
    DEFAULT_TOL_REL,
    BlockOrthogonalProfile,
    equivalent_channel,
    random_channel,
)

from conftest import decode_instance


def walk_trace(r, y, cons, profile, *, memoize, prune):
    """``(stats, trace)`` of one decode, each trace record cut to ``(level,
    partial metric, symbol index)``: what a memoized walk that replays its
    cache correctly shares with the baseline walk, bit for bit."""
    trace = []
    _, stats = sphere_decode(r, y, cons, profile, memoize=memoize,
                             prune=prune, trace=trace)
    return stats, [(t["level"], t["partial_metric"], t["symbol_index"])
                   for t in trace]


def patterned_r(rng, profile, scale=1.0):
    """Random upper-triangular R carrying the profile's zero pattern."""
    k = profile.total
    r = np.triu(rng.standard_normal((k, k))) * scale
    m, g = profile.block_size, profile.gamma
    for b in range(profile.gamma_blocks):
        s = b * m
        for i in range(m):
            for j in range(i + 1, m):
                if i // g != j // g:
                    r[s + i, s + j] = 0.0
    r[np.diag_indices(k)] = np.abs(r[np.diag_indices(k)]) + 1.0
    return r


class TestPamConstellation:
    def test_levels_and_scale(self):
        cons = PamConstellation(4, scale=1.0)
        assert cons.levels == (-3.0, -1.0, 1.0, 3.0)

    def test_unit_energy_normalization(self):
        for m in (2, 4, 8):
            cons = PamConstellation(m)
            # two PAM reals form one unit-energy complex symbol
            assert abs(2 * cons.energy_per_symbol - 1.0) < 1e-12

    def test_rejects_unsupported_size(self):
        with pytest.raises(ValueError):
            PamConstellation(3)

    @pytest.mark.parametrize("m, scale, named", [
        (4.0, None, "points per real dimension must be 2, 4 or 8"),
        (True, None, "points per real dimension must be 2, 4 or 8"),
        (2, 0.0, "scale = 0.0 must be finite and nonzero"),
        (2, np.nan, "scale = nan must be finite and nonzero"),
        (2, np.inf, "scale = inf must be finite and nonzero"),
        (2, -np.inf, "scale = -inf must be finite and nonzero"),
    ])
    def test_rejects_bad_size_or_scale(self, m, scale, named):
        # each used to fail later: a float size in range(), a zero scale in
        # the decoder's division, a non-finite one as a metric overflow
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            PamConstellation(m, scale)

    def test_numpy_integer_size(self):
        cons = PamConstellation(np.int64(4))
        assert type(cons.m) is int
        assert cons == PamConstellation(4)

    @pytest.mark.parametrize("m", [4, 8])
    def test_negative_scale_decodes_like_the_oracle(self, rng, m):
        # levels run downwards; the decoders still return the ML point
        cons = PamConstellation(m, scale=-0.5)
        prof = BlockOrthogonalProfile(2, 2, 1)
        for _ in range(25):
            r = patterned_r(rng, prof)
            y = r @ np.asarray(cons.levels)[rng.integers(0, m, 4)]
            y += 0.5 * rng.standard_normal(4)
            oracle = exhaustive_ml(r, y, cons)
            for memoize in (False, True):
                symbols, _ = sphere_decode(r, y, cons, prof, memoize=memoize)
                assert np.array_equal(symbols, oracle)


class TestSphereDecodeBasics:
    def test_diagonal_slicing(self):
        cons = PamConstellation(2, scale=1.0)
        symbols, stats = sphere_decode(np.eye(2), [0.9, -1.1], cons)
        assert symbols == (1.0, -1.0)
        assert stats.decoded == (1, 0)

    def test_not_upper_triangular(self):
        cons = PamConstellation(2)
        with pytest.raises(NotUpperTriangular):
            sphere_decode(np.ones((2, 2)), [0.0, 0.0], cons)

    def test_profile_size_mismatch(self, rng):
        cons = PamConstellation(2)
        r = patterned_r(rng, BlockOrthogonalProfile(2, 2, 1))
        with pytest.raises(InvalidProfile):
            sphere_decode(r, np.zeros(4), cons, BlockOrthogonalProfile(2, 4, 1))

    def test_pattern_mismatch_rejected(self, rng):
        cons = PamConstellation(2)
        r = np.triu(rng.standard_normal((4, 4))) + 2 * np.eye(4)
        with pytest.raises(InvalidProfile, match="structurally zero"):
            sphere_decode(r, np.zeros(4), cons, BlockOrthogonalProfile(2, 2, 1))

    def test_baseline_never_hits_cache(self, rng):
        prof = BlockOrthogonalProfile(2, 2, 1)
        r = patterned_r(rng, prof)
        cons = PamConstellation(2)
        _, stats = sphere_decode(r, rng.standard_normal(4), cons, prof,
                                 memoize=False)
        assert stats.cache_hits == 0
        assert stats.cache_entries_peak == 0


class TestInputValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [("r", (1, 3)), ("r", (2, 2)),
                                       ("r", (3, 0)), ("y", 2)])
    @pytest.mark.parametrize("profile", [None, BlockOrthogonalProfile(2, 2, 1)])
    def test_non_finite_rejected(self, rng, bad, where, profile):
        r = patterned_r(rng, BlockOrthogonalProfile(2, 2, 1))
        y = rng.standard_normal(4)
        arg, pos = where
        (r if arg == "r" else y)[pos] = bad
        with pytest.raises(ValueError, match="r and y' must be finite"):
            sphere_decode(r, y, PamConstellation(2), profile)

    @pytest.mark.parametrize("decode", [
        sphere_decode,
        pytest.param(functools.partial(sphere_decode, prune=False),
                     id="full_tree")])
    @pytest.mark.parametrize("arg, named", [("r", "r"), ("y", "y_prime")])
    @pytest.mark.parametrize("imag", [0.5, 0.0])
    def test_complex_rejected(self, rng, decode, arg, named, imag):
        # a float cast would only warn and decode the real part; a complex
        # array is refused even when its imaginary part is zero
        r = patterned_r(rng, BlockOrthogonalProfile(2, 2, 1))
        y = rng.standard_normal(4)
        if arg == "r":
            r = r + imag * 1j * np.eye(4)
        else:
            y = y + imag * 1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=f"^{named} must be real, got a complex"):
                decode(r, y, PamConstellation(2), BlockOrthogonalProfile(2, 2, 1))

    @pytest.mark.parametrize("shape, k", [((4, 3), 4), ((3, 3), 4)])
    def test_r_not_square_or_not_matching_y_rejected(self, shape, k):
        with pytest.raises(ValueError, match="^r must be square and match y'$"):
            prepare(np.eye(*shape), np.zeros(k), PamConstellation(2), None)

    @pytest.mark.parametrize("profile", [None, BlockOrthogonalProfile(2, 1, 1)])
    @pytest.mark.parametrize("r_scale, y", [
        (1e300, [1e308, -1e308]),
        (1e308, [1.0, -1.0]),
        (1.0, [1e200, 1e160]),
    ])
    def test_metric_overflow_rejected(self, profile, r_scale, y):
        with pytest.raises(ValueError, match="too large"):
            sphere_decode(r_scale * np.eye(2), y, PamConstellation(2), profile)

    @pytest.mark.parametrize("profile", [None, BlockOrthogonalProfile(2, 1, 1)])
    def test_large_finite_input_decodes(self, profile):
        # just inside the overflow guard the tie rule still applies
        cons = PamConstellation(2, scale=1.0)
        _, stats = sphere_decode(1e150 * np.eye(2), [1e150, -1e150], cons,
                                 profile)
        assert stats.decoded == (1, 0)

    @pytest.mark.parametrize("profile", [None, BlockOrthogonalProfile(2, 1, 1)])
    def test_ill_conditioned_diagonal_slices_to_outer_level(self, profile):
        # t / r[0,0] overflows to inf; the slicer clamps it to the top level
        cons = PamConstellation(2, scale=1.0)
        _, stats = sphere_decode(np.diag([1e-300, 1.0]), [1e10, -1.0], cons,
                                 profile)
        assert stats.decoded == (1, 0)

    @pytest.mark.parametrize("profile", [None, BlockOrthogonalProfile(2, 1, 1)])
    def test_uninvertible_diagonal_rejected(self, profile):
        with pytest.raises(ValueError, match="too small to invert"):
            sphere_decode(np.diag([5e-324, 1.0]), [0.0, 0.0],
                          PamConstellation(2), profile)

    @pytest.mark.parametrize("offenders, named", [
        ({(5, 6): 0.5, (1, 2): 0.25, (0, 3): -0.125}, "r[0,3] = -1.250e-01"),
        ({(5, 6): 0.5, (1, 3): 0.25}, "r[1,3] = 2.500e-01"),
        ({(4, 7): 2.0}, "r[4,7] = 2.000e+00"),
    ])
    def test_invalid_profile_names_first_offender(self, rng, offenders, named):
        prof = BlockOrthogonalProfile(2, 2, 2)
        r = patterned_r(rng, prof)
        for pos, value in offenders.items():
            r[pos] = value
        with pytest.raises(InvalidProfile,
                           match=f"^{re.escape(named)} should be structurally zero$"):
            sphere_decode(r, np.zeros(8), PamConstellation(2), prof)

    @pytest.mark.parametrize("profile", [None, BlockOrthogonalProfile(2, 2, 1)])
    def test_triangularity_and_diagonal_checks(self, rng, profile):
        cons = PamConstellation(2)
        r = patterned_r(rng, BlockOrthogonalProfile(2, 2, 1))
        lower = r.copy()
        lower[3, 0] = 1e-3
        with pytest.raises(NotUpperTriangular):
            sphere_decode(lower, np.zeros(4), cons, profile)
        singular = r.copy()
        singular[2, 2] = 0.0
        with pytest.raises(ValueError, match="nonzero diagonal"):
            sphere_decode(singular, np.zeros(4), cons, profile)

    @pytest.mark.parametrize("shape", [(2, 4, 1), (2, 2, 2), (3, 2, 2), (4, 2, 1)])
    def test_walkers_share_immutable_layout(self, rng, shape):
        prof = BlockOrthogonalProfile(*shape)
        k = prof.total
        cons = PamConstellation(2)
        memo = _Walker(prepare(patterned_r(rng, prof), rng.standard_normal(k),
                               cons, prof), True, True)
        base = _Walker(prepare(patterned_r(rng, prof), rng.standard_normal(k),
                               cons, prof), False, True)
        layout = _layout(prof, cons.m)
        assert memo.steps is layout.steps[True]
        assert base.steps is layout.steps[False]
        # reference: the per-level formulas and the structural-zero loop
        blk, gam, m = prof.block_size, prof.gamma, cons.m
        sub_end = [(c // blk) * blk + ((c % blk) // gam + 1) * gam - 1
                   for c in range(k)]
        for memoize, steps in ((False, base.steps), (True, memo.steps)):
            want = []
            for c in range(k):
                start = (c // blk) * blk
                src = start + blk
                cacheable = c >= blk and (c % blk) // gam < prof.k - 1
                want.append((src, sub_end[c],
                             memoize and cacheable,
                             memoize and prof.k > 1 and c + 1 == src,
                             2 * ((sub_end[c] if memoize else src - 1) - c) + 3 * m,
                             1 + 2 * start, c == blk))
            assert steps == tuple(want), memoize
        zero_cut = np.ones((k, k))
        for c in range(k):
            zero_cut[c, :c] = 0.0
            for j in range(c + 1, (c // blk + 1) * blk):
                if j > sub_end[c]:
                    zero_cut[c, j] = DEFAULT_TOL_REL
        assert np.array_equal(layout.zero_cut, zero_cut)
        with pytest.raises(ValueError):
            layout.zero_cut[0, -1] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            layout.steps = ()
        with pytest.raises(TypeError):
            layout.steps[True][0] = ()


class TestSharedInstance:
    # one validated set-up, built by prepare and handed to any number of
    # decodes of the same (R, y'), must decode as each decode's own would

    @pytest.mark.parametrize("shape", [(2, 2, 1), (2, 4, 2), (3, 2, 2), (1, 4, 1)])
    @pytest.mark.parametrize("prune", [True, False])
    def test_shared_instance_matches_fresh_decodes(self, rng, shape, prune):
        prof = BlockOrthogonalProfile(*shape)
        cons = PamConstellation(4 if prof.total <= 8 else 2)
        for _ in range(5):
            r = patterned_r(rng, prof)
            y = rng.standard_normal(prof.total)
            inst = prepare(r, y, cons, prof)
            for memoize in (False, True):
                shared, fresh = [], []
                got = sphere_decode(r, y, cons, prof, memoize=memoize,
                                    prune=prune, trace=shared, prepared=inst)
                want = sphere_decode(r, y, cons, prof, memoize=memoize,
                                     prune=prune, trace=fresh)
                assert got == want and shared == fresh, memoize

    def test_alternating_pairs(self, rng):
        prof = BlockOrthogonalProfile(2, 4, 2)
        cons = PamConstellation(4)
        pairs = [(patterned_r(rng, prof), rng.standard_normal(16))
                 for _ in range(2)]
        want = [[sphere_decode(r, y, cons, prof, memoize=mz)[1]
                 for mz in (False, True)] for r, y in pairs]
        insts = [prepare(r, y, cons, prof) for r, y in pairs]
        for _ in range(2):
            for (r, y), inst, stats in zip(pairs, insts, want):
                assert [sphere_decode(r, y, cons, prof, memoize=mz,
                                      prepared=inst)[1]
                        for mz in (False, True)] == stats

    def test_plain_then_profiled(self, rng):
        prof = BlockOrthogonalProfile(2, 2, 2)
        cons = PamConstellation(2)
        r = patterned_r(rng, prof)
        y = rng.standard_normal(8)
        plain = prepare(r, y, cons)
        assert plain.profile == BlockOrthogonalProfile(8, 1, 1)
        profiled = prepare(r, y, cons, prof)
        assert (sphere_decode(r, y, cons, prepared=plain)
                == sphere_decode(r, y, cons))
        assert (sphere_decode(r, y, cons, prof, prepared=profiled)
                == sphere_decode(r, y, cons, prof))

    def test_foreign_instance_raises(self, rng):
        prof = BlockOrthogonalProfile(2, 2, 1)
        cons = PamConstellation(2)
        r = patterned_r(rng, prof)
        y = rng.standard_normal(4)
        inst = prepare(r, y, cons, prof)
        foreign = [
            (r.copy(), y, cons, prof),  # equal values, another object
            (r, y.copy(), cons, prof),
            (r, y, PamConstellation(4), prof),
            (r, y, cons, BlockOrthogonalProfile(1, 4, 1)),
            (r, y, cons, None),
        ]
        for args in foreign:
            with pytest.raises(ValueError, match="prepared instance was built"):
                sphere_decode(*args, prepared=inst)
        # an equal profile and constellation are the same ones
        assert (sphere_decode(r, y, PamConstellation(2),
                              BlockOrthogonalProfile(2, 2, 1), prepared=inst)
                == sphere_decode(r, y, cons, prof))

    def test_r_mutated_in_place(self, rng):
        prof = BlockOrthogonalProfile(2, 2, 1)
        cons = PamConstellation(2)
        r = patterned_r(rng, prof)
        y = rng.standard_normal(4)
        inst = prepare(r, y, cons, prof)
        before = sphere_decode(r, y, cons, prof)
        with pytest.raises(AttributeError):
            inst.rows = ()
        assert isinstance(inst.rows[0], tuple)
        r[0, 2] += 5.0
        # the instance is a snapshot of the values it was built from; a
        # decode without one sees the change
        assert sphere_decode(r, y, cons, prof, prepared=inst) == before
        after = sphere_decode(r, y, cons, prof)
        assert after != before
        assert after == sphere_decode(r, y, cons, prof,
                                      prepared=prepare(r, y, cons, prof))

    @pytest.mark.parametrize("entry, error", [
        (((1, 3), np.nan), "must be finite"),
        (((0, 3), 0.5), "should be structurally zero"),
        (((3, 0), 0.5), "below the diagonal"),
        (((2, 2), 0.0), "nonzero diagonal"),
    ])
    def test_bad_r_raises_on_every_call(self, rng, entry, error):
        prof = BlockOrthogonalProfile(2, 2, 2)
        cons = PamConstellation(2)
        r = patterned_r(rng, prof)
        y = rng.standard_normal(8)
        sphere_decode(r, y, cons, prof)  # a valid decode leaves nothing behind
        pos, value = entry
        r[pos] = value
        with pytest.raises(ValueError, match=error):
            prepare(r, y, cons, prof)
        for memoize in (False, True, False):
            with pytest.raises(ValueError, match=error):
                sphere_decode(r, y, cons, prof, memoize=memoize)


class TestSubBlockIndependence:
    def test_toy_edge_metrics_reused_across_sibling(self, rng):
        # 4-symbol toy with two conditioned singleton sub-blocks: the metric
        # vector of the third symbol is the same for both values of the
        # fourth, so the second entry of that level is a pure cache hit
        prof = BlockOrthogonalProfile(2, 2, 1)
        r = patterned_r(rng, prof)
        cons = PamConstellation(2)
        y = rng.standard_normal(4)
        stats, trace = walk_trace(r, y, cons, prof, memoize=True, prune=False)
        assert stats.cache_hits == 1
        # the hit replays the increments and order the baseline recomputes
        assert trace == walk_trace(r, y, cons, prof, memoize=False,
                                   prune=False)[1]

    def test_trace_records_hits(self, rng):
        prof = BlockOrthogonalProfile(2, 2, 1)
        r = patterned_r(rng, prof)
        cons = PamConstellation(2)
        trace = []
        sphere_decode(r, rng.standard_normal(4), cons, prof, prune=False,
                      trace=trace)
        hit_levels = {t["level"] for t in trace if t["cache_hit"]}
        assert hit_levels == {2}
        assert all(set(t) == {"level", "partial_metric", "symbol_index",
                              "cache_hit"} for t in trace)


class _OrdersThatTurn:
    """Candidate-order table that answers truly ``n`` times, then reversed."""

    def __init__(self, orders, n):
        self.orders, self.n, self.calls = orders, n, 0

    def __getitem__(self, j):
        self.calls += 1
        order = self.orders[j]
        return order if self.calls <= self.n else order[::-1]


class TestCandidateOrder:
    # the walker takes the Schnorr-Euchner order from a table, sorting only
    # where rounding could decide it; the oracle is the sort it replaces

    @staticmethod
    def walk_and_sort(cons, rdd, pos):
        # the walker's order at level 1 and the (inc, a) sort there: in plain
        # decoding of two symbols level 1 is the one conditioned level, and
        # with pruning off all M candidates are visited in order
        t = rdd * (cons.levels[0] + pos * (cons.levels[1] - cons.levels[0]))
        trace = []
        sphere_decode(np.array([[1.0, 0.5], [0.0, rdd]]), [0.0, t], cons,
                      prune=False, trace=trace)
        inc = [(t - rdd * lev) * (t - rdd * lev) for lev in cons.levels]
        return ([rec["symbol_index"] for rec in trace],
                sorted(range(cons.m), key=lambda a: (inc[a], a)))

    @pytest.mark.parametrize("m", [2, 4, 8])
    @pytest.mark.parametrize("scale", [1.0, None])
    @pytest.mark.parametrize("rdd", [1.0, -1.0, 0.7])
    def test_at_and_around_every_half_level(self, m, scale, rdd):
        # unit-scale levels put pos = h / 2 on exact ties
        cons = PamConstellation(m, scale)
        for h in range(-2, 4 * m + 1):
            for step in (0.0, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5):
                for pos in (h / 2 - step, h / 2 + step):
                    got, want = self.walk_and_sort(cons, rdd, pos)
                    assert got == want, (h, pos)

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_far_positions(self, m):
        # beyond 1e100 spacings the diagonal must shrink to keep the metric
        # finite, so the far positions also cover tiny diagonals
        cons = PamConstellation(m)
        for k in range(0, 301, 5):
            rdd = 1.0 if k <= 100 else 10.0 ** (100 - k)
            for pos in (10.0 ** k, -10.0 ** k, 10.0 ** k + 0.5):
                got, want = self.walk_and_sort(cons, rdd, pos)
                assert got == want, pos

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_underflowing_increments(self, m):
        # every squared increment underflows to 0, which ties by index
        cons = PamConstellation(m)
        for pos in (-1.3, 0.2, 1.7, m - 1.2, m + 3.3):
            got, want = self.walk_and_sort(cons, 1e-170, pos)
            assert want == list(range(m))
            assert got == want, pos

    def test_hit_replays_stored_order(self, rng):
        # level 3 and the stored entry of level 2 read the table, then it
        # turns: the hit on level 2 must replay the stored order
        prof = BlockOrthogonalProfile(2, 2, 1)
        cons = PamConstellation(2)
        trace = []
        walker = _Walker(prepare(patterned_r(rng, prof), rng.standard_normal(4),
                                 cons, prof), True, False, trace=trace)
        walker.orders = _OrdersThatTurn(walker.orders, 2)
        assert walker.run().cache_hits == 1
        visits = [rec["symbol_index"] for rec in trace if rec["level"] == 2]
        assert len(visits) == 4 and visits[:2] == visits[2:]
        assert walker.orders.calls == 2


def _patterned_instances(rng, prof, m, n):
    """``n`` seeded patterned instances of ``prof`` at ``m`` levels."""
    cons = PamConstellation(m)
    for _ in range(n):
        r = patterned_r(rng, prof)
        x = np.asarray(cons.levels)[rng.integers(0, m, prof.total)]
        y = r @ x + rng.standard_normal(prof.total)
        yield r, y, cons, prof


def _fingerprint_corpus():
    """Seeded patterned instances over every multi-block profile with
    Gamma 2-4, k 1-3, gamma 1-2 and at most 12 symbols, at M = 2 and 4."""
    rng = np.random.default_rng(20261)
    for shape in itertools.product((2, 3, 4), (1, 2, 3), (1, 2)):
        prof = BlockOrthogonalProfile(*shape)
        if prof.total > 12:
            continue
        for m in (2, 4):
            yield from _patterned_instances(rng, prof, m, 10)


def _wide_fingerprint_corpus():
    """Shapes the first corpus misses: ci-a2's (2, 4, 2) at M = 4, whose
    leading block holds four gamma = 2 sub-blocks, and the gamma = 3
    profiles (2, 1, 3) and (2, 2, 3) at M = 2."""
    rng = np.random.default_rng(20269)
    for shape, m in (((2, 4, 2), 4), ((2, 1, 3), 2), ((2, 2, 3), 2)):
        yield from _patterned_instances(rng, BlockOrthogonalProfile(*shape),
                                        m, 20)


def _single_block_corpus():
    """Seeded patterned instances over every single-block profile
    (1, k, gamma) with k 1-4 and gamma 1-3, at M = 2 and 4."""
    rng = np.random.default_rng(20273)
    for k, gam in itertools.product((1, 2, 3, 4), (1, 2, 3)):
        for m in (2, 4):
            yield from _patterned_instances(
                rng, BlockOrthogonalProfile(1, k, gam), m, 10)


def _accumulate(acc, s):
    for i, v in enumerate((s.em_evaluations, s.flops, s.nodes_visited,
                           s.cache_hits, s.cache_entries_peak)):
        acc[i] += v


def _counter_totals(corpus):
    """(em, flops, nodes, hits, summed cache peak) per decoder over
    ``corpus``."""
    totals = {memoize: [0] * 5 for memoize in (False, True)}
    for r, y, cons, prof in corpus:
        for memoize, acc in totals.items():
            _accumulate(acc, sphere_decode(r, y, cons, prof,
                                           memoize=memoize)[1])
    return {mz: tuple(acc) for mz, acc in totals.items()}


def _mode_totals(corpus):
    """The same totals per (mode, prune) for baseline, memoized and plain
    decoding, pruned and full-tree; full-tree plain decoding runs only where
    its grid has at most 4096 points."""
    totals = {}
    for r, y, cons, prof in corpus:
        for mode, prune in itertools.product(("baseline", "memoized", "plain"),
                                             (True, False)):
            if mode == "plain" and not prune and cons.m ** prof.total > 4096:
                continue
            _, s = sphere_decode(r, y, cons, None if mode == "plain" else prof,
                                 memoize=mode == "memoized", prune=prune)
            _accumulate(totals.setdefault((mode, prune), [0] * 5), s)
    return {key: tuple(acc) for key, acc in totals.items()}


class TestCounterFingerprint:
    # (em, flops, nodes, hits, summed cache peak) over the whole corpus, per
    # decoder; any change to the walk order, pruning, pricing or caching
    # moves at least one of them
    EXPECTED = {
        False: (32444, 467447, 30565, 0, 0),
        True: (16624, 390187, 30565, 4123, 2014),
    }
    EXPECTED_WIDE = {
        False: (51314, 1516531, 92187, 0, 0),
        True: (1800, 1214087, 92187, 12478, 1164),
    }
    # one block: nothing is conditioned, cached or pruned, so baseline and
    # memoized decoding count the same, pruned or not; plain decoding walks
    # the same R as the trivial profile
    EXPECTED_SINGLE = {
        ("baseline", True): (0, 51600, 2800, 0, 0),
        ("baseline", False): (0, 51600, 2800, 0, 0),
        ("memoized", True): (0, 51600, 2800, 0, 0),
        ("memoized", False): (0, 51600, 2800, 0, 0),
        ("plain", True): (13474, 83401, 4676, 0, 0),
        ("plain", False): (79700, 927780, 127120, 0, 0),
    }

    def test_corpus_totals_are_pinned(self):
        assert _counter_totals(_fingerprint_corpus()) == self.EXPECTED

    def test_wide_corpus_totals_are_pinned(self):
        assert _counter_totals(_wide_fingerprint_corpus()) == self.EXPECTED_WIDE

    def test_single_block_corpus_totals_are_pinned(self):
        assert _mode_totals(_single_block_corpus()) == self.EXPECTED_SINGLE

    @pytest.mark.parametrize("prune", [True, False])
    def test_memoized_walk_replays_the_baseline_walk(self, prune):
        # every replayed increment and order shows in the trace, all of them
        # with pruning off; full trees of more than 4096 leaves are skipped
        # to keep the test quick
        checked = 0
        for corpus in (_fingerprint_corpus, _wide_fingerprint_corpus):
            for r, y, cons, prof in corpus():
                if not prune and cons.m ** (prof.total - prof.block_size) > 4096:
                    continue
                base = walk_trace(r, y, cons, prof, memoize=False, prune=prune)
                memo = walk_trace(r, y, cons, prof, memoize=True, prune=prune)
                assert memo[1] == base[1], (prof, cons.m)
                assert memo[0].decoded == base[0].decoded
                checked += 1
        assert checked == (360 if prune else 320)

    @pytest.mark.parametrize("shape", [(3, 2, 1), (3, 2, 2)])
    def test_no_stale_table_across_block_reentry(self, rng, shape):
        # Gamma = 3 re-enters block 1 once per symbol combination of block
        # 2; a hit that replays an old conditioning moves a partial metric
        # or an order off the baseline walk's
        prof = BlockOrthogonalProfile(*shape)
        cons = PamConstellation(2)
        r = patterned_r(rng, prof)
        y = rng.standard_normal(prof.total)
        stats, trace = walk_trace(r, y, cons, prof, memoize=True, prune=False)
        assert trace == walk_trace(r, y, cons, prof, memoize=False,
                                   prune=False)[1]
        bounds = em_count_bounds(prof, 2)
        assert stats.cache_hits > 0
        assert stats.em_evaluations == bounds.o_bostbc
        assert stats.cache_entries_peak == bounds.mem_entries


class TestAgainstExhaustive:
    def test_random_instances_k8(self, rng):
        # synthetic patterned R doubles as the equivalent channel
        prof = BlockOrthogonalProfile(2, 4, 1)
        cons = PamConstellation(4)
        for _ in range(100):
            r = patterned_r(rng, prof)
            y = 2.0 * rng.standard_normal(8)
            oracle = exhaustive_ml(r, y, cons)
            base, _ = sphere_decode(r, y, cons, prof, memoize=False)
            memo, _ = sphere_decode(r, y, cons, prof, memoize=True)
            assert np.array_equal(base, oracle)
            assert np.array_equal(memo, oracle)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(data=st.data())
    def test_every_mode_matches_oracle_on_exact_ties(self, data):
        # integer R and y at unit scale put many candidates at exactly the
        # same metric, so this pins the lexicographic tie rule of the one
        # walk in plain, baseline and memoized mode
        m = data.draw(st.sampled_from([2, 4]), label="m")
        shape = data.draw(st.tuples(st.integers(1, 3), st.integers(1, 3),
                                    st.integers(1, 3))
                          .filter(lambda p: m ** (p[0] * p[1] * p[2]) <= 4096),
                          label="profile")
        prof = BlockOrthogonalProfile(*shape)
        k = prof.total
        entries = data.draw(st.lists(st.integers(-2, 2), min_size=k * k,
                                     max_size=k * k), label="r")
        y = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=k,
                                        max_size=k), label="y"), dtype=float)
        r = np.zeros((k, k))
        r[np.triu_indices(k)] = np.asarray(entries, dtype=float).reshape(k, k)[
            np.triu_indices(k)]
        r *= patterned_r(np.random.default_rng(0), prof) != 0
        r[np.diag_indices(k)] = np.maximum(np.abs(np.diag(r)), 1.0)
        cons = PamConstellation(m, scale=1.0)
        want = exhaustive_ml(r, y, cons)
        for profile, memoize in ((None, None), (prof, False), (prof, True)):
            got, _ = sphere_decode(r, y, cons, profile, memoize=memoize)
            assert np.array_equal(got, want), (profile, memoize)

    def test_plain_mode_matches(self, rng):
        cons = PamConstellation(2)
        for _ in range(50):
            r = np.triu(rng.standard_normal((4, 4))) + 2 * np.eye(4)
            y = rng.standard_normal(4)
            plain, stats = sphere_decode(r, y, cons)
            assert np.array_equal(plain, exhaustive_ml(r, y, cons))
            # the trivial profile caches nothing, so memoize changes nothing
            assert sphere_decode(r, y, cons, memoize=False)[1] == stats

    def test_multi_block_code(self, rng):
        code = golden_code()
        prof = BlockOrthogonalProfile(4, 2, 1)
        cons = PamConstellation(2)
        for _ in range(50):
            h_eq, y, qr, y_prime, _ = decode_instance(code, cons, 0.3, rng)
            oracle = exhaustive_ml(h_eq, y, cons)
            memo, stats = sphere_decode(qr.r, y_prime, cons, prof)
            assert np.array_equal(memo, oracle)
            assert stats.cache_entries_peak <= em_count_bounds(prof, 2).mem_entries


class TestExhaustive:
    def test_single_symbol(self):
        cons = PamConstellation(2, scale=1.0)
        assert exhaustive_ml(np.eye(1), [0.4], cons)[0] == 1.0
        assert exhaustive_ml(np.eye(1), [-0.1], cons)[0] == -1.0

    def test_zero_noise_recovery(self, rng):
        code = bhv_code()
        cons = PamConstellation(2)
        h = random_channel(2, 2, rng)
        h_eq = equivalent_channel(code, h)
        x = np.asarray(cons.levels)[rng.integers(0, 2, 8)]
        assert np.array_equal(exhaustive_ml(h_eq, h_eq @ x, cons), x)

    @pytest.mark.parametrize("arg", ["h_eq", "y"])
    def test_complex_rejected(self, arg):
        h_eq, y = np.eye(2), np.zeros(2)
        if arg == "h_eq":
            h_eq = h_eq + 0.5j * np.eye(2)
        else:
            y = y + 0.5j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{arg} must be real"):
                exhaustive_ml(h_eq, y, PamConstellation(2))

    def test_grid_guard(self):
        cons = PamConstellation(8)
        with pytest.raises(TooLarge):
            exhaustive_ml(np.eye(8), np.zeros(8), cons)

    @pytest.mark.parametrize("h_eq, y, error", [
        (np.eye(2), [np.nan, 1.0], "h_eq and y must be finite"),
        (np.eye(2), [1.0, np.inf], "h_eq and y must be finite"),
        ([[1.0, -np.inf], [0.0, 1.0]], [1.0, 1.0], "h_eq and y must be finite"),
        (np.eye(2), [1.0, 2.0, 3.0], "y has 3 entries, h_eq has 2 rows"),
        (np.eye(3)[:, :2], [1.0, 2.0], "y has 2 entries, h_eq has 3 rows"),
        (np.zeros((0, 0)), [], r"non-empty 2-D matrix, got shape \(0, 0\)"),
        (np.zeros((2, 0)), [1.0, 2.0], r"non-empty 2-D matrix, got shape \(2, 0\)"),
        (np.ones(2), [1.0, 2.0], r"non-empty 2-D matrix, got shape \(2,\)"),
        (1e200 * np.eye(2), [1e200, 1e200], "the metric overflows"),
    ], ids=["nan-y", "inf-y", "inf-h_eq", "long-y", "short-y", "empty",
            "no-columns", "1-d", "overflow"])
    def test_bad_input_rejected(self, h_eq, y, error):
        with pytest.raises(ValueError, match=error):
            exhaustive_ml(h_eq, y, PamConstellation(2))


class TestFullTreeCounts:
    @pytest.mark.parametrize("profile,m,expected_ratio", [
        ((2, 2, 1), 2, Fraction(2, 3)),
        ((2, 4, 1), 4, Fraction(12, 255)),
        ((2, 2, 2), 2, Fraction(2, 5)),
    ])
    def test_em_ratios_match_closed_forms(self, rng, profile, m, expected_ratio):
        prof = BlockOrthogonalProfile(*profile)
        cons = PamConstellation(m)
        r = patterned_r(rng, prof)
        y = rng.standard_normal(prof.total)
        base = sphere_decode(r, y, cons, prof, memoize=False, prune=False)[1]
        memo = sphere_decode(r, y, cons, prof, memoize=True, prune=False)[1]
        bounds = em_count_bounds(prof, m)
        assert base.em_evaluations == bounds.o_stbc
        assert memo.em_evaluations == bounds.o_bostbc
        assert Fraction(memo.em_evaluations, base.em_evaluations) == expected_ratio
        assert memo.cache_entries_peak == bounds.mem_entries
        assert base.decoded == memo.decoded

    def test_three_block_counts(self, rng):
        # Gamma > 2 exercises cache invalidation and the conditional reuse
        prof = BlockOrthogonalProfile(3, 2, 1)
        cons = PamConstellation(2)
        r = patterned_r(rng, prof)
        y = rng.standard_normal(6)
        base = sphere_decode(r, y, cons, prof, memoize=False, prune=False)[1]
        memo = sphere_decode(r, y, cons, prof, memoize=True, prune=False)[1]
        bounds = em_count_bounds(prof, 2)
        assert base.em_evaluations == bounds.o_stbc
        assert memo.em_evaluations == bounds.o_bostbc
        assert memo.cache_entries_peak == bounds.mem_entries
        assert base.decoded == memo.decoded

    def test_guard(self):
        # plain decoding of 16 symbols would walk 8^15 leaves; the guard
        # runs before set-up, so it refuses even an r set-up would reject
        cons = PamConstellation(8)
        with pytest.raises(TooLarge, match=r"^full tree has 8\^15 leaves$"):
            sphere_decode(np.eye(16), np.zeros(16), cons, prune=False)
        with pytest.raises(TooLarge, match=r"^full tree has 8\^7 leaves$"):
            sphere_decode(np.full((8, 8), np.nan), np.zeros(8), cons,
                          prune=False)

    @pytest.mark.parametrize("shape, flops, nodes", [
        # a singleton: slice 3, residual 2, square 1, add to the sum 1
        ((1, 3, 1), 3 * 7, 3),
        # a gamma = 2 sub-block: 4 per value of the trailing symbol, 9 more
        # to slice the top one given it, 1 to add the sub-block's minimum
        ((1, 2, 2), 2 * (4 * (4 + 9) + 1), 2 * 4),
    ])
    def test_single_block_counts(self, rng, shape, flops, nodes):
        # with one block nothing is conditioned, cached or pruned
        prof = BlockOrthogonalProfile(*shape)
        cons = PamConstellation(4)
        r = patterned_r(rng, prof)
        y = rng.standard_normal(prof.total)
        for memoize in (False, True):
            got, stats = sphere_decode(r, y, cons, prof, memoize=memoize)
            assert (stats.em_evaluations, stats.flops, stats.nodes_visited,
                    stats.cache_hits) == (0, flops, nodes, 0)
            assert np.array_equal(got, exhaustive_ml(r, y, cons))


class TestPruningSafety:
    def test_pruning_preserves_argmin(self, rng):
        prof = BlockOrthogonalProfile(2, 2, 2)
        cons = PamConstellation(2)
        for _ in range(30):
            r = patterned_r(rng, prof)
            y = 1.5 * rng.standard_normal(8)
            pruned, st_p = sphere_decode(r, y, cons, prof)
            full, st_f = sphere_decode(r, y, cons, prof, prune=False)
            assert pruned == full
            assert st_p.nodes_visited <= st_f.nodes_visited

    def test_flops_track_em_work(self, rng):
        prof = BlockOrthogonalProfile(2, 4, 1)
        cons = PamConstellation(4)
        r = patterned_r(rng, prof)
        y = rng.standard_normal(8)
        _, stats = sphere_decode(r, y, cons, prof, memoize=False)
        assert stats.flops >= 3 * stats.em_evaluations


class TestBoundCalculators:
    def test_em_count_bounds_examples(self):
        b = em_count_bounds(BlockOrthogonalProfile(2, 2, 1), 2)
        assert b.emrr == Fraction(2, 3)
        b = em_count_bounds(BlockOrthogonalProfile(2, 4, 1), 4)
        assert b.emrr == Fraction(12, 255)
        assert b.mem_entries == 12
        b = em_count_bounds(BlockOrthogonalProfile(2, 4, 2), 4)
        assert b.mem_entries == 60

    def test_large_constellation_uses_exact_integers(self):
        b = em_count_bounds(BlockOrthogonalProfile(2, 4, 2), 64)
        assert b.o_stbc == sum(64 ** d for d in range(1, 9))
        assert b.emrr == Fraction(4 * (64 ** 2 - 1), 64 ** 8 - 1)

    def test_single_block_profile_rejected(self):
        with pytest.raises(ValueError):
            em_count_bounds(BlockOrthogonalProfile(1, 4, 1), 2)

    def test_qrdm_bound_values(self):
        assert qrdm_bound(4, 1, 4) == Fraction(1, 3)
        assert qrdm_bound(1, 1, 2) == Fraction(2, 1)
        assert qrdm_bound(2, 2, 4) == Fraction(16, 30)

    def test_qrdm_bound_validation(self):
        with pytest.raises(ValueError):
            qrdm_bound(0, 1, 2)

    @pytest.mark.parametrize("m, named", [
        (1, "need at least two points per real dimension"),
        (2.5, "m = 2.5 must be an integer"),
        (True, "m = True must be an integer"),
    ])
    def test_em_count_bounds_rejects_bad_m(self, m, named):
        with pytest.raises(ValueError, match=f"^{named}$"):
            em_count_bounds(BlockOrthogonalProfile(2, 2, 1), m)

    @pytest.mark.parametrize("args", [(2, 1, 2.5), (2.0, 1, 2), (2, True, 2)])
    def test_qrdm_bound_rejects_non_integers(self, args):
        with pytest.raises(ValueError, match="must be integers$"):
            qrdm_bound(*args)

    def test_numpy_integers_count_exactly(self):
        # numpy's int64 would wrap at 64^11; the bounds compute in Python ints
        prof = BlockOrthogonalProfile(4, 4, 1)
        assert em_count_bounds(prof, np.int64(64)) == em_count_bounds(prof, 64)
        assert qrdm_bound(*np.array([4, 2, 64])) == qrdm_bound(4, 2, 64)


class TestNamedCodeDecodes:
    @pytest.mark.parametrize("name", ["golden", "bhv", "srinath-rajan",
                                      "ciii-golden", "cda-2x2"])
    def test_modes_agree_with_oracle(self, rng, name):
        code = named_code(name)
        prof = BlockOrthogonalProfile(*code.declared_profile)
        cons = PamConstellation(2)
        for _ in range(40):
            h_eq, y, qr, y_prime, _ = decode_instance(code, cons, 0.5, rng)
            oracle = exhaustive_ml(h_eq, y, cons)
            base, sb = sphere_decode(qr.r, y_prime, cons, prof, memoize=False)
            memo, sm = sphere_decode(qr.r, y_prime, cons, prof, memoize=True)
            assert np.array_equal(base, oracle)
            assert np.array_equal(memo, oracle)
            assert sb.decoded == sm.decoded
