"""Tests for the sphere decoder, the exhaustive oracle and the bound math."""

import functools
import hashlib
import io
import itertools
import re
import tokenize
import tracemalloc
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bostbc import decoder
from bostbc.codes import CODE_NAMES, bhv_code, golden_code, named_code
from bostbc.decoder import (
    MAX_GRID,
    InvalidProfile,
    NotUpperTriangular,
    PamConstellation,
    TooLarge,
    _walk,
    _walk_source,
    _zero_cut,
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

    @pytest.mark.parametrize("m, scale", [
        (8, 1e308),  # levels[0] = -inf
        (8, 1e154),  # finite levels, an infinite energy
        (2, 1e-170),  # the energy underflows to 0.0: every trial noise-free
        (2, -1e-170),
    ])
    def test_rejects_scale_out_of_float_range(self, m, scale):
        # each used to pass: an infinite level failed every trial as an SNR
        # error, a zero energy made every noise variance 0.0
        with pytest.raises(ValueError, match=f"^scale = {re.escape(repr(scale))}"
                                             " puts a level or the energy per "
                                             "symbol out of float range$"):
            PamConstellation(m, scale)

    @pytest.mark.parametrize("scale", [[1], "1", True, 1j])
    def test_rejects_scale_that_is_not_a_real_number(self, scale):
        # each used to raise TypeError from float(), or pass as 1.0
        with pytest.raises(ValueError, match=r"^scale = .* must be a real "
                                             r"number$"):
            PamConstellation(2, scale=scale)

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

    @pytest.mark.parametrize("setup", [sphere_decode, prepare])
    @pytest.mark.parametrize("faults, scale, error, message", [
        ({(3, 0): 1e-3}, 1.0, NotUpperTriangular,
         "^r has entries below the diagonal$"),
        ({(2, 2): 0.0}, 1.0, ValueError,
         r"^r must have a nonzero diagonal \(full rank\)$"),
        ({(2, 2): 1e-320}, 1.0, ValueError,
         "^r has a diagonal entry too small to invert$"),
        ({}, 1e200, ValueError,
         "^r and y' are too large: the metric overflows$"),
    ])
    def test_second_fault_outranks_a_structural_zero(
            self, rng, setup, faults, scale, error, message):
        # r[0,1] is a structural zero of (2, 2, 1); every other check of R
        # comes before the one that names it
        prof = BlockOrthogonalProfile(2, 2, 1)
        r = patterned_r(rng, prof, scale)
        r[0, 1] = 0.5 * scale
        for pos, value in faults.items():
            r[pos] = value
        with pytest.raises(error, match=message):
            setup(r, np.zeros(4), PamConstellation(2), prof)

    @pytest.mark.parametrize("setup", [sphere_decode, prepare])
    @pytest.mark.parametrize("profile, named", [
        (named_code("bhv").declared_profile, "tuple"), ("2,4,1", "str")])
    def test_profile_of_another_type_rejected(self, setup, profile, named):
        # a declared profile is a tuple; it is refused before any set-up
        with pytest.raises(ValueError, match="^profile must be a "
                           f"BlockOrthogonalProfile or None, got a {named}$"):
            setup(np.eye(8), np.zeros(8), PamConstellation(2), profile)

    @pytest.mark.parametrize("shape", [(2, 4, 1), (2, 2, 2), (3, 2, 2), (4, 2, 1)])
    def test_walkers_share_immutable_layout(self, rng, shape):
        prof = BlockOrthogonalProfile(*shape)
        k = prof.total
        cons = PamConstellation(2)
        insts = [prepare(patterned_r(rng, prof), rng.standard_normal(k),
                         cons, prof) for _ in range(2)]
        # one compiled walk per layout key serves every instance of it
        for memoize in (False, True):
            walk = _walk(prof, cons.m, memoize, True, False)
            assert _walk(prof, cons.m, memoize, True, False) is walk
            for inst in insts:
                _, stats = sphere_decode(inst.r, inst.y_prime, cons, prof,
                                         memoize=memoize, prepared=inst)
                assert walk(inst, None) == stats
        # reference: the structural-zero loop; the per-level pricing is
        # checked by the digest counters
        blk, gam = prof.block_size, prof.gamma
        sub_end = [(c // blk) * blk + ((c % blk) // gam + 1) * gam - 1
                   for c in range(k)]
        zero_cut = np.ones((k, k))
        for c in range(k):
            zero_cut[c, :c] = 0.0
            for j in range(c + 1, (c // blk + 1) * blk):
                if j > sub_end[c]:
                    zero_cut[c, j] = DEFAULT_TOL_REL
        assert _zero_cut(prof) is _zero_cut(BlockOrthogonalProfile(*shape))
        assert np.array_equal(_zero_cut(prof), zero_cut)
        with pytest.raises(ValueError):
            _zero_cut(prof)[0, -1] = 1.0


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
    # the walk takes the Schnorr-Euchner order from a table, sorting only
    # where rounding could decide it; the oracle is the sort it replaces

    @staticmethod
    def walk_and_sort(cons, rdd, pos):
        # the walk's order at level 1 and the (inc, a) sort there: in plain
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
        r, y = patterned_r(rng, prof), rng.standard_normal(4)
        walk = _walk(prof, cons.m, True, False, True)
        turning = _OrdersThatTurn(walk.__globals__["ORDERS"], 2)
        turned = types.FunctionType(walk.__code__,
                                    dict(walk.__globals__, ORDERS=turning))
        trace = []
        stats = turned(prepare(r, y, cons, prof), trace)
        assert stats.cache_hits == 1
        visits = [rec["symbol_index"] for rec in trace if rec["level"] == 2]
        assert len(visits) == 4 and visits[:2] == visits[2:]
        assert turning.calls == 2


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


#: Full trees of more than this many leaves are left out of the digests, to
#: keep them quick; ``MAX_GRID`` itself is far larger.
_DIGEST_LEAVES = 4096

#: Shapes built with ``patterned_r`` whose leading sub-blocks hold two, three
#: or four symbols, decoded at M = 2 and 4, and the gamma = 2 ones at M = 8
#: too.  No shipped code has these gamma = 2 shapes.
_DIGEST_SHAPES = ((1, 2, 2), (1, 3, 2), (2, 1, 2), (3, 2, 2),
                  (2, 1, 3), (2, 2, 3), (3, 1, 3), (1, 2, 3),
                  (2, 1, 4), (1, 2, 4), (2, 2, 4))


def _digest_corpus(group):
    """The seeded ``(r, y', cons, profile)`` instances of one digest group:
    ``code:NAME`` (the code's declared profile at M = 2 and 4), ``plain:M``
    (cda-2x2 and bhv channels decoded without a profile) or ``gamma:G``
    (the ``_DIGEST_SHAPES`` with gamma = G)."""
    kind, _, arg = group.partition(":")
    rng = np.random.default_rng([20293, sum(map(ord, group))])
    if kind == "code":
        code = named_code(arg)
        prof = BlockOrthogonalProfile(*code.declared_profile)
        for m in (2, 4):
            cons = PamConstellation(m)
            for _ in range(3):
                _, _, qr, y_prime, _ = decode_instance(code, cons, 0.3, rng)
                yield qr.r, y_prime, cons, prof
    elif kind == "plain":
        cons = PamConstellation(int(arg))
        for name in ("cda-2x2", "bhv"):
            for _ in range(3):
                _, _, qr, y_prime, _ = decode_instance(named_code(name), cons,
                                                       0.3, rng)
                yield qr.r, y_prime, cons, None
    else:
        for shape in _DIGEST_SHAPES:
            if shape[2] == int(arg):
                for m in (2, 4, 8) if shape[2] == 2 else (2, 4):
                    yield from _patterned_instances(
                        rng, BlockOrthogonalProfile(*shape), m, 3)


def _walk_digest(corpus):
    """``(decodes, digest)`` over every ``DecoderStats`` field, ``best_metric``
    by its bits, and every trace record, key order included, of each
    instance decoded baseline and memoized, pruned and full-tree (up to
    ``_DIGEST_LEAVES`` leaves), untraced and traced."""
    h = hashlib.sha256()
    decodes = 0
    for r, y, cons, prof in corpus:
        k = np.size(y)
        depth = k - (prof.block_size if prof else 1)
        for memoize, prune, traced in itertools.product(
                (False, True), (True, False), (False, True)):
            if not prune and cons.m ** depth > _DIGEST_LEAVES:
                continue
            trace = [] if traced else None
            _, s = sphere_decode(r, y, cons, prof, memoize=memoize,
                                 prune=prune, trace=trace)
            h.update(repr((memoize, prune, traced, s.em_evaluations,
                           s.nodes_visited, s.flops, s.cache_hits,
                           s.cache_entries_peak, s.best_metric.hex(),
                           s.decoded)).encode())
            for rec in trace or ():
                h.update(repr([(key, v.hex() if type(v) is float else v)
                               for key, v in rec.items()]).encode())
            decodes += 1
    return decodes, h.hexdigest()[:16]


class TestWalkDigest:
    # every counter, every best_metric bit, every decoded index and every
    # trace record of the walk, per group; any change to the walk's
    # arithmetic, order, pruning, pricing, caching or tracing moves one
    EXPECTED = {
        "code:bhv": (48, "ddb896832d2b243f"),
        "code:cda-2x2": (48, "1ec51fcb2ec70c52"),
        "code:ci-a1": (48, "2d6662f96567c8e3"),
        "code:ci-a2": (36, "3014c90d20e09cb5"),
        "code:cii-golden": (48, "164953d27e6d3271"),
        "code:ciii-golden": (48, "7ca6a6245c32266f"),
        "code:civ-a1": (48, "88ba3896f8f3a9ca"),
        "code:civ-a2": (36, "c64a06f5e9a1b734"),
        "code:golden": (48, "98c20245db9dd080"),
        "code:golden-222": (48, "f24f8124609232be"),
        "code:srinath-rajan": (48, "416500750cf27707"),
        "gamma:2": (264, "39e772f3f08e860a"),
        "gamma:3": (192, "1f0a281dbef98fe5"),
        "gamma:4": (132, "bb47568cbe2b8a18"),
        "plain:2": (48, "2a354566f50da89e"),
        "plain:4": (36, "77a01ba12a7f952b"),
        "plain:8": (36, "60698bbc806e3065"),
    }

    @pytest.mark.parametrize("group", sorted(EXPECTED))
    def test_walk_digest_is_pinned(self, group):
        assert _walk_digest(_digest_corpus(group)) == self.EXPECTED[group]

    def test_every_shipped_profile_is_pinned(self):
        declared = {f"code:{name}" for name in CODE_NAMES
                    if named_code(name).declared_profile is not None}
        assert declared | {"plain:2", "plain:4", "plain:8", "gamma:2",
                           "gamma:3", "gamma:4"} == set(self.EXPECTED)


class TestGeneratedWalk:
    # one compiled walk per layout; CPython refuses a 21st statically nested
    # loop in one function, so a walk with more conditioned levels than one
    # function holds chains nested functions

    @pytest.mark.parametrize("shape, m, prune", [
        ((64, 1, 1), 8, True),  # plain decoding of 64 symbols
        ((21, 1, 1), 2, False),  # the deepest plain full tree MAX_GRID allows
        ((2, 10, 2), 2, False),  # a full tree of depth 20, gamma = 2 tails
        ((2, 5, 4), 2, False),  # a full tree of depth 20 and a tail loop
    ])
    def test_deepest_layouts_compile(self, shape, m, prune):
        prof = BlockOrthogonalProfile(*shape)
        depth = prof.total - prof.block_size
        assert prune or m ** depth == MAX_GRID
        for memoize, traced in itertools.product((False, True), repeat=2):
            assert callable(_walk(prof, m, memoize, prune, traced))

    def test_plain_32_symbols_decode_noise_free(self, rng):
        cons = PamConstellation(4)
        r = np.triu(rng.standard_normal((32, 32))) + 2 * np.eye(32)
        idx = rng.integers(0, cons.m, 32)
        symbols, stats = sphere_decode(r, r @ np.asarray(cons.levels)[idx],
                                       cons)
        assert stats.decoded == tuple(idx.tolist())
        assert symbols == tuple(np.asarray(cons.levels)[idx].tolist())

    @pytest.mark.parametrize("per_function", [1, 3])
    @pytest.mark.parametrize("group", ["code:golden", "code:ci-a2",
                                       "plain:2", "gamma:4"])
    def test_chained_walks_match_the_pinned_digests(self, monkeypatch,
                                                    per_function, group):
        # chaining after every level or every third one changes no counter,
        # bit, decoded index or trace record
        monkeypatch.setattr(decoder, "_LEVELS_PER_FUNCTION", per_function)
        _walk.cache_clear()
        try:
            assert "nonlocal" in _walk_source(BlockOrthogonalProfile(4, 2, 1),
                                              2, True, True, False)
            got = _walk_digest(_digest_corpus(group))
        finally:
            _walk.cache_clear()
        assert got == TestWalkDigest.EXPECTED[group]

    @pytest.mark.parametrize("shape, m", [((2, 4, 2), 4), ((4, 2, 1), 8),
                                          ((2, 2, 3), 2), ((1, 4, 1), 2),
                                          ((40, 1, 1), 8)])
    def test_source_holds_no_floats(self, shape, m):
        # every float reaches the walk from the instance it decodes
        prof = BlockOrthogonalProfile(*shape)
        for flags in itertools.product((False, True), repeat=3):
            source = _walk_source(prof, m, *flags)
            numbers = [tok.string for tok in tokenize.generate_tokens(
                io.StringIO(source).readline) if tok.type == tokenize.NUMBER]
            assert numbers and all(map(str.isdigit, numbers)), flags

    def test_r_is_read_only_through_rows(self):
        # every entry of R a walk reads, and no other, is bound once, by a
        # slice of inst.rows, before the walk proper starts at `best = inf`;
        # the layouts are TestWalkDigest's and test_deepest_layouts_compile's
        layouts = {(prof or BlockOrthogonalProfile(np.size(y), 1, 1), cons.m)
                   for group in TestWalkDigest.EXPECTED
                   for _, y, cons, prof in _digest_corpus(group)}
        layouts |= {(BlockOrthogonalProfile(*shape), m) for shape, m in (
            ((64, 1, 1), 8), ((21, 1, 1), 2), ((2, 10, 2), 2), ((2, 5, 4), 2))}
        entry = re.compile(r"\br\d+_\d+\b")
        bind = re.compile(r"    \[(r\d+_\d+(?:, r\d+_\d+)*)\] = "
                          r"rows\[\d+\]\[\d+:\d+\]")
        for (prof, m), flags in itertools.product(
                layouts, itertools.product((False, True), repeat=3)):
            source = _walk_source(prof, m, *flags)
            assert "cols" not in source
            prologue, _, walk = source.partition("\n    best = inf\n")
            assert walk, (prof, m, flags)
            bound = []
            for line in prologue.splitlines():
                if entry.search(line):
                    match = bind.fullmatch(line)
                    assert match, (prof, m, flags, line)
                    bound += match[1].split(", ")
            assert len(bound) == len(set(bound)), (prof, m, flags)
            # r[c,c] reaches the walk only through inst.diag_levels
            assert not re.search(r"\br(\d+)_\1\b", source), (prof, m, flags)
            # in the walk proper an entry is only ever read, never assigned
            assert not any(entry.search(line.partition(" = ")[0])
                           for line in walk.splitlines() if " = " in line)
            assert set(entry.findall(walk)) == set(bound), (prof, m, flags)

    def test_every_conditioned_level_cancels_alike(self):
        # the last conditioned level, like every other, cancels its symbol
        # from all the rows above its block, as the FLOP count charges it,
        # and the leading block reads only the offsets that level writes (a
        # single-block walk's are the empty prefix's)
        layouts = {(prof or BlockOrthogonalProfile(np.size(y), 1, 1), cons.m)
                   for group in TestWalkDigest.EXPECTED
                   for _, y, cons, prof in _digest_corpus(group)}
        assert any(prof.gamma_blocks == 1 for prof, _ in layouts)
        assert any(prof.gamma > 1 for prof, _ in layouts)
        assigns = re.compile(r" *o\d+_\d+ = ")
        offset = re.compile(r"\bo(\d+)_(\d+)\b")
        for (prof, m), flags in itertools.product(
                layouts, itertools.product((False, True), repeat=3)):
            source = _walk_source(prof, m, *flags)
            blk = prof.block_size
            assert not re.search(r"\bu\d+\b", source), (prof, m, flags)
            if prof.gamma_blocks > 1:
                for i in range(blk):
                    cancel = f"o{i}_{blk + 1} - r{i}_{blk} * x{blk}"
                    assert [line.strip() for line in source.splitlines()
                            if cancel in line] == [f"o{i}_{blk} = {cancel}"]
            walk = source.partition("\n    best = inf\n")[2].splitlines()
            last = max((n for n, line in enumerate(walk)
                        if assigns.match(line)), default=-1)
            reads = {(int(i), int(col)) for line in walk[last + 1:]
                     for i, col in offset.findall(line)}
            assert reads == {(i, blk) for i in range(blk)}, (prof, m, flags)

    def test_walk_starts_from_the_empty_prefix(self):
        # the prologue binds the empty prefix, so every conditioned level
        # adds to the partial metric above it, a single-block walk's leading
        # block adds to the zero, and no level special-cases the tree's top
        layouts = {(prof or BlockOrthogonalProfile(np.size(y), 1, 1), cons.m)
                   for group in TestWalkDigest.EXPECTED
                   for _, y, cons, prof in _digest_corpus(group)}
        assert any(prof.gamma_blocks == 1 for prof, _ in layouts)
        tot = re.compile(r" tot(\d+) = (.*)")
        for (prof, m), flags in itertools.product(
                layouts, itertools.product((False, True), repeat=3)):
            source = _walk_source(prof, m, *flags)
            k = prof.total
            prologue, _, walk = source.partition("\n    best = inf\n")
            offsets = ", ".join(f"o{i}_{k}" for i in range(k))
            assert f"    [{offsets}] = inst.y\n" in prologue, (prof, m, flags)
            assert f"    tot{k} = _ZERO\n" in prologue, (prof, m, flags)
            assert not re.search(r"\by\d+\b", source), (prof, m, flags)
            levels = [tot.search(line).groups() for line in walk.splitlines()
                      if tot.search(line)]
            assert len(levels) == k - prof.block_size, (prof, m, flags)
            for c, value in levels:
                assert value.startswith(f"tot{int(c) + 1} + "), (prof, m, flags)
            if prof.gamma_blocks == 1:
                first = next(line for line in walk.splitlines()
                             if line.lstrip().startswith("tl = "))
                assert first.lstrip().startswith(f"tl = tot{k} + "), (
                    prof, m, flags)

    def test_leading_block_is_priced_from_its_nodes(self):
        # a gamma = 1 sub-block always costs 1 node and 7 FLOPs, and a gamma
        # > 1 solve M^(gamma - 1) nodes and 1 FLOP, so the return prices the
        # leading block from its node count and the block charges only what
        # its joint tails evaluate
        layouts = {(prof or BlockOrthogonalProfile(np.size(y), 1, 1), cons.m)
                   for group in TestWalkDigest.EXPECTED
                   for _, y, cons, prof in _digest_corpus(group)}
        assert any(prof.gamma == 1 for prof, _ in layouts)
        assert any(prof.gamma > 1 for prof, _ in layouts)
        assigns = re.compile(r" *o\d+_\d+ = ")
        for (prof, m), flags in itertools.product(
                layouts, itertools.product((False, True), repeat=3)):
            source = _walk_source(prof, m, *flags)
            walk = source.partition("\n    best = inf\n")[2].splitlines()
            last = max((n for n, line in enumerate(walk)
                        if assigns.match(line)), default=-1)
            charges = [line.strip() for line in walk[last + 1:]
                       if "flops +=" in line]
            if prof.gamma == 1:
                assert charges == [], (prof, m, flags)
                price = " + 7 * nodes"
            else:
                assert charges and "flops += 1" not in charges, (
                    prof, m, flags)
                price = f" + nodes // {m ** (prof.gamma - 1)}"
            assert f"    flops=flops{price}" in source, (prof, m, flags)

    #: sha256 of the sources of every gamma = 1 layout below (bhv's,
    #: golden's and every plain walk among them), taken before the joint
    #: tails' skip test became "past the leaf budget or the sub-block's best"
    GAMMA_1_SOURCES = "1371e88c15c28254"

    def test_joint_tails_skip_past_the_budget_or_the_best(self):
        # a pruned multi-block walk skips a tail once `acc + met` passes
        # the best leaf, the add the leaf test does, or `met` the
        # sub-block's best, and binds a row's level only past that test; a
        # walk that knows no leaf before its leading block has no test, and
        # gamma = 1 walks, which have no tails, are as they were
        layouts = sorted(
            {(prof or BlockOrthogonalProfile(np.size(y), 1, 1), cons.m)
             for group in TestWalkDigest.EXPECTED
             for _, y, cons, prof in _digest_corpus(group)},
            key=lambda layout: (layout[0].as_tuple(), layout[1]))
        assert any(prof.gamma == 1 for prof, _ in layouts)
        assert any(prof.gamma > 1 for prof, _ in layouts)
        gamma_1 = hashlib.sha256()
        for (prof, m), flags in itertools.product(
                layouts, itertools.product((False, True), repeat=3)):
            source = _walk_source(prof, m, *flags)
            assert "budget" not in source, (prof, m, flags)
            if prof.gamma == 1:
                gamma_1.update(source.encode())
                continue
            lines = [line.strip() for line in source.splitlines()]
            blk, gam = prof.block_size, prof.gamma
            tested = flags[1] and prof.gamma_blocks > 1
            tests = [line for line in lines if "met > bst" in line]
            accs = ([f"tot{blk}"] * (gam - 1)
                    + ["tl"] * ((prof.k - 1) * (gam - 1)))
            assert tests == ([f"if {acc} + met > best or met > bst:"
                              for acc in accs] if tested else []), (
                prof, m, flags)
            for j in range(1, gam):
                binds = [n for n, line in enumerate(lines)
                         if line == f"v{j} = lev[w{j}]"]
                assert len(binds) == prof.k, (prof, m, flags)
                for n in binds:
                    row = lines[n - 5 if tested else n - 2]
                    assert re.fullmatch(rf"res = o\d+_{blk}.* - "
                                        rf"dl\d+\[w{j}\]", row), (
                        prof, m, flags)
                    if tested:
                        assert "met > bst" in lines[n - 3], (prof, m, flags)
                        assert lines[n - 2].startswith("flops += ")
                        assert lines[n - 1] == "continue"
        assert gamma_1.hexdigest()[:16] == self.GAMMA_1_SOURCES


class TestCounterFingerprint:
    # (em, flops, nodes, hits, summed cache peak) over the whole corpus, per
    # decoder; any change to the walk order, pruning, pricing or caching
    # moves at least one of them
    EXPECTED = {
        False: (32444, 388454, 30565, 0, 0),
        True: (16624, 311194, 30565, 4123, 2014),
    }
    EXPECTED_WIDE = {
        False: (51314, 1188213, 92187, 0, 0),
        True: (1800, 885769, 92187, 12478, 1164),
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

    def test_grid_is_freed_on_return(self, rng):
        # the 16384 x 14 grid (1.8 MB) is built per call and kept by no one
        h_eq = rng.standard_normal((14, 14))
        y = rng.standard_normal(14)
        cons = PamConstellation(2)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            exhaustive_ml(h_eq, y, cons)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 64 * 1024

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

    def test_closed_forms_match_the_direct_sums(self):
        for g, k, gam, m in itertools.product(range(2, 6), range(1, 6),
                                              range(1, 5), (2, 3, 4, 8, 16)):
            b = em_count_bounds(BlockOrthogonalProfile(g, k, gam), m)
            per_sub_block = sum(m ** d for d in range(1, gam + 1))
            assert b.o_stbc == sum(m ** d
                                   for d in range(1, (g - 1) * k * gam + 1))
            assert b.o_bostbc == k * per_sub_block * sum(
                m ** ((g - i) * k * gam) for i in range(2, g + 1))
            assert b.mem_entries == (g - 1) * (k - 1) * per_sub_block
            assert b.emrr == Fraction(b.o_bostbc, b.o_stbc)

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

    @pytest.mark.parametrize("profile, named", [
        ((2, 4, 1), "tuple"), (None, "NoneType")])
    def test_em_count_bounds_rejects_a_profile_of_another_type(self, profile,
                                                               named):
        # a declared profile tuple used to raise AttributeError
        with pytest.raises(ValueError, match="^profile must be a "
                           f"BlockOrthogonalProfile, got a {named}$"):
            em_count_bounds(profile, 4)

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
