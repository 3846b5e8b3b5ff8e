"""Tests for the sphere decoder, the exhaustive oracle and the bound math."""

import dataclasses
import itertools
import re
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
    _Walker,
    em_count_bounds,
    exhaustive_ml,
    force_full_tree_decode,
    qrdm_bound,
    sphere_decode,
)
from bostbc.linalg import gram_schmidt_qr
from bostbc.structure import BlockOrthogonalProfile, equivalent_channel, random_channel

from conftest import decode_instance


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
        memo = _Walker(patterned_r(rng, prof), rng.standard_normal(k), cons,
                       prof, True, True)
        base = _Walker(patterned_r(rng, prof), rng.standard_normal(k), cons,
                       prof, False, True)
        layout = memo.layout
        assert base.layout is layout
        # reference: the per-level formulas and the structural-zero loop
        blk, gam = prof.block_size, prof.gamma
        sub_end = [(c // blk) * blk + ((c % blk) // gam + 1) * gam - 1
                   for c in range(k)]
        assert layout.block_of == tuple(c // blk for c in range(k))
        assert layout.block_start == tuple((c // blk) * blk for c in range(k))
        assert layout.sub_end == tuple(sub_end)
        assert layout.cacheable == tuple(
            c >= blk and (c % blk) // gam < prof.k - 1 for c in range(k))
        assert layout.cond_source == tuple((c // blk + 1) * blk for c in range(k))
        zeros = np.zeros((k, k), dtype=bool)
        for c in range(k):
            for j in range(c + 1, (c // blk + 1) * blk):
                zeros[c, j] = j > sub_end[c]
        assert np.array_equal(layout.structural_zero, zeros)
        assert np.array_equal(layout.strict_lower, np.tri(k, k=-1, dtype=bool))
        with pytest.raises(ValueError):
            layout.structural_zero[0, -1] = True
        with pytest.raises(ValueError):
            layout.strict_lower[1, 0] = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            layout.block_of = ()
        with pytest.raises(TypeError):
            layout.sub_end[0] = 0


class TestSubBlockIndependence:
    def test_toy_edge_metrics_reused_across_sibling(self, rng):
        # 4-symbol toy with two conditioned singleton sub-blocks: the metric
        # vector of the third symbol is the same for both values of the
        # fourth, so the second entry of that level is a pure cache hit
        prof = BlockOrthogonalProfile(2, 2, 1)
        r = patterned_r(rng, prof)
        cons = PamConstellation(2)
        y = rng.standard_normal(4)
        stats = force_full_tree_decode(r, y, cons, prof, memoize=True)
        assert stats.cache_hits == 1
        # validate_cache recomputes on hit and asserts bitwise equality
        _, stats2 = sphere_decode(r, y, cons, prof, memoize=True, prune=False,
                                  validate_cache=True)
        assert stats2.cache_hits == 1

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


def _fingerprint_corpus():
    """Seeded patterned instances over every multi-block profile with
    Gamma 2-4, k 1-3, gamma 1-2 and at most 12 symbols, at M = 2 and 4."""
    rng = np.random.default_rng(20261)
    for shape in itertools.product((2, 3, 4), (1, 2, 3), (1, 2)):
        prof = BlockOrthogonalProfile(*shape)
        if prof.total > 12:
            continue
        for m in (2, 4):
            cons = PamConstellation(m)
            for _ in range(10):
                r = patterned_r(rng, prof)
                x = np.asarray(cons.levels)[rng.integers(0, m, prof.total)]
                y = r @ x + rng.standard_normal(prof.total)
                yield r, y, cons, prof


class TestCounterFingerprint:
    # (em, flops, nodes, hits, summed cache peak) over the whole corpus, per
    # decoder; any change to the walk order, pruning, pricing or caching
    # moves at least one of them
    EXPECTED = {
        False: (32444, 467447, 30565, 0, 0),
        True: (16624, 390187, 30565, 4123, 2014),
    }

    def test_corpus_totals_are_pinned(self):
        totals = {memoize: [0] * 5 for memoize in self.EXPECTED}
        for r, y, cons, prof in _fingerprint_corpus():
            for memoize, acc in totals.items():
                _, s = sphere_decode(r, y, cons, prof, memoize=memoize)
                for i, v in enumerate((s.em_evaluations, s.flops,
                                       s.nodes_visited, s.cache_hits,
                                       s.cache_entries_peak)):
                    acc[i] += v
        assert {mz: tuple(acc) for mz, acc in totals.items()} == self.EXPECTED

    @pytest.mark.parametrize("shape", [(3, 2, 1), (3, 2, 2)])
    def test_no_stale_table_across_block_reentry(self, rng, shape):
        # Gamma = 3 re-enters block 1 once per symbol combination of block
        # 2; validate_cache raises if a hit replays an old conditioning
        prof = BlockOrthogonalProfile(*shape)
        cons = PamConstellation(2)
        r = patterned_r(rng, prof)
        y = rng.standard_normal(prof.total)
        _, stats = sphere_decode(r, y, cons, prof, prune=False,
                                 validate_cache=True)
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
                                    st.integers(1, 2))
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
            plain, _ = sphere_decode(r, y, cons)
            assert np.array_equal(plain, exhaustive_ml(r, y, cons))

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

    def test_grid_guard(self):
        cons = PamConstellation(8)
        with pytest.raises(TooLarge):
            exhaustive_ml(np.eye(8), np.zeros(8), cons)


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
        base = force_full_tree_decode(r, y, cons, prof, memoize=False)
        memo = force_full_tree_decode(r, y, cons, prof, memoize=True)
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
        base = force_full_tree_decode(r, y, cons, prof, memoize=False)
        memo = force_full_tree_decode(r, y, cons, prof, memoize=True)
        bounds = em_count_bounds(prof, 2)
        assert base.em_evaluations == bounds.o_stbc
        assert memo.em_evaluations == bounds.o_bostbc
        assert memo.cache_entries_peak == bounds.mem_entries
        assert base.decoded == memo.decoded

    def test_guard(self):
        cons = PamConstellation(8)
        with pytest.raises(TooLarge):
            force_full_tree_decode(np.eye(8), np.zeros(8), cons)


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
