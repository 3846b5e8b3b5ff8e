"""The generated walk against the plain recursive reference decoder: every
``DecoderStats`` field, ``best_metric`` by its bits, in every mode."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_decoder as walk_tests
from bostbc import decoder
from bostbc.decoder import (PamConstellation, _walk, exhaustive_ml,
                            sphere_decode)
from bostbc.structure import BlockOrthogonalProfile
from reference_decoder import TAIL_RULES, reference_decode


def fields(stats):
    return (stats.em_evaluations, stats.nodes_visited, stats.flops,
            stats.cache_hits, stats.cache_entries_peak,
            stats.best_metric.hex(), stats.decoded)


def all_but_flops(stats):
    got = fields(stats)
    return got[:2] + got[3:]


def draw_instance(data):
    """``(r, y', cons, profile)`` drawn as the exact-tie oracle test draws
    them (gamma <= 3, M in {2, 4}, at most 4096 grid points), either noisy
    floats or integers at unit scale, which tie often."""
    m = data.draw(st.sampled_from([2, 4]), label="m")
    shape = data.draw(st.tuples(st.integers(1, 3), st.integers(1, 3),
                                st.integers(1, 3))
                      .filter(lambda p: m ** (p[0] * p[1] * p[2]) <= 4096),
                      label="profile")
    prof = BlockOrthogonalProfile(*shape)
    k = prof.total
    if data.draw(st.booleans(), label="ties"):
        cons = PamConstellation(m, scale=1.0)
        entries = data.draw(st.lists(st.integers(-2, 2), min_size=k * k,
                                     max_size=k * k), label="r")
        y = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=k,
                                        max_size=k), label="y"), dtype=float)
        r = np.triu(np.asarray(entries, dtype=float).reshape(k, k))
        r *= walk_tests.patterned_r(np.random.default_rng(0), prof) != 0
        r[np.diag_indices(k)] = np.maximum(np.abs(np.diag(r)), 1.0)
    else:
        cons = PamConstellation(m)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                              label="seed"))
        r = walk_tests.patterned_r(rng, prof)
        x = np.asarray(cons.levels)[rng.integers(0, m, k)]
        y = r @ x + rng.standard_normal(k)
    return r, y, cons, prof


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_walk_counts_as_the_reference(data):
    r, y, cons, prof = draw_instance(data)
    for profile, memoize in ((prof, False), (prof, True), (None, False)):
        for prune in (True, False):
            _, got = sphere_decode(r, y, cons, profile, memoize=memoize,
                                   prune=prune)
            want = reference_decode(r, y, cons, profile, memoize=memoize,
                                    prune=prune)
            assert fields(got) == fields(want), (profile, memoize, prune)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_tail_rules_move_flops_only(data):
    # the "or" rule skips every tail the "and" rule skips, and others that
    # cannot give an accepted leaf either; priced alike it never costs more
    r, y, cons, prof = draw_instance(data)
    old_at_new_prices = (TAIL_RULES["and"][0], TAIL_RULES["or"][1])
    for memoize in (False, True):
        old, new, repriced = (
            reference_decode(r, y, cons, prof, memoize=memoize, rule=rule)
            for rule in ("and", "or", old_at_new_prices))
        assert all_but_flops(old) == all_but_flops(new)
        assert new.flops <= repriced.flops
        if prof.gamma <= 2:  # no row but the bottom one is priced differently
            assert repriced == old


@pytest.mark.parametrize("shape, seed, per_function, lo", [
    # a non-first sub-block, after the first one's tails bound the walk's
    # best indices, so they hold a stale value
    ((2, 2, 2), 7, 16, 2),
    # chained after every level, the leading block is solved in a function
    # called afresh per candidate of the level above, so a first solve
    # whose tails are all skipped has bound no best indices at all
    ((2, 1, 2), 15, 1, 0),
])
def test_solve_whose_every_tail_is_skipped(monkeypatch, shape, seed,
                                            per_function, lo):
    # under the "or" rule a sub-block solve may keep no tail: its minimum
    # stays inf, so the leaf must be refused without its indices being read
    monkeypatch.setattr(decoder, "_LEVELS_PER_FUNCTION", per_function)
    _walk.cache_clear()
    try:
        prof = BlockOrthogonalProfile(*shape)
        cons = PamConstellation(2)
        rng = np.random.default_rng(seed)
        r = walk_tests.patterned_r(rng, prof)
        x = np.asarray(cons.levels)[rng.integers(0, cons.m, prof.total)]
        y = r @ x + rng.standard_normal(prof.total)
        emptied = []
        reference_decode(r, y, cons, prof, rule="or", emptied=emptied)
        assert emptied == [lo]
        want = exhaustive_ml(r, y, cons)
        for memoize in (False, True):
            got, stats = sphere_decode(r, y, cons, prof, memoize=memoize)
            assert fields(stats) == fields(reference_decode(r, y, cons, prof,
                                                            memoize=memoize))
            assert np.array_equal(got, want)
            old, new = (reference_decode(r, y, cons, prof, memoize=memoize,
                                         rule=rule) for rule in ("and", "or"))
            assert all_but_flops(old) == all_but_flops(new)
            assert new.flops < old.flops
    finally:
        _walk.cache_clear()


def test_reference_reproduces_the_pinned_counter_totals():
    pins = walk_tests.TestCounterFingerprint
    for corpus, want in ((walk_tests._fingerprint_corpus, pins.EXPECTED),
                         (walk_tests._wide_fingerprint_corpus,
                          pins.EXPECTED_WIDE)):
        totals = {memoize: [0] * 5 for memoize in (False, True)}
        for r, y, cons, prof in corpus():
            for memoize, acc in totals.items():
                walk_tests._accumulate(acc, reference_decode(
                    r, y, cons, prof, memoize=memoize))
        assert {mz: tuple(acc) for mz, acc in totals.items()} == want

