"""Shared fixtures and reference data for the test suite."""

import dataclasses
import itertools
import re

import numpy as np
import pytest

from bostbc import decoder
from bostbc.linalg import cvec, gram_schmidt_qr, tilde_vec
from bostbc.sim import run_trial
from bostbc.structure import equivalent_channel, random_channel


def parse_pattern(text: str) -> np.ndarray:
    """Parse a t/0 grid string into a boolean support matrix."""
    return np.array([[tok == "t" for tok in line.split()]
                     for line in text.strip().splitlines()])


# Reference R supports of the Golden code under its three canonical
# orderings (nonzero marked t), as produced on generic channels.
GOLDEN_PATTERN_421 = parse_pattern("""
t 0 0 t t t t t
0 t t 0 t t t t
0 0 t 0 t t t t
0 0 0 t t t t t
0 0 0 0 t 0 0 t
0 0 0 0 0 t t 0
0 0 0 0 0 0 t 0
0 0 0 0 0 0 0 t
""")

GOLDEN_PATTERN_222 = parse_pattern("""
t t 0 0 t t t t
0 t 0 0 t t t t
0 0 t t t t t t
0 0 0 t t t t t
0 0 0 0 t t 0 0
0 0 0 0 0 t 0 0
0 0 0 0 0 0 t t
0 0 0 0 0 0 0 t
""")

GOLDEN_PATTERN_SCRAMBLED = parse_pattern("""
t 0 t 0 t t t t
0 t t t t t 0 t
0 0 t t t t t 0
0 0 0 t t t t t
0 0 0 0 t t t t
0 0 0 0 0 t t t
0 0 0 0 0 0 t t
0 0 0 0 0 0 0 t
""")


def corrupt_trial(*triple):
    """``run_trial`` with the memoized decode of sweep trial ``triple``
    moved off the baseline's, as a cache returning a wrong value would."""
    def run(code, cons, snr_db, seed, *args, **kwargs):
        trial = run_trial(code, cons, snr_db, seed, *args, **kwargs)
        if tuple(seed.entropy) != triple:
            return trial
        memo = trial.stats_memoized
        wrong = ((memo.decoded[0] + 1) % cons.m,) + memo.decoded[1:]
        return dataclasses.replace(
            trial, stats_memoized=dataclasses.replace(memo, decoded=wrong))
    return run


def decode_instance(code, cons, n0, rng, n_r=None):
    """Draw one channel/codeword/noise instance and its QR pieces."""
    n_r = n_r or code.n_t
    h = random_channel(n_r, code.n_t, rng)
    h_eq = equivalent_channel(code, h)
    idx = rng.integers(0, cons.m, size=code.k_real)
    x = np.asarray(cons.levels)[idx]
    noise = np.sqrt(n0 / 2.0) * (rng.standard_normal((n_r, code.t))
                                 + 1j * rng.standard_normal((n_r, code.t)))
    y = h_eq @ x + tilde_vec(cvec(noise))
    qr = gram_schmidt_qr(h_eq)
    return h_eq, y, qr, qr.q.T @ y, idx


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def corrupt_memo_entry(trial_number):
    """A stand-in for ``decoder._walk`` whose ``trial_number``-th memoized
    decode (from 0, in sweep order) runs a walk that turns the first memo
    entry it is about to replay into a negative increment for every
    candidate, and replays it so from then on, as a cache returning a wrong
    value would.  That walk is the decode's own generated source with each
    replay ``incC, ordC = entry`` read through the corruption."""
    memoized = itertools.count()
    walk = decoder._walk

    def corrupt_walk(profile, m, memoize, prune, traced):
        if not (memoize and next(memoized) == trial_number):
            return walk(profile, m, memoize, prune, traced)
        first = []  # (the first entry replayed, its corrupted copy)

        def corrupt(entry):
            if not first:
                inc, order = entry
                first.append((entry, ((-1e3,) * len(inc), order)))
            original, wrong = first[0]
            return wrong if entry is original else entry

        source, replays = re.subn(
            r"^(\s*inc\d+, ord\d+) = (\w+)$", r"\1 = corrupt(\2)",
            decoder._walk_source(profile, m, memoize, prune, traced),
            flags=re.M)
        assert replays, "the walk replays no memo entry"
        namespace = dict(walk(profile, m, memoize, prune, traced).__globals__,
                         corrupt=corrupt)
        exec(compile(source, "<corrupted walk>", "exec"), namespace)
        return namespace["walk"]

    return corrupt_walk
