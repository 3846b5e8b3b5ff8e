"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

All tolerances and trial counts are pinned here; nothing is calibrated at
run time.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from bostbc.codes import (
    GOLDEN_ORDERING_222,
    GOLDEN_ORDERING_421,
    GOLDEN_ORDERING_SCRAMBLED,
    golden_code,
    named_code,
    reorder,
)
from bostbc.decoder import (
    PamConstellation,
    em_count_bounds,
    exhaustive_ml,
    qrdm_bound,
    sphere_decode,
)
from bostbc.linalg import gram_schmidt_qr
from bostbc.sim import SimulationCampaign, run_sweep
from bostbc.structure import (
    BlockOrthogonalProfile,
    detect_profile,
    equivalent_channel,
    profile_validates,
    random_channel,
    structural_pattern,
    verify_cuwd_sum_structure,
)

from conftest import (
    GOLDEN_PATTERN_222,
    GOLDEN_PATTERN_421,
    GOLDEN_PATTERN_SCRAMBLED,
    decode_instance,
)

SEED = 424242


def announce(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_golden_reference_patterns():
    """Three canonical Golden-code orderings reproduce the reference R
    supports exactly on 100 seeded channels; under 5 seconds."""
    start = time.perf_counter()
    cases = [
        (GOLDEN_ORDERING_421, GOLDEN_PATTERN_421, (4, 2, 1)),
        (GOLDEN_ORDERING_222, GOLDEN_PATTERN_222, (2, 2, 2)),
        (GOLDEN_ORDERING_SCRAMBLED, GOLDEN_PATTERN_SCRAMBLED, None),
    ]
    for perm, expected, profile in cases:
        code = reorder(golden_code(), perm)
        pattern = structural_pattern(code, n_channels=100, tol_rel=1e-9,
                                     seed=SEED)
        assert np.array_equal(pattern, expected)
        detected = detect_profile(pattern)
        if profile is None:
            assert detected is None
        else:
            assert detected.as_tuple() == profile
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    announce(1, f"three orderings -> exact patterns and profiles "
                f"(4,2,1)/(2,2,2)/none in {elapsed:.2f}s")


def test_criterion_2_named_code_profiles():
    """Declared profiles of the named codes and constructions verify on 20
    seeded channels.  Where the declared profile is also the maximal one,
    detection returns it exactly; the coordinate-interleaved codes factor
    even finer (their conditioned block is diagonal), so their declared
    (2, 2, 2) is checked as a validating claim and the finer detection is
    asserted alongside."""
    exact = {
        "bhv": (2, 4, 1),
        "ciii-golden": (2, 2, 2),
        "cii-golden": (4, 2, 1),
        "ci-a2": (2, 4, 2),
    }
    for name, profile in exact.items():
        code = named_code(name)
        pattern = structural_pattern(code, n_channels=20, seed=SEED)
        assert code.declared_profile == profile
        assert detect_profile(pattern).as_tuple() == profile
        assert profile_validates(pattern, BlockOrthogonalProfile(*profile))
    finer = {
        "srinath-rajan": ((2, 2, 2), (2, 4, 1)),
        "civ-a1": ((2, 2, 2), (2, 4, 1)),
    }
    for name, (declared, maximal) in finer.items():
        code = named_code(name)
        pattern = structural_pattern(code, n_channels=20, seed=SEED)
        assert code.declared_profile == declared
        assert profile_validates(pattern, BlockOrthogonalProfile(*declared))
        assert detect_profile(pattern).as_tuple() == maximal
    announce(2, "bhv (2,4,1), golden-III (2,2,2), golden-II (4,2,1), "
                "cI-a2 (2,4,2) exact; srinath-rajan and cIV-a1 validate "
                "(2,2,2) with diagonal conditioned blocks")


def _full_tree_ratio(code_name, profile, m, seed):
    code = named_code(code_name)
    rng = np.random.default_rng(seed)
    cons = PamConstellation(m)
    h = random_channel(code.n_t, code.n_t, rng)
    h_eq = equivalent_channel(code, h)
    qr = gram_schmidt_qr(h_eq)
    y_prime = qr.q.T @ rng.standard_normal(h_eq.shape[0])
    base = sphere_decode(qr.r, y_prime, cons, profile, memoize=False,
                         prune=False)[1]
    memo = sphere_decode(qr.r, y_prime, cons, profile, memoize=True,
                         prune=False)[1]
    assert base.decoded == memo.decoded
    return base, memo


def test_criterion_3_closed_form_em_counts():
    """Measured full-tree metric-count ratios equal k(M^g-1)/(M^{kg}-1) as
    exact rationals for the three pinned profile/M combinations."""
    # (2,2,1) at M=2 on a synthetic patterned R
    rng = np.random.default_rng(SEED)
    prof = BlockOrthogonalProfile(2, 2, 1)
    r = np.triu(rng.standard_normal((4, 4)))
    r[0, 1] = r[2, 3] = 0.0
    r[np.diag_indices(4)] = np.abs(np.diag(r)) + 1.0
    cons = PamConstellation(2)
    base = sphere_decode(r, rng.standard_normal(4), cons, prof,
                         memoize=False, prune=False)[1]
    memo = sphere_decode(r, rng.standard_normal(4), cons, prof,
                         memoize=True, prune=False)[1]
    assert Fraction(memo.em_evaluations, base.em_evaluations) == Fraction(2, 3)

    # (2,4,1) at M=4 on the rate-2 Alamouti-sum code
    base, memo = _full_tree_ratio("bhv", BlockOrthogonalProfile(2, 4, 1), 4, SEED)
    ratio_241 = Fraction(memo.em_evaluations, base.em_evaluations)
    assert ratio_241 == Fraction(12, 255)

    # (2,2,2) at M=2 on the reordered Golden code
    base, memo = _full_tree_ratio("golden-222", BlockOrthogonalProfile(2, 2, 2),
                                  2, SEED)
    assert Fraction(memo.em_evaluations, base.em_evaluations) == Fraction(2, 5)
    announce(3, "full-tree EM ratios 2/3, 12/255, 2/5 exact")


def test_criterion_4_cache_memory_bound():
    """Cache occupancy never exceeds (G-1)(k-1)M(M^g-1)/(M-1); a forced
    full tree reaches the bound with equality."""
    checked = 0
    for name, m in (("bhv", 2), ("golden-222", 2), ("golden", 2)):
        code = named_code(name)
        profile = BlockOrthogonalProfile(*code.declared_profile)
        bound = em_count_bounds(profile, m).mem_entries
        cons = PamConstellation(m)
        rng = np.random.default_rng(SEED + 1)
        for _ in range(200):
            _, _, qr, y_prime, _ = decode_instance(code, cons, 0.7, rng)
            _, stats = sphere_decode(qr.r, y_prime, cons, profile, memoize=True)
            assert stats.cache_entries_peak <= bound
            checked += 1
    # equality on a forced full tree
    _, memo = _full_tree_ratio("bhv", BlockOrthogonalProfile(2, 4, 1), 4, SEED)
    bound = em_count_bounds(BlockOrthogonalProfile(2, 4, 1), 4).mem_entries
    assert memo.cache_entries_peak == bound
    announce(4, f"peak cache within bound on {checked} trials; "
                f"full tree reaches {bound} exactly")


def test_criterion_5_ml_equivalence():
    """Memoized == baseline == exhaustive oracle, exact index equality,
    over 1000 seeded trials per shipped code at 4-QAM (M = 2)."""
    names = ("golden", "golden-222", "bhv", "srinath-rajan", "cda-2x2",
             "cii-golden", "ciii-golden", "ci-a1", "civ-a1")
    trials = 1000
    for variant, name in enumerate(names):
        code = named_code(name)
        profile = BlockOrthogonalProfile(*code.declared_profile)
        cons = PamConstellation(2)
        rng = np.random.default_rng([SEED, variant])
        mismatches = 0
        for _ in range(trials):
            h_eq, y, qr, y_prime, _ = decode_instance(code, cons, 0.8, rng)
            oracle = exhaustive_ml(h_eq, y, cons)
            base, _ = sphere_decode(qr.r, y_prime, cons, profile, memoize=False)
            memo, _ = sphere_decode(qr.r, y_prime, cons, profile, memoize=True)
            if not (np.array_equal(base, oracle) and np.array_equal(memo, oracle)):
                mismatches += 1
        assert mismatches == 0, f"{name}: {mismatches} mismatches"
    announce(5, f"{len(names)} codes x {trials} trials, zero mismatches")


def test_criterion_6_flop_reduction_bands():
    """Mean FLOP reduction at 4-QAM, 0-4 dB, 1000 trials/point: the
    (2,4,1) code lands in [15%, 45%]; the (2,2,2) code is strictly lower
    and still at least 8%."""
    shared = dict(m=2, snr_grid_db=(0.0, 4.0), trials_per_point=1000,
                  master_seed=SEED)
    bhv_rows = run_sweep(SimulationCampaign(code="bhv", **shared)).rows
    g222_rows = run_sweep(SimulationCampaign(code="golden-222", **shared)).rows
    for row in bhv_rows:
        assert 15.0 <= row.flop_reduction_pct <= 45.0, row
    for row, bhv_row in zip(g222_rows, bhv_rows):
        assert row.flop_reduction_pct >= 8.0, row
        assert row.flop_reduction_pct < bhv_row.flop_reduction_pct
    announce(6, "reductions (2,4,1): "
                + ", ".join(f"{r.flop_reduction_pct:.1f}%" for r in bhv_rows)
                + "; (2,2,2): "
                + ", ".join(f"{r.flop_reduction_pct:.1f}%" for r in g222_rows))


def test_criterion_7_emrr_trends():
    """EMRR grows toward 1 with SNR (slack 0.02 at 1000 trials) for every
    shipped block-orthogonal sweep; 16-QAM EMRR is below 4-QAM EMRR at
    0 dB for the (2,4,1) code."""
    grid = (0.0, 4.0, 8.0, 12.0, 16.0, 20.0)
    for name in ("bhv", "golden-222", "srinath-rajan"):
        camp = SimulationCampaign(code=name, m=2, snr_grid_db=grid,
                                  trials_per_point=1000, master_seed=SEED)
        rows = run_sweep(camp).rows
        values = [row.emrr for row in rows]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 0.02, (name, values)
        assert values[-1] > values[0]
    low = dict(snr_grid_db=(0.0,), trials_per_point=300, master_seed=SEED)
    qam4 = run_sweep(SimulationCampaign(code="bhv", m=2, **low)).rows[0].emrr
    qam16 = run_sweep(SimulationCampaign(code="bhv", m=4, **low)).rows[0].emrr
    assert qam16 < qam4
    assert qam4 < 0.6  # low-SNR reduction is substantial
    announce(7, f"monotone EMRR for 3 sweeps; 16-QAM {qam16:.3f} < "
                f"4-QAM {qam4:.3f} at 0 dB")


def test_criterion_8_sum_construction_structure():
    """Structure facts of the sum constructions hold numerically at 1e-9 on
    50 seeded channels; conjugate-free designs have paired structural
    zeros next to the diagonal."""
    for name in ("bhv", "ci-a1", "ci-a2"):
        report = verify_cuwd_sum_structure(named_code(name),
                                                    n_channels=50, seed=SEED)
        assert report.r1_blocks_equal < 1e-9, name
        assert report.r1_block_diagonal < 1e-9, name
        assert report.e_structure < 1e-9, name
        assert report.r2_block_diagonal < 1e-9, name
    # size-2 designs realize the mirrored sign layout, size-4 the reference
    assert verify_cuwd_sum_structure(
        named_code("ci-a2"), n_channels=10, seed=SEED).e_structure_orientation == 1
    for name in ("cii-golden", "cda-2x2"):
        pattern = structural_pattern(named_code(name), seed=SEED)
        for i in range(pattern.shape[0] // 2):
            assert not pattern[2 * i, 2 * i + 1], name
    announce(8, "R1-block equality, E layout and R2 block-diagonality at "
                "1e-9 for a=1 and a=2; paired zeros structural for "
                "conjugate-free designs")


def test_criterion_9_qrdm_bound():
    """Breadth-first bound M^g / (k (M^g - 1)) for the criterion-3 cases."""
    assert qrdm_bound(2, 1, 2) == Fraction(1, 1)
    assert qrdm_bound(4, 1, 4) == Fraction(1, 3)
    assert qrdm_bound(2, 2, 2) == Fraction(2, 3)
    announce(9, "qrdm bounds 1, 1/3, 2/3 exact")
