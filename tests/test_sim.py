"""Tests for the Monte Carlo harness: seeding, SNR convention, aggregation."""

import csv
import io
import json
import math
import re
import warnings

import numpy as np
import pytest

from bostbc import codes, decoder, sim
from bostbc.decoder import PamConstellation
from bostbc.sim import (
    CSV_HEADER,
    SimulationCampaign,
    resolve_profile,
    run_sweep,
    run_trial,
    snr_to_noise_variance,
    sweep_to_csv,
)
from bostbc.linalg import cvec, gram_schmidt_qr, tilde_vec, triangularize
from bostbc.structure import (
    BlockOrthogonalProfile,
    detect_structure,
    equivalent_channel,
    structural_pattern,
)

from conftest import corrupt_memo_entry, corrupt_trial


def unit_energy_code():
    # single identity weight on one antenna: E_rx per use is exactly the
    # constellation's symbol energy
    return codes._make_code([np.eye(1)], ["x1"])


class TestSnrConvention:
    def test_zero_db_unit_energy(self):
        code = codes._make_code([np.eye(1), 1j * np.eye(1)], ["x1I", "x1Q"])
        cons = PamConstellation(2)  # unit energy per complex symbol
        assert abs(snr_to_noise_variance(0.0, code, cons) - 1.0) < 1e-12

    def test_ten_db(self):
        code = codes._make_code([np.eye(1), 1j * np.eye(1)], ["x1I", "x1Q"])
        cons = PamConstellation(2)
        assert abs(snr_to_noise_variance(10.0, code, cons) - 0.1) < 1e-12

    def test_doubling_energy_shifts_3db(self):
        cons = PamConstellation(2)
        base = codes._make_code([np.eye(1), 1j * np.eye(1)], ["x1I", "x1Q"])
        scaled = codes._make_code([math.sqrt(2) * w for w in base.weights],
                                  ["x1I", "x1Q"])
        shift_db = 10 * math.log10(2)
        n0_base = snr_to_noise_variance(5.0, base, cons)
        n0_scaled = snr_to_noise_variance(5.0 + shift_db, scaled, cons)
        assert abs(n0_base - n0_scaled) < 1e-12

    @pytest.mark.parametrize("snr_db", [
        -1e308, -3300.0, -math.inf, math.nan, 3090.0, 1e308,
        np.float64(-1e308), np.float64(math.nan),
        # numpy's power overflowed this one to inf, so it read as noise-free
        pytest.param(np.float64(1e308), id="float64-1e+308"),
    ])
    def test_no_finite_noise_variance_raises(self, snr_db):
        cons = PamConstellation(2)
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="snr_db"):
            snr_to_noise_variance(snr_db, codes.named_code("bhv"), cons)

    @pytest.mark.parametrize("snr_db", [
        -3000.0, -300.0, -20.0, 0.0, 7.5, 300.0, 3000.0, math.inf,
        np.float64(math.inf),
    ])
    def test_finite_noise_variance_unchanged(self, snr_db):
        # the plain formula wherever it yields a finite N0 >= 0
        code = codes.named_code("bhv")
        cons = PamConstellation(2)
        g = codes.generator_matrix(code)
        e_rx = cons.energy_per_symbol * float(np.sum(g * g)) / code.t
        with np.errstate(all="ignore"):
            want = e_rx / (10.0 ** (snr_db / 10.0))
            got = snr_to_noise_variance(snr_db, code, cons)
        assert math.isfinite(got) and got >= 0.0
        assert got == want and math.copysign(1.0, got) == 1.0

    @pytest.mark.parametrize("snr_db", [
        np.float32(13.3), np.float16(13.3), np.float16(-7.5), np.float32(60.0),
        np.float16(60.0),
    ], ids=["float32-13.3", "float16-13.3", "float16--7.5", "float32-60.0",
            "float16-60.0"])
    def test_numpy_snr_gives_the_noise_of_its_float_value(self, snr_db):
        # a float32 or float16 SNR was computed in its own type, so a trial
        # drew other noise than for the same value as a float, and 10 ** 6
        # overflowed in float16, which warned and gave N0 = 0.0
        code = codes.named_code("bhv")
        cons = PamConstellation(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = snr_to_noise_variance(snr_db, code, cons)
        want = snr_to_noise_variance(float(snr_db), code, cons)
        assert type(got) is float and 0.0 < got < math.inf
        assert got.hex() == want.hex()

    def test_noise_variance_underflowing_to_zero_raises(self):
        # a subnormal symbol energy gave N0 = 0.0 at 50 dB, so every trial
        # was silently noise-free; only +inf dB is
        code = codes.named_code("bhv")
        cons = PamConstellation(2, scale=1e-160)
        assert snr_to_noise_variance(40.0, code, cons) > 0.0
        assert snr_to_noise_variance(math.inf, code, cons) == 0.0
        with pytest.raises(ValueError, match=r"^snr_db = 50\.0 gives a noise "
                                             "variance that underflows"):
            snr_to_noise_variance(50.0, code, cons)

    @pytest.mark.parametrize("snr_db", ["10", None, 1j, True, np.bool_(True)])
    def test_non_real_snr_raises_value_error(self, snr_db):
        # a string, None or a complex used to raise a stray TypeError, and
        # True used to read as 1 dB
        code = codes.named_code("bhv")
        cons = PamConstellation(2)
        named = f"^snr_db = {re.escape(repr(snr_db))} must be a real number$"
        with pytest.raises(ValueError, match=named):
            snr_to_noise_variance(snr_db, code, cons)
        with pytest.raises(ValueError, match=named):
            run_trial(code, cons, snr_db, 7,
                      BlockOrthogonalProfile(*code.declared_profile))


class TestRunTrial:
    def test_zero_noise_recovers_codeword(self):
        code = codes.named_code("bhv")
        cons = PamConstellation(2)
        profile = BlockOrthogonalProfile(*code.declared_profile)
        trial = run_trial(code, cons, 200.0, 7, profile)
        assert trial.stats_baseline.decoded == trial.transmitted
        assert trial.stats_memoized.decoded == trial.transmitted

    def test_fixed_seed_reproducible(self):
        code = codes.named_code("golden")
        cons = PamConstellation(2)
        profile = BlockOrthogonalProfile(*code.declared_profile)
        a = run_trial(code, cons, 6.0, 42, profile)
        b = run_trial(code, cons, 6.0, 42, profile)
        assert a == b  # bit-for-bit, dataclass equality

    def test_seed_forms_draw_alike(self):
        # PCG64 wraps an int or a list in the same SeedSequence
        code = codes.named_code("bhv")
        cons = PamConstellation(2)
        profile = BlockOrthogonalProfile(*code.declared_profile)
        for seed in (7, [123, 1, 4]):
            assert (run_trial(code, cons, 6.0, seed, profile)
                    == run_trial(code, cons, 6.0, np.random.SeedSequence(seed),
                                 profile))

    def test_seed_forms_that_pin_the_trial(self):
        # numpy integers and tuples pin the draws as ints and lists do
        code = codes.named_code("bhv")
        cons = PamConstellation(2)
        profile = BlockOrthogonalProfile(*code.declared_profile)
        for seed, same in ((np.int64(7), 7), ((123, np.uint8(1), 4),
                                              [123, 1, 4])):
            assert (run_trial(code, cons, 6.0, seed, profile)
                    == run_trial(code, cons, 6.0, same, profile))

    @pytest.mark.parametrize("seed", [None, True, -1, "abc", 1.5, [1.5],
                                      [7, -1], [True], np.random.PCG64(7)])
    def test_seed_that_cannot_pin_the_trial_rejected(self, seed):
        # None drew fresh OS entropy, True and [True] ran as 1 and [1], the
        # rest raised numpy's TypeError or ValueError
        code = codes.named_code("bhv")
        profile = BlockOrthogonalProfile(*code.declared_profile)
        with pytest.raises(ValueError, match="^seed = .* must be a "
                                             "SeedSequence, an integer >= 0"):
            run_trial(code, PamConstellation(2), 6.0, seed, profile)

    @pytest.mark.parametrize("name, m, n_r", [("bhv", 2, None),
                                              ("ci-a2", 4, None),
                                              ("golden", 8, 3)])
    def test_front_end_draws_the_reference_instance(self, monkeypatch, name,
                                                    m, n_r):
        # the channel, codeword and noise, drawn as two calls each for the
        # real and imaginary parts and the noise built as a complex matrix,
        # give the (H_eq, y) whose triangularization the trial decodes bit
        # for bit; it is the Gram-Schmidt R and q.T @ y up to rounding
        code = codes.named_code(name)
        cons = PamConstellation(m)
        profile = resolve_profile(code)
        seen = []

        def spy_prepare(*args):
            seen.append(args[:2])
            return decoder.prepare(*args)

        monkeypatch.setattr(sim, "prepare", spy_prepare)
        rows = n_r or code.n_t
        for ti in range(4):
            seed = np.random.SeedSequence([3, 1, ti])
            trial = run_trial(code, cons, 9.0, seed, profile, n_r=n_r)
            rng = np.random.default_rng(seed)
            h = (rng.standard_normal((rows, code.n_t))
                 + 1j * rng.standard_normal((rows, code.n_t))) / np.sqrt(2.0)
            idx = rng.integers(0, m, size=code.k_real)
            n0 = snr_to_noise_variance(9.0, code, cons)
            noise = np.sqrt(n0 / 2.0) * (rng.standard_normal((rows, code.t))
                                         + 1j * rng.standard_normal((rows, code.t)))
            h_eq = equivalent_channel(code, h)
            y = h_eq @ np.asarray(cons.levels)[idx] + tilde_vec(cvec(noise))
            r, y_prime = seen[-1]
            want_r, want_y = triangularize(h_eq, y)
            assert trial.transmitted == tuple(int(i) for i in idx)
            assert r.tobytes() == want_r.tobytes()
            assert y_prime.tobytes() == want_y.tobytes()
            qr = gram_schmidt_qr(h_eq)
            gs_y = qr.q.T @ y
            assert abs(r - qr.r).max() <= 1e-13 * abs(qr.r).max()
            assert abs(y_prime - gs_y).max() <= 1e-13 * abs(gs_y).max()

    def test_paired_instances_share_randomness(self):
        code = codes.named_code("bhv")
        cons = PamConstellation(2)
        profile = BlockOrthogonalProfile(*code.declared_profile)
        trial = run_trial(code, cons, 4.0, 3, profile)
        # identical instance implies identical decoded output
        assert trial.stats_baseline.decoded == trial.stats_memoized.decoded
        assert trial.stats_memoized.cache_hits >= 0
        assert trial.stats_baseline.cache_hits == 0


class TestCampaign:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            SimulationCampaign(code="bhv", m=2, snr_grid_db=(4.0, 0.0),
                               trials_per_point=1, master_seed=1)

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            SimulationCampaign(code="bhv", m=2, snr_grid_db=(0.0,),
                               trials_per_point=0, master_seed=1)

    @pytest.mark.parametrize("field, value", [
        ("snr_grid_db", []), ("n_r", 0), ("n_r", -1), ("n_r", 1.5),
        ("n_r", "two"), ("n_r", True), ("m", 3), ("m", 16),
    ])
    def test_schema_violations_rejected(self, field, value):
        # each value schemas/campaign.schema.json rejects
        data = {"code": "bhv", "m": 2, "snr_grid_db": [0.0],
                "trials_per_point": 1, "master_seed": 1, field: value}
        with pytest.raises(ValueError, match=field):
            SimulationCampaign.from_json(data)

    @pytest.mark.parametrize("field, value", [
        ("snr_grid_db", "048"), ("snr_grid_db", [True]),
        ("trials_per_point", True), ("trials_per_point", 1.5),
        ("master_seed", 4.5), ("code", 7), ("ordering", "01234567"),
    ])
    def test_constructor_violations_rejected(self, field, value):
        # the constructor applies the JSON rules, not just from_json
        kwargs = dict(code="bhv", m=2, snr_grid_db=(0.0,), trials_per_point=1,
                      master_seed=1)
        with pytest.raises(ValueError, match=rf"^{field}(\[\d\])? = "):
            SimulationCampaign(**dict(kwargs, **{field: value}))

    def test_constructor_normalises_fields(self):
        camp = SimulationCampaign(code="bhv", m=2.0, snr_grid_db=[0, 4],
                                  trials_per_point=3.0, master_seed=1,
                                  ordering=[0, 1, 2, 3, 4, 5, 6, 7], n_r=2.0)
        assert camp == SimulationCampaign.from_json(camp.to_json())
        assert (camp.m, camp.trials_per_point, camp.n_r) == (2, 3, 2)
        assert camp.snr_grid_db == (0.0, 4.0)
        assert camp.ordering == (0, 1, 2, 3, 4, 5, 6, 7)

    @pytest.mark.parametrize("data", [[], "{}", 7, None])
    def test_non_object_campaign_rejected(self, data):
        with pytest.raises(ValueError, match="^campaign = .* must be a JSON object$"):
            SimulationCampaign.from_json(data)

    def test_negative_master_seed_rejected(self):
        # numpy's SeedSequence would reject it only mid-sweep
        data = {"code": "bhv", "m": 2, "snr_grid_db": [0.0],
                "trials_per_point": 1, "master_seed": -1}
        with pytest.raises(ValueError, match="^master_seed = -1 must be >= 0$"):
            SimulationCampaign.from_json(data)
        with pytest.raises(ValueError, match="master_seed"):
            SimulationCampaign(code="bhv", m=2, snr_grid_db=(0.0,),
                               trials_per_point=1, master_seed=-1)

    @pytest.mark.parametrize("field", ["m", "trials_per_point", "master_seed"])
    @pytest.mark.parametrize("value", [1.9, 4.5, True, "3"])
    def test_non_integer_counts_rejected(self, field, value):
        # int() would truncate 1.9 and 4.5 and read true as 1
        data = {"code": "bhv", "m": 2, "snr_grid_db": [0.0],
                "trials_per_point": 1, "master_seed": 1, field: value}
        with pytest.raises(ValueError,
                           match=f"^{field} = .* must be an integer$"):
            SimulationCampaign.from_json(data)

    @pytest.mark.parametrize("ordering", [
        "01234567", [0, 1, 2, 3, 4, 5, 6, 7.5], [True, False, 2, 3, 4, 5, 6, 7]])
    def test_non_integer_ordering_rejected(self, ordering):
        # tuple() and int() would read each of these as a permutation
        data = {"code": "golden", "m": 2, "snr_grid_db": [0.0],
                "trials_per_point": 1, "master_seed": 1, "ordering": ordering}
        with pytest.raises(ValueError, match=r"^ordering(\[\d\])? = .* must be"):
            SimulationCampaign.from_json(data)

    @pytest.mark.parametrize("grid", ["048", [True], [0.0, "4"], {"0": 1}])
    def test_non_numeric_snr_grid_rejected(self, grid):
        # tuple() and float() would read "048" as 0, 4 and 8 dB and true as 1
        data = {"code": "bhv", "m": 2, "snr_grid_db": grid,
                "trials_per_point": 1, "master_seed": 1}
        with pytest.raises(ValueError, match=r"^snr_grid_db(\[\d\])? = .* must be"):
            SimulationCampaign.from_json(data)

    @pytest.mark.parametrize("code", [7, None, ["bhv"]])
    def test_non_string_code_rejected(self, code):
        data = {"code": code, "m": 2, "snr_grid_db": [0.0],
                "trials_per_point": 1, "master_seed": 1}
        with pytest.raises(ValueError, match="^code = .* must be a string$"):
            SimulationCampaign.from_json(data)

    def test_empty_ordering_is_not_null(self):
        camp = SimulationCampaign.from_json({
            "code": "golden", "m": 2, "snr_grid_db": [0.0],
            "trials_per_point": 1, "master_seed": 1, "ordering": []})
        assert camp.ordering == ()
        assert camp.to_json()["ordering"] == []
        with pytest.raises(codes.InvalidPermutation):
            run_sweep(camp)

    def test_integral_floats_accepted(self):
        # JSON Schema counts 4.0 as an integer
        camp = SimulationCampaign.from_json({
            "code": "bhv", "m": 4.0, "snr_grid_db": [0.0],
            "trials_per_point": 2.0, "master_seed": 3.0, "n_r": 2.0})
        counts = (camp.m, camp.trials_per_point, camp.master_seed, camp.n_r)
        assert counts == (4, 2, 3, 2)
        assert all(type(v) is int for v in counts)

    def test_json_round_trip(self):
        camp = SimulationCampaign(code="bhv", m=4, snr_grid_db=(0.0, 4.0),
                                  trials_per_point=5, master_seed=9)
        again = SimulationCampaign.from_json(camp.to_json())
        assert again == camp

    @pytest.mark.parametrize("data, text", [
        ({"code": "bhv", "m": 2, "snr_grid_db": [0, 4, 8, 12, 16, 20],
          "trials_per_point": 200, "master_seed": 7},
         '{"code": "bhv", "m": 2, "snr_grid_db": [0.0, 4.0, 8.0, 12.0, 16.0, '
         '20.0], "trials_per_point": 200, "master_seed": 7, "ordering": null, '
         '"n_r": null'),
        ({"code": "golden", "m": 8, "snr_grid_db": [15, 20],
          "trials_per_point": 3500, "master_seed": 7},
         '{"code": "golden", "m": 8, "snr_grid_db": [15.0, 20.0], '
         '"trials_per_point": 3500, "master_seed": 7, "ordering": null, '
         '"n_r": null'),
        ({"code": "ci-a2", "m": 4, "snr_grid_db": [8, 12, 20],
          "trials_per_point": 1000, "master_seed": 7},
         '{"code": "ci-a2", "m": 4, "snr_grid_db": [8.0, 12.0, 20.0], '
         '"trials_per_point": 1000, "master_seed": 7, "ordering": null, '
         '"n_r": null'),
        ({"code": "bhv", "m": 2, "snr_grid_db": [0.5, 3], "trials_per_point": 5,
          "master_seed": 0, "ordering": [], "n_r": 2},
         '{"code": "bhv", "m": 2, "snr_grid_db": [0.5, 3.0], '
         '"trials_per_point": 5, "master_seed": 0, "ordering": [], "n_r": 2'),
    ], ids=["bhv-4qam-sweep", "golden-64qam", "ci-a2-16qam", "empty-ordering"])
    def test_to_json_bytes(self, data, text):
        # the simulate config line and the benchmark manifest print these
        campaign = SimulationCampaign.from_json(data)
        assert json.dumps(campaign.to_json()) == (
            text + ', "rng": "numpy-PCG64/standard_normal"}')

    @pytest.mark.parametrize("text, shown", [
        ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf")])
    def test_non_finite_snr_rejected(self, text, shown):
        # NaN passed the increasing check and inf ran as a noiseless point
        data = json.loads('{"code": "bhv", "m": 2, "snr_grid_db": [0, %s], '
                          '"trials_per_point": 1, "master_seed": 1}' % text)
        with pytest.raises(ValueError,
                           match=rf"^snr_grid_db\[1\] = {shown} must be finite$"):
            SimulationCampaign.from_json(data)

    @pytest.mark.parametrize("rng", ["mt19937", "numpy-PCG64", None, 7])
    def test_foreign_rng_rejected(self, rng):
        data = {"code": "bhv", "m": 2, "snr_grid_db": [0.0],
                "trials_per_point": 1, "master_seed": 1, "rng": rng}
        with pytest.raises(ValueError, match=f"^rng = {rng!r} must be "):
            SimulationCampaign.from_json(data)

    def test_own_rng_and_absent_rng_accepted(self):
        data = {"code": "bhv", "m": 2, "snr_grid_db": [0.0],
                "trials_per_point": 1, "master_seed": 1}
        named = SimulationCampaign.from_json(dict(data, rng=sim.RNG_ALGORITHM))
        assert named == SimulationCampaign.from_json(data)

    @pytest.mark.parametrize("key", ["code", "m", "snr_grid_db",
                                     "trials_per_point", "master_seed"])
    def test_missing_key_rejected(self, key):
        # each used to raise a bare KeyError
        data = {"code": "bhv", "m": 2, "snr_grid_db": [0.0],
                "trials_per_point": 1, "master_seed": 3}
        del data[key]
        with pytest.raises(ValueError,
                           match=rf"^missing campaign key\(s\) \['{key}'\]$"):
            SimulationCampaign.from_json(data)

    def test_non_string_key_rejected(self):
        # sorting 1 with an unknown string key raised a stray TypeError
        data = {"code": "bhv", "m": 2, "snr_grid_db": [0.0],
                "trials_per_point": 1, "master_seed": 3, 1: "x", "note": "y"}
        with pytest.raises(ValueError,
                           match=r"^unknown campaign key\(s\) \[1, 'note'\]$"):
            SimulationCampaign.from_json(data)

    def test_snr_too_large_for_a_float_rejected(self):
        # float() of a 401-digit integer raised OverflowError
        big = 10 ** 400
        data = {"code": "bhv", "m": 2, "snr_grid_db": [0, big],
                "trials_per_point": 1, "master_seed": 3}
        named = r"^snr_grid_db\[1\] must be a number that fits a float$"
        with pytest.raises(ValueError, match=named):
            SimulationCampaign.from_json(data)
        with pytest.raises(ValueError, match=named):
            SimulationCampaign(code="bhv", m=2, snr_grid_db=(0, big),
                               trials_per_point=1, master_seed=3)

    @pytest.mark.parametrize("key, value", [
        ("modes", ["baseline", "memoized"]), ("n_rr", 3)])
    def test_unknown_key_rejected(self, key, value):
        # a misspelt n_r, or the long-dropped modes, would run with defaults
        data = {"code": "bhv", "m": 2, "snr_grid_db": [0.0],
                "trials_per_point": 1, "master_seed": 3, key: value}
        with pytest.raises(ValueError,
                           match=rf"^unknown campaign key\(s\) \['{key}'\]$"):
            SimulationCampaign.from_json(data)


class TestRunSweep:
    def test_single_trial_equals_run_trial(self):
        camp = SimulationCampaign(code="bhv", m=2, snr_grid_db=(6.0,),
                                  trials_per_point=1, master_seed=123)
        result = run_sweep(camp)
        code = codes.named_code("bhv")
        cons = PamConstellation(2)
        profile = resolve_profile(code)
        seed = np.random.SeedSequence([123, 0, 0])
        trial = run_trial(code, cons, 6.0, seed, profile)
        row = result.rows[0]
        assert row.mean_em_baseline == trial.stats_baseline.em_evaluations
        assert row.mean_em_memoized == trial.stats_memoized.em_evaluations
        assert row.mean_flops_baseline == trial.stats_baseline.flops

    def test_deterministic(self):
        camp = SimulationCampaign(code="golden", m=2, snr_grid_db=(0.0, 8.0),
                                  trials_per_point=20, master_seed=5)
        assert run_sweep(camp) == run_sweep(camp)

    def test_emrr_in_unit_interval(self):
        camp = SimulationCampaign(code="bhv", m=2, snr_grid_db=(0.0, 10.0),
                                  trials_per_point=50, master_seed=2)
        for row in run_sweep(camp).rows:
            assert 0.0 < row.emrr <= 1.0

    def test_larger_k_gives_lower_emrr(self):
        # same product k * gamma: (2,4,1) vs (2,2,2) at one SNR and M
        shared = dict(m=2, snr_grid_db=(2.0,), trials_per_point=150,
                      master_seed=31)
        bhv = run_sweep(SimulationCampaign(code="bhv", **shared))
        golden = run_sweep(SimulationCampaign(code="golden-222", **shared))
        assert bhv.rows[0].emrr < golden.rows[0].emrr

    def test_bigger_constellation_lowers_emrr(self):
        shared = dict(code="bhv", snr_grid_db=(0.0,), trials_per_point=100,
                      master_seed=17)
        small = run_sweep(SimulationCampaign(m=2, **shared))
        large = run_sweep(SimulationCampaign(m=4, **shared))
        assert large.rows[0].emrr < small.rows[0].emrr

    def test_ordering_override(self):
        camp = SimulationCampaign(code="golden", m=2, snr_grid_db=(6.0,),
                                  trials_per_point=3, master_seed=8,
                                  ordering=codes.GOLDEN_ORDERING_222)
        # reordering drops the declared profile; detection finds (2,2,2)
        result = run_sweep(camp)
        assert result.rows[0].trials == 3

    def test_decoder_disagreement_names_the_trial(self, monkeypatch):
        monkeypatch.setattr(sim, "run_trial", corrupt_trial(9, 1, 2))
        camp = SimulationCampaign(code="bhv", m=2, snr_grid_db=(0.0, 6.0),
                                  trials_per_point=4, master_seed=9)
        with pytest.raises(AssertionError, match=re.escape("trial (9, 1, 2)")):
            run_sweep(camp)

    def test_corrupt_memo_entry_names_the_trial(self, monkeypatch):
        # a wrong value inside the memoized walk's own table, not a
        # doctored trial result, trips the sweep's invariant check
        monkeypatch.setattr(decoder, "_walk", corrupt_memo_entry(5))
        camp = SimulationCampaign(code="bhv", m=2, snr_grid_db=(0.0, 6.0),
                                  trials_per_point=4, master_seed=9)
        with pytest.raises(AssertionError, match=re.escape("trial (9, 1, 1)")):
            run_sweep(camp)

    def test_sweep_prepares_each_trial_once(self, monkeypatch):
        # one set-up per trial, handed to both decodes with the R and y'
        # objects it was built from, baseline first
        prepared, decodes = [], []

        def spy_prepare(*args):
            prepared.append(decoder.prepare(*args))
            return prepared[-1]

        def spy_decode(*args, **kwargs):
            decodes.append((args, kwargs))
            return decoder.sphere_decode(*args, **kwargs)

        monkeypatch.setattr(sim, "prepare", spy_prepare)
        monkeypatch.setattr(sim, "sphere_decode", spy_decode)
        camp = SimulationCampaign(code="ci-a2", m=2, snr_grid_db=(0.0, 6.0),
                                  trials_per_point=3, master_seed=5)
        run_sweep(camp)
        assert len(prepared) == 6 and len(decodes) == 12
        for i, inst in enumerate(prepared):
            for memoize, (args, kwargs) in zip((False, True),
                                               decodes[2 * i:2 * i + 2]):
                assert kwargs["prepared"] is inst
                assert kwargs["memoize"] is memoize
                assert args[0] is inst.r and args[1] is inst.y_prime
                assert args[3] == inst.profile

    def test_bad_snr_fails_before_the_first_trial(self, monkeypatch):
        # the 4000 dB point used to fail only after every 10 dB trial ran
        monkeypatch.setattr(sim, "run_trial",
                            lambda *args, **kwargs: pytest.fail("ran a trial"))
        camp = SimulationCampaign(code="bhv", m=2, snr_grid_db=(10, 4000),
                                  trials_per_point=3, master_seed=5)
        with pytest.raises(ValueError, match="^snr_db = 4000.0 gives no "):
            run_sweep(camp)

    def test_unstructured_code_rejected(self):
        camp = SimulationCampaign(code="golden", m=2, snr_grid_db=(6.0,),
                                  trials_per_point=1, master_seed=8,
                                  ordering=codes.GOLDEN_ORDERING_SCRAMBLED)
        with pytest.raises(ValueError, match="no block-orthogonal"):
            run_sweep(camp)


class TestCsv:
    def test_header_exact(self):
        assert CSV_HEADER == ("snr_db,trials,mean_em_baseline,mean_em_memoized,"
                              "emrr,mean_flops_baseline,mean_flops_memoized,"
                              "flop_reduction_pct,seed")

    def test_rows_parse_back(self):
        camp = SimulationCampaign(code="bhv", m=2, snr_grid_db=(0.0, 4.0),
                                  trials_per_point=5, master_seed=77)
        result = run_sweep(camp)
        text = sweep_to_csv(result)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 2
        assert float(parsed[0]["snr_db"]) == 0.0
        assert int(parsed[1]["seed"]) == 77


class TestReceiveAntennas:
    @pytest.mark.parametrize("n_r", [0, -1])
    @pytest.mark.parametrize("entry", [
        lambda code, n_r: run_trial(code, PamConstellation(2), 4.0, 3,
                                    BlockOrthogonalProfile(2, 4, 1), n_r=n_r),
        lambda code, n_r: structural_pattern(code, n_r=n_r),
        lambda code, n_r: detect_structure(code, n_r=n_r),
        # bhv declares its profile, so nothing would draw a channel
        lambda code, n_r: resolve_profile(code, n_r=n_r),
    ], ids=["run_trial", "structural_pattern", "detect_structure",
            "resolve_profile"])
    def test_below_one_rejected(self, entry, n_r):
        # a falsy n_r must not fall back to n_t receive antennas
        with pytest.raises(ValueError, match=f"^n_r = {n_r} must be"):
            entry(codes.named_code("bhv"), n_r)

    @pytest.mark.parametrize("n_r", [True, 2.0])
    def test_non_integer_rejected(self, n_r):
        code = codes.named_code("bhv")
        with pytest.raises(ValueError, match=f"^n_r = {n_r} must be"):
            run_trial(code, PamConstellation(2), 4.0, 3,
                      BlockOrthogonalProfile(2, 4, 1), n_r=n_r)

    def test_numpy_integer_accepted(self):
        code = codes.named_code("bhv")
        trial = [run_trial(code, PamConstellation(2), 4.0, 3,
                           BlockOrthogonalProfile(2, 4, 1), n_r=n_r)
                 for n_r in (np.int64(3), 3)]
        assert trial[0] == trial[1]


class TestSweepFingerprint:
    # integer (EM baseline, EM memoized, FLOPs baseline, FLOPs memoized)
    # sums per SNR point of small seeded campaigns: a change to the draws,
    # the channel, the QR, the set-up or the walk moves at least one
    EXPECTED = {
        ("bhv", 2, (0.0, 10.0, 20.0), 50): (
            (1014, 400, 18121, 14163),
            (634, 400, 9711, 7865),
            (408, 400, 5335, 4691)),
        ("golden", 8, (15.0, 20.0), 20): (
            (2984, 2576, 14129, 12509),
            (17648, 15128, 85633, 76145)),
        ("ci-a2", 4, (8.0, 20.0), 20): (
            (7844, 1052, 130803, 89947),
            (648, 648, 9300, 8328)),
    }

    @pytest.mark.parametrize("campaign", sorted(EXPECTED), ids=lambda c: c[0])
    def test_sums_are_pinned(self, campaign):
        code, m, grid, n = campaign
        result = run_sweep(SimulationCampaign(
            code=code, m=m, snr_grid_db=grid, trials_per_point=n,
            master_seed=3))
        sums = tuple(
            tuple(round(mean * row.trials) for mean in (
                row.mean_em_baseline, row.mean_em_memoized,
                row.mean_flops_baseline, row.mean_flops_memoized))
            for row in result.rows)
        assert sums == self.EXPECTED[campaign]
