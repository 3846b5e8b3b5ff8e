"""Command-line interface tests (exit codes, formats, grid output)."""

import json

import numpy as np
import pytest

from bostbc.cli import main
from bostbc.codes import code_to_json, load_code, named_code

from conftest import GOLDEN_PATTERN_421, parse_pattern


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestConstruct:
    def test_golden(self, tmp_path, capsys):
        out_file = tmp_path / "golden.json"
        rc, out, _ = run_cli(capsys, "construct", "golden", "--out", str(out_file))
        assert rc == 0
        code = load_code(out_file)
        assert code.k_real == 8
        assert code.declared_profile == (4, 2, 1)

    def test_ci_bhv(self, tmp_path, capsys):
        out_file = tmp_path / "ci.json"
        rc, out, _ = run_cli(capsys, "construct", "ci", "--a", "1",
                             "--m", "bhv", "--out", str(out_file))
        assert rc == 0
        assert load_code(out_file).declared_profile == (2, 4, 1)

    @pytest.mark.parametrize("argv", [("cuwd",), ("ciod",),
                                      ("cii", "--design", "golden")])
    def test_removed_choices_exit_2(self, tmp_path, capsys, argv):
        # construct ci covers cuwd; ciod and --design never built anything
        with pytest.raises(SystemExit) as exc:
            main(["construct", *argv, "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2
        assert not (tmp_path / "x.json").exists()

    def test_design_size_outside_1_2_exits_2(self, tmp_path, capsys):
        # no shipped companion matrix fits the 8-antenna design of a = 3
        with pytest.raises(SystemExit) as exc:
            main(["construct", "ci", "--a", "3", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("name", ["ciii", "cii", "golden"])
    def test_design_size_outside_ci_civ_exits_2(self, tmp_path, capsys, name):
        # only the CUWD and CIOD designs come in two sizes
        out_file = tmp_path / "x.json"
        rc, _, err = run_cli(capsys, "construct", name, "--a", "2",
                             "--out", str(out_file))
        assert rc == 2
        assert "--a sizes only the ci and civ designs" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("argv, named", [(("ciii",), "ciii-golden"),
                                             (("civ", "--a", "2"), "civ-a2")])
    def test_default_companion_matrices(self, tmp_path, capsys, argv, named):
        out_file = tmp_path / "x.json"
        rc, _, _ = run_cli(capsys, "construct", *argv, "--out", str(out_file))
        assert rc == 0
        assert code_to_json(load_code(out_file)) == code_to_json(named_code(named))

    def test_rank_deficient_exits_2(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "construct", "ciii", "--m", "identity",
                             "--out", str(tmp_path / "x.json"))
        assert rc == 2
        assert "rank" in err.lower()


class TestAnalyze:
    def test_golden_421_grid(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "golden",
                             "--ordering", "0,1,3,2,4,5,7,6")
        assert rc == 0
        grid_lines = [ln for ln in out.splitlines()
                      if ln and set(ln.split()) <= {"t", "0"}]
        assert np.array_equal(parse_pattern("\n".join(grid_lines)),
                              GOLDEN_PATTERN_421)
        assert "profile: (4, 2, 1)" in out

    def test_scrambled_reports_no_structure(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "golden",
                             "--ordering", "0,1,6,3,4,5,2,7")
        assert rc == 0
        assert "no block-orthogonal structure" in out

    def test_alamouti_diagonal_grid(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "alamouti")
        assert rc == 0
        grid_lines = [ln for ln in out.splitlines()
                      if ln and set(ln.split()) <= {"t", "0"}]
        assert np.array_equal(parse_pattern("\n".join(grid_lines)),
                              np.eye(4, dtype=bool))
        assert "multi-group with g = 4" in out

    def test_json_format(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "bhv", "--format", "json")
        assert rc == 0
        payload = json.loads(out[out.index("{"):])
        assert payload["classification"] == "block-orthogonal"
        assert payload["profile"] == [2, 4, 1]
        assert {c["name"] for c in payload["conditions"]}

    def test_label_ordering(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "golden", "--ordering",
                             "s1I,s2I,s1Q,s2Q,s3I,s4I,s3Q,s4Q")
        assert rc == 0
        assert "profile: (2, 2, 2)" in out

    def test_missing_file_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "analyze", "nonexistent.json")
        assert rc == 2

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "1", "2"])
    def test_tol_outside_unit_interval_exits_2(self, capsys, tol):
        rc, _, err = run_cli(capsys, "analyze", "bhv", f"--tol={tol}")
        assert rc == 2
        assert "tol_rel" in err

    def test_zero_tol_runs(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "bhv", "--tol=0")
        assert rc == 0
        assert "classification:" in out


class TestVerify:
    def test_declared_profile_premises(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "ciii-golden")
        assert rc == 0
        assert "pass=True" in out

    def test_construction_i_flag(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "ci-a1", "--construction-i",
                             "--format", "json")
        assert rc == 0
        payload = json.loads(out[out.index("{"):])
        assert payload["construction_i"]["pass"] is True

    def test_nothing_to_verify(self, capsys):
        rc, _, err = run_cli(capsys, "verify", "alamouti")
        assert rc == 2


@pytest.mark.parametrize("channels", ["0", "-3"])
@pytest.mark.parametrize("argv", [("analyze", "bhv"), ("verify", "bhv"),
                                  ("verify", "bhv", "--construction-i")])
def test_channels_below_one_exit_2(capsys, argv, channels):
    rc, _, err = run_cli(capsys, *argv, f"--channels={channels}")
    assert rc == 2
    assert "error: n_channels must be >= 1" in err


class TestBounds:
    def test_values(self, capsys):
        rc, out, _ = run_cli(capsys, "bounds", "--profile", "2,4,1", "--m", "4")
        assert rc == 0
        assert "4/85" in out  # 12/255 in lowest terms
        assert "mem_entries  12" in out

    def test_json(self, capsys):
        rc, out, _ = run_cli(capsys, "bounds", "--profile", "2,2,1", "--m", "2",
                             "--format", "json")
        payload = json.loads(out)
        assert payload["emrr"] == [2, 3]
        assert payload["o_stbc"] == 6

    def test_bad_profile_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "bounds", "--profile", "2,4", "--m", "4")
        assert rc == 2


class TestDecode:
    def test_smoke(self, capsys):
        rc, out, _ = run_cli(capsys, "decode", "bhv", "--m", "2",
                             "--snr", "30", "--seed", "5")
        assert rc == 0
        assert "transmitted" in out
        assert "cache_hits" in out

    @pytest.mark.parametrize("snr", ["-1e308", "1e308", "-inf", "nan"])
    def test_snr_without_finite_noise_exits_2(self, capsys, snr):
        rc, _, err = run_cli(capsys, "decode", "bhv", "--m", "2",
                             f"--snr={snr}")
        assert rc == 2
        assert "snr_db" in err


class TestSimulate:
    def test_one_trial_campaign(self, tmp_path, capsys):
        campaign = {
            "code": "bhv", "m": 2, "snr_grid_db": [10.0],
            "trials_per_point": 1, "master_seed": 4,
        }
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(campaign))
        out_csv = tmp_path / "rows.csv"
        rc, out, _ = run_cli(capsys, "simulate", str(cfg), "--out", str(out_csv))
        assert rc == 0
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 2  # header + one row
        assert lines[0].startswith("snr_db,trials,")

    def test_invalid_grid_exits_2(self, tmp_path, capsys):
        campaign = {
            "code": "bhv", "m": 2, "snr_grid_db": [10.0, 4.0],
            "trials_per_point": 1, "master_seed": 4,
        }
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(campaign))
        rc, _, err = run_cli(capsys, "simulate", str(cfg))
        assert rc == 2
