"""Command-line interface tests (exit codes, formats, grid output)."""

import argparse
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from bostbc import cli, decoder, sim
from bostbc.cli import build_parser, main
from bostbc.codes import CODE_NAMES, code_to_json, load_code, named_code, save_code

from conftest import (
    GOLDEN_PATTERN_421,
    corrupt_memo_entry,
    corrupt_trial,
    parse_pattern,
)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_console_script_resolves_to_main():
    # every other CLI test calls main in-process, past the entry point
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, name = scripts["bostbc"].partition(":")
    assert (module, name) == ("bostbc.cli", "main")
    assert getattr(importlib.import_module(module), name) is main


@pytest.mark.parametrize("argv, expected", [
    ("construct golden --out g.json",
     {"command": "construct", "func": "cmd_construct", "m": None,
      "name": "golden", "out": "g.json"}),
    ("construct ci-a1 --m bhv --out ci.json",
     {"command": "construct", "func": "cmd_construct", "m": "bhv",
      "name": "ci-a1", "out": "ci.json"}),
    ("analyze bhv",
     {"channels": 20, "code": "bhv", "command": "analyze", "format": "text",
      "func": "cmd_analyze", "ordering": None, "seed": 20230, "tol": 1e-09}),
    ("analyze code.json --ordering 0,2,1,3 --channels 5 --seed 3 --tol 1e-6 "
     "--format json",
     {"channels": 5, "code": "code.json", "command": "analyze",
      "format": "json", "func": "cmd_analyze", "ordering": "0,2,1,3",
      "seed": 3, "tol": 1e-06}),
    ("verify bhv",
     {"channels": 20, "code": "bhv", "command": "verify",
      "construction_i": False, "format": "text", "func": "cmd_verify",
      "ordering": None, "profile": None, "seed": 20230}),
    ("verify golden --ordering 0,1,6,3,4,5,2,7 --profile 2,2,2 "
     "--construction-i --channels 7 --seed 11 --format json",
     {"channels": 7, "code": "golden", "command": "verify",
      "construction_i": True, "format": "json", "func": "cmd_verify",
      "ordering": "0,1,6,3,4,5,2,7", "profile": "2,2,2", "seed": 11}),
    ("decode bhv",
     {"code": "bhv", "command": "decode", "format": "text",
      "func": "cmd_decode", "m": 4, "seed": 0, "snr": 10.0, "trace": None}),
    ("decode golden --m 8 --snr 15.5 --seed 4 --trace t.jsonl --format json",
     {"code": "golden", "command": "decode", "format": "json",
      "func": "cmd_decode", "m": 8, "seed": 4, "snr": 15.5,
      "trace": "t.jsonl"}),
    ("bounds --profile 2,4,1 --m 4",
     {"command": "bounds", "format": "text", "func": "cmd_bounds", "m": 4,
      "profile": "2,4,1"}),
    ("bounds --profile 2,2,2 --m 8 --format json",
     {"command": "bounds", "format": "json", "func": "cmd_bounds", "m": 8,
      "profile": "2,2,2"}),
    ("simulate campaign.json",
     {"campaign": "campaign.json", "command": "simulate",
      "func": "cmd_simulate", "out": None}),
    ("simulate campaign.json --out sweep.csv",
     {"campaign": "campaign.json", "command": "simulate",
      "func": "cmd_simulate", "out": "sweep.csv"}),
])
def test_every_flag_parses_to_its_pinned_namespace(argv, expected):
    # every subcommand and flag, with each default, as the parser reads it
    parsed = vars(build_parser().parse_args(argv.split()))
    parsed["func"] = parsed["func"].__name__
    assert parsed == expected


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
        rc, out, _ = run_cli(capsys, "construct", "ci-a1", "--m", "bhv",
                             "--out", str(out_file))
        assert rc == 0
        assert load_code(out_file).declared_profile == (2, 4, 1)

    def test_choices_are_the_named_codes(self):
        construct = build_parser()._subparsers._group_actions[0].choices["construct"]
        name = next(a for a in construct._actions if a.dest == "name")
        assert tuple(name.choices) == CODE_NAMES
        assert len(CODE_NAMES) == 12
        assert not any(a.dest == "a" for a in construct._actions)

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_writes_the_named_code(self, tmp_path, capsys, name):
        out_file, want = tmp_path / "cli.json", tmp_path / "named.json"
        rc, _, _ = run_cli(capsys, "construct", name, "--out", str(out_file))
        assert rc == 0
        save_code(named_code(name), want)
        assert out_file.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("argv", [("cuwd",), ("ciod",),
                                      ("cii", "--design", "golden"),
                                      ("ci",), ("ciii",), ("civ",),
                                      ("ci-a1", "--a", "2")])
    def test_removed_choices_exit_2(self, tmp_path, capsys, argv):
        # ci-a1 covers cuwd; ciod and --design never built anything; a sum
        # code's name fixes its design size, so there is no --a
        with pytest.raises(SystemExit) as exc:
            main(["construct", *argv, "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2
        assert not (tmp_path / "x.json").exists()

    def test_design_size_outside_1_2_exits_2(self, tmp_path, capsys):
        # no shipped companion matrix fits the 8-antenna design of a = 3,
        # so the registry has no a = 3 sum code
        with pytest.raises(SystemExit) as exc:
            main(["construct", "ci-a3", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("name", ["golden", "cii-golden", "bhv"])
    def test_companion_matrix_outside_ci_ciii_civ_exits_2(self, tmp_path, capsys,
                                                           name):
        # only the sum constructions with an m-copy take a companion matrix
        out_file = tmp_path / "x.json"
        rc, _, err = run_cli(capsys, "construct", name, "--m", "bhv",
                             "--out", str(out_file))
        assert rc == 2
        assert f"code {name!r} takes no companion matrix" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("argv, named", [(("ciii-golden", "--m", "golden"),
                                              "ciii-golden"),
                                             (("civ-a2", "--m", "a2"), "civ-a2"),
                                             (("ci-a2", "--m", "a2"), "ci-a2")])
    def test_default_companion_matrices(self, tmp_path, capsys, argv, named):
        # naming a sum code's default companion writes the default code
        out_file = tmp_path / "x.json"
        rc, _, _ = run_cli(capsys, "construct", *argv, "--out", str(out_file))
        assert rc == 0
        assert code_to_json(load_code(out_file)) == code_to_json(named_code(named))

    def test_companion_override(self, tmp_path, capsys):
        out_file = tmp_path / "x.json"
        rc, _, _ = run_cli(capsys, "construct", "civ-a1", "--m", "golden",
                           "--out", str(out_file))
        assert rc == 0
        assert code_to_json(load_code(out_file)) == code_to_json(
            named_code("civ-a1", "golden"))
        assert code_to_json(load_code(out_file)) != code_to_json(
            named_code("civ-a1"))

    def test_rank_deficient_exits_2(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "construct", "ciii-golden", "--m", "identity",
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

    @pytest.mark.parametrize("field, value, named", [
        ("weights", [], "weights"),
        ("declared_profile", [2, 4], "declared_profile"),
        ("declared_profile", [2, 4, 1.5], "declared_profile[2]"),
        ("declared_profile", [2, 0, 4], "declared_profile"),
        ("labels", "abcdefgh", "labels"),
        ("declared_profile", [2, 2, 1], "declared_profile"),
    ])
    def test_malformed_code_file_exits_2(self, tmp_path, capsys, field,
                                         value, named):
        data = dict(code_to_json(named_code("bhv")), **{field: value})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        for argv in (("analyze", str(path)), ("verify", str(path))):
            rc, out, err = run_cli(capsys, *argv)
            assert rc == 2
            assert err.startswith(f"error: {named} = ")
            assert out == ""

    @pytest.mark.parametrize("entry", [[1, "x"], [1, 2, 3], [True, False]])
    def test_malformed_weight_entry_exits_2(self, tmp_path, capsys, entry):
        data = code_to_json(named_code("bhv"))
        data["weights"][3][1][0] = entry
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        rc, out, err = run_cli(capsys, "analyze", str(path))
        assert rc == 2
        assert err.startswith(f"error: weights[3][1][0] = {entry!r} must be ")
        assert out == ""

    def test_non_object_code_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        rc, out, err = run_cli(capsys, "analyze", str(path))
        assert rc == 2
        assert err.startswith("error: code = [] must be a JSON object")
        assert out == ""

    def test_missing_file_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "analyze", "nonexistent.json")
        assert rc == 2

    @pytest.mark.parametrize("key", ["n_t", "t", "k_real", "labels", "weights"])
    def test_missing_code_key_exits_2(self, tmp_path, capsys, key):
        # a missing key used to print the bare KeyError text, e.g. 'k_real'
        data = code_to_json(named_code("bhv"))
        del data[key]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        rc, out, err = run_cli(capsys, "analyze", str(path))
        assert (rc, out) == (2, "")
        assert err == f"error: missing code key(s) ['{key}']\n"

    def test_unknown_code_key_exits_2(self, tmp_path, capsys):
        # the code schema has additionalProperties: false
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(code_to_json(named_code("bhv")) | {"note": "x"}))
        rc, out, err = run_cli(capsys, "analyze", str(path))
        assert (rc, out) == (2, "")
        assert err == "error: unknown code key(s) ['note']\n"

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "1", "2"])
    def test_tol_outside_unit_interval_exits_2(self, capsys, tol):
        rc, out, err = run_cli(capsys, "analyze", "bhv", f"--tol={tol}")
        assert rc == 2
        assert out == ""  # rejected before the config line
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
        assert list(payload["construction_i"]) == [
            "r1_blocks_equal", "r1_block_diagonal", "e_structure",
            "e_structure_orientation", "r2_block_diagonal", "pass"]
        assert payload["construction_i"]["pass"] is True

    def test_profile_overrides_declared(self, capsys):
        # bhv declares (2, 4, 1); its diagonal conditioned block also meets
        # the coarser (2, 2, 2)
        rc, out, _ = run_cli(capsys, "verify", "bhv", "--profile", "2,2,2",
                             "--format", "json")
        assert rc == 0
        premises = json.loads(out[out.index("{"):])["premises"]
        assert premises["profile"] == [2, 2, 2]
        assert premises["pass"] is True
        assert [c["name"] for c in premises["conditions"]] == [
            "block-1-group-decodable", "block-2-group-decodable",
            "r-full-rank", "ete-block-diagonal-at-4"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", [
        ("--ordering", "0,1,6,3,4,5,2,7", "--profile", "2,2,2"),
        ("--construction-i",)])
    def test_failed_check_exits_1(self, capsys, argv, fmt):
        # the full report prints before the exit code reports the failure
        rc, out, err = run_cli(capsys, "verify", "golden", *argv,
                               "--format", fmt)
        assert rc == 1
        assert err == ""
        if fmt == "json":
            results = json.loads(out[out.index("{"):])
            assert [body["pass"] for body in results.values()].count(False) == 1
        else:
            assert out.count("pass=False") == 1

    def test_check_refusal_prints_no_config(self, capsys):
        # alamouti has K = 4, not a construction-I size; the config line
        # used to print before the error
        rc, out, err = run_cli(capsys, "verify", "alamouti", "--construction-i")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: construction-I codes have K = ")

    def test_nothing_to_verify(self, capsys):
        rc, _, err = run_cli(capsys, "verify", "alamouti")
        assert rc == 2

    def test_profile_of_another_size_exits_2(self, capsys):
        rc, out, err = run_cli(capsys, "verify", "bhv", "--profile", "2,2,1")
        assert rc == 2
        assert out == ""  # rejected before the config line
        assert "error: --profile 2,2,1 covers 4 symbols, bhv has 8" in err


@pytest.mark.parametrize("seed", ["-1", "x"])
@pytest.mark.parametrize("argv", [("analyze", "bhv"), ("verify", "bhv"),
                                  ("decode", "bhv")])
def test_seed_not_a_non_negative_integer_exits_2(capsys, argv, seed):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", seed])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""  # rejected before the config line
    assert f"argument --seed: must be a non-negative integer, got '{seed}'" in out.err


@pytest.mark.parametrize("channels", ["0", "-3"])
@pytest.mark.parametrize("argv", [("analyze", "bhv"), ("verify", "bhv"),
                                  ("verify", "bhv", "--construction-i")])
def test_channels_below_one_exit_2(capsys, argv, channels):
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--channels={channels}"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""  # rejected before the config line
    assert (f"argument --channels: must be an integer >= 1, got '{channels}'"
            in out.err)


@pytest.mark.parametrize("channels", ["10001", "100000"])
@pytest.mark.parametrize("argv", [("analyze", "bhv"), ("verify", "bhv"),
                                  ("verify", "bhv", "--construction-i")])
def test_channels_above_the_ceiling_exit_2(capsys, argv, channels):
    # a check holds every sampled R at once, so its memory grows with
    # --channels; the ceiling itself is accepted
    assert cli._channel_count("10000") == 10000
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--channels={channels}"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""  # rejected before the config line
    assert (f"argument --channels: must be at most 10000, got '{channels}'"
            in out.err)


def test_channels_ceiling_is_the_structural_checks(monkeypatch):
    # one ceiling: the flag refuses what the checks it feeds would refuse
    monkeypatch.setattr("bostbc.structure._MAX_CHANNELS", 5)
    assert cli._channel_count("5") == 5
    with pytest.raises(argparse.ArgumentTypeError,
                       match="^must be at most 5, got '6'$"):
        cli._channel_count("6")


@pytest.mark.parametrize("argv", [("analyze", "bhv"), ("verify", "bhv")])
def test_channels_count_is_used(capsys, argv):
    rc, out, _ = run_cli(capsys, *argv, "--channels", "5")
    assert rc == 0
    assert out.startswith("config: channels=5 seed=")


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

    @pytest.mark.parametrize("m", ["3", "1", "16"])
    def test_m_outside_pam_sizes_exits_2(self, capsys, m):
        rc, out, err = run_cli(capsys, "bounds", "--profile", "2,4,1", "--m", m)
        assert rc == 2
        assert out == ""
        assert "error: points per real dimension must be 2, 4 or 8" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("profile", ["20,16,16", "64,64,64"])
    def test_count_too_long_to_print_exits_2(self, capsys, profile, fmt):
        # o_stbc has 4393 and about 233,000 digits; the second is refused
        # before any power is formed
        rc, out, err = run_cli(capsys, "bounds", "--profile", profile,
                               "--m", "8", "--format", fmt)
        assert rc == 2
        assert out == ""
        shape = profile.replace(",", ", ")
        assert err.startswith(f"error: o_stbc for profile ({shape}) at m=8 "
                              "has more than 4300 digits")

    def test_longest_printable_count_prints(self, capsys):
        # o_stbc = 2^(depth + 1) - 2 has 4300 digits at depth 14283, 4301 at
        # 14284
        rc, out, _ = run_cli(capsys, "bounds", "--profile", "2,1,14283",
                             "--m", "2", "--format", "json")
        assert rc == 0
        assert json.loads(out)["o_stbc"] == 2 ** 14284 - 2
        rc, out, err = run_cli(capsys, "bounds", "--profile", "2,1,14284",
                               "--m", "2")
        assert (rc, out) == (2, "")
        assert "has more than 4300 digits" in err


class TestDecode:
    def test_smoke(self, capsys):
        rc, out, _ = run_cli(capsys, "decode", "bhv", "--m", "2",
                             "--snr", "30", "--seed", "5")
        assert rc == 0
        assert "transmitted" in out
        assert "cache_hits" in out

    def test_trace_file_holds_the_memoized_records(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        rc, out, _ = run_cli(capsys, "decode", "ci-a2", "--m", "4", "--snr",
                             "8", "--seed", "3", "--trace", str(path))
        assert rc == 0
        code = named_code("ci-a2")
        want = []
        sim.run_trial(code, decoder.PamConstellation(4), 8.0,
                      np.random.SeedSequence(3), sim.resolve_profile(code),
                      trace=want)
        got = [json.loads(line) for line in path.read_text().splitlines()]
        assert want and got == want
        assert f"wrote {len(want)} trace records to {path}" in out

    def test_disagreement_exits_1_after_the_report(self, capsys, monkeypatch):
        # bhv at seed 1 (16-QAM, 10 dB) replays 4 memo entries; corrupting
        # the first moves the memoized decode off the baseline's
        argv = ("decode", "bhv", "--seed", "1", "--format", "json")
        rc, out, _ = run_cli(capsys, *argv)
        report = json.loads(out[out.index("{"):])
        assert rc == 0 and report["memoized"]["cache_hits"] == 4
        monkeypatch.setattr(decoder, "_walk", corrupt_memo_entry(0))
        rc, out, err = run_cli(capsys, *argv)
        report = json.loads(out[out.index("{"):])
        assert rc == 1
        assert err == ""
        assert report["memoized"]["decoded"] != report["baseline"]["decoded"]

    def test_unwritable_trace_exits_2_before_the_decode(self, tmp_path,
                                                        capsys, monkeypatch):
        monkeypatch.setattr(sim, "run_trial",
                            lambda *args, **kwargs: pytest.fail("decoded"))
        path = tmp_path / "missing" / "trace.jsonl"
        rc, out, err = run_cli(capsys, "decode", "bhv", "--trace", str(path))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: [Errno 2] No such file or directory")

    def test_failed_decode_leaves_an_existing_trace_file(self, tmp_path,
                                                         capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text("kept\n")
        rc, out, err = run_cli(capsys, "decode", "bhv", "--snr", "nan",
                               "--trace", str(path))
        assert rc == 2
        assert out == ""
        assert "snr_db" in err
        assert path.read_text() == "kept\n"

    def test_failed_decode_leaves_no_new_trace_file(self, tmp_path, capsys):
        path = tmp_path / "new.jsonl"
        rc, out, err = run_cli(capsys, "decode", "bhv", "--snr", "nan",
                               "--trace", str(path))
        assert rc == 2
        assert out == ""
        assert "snr_db" in err
        assert not path.exists()

    @pytest.mark.parametrize("snr", ["-1e308", "1e308", "-inf", "nan"])
    def test_snr_without_finite_noise_exits_2(self, capsys, snr):
        rc, out, err = run_cli(capsys, "decode", "bhv", "--m", "2",
                             f"--snr={snr}")
        assert rc == 2
        assert out == ""  # rejected before the config line
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

    def test_unwritable_out_exits_2_before_the_sweep(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(sim, "run_sweep",
                            lambda *args, **kwargs: pytest.fail("swept"))
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps({
            "code": "bhv", "m": 2, "snr_grid_db": [10.0],
            "trials_per_point": 1, "master_seed": 4}))
        out_csv = tmp_path / "missing" / "rows.csv"
        rc, out, err = run_cli(capsys, "simulate", str(cfg), "--out",
                               str(out_csv))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: [Errno 2] No such file or directory")

    @pytest.mark.parametrize("code, named", [
        ("alamouti", "no block-orthogonal"), ("nosuch", "nosuch")])
    def test_failed_sweep_leaves_an_existing_out_file(self, tmp_path, capsys,
                                                      code, named):
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps({
            "code": code, "m": 2, "snr_grid_db": [10.0],
            "trials_per_point": 1, "master_seed": 4}))
        out_csv = tmp_path / "rows.csv"
        out_csv.write_text("kept\n")
        rc, _, err = run_cli(capsys, "simulate", str(cfg), "--out",
                             str(out_csv))
        assert rc == 2
        assert named in err
        assert out_csv.read_text() == "kept\n"

    def test_failed_sweep_leaves_no_new_out_file(self, tmp_path, capsys):
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps({
            "code": "alamouti", "m": 2, "snr_grid_db": [10.0],
            "trials_per_point": 1, "master_seed": 4}))
        out_csv = tmp_path / "new.csv"
        rc, _, err = run_cli(capsys, "simulate", str(cfg), "--out",
                             str(out_csv))
        assert rc == 2
        assert "no block-orthogonal" in err
        assert not out_csv.exists()

    def test_csv_to_stdout_without_out(self, tmp_path, capsys):
        campaign = {
            "code": "bhv", "m": 2, "snr_grid_db": [0.0, 10.0],
            "trials_per_point": 3, "master_seed": 4,
        }
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(campaign))
        rc, out, _ = run_cli(capsys, "simulate", str(cfg))
        assert rc == 0
        camp = sim.SimulationCampaign.from_json(campaign)
        config = f"config: {json.dumps(camp.to_json())}\n"
        assert out == config + sim.sweep_to_csv(sim.run_sweep(camp))

    @pytest.mark.parametrize("campaign, named", [
        ([], "campaign"),
        ({"code": "bhv", "m": 2, "snr_grid_db": [10.0],
          "trials_per_point": 1, "master_seed": -1}, "master_seed"),
        ({"code": "bhv", "m": 3, "snr_grid_db": [10.0],
          "trials_per_point": 1, "master_seed": 4}, "m"),
    ])
    def test_schema_violation_exits_2(self, tmp_path, capsys, campaign,
                                      named):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(campaign))
        rc, out, err = run_cli(capsys, "simulate", str(cfg))
        assert rc == 2
        assert err.startswith(f"error: {named} = ")
        assert out == ""

    def test_invalid_grid_exits_2(self, tmp_path, capsys):
        campaign = {
            "code": "bhv", "m": 2, "snr_grid_db": [10.0, 4.0],
            "trials_per_point": 1, "master_seed": 4,
        }
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(campaign))
        rc, _, err = run_cli(capsys, "simulate", str(cfg))
        assert rc == 2

    @pytest.mark.parametrize("text, shown", [
        ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf")])
    def test_non_finite_snr_exits_2_before_any_trial(self, tmp_path, capsys,
                                                     text, shown):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"code": "bhv", "m": 2, "snr_grid_db": [0, 4, %s], '
                       '"trials_per_point": 1, "master_seed": 4}' % text)
        rc, out, err = run_cli(capsys, "simulate", str(cfg))
        assert rc == 2
        assert err == f"error: snr_grid_db[2] = {shown} must be finite\n"
        assert out == ""

    @pytest.mark.parametrize("change, named", [
        ({"code": "nosuch"}, "unknown code 'nosuch'"),
        ({"code": "alamouti"}, "code has no block-orthogonal structure"),
        ({"snr_grid_db": [10, 4000]}, "snr_db = 4000.0 gives no finite"),
    ])
    def test_sweep_refusal_prints_no_config(self, tmp_path, capsys,
                                            monkeypatch, change, named):
        # the config line used to print before these errors; a bad SNR
        # anywhere in the grid fails before the first trial
        monkeypatch.setattr(sim, "run_trial",
                            lambda *args, **kwargs: pytest.fail("ran a trial"))
        campaign = {"code": "bhv", "m": 2, "snr_grid_db": [10.0],
                    "trials_per_point": 1, "master_seed": 4} | change
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(campaign))
        rc, out, err = run_cli(capsys, "simulate", str(cfg))
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: {named}")

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_deeply_nested_file_exits_2(self, tmp_path, capsys, command):
        # the parser's RecursionError used to exit 1 as an internal error
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        rc, out, err = run_cli(capsys, command, str(path))
        noun = "code" if command == "analyze" else "campaign"
        assert rc == 2
        assert out == ""
        assert err == f"error: {noun} JSON is nested too deeply to parse\n"

    def test_foreign_rng_exits_2(self, tmp_path, capsys):
        campaign = {
            "code": "bhv", "m": 2, "snr_grid_db": [10.0],
            "trials_per_point": 1, "master_seed": 4, "rng": "mt19937",
        }
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(campaign))
        rc, out, err = run_cli(capsys, "simulate", str(cfg))
        assert rc == 2
        assert err.startswith("error: rng = 'mt19937' must be ")
        assert out == ""

    @pytest.mark.parametrize("change, named", [
        ({"n_rr": 3}, "unknown campaign key(s) ['n_rr']"),
        ({"modes": ["baseline", "memoized"]}, "unknown campaign key(s) ['modes']"),
        ({"master_seed": None}, "missing campaign key(s) ['master_seed']"),
    ])
    def test_unknown_or_missing_key_exits_2(self, tmp_path, capsys, change,
                                            named):
        campaign = {"code": "bhv", "m": 2, "snr_grid_db": [10.0],
                    "trials_per_point": 1, "master_seed": 4}
        campaign = {k: v for k, v in (campaign | change).items()
                    if v is not None}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(campaign))
        rc, out, err = run_cli(capsys, "simulate", str(cfg))
        assert rc == 2
        assert err == f"error: {named}\n"
        assert out == ""

    @pytest.mark.parametrize("key", ["code", "m", "snr_grid_db",
                                     "trials_per_point", "master_seed"])
    def test_missing_campaign_key_exits_2(self, tmp_path, capsys, key):
        campaign = {"code": "bhv", "m": 2, "snr_grid_db": [10.0],
                    "trials_per_point": 1, "master_seed": 4}
        del campaign[key]
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(campaign))
        rc, out, err = run_cli(capsys, "simulate", str(cfg))
        assert (rc, out) == (2, "")
        assert err == f"error: missing campaign key(s) ['{key}']\n"

    def test_snr_too_large_for_a_float_exits_2(self, tmp_path, capsys):
        # float() of a 401-digit integer raised OverflowError: exit 1
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"code": "bhv", "m": 2, "snr_grid_db": [0, 1%s], '
                       '"trials_per_point": 1, "master_seed": 4}' % ("0" * 400))
        rc, out, err = run_cli(capsys, "simulate", str(cfg))
        assert (rc, out) == (2, "")
        assert err == "error: snr_grid_db[1] must be a number that fits a float\n"

    def test_fractional_trial_count_exits_2(self, tmp_path, capsys):
        campaign = {
            "code": "bhv", "m": 2, "snr_grid_db": [10.0],
            "trials_per_point": 1.9, "master_seed": 4,
        }
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(campaign))
        rc, out, err = run_cli(capsys, "simulate", str(cfg))
        assert rc == 2
        assert "error: trials_per_point = 1.9 must be an integer" in err
        assert out == ""

    @pytest.mark.parametrize("ordering", [
        "01234567", [0, 1, 2, 3, 4, 5, 6, 7.5], [True, False, 2, 3, 4, 5, 6, 7],
        []])
    def test_non_permutation_ordering_exits_2(self, tmp_path, capsys, ordering):
        campaign = {
            "code": "golden", "m": 2, "snr_grid_db": [10.0],
            "trials_per_point": 1, "master_seed": 4, "ordering": ordering,
        }
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(campaign))
        rc, _, err = run_cli(capsys, "simulate", str(cfg))
        assert rc == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("field, value, named", [
        ("snr_grid_db", "048", "snr_grid_db"),
        ("snr_grid_db", [True], "snr_grid_db[0]"),
        ("code", 7, "code"),
    ])
    def test_mistyped_field_exits_2(self, tmp_path, capsys, field, value,
                                    named):
        campaign = {
            "code": "bhv", "m": 2, "snr_grid_db": [10.0],
            "trials_per_point": 1, "master_seed": 4, field: value,
        }
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(campaign))
        rc, out, err = run_cli(capsys, "simulate", str(cfg))
        assert rc == 2
        assert err.startswith(f"error: {named} = ")
        assert out == ""

    def test_decoder_disagreement_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sim, "run_trial", corrupt_trial(4, 0, 1))
        campaign = {
            "code": "bhv", "m": 2, "snr_grid_db": [10.0],
            "trials_per_point": 3, "master_seed": 4,
        }
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(campaign))
        rc, _, err = run_cli(capsys, "simulate", str(cfg))
        assert rc == 1
        assert "trial (4, 0, 1)" in err

    def test_corrupt_memo_entry_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(decoder, "_walk", corrupt_memo_entry(5))
        campaign = {
            "code": "bhv", "m": 2, "snr_grid_db": [0.0, 6.0],
            "trials_per_point": 4, "master_seed": 9,
        }
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(campaign))
        rc, _, err = run_cli(capsys, "simulate", str(cfg))
        assert rc == 1
        assert "trial (9, 1, 1)" in err

    def test_zero_receive_antennas_exits_2(self, tmp_path, capsys):
        # a falsy n_r must not fall back to n_t receive antennas
        campaign = {
            "code": "bhv", "m": 2, "snr_grid_db": [10.0],
            "trials_per_point": 1, "master_seed": 4, "n_r": 0,
        }
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(campaign))
        rc, out, err = run_cli(capsys, "simulate", str(cfg))
        assert rc == 2
        assert "error: n_r = 0" in err
        assert out == ""
