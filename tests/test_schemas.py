"""JSON outputs validate against the shipped schemas."""

import json
from pathlib import Path

import jsonschema
import pytest

from bostbc.codes import (
    CODE_NAMES,
    bhv_code,
    code_from_json,
    code_to_json,
    golden_code,
    named_code,
)
from bostbc.sim import SimulationCampaign

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def load_schema(name):
    with open(SCHEMA_DIR / name) as f:
        return json.load(f)


@pytest.mark.parametrize("name", CODE_NAMES)
def test_code_files_validate(name):
    jsonschema.validate(code_to_json(named_code(name)),
                        load_schema("code.schema.json"))


def test_campaign_round_trip_validates():
    schema = load_schema("campaign.schema.json")
    camp = SimulationCampaign(code="bhv", m=2, snr_grid_db=(0.0, 4.0),
                              trials_per_point=10, master_seed=1)
    jsonschema.validate(camp.to_json(), schema)


def test_schema_rejects_foreign_rng():
    schema = load_schema("campaign.schema.json")
    camp = SimulationCampaign(code="bhv", m=2, snr_grid_db=(0.0,),
                              trials_per_point=1, master_seed=1)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(dict(camp.to_json(), rng="mt19937"), schema)


@pytest.mark.parametrize("key", ["modes", "n_rr"])
def test_schema_rejects_unknown_key(key):
    schema = load_schema("campaign.schema.json")
    camp = SimulationCampaign(code="bhv", m=2, snr_grid_db=(0.0,),
                              trials_per_point=1, master_seed=1)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(dict(camp.to_json(), **{key: 3}), schema)


def test_schema_rejects_malformed_code():
    schema = load_schema("code.schema.json")
    bad = code_to_json(golden_code())
    bad["declared_profile"] = [4, 2]  # must be three entries
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, schema)


CAMPAIGN = {"code": "bhv", "m": 2, "snr_grid_db": [0.0],
            "trials_per_point": 1, "master_seed": 1}


def without_or_with(data, key):
    """``data`` without ``key`` if it holds it, else with ``key`` added."""
    if key in data:
        return {k: v for k, v in data.items() if k != key}
    return dict(data, **{key: 1})


@pytest.mark.parametrize("key", ["n_t", "t", "k_real", "labels", "weights",
                                 "note"])
def test_code_reader_refuses_what_the_schema_refuses(key):
    # each required key left out, and one unknown key added
    data = without_or_with(code_to_json(bhv_code()), key)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, load_schema("code.schema.json"))
    with pytest.raises(ValueError, match=rf" code key\(s\) \['{key}'\]$"):
        code_from_json(data)


def test_code_reader_lets_declared_profile_be_left_out():
    # the one deliberate difference: the schema requires the key, while the
    # reader takes its absence for null, as hand-written code files expect
    data = without_or_with(code_to_json(bhv_code()), "declared_profile")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, load_schema("code.schema.json"))
    assert code_from_json(data).declared_profile is None


@pytest.mark.parametrize("key", [*CAMPAIGN, "note"])
def test_campaign_reader_refuses_what_the_schema_refuses(key):
    # each required key left out, and one unknown key added
    data = without_or_with(CAMPAIGN, key)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, load_schema("campaign.schema.json"))
    with pytest.raises(ValueError,
                       match=rf" campaign key\(s\) \['{key}'\]$"):
        SimulationCampaign.from_json(data)


def test_readers_accept_what_the_schemas_accept():
    code, campaign = code_to_json(bhv_code()), dict(CAMPAIGN)
    jsonschema.validate(code, load_schema("code.schema.json"))
    jsonschema.validate(campaign, load_schema("campaign.schema.json"))
    code_from_json(code)
    SimulationCampaign.from_json(campaign)


@pytest.mark.parametrize("name", ["bhv", "golden"])
def test_cli_json_output_validates(capsys, name):
    from bostbc.cli import main

    assert main(["analyze", name, "--format", "json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    jsonschema.validate(payload, load_schema("structure-report.schema.json"))
