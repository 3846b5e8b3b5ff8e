"""JSON outputs validate against the shipped schemas."""

import json
from pathlib import Path

import jsonschema
import pytest

from bostbc.codes import CODE_NAMES, code_to_json, golden_code, named_code
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


@pytest.mark.parametrize("name", ["bhv", "golden"])
def test_cli_json_output_validates(capsys, name):
    from bostbc.cli import main

    assert main(["analyze", name, "--format", "json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    jsonschema.validate(payload, load_schema("structure-report.schema.json"))
