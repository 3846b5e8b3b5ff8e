"""The layers' ``__all__`` lists are the public API, and the package root
re-exports exactly them.

Span tracing wraps exactly the names each layer lists, so a stale entry
left behind by a deletion would break a traced benchmark run, and a
re-exported name missing from ``__all__`` would run untimed.
"""

import importlib
import inspect

import pytest

import bostbc

LAYERS = ["codes", "structure", "linalg", "decoder", "sim"]

#: the names the package root listed by hand before it re-exported the
#: layers' ``__all__``; none of them may disappear from the root
ROOT_NAMES_BEFORE = [
    "GOLDEN_ORDERING_222", "GOLDEN_ORDERING_421", "GOLDEN_ORDERING_SCRAMBLED",
    "InvalidPermutation", "LinearSTBC", "PremiseViolated", "UnsupportedSize",
    "alamouti_code", "bhv_code", "cda_2x2", "ciod", "construction_i",
    "construction_ii", "construction_iii", "construction_iv",
    "cuwd_rate1_4group", "golden_code", "load_code", "named_code", "reorder",
    "save_code", "srinath_rajan_code",
    "DecoderStats", "EmCountBounds", "InvalidProfile", "NotUpperTriangular",
    "PamConstellation", "TooLarge", "em_count_bounds", "exhaustive_ml",
    "prepare", "qrdm_bound", "sphere_decode",
    "QrResult", "RankDeficient", "check_expand", "gram_schmidt_qr", "kron",
    "tilde_vec",
    "SimulationCampaign", "SweepResult", "run_sweep", "run_trial",
    "snr_to_noise_variance", "write_csv",
    "BlockOrthogonalProfile", "StructureReport", "TooFewReceiveAntennas",
    "classify", "detect_profile", "detect_structure", "equivalent_channel",
    "ordering_search", "profile_validates", "structural_pattern",
    "verify_cuwd_sum_structure", "verify_multi_block_premises",
]


def _layer(name):
    return importlib.import_module(f"bostbc.{name}")


@pytest.mark.parametrize("layer", LAYERS)
def test_all_entries_resolve(layer):
    module = _layer(layer)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_are_listed_by_a_layer():
    listed = set()
    for layer in LAYERS:
        listed.update(_layer(layer).__all__)
    exported = {name for name, value in vars(bostbc).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(exported - listed) == []


@pytest.mark.parametrize("layer", LAYERS)
def test_root_re_exports_every_layer_name(layer):
    module = _layer(layer)
    assert [name for name in module.__all__
            if getattr(bostbc, name, None) is not getattr(module, name)] == []
    assert set(module.__all__) <= set(bostbc.__all__)


def test_root_all_lists_each_name_once():
    assert len(bostbc.__all__) == len(set(bostbc.__all__))
    assert bostbc.__all__.count("RankDeficient") == 1


def test_root_keeps_the_names_it_listed_by_hand():
    assert len(ROOT_NAMES_BEFORE) == len(set(ROOT_NAMES_BEFORE)) == 57
    owners = {name: _layer(layer) for layer in LAYERS
              for name in _layer(layer).__all__}
    assert [name for name in ROOT_NAMES_BEFORE
            if name not in owners
            or getattr(bostbc, name, None) is not getattr(owners[name], name)
            ] == []
