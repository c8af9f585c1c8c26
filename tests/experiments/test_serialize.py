"""Tests for the canonical config/result JSON round-trip.

The cache addresses results by the hash of the canonical config bytes,
so two things must never drift silently: the round-trip (a decoded
object must equal the encoded one, field for field) and the hash itself
(pinned against a golden value checked into ``tests/golden/``).
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.serialize import (
    SCHEMA_VERSION,
    canonical_json,
    config_from_dict,
    config_hash,
    config_to_dict,
    from_jsonable,
    result_from_dict,
    result_to_dict,
    to_jsonable,
)
from repro.faults import CorruptionScenario, FaultScenario
from repro.ha import HaConfig
from repro.provision import ProvisionScenario
from repro.telemetry import IntegrityConfig

from .test_common import tiny_config

GOLDEN = Path(__file__).parent.parent / "golden" / "config_hash.json"


# ----------------------------------------------------------------------
# Config round-trip
# ----------------------------------------------------------------------
def test_config_round_trip_plain():
    config = tiny_config()
    assert config_from_dict(config_to_dict(config)) == config


def test_config_round_trip_all_subsystems():
    config = tiny_config(
        num_nodes=32,
        candidate_size=8,
        faults=FaultScenario.light(),
        corruption=CorruptionScenario.drift(),
        integrity=IntegrityConfig(),
        ha=HaConfig.warm(crash_at_cycles=(40,)),
        provision=ProvisionScenario.feed_loss(),
        attach_provision=True,
        track_thermal=True,
    )
    decoded = config_from_dict(config_to_dict(config))
    assert decoded == config
    # Canonical bytes are stable through the round-trip too.
    assert canonical_json(config_to_dict(decoded)) == canonical_json(
        config_to_dict(config)
    )


def test_config_round_trip_survives_json_transport():
    config = tiny_config(num_nodes=32, candidate_size=4)
    wire = canonical_json(config_to_dict(config))
    assert config_from_dict(json.loads(wire)) == config


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    num_nodes=st.sampled_from((8, 16, 32, 128)),
    candidate_size=st.integers(min_value=0, max_value=8),
    margins=st.sampled_from(((0.03, 0.08), (0.07, 0.16), (0.10, 0.22))),
    control_period_s=st.sampled_from((0.5, 1.0, 2.0)),
    scheduler=st.sampled_from(("fcfs", "backfill")),
    faults=st.sampled_from(("none", "light", "heavy")),
)
def test_config_round_trip_property(
    seed, num_nodes, candidate_size, margins, control_period_s, scheduler, faults
):
    config = tiny_config(
        seed=seed,
        num_nodes=num_nodes,
        candidate_size=candidate_size,
        margin_high=margins[0],
        margin_low=margins[1],
        control_period_s=control_period_s,
        scheduler=scheduler,
        faults=FaultScenario.preset(faults),
    )
    decoded = config_from_dict(config_to_dict(config))
    assert decoded == config
    # Equal configs hash equal; the hash is a pure function of content.
    assert config_hash(decoded, "mpc", salt="s") == config_hash(
        config, "mpc", salt="s"
    )


# ----------------------------------------------------------------------
# Hash discrimination
# ----------------------------------------------------------------------
def test_config_hash_separates_every_cell_dimension():
    config = tiny_config()
    base = config_hash(config, "mpc", salt="s")
    assert config_hash(tiny_config(seed=6), "mpc", salt="s") != base
    assert config_hash(config, "hri", salt="s") != base
    assert config_hash(config, None, salt="s") != base
    assert config_hash(config, "mpc", salt="s2") != base
    assert config_hash(config, "mpc", salt="s", label="x") != base


def test_golden_config_hash_pin():
    """The canonical encoding must not drift silently.

    If this fails you changed what the config encoding hashes to —
    either the field set, the tagged encoding, or SCHEMA_VERSION.  If
    the change is intentional, regenerate the pin:

        PYTHONPATH=src python - <<'PY'
        import json
        from repro.experiments import ExperimentConfig
        from repro.experiments.serialize import SCHEMA_VERSION, config_hash
        config = ExperimentConfig.quick(seed=2012)
        print(json.dumps({
            "schema": SCHEMA_VERSION,
            "config": "ExperimentConfig.quick(seed=2012)",
            "salt": "golden-pin",
            "policy": "mpc",
            "hash": config_hash(config, "mpc", salt="golden-pin"),
        }, indent=2))
        PY

    and paste the output into ``tests/golden/config_hash.json`` — the
    diff then documents the drift in review.  (The pin deliberately uses
    a fixed salt: CODE_VERSION changes with every code edit.)
    """
    pin = json.loads(GOLDEN.read_text(encoding="utf-8"))
    config = ExperimentConfig.quick(seed=2012)
    assert pin["schema"] == SCHEMA_VERSION
    assert config_hash(config, pin["policy"], salt=pin["salt"]) == pin["hash"]


# ----------------------------------------------------------------------
# Result round-trip
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def managed_result():
    return run_experiment(tiny_config(num_nodes=32), "mpc")


def test_result_round_trip_bit_identical(managed_result):
    encoded = result_to_dict(managed_result)
    decoded = result_from_dict(encoded)
    assert canonical_json(result_to_dict(decoded)) == canonical_json(encoded)
    np.testing.assert_array_equal(decoded.power_w, managed_result.power_w)
    np.testing.assert_array_equal(decoded.times, managed_result.times)
    assert decoded.metrics == managed_result.metrics
    assert decoded.config == managed_result.config
    assert decoded.state_cycles == managed_result.state_cycles


def test_result_round_trip_drops_observability(managed_result):
    assert result_to_dict(managed_result)["fields"]["observability"] is None


def test_result_arrays_keep_dtype(managed_result):
    decoded = result_from_dict(result_to_dict(managed_result))
    assert decoded.power_w.dtype == managed_result.power_w.dtype
    assert decoded.power_w.shape == managed_result.power_w.shape


# ----------------------------------------------------------------------
# Encoder/decoder strictness
# ----------------------------------------------------------------------
def test_to_jsonable_rejects_unregistered_types():
    class Opaque:
        pass

    with pytest.raises(ConfigurationError):
        to_jsonable(Opaque())


def test_to_jsonable_rejects_non_string_dict_keys():
    with pytest.raises(ConfigurationError):
        to_jsonable({1: "a"})


def test_to_jsonable_rejects_reserved_tag_keys():
    with pytest.raises(ConfigurationError):
        to_jsonable({"__dc__": "smuggled"})


def test_from_jsonable_rejects_unknown_dataclass():
    with pytest.raises(ConfigurationError):
        from_jsonable({"__dc__": "NoSuchType", "fields": {}})


def test_from_jsonable_rejects_unknown_enum():
    with pytest.raises(ConfigurationError):
        from_jsonable({"__enum__": "NoSuchEnum", "value": 1})


def test_config_from_dict_rejects_wrong_node():
    with pytest.raises(ConfigurationError):
        config_from_dict({"__dc__": "ExperimentResult", "fields": {}})


def test_decode_reruns_validation():
    node = config_to_dict(tiny_config())
    node["fields"]["num_nodes"] = 0
    with pytest.raises(ConfigurationError):
        config_from_dict(node)
