"""Stable JSON serialization of experiment configs and results.

The sweep runner (:mod:`repro.experiments.sweep`) and the result cache
(:mod:`repro.experiments.cache`) both need two guarantees a plain
``dataclasses.asdict`` cannot give:

1. **Canonical bytes.**  The same :class:`ExperimentConfig` must always
   produce the same byte sequence, because those bytes are hashed into
   the content address of a cached result.  :func:`canonical_json`
   therefore sorts keys, strips whitespace and relies on Python's
   shortest-round-trip float ``repr`` (exact for every finite double).

2. **Faithful round-trip.**  A result that crossed a process boundary
   or came back from the cache must be indistinguishable — field for
   field, bit for bit — from the object the in-process run produced.
   Every value is encoded with an explicit type tag and reconstructed
   through the real constructor, so ``__post_init__`` validation runs
   again on the way in (a corrupted blob fails loudly instead of
   producing a half-valid result).

The one deliberate exception is :class:`~repro.obs.Observability`: the
facade holds live instruments (rebindable callbacks, ring buffers) that
have no meaningful serialized form, so :func:`result_to_dict` records it
as ``None``.  Sweeps are therefore defined over *un-instrumented* runs;
per-run observability stays a single-process debugging tool.

Encoding scheme (all tags are reserved keys that cannot appear in our
plain payload dicts):

* dataclass → ``{"__dc__": name, "fields": {...}}``
* enum → ``{"__enum__": name, "value": ...}``
* tuple → ``{"__tuple__": [...]}``
* numpy array → ``{"__nd__": dtype, "shape": [...], "data": [...]}``
* :class:`~repro.workload.phases.PhaseSchedule` →
  ``{"__ps__": [phases...]}`` (the one registered non-dataclass)
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

import numpy as np

from repro.core.sets import CandidateSelector
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentConfig, ExperimentResult
from repro.faults.corruption import CorruptionScenario
from repro.faults.degraded import DegradedModeConfig
from repro.faults.injector import FaultStats
from repro.faults.scenario import FaultScenario
from repro.ha.config import HaConfig
from repro.ha.failover import HaStats
from repro.metrics.summary import RunMetrics
from repro.obs.config import ObsConfig
from repro.provision.runtime import ProvisionStats
from repro.provision.scenario import ProvisionScenario
from repro.telemetry.cost import ManagementCostModel
from repro.telemetry.integrity import IntegrityConfig
from repro.workload.applications import ApplicationProfile
from repro.workload.job import Job, JobState
from repro.workload.phases import Phase, PhaseSchedule

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "config_from_dict",
    "config_hash",
    "config_to_dict",
    "from_jsonable",
    "result_from_dict",
    "result_to_dict",
    "to_jsonable",
]

#: Bumped whenever the encoding itself changes shape.  Part of every
#: cache key, so stale blobs from an older schema can never be decoded
#: as current results — they simply miss.
SCHEMA_VERSION = 1

#: Dataclasses the decoder may instantiate.  An explicit allow-list:
#: a blob naming any other type is corrupt by definition.
_DATACLASS_REGISTRY: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        ApplicationProfile,
        ExperimentConfig,
        ExperimentResult,
        CorruptionScenario,
        DegradedModeConfig,
        FaultScenario,
        FaultStats,
        HaConfig,
        HaStats,
        IntegrityConfig,
        Job,
        ManagementCostModel,
        ObsConfig,
        Phase,
        ProvisionScenario,
        ProvisionStats,
        RunMetrics,
    )
}

_ENUM_REGISTRY: dict[str, type[enum.Enum]] = {
    cls.__name__: cls for cls in (CandidateSelector, JobState)
}

_TAGS = ("__dc__", "__enum__", "__tuple__", "__nd__", "__ps__")


def _bad(value: object, detail: str) -> ConfigurationError:
    return ConfigurationError(
        f"cannot serialize/deserialize {type(value).__name__}: {detail}"
    )


def to_jsonable(value: Any) -> Any:
    """Encode ``value`` into a JSON-compatible tree of tagged nodes."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return {
            "__nd__": str(value.dtype),
            "shape": list(value.shape),
            "data": [to_jsonable(v) for v in value.ravel().tolist()],
        }
    if isinstance(value, enum.Enum):
        name = type(value).__name__
        if name not in _ENUM_REGISTRY:
            raise _bad(value, "enum type is not registered")
        return {"__enum__": name, "value": to_jsonable(value.value)}
    if isinstance(value, PhaseSchedule):
        return {"__ps__": [to_jsonable(p) for p in value.phases]}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in _DATACLASS_REGISTRY:
            raise _bad(value, "dataclass type is not registered")
        fields = {
            f.name: to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dc__": name, "fields": fields}
    if isinstance(value, tuple):
        return {"__tuple__": [to_jsonable(v) for v in value]}
    if isinstance(value, list):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        encoded: dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise _bad(value, f"non-string dict key {key!r}")
            if key in _TAGS:
                raise _bad(value, f"reserved key {key!r} in payload dict")
            encoded[key] = to_jsonable(item)
        return encoded
    raise _bad(value, "unsupported type")


def from_jsonable(value: Any) -> Any:
    """Decode a tree produced by :func:`to_jsonable`.

    Raises:
        ConfigurationError: on unknown tags/types — the caller treats
            this as a corrupt blob.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [from_jsonable(v) for v in value]
    if isinstance(value, dict):
        if "__nd__" in value:
            data = [from_jsonable(v) for v in value["data"]]
            array = np.asarray(data, dtype=np.dtype(value["__nd__"]))
            return array.reshape(tuple(value["shape"]))
        if "__enum__" in value:
            name = value["__enum__"]
            if name not in _ENUM_REGISTRY:
                raise _bad(value, f"unknown enum type {name!r}")
            return _ENUM_REGISTRY[name](from_jsonable(value["value"]))
        if "__tuple__" in value:
            return tuple(from_jsonable(v) for v in value["__tuple__"])
        if "__ps__" in value:
            return PhaseSchedule(
                tuple(from_jsonable(p) for p in value["__ps__"])
            )
        if "__dc__" in value:
            name = value["__dc__"]
            if name not in _DATACLASS_REGISTRY:
                raise _bad(value, f"unknown dataclass type {name!r}")
            fields = {
                key: from_jsonable(item)
                for key, item in value["fields"].items()
            }
            return _DATACLASS_REGISTRY[name](**fields)
        return {key: from_jsonable(item) for key, item in value.items()}
    raise _bad(value, "unsupported node")


def canonical_json(tree: Any) -> str:
    """The one true byte form of an encoded tree.

    Sorted keys + compact separators: two semantically equal trees can
    never render differently, so these bytes are safe to hash and safe
    to compare with ``==`` for bit-identity assertions.
    """
    return json.dumps(tree, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------
def config_to_dict(config: ExperimentConfig) -> dict[str, Any]:
    """Encode an :class:`ExperimentConfig` as a JSON-compatible dict."""
    fields = {
        f.name: to_jsonable(getattr(config, f.name))
        for f in dataclasses.fields(config)
    }
    return {"__dc__": "ExperimentConfig", "fields": fields}


def config_from_dict(node: dict[str, Any]) -> ExperimentConfig:
    """Reconstruct an :class:`ExperimentConfig`; validation re-runs."""
    if not isinstance(node, dict) or node.get("__dc__") != "ExperimentConfig":
        raise ConfigurationError("not an encoded ExperimentConfig")
    decoded = from_jsonable(node)
    if not isinstance(decoded, ExperimentConfig):
        raise ConfigurationError("decoded object is not an ExperimentConfig")
    return decoded


def config_hash(
    config: ExperimentConfig,
    policy: str | None,
    *,
    salt: str,
    label: str | None = None,
) -> str:
    """Content address of one (config, policy, label) experiment cell.

    The hash covers the full canonical config encoding, the policy name,
    the optional report label (it lands verbatim in the result) and two
    version strings: ``salt`` (the cache's code-version, a digest of
    the package sources) and the encoding :data:`SCHEMA_VERSION`.  Any
    drift in any of them changes the address, so a stale cache can only
    ever miss — never serve a wrong result.
    """
    payload = {
        "schema": SCHEMA_VERSION,
        "salt": salt,
        "policy": policy,
        "label": label,
        "config": config_to_dict(config),
    }
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------
def result_to_dict(result: ExperimentResult) -> dict[str, Any]:
    """Encode an :class:`ExperimentResult` as a JSON-compatible dict.

    ``observability`` is recorded as ``None`` (see the module
    docstring); every other field round-trips bit for bit.
    """
    fields: dict[str, Any] = {}
    for f in dataclasses.fields(result):
        if f.name == "observability":
            fields[f.name] = None
            continue
        fields[f.name] = to_jsonable(getattr(result, f.name))
    return {"__dc__": "ExperimentResult", "fields": fields}


def result_from_dict(node: dict[str, Any]) -> ExperimentResult:
    """Reconstruct an :class:`ExperimentResult` from its encoded form."""
    if not isinstance(node, dict) or node.get("__dc__") != "ExperimentResult":
        raise ConfigurationError("not an encoded ExperimentResult")
    decoded = from_jsonable(node)
    if not isinstance(decoded, ExperimentResult):
        raise ConfigurationError("decoded object is not an ExperimentResult")
    return decoded
