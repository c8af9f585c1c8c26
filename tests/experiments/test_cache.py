"""Tests for the content-addressed result cache."""

import json
import shutil
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.experiments import CODE_VERSION, ResultCache, run_experiment
from repro.experiments import cache as cache_module
from repro.experiments.cache import _source_digest
from repro.experiments.serialize import canonical_json, result_to_dict

from .test_common import tiny_config


@pytest.fixture(scope="module")
def computed():
    config = tiny_config(num_nodes=32)
    return config, run_experiment(config, "mpc")


def test_empty_root_rejected():
    with pytest.raises(ConfigurationError):
        ResultCache("")


def test_miss_then_put_then_hit(tmp_path, computed):
    config, result = computed
    cache = ResultCache(tmp_path)
    key = cache.key(config, "mpc")
    assert cache.get(key) is None
    assert cache.stats.misses == 1
    cache.put(key, result)
    assert cache.stats.writes == 1
    replayed = cache.get(key)
    assert replayed is not None
    assert cache.stats.hits == 1
    # The replayed result is bit-identical on the canonical surface.
    assert canonical_json(result_to_dict(replayed)) == canonical_json(
        result_to_dict(result)
    )


def test_config_change_invalidates(tmp_path, computed):
    config, result = computed
    cache = ResultCache(tmp_path)
    cache.put(cache.key(config, "mpc"), result)
    assert cache.get(cache.key(tiny_config(num_nodes=32, seed=6), "mpc")) is None
    assert cache.get(cache.key(config, "hri")) is None
    assert cache.get(cache.key(config, "mpc", label="renamed")) is None
    # ... while the original address still hits.
    assert cache.get(cache.key(config, "mpc")) is not None


def test_salt_change_invalidates(tmp_path, computed, monkeypatch):
    config, result = computed
    monkeypatch.setattr(cache_module, "CODE_VERSION", "v1")
    old = ResultCache(tmp_path)
    old.put(old.key(config, "mpc"), result)
    monkeypatch.setattr(cache_module, "CODE_VERSION", "v2")
    new = ResultCache(tmp_path)
    assert new.get(new.key(config, "mpc")) is None


def test_salt_is_derived_from_the_package_sources(tmp_path):
    copy = tmp_path / "repro"
    shutil.copytree(
        Path(repro.__file__).parent,
        copy,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    assert _source_digest(copy) == CODE_VERSION
    module = copy / "cluster" / "engine.py"
    module.write_text(module.read_text() + "# edited\n")
    assert _source_digest(copy) != CODE_VERSION


def test_corrupted_blob_is_a_miss_and_removed(tmp_path, computed):
    config, result = computed
    cache = ResultCache(tmp_path)
    key = cache.key(config, "mpc")
    cache.put(key, result)
    cache.path_for(key).write_text("{not json", encoding="utf-8")
    assert cache.get(key) is None
    assert cache.stats.corrupt == 1
    assert not cache.path_for(key).exists()
    # The caller recomputes and overwrites; the cache heals.
    cache.put(key, result)
    assert cache.get(key) is not None


def test_envelope_key_mismatch_is_corrupt(tmp_path, computed):
    config, result = computed
    cache = ResultCache(tmp_path)
    key = cache.key(config, "mpc")
    other = cache.key(config, "hri")
    cache.put(key, result)
    # Simulate a mis-filed blob: content stored under the wrong address.
    cache.path_for(other).parent.mkdir(parents=True, exist_ok=True)
    cache.path_for(other).write_text(
        cache.path_for(key).read_text(encoding="utf-8"), encoding="utf-8"
    )
    assert cache.get(other) is None
    assert cache.stats.corrupt == 1


def test_tampered_field_fails_validation_and_misses(tmp_path, computed):
    config, result = computed
    cache = ResultCache(tmp_path)
    key = cache.key(config, "mpc")
    cache.put(key, result)
    blob = json.loads(cache.path_for(key).read_text(encoding="utf-8"))
    # An in-range JSON edit that violates dataclass validation: the
    # decoder must re-run __post_init__ and treat the blob as corrupt.
    blob["result"]["fields"]["config"]["fields"]["num_nodes"] = 0
    cache.path_for(key).write_text(json.dumps(blob), encoding="utf-8")
    assert cache.get(key) is None
    assert cache.stats.corrupt == 1


def test_put_is_atomic_no_tmp_left_behind(tmp_path, computed):
    config, result = computed
    cache = ResultCache(tmp_path)
    key = cache.key(config, "mpc")
    cache.put(key, result)
    leftovers = [p for p in tmp_path.rglob("*") if ".tmp." in p.name]
    assert leftovers == []
