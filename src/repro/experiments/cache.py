"""Content-addressed on-disk cache of experiment results.

A cached cell is addressed by the SHA-256 of its *inputs* — the
canonical JSON encoding of the :class:`~repro.experiments.common.
ExperimentConfig`, the policy name, the report label and two version
strings (see :func:`repro.experiments.serialize.config_hash`).  Because
every run is a pure function of those inputs (one root seed, no wall
clock, no ambient entropy — the reprolint RL1xx rules enforce this),
the address *is* the result: repeated sweeps, shared baselines and CI
re-runs skip any cell whose blob already exists.

Robustness contract:

* **Invalidation is structural.**  Changing any config field, the
  policy, the encoding schema or the :data:`CODE_VERSION` salt changes
  the address; stale blobs are never consulted, only orphaned.  The
  salt is derived from the package's source files, so any code edit
  orphans every blob the old code computed.
* **Corruption degrades to a miss.**  A blob that fails to parse,
  fails dataclass validation or names an unknown type is deleted
  (best effort) and the cell recomputes.  The cache can never turn a
  bad disk into a wrong result.
* **Writes are atomic.**  Blobs land via temp-file + ``os.replace`` so
  a crashed writer leaves no half-written addressable blob; concurrent
  writers of the same address converge on identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentConfig, ExperimentResult
from repro.experiments.serialize import (
    SCHEMA_VERSION,
    canonical_json,
    config_hash,
    result_from_dict,
    result_to_dict,
)

__all__ = ["CODE_VERSION", "CacheStats", "ResultCache"]


def _source_digest(root: Path) -> str:
    """SHA-256 over the ``*.py`` files under ``root``: each file's
    relative path and the digest of its bytes, in path order."""
    digest = hashlib.sha256()
    files = sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*.py"))
    for rel, path in files:
        digest.update(rel.encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


#: The code-version salt folded into every cache address: the digest of
#: the ``repro`` package's sources, computed once at import.  A comment
#: edit over-invalidates too, which only costs a cold sweep.
CODE_VERSION = _source_digest(Path(__file__).resolve().parent.parent)


@dataclass
class CacheStats:
    """Counters one :class:`ResultCache` accumulates over its lifetime."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    writes: int = 0

    def as_dict(self) -> dict[str, int]:
        """Flat mapping for JSON payloads (CI warm-cache assertions)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "writes": self.writes,
        }


class ResultCache:
    """A directory of content-addressed :class:`ExperimentResult` blobs.

    Args:
        root: Cache directory (created on first write).
    """

    def __init__(self, root: str | Path) -> None:
        if not str(root):
            raise ConfigurationError("cache root must be a non-empty path")
        self.root = Path(root)
        #: The code-version salt folded into every address.
        self.salt = CODE_VERSION
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def key(
        self,
        config: ExperimentConfig,
        policy: str | None,
        label: str | None = None,
    ) -> str:
        """The content address of one experiment cell."""
        return config_hash(config, policy, salt=self.salt, label=label)

    def path_for(self, key: str) -> Path:
        """Blob path for ``key`` (two-level fan-out keeps dirs small)."""
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def get(self, key: str) -> ExperimentResult | None:
        """The cached result for ``key``, or ``None`` on miss.

        A blob that exists but cannot be decoded counts as *corrupt*:
        it is removed (best effort) and reported as a miss, so the
        caller recomputes and overwrites it.
        """
        path = self.path_for(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            self.stats.misses += 1
            return None
        try:
            blob = json.loads(raw)
            if blob.get("schema") != SCHEMA_VERSION or blob.get("key") != key:
                raise ConfigurationError("cache blob envelope mismatch")
            result = result_from_dict(blob["result"])
        except (ValueError, KeyError, TypeError, AttributeError):
            # json.JSONDecodeError is a ValueError; ConfigurationError
            # too.  Anything else malformed lands in KeyError/TypeError.
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass  # someone else removed it, or read-only media
            return None
        self.stats.hits += 1
        return result

    def put(self, key: str, result: ExperimentResult) -> None:
        """Store ``result`` under ``key`` atomically."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "result": result_to_dict(result),
        }
        payload = canonical_json(blob)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, path)
        self.stats.writes += 1
