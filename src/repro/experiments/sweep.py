"""Deterministic parallel experiment orchestration.

The paper's §V.C protocol is an embarrassingly parallel grid — policy ×
seed × candidate size × fault preset — yet every harness used to walk it
one :func:`run_experiment` call at a time in one process.  This module
is the campaign layer: a declarative list of :class:`SweepCell`\\ s is
fanned out over a spawn-context :class:`~concurrent.futures.
ProcessPoolExecutor` and merged under a hard contract:

**The merged output is bit-identical to serial execution, regardless of
worker count or completion order.**

Three design rules make that contract hold:

1. *Cell-keyed randomness.*  Every cell's world is seeded exclusively
   from its own configuration (``RandomSource(seed=config.seed)``
   inside :func:`run_experiment`); nothing about worker identity, pool
   size or host CPU topology (reprolint RL107 bans reading it) ever
   reaches a result.
2. *Canonical ordering.*  Results are keyed and ordered by the cell's
   content address (:func:`repro.experiments.serialize.config_hash`),
   never by completion time.
3. *Normalized transport.*  Results that cross a process boundary or
   the cache travel as canonical JSON; :meth:`SweepReport.merged_json`
   renders every run through the same encoder, so ``jobs=1`` and
   ``jobs=64`` produce the same bytes.

Underneath sits the content-addressed :class:`~repro.experiments.cache.
ResultCache`: identical cells — the unmanaged baseline that Figure 6,
Figure 7 and every ablation share, or an unchanged CI matrix cell — are
simulated once and replayed from disk afterwards.
"""

from __future__ import annotations

import json
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import MISSING, dataclass, fields, replace
from multiprocessing import get_context

from repro.errors import ConfigurationError
from repro.experiments.cache import CODE_VERSION, ResultCache
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.experiments.serialize import (
    canonical_json,
    config_from_dict,
    config_hash,
    config_to_dict,
    result_from_dict,
    result_to_dict,
)

__all__ = [
    "MANAGER_ONLY_FIELDS",
    "SweepCell",
    "SweepReport",
    "SweepStats",
    "baseline_cell",
    "baseline_config",
    "cell_key",
    "run_sweep",
    "validate_jobs",
]

#: Fields of :class:`ExperimentConfig` that are read *only* when a
#: policy is managing the run.  With ``policy=None`` no manager, meter,
#: fault injector, integrity pipeline, HA layer or provision runtime is
#: even constructed (see :func:`run_experiment`), so two unmanaged
#: configs differing only here simulate identically.
#: :func:`baseline_config` resets them to the class defaults, which is
#: what lets one cached baseline cell serve fig6, fig7 and every
#: manager-knob ablation.  ``tests/experiments/test_sweep.py`` holds the
#: property test backing this list; extend it (or this list) whenever a
#: new manager-only field is added.
MANAGER_ONLY_FIELDS: tuple[str, ...] = (
    "candidate_size",
    "steady_green_cycles",
    "margin_high",
    "margin_low",
    "adjust_every_cycles",
    "faults",
    "ha",
    "provision",
    "attach_provision",
)


def validate_jobs(jobs: object) -> int:
    """Validate a worker count; friendly errors, default serial.

    ``None`` means "unset" and resolves to serial execution.  Anything
    that is not a positive integer (0, negatives, floats, non-numeric
    strings) raises :class:`ConfigurationError` with the offending
    value, matching the CLI's unknown-preset error UX.
    """
    if jobs is None:
        return 1
    if isinstance(jobs, bool) or not isinstance(jobs, (int, str)):
        raise ConfigurationError(
            f"--jobs must be a positive integer, got {jobs!r}"
        )
    try:
        count = int(jobs)
    except ValueError:
        raise ConfigurationError(
            f"--jobs must be a positive integer, got {jobs!r}"
        ) from None
    if count < 1:
        raise ConfigurationError(
            f"--jobs must be a positive integer, got {jobs!r}"
        )
    return count


@dataclass(frozen=True)
class SweepCell:
    """One cell of a sweep grid: a configuration, a policy, a label.

    Only *names* are accepted for the policy (not policy instances):
    a cell must be fully serializable so it can cross a process
    boundary and address the result cache.
    """

    config: ExperimentConfig
    policy: str | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.policy is not None and not isinstance(self.policy, str):
            raise ConfigurationError(
                "sweep cells take policy *names* (or None for the "
                f"unmanaged baseline), got {type(self.policy).__name__}"
            )


def cell_key(cell: SweepCell, *, salt: str = CODE_VERSION) -> str:
    """The cell's content address (also its cache key)."""
    return config_hash(
        cell.config, cell.policy, salt=salt, label=cell.label
    )


def baseline_config(config: ExperimentConfig) -> ExperimentConfig:
    """``config`` normalized for an unmanaged (``policy=None``) run.

    Resets every :data:`MANAGER_ONLY_FIELDS` entry to its class
    default so all baselines that simulate identically also *hash*
    identically.  Note the returned config is what lands in
    ``result.config`` (and in the informational ``p_low_w``/``p_high_w``
    threshold fields, which an unmanaged run derives from the margins):
    a shared baseline reports the default margins, not any particular
    caller's.
    """
    defaults = {
        f.name: (
            f.default_factory()
            if f.default_factory is not MISSING
            else f.default
        )
        for f in fields(ExperimentConfig)
        if f.name in MANAGER_ONLY_FIELDS
    }
    return replace(config, **defaults)


def baseline_cell(config: ExperimentConfig) -> SweepCell:
    """The shared unmanaged-baseline cell for ``config``'s world."""
    return SweepCell(baseline_config(config), policy=None)


@dataclass
class SweepStats:
    """What one :func:`run_sweep` call actually did."""

    cells: int = 0
    computed: int = 0
    cache_hits: int = 0
    #: Cells that ran in worker processes (0 in serial mode).
    parallel: int = 0

    def as_dict(self) -> dict[str, int]:
        """Flat mapping for JSON payloads (CI warm-cache assertions)."""
        return {
            "cells": self.cells,
            "computed": self.computed,
            "cache_hits": self.cache_hits,
            "parallel": self.parallel,
        }


@dataclass(frozen=True)
class SweepReport:
    """The merged outcome of one sweep.

    ``cells`` are the deduplicated grid cells in canonical (cell-key)
    order; ``results`` maps cell key → result.  Lookup by the original
    cell object goes through :meth:`result_for`.
    """

    cells: tuple[SweepCell, ...]
    results: dict[str, ExperimentResult]
    stats: SweepStats
    salt: str = CODE_VERSION

    def result_for(self, cell: SweepCell) -> ExperimentResult:
        """The result of ``cell`` (or its deduplicated twin)."""
        key = cell_key(cell, salt=self.salt)
        if key not in self.results:
            raise ConfigurationError(
                f"cell {cell.policy!r}/{cell.label!r} was not part of this sweep"
            )
        return self.results[key]

    def merged_json(self) -> str:
        """Canonical bytes of the whole sweep, ordered by cell key.

        This is the bit-identity surface: the same grid must render the
        same string for every worker count and submission order.
        """
        merged = [
            {"key": key, "result": result_to_dict(self.results[key])}
            for key in sorted(self.results)
        ]
        return canonical_json(merged)


def _dedup(cells: list[SweepCell], salt: str) -> dict[str, SweepCell]:
    """Key → cell, first occurrence wins; identical cells collapse."""
    unique: dict[str, SweepCell] = {}
    for cell in cells:
        unique.setdefault(cell_key(cell, salt=salt), cell)
    return unique


def _cell_payload(cell: SweepCell) -> str:
    return canonical_json(
        {
            "config": config_to_dict(cell.config),
            "policy": cell.policy,
            "label": cell.label,
        }
    )


def _run_cell_json(payload: str) -> str:
    """Worker entry point: decode a cell, run it, return canonical JSON.

    Module-level (picklable by the spawn context) and free of any
    worker-local state: the run is a pure function of the payload, so
    which worker executes it — and in what order — cannot matter.
    """
    spec = json.loads(payload)
    config = config_from_dict(spec["config"])
    result = run_experiment(config, spec["policy"], label=spec["label"])
    return canonical_json(result_to_dict(result))


def run_sweep(
    cells: list[SweepCell] | tuple[SweepCell, ...],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> SweepReport:
    """Run every cell of a sweep grid; merge deterministically.

    Args:
        cells: The grid.  Identical cells (same config, policy and
            label) are deduplicated and simulated once.
        jobs: Worker-process count; 1 (the default) runs in-process.
            Worker count may only affect scheduling, never results.
        cache: Optional content-addressed result cache; hits skip the
            simulation entirely.

    Returns:
        A :class:`SweepReport` whose merged output is bit-identical to
        the ``jobs=1`` run of the same grid.

    Raises:
        ConfigurationError: on an invalid worker count, or when a cell
            enables observability while ``jobs > 1`` (live instruments
            cannot cross process boundaries, and parallel runs writing
            one trace path would race).
    """
    jobs = validate_jobs(jobs)
    if not cells:
        raise ConfigurationError("empty sweep grid")
    salt = cache.salt if cache is not None else CODE_VERSION
    unique = _dedup(list(cells), salt)
    stats = SweepStats(cells=len(unique))
    results: dict[str, ExperimentResult] = {}

    pending: list[str] = []
    for key in sorted(unique):
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            results[key] = cached
            stats.cache_hits += 1
        else:
            pending.append(key)

    if jobs > 1:
        for key in pending:
            if unique[key].config.obs.enabled:
                raise ConfigurationError(
                    "observability is enabled on a sweep cell but --jobs "
                    "> 1: live instruments cannot cross process "
                    "boundaries; run serially or disable obs"
                )

    if jobs == 1 or len(pending) <= 1:
        for key in pending:
            cell = unique[key]
            result = run_experiment(
                cell.config, cell.policy, label=cell.label
            )
            results[key] = result
            stats.computed += 1
            if cache is not None:
                cache.put(key, result)
    else:
        workers = min(jobs, len(pending))
        context = get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as pool:
            futures: dict[Future[str], str] = {
                pool.submit(_run_cell_json, _cell_payload(unique[key])): key
                for key in pending
            }
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in done:
                    key = futures[future]
                    result = result_from_dict(json.loads(future.result()))
                    results[key] = result
                    stats.computed += 1
                    stats.parallel += 1
                    if cache is not None:
                        cache.put(key, result)

    ordered = tuple(unique[key] for key in sorted(unique))
    return SweepReport(cells=ordered, results=results, stats=stats, salt=salt)
