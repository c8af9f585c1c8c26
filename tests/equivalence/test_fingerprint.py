"""A :func:`~tests.equivalence.harness.fingerprint` is a digest of the
data alone, so two processes give the same one for the same run."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.equivalence.harness import fingerprint

REPO_ROOT = Path(__file__).resolve().parents[2]

#: One tiny unmanaged run; prints its finished jobs' count and digest.
PROGRAM = """
from repro.experiments.common import ExperimentConfig, run_experiment
from tests.equivalence.harness import fingerprint

config = ExperimentConfig.quick(
    num_nodes=32, training_duration_s=100.0, run_duration_s=200.0
)
jobs = run_experiment(config, None).finished_jobs
print(len(jobs), fingerprint(jobs))
"""


def _fingerprint_in_a_fresh_interpreter() -> str:
    path = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def test_finished_jobs_digest_alike_in_two_interpreters() -> None:
    first = _fingerprint_in_a_fresh_interpreter()
    assert int(first.split()[0]) > 0, "the run must finish jobs to digest"
    assert _fingerprint_in_a_fresh_interpreter() == first


def test_a_value_whose_repr_is_an_address_is_refused() -> None:
    with pytest.raises(TypeError, match="address"):
        fingerprint([object()])
