"""Unit tests for the random job generator."""

import pytest

from repro.errors import ConfigurationError
from repro.sim import RandomSource
from repro.workload import RandomJobGenerator
from repro.workload.generator import PAPER_NPROCS_CHOICES


def _generator(seed=1, **kwargs):
    return RandomJobGenerator(RandomSource(seed=seed).stream("gen"), **kwargs)


def test_paper_nprocs_choices():
    assert PAPER_NPROCS_CHOICES == (8, 16, 32, 64, 128, 256)


def test_jobs_have_increasing_ids():
    gen = _generator()
    jobs = [gen.next_job(float(i)) for i in range(10)]
    assert [j.job_id for j in jobs] == list(range(10))
    assert gen.generated == 10


def test_jobs_draw_from_paper_sets():
    gen = _generator()
    jobs = [gen.next_job(0.0) for _ in range(300)]
    apps = {j.app.name for j in jobs}
    nprocs = {j.nprocs for j in jobs}
    assert apps == {"EP", "CG", "LU", "BT", "SP"}
    assert nprocs == set(PAPER_NPROCS_CHOICES)


def test_mix_is_roughly_uniform():
    gen = _generator()
    jobs = [gen.next_job(0.0) for _ in range(2000)]
    for name in ("EP", "CG", "LU", "BT", "SP"):
        frac = sum(1 for j in jobs if j.app.name == name) / len(jobs)
        assert 0.14 < frac < 0.26


def test_same_seed_same_sequence():
    a = [(j.app.name, j.nprocs) for j in (_generator(5).next_job(0.0) for _ in range(50))]
    b = [(j.app.name, j.nprocs) for j in (_generator(5).next_job(0.0) for _ in range(50))]
    assert a == b


def test_runtime_scale_compresses():
    full = _generator(1, runtime_scale=1.0).next_job(0.0)
    small_gen = _generator(1, runtime_scale=0.1)
    small = small_gen.next_job(0.0)
    assert small.app.name == full.app.name  # same draw
    assert small.nominal_runtime_s == pytest.approx(0.1 * full.nominal_runtime_s)


def test_invalid_configuration():
    rng = RandomSource(seed=0).stream("x")
    with pytest.raises(ConfigurationError):
        RandomJobGenerator(rng, runtime_scale=0.0)
