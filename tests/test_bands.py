"""The band splitter and its pool sizing.  The executor is replaced by a
fake that maps serially, so no test here starts a process."""

import os

import pytest

from salemcensus import _bands
from salemcensus.census import enumerate_salem_deg4, enumerate_sr
from salemcensus.totally_real import count_system, enumerate_system


class FakePool:
    sizes: list[int] = []

    def __init__(self, max_workers):
        FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.fixture
def pool(monkeypatch):
    FakePool.sizes = []
    monkeypatch.setattr(_bands, "ProcessPoolExecutor", FakePool)
    return FakePool.sizes


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def span(lo, hi):
    return (lo, hi)


def test_pool_is_sized_to_the_bands_not_the_flag(pool, monkeypatch):
    set_cpus(monkeypatch, 64)
    assert _bands.map_bands(span, (), 10, 13, 500) == [(10, 11), (11, 12), (12, 13)]
    assert pool == [3]


def test_bands_are_clamped_to_the_cpus(pool, monkeypatch):
    set_cpus(monkeypatch, 2)
    assert _bands.map_bands(span, (), 0, 100, 8) == [(0, 50), (50, 100)]
    assert pool == [2]


@pytest.mark.parametrize("workers, cpus, lo, hi", [
    (1, 64, 0, 100),   # one worker
    (8, 1, 0, 100),    # one cpu
    (8, None, 0, 100),  # cpu count unknown
    (8, 64, 5, 6),     # one row
    (8, 64, 5, 5),     # empty range
])
def test_one_band_runs_inline_without_a_pool(pool, monkeypatch, workers, cpus, lo, hi):
    set_cpus(monkeypatch, cpus)
    assert _bands.map_bands(span, (), lo, hi, workers) == [(lo, hi)]
    assert pool == []


def test_inline_generators_stay_lazy(pool, monkeypatch):
    set_cpus(monkeypatch, 64)

    def rows(lo, hi):
        yield from range(lo, hi)

    (band,) = _bands.map_bands(rows, (), 0, 10**12, 1)
    assert next(band) == 0


def tagged_rows(tag, lo, hi):
    for i in range(lo, hi):
        yield tag, i


def test_pooled_generators_are_collected_in_order(pool, monkeypatch):
    set_cpus(monkeypatch, 64)
    bands = _bands.map_bands(tagged_rows, ("x",), 0, 10, 4)
    assert pool == [4]
    assert all(isinstance(b, list) for b in bands)
    assert [r for b in bands for r in b] == [("x", i) for i in range(10)]


def test_censuses_through_the_pool_match_inline(pool, monkeypatch):
    set_cpus(monkeypatch, 64)
    deg4 = [(r.a, r.b, r.k) for r in enumerate_salem_deg4(30, workers=500)]
    sr = [(r.a, r.b, r.k) for r in enumerate_sr(30, workers=7)]
    system = [(s.a.u, s.a.v, s.k.u, s.k.v) for s in enumerate_system(2, 40, workers=5)]
    count = count_system(5, 300, workers=3)
    # 32 rows of a, and fewer workers than rows
    assert pool == [32, 7, 5, 3]
    monkeypatch.undo()
    assert deg4 == [(r.a, r.b, r.k) for r in enumerate_salem_deg4(30)]
    assert sr == [(r.a, r.b, r.k) for r in enumerate_sr(30)]
    assert system == [(s.a.u, s.a.v, s.k.u, s.k.v) for s in enumerate_system(2, 40)]
    assert count == count_system(5, 300)
