"""Contiguous bands of an integer range, mapped inline or over a process
pool sized to the number of bands."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator


def _collect(job):
    fn, args = job
    out = fn(*args)
    return list(out) if isinstance(out, Iterator) else out


def map_bands(fn, head: tuple, lo: int, hi: int, workers: int) -> list:
    """[fn(*head, band_lo, band_hi) for each band], bands in order.

    [lo, hi) is cut into min(workers, os.cpu_count() or 1, hi - lo)
    contiguous bands (at least one), and a pool gets exactly that many
    processes.  A single band calls fn inline and starts no pool, so a
    generator result stays lazy; in a pool a generator's items are
    collected in the worker.
    """
    n = max(1, min(workers, os.cpu_count() or 1, hi - lo))
    if n == 1:
        return [fn(*head, lo, hi)]
    cuts = [lo + (hi - lo) * i // n for i in range(n + 1)]
    jobs = [(fn, (*head, a, b)) for a, b in zip(cuts, cuts[1:])]
    with ProcessPoolExecutor(max_workers=n) as pool:
        return list(pool.map(_collect, jobs))
