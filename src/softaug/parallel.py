"""Order-preserving map over a fork pool.

The function reaches the workers through ``fork``, never through pickle,
so it may close over anything (models, locks, partials).  Results come
back in item order, so the worker count changes scheduling, never
output.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Iterable

# The mapped function; set by the pool initializer, in workers only.
_FN: Callable | None = None


def _init(fn: Callable) -> None:
    global _FN
    _FN = fn


def _call(item):
    return _FN(item)


def fork_map(fn: Callable, items: Iterable, threads: int, chunksize: int = 1) -> list:
    """``[fn(x) for x in items]``, on *threads* forked workers when > 1."""
    if threads <= 1:
        return [fn(x) for x in items]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(threads, initializer=_init, initargs=(fn,)) as pool:
        return pool.map(_call, items, chunksize=chunksize)
