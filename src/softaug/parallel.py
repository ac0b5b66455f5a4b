"""Order-preserving map over a fork pool.

The function reaches the workers through ``fork``, never through pickle,
so it may close over anything (models, locks, partials).  Results come
back in item order, so the worker count changes scheduling, never
output.
"""

from __future__ import annotations

from typing import Callable, Iterable

# Upper bound on the worker count.  Each worker is a forked process, so
# ``check_threads`` refuses a count above it before any starts; past the
# machine's cores more workers only add forks.
MAX_THREADS = 64

# The mapped function; set by the pool initializer, in workers only.
_FN: Callable | None = None


def _init(fn: Callable) -> None:
    global _FN
    _FN = fn


def _call(item):
    return _FN(item)


def check_threads(threads: int) -> None:
    """The range check for a worker count, from a flag or a caller."""
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads must lie in [1, {MAX_THREADS}], not {threads}")


def fork_map(fn: Callable, items: Iterable, threads: int) -> list:
    """``[fn(x) for x in items]``, on *threads* forked workers when > 1.
    Items go to the workers one at a time, so jobs of uneven cost balance.
    A worker count outside ``check_threads``' range is refused before any
    worker starts."""
    check_threads(threads)
    if threads == 1:
        return [fn(x) for x in items]
    # Imported at the first pooled call: a serial run never needs it, and
    # importing it costs every start of the package about 12 ms.
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(threads, initializer=_init, initargs=(fn,)) as pool:
        return pool.map(_call, items, chunksize=1)
