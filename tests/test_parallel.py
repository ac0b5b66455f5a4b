import multiprocessing
import pickle
import threading
import time

import pytest

from softaug.parallel import MAX_THREADS, fork_map


def test_closure_reaches_workers_by_fork_and_results_keep_item_order():
    lock = threading.Lock()
    with pytest.raises(TypeError):
        pickle.dumps(lock)

    def fn(x):
        # The first items finish last, so arrival order differs from item order.
        time.sleep(0.05 if x < 2 else 0.0)
        with lock:
            return x * x

    items = list(range(20))
    assert fork_map(fn, items, threads=2) == [x * x for x in items]


def test_serial_at_one_thread():
    calls = []
    assert fork_map(lambda x: calls.append(x) or -x, range(4), 1) == [0, -1, -2, -3]
    assert calls == [0, 1, 2, 3]


@pytest.mark.parametrize("threads", [0, MAX_THREADS + 1, 10**9])
def test_out_of_range_worker_count_is_refused_before_any_worker_starts(monkeypatch, threads):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    calls = []
    message = rf"^threads must lie in \[1, {MAX_THREADS}\], not {threads}$"
    with pytest.raises(ValueError, match=message):
        fork_map(calls.append, range(4), threads)
    assert calls == []
