import pickle
import threading
import time

import pytest

from softaug.parallel import fork_map


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


@pytest.mark.parametrize("threads", [0, 1])
def test_serial_below_two_threads(threads):
    calls = []
    assert fork_map(lambda x: calls.append(x) or -x, range(4), threads) == [0, -1, -2, -3]
    assert calls == [0, 1, 2, 3]
