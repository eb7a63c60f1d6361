"""Tests for the shared bounded LRU cache."""

import sys
import threading

from repro.utils.cache import BoundedCache


def test_concurrent_misses_of_one_key_store_the_first_insert_once():
    cache = BoundedCache(maxsize=4, max_bytes=100)
    both_missed = threading.Barrier(2, timeout=10)
    results = [None, None]

    def miss_then_put(index):
        assert cache.get("key") is None
        both_missed.wait()
        results[index] = cache.put("key", object(), nbytes=10)

    threads = [threading.Thread(target=miss_then_put, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert results[0] is not None and results[0] is results[1]
    assert cache.info() == {"hits": 0, "misses": 2, "entries": 1, "bytes": 10}
    assert cache.get("key") is results[0]


def test_counters_and_budget_hold_under_thread_contention():
    cache = BoundedCache(maxsize=8, max_bytes=50)
    lookups_per_thread, num_threads = 2000, 8

    def hammer(seed):
        for i in range(lookups_per_thread):
            key = (seed * 7 + i) % 13
            if cache.get(key) is None:
                cache.put(key, key, nbytes=key)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    info = cache.info()
    assert info["hits"] + info["misses"] == lookups_per_thread * num_threads
    assert info["entries"] <= 8 and info["bytes"] <= 50
    # A lost update would leave the byte counter out of step with the store.
    assert info["bytes"] == sum(key for key in range(13) if cache.get(key) is not None)
