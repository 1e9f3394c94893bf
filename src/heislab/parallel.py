"""Deterministic block-parallel map.

Work is split into independent payloads whose results are combined in
payload order, so totals never depend on the worker count.  Randomness
must be derived from indices carried inside the payloads, never from
shared state.  Workers receive (fn, payload) through pickling, so fn
must be a module-level callable.

Inside a shared_pool() block every block_map call reuses one process
pool, sized by and started on the first call that needs more than one
worker, and shut down when the block ends; a call outside such a block
is a block of its own.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

_scope: dict | None = None  # {"pool": executor} once started, inside shared_pool()


@contextmanager
def shared_pool():
    """Let every block_map call in the block share one process pool."""
    global _scope
    if _scope is not None:  # nested: the outer block owns the pool
        yield
        return
    _scope = scope = {}
    try:
        yield
    finally:
        _scope = None
        if "pool" in scope:
            scope["pool"].shutdown()


def block_map(fn, payloads: list, workers: int = 1) -> list:
    """[fn(p) for p in payloads], optionally across processes, order kept."""
    payloads = list(payloads)
    if not payloads:
        return []
    if workers <= 1 or len(payloads) == 1:
        return [fn(p) for p in payloads]
    with shared_pool():
        if "pool" not in _scope:
            _scope["pool"] = ProcessPoolExecutor(max_workers=workers)
        return list(_scope["pool"].map(fn, payloads))
