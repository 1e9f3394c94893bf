"""Deterministic block-parallel map.

Work is split into independent payloads whose results are combined in
payload order, so totals never depend on the worker count.  Randomness
must be derived from indices carried inside the payloads, never from
shared state.  Workers receive (fn, payload) through pickling, so fn
must be a module-level callable.

Inside a shared_pool() block every block_map call reuses one process
pool, started on the first call that needs more than one worker with
one process per payload of that call up to its worker count, and shut
down when the block ends; a call outside such a block is a block of its
own.  MAX_WORKERS is the largest worker count the CLI accepts.

one_blas_thread() pins numpy's bundled OpenBLAS pool to one thread for a
block: solver floats depend on the pool size, so this keeps their files
byte-identical at any OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import cache
from pathlib import Path

MAX_WORKERS = 64

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
            _scope["pool"] = ProcessPoolExecutor(max_workers=min(workers, len(payloads)))
        return list(_scope["pool"].map(fn, payloads))


@contextmanager
def one_blas_thread():
    """Run the block with the bundled OpenBLAS pool at one thread and restore
    the old count on exit; without that library the block runs unpinned."""
    pool = _openblas_threads()
    if pool is None:
        yield
        return
    get, set_ = pool
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)


@cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None
