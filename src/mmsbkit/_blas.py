"""One BLAS thread for the pipelines.

The pipelines' dense products are small, and on OpenBLAS their result
can change in the last digits with the thread count (the projector
solve of the -EQ twins does). So :func:`recovery.run_methods` and every
sweep trial run with each loaded OpenBLAS set to one thread: outputs do
not depend on the BLAS thread setting, and the BLAS threads do not
compete with a sweep's trial workers for the cores. A sweep forks its
worker processes inside :func:`one_blas_thread`, so each inherits one
thread.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

#: OpenBLAS thread-count entry points in the order tried, ``{}`` standing
#: for ``get`` or ``set``: the scipy-openblas wheels' 64- and 32-bit
#: integer builds, then a system OpenBLAS of either kind.
OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)

_lock = threading.Lock()
_depth = 0  # blocks inside one_blas_thread, over all threads
_saved: list[tuple] = []  # (set, count) to put back when the last block leaves


def openblas_thread_controls() -> list[tuple]:
    """The ``(get, set)`` thread-count functions of each OpenBLAS that
    numpy and ``scipy.linalg`` link, resolved through their extension
    modules; empty under another BLAS (MKL, Accelerate)."""
    import ctypes
    import importlib

    controls = []
    for module_name in ("numpy._core._multiarray_umath", "scipy.linalg._fblas"):
        try:
            lib = ctypes.CDLL(importlib.import_module(module_name).__file__)
        except ImportError:  # numpy < 2 has no numpy._core: its BLAS is left as set
            continue
        for name in OPENBLAS_THREAD_SYMBOLS:
            get, put = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return controls


@contextmanager
def one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread, then put
    back the counts it had, also when the block raises.

    The count is process-wide, so blocks may nest and overlap across
    threads: the first to enter sets one thread, and the counts come back
    when the last one leaves."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = [(put, get()) for get, put in openblas_thread_controls()]
            for put, _ in _saved:
                put(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for put, count in _saved:
                    put(count)
