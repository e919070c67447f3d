"""A scope in which every OpenBLAS loaded in the process runs on one thread.

numpy and scipy wheels each bring an OpenBLAS with its own thread pool.  A
small dense solve loses more to the hand-off and to the pools contending
than a second thread gains: on a 2-vCPU Xeon (numpy 2.4, scipy 1.17) the
benchmark ladder's pass took 0.41-0.48 s with `hodge._spd_solve`'s scipy
Cholesky on two threads, 0.23-0.25 s in this scope.  Libraries are driven
through their thread-count functions, the idiom of threadpoolctl.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading

_lock, _depth, _restore = threading.Lock(), 0, []  # open scopes; what the first saved


@functools.cache
def _openblas_controls():
    """(get, set) thread-count functions of each OpenBLAS loaded, found once."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()
                            and line.split()[-1].startswith("/")})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    put.restype, put.argtypes = None, [ctypes.c_int]
                    controls.append((get, put))
    return tuple(controls)


@contextlib.contextmanager
def one_blas_thread():
    """Run the body on one OpenBLAS thread.  Scopes may nest and be open in
    several threads at once: the first to enter saves each library's count,
    the last to leave restores it.  Does nothing when no OpenBLAS is loaded.
    """
    global _depth
    with _lock:
        if not _depth:
            _restore[:] = [(put, get()) for get, put in _openblas_controls()]
            for put, _ in _restore:
                put(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if not _depth:
                for put, count in _restore:
                    put(count)
