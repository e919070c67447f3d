"""A scope in which every OpenBLAS loaded in the process runs on one thread.

Loops of small dense solves (matrices of a few hundred rows) lose more to
OpenBLAS's thread hand-off than they gain from a second thread.  The
libraries are found through /proc/self/maps and driven through their
exported thread-count functions, the idiom of threadpoolctl
(https://github.com/joblib/threadpoolctl).

numpy and scipy wheels each bring their own OpenBLAS, each with its own
thread pool, and alternating between them costs.  On a 2-vCPU Xeon
(numpy 2.4, scipy 1.17, two threads per pool), a scipy Cholesky factor
and solve of a 408 x 408 system took 3.5 ms alone and 7.4-8.2 ms right
after a numpy `eigh`, while numpy's own `solve` took 4.6-4.9 ms and
5.3 ms: the second pool contends with the first.  The spectral layer
(`hodge`, the smooth fit in `learn`) therefore keeps its dense LAPACK
calls on numpy.
"""

from __future__ import annotations

import contextlib
import ctypes


def _openblas_controls():
    """(get, set) thread-count functions of each OpenBLAS loaded in the process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()
                            and line.split()[-1].startswith("/")})
    except OSError:
        return []
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
    return controls


@contextlib.contextmanager
def one_blas_thread():
    """Run the body on one OpenBLAS thread; restore each old count on exit.

    Does nothing when no OpenBLAS is loaded.
    """
    controls = _openblas_controls()
    saved = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(1)
        yield
    finally:
        for (_, put), count in zip(controls, saved):
            put(count)
