"""The environment a result was measured in: versions, BLAS and its threads, CPU."""

import ctypes
import os
import platform

import numpy as np

# OpenBLAS exports its thread query under a prefix and suffix that depend on
# how it was built; numpy wheels ship the "scipy_openblas" 64-bit build
_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def _loaded_blas():
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and ".so" in path:
                return path
    return None


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    path = _loaded_blas()
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for symbol in _THREAD_QUERIES:
        query = getattr(lib, symbol, None)
        if query is not None:
            query.restype = ctypes.c_int
            query.argtypes = []
            return int(query())
    return None


def cpu_model():
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def capture():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }
