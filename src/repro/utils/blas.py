"""Cap the BLAS thread pool of the current process.

A training endpoint (a pool worker or a remote agent) is one of several
processes sharing a host's cores.  Left alone, the OpenBLAS that numpy
loads starts one thread per core in each of them, and the processes then
fight over the cores on every GEMM: on a 2-core host, two agents ran the
same model's ``EnsembleLinear.forward`` about 40x slower per call than one
process did.  numpy has no API for the pool size, so this finds the
OpenBLAS library mapped into the process and calls its
``*set_num_threads*`` entry point through ``ctypes``.  When no OpenBLAS
is loaded (another BLAS, or a platform without ``/proc/self/maps``) it
changes nothing and logs one line.
"""

from __future__ import annotations

import ctypes

import numpy as np  # noqa: F401  (loads the BLAS whose symbols are looked up)

from repro.utils.logging import get_logger

__all__ = ["blas_threads", "limit_blas_threads"]

_log = get_logger(__name__)

# Entry points of numpy's bundled OpenBLAS (64-bit-integer build) first,
# then of a system OpenBLAS.
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)
_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _openblas_function(names: tuple[str, ...], argtypes: list, restype):
    """The first of ``names`` exported by a BLAS library this process mapped,
    declared with ``argtypes`` and ``restype``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "blas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        if not path.endswith(".so") and ".so." not in path:
            continue
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            function = getattr(library, name, None)
            if function is not None:
                function.argtypes, function.restype = argtypes, restype
                return function
    return None


def blas_threads() -> int | None:
    """The loaded OpenBLAS's thread count, or ``None`` if none is found."""
    getter = _openblas_function(_GETTERS, [], ctypes.c_int)
    return None if getter is None else int(getter())


def limit_blas_threads(threads: int = 1) -> bool:
    """Cap the loaded OpenBLAS at ``threads``; False if none was found."""
    setter = _openblas_function(_SETTERS, [ctypes.c_int], None)
    if setter is None:
        _log.info("no OpenBLAS found; BLAS thread count left unchanged")
        return False
    setter(threads)
    return True
