"""ctypes loader for the compiled backend library.

The shared object is optional: :func:`available` probes for it without
raising, and the compiled stage wrappers run numpy when it is absent.  The
search order is the ``REPRO_NATIVE_LIB`` environment variable (explicit
path, for packaged installs) then the in-tree build location
(``_native/libhdagg_native.so``, produced by
``python -m repro.core.backends.build``).
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path
from typing import Optional

import numpy as np
from numpy.ctypeslib import ndpointer

__all__ = ["available", "load", "reset", "library_path"]

ENV_LIB = "REPRO_NATIVE_LIB"

_i64 = ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_f64 = ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_u8 = ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")

_lib: Optional[ctypes.CDLL] = None
_load_failed = False


def library_path() -> Optional[Path]:
    """Path the loader would use, or None when no library file exists."""
    env = os.environ.get(ENV_LIB)
    if env:
        p = Path(env)
        return p if p.exists() else None
    p = Path(__file__).resolve().parent / "_native" / "libhdagg_native.so"
    return p if p.exists() else None


def reset() -> None:
    """Drop the cached handle (after a rebuild, or in tests)."""
    global _lib, _load_failed
    _lib = None
    _load_failed = False


def load() -> Optional[ctypes.CDLL]:
    """The loaded library, or None when absent/unloadable.  Never raises."""
    global _lib, _load_failed
    if _lib is not None:
        return _lib
    if _load_failed:
        return None
    path = library_path()
    if path is None:
        _load_failed = True
        return None
    try:
        lib = ctypes.CDLL(str(path))
        _bind(lib)
    except OSError:
        _load_failed = True
        return None
    _lib = lib
    return lib


def available() -> bool:
    """True when the compiled stages can actually serve calls."""
    return load() is not None


def _bind(lib: ctypes.CDLL) -> None:
    lib.hd_wavefronts.restype = ctypes.c_int
    lib.hd_wavefronts.argtypes = [
        ctypes.c_int64, _i64, _i64,  # n, indptr, indices
        _i64, _i64, _i64,            # level, order, wptr
        ctypes.POINTER(ctypes.c_int64),  # n_levels_out
    ]
    lib.hd_lbp.restype = ctypes.c_int
    lib.hd_lbp.argtypes = [
        ctypes.c_int64, _i64, _i64,          # n, indptr, indices
        _f64, ctypes.c_int64, ctypes.c_double,  # cost, p, epsilon
        _i64, _i64, _i64, ctypes.c_int64,    # level, order, wptr, n_levels
        _i64, _i64, _i64,                    # cw_lo, cw_ptr, vertices
        _i64, _i64, _f64,                    # sizes, comp_bin, loads
        _f64, _u8,                           # dec_pgp, dec_merged
        ctypes.POINTER(ctypes.c_int64),      # n_cw_out
    ]
    lib.hd_coarsen.restype = ctypes.c_int
    lib.hd_coarsen.argtypes = [
        ctypes.c_int64, _i64, _i64,          # n, indptr, indices
        _i64, ctypes.c_int64, _f64,          # labels, n_groups, cost
        _i64, _i64, ctypes.POINTER(ctypes.c_int64),  # out_indptr, out_indices, out_nedges
        _f64,                                # group_cost
    ]
