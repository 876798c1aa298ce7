"""ctypes binding for the rolling-hash kernel (`winnow_kernel.c`).
`nem_mms_ray._native` builds and caches the shared library; without it
`ops/winnow` runs its reference (identical output, slower)."""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from nem_mms_ray import _native

_SRC = Path(__file__).with_name("winnow_kernel.c")

_u64p = ctypes.POINTER(ctypes.c_uint64)
_u32p = ctypes.POINTER(ctypes.c_uint32)


def _bind(lib: ctypes.CDLL) -> None:
    lib.rolling_hashes.restype = ctypes.c_long
    lib.rolling_hashes.argtypes = [
        _u32p, ctypes.c_long, ctypes.c_long, ctypes.c_uint64, _u64p]


def get_lib() -> ctypes.CDLL | None:
    return _native.load(_SRC, _bind)


def rolling_hashes(flat32: np.ndarray, k: int, bmul: int
                   ) -> np.ndarray | None:
    """All k-gram hashes of a flat uint32 buffer (one Rabin-Karp pass, no
    doc-boundary masking — callers mask), or None when the kernel is
    unavailable.  Bit-identical to the reference `ops/winnow._kgram_hashes`;
    feeds the charlm train/score hash pass where two
    full-corpus hash sweeps (n and n-1 grams) dominate the batch wall."""
    lib = get_lib()
    if lib is None or k < 1:
        return None
    flat32 = np.ascontiguousarray(flat32, np.uint32)
    n = len(flat32)
    out = np.empty(max(n - k + 1, 1), np.uint64)
    m = lib.rolling_hashes(
        flat32.ctypes.data_as(_u32p), ctypes.c_long(n), ctypes.c_long(k),
        ctypes.c_uint64(bmul), out.ctypes.data_as(_u64p))
    return out[:m]
