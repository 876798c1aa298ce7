"""ctypes binding for the winnowing selection and rolling-hash kernels
(`winnow_kernel.c`).  `nem_mms_ray._native` builds and caches the shared
library; without it `ops/winnow` runs its references (identical output,
slower)."""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from nem_mms_ray import _native

_SRC = Path(__file__).with_name("winnow_kernel.c")

_u64p = ctypes.POINTER(ctypes.c_uint64)
_u32p = ctypes.POINTER(ctypes.c_uint32)
_i64p = ctypes.POINTER(ctypes.c_int64)

# VLA deque lives on the C stack; cap the window far below any sane use
MAX_WINDOW = 4096


def _bind(lib: ctypes.CDLL) -> None:
    lib.winnow_batch.restype = ctypes.c_long
    lib.winnow_batch.argtypes = [
        _u32p, _i64p, ctypes.c_long, ctypes.c_long, ctypes.c_long,
        ctypes.c_uint64, _u64p, _i64p]
    lib.rolling_hashes.restype = ctypes.c_long
    lib.rolling_hashes.argtypes = [
        _u32p, ctypes.c_long, ctypes.c_long, ctypes.c_uint64, _u64p]


def get_lib() -> ctypes.CDLL | None:
    return _native.load(_SRC, _bind)


def winnow_batch(flat32: np.ndarray, lens: np.ndarray, k: int, window: int,
                 bmul: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(run-deduped selected minima doc-major, per-doc counts) for a flat
    uint32 codepoint buffer, or None when the kernel is unavailable (the
    caller runs the per-doc `winnow_select` reference).  Values are
    bit-identical to `_kgram_hashes` — the caller still owes the per-doc
    distinct pass."""
    lib = get_lib()
    if lib is None or window > MAX_WINDOW or k < 1:
        return None
    flat32 = np.ascontiguousarray(flat32, np.uint32)
    lens = np.ascontiguousarray(lens, np.int64)
    cap = int(np.maximum(lens - k + 1, 0).sum())
    out = np.empty(max(cap, 1), np.uint64)
    counts = np.empty(max(len(lens), 1), np.int64)
    n = lib.winnow_batch(
        flat32.ctypes.data_as(_u32p), lens.ctypes.data_as(_i64p),
        ctypes.c_long(len(lens)), ctypes.c_long(k), ctypes.c_long(window),
        ctypes.c_uint64(bmul), out.ctypes.data_as(_u64p),
        counts.ctypes.data_as(_i64p))
    return out[:n], counts[:len(lens)]


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
