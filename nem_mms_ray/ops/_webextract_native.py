"""ctypes binding for the single-pass HTML extraction kernel
(`webextract_kernel.c`).  `nem_mms_ray._native` builds and caches the
shared library; without it `extract_batch` returns None and the caller
runs the Arrow RE2 reference (identical output, slower).
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np
import pyarrow as pa

from nem_mms_ray import _native

_SRC = Path(__file__).with_name("webextract_kernel.c")

_u8p = ctypes.POINTER(ctypes.c_uint8)
_i64p = ctypes.POINTER(ctypes.c_int64)


def _bind(lib: ctypes.CDLL) -> None:
    lib.wet_extract_batch.restype = ctypes.c_long
    lib.wet_extract_batch.argtypes = [_u8p, _i64p, ctypes.c_long, _u8p, _i64p]


def get_lib() -> ctypes.CDLL | None:
    return _native.load(_SRC, _bind)


def extract_batch(col: pa.Array | pa.ChunkedArray) -> pa.Array | None:
    """C fast path: one call extracts a whole binary column (Arrow
    large_binary layout passes straight through as (data, offsets) — no
    per-row Python until the final decode).  Returns the extracted string
    array, or None when the kernel is unavailable or the input isn't
    binary (caller runs the Arrow RE2 reference)."""
    lib = get_lib()
    if lib is None:
        return None
    a = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if not (pa.types.is_binary(a.type) or pa.types.is_large_binary(a.type)):
        return None
    a = a.cast(pa.large_binary())
    n = len(a)
    if n == 0:
        return pa.array([], pa.string())
    off = np.frombuffer(a.buffers()[1], np.int64,
                        count=a.offset + n + 1)[a.offset:]
    dbuf = a.buffers()[2]
    data = (np.frombuffer(dbuf, np.uint8, count=dbuf.size)
            if dbuf is not None and dbuf.size else np.zeros(1, np.uint8))
    out = np.empty(int(off[-1] - off[0]) + n + 8, np.uint8)
    out_off = np.empty(n + 1, np.int64)
    off_c = np.ascontiguousarray(off)
    lib.wet_extract_batch(
        data.ctypes.data_as(_u8p), off_c.ctypes.data_as(_i64p),
        ctypes.c_long(n), out.ctypes.data_as(_u8p),
        out_off.ctypes.data_as(_i64p))
    total = int(out_off[n])
    buf = out[:total].tobytes()
    if buf.count(b"\x00") == n - 1:
        # only the kernel's separators: ONE C-speed decode, split per row
        texts = buf.decode("utf-8", "replace").split("\x00")
    else:
        # a row's own bytes contain 0x00 — slice rows via out_off
        texts = [
            buf[int(out_off[r]):int(out_off[r + 1]) - (1 if r < n - 1 else 0)]
            .decode("utf-8", "replace")
            for r in range(n)
        ]
    if a.null_count:
        nulls = np.asarray(pa.compute.is_null(a))
        texts = [None if m else t for t, m in zip(texts, nulls)]
    return pa.array(texts, pa.string())
