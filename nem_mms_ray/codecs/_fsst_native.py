"""ctypes binding for the FSST C kernels (`fsst_kernel.c`), with the
pure-Python reference as the fallback.

`nem_mms_ray._native` builds and caches the shared library; without a
usable C compiler the reference loops below run instead (identical
output, much slower).
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from nem_mms_ray import _native

ESCAPE = 255
_SRC = Path(__file__).with_name("fsst_kernel.c")


def _bind(lib: ctypes.CDLL) -> None:
    u8p = ctypes.POINTER(ctypes.c_uint8)
    for fn in (lib.fsst_encode, lib.fsst_decode):
        fn.restype = ctypes.c_long
        fn.argtypes = [u8p, u8p, ctypes.c_int, u8p, ctypes.c_long, u8p]


def get_lib() -> ctypes.CDLL | None:
    return _native.load(_SRC, _bind)


def _u8p(a: np.ndarray):
    return a.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8))


# Per-worker grow-only scratch for encode output.  First-touch page faults
# on multi-MB fresh allocations cost 10-50x the actual kernel time in this
# environment (measured: 6ms decode vs 330ms first-touch for a 23MB chunk);
# a reused scratch faults once per worker process instead of once per chunk.
# Safe to alias: every caller copies the slice out (tobytes / pack_sections)
# before the next call.
_ENC_SCRATCH: np.ndarray | None = None


def _enc_scratch(n: int) -> np.ndarray:
    global _ENC_SCRATCH
    if _ENC_SCRATCH is None or len(_ENC_SCRATCH) < n:
        _ENC_SCRATCH = np.empty(max(n, 1 << 20), np.uint8)
    return _ENC_SCRATCH


def encode(sym_bytes: np.ndarray, sym_lens: np.ndarray, data) -> bytes:
    """Greedy longest-match FSST encode of `data` (bytes or a uint8 view)
    with the given table.

    sym_bytes: (n_sym, 8) uint8 (symbols left-justified, zero padded)
    sym_lens:  (n_sym,) uint8 in 1..8
    """
    n = len(data)
    if n == 0:
        return b""
    inp = np.frombuffer(data, np.uint8)
    lib = get_lib()
    if lib is not None:
        out = _enc_scratch(2 * n + 64)  # dual-lane: lane B region at out+n
        m = lib.fsst_encode(
            _u8p(np.ascontiguousarray(sym_bytes)),
            _u8p(np.ascontiguousarray(sym_lens)),
            len(sym_lens), _u8p(inp), n, _u8p(out),
        )
        return out[:m].tobytes()
    return _py_encode(sym_bytes, sym_lens, data)


def decode_np(sym_bytes: np.ndarray, sym_lens: np.ndarray, enc,
              out_size: int) -> np.ndarray:
    """Decode into an exactly-sized, owned uint8 array (no extra copy: the
    caller can hand the array to pa.py_buffer zero-copy)."""
    if len(enc) == 0:
        return np.zeros(0, np.uint8)
    inp = np.frombuffer(enc, np.uint8)
    lib = get_lib()
    if lib is not None:
        out = np.empty(out_size + 8, np.uint8)  # +8: memcpy slack
        m = lib.fsst_decode(
            _u8p(np.ascontiguousarray(sym_bytes)),
            _u8p(np.ascontiguousarray(sym_lens)),
            len(sym_lens), _u8p(inp), len(inp), _u8p(out),
        )
        return out[:m]
    return np.frombuffer(_py_decode(sym_bytes, sym_lens, bytes(enc)), np.uint8)


def decode(sym_bytes: np.ndarray, sym_lens: np.ndarray, enc: bytes, out_size: int) -> bytes:
    return decode_np(sym_bytes, sym_lens, enc, out_size).tobytes()


# ---------------------------------------------------------------------------
# Pure-Python reference implementations (correctness oracle for the C path)
# ---------------------------------------------------------------------------


# Inputs >= this size encode as two halves (C kernel's dual-lane scheme;
# keep in sync with DUAL_MIN in fsst_kernel.c)
_DUAL_MIN = 4096


# Lane count of the C kernel's split: `fsst_encode` cuts at `split = n / 2`
# (fsst_kernel.c has no named constant for it; keep the two in sync)
_NLANE = 2


def _py_encode(sym_bytes: np.ndarray, sym_lens: np.ndarray, data) -> bytes:
    data = bytes(data)  # the span loop looks slices up in dicts: hashable bytes
    if len(data) >= _DUAL_MIN:
        # mirror of the C kernel's lane split (no recursion): encode each
        # half as an independent span — matches cannot cross boundaries
        q = len(data) // _NLANE
        cuts = [L * q for L in range(_NLANE)] + [len(data)]
        return b"".join(
            _py_encode_span(sym_bytes, sym_lens, data[cuts[L]:cuts[L + 1]])
            for L in range(_NLANE))
    return _py_encode_span(sym_bytes, sym_lens, data)


def _py_encode_span(sym_bytes: np.ndarray, sym_lens: np.ndarray, data: bytes) -> bytes:
    by_len: dict[int, dict[bytes, int]] = {}
    byte_code: dict[int, int] = {}
    max_len = 1
    for code, (row, ln) in enumerate(zip(sym_bytes, sym_lens)):
        ln = int(ln)
        sym = bytes(row[:ln])
        if ln == 1:
            byte_code[sym[0]] = code
        else:
            by_len.setdefault(ln, {})[sym] = code
            max_len = max(max_len, ln)
    out = bytearray()
    i, n = 0, len(data)
    while i < n:
        matched = False
        for ln in range(min(max_len, n - i), 1, -1):
            tbl = by_len.get(ln)
            if tbl is None:
                continue
            c = tbl.get(data[i : i + ln])
            if c is not None:
                out.append(c)
                i += ln
                matched = True
                break
        if not matched:
            b = data[i]
            c1 = byte_code.get(b)
            if c1 is not None:
                out.append(c1)
            else:
                out.append(ESCAPE)
                out.append(b)
            i += 1
    return bytes(out)


def _py_decode(sym_bytes: np.ndarray, sym_lens: np.ndarray, enc: bytes) -> bytes:
    syms = [bytes(row[: int(ln)]) for row, ln in zip(sym_bytes, sym_lens)]
    out = bytearray()
    i, n = 0, len(enc)
    while i < n:
        c = enc[i]
        if c == ESCAPE:
            i += 1
            out.append(enc[i])
        else:
            out += syms[c]
        i += 1
    return bytes(out)
