"""ctypes binding for the fused language-ID and token-stats kernels
(`langid_kernel.c`).  `nem_mms_ray._native` builds and caches the shared
library; without it `ops/textstats` runs its scalar reference (identical
output, slower)."""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from nem_mms_ray import _native

_SRC = Path(__file__).with_name("langid_kernel.c")

_u8p = ctypes.POINTER(ctypes.c_uint8)
_u32p = ctypes.POINTER(ctypes.c_uint32)
_u64p = ctypes.POINTER(ctypes.c_uint64)
_i64p = ctypes.POINTER(ctypes.c_int64)


def _bind(lib: ctypes.CDLL) -> None:
    lib.langid_batch.restype = None
    lib.langid_batch.argtypes = [
        _u8p, _i64p, _i64p, ctypes.c_long,
        _u8p, _u8p, _u32p,
        _u64p, ctypes.c_long, _u64p,
        ctypes.c_long, ctypes.c_long,
        _i64p, _i64p, _u8p]
    lib.token_stats_batch_scan.restype = None
    lib.token_stats_batch_scan.argtypes = [
        _u8p, _i64p, _i64p, ctypes.c_long,
        _u8p, _u32p, ctypes.c_long,
        _i64p, _i64p, _i64p, _u8p]


def get_lib() -> ctypes.CDLL | None:
    return _native.load(_SRC, _bind)


def langid_batch(flat: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                 word_tbl: np.ndarray, safe_tbl: np.ndarray,
                 lower_tbl: np.ndarray, keys: np.ndarray,
                 lang_mask: np.ndarray, max_word_len: int, n_langs: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(n_tokens[d], hits[d, lang], unsafe[d]) over utf8 byte ranges —
    the fused scan, or None when the kernel is unavailable (the caller
    runs `LangId._py_batch`; identical outputs,
    test_langid_native_parity)."""
    lib = get_lib()
    if lib is None or n_langs > 64 or max_word_len > 8:  # uint64 mask / key
        return None
    n_docs = len(starts)
    flat = np.ascontiguousarray(flat, np.uint8)
    starts = np.ascontiguousarray(starts, np.int64)
    ends = np.ascontiguousarray(ends, np.int64)
    word_tbl = np.ascontiguousarray(word_tbl, np.uint8)
    safe_tbl = np.ascontiguousarray(safe_tbl, np.uint8)
    lower_tbl = np.ascontiguousarray(lower_tbl, np.uint32)
    keys = np.ascontiguousarray(keys, np.uint64)
    lang_mask = np.ascontiguousarray(lang_mask, np.uint64)
    n_tokens = np.empty(max(n_docs, 1), np.int64)
    hits = np.empty(max(n_docs * n_langs, 1), np.int64)
    unsafe = np.empty(max(n_docs, 1), np.uint8)
    lib.langid_batch(
        flat.ctypes.data_as(_u8p), starts.ctypes.data_as(_i64p),
        ends.ctypes.data_as(_i64p), ctypes.c_long(n_docs),
        word_tbl.ctypes.data_as(_u8p), safe_tbl.ctypes.data_as(_u8p),
        lower_tbl.ctypes.data_as(_u32p),
        keys.ctypes.data_as(_u64p), ctypes.c_long(len(keys)),
        lang_mask.ctypes.data_as(_u64p),
        ctypes.c_long(int(max_word_len)), ctypes.c_long(int(n_langs)),
        n_tokens.ctypes.data_as(_i64p), hits.ctypes.data_as(_i64p),
        unsafe.ctypes.data_as(_u8p))
    return (n_tokens[:n_docs], hits[:n_docs * n_langs].reshape(
        n_docs, n_langs), unsafe[:n_docs].astype(bool))


def token_stats_scan(flat: np.ndarray, starts: np.ndarray,
                     ends: np.ndarray, ws_ascii: np.ndarray,
                     mb_ws_cps: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray] | None:
    """(n_tokens, n_chars, n_punct, mb_ws_doc_mask) over utf8 byte
    ranges in one fused scan; None when the kernel is unavailable (the
    caller runs `_token_stats_py`).  The ws table and multibyte-\\s
    codepoint set are passed in from ops/textstats."""
    lib = get_lib()
    if lib is None:
        return None
    n_docs = len(starts)
    flat = np.ascontiguousarray(flat, np.uint8)
    starts = np.ascontiguousarray(starts, np.int64)
    ends = np.ascontiguousarray(ends, np.int64)
    ws_ascii = np.ascontiguousarray(ws_ascii, np.uint8)
    mb_ws_cps = np.ascontiguousarray(mb_ws_cps, np.uint32)
    n_tokens = np.empty(max(n_docs, 1), np.int64)
    n_chars = np.empty(max(n_docs, 1), np.int64)
    n_punct = np.empty(max(n_docs, 1), np.int64)
    mb = np.empty(max(n_docs, 1), np.uint8)
    lib.token_stats_batch_scan(
        flat.ctypes.data_as(_u8p), starts.ctypes.data_as(_i64p),
        ends.ctypes.data_as(_i64p), ctypes.c_long(n_docs),
        ws_ascii.ctypes.data_as(_u8p),
        mb_ws_cps.ctypes.data_as(_u32p), ctypes.c_long(len(mb_ws_cps)),
        n_tokens.ctypes.data_as(_i64p), n_chars.ctypes.data_as(_i64p),
        n_punct.ctypes.data_as(_i64p), mb.ctypes.data_as(_u8p))
    return (n_tokens[:n_docs], n_chars[:n_docs], n_punct[:n_docs],
            mb[:n_docs].astype(bool))
