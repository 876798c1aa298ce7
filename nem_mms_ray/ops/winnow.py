"""Codepoint k-gram hashes over a batch of documents: the hash pass of
the char n-gram LM (`ops/charlm`).

A k-gram's hash is the positional polynomial sum cp[j] * B^(k-1-j) over
its codepoints (mod 2^64), so equal k-grams hash equal wherever they sit
and anagrams stay apart.  `_flat_corpus` joins a batch into one utf-32
buffer, `_flat_hashes` hashes every position of it (the C Rabin-Karp
kernel `winnow_kernel.c:rolling_hashes`, else the reference
`_kgram_hashes`), and `_valid_positions` keeps the positions whose
k-gram lies inside one document.  The module keeps its name from the
winnowing fingerprints these hashes were first written for.
"""

from __future__ import annotations

import numpy as np

# odd multiplier -> bijective modulo 2^64 per step; same constant family as
# the dedup gram hashes (_GRAM_MULT[0], ops/dedup.py)
_B = np.uint64(0x9E3779B97F4A7C15)


def _codepoints(text) -> np.ndarray:
    """Codepoint array (uint64) of a python string; () for None/''.

    utf-32-le round-trip is the vectorized way to get CHARACTER (not byte)
    semantics, matching SQL substr() in the oracle mirror."""
    if not text:
        return np.zeros(0, np.uint64)
    return np.frombuffer(text.encode("utf-32-le"), np.uint32).astype(np.uint64)


_M64 = (1 << 64) - 1


def _kgram_hashes(cps: np.ndarray, k: int) -> np.ndarray:
    """Positional polynomial hash of every k-gram: h = sum cp[j]*B^(k-1-j)
    (mod 2^64, numpy wrap).  Equal k-grams hash equal regardless of
    position; the positional weights keep anagrams apart.  The reference
    form: the batch hot path is the C kernel behind `_flat_hashes`,
    bit-identical (test_flat_hashes_native_parity)."""
    nh = len(cps) - k + 1
    if nh <= 0:
        return np.zeros(0, np.uint64)
    pows = np.empty(k, np.uint64)
    pw = 1
    for j in range(k - 1, -1, -1):  # python ints: no numpy scalar-overflow warn
        pows[j] = pw
        pw = (pw * int(_B)) & _M64
    win = np.lib.stride_tricks.sliding_window_view(cps, k)
    return (win * pows[None, :]).sum(axis=1, dtype=np.uint64)


def _flat_corpus(texts) -> tuple[np.ndarray, np.ndarray]:
    """(flat codepoints uint32, per-doc codepoint lengths) for a whole
    batch — ONE join + utf-32 encode instead of per-doc encodes.  uint32
    is the C kernel's input form; the numpy arithmetic below upcasts to
    uint64 where it multiplies."""
    joined = "".join(t if t else "" for t in texts)
    flat = np.frombuffer(joined.encode("utf-32-le"), np.uint32)
    lens = np.fromiter((len(t) if t else 0 for t in texts), np.int64,
                       count=len(texts))
    return flat, lens


def _flat_hashes(flat: np.ndarray, k: int) -> np.ndarray:
    """k-gram hashes at EVERY flat position (including ones spanning doc
    boundaries — callers mask with `_valid_positions`).

    The C kernel (`winnow_kernel.c:rolling_hashes`, gated on uint32 input,
    the `_flat_corpus` form, so no hidden copy) streams one fused
    Rabin-Karp pass with no allocation, bit-identical to `_kgram_hashes`
    (test_flat_hashes_native_parity).  Without it the reference
    `_kgram_hashes` runs over the whole flat array: it holds N x k uint64
    temporaries (the windowed product), so the charlm hash pass (k <= 3
    by default) costs a few times the corpus in memory per batch."""
    if flat.dtype == np.uint32 and len(flat) >= k:
        from nem_mms_ray.ops import _winnow_native

        h = _winnow_native.rolling_hashes(flat, k, int(_B))
        if h is not None:
            return h
    return _kgram_hashes(flat, k)


def _valid_positions(lens: np.ndarray, k: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pos, doc_idx, nh): the flat positions whose k-gram lies entirely
    inside one doc, the doc index of each, and per-doc position counts."""
    nh = np.maximum(lens - k + 1, 0)
    offs = np.cumsum(lens) - lens
    total = int(nh.sum())
    cum = np.cumsum(nh) - nh
    intra = np.arange(total, dtype=np.int64) - np.repeat(cum, nh)
    pos = np.repeat(offs, nh) + intra
    doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), nh)
    return pos, doc_idx, nh
