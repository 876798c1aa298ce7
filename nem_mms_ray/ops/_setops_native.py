"""ctypes binding for the sorted-set intersection, MinHash and streamed
union-find kernels (`setops_kernel.c`).  `nem_mms_ray._native` builds and
caches the shared library; without it each op runs its numpy or Python
reference (identical output, slower)."""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from nem_mms_ray import _native

_SRC = Path(__file__).with_name("setops_kernel.c")

_u64p = ctypes.POINTER(ctypes.c_uint64)
_i64p = ctypes.POINTER(ctypes.c_int64)


def _bind(lib: ctypes.CDLL) -> None:
    lib.intersect_count_pairs.restype = ctypes.c_long
    lib.intersect_count_pairs.argtypes = [
        _u64p, _i64p, _i64p, _i64p, ctypes.c_long, ctypes.c_double, _i64p]
    lib.minhash_signatures.restype = ctypes.c_long
    lib.minhash_signatures.argtypes = [
        _u64p, _i64p, ctypes.c_long, _u64p, _u64p, ctypes.c_long, _u64p]
    lib.union_find_edges.restype = None
    lib.union_find_edges.argtypes = [_i64p, _i64p, ctypes.c_long, _i64p]
    lib.union_find_flatten.restype = None
    lib.union_find_flatten.argtypes = [_i64p, ctypes.c_long]


def get_lib() -> ctypes.CDLL | None:
    return _native.load(_SRC, _bind)


def minhash_signatures(sets: list, a: np.ndarray,
                       b: np.ndarray) -> np.ndarray | None:
    """(n_docs, num_perm) uint64 MinHash signatures for a list of uint64
    shingle arrays — one C call for the whole batch, bit-identical to
    ops/dedup._minhash per doc.  None when the kernel is unavailable
    (caller falls back to the per-doc numpy loop)."""
    lib = get_lib()
    if lib is None:
        return None
    n = len(sets)
    num_perm = len(a)
    off = np.zeros(n + 1, np.int64)
    if n:
        off[1:] = np.cumsum([len(s) for s in sets])
    vals = (np.ascontiguousarray(np.concatenate(sets), np.uint64)
            if n and off[-1] else np.zeros(0, np.uint64))
    a = np.ascontiguousarray(a, np.uint64)
    b = np.ascontiguousarray(b, np.uint64)
    out = np.empty(n * num_perm, np.uint64)
    lib.minhash_signatures(
        vals.ctypes.data_as(_u64p), off.ctypes.data_as(_i64p),
        ctypes.c_long(n), a.ctypes.data_as(_u64p), b.ctypes.data_as(_u64p),
        ctypes.c_long(num_perm), out.ctypes.data_as(_u64p))
    return out.reshape(n, num_perm)


def intersect_counts(vals: np.ndarray, off: np.ndarray,
                     a_idx: np.ndarray, b_idx: np.ndarray,
                     min_j: float = 0.0) -> np.ndarray:
    """|A_i & B_i| per pair over a flat store of sorted-unique uint64
    sets: set k is vals[off[k]:off[k+1]].  C kernel when available,
    numpy fallback (searchsorted probe of the smaller side into the
    larger) otherwise — identical results.

    min_j > 0 arms the Jaccard early exit (see setops_kernel.c): pairs
    that provably cannot reach jaccard >= min_j report a count UPPER
    BOUND still mapping to j < min_j — exact for every pair at or above
    the threshold, threshold-equivalent below it.  The numpy fallback
    always computes exact counts (exact is a valid instance of the
    bound contract)."""
    n = len(a_idx)
    out = np.empty(n, np.int64)
    if n == 0:
        return out
    vals = np.ascontiguousarray(vals, np.uint64)
    off = np.ascontiguousarray(off, np.int64)
    a_idx = np.ascontiguousarray(a_idx, np.int64)
    b_idx = np.ascontiguousarray(b_idx, np.int64)
    lib = get_lib()
    if lib is not None:
        lib.intersect_count_pairs(
            vals.ctypes.data_as(_u64p), off.ctypes.data_as(_i64p),
            a_idx.ctypes.data_as(_i64p), b_idx.ctypes.data_as(_i64p),
            ctypes.c_long(n), ctypes.c_double(min_j),
            out.ctypes.data_as(_i64p))
        return out
    for i in range(n):
        sa = vals[off[a_idx[i]]:off[a_idx[i] + 1]]
        sb = vals[off[b_idx[i]]:off[b_idx[i] + 1]]
        if len(sa) > len(sb):
            sa, sb = sb, sa
        if len(sa) == 0:
            out[i] = 0
            continue
        pos = np.searchsorted(sb, sa)
        pos[pos == len(sb)] = len(sb) - 1
        out[i] = int((sb[pos] == sa).sum())
    return out


class StreamingUnionFind:
    """Incremental union-find over STREAMED edge batches (the driver
    regime of `dedup.connected_components`): memory is O(nodes), edges
    are consumed batch by batch and never held together.  Node ids must
    be pre-mapped to dense codes 0..n_nodes-1 sorted by id (np.unique
    order); union by min root then makes each flattened root its set's
    minimum id.  The C kernel runs when it builds; otherwise the
    interpreted loop below, its reference (identical labels; 5.9 s
    against 0.03 s on 2.37M random edges)."""

    def __init__(self, n_nodes: int):
        self._lib = get_lib()
        self.parent = np.arange(int(n_nodes), dtype=np.int64)

    def add_edges(self, src_codes: np.ndarray, dst_codes: np.ndarray) -> None:
        src_codes = np.ascontiguousarray(src_codes, np.int64)
        dst_codes = np.ascontiguousarray(dst_codes, np.int64)
        if self._lib is not None:
            self._lib.union_find_edges(
                src_codes.ctypes.data_as(_i64p),
                dst_codes.ctypes.data_as(_i64p),
                ctypes.c_long(len(src_codes)),
                self.parent.ctypes.data_as(_i64p))
            return
        parent = self.parent

        def find(x: int) -> int:  # path halving, as the kernel does
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = int(parent[x])
            return x

        for a, b in zip(src_codes.tolist(), dst_codes.tolist()):
            a, b = find(a), find(b)
            if a != b:
                parent[max(a, b)] = min(a, b)

    def flatten(self) -> np.ndarray:
        """parent[i] = the root of i, for every node."""
        if self._lib is not None:
            self._lib.union_find_flatten(self.parent.ctypes.data_as(_i64p),
                                         ctypes.c_long(len(self.parent)))
            return self.parent
        # pointer jumping: each pass halves every path to its root
        while True:
            nxt = self.parent[self.parent]
            if (nxt == self.parent).all():
                return self.parent
            self.parent = nxt
