"""Deterministic global shuffle + training-shard writer — the OUTPUT
step of a training-data pipeline.

Training runs want the curated corpus (a) globally shuffled, so a
sequential reader sees an unbiased stream, and (b) split into N shard
files, one per reader worker.  `ray.data.Dataset.random_shuffle()` does
(a) but its output depends on cluster size and partitioning — two runs
of the same pipeline produce different orders, which breaks exact
reproducibility of a training run and makes resumable re-shards
impossible.

This module makes the shuffle a PURE FUNCTION of (seed, id): the
shuffle key is the md5 hex digest of "{seed}:{id}", with the id written
as Arrow's cast to string writes it (DuckDB: `CAST(id AS VARCHAR)`; hex
is order-preserving over the digest bytes, so lexicographic string order
== byte order), the order is a global `sort` on that key, and the shard
is the digest's first 60 bits (the key's first 15 hex chars) mod
n_shards (DuckDB mirror: `cast(concat('0x', substr(skey, 1, 15)) as
ubigint) % n` — parity pinned by test_shard.py).  Same corpus + same
seed => byte-identical shard layout on ANY cluster size or
partitioning; a new seed is a fresh epoch-level reshuffle.

Scale shape: one map_batches hashes each id once (an md5 per row over
the batch's Arrow string buffer) and derives both the hex key and the
shard id from the digests with numpy; the sort is ONE all-to-all over
(key, payload) — the same exchange any global shuffle pays, with Ray's
sample-partitioned sort handling skew (keys are uniform by
construction).  Shards land as hive-partitioned parquet
(`shard_id=K/`), each row carrying its key so a reader that needs the
exact global order can sort its shard locally.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


#: the two lowercase hex digits of each byte value
_HEX = np.array([f"{b:02x}".encode() for b in range(256)], "S2")


def _digests(ids: pa.Array | pa.ChunkedArray, seed: int) -> np.ndarray:
    """(n, 16) uint8: the md5 digest of f"{seed}:{id}" per id."""
    strs = pc.cast(ids, pa.string())
    strs = strs.combine_chunks() if isinstance(strs, pa.ChunkedArray) else strs
    if strs.null_count:
        raise ValueError("shard ids must not be null")
    offs = np.frombuffer(strs.buffers()[1], np.int32,
                         len(strs) + 1, strs.offset * 4).tolist()
    data = memoryview(strs.buffers()[2] or b"")
    base = hashlib.md5(f"{seed}:".encode())
    out = bytearray()
    for s, e in zip(offs[:-1], offs[1:]):
        h = base.copy()
        h.update(data[s:e])
        out += h.digest()
    return np.frombuffer(bytes(out), np.uint8).reshape(-1, 16)


def _hex_keys(digests: np.ndarray) -> pa.Array:
    """The md5 hex string of each digest row, built straight into an Arrow
    string buffer."""
    n = len(digests)
    offs = np.arange(0, 32 * n + 1, 32, dtype=np.int32)
    return pa.StringArray.from_buffers(
        n, pa.py_buffer(offs), pa.py_buffer(_HEX[digests].tobytes()))


def _shard_ids(digests: np.ndarray, n_shards: int) -> np.ndarray:
    """int64 shard of each digest row: its first 60 bits (the hex key's
    first 15 chars) mod n_shards."""
    top60 = np.ascontiguousarray(digests[:, :8]).view(">u8").ravel() >> np.uint64(4)
    return (top60 % np.uint64(n_shards)).astype(np.int64)


def add_shuffle_key(ds, seed: int = 0, id_col: str = "doc_id",
                    key_col: str = "skey"):
    """Append the deterministic shuffle key column (md5 hex string)."""

    def add(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            key_col, _hex_keys(_digests(batch.column(id_col), seed)))

    return ds.map_batches(add, batch_format="pyarrow")


def assign_shards(ds, n_shards: int, seed: int = 0, id_col: str = "doc_id",
                  key_col: str = "skey"):
    """Append (skey, shard_id): shard = int(skey[:15], 16) % n_shards —
    uniform by construction, reproducible, and SQL-mirrorable.  One pass:
    both columns come from the same digests."""

    def add(batch: pa.Table) -> pa.Table:
        d = _digests(batch.column(id_col), seed)
        return (batch.append_column(key_col, _hex_keys(d))
                .append_column("shard_id", pa.array(_shard_ids(d, n_shards))))

    return ds.map_batches(add, batch_format="pyarrow")


def write_training_shards(ds, out_dir, n_shards: int, seed: int = 0,
                          id_col: str = "doc_id") -> dict:
    """Shuffle-shard the corpus to `out_dir/shard_id=K/*.parquet`.

    Rows are shard-assigned AND globally sorted by the shuffle key, so
    each shard's files hold its rows in shuffle order; the key column is
    kept so a reader can re-establish the exact order after any
    file-level reordering.  Returns {rows, n_shards}."""
    keyed = assign_shards(ds, n_shards, seed, id_col).sort("skey")
    keyed.write_parquet(str(out_dir), partition_cols=["shard_id"])
    import ray.data as rd

    rows = rd.read_parquet(str(out_dir)).count()
    return {"rows": int(rows), "n_shards": int(n_shards)}
