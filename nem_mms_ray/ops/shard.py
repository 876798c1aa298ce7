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
shuffle key is the md5 hex digest of "{seed}:{id}" (hex is
order-preserving over the digest bytes, so lexicographic string order
== byte order), the order is a global `sort` on that key, and the
shard is the key's first-15-hex-chars value mod n_shards (DuckDB
mirror: `cast(concat('0x', substr(skey, 1, 15)) as ubigint) % n` — parity
pinned by test_shard.py).  Same corpus + same seed => byte-identical
shard layout on ANY cluster size or partitioning; a new seed is a
fresh epoch-level reshuffle.

Scale shape: the key is a per-row Python loop (`to_pylist()`, one
`hashlib.md5` and one hex string per id); the sort is ONE all-to-all
over (key, payload) — the same exchange any global shuffle pays, with
Ray's sample-partitioned sort handling skew (keys are uniform by
construction).  Shards land as hive-partitioned parquet
(`shard_id=K/`), each row carrying its key so a reader that needs the
exact global order can sort its shard locally.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa


def _shuffle_keys(ids, seed: int) -> list[str]:
    """md5 hex of f"{seed}:{id}" per id — the deterministic shuffle key."""
    if isinstance(ids, (pa.Array, pa.ChunkedArray)):
        ids = ids.to_pylist()
    pre = f"{seed}:".encode()
    return [hashlib.md5(pre + str(i).encode()).hexdigest() for i in ids]


def add_shuffle_key(ds, seed: int = 0, id_col: str = "doc_id",
                    key_col: str = "skey"):
    """Append the deterministic shuffle key column (md5 hex string)."""

    def add(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            key_col, pa.array(_shuffle_keys(batch.column(id_col), seed)))

    return ds.map_batches(add, batch_format="pyarrow")


def assign_shards(ds, n_shards: int, seed: int = 0, id_col: str = "doc_id",
                  key_col: str = "skey"):
    """Append (skey, shard_id): shard = int(skey[:15], 16) % n_shards —
    uniform by construction, reproducible, and SQL-mirrorable."""
    keyed = add_shuffle_key(ds, seed, id_col, key_col)

    def shard(batch: pa.Table) -> pa.Table:
        ks = batch.column(key_col).to_pylist()
        sid = np.fromiter((int(k[:15], 16) % n_shards for k in ks),
                          np.int64, count=len(ks))
        return batch.append_column("shard_id", pa.array(sid))

    return keyed.map_batches(shard, batch_format="pyarrow")


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
