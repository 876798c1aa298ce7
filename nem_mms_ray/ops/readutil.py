"""Block-size-targeting parquet reads.

Ray Data's default read splits into ~200 tasks regardless of input
volume; a checkpoint directory of many small files (e.g. the web
pipeline's extract stage writes one file per upstream block) then
becomes hundreds of KB-to-MB-sized blocks, and every downstream
shuffle (`groupby`/`sort`) pays orchestration per block x per
partition instead of per byte — measured on the sf0.1 flagship: the
curate winner-pick Sort spent 9.06s moving 116k rows (~6 MB) of real
work because the upstream read produced 200 tiny blocks.

`read_parquet_sized` makes block count a function of INPUT BYTES
(target ~128 MB/block, the Parquet-row-group convention Ray's own
`DataContext.target_max_block_size` uses), floored at 2x cluster CPUs
so small inputs still fan out.  At 100 TB this is the scale-correct
policy (8 x 10^5 blocks); at bench scale it collapses fixed per-block
overhead that otherwise dominates — and flattens the measured scaling
curve, because fixed overhead is what a bigger cluster cannot
amortize.

`keyed_map_groups` is the operators' one keyed group shuffle.  Grouping
on a high-cardinality key (a user, an LSH band key, a gram, a pair, a
fingerprint, a domain) would make one Ray group per key, and per-group
task overhead dominates at that count (13.7 s -> under 1 s on 80k MinHash
keys).  So the keys hash into `N_BUCKETS` coarse buckets, the shuffle
groups on the bucket, and the caller's function groups the keys inside
each bucket in vectorized pandas/numpy.  Every row of one key lands in
one bucket, so results are exact; the bucket count bounds the Ray group
count at any scale (the reduce-side skew remedy of FP-Hadoop, VLDB'15).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

TARGET_BLOCK_BYTES = 128 << 20

#: coarse buckets of `keyed_map_groups`; one bucket must fit a worker heap
N_BUCKETS = 64
_BUCKET_COL = "__key_bucket"
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd: folds each key hash into the next


def _remote(path: str):
    """(filesystem, path) of a `scheme://` URI; None for a local path."""
    if "://" not in path:
        return None
    from pyarrow import fs

    return fs.FileSystem.from_uri(path)


def _expand(path_or_paths) -> list[str]:
    if isinstance(path_or_paths, (str, Path)):
        remote = _remote(str(path_or_paths))
        if remote is not None:
            from pyarrow import fs

            filesystem, path = remote
            if filesystem.get_file_info(path).type != fs.FileType.Directory:
                return [str(path_or_paths)]
            base = str(path_or_paths).rstrip("/")
            return sorted(f"{base}/{info.base_name}"
                          for info in filesystem.get_file_info(fs.FileSelector(path))
                          if info.base_name.endswith(".parquet"))
        p = Path(path_or_paths)
        if p.is_dir():
            return sorted(str(f) for f in p.glob("*.parquet"))
        return [str(p)]
    return [str(p) for p in path_or_paths]


def _file_bytes(path: str) -> int:
    remote = _remote(path)
    if remote is None:
        return Path(path).stat().st_size
    filesystem, p = remote
    info = filesystem.get_file_info(p)
    if info.size is None:  # missing (or a directory): fail like stat() does
        raise FileNotFoundError(path)
    return info.size


def sized_num_blocks(paths: list[str],
                     target_block_bytes: int = TARGET_BLOCK_BYTES,
                     min_blocks: int | None = None) -> int:
    """ceil(total file bytes / target), floored at 2x cluster CPUs.

    File size (compressed, all columns) is the proxy even under column
    pruning — it errs toward MORE blocks, never fewer, so a pruned read
    can only end up finer-grained than the target, not coarser.  Paths
    may be local or `scheme://` URIs (sized through `pyarrow.fs`)."""
    total = sum(_file_bytes(str(p)) for p in paths)
    if min_blocks is None:
        import ray

        cpus = (int(ray.cluster_resources().get("CPU", 8))
                if ray.is_initialized() else 8)
        min_blocks = 2 * cpus
    return max(min_blocks, math.ceil(total / target_block_bytes))


def read_parquet_sized(path_or_paths, columns: list[str] | None = None,
                       target_block_bytes: int = TARGET_BLOCK_BYTES,
                       min_blocks: int | None = None, **kw):
    """`ray.data.read_parquet` with `override_num_blocks` computed from
    the input's byte volume instead of Ray's fixed ~200-way split."""
    import ray.data as rd

    paths = _expand(path_or_paths)
    n = sized_num_blocks(paths, target_block_bytes, min_blocks)
    remote = [_remote(p) for p in paths]
    if remote and all(remote) and "filesystem" not in kw:
        # Ray resolves every later path against the first path's
        # filesystem, which refuses a second local `file://` URI
        kw["filesystem"] = remote[0][0]
        paths = [p for _, p in remote]
    return rd.read_parquet(paths, columns=columns,
                           override_num_blocks=n, **kw)


def _column_hash(col: pa.ChunkedArray) -> np.ndarray:
    """uint64 hash of each value of an Arrow column.  Pandas' `hash_array`
    has a fixed key, so equal values hash equal in every batch and every
    process (never Python's salted `hash()`); numeric values go through
    a splitmix64 finalizer, so keys sharing low bits still spread.  Nulls
    all hash alike: a null string to one fixed value, a null number as 0."""
    if col.null_count and not (pa.types.is_string(col.type)
                               or pa.types.is_large_string(col.type)):
        col = pc.fill_null(col, pa.scalar(0, col.type))
    return pd.util.hash_array(col.to_numpy())


def key_buckets(t: pa.Table, keys: list[str], n: int) -> np.ndarray:
    """int32 bucket in [0, n) of each row of the Arrow table `t`, from one
    hash mixing the `keys` columns."""
    h = np.zeros(t.num_rows, np.uint64)
    for k in keys:
        h = h * _MIX + _column_hash(t.column(k))
    return (h % np.uint64(n)).astype(np.int32)


def bucket_keys(n: int) -> np.ndarray:
    """int32 keys, one per bucket: `key_buckets` sends the r-th to bucket
    r.  Rows a caller has already spread over n buckets, keyed by their
    bucket's key, keep that spread through `keyed_map_groups` one to one
    (keyed by the bucket number itself, 64 values fill 39 of 64 buckets)."""
    out = np.full(n, -1, np.int32)
    start = 0
    while (out < 0).any():
        cand = np.arange(start, start + 16 * n, dtype=np.int32)
        hit, first = np.unique(key_buckets(pa.table({"k": cand}), ["k"], n),
                               return_index=True)
        new = out[hit] < 0
        out[hit[new]] = cand[first[new]]
        start += 16 * n
    return out


def keyed_map_groups(ds, keys: list[str], fn, batch_format: str = "pandas"):
    """`fn` over the rows of `ds` grouped by the `keys` columns, through
    one coarse-bucket shuffle (see the module docstring).

    Each `fn` call gets one bucket's rows in `batch_format` ("pandas",
    "pyarrow" or "numpy"): every row of each key it holds, and usually
    several keys, which `fn` tells apart itself.  `fn` never sees the
    bucket column.  Returns the Dataset of `fn`'s outputs."""
    n = N_BUCKETS  # read on the driver: a worker imports the module afresh

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(_BUCKET_COL, pa.array(key_buckets(t, keys, n)))

    def run(g):
        if batch_format == "pyarrow":
            return fn(g.drop_columns([_BUCKET_COL]))
        del g[_BUCKET_COL]  # a pandas frame or a numpy column dict
        return fn(g)

    return (ds.map_batches(tag, batch_format="pyarrow")
            .groupby(_BUCKET_COL)
            .map_groups(run, batch_format=batch_format))
