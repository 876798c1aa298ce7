"""Decode + round-trip verification pipeline.

The correctness contract (BASELINE.json:north_rule / input_hint): decoded
columns must be byte-identical per row key — the engine-wide version of the
reference's round-trip tests (/root/reference/src/manage/state.rs:155-191)
and its parsed-record exact-equality tests
(/root/reference/src/flatfile.rs:644-773).

`VerifyPartitions` is a Ray-task stage over the same partition specs used
for encode: each task decodes its encoded file chunk by chunk and compares
against a fresh read of the same input row groups, so verification is as
shuffle-free and streaming as the encode itself.
"""

from __future__ import annotations

from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from nem_mms_ray.codecs import EncodedColumn, decode_column


def _decode_table_chunks(tbl: pa.Table, columns=None, keep_chunks=None):
    """Decode the chunk rows of one encoded-table slice, zero-copy.

    `columns`: only these logical columns decode (others' payloads are
    skipped without decompression).  `keep_chunks`: only these chunk ids
    decode (zone-map pruning).  Payload bytes are sliced as memoryviews of
    the Arrow buffers — no per-row Python bytes copies.
    """
    import json

    import numpy as np

    def _binary_views(col):
        arr = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
        odt = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
        bufs = arr.buffers()
        offs = np.frombuffer(
            bufs[1], odt, len(arr) + 1, arr.offset * np.dtype(odt).itemsize
        )
        data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
        return offs, data

    names = tbl.column("column").to_pylist()
    ci_np = tbl.column("chunk_idx").to_numpy()
    sel = [i for i in range(len(tbl))
           if (columns is None or names[i] in columns)
           and (keep_chunks is None or int(ci_np[i]) in keep_chunks)]
    if not sel:
        return
    if len(sel) != len(tbl):
        tbl = tbl.take(pa.array(sel, pa.int64()))
    chunk_idx = tbl.column("chunk_idx").to_numpy()
    colname = tbl.column("column").to_pylist()
    codec = tbl.column("codec").to_pylist()
    n_vals = tbl.column("n").to_numpy()
    dtype = tbl.column("dtype").to_pylist()
    params = tbl.column("params").to_pylist()
    has_v = tbl.column("has_validity").to_numpy(zero_copy_only=False)
    po, pm = _binary_views(tbl.column("payload"))
    vo, vm = _binary_views(tbl.column("validity"))
    by_chunk: dict[int, list[int]] = {}
    for i, ci in enumerate(chunk_idx):
        by_chunk.setdefault(int(ci), []).append(i)
    for ci in sorted(by_chunk):
        cols = {}
        for i in by_chunk[ci]:
            ec = EncodedColumn(
                codec=codec[i],
                n=int(n_vals[i]),
                dtype=dtype[i],
                payload=pm[po[i] : po[i + 1]],
                validity=bytes(vm[vo[i] : vo[i + 1]]) if has_v[i] else None,
                params=json.loads(params[i]),
            )
            cols[colname[i]] = decode_column(ec)
        yield ci, pa.table(cols)


def iter_decoded_chunks(encoded_path: str | Path,
                        columns: list[str] | None = None):
    """Yield (chunk_idx, pa.Table) reassembled from an encoded partition file.

    Chunk rows are contiguous by construction (one record batch written per
    input batch), so each parquet row group of the encoded file holds whole
    chunks; a partition file is bounded by the encode target_bytes, and each
    chunk's encoded columns are decoded together then released.

    `columns` projects the decode: undesired columns' payloads are skipped
    entirely (never decompressed past the parquet layer) — the selective
    random access per-column encoding exists for.
    """
    want = set(columns) if columns is not None else None
    pf = pq.ParquetFile(encoded_path)
    for rg in range(pf.metadata.num_row_groups):
        yield from _decode_table_chunks(pf.read_row_group(rg), want)


def decode_partition_file(encoded_path: str | Path,
                          columns: list[str] | None = None) -> pa.Table:
    """Fully reassemble one encoded partition (small partitions / tests)."""
    tables = [t for _, t in iter_decoded_chunks(encoded_path, columns)]
    return pa.concat_tables(tables) if tables else pa.table({})


def scan_encoded(enc_dir: str | Path, columns: list[str] | None = None,
                 range_filters: dict[str, tuple] | None = None):
    """Predicate-pushdown scan over encoded partitions: Dataset of decoded,
    filtered rows.

    `range_filters`: {column: (lo, hi)} inclusive bounds (either side None
    for open).  A chunk whose stamped zone map ([zmin, zmax], written at
    encode time) is disjoint from a bound is skipped before ANY of its
    columns decompress — the scan reads only the (tiny) metadata columns of
    pruned chunks.  Surviving chunks decode projected to `columns` plus the
    filter columns, then the exact row mask applies.  Temporal bounds may be
    numbers (raw epoch in the column's unit) or anything `pa.scalar`
    accepts for the column type.
    """
    import json

    import numpy as np
    import ray.data as rd

    filters = dict(range_filters or {})
    need = None
    if columns is not None:
        need = sorted(set(columns) | set(filters))

    def _bound_raw(v, dt_str: str):
        """Bound value in the column's raw storage unit: plain numbers pass
        through; timestamps/dates convert via pa.scalar at the COLUMN's type
        (pd.Timestamp.value alone is nanoseconds and would mis-prune a
        microsecond column)."""
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            return v
        from nem_mms_ray import dtypes as _dt

        try:
            sc = pa.scalar(v, _dt.type_from_str(dt_str))
            return sc.value
        except Exception:
            try:
                return v.value
            except AttributeError:
                return v

    def scan_one(batch: pa.Table) -> pa.Table:
        out = []
        dtype_map: dict[str, str] = {}
        for enc_path in batch.column("path").to_pylist():
            pf = pq.ParquetFile(enc_path)
            for rg in range(pf.metadata.num_row_groups):
                meta = pf.read_row_group(
                    rg, columns=["column", "chunk_idx", "params", "dtype"])
                names = meta.column("column").to_pylist()
                chunks = meta.column("chunk_idx").to_numpy()
                params = meta.column("params").to_pylist()
                dtype_map.update(zip(names, meta.column("dtype").to_pylist()))
                drop = set()
                for name, ci, ps in zip(names, chunks, params):
                    f = filters.get(name)
                    if f is None:
                        continue
                    p = json.loads(ps)
                    zmin, zmax = p.get("zmin"), p.get("zmax")
                    if zmin is None or zmax is None:
                        continue
                    lo, hi = f
                    dts = dtype_map.get(name, "")
                    if lo is not None and zmax < _bound_raw(lo, dts):
                        drop.add(int(ci))
                    if hi is not None and zmin > _bound_raw(hi, dts):
                        drop.add(int(ci))
                keep_chunks = sorted(set(int(c) for c in chunks) - drop)
                if not keep_chunks:
                    continue
                for ci, tbl in _decode_row_group(pf, rg, need, set(keep_chunks)):
                    mask = None
                    for name, (lo, hi) in filters.items():
                        col = tbl.column(name)
                        m = np.ones(len(tbl), bool)
                        if lo is not None:
                            cmp = pa.compute.greater_equal(
                                col, pa.scalar(lo, col.type))
                            m &= np.asarray(pa.compute.fill_null(cmp, False))
                        if hi is not None:
                            cmp = pa.compute.less_equal(
                                col, pa.scalar(hi, col.type))
                            m &= np.asarray(pa.compute.fill_null(cmp, False))
                        mask = m if mask is None else (mask & m)
                    if mask is not None:
                        tbl = tbl.filter(pa.array(mask))
                    if columns is not None:
                        tbl = tbl.select([c for c in columns])
                    if tbl.num_rows:
                        out.append(tbl)
        if not out:
            # typed empty block: all blocks must agree on schema
            from nem_mms_ray import dtypes as _dt

            want_cols = columns if columns is not None else sorted(dtype_map)
            if all(c in dtype_map for c in want_cols):
                return pa.table({c: pa.array([], _dt.type_from_str(dtype_map[c]))
                                 for c in want_cols})
            return pa.table({})
        return pa.concat_tables(out)

    files = sorted(str(p) for p in Path(enc_dir).glob("part-*.parquet"))
    if not files:
        raise ValueError(f"no encoded partitions under {enc_dir}")
    ds = rd.from_items([{"path": p} for p in files], override_num_blocks=len(files))
    return ds.map_batches(scan_one, batch_size=1,
                          batch_format="pyarrow", num_cpus=1)


def _decode_row_group(pf, rg: int, columns, keep_chunks: set):
    """Zone-pruned decode of one row group (see `_decode_table_chunks`)."""
    yield from _decode_table_chunks(pf.read_row_group(rg),
                                    set(columns) if columns else None,
                                    keep_chunks)


def _decode_task(batch: pa.Table, *, enc_dir: str, out_dir: str) -> pa.Table:
    """Decode encoded partition files back to plain parquet (one part per
    pid, deterministic names -> resumable like the encode side)."""
    import os
    import tempfile

    out = []
    for row in batch.to_pylist():
        pid = int(row["pid"])
        src = Path(enc_dir) / f"part-{pid:06d}.parquet"
        tgt = Path(out_dir) / f"part-{pid:06d}.parquet"
        tgt.parent.mkdir(parents=True, exist_ok=True)
        # resume: deterministic names + atomic writes, but only reuse an
        # existing output that is no older than its encoded source (a
        # re-encoded partition invalidates the stale decode)
        if tgt.exists() and tgt.stat().st_mtime >= src.stat().st_mtime:
            out.append({"pid": pid, "rows": pq.ParquetFile(tgt).metadata.num_rows,
                        "output_file": str(tgt), "skipped": True})
            continue
        t = decode_partition_file(src)
        fd, tmp = tempfile.mkstemp(dir=tgt.parent, suffix=".tmp")
        os.close(fd)
        try:
            pq.write_table(t, tmp)
            os.replace(tmp, tgt)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        out.append({"pid": pid, "rows": t.num_rows, "output_file": str(tgt),
                    "skipped": False})
    return pa.Table.from_pylist(out)


def decode_files(enc_dir: str | Path, out_dir: str | Path):
    """Ray pipeline: every encoded partition under `enc_dir` -> plain
    parquet under `out_dir`.  Returns a lazy Dataset of per-partition rows.
    The inverse of `encode_files` for consumers that want the original
    columnar data back without the codec layer."""
    import functools

    import ray.data as rd

    pids = sorted(
        int(p.stem.split("-")[1]) for p in Path(enc_dir).glob("part-*.parquet")
    )
    if not pids:
        raise ValueError(f"no encoded partitions under {enc_dir}")
    ds = rd.from_items([{"pid": p} for p in pids], override_num_blocks=len(pids))
    fn = functools.partial(_decode_task, enc_dir=str(enc_dir), out_dir=str(out_dir))
    return ds.map_batches(fn, batch_size=1, batch_format="pyarrow", num_cpus=1)


class VerifyPartitions:
    """Actor-pool callable: spec rows -> per-partition verification rows."""

    def __init__(self, out_dir: str, columns: list[str] | None = None):
        self.out_dir = Path(out_dir)
        self.columns = columns

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for row in batch.to_pylist():
            pid = row["pid"]
            enc_path = self.out_dir / f"part-{pid:06d}.parquet"
            pf = pq.ParquetFile(row["path"])
            batches = list(pf.iter_batches(row_groups=list(row["row_groups"]),
                                           columns=self.columns))
            if batches:
                orig = pa.Table.from_batches(batches)
            else:  # zero-row partition
                orig = pf.schema_arrow.empty_table()
                if self.columns:
                    orig = orig.select(list(self.columns))
            if orig.num_rows == 0:
                dec = decode_partition_file(enc_path, columns=self.columns)
                out.append({"pid": pid, "rows": 0,
                            "ok": dec.num_rows == 0, "mismatched_columns": ""})
                continue
            # stream chunk-by-chunk: each decoded chunk compares against the
            # matching slice of the original and is then dropped — the full
            # decoded partition never materializes, and the ring scratch
            # keeps decode output on already-faulted pages.  Ring slots are
            # valid only until they cycle, and ONE chunk holds every FSST
            # string column's decode output alive at once — so the ring
            # must have at least as many slots as the chunk has columns
            # (ADVICE r3: a fixed 16 silently corrupts the comparison for
            # wider tables).
            from nem_mms_ray.codecs import _fsst_native as _native

            mismates: set = set()
            offset = 0
            with _native.ring_scratch(max(16, orig.num_columns + 1)):
                for _ci, chunk in iter_decoded_chunks(enc_path, self.columns):
                    sl = orig.slice(offset, chunk.num_rows)
                    for name in sl.column_names:
                        if not sl.column(name).equals(chunk.column(name)):
                            mismates.add(name)
                    offset += chunk.num_rows
            out.append(
                {
                    "pid": pid,
                    "rows": orig.num_rows,
                    "ok": not mismates and offset == orig.num_rows,
                    "mismatched_columns": ",".join(sorted(mismates)),
                }
            )
        return pa.Table.from_pylist(out)


_WORKER_VERIFIERS: dict = {}


def _verify_task(batch: pa.Table, *, out_dir: str, columns_key: tuple | None) -> pa.Table:
    key = (out_dir, columns_key)
    stage = _WORKER_VERIFIERS.get(key)
    if stage is None:
        stage = VerifyPartitions(out_dir, list(columns_key) if columns_key else None)
        _WORKER_VERIFIERS[key] = stage
    return stage(batch)


def verify_files(
    input_paths: list[str | Path],
    out_dir: str | Path,
    columns: list[str] | None = None,
    target_bytes: int | None = None,
):
    """Round-trip verification as a Ray pipeline over the encode's partitioning.

    Runs as Ray tasks for the same reason as encode_files (see there).
    """
    import functools

    import ray.data as rd

    from nem_mms_ray.pipelines.encode import DEFAULT_TARGET_BYTES, plan_partitions

    specs = plan_partitions(input_paths, target_bytes or DEFAULT_TARGET_BYTES)
    ds = rd.from_items([s.to_row() for s in specs], override_num_blocks=len(specs))
    fn = functools.partial(
        _verify_task,
        out_dir=str(out_dir),
        columns_key=tuple(columns) if columns else None,
    )
    return ds.map_batches(fn, batch_size=1, batch_format="pyarrow", num_cpus=1)
