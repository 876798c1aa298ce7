"""Decode, scan and round-trip verification of encoded partitions.

Each row group of an encoded partition file holds exactly one chunk: the
encoded columns of one input record batch (`EncodePartitions` writes one
table per batch).  Decode, zone-map pruning and verify therefore all work
one row group at a time.

The correctness contract (BASELINE.json:north_rule / input_hint): decoded
columns must be byte-identical per row key — the engine-wide version of the
reference's round-trip tests (/root/reference/src/manage/state.rs:155-191)
and its parsed-record exact-equality tests
(/root/reference/src/flatfile.rs:644-773).

`VerifyPartitions` runs over the same partition specs used for encode, and
in the same shape: one Ray task per CPU slot, each over a contiguous,
byte-balanced run of specs (`encode.map_partition_groups`).  Each
partition re-reads its input with the encoder's own batch size, so decoded
chunk i is compared with source batch i and the partition is never held
whole — verification is as shuffle-free and streaming as the encode.
`decode_files` groups its partitions the same way, balanced on the encoded
files' sizes.  `scan_encoded` alone keeps one task per file (see there).
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from nem_mms_ray import dtypes
from nem_mms_ray.codecs import EncodedColumn, decode_column
from nem_mms_ray.codecs.plain import IPC_DTYPE
from nem_mms_ray.pipelines.encode import (
    DEFAULT_TARGET_BYTES,
    PartitionSpec,
    _rows_per_batch,
    map_partition_groups,
    plan_partitions,
)
from nem_mms_ray.state.manifest import Manifest, atomic_write


def _binary_views(col: pa.ChunkedArray):
    """(offsets, data) of a binary column as numpy + memoryview, no copies."""
    arr = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    odt = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], odt, len(arr) + 1, arr.offset * np.dtype(odt).itemsize)
    data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
    return offs, data


def _decode_chunk(rows: pa.Table, columns: set | None = None) -> pa.RecordBatch:
    """Decode one encoded row group (one chunk) into a record batch.

    `columns`: only these logical columns decode (the others' payloads are
    never handed to a codec).  Payload bytes are sliced as memoryviews of
    the Arrow buffers — no per-row Python bytes copies.
    """
    names = rows.column("column").to_pylist()
    if columns is not None:
        sel = [i for i, n in enumerate(names) if n in columns]
        if len(sel) != len(names):
            rows = rows.take(pa.array(sel, pa.int64()))
            names = [names[i] for i in sel]
    if not names:
        return pa.RecordBatch.from_pydict({})
    codec = rows.column("codec").to_pylist()
    n_vals = rows.column("n").to_numpy()
    dtype = rows.column("dtype").to_pylist()
    params = rows.column("params").to_pylist()
    has_v = rows.column("has_validity").to_numpy(zero_copy_only=False)
    po, pm = _binary_views(rows.column("payload"))
    vo, vm = _binary_views(rows.column("validity"))
    return pa.RecordBatch.from_pydict({
        names[i]: decode_column(EncodedColumn(
            codec=codec[i],
            n=int(n_vals[i]),
            dtype=dtype[i],
            payload=pm[po[i] : po[i + 1]],
            validity=bytes(vm[vo[i] : vo[i + 1]]) if has_v[i] else None,
            params=json.loads(params[i]),
        ))
        for i in range(len(names))
    })


def iter_decoded_chunks(encoded_path: str | Path, columns: list[str] | None = None):
    """Yield the chunks of an encoded partition file in order, one decoded
    record batch per row group; each is released once the caller drops it.

    `columns` projects the decode: only the wanted columns are decoded.
    Every column's payload sits in the one `payload` Parquet column, so
    each row group's payloads are still read and decompressed whole; the
    projection saves the codec decode of the other columns, not the I/O.
    """
    want = set(columns) if columns is not None else None
    pf = pq.ParquetFile(encoded_path)
    for rg in range(pf.metadata.num_row_groups):
        yield _decode_chunk(pf.read_row_group(rg), want)


def decode_partition_file(encoded_path: str | Path,
                          columns: list[str] | None = None) -> pa.Table:
    """Fully reassemble one encoded partition (small partitions / tests)."""
    batches = list(iter_decoded_chunks(encoded_path, columns))
    return pa.Table.from_batches(batches) if batches else pa.table({})


def _bound_raw(v, dt_str: str):
    """Bound value in the column's raw storage unit: plain numbers pass
    through; timestamps/dates convert via pa.scalar at the COLUMN's type
    (pd.Timestamp.value alone is nanoseconds and would mis-prune a
    microsecond column)."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return v
    try:
        sc = pa.scalar(v, dtypes.type_from_str(dt_str))
        return sc.value
    except Exception:
        try:
            return v.value
        except AttributeError:
            return v


def _zone_disjoint(bounds: tuple, params: str, dt_str: str) -> bool:
    """Whether a chunk's stamped zone map ([zmin, zmax]) lies wholly outside
    the inclusive `bounds`; False when the chunk has no zone map."""
    p = json.loads(params)
    zmin, zmax = p.get("zmin"), p.get("zmax")
    if zmin is None or zmax is None:
        return False
    lo, hi = bounds
    return ((lo is not None and zmax < _bound_raw(lo, dt_str))
            or (hi is not None and zmin > _bound_raw(hi, dt_str)))


def _scan_task(batch: pa.Table, *, columns: list[str] | None,
               filters: dict[str, tuple]) -> pa.Table:
    """Scan the encoded files named in `batch`'s `path` column: prune whole
    row groups by zone map, decode the rest, apply the exact row mask."""
    need = set(columns) | set(filters) if columns else None
    out = []
    for enc_path in batch.column("path").to_pylist():
        pf = pq.ParquetFile(enc_path)
        for rg in range(pf.metadata.num_row_groups):
            meta = pf.read_row_group(rg, columns=["column", "params", "dtype"])
            if any(_zone_disjoint(filters[name], ps, dt)
                   for name, ps, dt in zip(meta.column("column").to_pylist(),
                                           meta.column("params").to_pylist(),
                                           meta.column("dtype").to_pylist())
                   if name in filters):
                continue
            chunk = _decode_chunk(pf.read_row_group(rg), need)
            mask = None
            for name, (lo, hi) in filters.items():
                col = chunk.column(name)
                m = np.ones(len(chunk), bool)
                if lo is not None:
                    cmp = pa.compute.greater_equal(col, pa.scalar(lo, col.type))
                    m &= np.asarray(pa.compute.fill_null(cmp, False))
                if hi is not None:
                    cmp = pa.compute.less_equal(col, pa.scalar(hi, col.type))
                    m &= np.asarray(pa.compute.fill_null(cmp, False))
                mask = m if mask is None else (mask & m)
            if mask is not None:
                chunk = chunk.filter(pa.array(mask))
            if columns is not None:
                chunk = chunk.select(list(columns))
            if chunk.num_rows:
                out.append(chunk)
    if not out:
        return _empty_block(pf, columns)  # all blocks must agree on schema
    return pa.Table.from_batches(out)


def _empty_block(pf: pq.ParquetFile, columns: list[str] | None) -> pa.Table:
    """The zero-row block of an encoded file whose rows were all pruned or
    filtered out: `columns` (or the file's own column order) at the types
    its decoded chunks have.  The types come from the first chunk's dtype
    strings; a nested column's dtype ("ipc") stands for the type in the
    schema message that heads its payload, and only that message is read."""
    if pf.metadata.num_row_groups == 0:
        return pa.table({})
    rows = pf.read_row_group(0, columns=["column", "dtype"])
    dtype = dict(zip(rows.column("column").to_pylist(), rows.column("dtype").to_pylist()))
    names = list(columns) if columns is not None else list(dtype)
    if not all(c in dtype for c in names):
        return pa.table({})
    types = {c: dtypes.type_from_str(dtype[c]) for c in names if dtype[c] != IPC_DTYPE}
    if len(types) < len(names):
        rows = pf.read_row_group(0, columns=["column", "payload"])
        for c, payload in zip(rows.column("column").to_pylist(), rows.column("payload")):
            if c in names and c not in types:
                with pa.ipc.open_stream(payload.as_buffer()) as r:
                    types[c] = r.schema.field(0).type
    return pa.table({c: pa.array([], types[c]) for c in names})


def scan_encoded(enc_dir: str | Path, columns: list[str] | None = None,
                 range_filters: dict[str, tuple] | None = None):
    """Predicate-pushdown scan over encoded partitions: Dataset of decoded,
    filtered rows.

    `range_filters`: {column: (lo, hi)} inclusive bounds (either side None
    for open).  A chunk (row group) whose stamped zone map ([zmin, zmax],
    written at encode time) is disjoint from a bound is skipped before ANY
    of its columns decompress — the scan reads only the (tiny) metadata
    columns of pruned chunks.  Surviving chunks decode projected to
    `columns` plus the filter columns, then the exact row mask applies.
    Temporal bounds may be numbers (raw epoch in the column's unit) or
    anything `pa.scalar` accepts for the column type.

    Unlike encode, verify and decode, the scan keeps one Ray task per
    file: its output is the decoded rows themselves, not one small metric
    row per partition, and a task over a group of files would hold the
    whole group's surviving rows in one block.
    """
    import ray.data as rd

    files = sorted(str(p) for p in Path(enc_dir).glob("part-*.parquet"))
    if not files:
        raise ValueError(f"no encoded partitions under {enc_dir}")
    ds = rd.from_items([{"path": p} for p in files], override_num_blocks=len(files))
    fn = functools.partial(_scan_task, columns=columns, filters=dict(range_filters or {}))
    return ds.map_batches(fn, batch_size=1, batch_format="pyarrow", num_cpus=1)


def _decode_task(batch: pa.Table, *, enc_dir: str, out_dir: str) -> pa.Table:
    """Decode encoded partition files back to plain parquet (one part per
    pid, deterministic names -> resumable like the encode side)."""
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
        with atomic_write(tgt) as tmp:
            pq.write_table(t, tmp)
        out.append({"pid": pid, "rows": t.num_rows, "output_file": str(tgt),
                    "skipped": False})
    return pa.Table.from_pylist(out)


def decode_files(enc_dir: str | Path, out_dir: str | Path):
    """Ray pipeline: every encoded partition under `enc_dir` -> plain
    parquet under `out_dir`.  Returns a lazy Dataset of per-partition rows.
    The inverse of `encode_files` for consumers that want the original
    columnar data back without the codec layer.  Runs as one Ray task per
    CPU slot, each decoding a contiguous run of partitions balanced on
    their encoded file sizes (`map_partition_groups`)."""
    files = {int(f.stem.split("-")[1]): f for f in Path(enc_dir).glob("part-*.parquet")}
    if not files:
        raise ValueError(f"no encoded partitions under {enc_dir}")
    pids = sorted(files)
    fn = functools.partial(_decode_task, enc_dir=str(enc_dir), out_dir=str(out_dir))
    return map_partition_groups([{"pid": p} for p in pids],
                                [files[p].stat().st_size for p in pids], fn)


class VerifyPartitions:
    """Stage callable: partition-spec rows -> per-partition verification rows
    (pid, rows, ok, mismatched_columns).

    Each partition streams: its source is read with the encoder's own
    `iter_batches` call, so decoded chunk i is compared with source batch i
    and one of each is held at a time.  A chunk count or a chunk's row count
    that differs from the source's sets `ok` to False.
    """

    def __init__(self, out_dir: str, columns: list[str] | None = None):
        self.out_dir = Path(out_dir)
        self.columns = columns

    def _verify_partition(self, spec: PartitionSpec) -> dict:
        source = pq.ParquetFile(spec.path).iter_batches(
            batch_size=_rows_per_batch(spec.approx_bytes, spec.rows),
            row_groups=spec.row_groups, columns=self.columns)
        decoded = iter_decoded_chunks(self.out_dir / f"part-{spec.pid:06d}.parquet",
                                      self.columns)
        aligned, bad = True, set()
        for src in source:
            dec = next(decoded, None)
            if dec is None or dec.num_rows != src.num_rows:
                aligned = False
                break
            bad.update(n for n in src.schema.names
                       if n not in dec.schema.names or not src.column(n).equals(dec.column(n)))
            del src, dec  # release both before the next pair is read
        else:
            aligned = next(decoded, None) is None  # no chunk beyond the source
        return {"pid": spec.pid, "rows": spec.rows, "ok": aligned and not bad,
                "mismatched_columns": ",".join(sorted(bad))}

    def __call__(self, batch: pa.Table) -> pa.Table:
        return pa.Table.from_pylist(
            [self._verify_partition(PartitionSpec(**row)) for row in batch.to_pylist()])


def _verify_task(batch: pa.Table, *, out_dir: str, columns: list[str] | None) -> pa.Table:
    return VerifyPartitions(out_dir, columns)(batch)


def verify_files(
    input_paths: list[str | Path],
    out_dir: str | Path,
    columns: list[str] | None = None,
    target_bytes: int | None = None,
):
    """Round-trip verification as a Ray pipeline over the encode's partitioning.

    Verify must plan with the encode's `target_bytes`, or the partition ids
    misalign and every partition reads as a mismatch: by default it is the
    one the encode recorded in the run header (`_manifest/run.json`), or
    DEFAULT_TARGET_BYTES when out_dir has none.  Runs like encode_files:
    one Ray task per CPU slot, each verifying a contiguous, byte-balanced
    run of partition specs one after another (`map_partition_groups`).
    """
    if target_bytes is None:
        hdr = Manifest(out_dir).read_run_header()
        target_bytes = hdr["target_bytes"] if hdr else DEFAULT_TARGET_BYTES
    specs = plan_partitions(input_paths, target_bytes)
    fn = functools.partial(_verify_task, out_dir=str(out_dir), columns=columns or None)
    return map_partition_groups([s.to_row() for s in specs],
                                [s.approx_bytes for s in specs], fn)
