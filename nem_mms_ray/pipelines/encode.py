"""The flagship encode pipeline: Parquet in -> encoded partitions + manifest.

Ray-Data-native shape (SURVEY.md §3.1 target lifecycle):

    driver: plan_partitions(...)            # metadata only, deterministic ids
    map_partition_groups(specs, ...)        # one block per CPU slot: a
      ray.data.from_arrow(groups)           # contiguous, byte-balanced run
      .map_batches(_encode_task,            # of specs; one Ray task per
                   batch_size=None,         # block, partitions one after
                   num_cpus=1)              # another inside it
    -> Dataset of per-partition metric rows # consumed small

A task per partition would pay Ray Data's per-task cost (about 12 ms on
one CPU) once per partition for no parallelism the cluster can give, so
encode, verify and decode all start `min(#partitions, #CPUs)` tasks.

Each partition streams through pyarrow record batches
(bounded memory) and reads its input once: the first batches also feed the
sampling pass (sketches -> codec plan; no FSST training for a column FSST
cannot win).  It then encodes column chunks and writes one encoded parquet
file + one manifest lineage record atomically.  Encode is deliberately
shuffle-free (SURVEY.md §7.3).

FSST symbol tables are trained once per string column per run: on
partition 0's plan sample (the first `SAMPLE_ROWS` rows of its first row
group).  A later partition measures that table on its own training sample
and keeps it unless its ratio drifted by more than `RUN_TABLE_DRIFT`, in
which case it trains its own, as does a column partition 0 has no table
for; each manifest record says which (`fsst_tables`).  So partition
independence now means: a partition's bytes depend on its own data plus
partition 0's plan sample, and on nothing else (not the grouping into
tasks, the CPU count, or which partitions ran before it).  A task that
does not encode partition 0 reads that sample itself; a resume whose
partition 0 is done reads it again and gets the same tables, so resumed
partitions are byte-identical to a clean run.  Every chunk still carries
its table in its payload, so decode, verify and scan need no run state.

Low-cardinality string columns stay dictionary-coded from the Parquet
page to the payload: a column whose chunks all have a dictionary page and
fewer than 4 uncompressed bytes per value (a PLAIN value alone costs a
4-byte length prefix, so such a chunk is almost all dictionary indices) is
read as an Arrow DictionaryArray, and `DictCodec` renumbers its codes
instead of hashing the strings again.  Every other consumer (the plan,
the other codecs, the byte counts, verify) sees the value type.

This mirrors the reference's parse lifecycle (expand -> classify -> segment
-> pivot -> route -> write, /root/reference/src/main.rs:92-100,
/root/reference/src/packages/mod.rs:196-237) with Ray Data supplying the
parallelism the reference lacks (single-threaded, fully materialized —
/root/reference/src/packages/mod.rs:197-218).
"""

from __future__ import annotations

import bisect
import itertools
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from nem_mms_ray import dtypes
from nem_mms_ray.codecs import EncodedColumn, _fsst_native, fsst, get_codec
from nem_mms_ray.selector import plan_for_sketches, select_codec
from nem_mms_ray.state.manifest import Manifest, PartitionRecord, atomic_write
from nem_mms_ray.stats import sketch_array

DEFAULT_TARGET_BYTES = 128 << 20
SAMPLE_ROWS = 4096

ENCODED_SCHEMA = pa.schema(
    [
        ("column", pa.string()),
        ("chunk_idx", pa.int32()),
        ("first_row", pa.int64()),
        ("codec", pa.string()),
        ("n", pa.int64()),
        ("dtype", pa.string()),
        ("params", pa.string()),
        ("payload", pa.large_binary()),
        ("validity", pa.binary()),
        ("has_validity", pa.bool_()),
    ]
)

_DICT_COLUMNS = [n for n in ENCODED_SCHEMA.names if n not in ("payload", "validity")]


@dataclass
class PartitionSpec:
    """Unit of codec decision, output and resume.  Ids derive from sorted
    input paths + row-group order — stable across runs and parallelism."""

    pid: int
    path: str
    row_groups: list[int]
    approx_bytes: int
    rows: int

    def to_row(self) -> dict:
        return {
            "pid": self.pid,
            "path": self.path,
            "row_groups": self.row_groups,
            "approx_bytes": self.approx_bytes,
            "rows": self.rows,
        }


def plan_partitions(
    paths: list[str | Path],
    target_bytes: int = DEFAULT_TARGET_BYTES,
) -> list[PartitionSpec]:
    """Driver-side, metadata-only partition planning with skew handling.

    Row groups pack greedily up to target_bytes (uncompressed arrow-side
    estimate from parquet metadata); an oversized row group becomes its own
    partition (the size-based re-split of SURVEY.md §7.1.6 — giant html/text
    blobs cannot straddle a partition and blow a worker's heap).
    """
    if not paths:
        raise ValueError("plan_partitions: no input paths given")
    sorted_paths = sorted({str(p) for p in paths})  # dedupe: double-listed
    # inputs must not double-encode (and double-count) a file
    metas = _row_group_metas(sorted_paths)
    specs: list[PartitionSpec] = []
    pid = 0
    for path in sorted_paths:
        rg_meta = metas[path]
        cur_rgs: list[int] = []
        cur_bytes = 0
        cur_rows = 0

        def flush():
            nonlocal pid, cur_rgs, cur_bytes, cur_rows
            if cur_rgs:
                specs.append(PartitionSpec(pid, path, cur_rgs, cur_bytes, cur_rows))
                pid += 1
                cur_rgs, cur_bytes, cur_rows = [], 0, 0

        for rg, (sz, nrows) in enumerate(rg_meta):
            if sz >= target_bytes:  # oversized row group -> isolated partition
                flush()
                specs.append(PartitionSpec(pid, path, [rg], sz, nrows))
                pid += 1
                continue
            if cur_bytes + sz > target_bytes:
                flush()
            cur_rgs.append(rg)
            cur_bytes += sz
            cur_rows += nrows
        flush()
    return specs


def _read_rg_meta(path: str) -> list[tuple[int, int]]:
    md = pq.ParquetFile(path).metadata
    return [
        (md.row_group(rg).total_byte_size, md.row_group(rg).num_rows)
        for rg in range(md.num_row_groups)
    ]


def _row_group_metas(sorted_paths: list[str]) -> dict[str, list[tuple[int, int]]]:
    """Per-file row-group (bytes, rows) metadata.

    Fans the footer reads out as Ray tasks when the listing is large — a
    serial driver-side scan is fine for dozens of files but becomes the
    bottleneck at web scale (1e5-1e6 fragments x ~5ms per footer).  Output
    is keyed by path, so partition ids stay derived from sorted paths +
    row-group order regardless of task completion order (resume contract,
    SURVEY.md §7.4)."""
    if len(sorted_paths) < 32:
        return {p: _read_rg_meta(p) for p in sorted_paths}
    import ray

    if not ray.is_initialized():
        return {p: _read_rg_meta(p) for p in sorted_paths}
    fetch = ray.remote(num_cpus=0.25)(_read_rg_meta)
    refs = [fetch.remote(p) for p in sorted_paths]
    return dict(zip(sorted_paths, ray.get(refs)))


def partition_groups(weights: list[int], resources: dict) -> list[range]:
    """Cut items 0..n-1 into one contiguous run per CPU slot.

    `resources` is Ray's `cluster_resources()`: k = min(n, CPUs) runs, at
    least one (a cluster reporting no CPU gets one).  Run j ends where the
    cumulative weight first reaches j/k of the total, each run keeping at
    least one item, so no run weighs more than total/k plus the largest
    single weight: the map-side skew-aware grouping of FP-Hadoop
    (VLDB'15).
    """
    n = len(weights)
    k = max(1, min(n, int(resources.get("CPU", 0))))
    cum = list(itertools.accumulate(weights, initial=0))
    cuts = [0]
    for j in range(1, k):
        cuts.append(bisect.bisect_left(cum, cum[-1] * j / k, cuts[-1] + 1, n - (k - j)))
    cuts.append(n)
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


def map_partition_groups(rows: list[dict], weights: list[int], fn):
    """Lazy Dataset of `fn` over `rows` (one per partition, in pid order),
    grouped by `partition_groups`: one block, and so one Ray task, per
    group.  `fn` gets the whole group as one pyarrow batch and returns a
    row per partition."""
    import ray
    import ray.data as rd

    groups = partition_groups(weights, ray.cluster_resources())
    ds = rd.from_arrow([pa.Table.from_pylist(rows[g.start:g.stop]) for g in groups])
    return ds.map_batches(fn, batch_size=None, batch_format="pyarrow", num_cpus=1)


def _rows_per_batch(approx_bytes: int, rows: int, target: int = 32 << 20) -> int:
    avg = max(1, approx_bytes // max(1, rows))
    return int(np.clip(target // avg, 64, 65536))


def _attach_zone_map(ec, arr: pa.Array) -> None:
    """Stamp per-chunk min/max (zone map) into the codec params for
    orderable types: `scan_encoded` prunes chunks whose range is disjoint
    from a predicate WITHOUT decoding any of their payloads.  Temporal
    types store raw epoch ints; non-finite float bounds are skipped
    (NaN-poisoned zones must not prune).  The range is the one the codec
    already reduced when it has one (`ec.value_range`: dict over its
    dictionary, alp from its packed integers, float and string chunks
    only); otherwise `arr` is scanned (a DictionaryArray: the entries its
    rows use)."""
    import pyarrow.compute as pc

    t = arr.type.value_type if isinstance(arr, pa.DictionaryArray) else arr.type
    temporal = pa.types.is_timestamp(t) or pa.types.is_date(t) or pa.types.is_time(t)
    string = pa.types.is_string(t) or pa.types.is_large_string(t)
    if not (pa.types.is_integer(t) or pa.types.is_floating(t) or temporal or string):
        return
    try:
        if ec.value_range is not None:
            mn, mx = ec.value_range
        else:
            if isinstance(arr, pa.DictionaryArray):
                arr = arr.dictionary.take(pc.unique(arr.indices))
            mm = pc.min_max(arr)
            mn, mx = mm["min"], mm["max"]
        if not mn.is_valid:
            return
        if pa.types.is_integer(t):
            ec.params["zmin"] = int(mn.as_py())
            ec.params["zmax"] = int(mx.as_py())
        elif pa.types.is_floating(t):
            lo, hi = float(mn.as_py()), float(mx.as_py())
            if math.isfinite(lo) and math.isfinite(hi):
                ec.params["zmin"] = lo
                ec.params["zmax"] = hi
        elif temporal:
            ec.params["zmin"] = int(mn.value)
            ec.params["zmax"] = int(mx.value)
        else:
            # string zones (url-range scans over url-sorted corpora): long
            # values store a BOUND, not the value — prefix(min) is a valid
            # lower bound, and the prefix-successor of max (last code point
            # incremented) upper-bounds every value sharing that prefix.
            # UTF-8 byte order == code-point order, so Python/Arrow/JSON
            # comparisons all agree.
            lo, hi = mn.as_py(), mx.as_py()
            zmax_v = hi if len(hi) <= 64 else _string_successor(hi[:64])
            if zmax_v or hi == "":  # successor '' = no valid upper bound
                ec.params["zmin"] = lo[:64]
                ec.params["zmax"] = zmax_v
    except Exception:
        pass  # zone maps are an optimization; never fail an encode for one


def _string_successor(p: str) -> str:
    """Smallest string greater than every string with prefix `p` (last
    code point incremented, carrying; '' if p is all U+10FFFF)."""
    cs = list(p)
    while cs:
        o = ord(cs[-1])
        if o < 0x10FFFF:
            cs[-1] = chr(o + 1)
            return "".join(cs)
        cs.pop()
    return ""


def _fsst_can_win(sk) -> bool:
    """Whether the selector could pick FSST for this sketch at any ratio
    training might measure.  One code byte covers at most 8 input bytes, so
    a measured ratio is >= `fsst.MIN_RATIO`, and FSST's estimate only grows
    with the ratio: if it loses at that floor, training cannot change the
    plan."""
    return select_codec(replace(sk, fsst_ratio=fsst.MIN_RATIO)).codec == "fsst"


@dataclass(frozen=True)
class FsstTable:
    """An FSST symbol table and its ratio (encoded / input bytes) on the
    training sample of the partition that planned with it.  `run`: the
    run's table (trained on partition 0's plan sample), not one the
    partition trained on its own sample."""

    symbols: tuple[np.ndarray, np.ndarray]
    ratio: float
    run: bool = False


# A partition keeps the run's table for a column while the table's ratio on
# the partition's own training sample is at most this much (encoded bytes
# per input byte) above its ratio on partition 0's sample; past that the
# column has drifted from partition 0's (another alphabet or language)
# and the partition trains its own.  Host-level drift stays under it: on
# the perfbench web table the run's `url` table reads 0.24-0.33 on later
# partitions' samples against 0.18 on partition 0's (seeds 1-3), yet over
# the whole partitions the run's tables give a lower codec ratio (seed 1:
# 0.18570) than per-partition `url` tables (0.18582).
RUN_TABLE_DRIFT = 0.25


def _fsst_table(sample, run: FsstTable | None) -> FsstTable:
    """The table a column encodes with, given its non-empty training
    `sample`: the run's table `run` unless it drifted (`RUN_TABLE_DRIFT`),
    else one trained on `sample`."""
    if run is not None:
        ratio = len(_fsst_native.encode(*run.symbols, sample)) / len(sample)
        if ratio <= run.ratio + RUN_TABLE_DRIFT:
            return FsstTable(run.symbols, ratio, run=True)
    syms = fsst.train_symbols(sample)
    return FsstTable(syms, len(_fsst_native.encode(*syms, sample)) / len(sample))


def _kernel_paths() -> dict[str, bool]:
    """Which encode kernels loaded (False: the scalar reference ran).
    Asks only the encode's own bindings: `_native.status()` would build
    every kernel."""
    from nem_mms_ray.codecs import _bitpack_native

    return {"fsst_kernel": _fsst_native.get_lib() is not None,
            "bitpack_kernel": _bitpack_native.get_lib() is not None}


# A PLAIN BYTE_ARRAY value costs at least its 4-byte length prefix, so a
# column chunk of fewer bytes per value is mostly dictionary indices
_DICT_READ_BYTES_PER_VALUE = 4


def _dict_read_columns(pf, row_groups: list[int], names: list[str]) -> list[str]:
    """The columns of `names` to read as Arrow dictionaries, decided from
    the footer alone: string or binary (a large_* column would come back
    with 32-bit offsets), a dictionary page in every row group of the
    partition, and fewer than `_DICT_READ_BYTES_PER_VALUE` uncompressed
    bytes per value there.  A dictionary page alone says little: html-like
    columns have one that holds every value once, and a column whose
    dictionary overflowed early is mostly PLAIN pages.  The choice is
    only about speed: a column the plan does not give to dict is decoded
    back to its value type."""
    md, schema = pf.metadata, pf.schema_arrow
    if len(set(names)) != len(names):
        return []
    leaves = {md.schema.column(i).path: i for i in range(md.num_columns)}
    picked = []
    for name in names:
        i = schema.get_field_index(name)
        if i < 0 or name not in leaves:
            continue
        t = schema.field(i).type
        if not (pa.types.is_string(t) or pa.types.is_binary(t)):
            continue
        chunks = [md.row_group(rg).column(leaves[name]) for rg in row_groups]
        if all(c.has_dictionary_page
               and c.total_uncompressed_size < _DICT_READ_BYTES_PER_VALUE * c.num_values
               for c in chunks):
            picked.append(name)
    return picked


def _read_batches(pf, spec: PartitionSpec, batch_size: int, columns, dict_cols: list[str]):
    """The partition's record batches as `iter_batches` cuts a dense read
    (`batch_size` rows, across row-group boundaries), with `dict_cols` as
    DictionaryArrays.

    Those come from a second reader over only them: with dictionaries,
    Arrow also cuts a batch at every row-group boundary.  They are re-cut
    to the dense batches' row counts; a chunk that spans two row groups
    concatenates its pieces, which unifies their dictionaries."""
    kw = {"batch_size": batch_size, "row_groups": spec.row_groups}
    if not dict_cols:
        yield from pf.iter_batches(columns=columns, **kw)
        return
    names = list(columns) if columns else pf.schema_arrow.names
    dense_cols = [n for n in names if n not in dict_cols]
    dpf = pq.ParquetFile(spec.path, metadata=pf.metadata, read_dictionary=dict_cols)
    dict_batches = dpf.iter_batches(columns=dict_cols, **kw)
    rest = None
    if dense_cols:
        dense = ((rb.num_rows, dict(zip(rb.schema.names, rb.columns)))
                 for rb in pf.iter_batches(columns=dense_cols, **kw))
    else:
        total = sum(pf.metadata.row_group(rg).num_rows for rg in spec.row_groups)
        dense = ((min(batch_size, total - lo), {}) for lo in range(0, total, batch_size))
    for n, cols in dense:
        pieces = []
        while n:
            rb, rest = rest or next(dict_batches), None
            if rb.num_rows > n:
                rb, rest = rb.slice(0, n), rb.slice(n)
            pieces.append(rb)
            n -= rb.num_rows
        for j, name in enumerate(dict_cols):
            parts = [p.column(j) for p in pieces]
            cols[name] = parts[0] if len(parts) == 1 else pa.concat_arrays(parts)
        yield pa.RecordBatch.from_arrays([cols[c] for c in names], names=names)


def _dense(arr: pa.Array) -> pa.Array:
    """`arr` as the plain array a dense read gives: a DictionaryArray is
    decoded, without the validity buffer decoding adds when it has no nulls."""
    if not isinstance(arr, pa.DictionaryArray):
        return arr
    out = arr.dictionary_decode()
    if out.null_count == 0:
        out = pa.Array.from_buffers(out.type, len(out), [None, *out.buffers()[1:]], 0)
    return out


def _chunk_table(names: list[str], ecs: list[EncodedColumn], chunk_idx: int,
                 first_row: int) -> pa.Table:
    """One chunk's rows of the encoded file (`ENCODED_SCHEMA`), one per
    column, built column by column."""
    rows = [ec.to_row() for ec in ecs]
    n = len(rows)
    cols = [names, [chunk_idx] * n, [first_row] * n]
    cols += ([r[k] for r in rows] for k in ENCODED_SCHEMA.names[3:])  # to_row()'s keys
    return pa.Table.from_arrays([pa.array(c, t) for c, t in zip(cols, ENCODED_SCHEMA.types)],
                                schema=ENCODED_SCHEMA)


def _drain(head: list, rest):
    """`head`'s batches, each released once taken, then the rest."""
    while head:
        yield head.pop(0)
    yield from rest


class EncodePartitions:
    """Stage callable: partition-spec rows -> per-partition metric rows
    (batch_format='pyarrow').

    Holds the output dir + manifest handle; per partition it builds the
    codec plan + FSST symbol tables (on the sampling pass, reused for every
    batch of that partition).

    `run_spec` is partition 0's spec, whose plan sample trains the run's
    FSST tables (`encode_files` sets it); left None, the first partition
    given takes its place.  The run's tables are built once per instance:
    by encoding that partition, or else by reading its sample
    (`_read_run_tables`).
    """

    def __init__(self, out_dir: str, columns: list[str] | None = None):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.columns = columns
        self.manifest = Manifest(out_dir)
        self.manifest.init()
        self.run_spec: PartitionSpec | None = None
        self._run_tables: dict[str, FsstTable] | None = None

    def _read_run_tables(self, spec: PartitionSpec) -> dict[str, FsstTable]:
        """The run's FSST tables, for a task that does not encode `spec`
        (partition 0): its plan sample's string columns are read (the first
        `SAMPLE_ROWS` rows of its first row group) and planned as its own
        encode plans them, so each table is the one partition 0 trains."""
        pf = pq.ParquetFile(spec.path)
        schema = pf.schema_arrow
        names = [n for n in (self.columns or schema.names)
                 if schema.get_field_index(n) >= 0
                 and dtypes.is_string_like(schema.field(n).type)]
        need = min(SAMPLE_ROWS, pf.metadata.row_group(spec.row_groups[0]).num_rows)
        if not names or not need:
            return {}
        rb = next(pf.iter_batches(batch_size=need, row_groups=spec.row_groups[:1],
                                  columns=names))
        _, tables = self._plan(pa.Table.from_batches([rb]))
        return {n: replace(t, run=True) for n, t in tables.items()}

    # -- sampling pass ------------------------------------------------------
    def _plan(self, sample: pa.Table, run_tables: dict[str, FsstTable] | None = None):
        """Sketch + pick FSST tables on the partition's sample rows, ONCE
        per column.  Returns the plans and the FSST table of each string
        column that got one (`FsstTable`, planned FSST or not).

        `sample` is the first `SAMPLE_ROWS` rows of the partition's first
        row group, cut from the batches the encode loop reads (the file is
        read once).  String columns get their FSST symbol table here —
        the run's table from `run_tables` unless it drifted, else one
        trained on the training sample (`_fsst_table`) — and measure its
        realized ratio on that sample, which feeds the selector (via
        sketch.fsst_ratio); the encode stage reuses the table for every
        batch of the partition.  A column whose sketch already rules FSST out at its
        best possible ratio (`_fsst_can_win`) is not trained: the plan is
        the same either way.  Sketches use a 2048-row slice: plan decisions
        are ratio-based and stable well below the full sample.

        String columns are sketched from their lengths first (distinct
        and run counts are floors, `stats` module docstring) and hashed
        exactly only where that can change the plan: before ruling FSST
        out, and when dict or rle wins at the floors.  A plan the floors
        decide is the exact sketch's plan, so html/text blobs are never
        hashed on the web table.

        A column read as a dictionary (`_dict_read_columns`: a dictionary
        page and under 4 bytes per value, the cost of one PLAIN length
        prefix) reaches the sample decoded, so it is planned from the
        same values as a plain read.
        """
        from nem_mms_ray.selector import ColumnPlan

        run_tables = run_tables or {}
        sketches = {}
        tables = {}
        ipc_cols = []
        for name in sample.column_names:
            col = sample.column(name)
            arr = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
            sl = arr.slice(0, min(len(arr), 2048))
            try:
                sk = sketch_array(name, sl, exact=False)
            except Exception:
                # un-sketchable type (list/struct/map/...): store via the
                # universal Arrow-IPC fallback instead of aborting the run
                ipc_cols.append(name)
                continue
            # train even on small columns (cheap): prefix-heavy short string
            # columns (ids, names) compress well and the measured ratio beats
            # the blind 0.6 default in the fsst estimate
            if dtypes.is_string_like(arr.type) and sk.value_bytes >= 512:
                if not sk.exact and not _fsst_can_win(sk):
                    sk = sketch_array(name, sl)  # the floors may hide a win
                if _fsst_can_win(sk):
                    # buffer-extract only ~4x the training cap, not the
                    # whole multi-MB sample column
                    avg = max(1, sk.value_bytes // max(1, sk.n - sk.nulls))
                    need = min(len(arr), max(256, (4 * fsst.TRAIN_SAMPLE_BYTES) // avg))
                    idx = np.linspace(0, len(arr) - 1, need).astype(np.int64)
                    _, data = fsst._string_buffers(dtypes.fill_nulls(arr.take(idx)))
                    if len(data):
                        tables[name] = t = _fsst_table(fsst.take_sample(data),
                                                       run_tables.get(name))
                        sk.fsst_ratio = t.ratio
            if not sk.exact and select_codec(sk).codec in ("dict", "rle"):
                sk = replace(sketch_array(name, sl), fsst_ratio=sk.fsst_ratio)
            sketches[name] = sk
        plans = plan_for_sketches(sketches)
        for name in ipc_cols:
            plans[name] = ColumnPlan(column=name, codec="ipc")
        return plans, tables

    def _encode_chunk(self, name: str, arr: pa.Array, plans,
                      tables) -> tuple[EncodedColumn, int]:
        """Codec dispatch + never-expand guard + zone-map stamp; returns the
        column and the `Array.nbytes` of the chunk as a plain array.  `arr`
        is a DictionaryArray only for a dict-planned column read as one."""
        codec_name = plans[name].codec
        codec = get_codec(codec_name)
        try:
            if codec_name == "fsst" and name in tables:
                ec = codec.encode(arr, symbols=tables[name].symbols)
            else:
                ec = codec.encode(arr)
        except Exception:
            # robustness split per the reference (unknown/undecodable unit ->
            # skip+record, /root/reference/src/packages/mod.rs:201-216):
            # fall back to plain, or to the universal IPC codec if even
            # plain can't represent the type; record the event either way.
            arr = _dense(arr)
            try:
                ec = get_codec("plain").encode(arr)
            except Exception:
                ec = get_codec("ipc").encode(arr)
            ec.params["fallback_from"] = codec_name
            return ec, arr.nbytes
        nbytes = _dense(arr).nbytes if ec.dense_nbytes is None else ec.dense_nbytes
        # never-expand guard: a sketch-misjudged codec (e.g. RLE on
        # all-distinct short strings from a tiny sample) must not store more
        # bytes than plain would — compare against the exact plain encoding
        # when the chosen one isn't clearly smaller
        if codec_name not in ("plain", "ipc") and ec.encoded_bytes > 0.9 * nbytes:
            pe = get_codec("plain").encode(_dense(arr))
            if pe.encoded_bytes < ec.encoded_bytes:
                pe.params["fallback_from"] = codec_name
                ec = pe
        _attach_zone_map(ec, arr)
        return ec, nbytes

    def _encode_partition(self, spec: PartitionSpec) -> PartitionRecord | None:
        """Encode one partition and record it; None if the manifest already
        holds it (resume)."""
        t0 = time.monotonic()
        if self.run_spec is None:
            self.run_spec = spec
        out_path = self.out_dir / f"part-{spec.pid:06d}.parquet"
        if self.manifest.is_done(spec.pid, spec.path, spec.row_groups):
            return None

        pf = pq.ParquetFile(spec.path)
        bpr = _rows_per_batch(spec.approx_bytes, spec.rows)
        dict_cols = _dict_read_columns(pf, spec.row_groups,
                                       list(self.columns or pf.schema_arrow.names))
        batches = _read_batches(pf, spec, bpr, self.columns, dict_cols)
        # the plan's sample is the first rows of the first row group, taken
        # from the batches the encode loop then encodes: one read per file
        need = min(SAMPLE_ROWS, pf.metadata.row_group(spec.row_groups[0]).num_rows)
        head, got = [], 0
        while got < need:
            rb = next(batches, None)
            if rb is None:
                break
            head.append(rb)
            got += rb.num_rows
        if head:
            sample = pa.Table.from_batches(head).slice(0, need)
            for name in dict_cols:  # the plan sees the value type
                i = sample.schema.get_field_index(name)
                sample = sample.set_column(i, name, pa.chunked_array(
                    [_dense(c) for c in sample.column(i).chunks]))
        else:  # zero-row partition: plan from empty columns
            sample = pf.schema_arrow.empty_table()
            if self.columns:
                sample = sample.select(list(self.columns))
        if spec.pid == self.run_spec.pid:
            plans, tables = self._plan(sample)
            tables = {n: replace(t, run=True) for n, t in tables.items()}
            self._run_tables = tables
        else:
            if self._run_tables is None:
                self._run_tables = self._read_run_tables(self.run_spec)
            plans, tables = self._plan(sample, self._run_tables)
        del sample  # so each head batch is freed once it is encoded

        col_bytes: dict[str, list[int]] = {}
        rows = 0
        orig_bytes = 0
        enc_bytes = 0
        with atomic_write(out_path) as tmp:
            # zstd entropy layer over the codec payloads: FSST/bitpack output
            # keeps a skewed, repetitive byte distribution that zstd cuts
            # hard, at a faster write than snappy (measured on a 64MiB
            # webtable partition: snappy 9.6MB/79ms; zstd-1 3.9MB/49ms;
            # zstd-3 1.2MB/56ms) — level 3 is the ratio/speed knee
            # dictionary pages only for the metadata columns: the payload
            # and validity blobs are all distinct
            writer = pq.ParquetWriter(tmp, ENCODED_SCHEMA, compression="zstd",
                                      compression_level=3,
                                      use_dictionary=_DICT_COLUMNS)
            for chunk_idx, rb in enumerate(_drain(head, batches)):
                ecs = []
                for name, arr in zip(rb.schema.names, rb.columns):
                    if name in dict_cols and plans[name].codec != "dict":
                        arr = _dense(arr)
                    ec, nbytes = self._encode_chunk(name, arr, plans, tables)
                    ecs.append(ec)
                    cb = col_bytes.setdefault(name, [0, 0])
                    cb[0] += nbytes
                    cb[1] += ec.encoded_bytes
                    orig_bytes += nbytes
                    enc_bytes += ec.encoded_bytes
                writer.write_table(_chunk_table(rb.schema.names, ecs, chunk_idx, rows))
                rows += rb.num_rows
            writer.close()

        rec = PartitionRecord(
            pid=spec.pid,
            input_file=spec.path,
            row_groups=list(spec.row_groups),
            rows=rows,
            orig_bytes=orig_bytes,
            encoded_bytes=enc_bytes,
            file_bytes=out_path.stat().st_size,
            codecs={c: p.codec for c, p in plans.items()},
            column_bytes=col_bytes,
            wall_sec=time.monotonic() - t0,
            done=True,
            output_file=str(out_path),
            native=_kernel_paths(),
            dict_read=dict_cols,
            fsst_tables={n: "run" if n in tables and tables[n].run else "own"
                         for n, p in plans.items() if p.codec == "fsst"},
        )
        self.manifest.write(rec)
        return rec

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for row in batch.to_pylist():
            spec = PartitionSpec(**row)
            rec = (self._encode_partition(spec)
                   or PartitionRecord(spec.pid, spec.path, spec.row_groups))
            out.append({"pid": rec.pid, "rows": rec.rows, "orig_bytes": rec.orig_bytes,
                        "encoded_bytes": rec.encoded_bytes, "wall_sec": rec.wall_sec,
                        "skipped": not rec.done,
                        "codecs": str(sorted(rec.codecs.items()))})
        return pa.Table.from_pylist(out)


def _encode_task(batch: pa.Table, *, out_dir: str, columns: list[str] | None,
                 run_spec: dict | None) -> pa.Table:
    stage = EncodePartitions(out_dir, columns)
    stage.run_spec = PartitionSpec(**run_spec) if run_spec else None
    return stage(batch)


def encode_files(
    input_paths: list[str | Path],
    out_dir: str | Path,
    columns: list[str] | None = None,
    target_bytes: int = DEFAULT_TARGET_BYTES,
):
    """Build the encode pipeline; returns a lazy Dataset of metric rows.

    Consume with .to_pandas()/.take_all() (tiny: one row per partition) —
    the heavy data streams worker-side only.

    The stage runs as Ray tasks, one per CPU slot (`map_partition_groups`):
    each task gets a contiguous, byte-balanced run of partition specs,
    builds one `EncodePartitions` (two mkdirs) and encodes its partitions
    one after another, each with its own plan.  Every task gets partition
    0's spec, so each one uses the same run FSST tables (module
    docstring).  A task that fails leaves its finished partitions
    recorded; a rerun skips them.
    """
    import functools

    specs = plan_partitions(input_paths, target_bytes)
    # run-level lineage: refuse resume into an out_dir planned differently
    m = Manifest(out_dir)
    m.check_run_header([str(p) for p in input_paths], target_bytes)
    m.write_run_header([str(p) for p in input_paths], target_bytes, len(specs))
    fn = functools.partial(_encode_task, out_dir=str(out_dir), columns=columns or None,
                           run_spec=specs[0].to_row() if specs else None)
    return map_partition_groups([s.to_row() for s in specs],
                                [s.approx_bytes for s in specs], fn)
