"""The traced run: per-layer numbers for one workload.

The encode path is run three ways over the same partitions:
  1. through Ray, as users run it (`encode_files`), for the end-to-end wall;
  2. in process, untraced: `EncodePartitions(out)(spec row)` per partition
     of `plan_partitions(...)`;
  3. in process, traced: the same calls with every layer wrapped.
(1) - (2) is the orchestration gap; (3) / (2) - 1 is the tracing overhead;
the layer self times of (3) over its wall is the coverage.

On web_html the run also times `web_pipeline` (the curation flagship:
extract, near-dedup curate, encode) and the curation layers' public batch
functions, so the ops.* layers have numbers too.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench import inputs as inp_mod
from perfbench.layers import Tracer, summarize
from perfbench.metrics import CODECS, catalogue
from perfbench.workloads import (TARGET_BYTES, Ledger, check_scans, fresh_dir, run_flagship,
                                 scan_dir_for, scan_stats, time_scans)


def _timed(fn, reps: int) -> float:
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _inprocess_encode(rows: list[pa.Table], out: Path, tracer: Tracer | None) -> float:
    from nem_mms_ray.pipelines.encode import EncodePartitions

    stage = EncodePartitions(str(fresh_dir(out)))
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        for r in rows:
            if tracer is None:
                stage(r)
            else:
                with tracer.span("encode.partition"):
                    stage(r)
        return time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()


def _traced_verify(rows: list[pa.Table], out: Path, tracer: Tracer, ledger: Ledger) -> None:
    from nem_mms_ray.pipelines.decode import VerifyPartitions

    stage = VerifyPartitions(str(out))
    tracer.install()
    try:
        for r in rows:
            with tracer.span("decode.partition"):
                res = stage(r)
            ok = res.column("ok").to_pylist()
            ledger.record(len(ok), ok.count(False), "in-process verify mismatch")
    finally:
        tracer.restore()


def selector_regret(enc_dir: Path) -> float:
    """Realized bytes over the bytes of the best eligible codec, summed over
    every column of each partition's first chunk; every registered codec
    that accepts the column type is tried."""
    from nem_mms_ray.codecs import REGISTRY
    from nem_mms_ray.state.manifest import Manifest

    realized_sum = best_sum = 0
    for rec in Manifest(enc_dir).load_all():
        t = pq.read_table(rec.output_file,
                          columns=["column", "chunk_idx", "n", "payload", "validity"])
        t = t.filter(pc.equal(t.column("chunk_idx"), 0))
        if t.num_rows == 0:
            continue
        n0 = int(t.column("n")[0].as_py())
        batches, got = [], 0
        for b in pq.ParquetFile(rec.input_file).iter_batches(
                batch_size=n0, row_groups=list(rec.row_groups)):
            batches.append(b)
            got += b.num_rows
            if got >= n0:
                break
        orig = pa.Table.from_batches(batches).slice(0, n0)
        for name, p, v in zip(t.column("column").to_pylist(),
                              t.column("payload").to_pylist(),
                              t.column("validity").to_pylist()):
            arr = orig.column(name).combine_chunks()
            realized = len(p) + len(v)
            best = realized
            for codec in REGISTRY.values():
                if not codec.can_encode(arr.type):
                    continue
                try:
                    best = min(best, codec.encode(arr).encoded_bytes)
                except Exception:  # noqa: BLE001 - a codec that cannot take it is not eligible
                    continue
            realized_sum += realized
            best_sum += best
    return realized_sum / best_sum if best_sum else 1.0


def fallback_frac(enc_dir: Path) -> float:
    total = fell = 0
    for f in sorted(enc_dir.glob("part-*.parquet")):
        params = pq.read_table(f, columns=["params"]).column(0).to_pylist()
        total += len(params)
        fell += sum("fallback_from" in json.loads(p) for p in params)
    return fell / total if total else 0.0


def pruned_chunk_frac(scan_dir: Path, queries: list[inp_mod.Query]) -> float:
    """Share of (query, chunk) pairs whose stamped zone map excludes the
    query's bounds, read from the encoded files' metadata."""
    col = queries[0].column
    zones = []
    for f in sorted(scan_dir.glob("part-*.parquet")):
        t = pq.read_table(f, columns=["column", "params"])
        for name, p in zip(t.column("column").to_pylist(), t.column("params").to_pylist()):
            if name == col:
                d = json.loads(p)
                zones.append((d.get("zmin"), d.get("zmax")))
    pruned = sum(1 for q in queries for lo, hi in zones
                 if lo is not None and hi is not None and (hi < q.lo or lo > q.hi))
    total = len(queries) * len(zones)
    return pruned / total if total else 0.0


def fsst_kernel_rates(path: str, column: str, ledger: Ledger) -> tuple[float, float]:
    """MB/s of the FSST encode and decode kernels alone, on up to 16 MB of
    one string column with a table trained on it."""
    from nem_mms_ray import dtypes
    from nem_mms_ray.codecs import _fsst_native as native
    from nem_mms_ray.codecs.fsst import _string_buffers, take_sample, train_symbols

    arr = pq.read_table(path, columns=[column]).column(0).combine_chunks()
    _, data = _string_buffers(dtypes.fill_nulls(arr))
    data = bytes(data[:16 << 20])
    if not data:
        return 0.0, 0.0
    sym_bytes, sym_lens = train_symbols(take_sample(data))
    enc = native.encode(sym_bytes, sym_lens, data)
    dec = native.decode_np(sym_bytes, sym_lens, enc, len(data))
    ledger.check(dec.tobytes() == data, "FSST kernel round trip")
    mb = len(data) / 1e6
    t_enc = _timed(lambda: native.encode(sym_bytes, sym_lens, data), 5)
    t_dec = _timed(lambda: native.decode_np(sym_bytes, sym_lens, enc, len(data)), 5)
    return mb / t_enc, mb / t_dec


def identity_batch(batch: pa.Table) -> pa.Table:
    return batch


def ray_floor(specs) -> float:
    """Wall of an identity `map_batches` in the shape of `encode_files`:
    one block per partition spec, batch_size=1, pyarrow, one CPU each."""
    import ray.data as rd

    rows = [s.to_row() for s in specs]
    return _timed(lambda: rd.from_items(rows, override_num_blocks=len(rows)).map_batches(
        identity_batch, batch_size=1, batch_format="pyarrow", num_cpus=1).to_pandas(), 3)


def ops_rates(web_path: str) -> dict[str, float]:
    """Single-core rates of the curation layers' public batch functions on
    the first 4000 rows of the web table."""
    from nem_mms_ray.ops.dedup import MinHashStage
    from nem_mms_ray.ops.textstats import LangId, quality_score_batch, token_stats_batch
    from nem_mms_ray.ops.webextract import extract_text_array, lossy_decode

    html = lossy_decode(pq.read_table(web_path, columns=["html"]).column(0).slice(0, 4000))
    html_mb = pc.sum(pc.binary_length(html)).as_py() / 1e6
    text = extract_text_array(html)
    batch = pa.table({"doc_id": np.arange(len(text), dtype=np.int64), "text": text})
    text_mb = pc.sum(pc.binary_length(text)).as_py() / 1e6
    langid, minhash = LangId(), MinHashStage()
    return {
        "ops.webextract.mbps": html_mb / _timed(lambda: extract_text_array(html), 3),
        "ops.textstats.token_stats_mbps": text_mb / _timed(lambda: token_stats_batch(batch), 3),
        "ops.textstats.quality_mbps": text_mb / _timed(lambda: quality_score_batch(batch), 3),
        "ops.textstats.langid_mbps": text_mb / _timed(lambda: langid(batch), 3),
        "ops.dedup.minhash_docs_per_s": len(text) / _timed(lambda: minhash(batch), 3),
    }


def flagship_layers(path: str, work: Path, ledger: Ledger) -> dict[str, float]:
    """Stage walls and row counts from `web_pipeline`'s own summary, over
    one file of the web table; the second of two runs, so first-use costs
    of the curation operators stay out."""
    summary = None
    for _ in range(2):
        summary = run_flagship([path], work / "flag", ledger)
    if summary is None:
        return {}
    st = summary["stages"]
    return {"web.extract_s": st["extract"]["sec"], "web.curate_s": st["curate"]["sec"],
            "web.encode_s": st["encode"]["sec"], "web.rows_in": st["extract"]["rows"],
            "web.rows_curated": st["curate"]["rows"]}


def _incl(layers: dict, name: str) -> float:
    return layers.get(name, {}).get("incl_s", 0.0)


def trace_workload(name: str, inp: inp_mod.Inputs, work: Path,
                   ledger: Ledger) -> tuple[dict, dict]:
    from nem_mms_ray.codecs import _fsst_native
    from nem_mms_ray.pipelines.encode import encode_files, plan_partitions
    from nem_mms_ray.state.manifest import Manifest

    m = {k: 0.0 for k in catalogue(True)}
    kernel_src = (inp.paths[0], "html")
    if name == "tabular_sf":
        kernel_src = (next(p for p in inp.paths if p.endswith("documents.parquet")), "text")
    else:
        m.update(flagship_layers(inp.paths[0], work, ledger))
        m.update(ops_rates(inp.paths[0]))
    specs = plan_partitions(inp.paths, TARGET_BYTES)
    rows = [pa.Table.from_pylist([s.to_row()]) for s in specs]
    ray_out = work / "ray_enc"

    def ray_encode():
        encode_files(inp.paths, fresh_dir(ray_out), target_bytes=TARGET_BYTES).to_pandas()

    ray_wall = _timed(ray_encode, 2)
    ledger.record(len(specs), len(specs) - Manifest(ray_out).summary()["done"],
                  "Ray encode left partitions unfinished")

    tracer = Tracer()
    _inprocess_encode(rows, work / "ip", None)  # warm this process's reused kernel buffers
    untraced, traced = [], []
    for _ in range(2):
        untraced.append(_inprocess_encode(rows, work / "ip", None))
        tracer.reset()
        traced.append(_inprocess_encode(rows, work / "tr", tracer))
    enc = summarize(tracer.spans, "encode.partition")
    tracer.reset()
    _traced_verify(rows, work / "tr", tracer, ledger)
    dec = summarize(tracer.spans, "decode.partition")

    inproc = statistics.median(untraced)
    lay = enc["layers"]
    m.update({
        "encode.partitions": len(specs),
        "encode.ray_wall_s": ray_wall,
        "encode.inprocess_s": inproc,
        "encode.partition_s": enc["root_s"],
        "encode.coverage": enc["covered_s"] / enc["root_s"] if enc["root_s"] else 0.0,
        "encode.unattributed_s": enc["root_s"] - enc["covered_s"],
        "encode.orchestration_gap_s": ray_wall - inproc,
        "encode.zone_map_s": _incl(lay, "encode.zone_map"),
        "encode.row_build_s": _incl(lay, "encode.row_build"),
        "read.input_s": _incl(lay, "read.input"),
        "stats.sketch_s": _incl(lay, "stats.sketch"),
        "stats.sketch_calls": lay.get("stats.sketch", {}).get("calls", 0),
        "selector.plan_s": _incl(lay, "selector.plan"),
        "codecs.fsst.train_s": _incl(lay, "codecs.fsst.train"),
        "codecs.fsst.train_calls": enc["train"]["calls"],
        "codecs.fsst.train_bytes": enc["train"]["bytes"],
        "codecs.fsst.sample_s": _incl(lay, "codecs.fsst.sample"),
        "parquet.write_s": _incl(lay, "parquet.write"),
        "state.manifest.write_s": _incl(lay, "state.manifest.write"),
        "decode.partition_s": dec["root_s"],
        "tracing.overhead_frac": statistics.median(traced) / inproc - 1.0,
    })
    for c in CODECS:
        e = enc["codec_encode"].get(c, {"s": 0.0, "mb": 0.0})
        m[f"codecs.{c}.encode_s"] = e["s"]
        m[f"codecs.{c}.encode_mb"] = e["mb"]
        m[f"codecs.{c}.decode_s"] = dec["codec_decode"].get(c, 0.0)

    enc_dir = work / "tr"
    m["selector.regret"] = selector_regret(enc_dir)
    m["codecs.fallback_frac"] = fallback_frac(enc_dir)
    scan_dir = scan_dir_for(enc_dir, inp.scan_paths, work)
    walls, answers = time_scans(scan_dir, inp.queries, ledger)
    check_scans(inp.scan_paths, inp.queries, answers, ledger)
    m["scan.p50_ms"], m["scan.tail_ms"], _ = scan_stats(walls)
    m["scan.pruned_chunk_frac"] = pruned_chunk_frac(scan_dir, inp.queries)
    m["native.fsst_c"] = 1.0 if _fsst_native.get_lib() is not None else 0.0
    m["native.fsst.encode_mbps"], m["native.fsst.decode_mbps"] = fsst_kernel_rates(
        *kernel_src, ledger)
    m["ray_floor.identity_s"] = ray_floor(specs)
    m["ray_floor.share"] = m["ray_floor.identity_s"] / ray_wall
    detail = {
        "layers_self_s": {k: round(v["self_s"], 6) for k, v in sorted(lay.items())},
        "layers_calls": {k: v["calls"] for k, v in sorted(lay.items())},
        "encode_untraced_s": untraced, "encode_traced_s": traced,
    }
    return m, detail
