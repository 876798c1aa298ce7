"""The composed web flagship: Common-Crawl-style parquet -> extracted
text -> curated corpus -> encoded partitions, end to end.

This is the pipeline the north star describes run as ONE command over the
input contract's table (url, warc_ts, html, text, lang): the html column
is the source of truth, the text column is re-derived by the
deterministic extractor (byte-identical per url across runs and cluster
sizes), curation gates + dedups the extracted text, and the encode
engine compresses the survivors with full lineage/verify support.

Each stage writes parquet before the next starts — deliberate, not
incidental: stage outputs are the CHECKPOINTS that make a 100 TB run
resumable (re-running skips straight to the failed stage; the encode
stage additionally resumes per partition via its own manifest), and they
decouple the stages' very different shapes (extract is an embarrassing
map, curate shuffles ~50 B/doc labels, encode is stateful-per-partition).
A driver that wants one fused stream can compose the library calls
directly; a production deployment points `out_dir` at distributed
storage.

Row identity: doc_id = first 8 little-endian bytes of md5(url), as
int64 — the repo's stable-hash convention (`ops/invindex` shard routing),
reproducible across machines and library versions.  At 10^12 urls the
64-bit birthday collision odds are ~2.6%; a collision merges two urls in
the dedup stage (one doc lost) and is detectable by comparing stage row
counts; callers needing zero-loss identity can pre-assign ids.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path

import numpy as np
import pyarrow as pa


def _url_ids(urls) -> np.ndarray:
    """Stable int64 id per url (md5-8le, the ops/invindex scheme).

    A null url raises: identity is md5(url), and silently folding None
    into md5('') would merge every null-url row into ONE doc in the dedup
    stage (and cross-merge them with a genuinely-empty url — ADVICE r4).
    Callers with null-url rows must assign ids upstream or drop the rows.
    An empty-string url is a real (if odd) value and keeps md5('').

    Accepts an Arrow string column (fast path: md5 over memoryview slices
    of the utf8 buffer, no per-url Python str) or a list of str."""
    if isinstance(urls, (pa.Array, pa.ChunkedArray)):
        col = urls.combine_chunks() if isinstance(urls, pa.ChunkedArray) \
            else urls
        if col.null_count:
            raise ValueError(
                "null url at input row: doc identity is md5(url) — drop "
                "null-url rows or pre-assign doc ids upstream")
        from nem_mms_ray.ops.textstats import _utf8_bytes_view

        flat, starts, ends = _utf8_bytes_view(col)
        mv = memoryview(flat)
        out = np.fromiter(
            (int.from_bytes(hashlib.md5(mv[s:e]).digest()[:8], "little")
             for s, e in zip(starts.tolist(), ends.tolist())),
            np.uint64, count=len(starts))
        return out.view(np.int64)
    out = np.empty(len(urls), np.uint64)
    for i, u in enumerate(urls):
        if u is None:
            raise ValueError(
                "null url at input row: doc identity is md5(url) — drop "
                "null-url rows or pre-assign doc ids upstream")
        out[i] = int.from_bytes(
            hashlib.md5(u.encode()).digest()[:8], "little")
    return out.view(np.int64)


_STAGE_MARKER = "_STAGE.json"


def _stage_complete(stage_dir: Path, plan: dict) -> dict | None:
    """The stage's marker record iff the directory is a COMPLETE checkpoint
    of exactly this plan, else None.  write_parquet creates the directory
    before writing finishes, so bare existence proves nothing (ADVICE r4);
    the marker is written only after the stage's parquet is fully on disk,
    and it pins the parameters the checkpoint was built under — resume
    under a changed plan re-runs (the encode manifest's rule)."""
    m = stage_dir / _STAGE_MARKER
    if not m.exists():
        return None
    try:
        rec = json.loads(m.read_text())
    except (OSError, ValueError):
        return None
    return rec if rec.get("plan") == plan else None


def _run_stage(stage_dir: Path, plan: dict, write_fn) -> dict:
    """Crash-atomic stage checkpoint: `write_fn(tmp_path)` writes the
    stage's parquet into `<stage_dir>.tmp`, the marker (plan + row count
    from the parquet footers) is stamped inside, then ONE rename publishes
    the directory.  A crash mid-write leaves only the tmp dir or a
    markerless final dir, both discarded on the next run."""
    import pyarrow.parquet as pq

    tmp = stage_dir.parent / (stage_dir.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(stage_dir, ignore_errors=True)
    tmp.mkdir(parents=True)
    write_fn(str(tmp))
    rows = sum(pq.ParquetFile(p).metadata.num_rows
               for p in tmp.rglob("*.parquet"))  # rglob: the shards stage
    # writes hive-partitioned subdirs; flat stages are unaffected
    rec = {"plan": plan, "rows": int(rows)}
    (tmp / _STAGE_MARKER).write_text(json.dumps(rec))
    tmp.rename(stage_dir)
    return rec


def web_pipeline(input_paths, out_dir, quality_min: float = 0.0,
                 lang: str | None = None, near_dedup: bool = False,
                 threshold: float = 1.0, target_bytes: int = 64 << 20,
                 verify: bool = False, resume: bool = True,
                 scrub: bool = False, domain_cap: int | None = None,
                 benchmark_paths=None, decontam_ngram: int = 8,
                 lm_max_bits: float | None = None, lm_ref_paths=None,
                 lm_ngram: int = 3, shards: int | None = None,
                 shard_seed: int = 0) -> dict:
    """Run extract -> curate -> encode over a web table; returns a
    summary dict with per-stage rows, seconds, and the encode ratio.

    `near_dedup` upgrades the curation stage to the full endgame
    (minhash pairs -> connected components -> representative) on top of
    the exact-dedup gate; `verify` re-decodes the encoded output and
    checks it bit-identical (the reference's round-trip contract).
    `resume=True` skips a stage only when its checkpoint carries a
    completion marker whose recorded parameters match this call's —
    stage-level, crash-atomic checkpointing (tmp-dir + rename, marker
    written last) on top of encode's per-partition manifest.

    Optional hygiene stages, all folded into the curate checkpoint (and
    pinned in its plan, so changing any of them re-runs the stage):
    - `domain_cap`: per-host quota applied BEFORE curation (first
      `domain_cap` docs per host by doc_id, `ops/urltools.domain_cap`) —
      capping the raw crawl early bounds the expensive near-dedup work
      downstream; the winner set filters the corpus via the size-gated
      `keep_ids` semi-join.
    - `scrub`: PII redaction (`ops/scrub`) of the extracted text before
      the quality gate, so dedup/quality/encode all see scrubbed text.
    - `benchmark_paths`: parquet file(s) with a `text` column;
      benchmark-decontamination (`ops/decontam`, word `decontam_ngram`-
      grams) drops contaminated docs AFTER dedup — the conventional
      last-step ordering, and the cheapest (the corpus is smallest).
      The plan pins the benchmark by path list + ngram (same convention
      as the extract stage's input pin).
    - `lm_max_bits`: perplexity filter (`ops/charlm`, the CCNet step) —
      drop docs scoring above the bits/char threshold under a char
      `lm_ngram`-gram LM.  Trained on `lm_ref_paths` (trusted text, the
      CCNet configuration) when given, else on the curated corpus itself
      (self-scoring outlier filter).  Applied LAST, on the smallest
      corpus; docs too short to score (no n-gram position) are kept —
      absence of evidence is not a quality signal.
    """
    import ray.data as rd

    from nem_mms_ray.ops.curate import (curate_documents_near,
                                        curate_documents_with_text,
                                        drop_ids, keep_ids)
    from nem_mms_ray.ops.readutil import read_parquet_sized
    from nem_mms_ray.ops.webextract import extract_text
    from nem_mms_ray.pipelines.encode import encode_files
    from nem_mms_ray.state.manifest import Manifest

    out_dir = Path(out_dir)
    extracted = out_dir / "extracted"
    curated = out_dir / "curated"
    encoded = out_dir / "encoded"
    summary: dict = {"stages": {}}

    # --- stage 1: extract (pure map; url/warc_ts pass through) ------------
    t0 = time.monotonic()
    ext_plan = {"stage": "extract",
                "inputs": sorted(str(p) for p in input_paths)}
    ext_rec = resume and _stage_complete(extracted, ext_plan)
    if not ext_rec:

        def write_extract(tmp: str) -> None:
            def add_ids(t: pa.Table) -> pa.Table:
                ids = _url_ids(t.column("url"))
                return t.append_column("doc_id", pa.array(ids))

            # sized read: block count follows input bytes (not Ray's fixed
            # ~200-way split), so the checkpoint written below is a few
            # right-sized files instead of hundreds of tiny ones — the
            # downstream curate re-read and its shuffles inherit the shape
            extract_text(
                read_parquet_sized([str(p) for p in input_paths],
                                   columns=["url", "warc_ts", "html"]),
                html_col="html", out_col="text",
            ).map_batches(add_ids, batch_format="pyarrow").write_parquet(tmp)

        ext_rec = _run_stage(extracted, ext_plan, write_extract)
    summary["stages"]["extract"] = {
        "sec": round(time.monotonic() - t0, 3),
        "rows": int(ext_rec["rows"]),
    }

    # --- stage 2: curate (gate + dedup [+ near-dedup endgame]) ------------
    # upstream extract plan+rows pin the lineage: a re-extracted (or
    # differently-parameterized) input invalidates this checkpoint too
    t0 = time.monotonic()
    bench_pin = (sorted(str(p) for p in benchmark_paths)
                 if benchmark_paths else None)
    lm_pin = (sorted(str(p) for p in lm_ref_paths)
              if lm_ref_paths else None)
    cur_plan = {"stage": "curate", "quality_min": quality_min, "lang": lang,
                "near_dedup": near_dedup,
                "threshold": threshold if near_dedup else None,
                "scrub": scrub, "domain_cap": domain_cap,
                "benchmark": ({"paths": bench_pin, "ngram": decontam_ngram}
                              if bench_pin else None),
                "lm": ({"max_bits": lm_max_bits, "ngram": lm_ngram,
                        "ref": lm_pin} if lm_max_bits is not None else None),
                "upstream": {"plan": ext_plan, "rows": int(ext_rec["rows"])}}
    cur_rec = resume and _stage_complete(curated, cur_plan)
    cur_reused = bool(cur_rec)
    if not cur_rec:

        def write_curate(tmp: str) -> None:
            cap_winners = None
            if domain_cap is not None:
                from nem_mms_ray.ops.urltools import domain_cap as _dcap

                cap_winners = _dcap(
                    read_parquet_sized(str(extracted),
                                       columns=["doc_id", "url"]),
                    cap=domain_cap).map_batches(
                        lambda t: pa.table(
                            {"id": t.column("doc_id").cast(pa.int64())}),
                        batch_format="pyarrow").materialize()

            text_map = None
            if scrub:
                from nem_mms_ray.ops.scrub import scrub_text

                text_map = scrub_text

            def src():
                # sized read: the extract checkpoint is many small files
                # (one per upstream block); Ray's default ~200-way split
                # would hand the curate shuffles hundreds of tiny blocks
                ds = read_parquet_sized(str(extracted),
                                        columns=["doc_id", "text"])
                if cap_winners is not None:
                    ds = keep_ids(ds, cap_winners)
                return ds

            # scrub rides as text_map: the gate/dedup pass sees scrubbed
            # text, but the semi-join pass scrubs only the winners —
            # output-identical and one less full-corpus RE2 pass
            if near_dedup:
                cur = curate_documents_near(src, quality_min=quality_min,
                                            lang=lang, threshold=threshold,
                                            text_map=text_map)
            else:
                cur = curate_documents_with_text(src, quality_min=quality_min,
                                                 lang=lang, text_map=text_map)
            if bench_pin:
                from nem_mms_ray.ops.decontam import decontaminate

                # the benchmark must see the SAME text transform as the
                # corpus: an unscrubbed benchmark doc whose grams span a
                # PII token would never match its scrubbed corpus copy
                bench_ds = rd.read_parquet(bench_pin, columns=["text"])
                if text_map is not None:
                    bench_ds = text_map(bench_ds)
                cur = cur.materialize()  # consumed by decontam + anti-join
                flagged = decontaminate(
                    cur, bench_ds, ngram=decontam_ngram).map_batches(
                        lambda t: pa.table({"id": t.column("doc_id").filter(
                            t.column("contaminated")).cast(pa.int64())}),
                        batch_format="pyarrow")
                cur = drop_ids(cur, flagged)
            if lm_max_bits is not None:
                import pyarrow.compute as pc

                from nem_mms_ray.ops.charlm import lm_score, train_char_lm

                # scored corpus consumed twice (train-or-score + anti-join)
                cur = cur.materialize()
                ref_ds = (rd.read_parquet(lm_pin, columns=["text"])
                          if lm_pin else cur)
                if text_map is not None and lm_pin:
                    ref_ds = text_map(ref_ds)  # same-transform rule as bench
                model = train_char_lm(ref_ds, n=lm_ngram)
                noisy = lm_score(cur, model).map_batches(
                    lambda t: pa.table({"id": t.column("doc_id").filter(
                        pc.greater(t.column("lm_bits"), lm_max_bits))
                        .cast(pa.int64())}),
                    batch_format="pyarrow")
                cur = drop_ids(cur, noisy)
            cur.write_parquet(tmp)

        cur_rec = _run_stage(curated, cur_plan, write_curate)
    summary["stages"]["curate"] = {
        "sec": round(time.monotonic() - t0, 3),
        "rows": int(cur_rec["rows"]),
    }

    # --- stage 3: encode (per-partition plans, manifest, zone maps) -------
    # encode owns per-partition resume via its manifest, whose run header
    # REFUSES a changed plan (the safe standalone behavior).  Inside the
    # composed pipeline the lineage is known: a rebuilt curate checkpoint
    # (new parquet uuids) or a changed target_bytes means the old encoded
    # dir is stale by construction — wipe it and re-encode fresh instead
    # of surfacing the manifest's refusal to the caller.
    t0 = time.monotonic()
    cur_paths = sorted(str(p) for p in curated.glob("*.parquet"))
    if not cur_reused:
        shutil.rmtree(encoded, ignore_errors=True)
    else:
        try:
            Manifest(encoded).check_run_header(cur_paths, target_bytes)
        except ValueError:
            shutil.rmtree(encoded, ignore_errors=True)
    encode_files(cur_paths, encoded, target_bytes=target_bytes).to_pandas()
    msum = Manifest(encoded).summary()
    summary["stages"]["encode"] = {
        "sec": round(time.monotonic() - t0, 3),
        "rows": int(msum["rows"]),
        "orig_bytes": int(msum["orig_bytes"]),
        "encoded_bytes": int(msum["file_bytes"]),
        "ratio": round(float(msum["ratio"]), 4),
    }

    if verify:
        from nem_mms_ray.pipelines.decode import verify_files

        t0 = time.monotonic()
        v = verify_files(cur_paths, encoded,
                         target_bytes=target_bytes).to_pandas()
        summary["stages"]["verify"] = {
            "sec": round(time.monotonic() - t0, 3),
            "ok": bool(v["ok"].all()),
        }

    # --- stage 4 (opt-in): training shards ---------------------------------
    # the OTHER output form: the curated corpus deterministically shuffled
    # into hive-partitioned reader shards (ops/shard) — same crash-atomic
    # checkpoint discipline as the other stages, plan pinned by
    # (shards, seed) + the curate lineage
    if shards is not None:
        from nem_mms_ray.ops.shard import assign_shards

        t0 = time.monotonic()
        sh_dir = out_dir / "shards"
        sh_plan = {"stage": "shards", "n": int(shards),
                   "seed": int(shard_seed),
                   "upstream": {"plan": cur_plan, "rows": int(cur_rec["rows"])}}
        sh_rec = resume and _stage_complete(sh_dir, sh_plan)
        if not sh_rec:

            def write_shards(tmp: str) -> None:
                assign_shards(read_parquet_sized(str(curated)),
                              n_shards=shards, seed=shard_seed,
                              ).sort("skey").write_parquet(
                    tmp, partition_cols=["shard_id"])

            sh_rec = _run_stage(sh_dir, sh_plan, write_shards)
        summary["stages"]["shards"] = {
            "sec": round(time.monotonic() - t0, 3),
            "rows": int(sh_rec["rows"]),
            "n_shards": int(shards),
        }
    return summary
