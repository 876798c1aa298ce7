"""Engine CLI: encode / verify / describe / gen.

The target-side analog of the reference CLI (`nem-mms parse|info|manage`,
/root/reference/src/main.rs:92-152): `encode` is `parse` (input -> encoded
columnar output + manifest), `verify` is the round-trip check the reference
only had as unit tests, `describe` is `info` + `manage` (codec registry +
manifest metrics of a depository), `gen` synthesizes the FIXTURES webtable.

`main` owns the Ray session of every command but describe and gen: it
starts one only if none is running, and shuts down the one it started
however the command ends (library code never calls ray.init — driver
contract).

Usage:
  python -m nem_mms_ray encode IN.parquet [IN2...] -o OUT_DIR [--target-mb 64]
  python -m nem_mms_ray verify IN.parquet [IN2...] -o OUT_DIR
         # plans with the target the encode recorded in OUT_DIR
  python -m nem_mms_ray decode OUT_DIR -o PLAIN_DIR
  python -m nem_mms_ray describe OUT_DIR [--fsck [--repair]]
         # --fsck: manifest-vs-disk reconciliation (the reference's
         # stubbed `manage update`, implemented); --repair deletes
         # stale records/orphans so resume re-encodes them
  python -m nem_mms_ray gen -o DIR --rows 50000
  python -m nem_mms_ray curate DOCS.parquet -o OUT.parquet \
         [--quality-min 0.5] [--lang en]
  python -m nem_mms_ray scan ENC_DIR -o OUT_DIR [--columns a,b] \
         [--range col lo hi ...]   # zone-map predicate pushdown
  python -m nem_mms_ray near-dedup DOCS.parquet -o OUT.parquet \
         [--threshold 0.8]         # minhash pairs -> cluster components
  python -m nem_mms_ray web WEB.parquet [WEB2...] -o OUT_DIR \
         [--quality-min 0.5] [--lang en] [--near-dedup] [--verify] \
         [--lm-max-bits 1.2 [--lm-ref TRUSTED.parquet] [--lm-ngram 3]] \
         [--shards 64 [--shard-seed 0]]
         # the composed flagship: extract -> curate -> encode, with
         # stage-level checkpoint resume; --lm-max-bits adds the CCNet
         # perplexity filter; --shards also writes the curated corpus
         # as deterministic training shards
  python -m nem_mms_ray shard DOCS.parquet -o OUT_DIR \
         [--shards 8] [--seed 0]
         # deterministic global shuffle -> hive training shards
  python -m nem_mms_ray lm DOCS.parquet -o OUT_DIR [--ref TRUSTED.parquet]
         # char n-gram LM bits/char scoring (the CCNet filter signal)
  python -m nem_mms_ray scrub DOCS.parquet -o OUT_DIR
         # PII redaction (email/IP/SSN/phone/card) + corpus match totals
  python -m nem_mms_ray decontam DOCS.parquet -o OUT_DIR \
         --benchmark EVAL.parquet [--ngram 8] [--threshold 0]
         # benchmark n-gram decontamination flags
"""

from __future__ import annotations

import argparse
import json
import sys


def _expand_inputs(inputs: list[str]) -> list[str]:
    """Directories expand to their *.parquet members (sorted)."""
    from pathlib import Path

    out: list[str] = []
    for p in inputs:
        pp = Path(p)
        if pp.is_dir():
            out.extend(sorted(str(f) for f in pp.glob("*.parquet")))
        else:
            out.append(str(pp))
    return out


def cmd_encode(args) -> int:
    from nem_mms_ray.pipelines.encode import encode_files
    from nem_mms_ray.state.manifest import Manifest

    cols = args.columns.split(",") if args.columns else None
    df = encode_files(_expand_inputs(args.inputs), args.out, columns=cols,
                      target_bytes=args.target_mb << 20).to_pandas()
    summ = Manifest(args.out).summary()
    print(json.dumps({"partitions_run": len(df),
                      "skipped": int(df["skipped"].sum()), **summ}))
    return 0


def cmd_verify(args) -> int:
    from nem_mms_ray.pipelines.decode import verify_files

    cols = args.columns.split(",") if args.columns else None
    df = verify_files(_expand_inputs(args.inputs), args.out, columns=cols).to_pandas()
    ok = bool(df["ok"].all())
    bad = df.loc[~df["ok"], ["pid", "mismatched_columns"]].to_dict("records")
    print(json.dumps({"partitions": len(df), "ok": ok, "mismatches": bad}))
    return 0 if ok else 1


def cmd_decode(args) -> int:
    from nem_mms_ray.pipelines.decode import decode_files

    df = decode_files(args.enc_dir, args.out).to_pandas()
    print(json.dumps({"partitions": len(df), "rows": int(df["rows"].sum())}))
    return 0


def cmd_scan(args) -> int:
    """Predicate-pushdown scan over an encoded dir; writes matching rows as
    plain parquet.  Bounds parse as float, int, then ISO timestamp."""
    from nem_mms_ray.pipelines.decode import scan_encoded

    def parse_bound(x: str):
        if x in ("none", "None", ""):
            return None
        for cast in (int, float):
            try:
                return cast(x)
            except ValueError:
                pass
        import pandas as pd

        return pd.Timestamp(x)

    filters = {col: (parse_bound(lo), parse_bound(hi))
               for col, lo, hi in (args.range or [])}
    cols = args.columns.split(",") if args.columns else None
    ds = scan_encoded(args.enc_dir, columns=cols, range_filters=filters or None)
    ds.write_parquet(args.out)
    import ray.data as rd

    n = rd.read_parquet(args.out).count()
    print(json.dumps({"rows": n, "out": args.out}))
    return 0


def cmd_near_dedup(args) -> int:
    """MinHash+LSH near-dup pairs over a documents table, collapsed to
    clusters by min-label propagation; writes (id, component) parquet —
    keep rows where id == component, drop the rest."""
    import ray.data as rd

    from nem_mms_ray.ops.dedup import connected_components, minhash_dedup

    ds = rd.read_parquet(args.inputs, columns=[args.id_col, args.text_col])
    if args.id_col != "doc_id" or args.text_col != "text":
        cols = {args.id_col: "doc_id", args.text_col: "text"}
        ds = ds.map_batches(
            lambda t: t.rename_columns([cols.get(c, c) for c in t.column_names]),
            batch_format="pyarrow")
    pairs = minhash_dedup(ds, threshold=args.threshold)
    comps = connected_components(pairs)
    comps.write_parquet(args.out)
    import ray.data as _rd

    written = _rd.read_parquet(args.out)
    n_nodes = written.count()
    n_comps = written.groupby("component").count().count()
    print(json.dumps({"near_dup_nodes": int(n_nodes),
                      "clusters": int(n_comps),
                      "duplicates_to_drop": int(n_nodes - n_comps)}))
    return 0


def cmd_shard(args) -> int:
    """Deterministic shuffle-shard: the training-output step.  Same
    corpus + same seed => byte-identical shard layout on any cluster."""
    import ray.data as rd

    from nem_mms_ray.ops.shard import write_training_shards

    ds = rd.read_parquet(args.inputs)
    res = write_training_shards(ds, args.out, n_shards=args.shards,
                                seed=args.seed, id_col=args.id_col)
    print(json.dumps(res))
    return 0


def cmd_curate(args) -> int:
    """Quality/lang gate + exact dedup over a documents table; writes the
    surviving (doc_id, lang_pred, quality) labels as parquet — or, with
    --with-text, the curated DATA (text semi-joined back to the winners)."""
    import ray.data as rd

    from nem_mms_ray.ops.curate import curate_documents, curate_documents_with_text

    if args.with_text:
        out = curate_documents_with_text(
            lambda: rd.read_parquet(args.inputs,
                                    columns=[args.id_col, args.text_col]),
            quality_min=args.quality_min, lang=args.lang,
            id_col=args.id_col, text_col=args.text_col)
    else:
        ds = rd.read_parquet(args.inputs, columns=[args.id_col, args.text_col])
        out = curate_documents(ds, quality_min=args.quality_min, lang=args.lang,
                               id_col=args.id_col, text_col=args.text_col)
    out.write_parquet(args.out)
    n_in = rd.read_parquet(args.inputs).count()
    n_out = rd.read_parquet(args.out).count()
    print(json.dumps({"input_rows": n_in, "curated_rows": n_out,
                      "kept_pct": round(100.0 * n_out / max(1, n_in), 2)}))
    return 0


def cmd_web(args) -> int:
    """extract -> curate -> encode over a web table (pipelines/web.py);
    stage outputs are checkpoints, the summary JSON is per-stage."""
    from nem_mms_ray.pipelines.web import web_pipeline

    summary = web_pipeline(
        args.inputs, args.out, quality_min=args.quality_min, lang=args.lang,
        near_dedup=args.near_dedup, threshold=args.threshold,
        verify=args.verify, resume=not args.no_resume,
        scrub=args.scrub, domain_cap=args.domain_cap,
        benchmark_paths=args.benchmark or None,
        decontam_ngram=args.decontam_ngram,
        lm_max_bits=args.lm_max_bits, lm_ref_paths=args.lm_ref or None,
        lm_ngram=args.lm_ngram, shards=args.shards,
        shard_seed=args.shard_seed)
    print(json.dumps(summary))
    return 0


def cmd_describe(args) -> int:
    """Codec registry + which C kernels loaded (`native`) + manifest
    metrics — no Ray session needed.  Per column: codec, bytes, ratio and
    `dict_read`, the partitions that read it as a Parquet dictionary.
    --fsck reconciles the manifest against the on-disk encoded files
    (the reference's `manage update`, implemented: main.rs:148-150 stubs
    it); --repair deletes stale records/orphans so resume re-encodes."""
    from nem_mms_ray.codecs import REGISTRY
    from nem_mms_ray.state.manifest import Manifest

    if getattr(args, "fsck", False):
        if not args.out_dir:
            print("describe --fsck requires OUT_DIR", file=sys.stderr)
            return 2
        try:
            rep = Manifest(args.out_dir).fsck(repair=args.repair)
        except FileNotFoundError as e:
            print(str(e), file=sys.stderr)
            return 2
        print(json.dumps(rep, indent=2))
        return 0 if rep["clean"] or args.repair else 1

    from nem_mms_ray import _native

    out = {"codecs": {}, "native": _native.status()}
    for name in sorted(REGISTRY):
        c = REGISTRY[name]
        doc = (c.__doc__ or "").strip().splitlines()
        out["codecs"][name] = doc[0] if doc else type(c).__name__
    if args.out_dir:
        m = Manifest(args.out_dir)
        out["manifest"] = m.summary()
        per_col: dict[str, dict] = {}
        for r in m.load_all():
            if not r.done:
                continue
            for col, codec in r.codecs.items():
                e = per_col.setdefault(col, {"codec": codec, "orig": 0, "encoded": 0,
                                             "dict_read": 0})
                ob, eb = r.column_bytes.get(col, [0, 0])
                e["orig"] += ob
                e["encoded"] += eb
                e["dict_read"] += col in r.dict_read
        for col, e in per_col.items():
            e["ratio"] = round(e["encoded"] / e["orig"], 4) if e["orig"] else 0.0
        out["columns"] = per_col
    print(json.dumps(out, indent=2))
    return 0


def cmd_scrub(args) -> int:
    """PII-redact the text column of a documents table; writes the scrubbed
    rows as parquet and prints the corpus-level per-pattern match totals."""
    import ray.data as rd

    from nem_mms_ray.ops.scrub import scrub_stats, scrub_text

    ds = rd.read_parquet(_expand_inputs(args.inputs))
    scrub_text(ds, text_col=args.text_col).write_parquet(args.out)
    stats = scrub_stats(ds, text_col=args.text_col)
    n = rd.read_parquet(args.out).count()
    print(json.dumps({"rows": int(n), "redactions": stats}))
    return 0


def cmd_lm(args) -> int:
    """Char n-gram LM perplexity scoring (the CCNet filter signal): train
    on --ref (or the corpus itself) and write (id, lm_bits) parquet."""
    import ray.data as rd

    from nem_mms_ray.ops.charlm import lm_score, train_char_lm

    ref = rd.read_parquet(_expand_inputs(args.ref), columns=[args.text_col]) \
        if args.ref else rd.read_parquet(_expand_inputs(args.inputs),
                                         columns=[args.text_col])
    model = train_char_lm(ref, n=args.n, text_col=args.text_col,
                          min_count=args.min_count)
    scored = lm_score(
        rd.read_parquet(_expand_inputs(args.inputs),
                        columns=[args.id_col, args.text_col]),
        model, id_col=args.id_col, text_col=args.text_col)
    scored.write_parquet(args.out)
    import pyarrow.parquet as pq

    bits = pq.read_table(args.out).column("lm_bits").to_pandas()
    scored_bits = bits.dropna()  # docs shorter than n score null
    bits_mean = bits_p90 = None  # JSON null, not NaN, when no doc scored
    if len(scored_bits):
        bits_mean = round(float(scored_bits.mean()), 4)
        bits_p90 = round(float(scored_bits.quantile(0.9)), 4)
    print(json.dumps({"rows": int(len(bits)), "ngram_types": model.n_types,
                      "charset": model.v, "bits_mean": bits_mean,
                      "bits_p90": bits_p90}))
    return 0


def cmd_decontam(args) -> int:
    """Flag corpus docs sharing word n-grams with a benchmark parquet
    (same text column); writes (doc_id, n_grams, hits, overlap,
    contaminated) parquet."""
    import ray.data as rd

    from nem_mms_ray.ops.decontam import decontaminate

    ds = rd.read_parquet(_expand_inputs(args.inputs),
                         columns=[args.id_col, args.text_col])
    bench = rd.read_parquet(_expand_inputs([args.benchmark]),
                            columns=[args.text_col])
    out = decontaminate(ds, bench, ngram=args.ngram,
                        threshold=args.threshold, id_col=args.id_col,
                        text_col=args.text_col)
    out.write_parquet(args.out)
    import pyarrow as pa
    import pyarrow.compute as pc

    written = rd.read_parquet(args.out)
    n = written.count()
    n_bad = int(written.map_batches(
        lambda t: {"c": [int(pc.sum(t.column("contaminated").cast(
            pa.int64())).as_py() or 0)]},
        batch_format="pyarrow").sum("c") or 0)
    print(json.dumps({"rows": int(n), "contaminated": n_bad}))
    return 0


def cmd_gen(args) -> int:
    from nem_mms_ray.webtable import write_webtable

    paths = write_webtable(args.out, args.rows, shard_rows=args.shard_rows)
    print(json.dumps({"rows": args.rows, "files": len(paths), "dir": str(args.out)}))
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nem_mms_ray", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    ray_opts = argparse.ArgumentParser(add_help=False)
    ray_opts.add_argument("--num-cpus", type=int, default=None,
                          help="CPUs of the Ray session this command starts")

    pe = sub.add_parser("encode", parents=[ray_opts], help="encode parquet inputs into codec partitions")
    pe.add_argument("inputs", nargs="+")
    pe.add_argument("-o", "--out", required=True)
    pe.add_argument("--target-mb", type=int, default=64)
    pe.add_argument("--columns", default=None,
                    help="comma-separated column projection")
    pe.set_defaults(fn=cmd_encode)

    pv = sub.add_parser("verify", parents=[ray_opts], help="decode + bit-identical round-trip check")
    pv.add_argument("inputs", nargs="+")
    pv.add_argument("-o", "--out", required=True)
    pv.add_argument("--columns", default=None,
                    help="comma-separated column projection")
    pv.set_defaults(fn=cmd_verify)

    pdc = sub.add_parser("decode", parents=[ray_opts], help="decode encoded partitions back to plain parquet")
    pdc.add_argument("enc_dir")
    pdc.add_argument("-o", "--out", required=True)
    pdc.set_defaults(fn=cmd_decode)

    pd_ = sub.add_parser("describe", help="codec registry + native kernels + manifest metrics")
    pd_.add_argument("out_dir", nargs="?", default=None)
    pd_.add_argument("--fsck", action="store_true",
                     help="reconcile manifest vs on-disk encoded files"
                          " (missing outputs, size drift, orphans);"
                          " exit 1 if findings")
    pd_.add_argument("--repair", action="store_true",
                     help="with --fsck: delete stale records + orphan files"
                          " so a resume re-encodes exactly those partitions")
    pd_.set_defaults(fn=cmd_describe)

    ps = sub.add_parser("scan", parents=[ray_opts], help="zone-map range scan over encoded partitions")
    ps.add_argument("enc_dir")
    ps.add_argument("-o", "--out", required=True)
    ps.add_argument("--columns", default=None)
    ps.add_argument("--range", nargs=3, action="append",
                    metavar=("COL", "LO", "HI"))
    ps.set_defaults(fn=cmd_scan)

    pc = sub.add_parser("curate", parents=[ray_opts], help="quality/lang gate + exact dedup over documents")
    pc.add_argument("inputs", nargs="+")
    pc.add_argument("-o", "--out", required=True)
    pc.add_argument("--quality-min", type=float, default=0.5)
    pc.add_argument("--lang", default=None)
    pc.add_argument("--id-col", default="doc_id")
    pc.add_argument("--text-col", default="text")
    pc.add_argument("--with-text", action="store_true",
                    help="semi-join winners back to full rows (curated data,"
                         " not just labels); reads the corpus twice")
    pc.set_defaults(fn=cmd_curate)

    pn = sub.add_parser("near-dedup", parents=[ray_opts],
                        help="minhash near-dup pairs -> connected components"
                             " -> (id, component) parquet")
    pn.add_argument("inputs", nargs="+")
    pn.add_argument("-o", "--out", required=True)
    pn.add_argument("--threshold", type=float, default=0.8)
    pn.add_argument("--id-col", default="doc_id")
    pn.add_argument("--text-col", default="text")
    pn.set_defaults(fn=cmd_near_dedup)

    psh = sub.add_parser("shard", parents=[ray_opts],
                         help="deterministic global shuffle -> hive-"
                              "partitioned training shards (pure function "
                              "of seed + id: identical on any cluster)")
    psh.add_argument("inputs", nargs="+")
    psh.add_argument("-o", "--out", required=True)
    psh.add_argument("--shards", type=int, default=8)
    psh.add_argument("--seed", type=int, default=0)
    psh.add_argument("--id-col", default="doc_id")
    psh.set_defaults(fn=cmd_shard)

    pw = sub.add_parser("web", parents=[ray_opts], help="composed flagship: extract -> curate"
                                    " -> encode with stage checkpoints")
    pw.add_argument("inputs", nargs="+")
    pw.add_argument("-o", "--out", required=True)
    pw.add_argument("--quality-min", type=float, default=0.0)
    pw.add_argument("--lang", default=None)
    pw.add_argument("--near-dedup", action="store_true")
    pw.add_argument("--threshold", type=float, default=1.0)
    pw.add_argument("--verify", action="store_true")
    pw.add_argument("--no-resume", action="store_true")
    pw.add_argument("--scrub", action="store_true",
                    help="PII-redact extracted text before curation")
    pw.add_argument("--domain-cap", type=int, default=None,
                    help="keep at most N docs per host (pre-curation)")
    pw.add_argument("--benchmark", nargs="+", default=None,
                    help="benchmark parquet(s); drop docs sharing word "
                         "n-grams with them (post-dedup)")
    pw.add_argument("--decontam-ngram", type=int, default=8)
    pw.add_argument("--lm-max-bits", type=float, default=None,
                    help="drop docs above this bits/char under a char "
                         "n-gram LM (the CCNet perplexity filter)")
    pw.add_argument("--lm-ref", nargs="+", default=None,
                    help="trusted-text parquet(s) to train the LM on "
                         "(default: the curated corpus itself)")
    pw.add_argument("--lm-ngram", type=int, default=3)
    pw.add_argument("--shards", type=int, default=None,
                    help="also write the curated corpus as N training "
                         "shards (deterministic shuffle, ops/shard)")
    pw.add_argument("--shard-seed", type=int, default=0)
    pw.set_defaults(fn=cmd_web)

    psc = sub.add_parser("scrub", parents=[ray_opts], help="PII-redact the text column"
                                       " (email/IP/SSN/phone/card)")
    psc.add_argument("inputs", nargs="+")
    psc.add_argument("-o", "--out", required=True)
    psc.add_argument("--text-col", default="text")
    psc.set_defaults(fn=cmd_scrub)

    plm = sub.add_parser("lm", parents=[ray_opts], help="char n-gram LM perplexity scoring"
                                    " (CCNet filter signal)")
    plm.add_argument("inputs", nargs="+")
    plm.add_argument("-o", "--out", required=True)
    plm.add_argument("--ref", nargs="+", default=None,
                     help="trusted-text parquet(s) to train on"
                          " (default: the corpus itself)")
    plm.add_argument("--n", type=int, default=3)
    plm.add_argument("--min-count", type=int, default=1)
    plm.add_argument("--id-col", default="doc_id")
    plm.add_argument("--text-col", default="text")
    plm.set_defaults(fn=cmd_lm)

    pdx = sub.add_parser("decontam", parents=[ray_opts],
                         help="flag docs sharing word n-grams with a"
                              " benchmark parquet")
    pdx.add_argument("inputs", nargs="+")
    pdx.add_argument("-o", "--out", required=True)
    pdx.add_argument("--benchmark", required=True,
                     help="parquet file/dir with the benchmark texts")
    pdx.add_argument("--ngram", type=int, default=8)
    pdx.add_argument("--threshold", type=float, default=0.0,
                     help="0 = any shared n-gram flags; else min overlap"
                          " share of the doc's own grams")
    pdx.add_argument("--id-col", default="doc_id")
    pdx.add_argument("--text-col", default="text")
    pdx.set_defaults(fn=cmd_decontam)

    pg = sub.add_parser("gen", help="synthesize the FIXTURES webtable")
    pg.add_argument("-o", "--out", required=True)
    pg.add_argument("--rows", type=int, default=50_000)
    pg.add_argument("--shard-rows", type=int, default=25_000)
    pg.set_defaults(fn=cmd_gen)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not hasattr(args, "num_cpus"):  # describe, gen: no Ray session
        return args.fn(args)
    import ray

    # own a session only if none exists (never tear down a caller's), and
    # shut it down however the command ends
    owned = not ray.is_initialized()
    if owned:
        kw = {"num_cpus": args.num_cpus} if args.num_cpus else {}
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR", **kw)
    try:
        return args.fn(args)
    finally:
        if owned:
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
