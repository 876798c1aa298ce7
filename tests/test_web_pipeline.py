"""End-to-end composed flagship: extract -> curate -> encode (+verify),
stage checkpoints, and the CLI surface."""

import json
import subprocess
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


EN = ("the quick brown fox jumps over the lazy dog and runs to the hills "
      "with great speed for that is what foxes do in the wild ") * 5


def _write_webtable(path, rows):
    df = pd.DataFrame(rows)
    df["warc_ts"] = pd.Timestamp("2025-01-01")
    pq.write_table(pa.Table.from_pandas(df[["url", "warc_ts", "html"]],
                                        preserve_index=False), path)


def test_web_pipeline_end_to_end(ray_session, tmp_path):
    from nem_mms_ray.pipelines.web import web_pipeline

    # distinct-token texts make the gram math exact: B = A minus its last
    # word has Jaccard 117/118 vs A (near-dup at 0.9); C shares no grams
    A = " ".join(f"tok{i:03d}" for i in range(120))
    B = " ".join(f"tok{i:03d}" for i in range(119))
    C = " ".join(f"sep{i:03d}" for i in range(120))
    rows = [
        {"url": "http://a/1", "html": f"<p>{A}</p>".encode()},
        {"url": "http://a/2", "html": f"<b>{A}</b>".encode()},  # exact dup text
        {"url": "http://a/3", "html": f"<p>{B}</p>".encode()},  # near dup of A
        {"url": "http://a/4", "html": b"<p>short</p>"},          # quality-gated
        {"url": "http://a/5", "html": f"<p>{C}</p>".encode()},
    ]
    src = tmp_path / "web.parquet"
    _write_webtable(str(src), rows)

    out = tmp_path / "out"
    s = web_pipeline([str(src)], out, quality_min=0.5, near_dedup=True,
                     threshold=0.9, verify=True)
    assert s["stages"]["extract"]["rows"] == 5
    # 1,2 identical extracted text (exact dedup); 3 near-dups the winner;
    # 4 gated; 5 distinct -> 2 survivors
    assert s["stages"]["curate"]["rows"] == 2
    assert s["stages"]["encode"]["rows"] == 2
    assert s["stages"]["verify"]["ok"] is True
    # 2 tiny rows expand (per-chunk metadata dominates); compression at
    # scale is pinned by test_pipeline.py::test_compressed_size_beats_reference
    assert s["stages"]["encode"]["ratio"] > 0

    cur = pq.read_table(sorted((out / "curated").glob("*.parquet"))).to_pandas()
    assert sorted(cur.columns) == ["doc_id", "lang_pred", "quality", "text"]
    # the A-component representative is whichever of {A,B} hashes lower;
    # C always survives alone
    texts = set(cur["text"])
    assert C in texts and len(texts & {A, B}) == 1

    # extracted text is byte-identical per url across a fresh run — the
    # input contract's per-row invariant
    ext1 = pq.read_table(sorted((out / "extracted").glob("*.parquet"))
                         ).to_pandas().set_index("url")["text"]
    s2 = web_pipeline([str(src)], tmp_path / "out2", quality_min=0.5)
    ext2 = pq.read_table(sorted((tmp_path / "out2" / "extracted")
                                .glob("*.parquet"))
                         ).to_pandas().set_index("url")["text"]
    pd.testing.assert_series_equal(ext1.sort_index(), ext2.sort_index())
    assert s2["stages"]["curate"]["rows"] == 3  # no near-dedup: B stays


def test_curate_near_no_pairs(ray_session, tmp_path):
    """The no-duplicates case: connected_components on an empty pair list
    returns a typed empty result and the endgame keeps every survivor."""
    import ray.data as rd

    from nem_mms_ray.ops.curate import curate_documents_near
    from nem_mms_ray.ops.dedup import connected_components

    empty = rd.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                    "b": pa.array([], pa.int64()),
                                    "jaccard": pa.array([], pa.float64())}))
    cc = connected_components(empty)
    assert cc.count() == 0
    assert set(cc.schema().names) == {"id", "component"}

    texts = [" ".join(f"w{d}x{i:03d}" for i in range(120)) for d in range(3)]
    df = pd.DataFrame({"doc_id": np.arange(3, dtype=np.int64), "text": texts})
    out = curate_documents_near(lambda: rd.from_pandas(df), quality_min=0.5,
                                threshold=0.9).to_pandas()
    assert sorted(out["doc_id"]) == [0, 1, 2]


def test_web_pipeline_stage_resume(ray_session, tmp_path):
    """Re-running with resume=True skips completed stages (checkpoint
    semantics): the extract stage's second-run wall time reflects a skip
    and row counts are unchanged."""
    from nem_mms_ray.pipelines.web import web_pipeline

    src = tmp_path / "web.parquet"
    _write_webtable(str(src), [
        {"url": f"http://r/{i}", "html": f"<p>{EN}doc{i}</p>".encode()}
        for i in range(6)
    ])
    out = tmp_path / "out"
    s1 = web_pipeline([str(src)], out, quality_min=0.5, lang="en")
    before = {p.name: p.stat().st_mtime_ns
              for p in (out / "extracted").glob("*.parquet")}
    s2 = web_pipeline([str(src)], out, quality_min=0.5, lang="en")
    after = {p.name: p.stat().st_mtime_ns
             for p in (out / "extracted").glob("*.parquet")}
    assert before == after  # stage skipped: outputs untouched
    assert s2["stages"]["extract"]["rows"] == s1["stages"]["extract"]["rows"]
    assert s2["stages"]["curate"]["rows"] == s1["stages"]["curate"]["rows"]


def test_web_pipeline_partial_checkpoint_reruns(ray_session, tmp_path):
    """A stage directory WITHOUT a completion marker (the footprint of a
    run killed mid-write — write_parquet creates the dir before finishing)
    must be discarded and re-run, not trusted (VERDICT r4 item 2)."""
    from nem_mms_ray.pipelines.web import _STAGE_MARKER, web_pipeline

    src = tmp_path / "web.parquet"
    _write_webtable(str(src), [
        {"url": f"http://p/{i}", "html": f"<p>{EN}doc{i}</p>".encode()}
        for i in range(6)
    ])
    out = tmp_path / "out"
    s1 = web_pipeline([str(src)], out, quality_min=0.5, lang="en")

    # simulate a crash mid-extract: keep only ONE parquet shard, no marker
    ext = out / "extracted"
    (ext / _STAGE_MARKER).unlink()
    parts = sorted(ext.glob("*.parquet"))
    for p in parts[1:]:
        p.unlink()
    s2 = web_pipeline([str(src)], out, quality_min=0.5, lang="en")
    assert s2["stages"]["extract"]["rows"] == s1["stages"]["extract"]["rows"]
    assert (ext / _STAGE_MARKER).exists()  # re-ran and re-completed


def test_web_pipeline_param_change_reruns(ray_session, tmp_path):
    """Resume must NOT reuse a checkpoint built under different parameters:
    the marker pins the stage plan (the encode-manifest rule, ADVICE r4)."""
    from nem_mms_ray.pipelines.web import web_pipeline

    src = tmp_path / "web.parquet"
    _write_webtable(str(src), [
        {"url": "http://q/long", "html": f"<p>{EN}body</p>".encode()},
        {"url": "http://q/short", "html": b"<p>short</p>"},
    ])
    out = tmp_path / "out"
    s1 = web_pipeline([str(src)], out, quality_min=0.5, lang="en")
    assert s1["stages"]["curate"]["rows"] == 1  # short doc gated
    # same output dir, laxer gate: the curated checkpoint must re-run
    s2 = web_pipeline([str(src)], out, quality_min=0.0, lang=None)
    assert s2["stages"]["curate"]["rows"] == 2


def test_url_ids_stable():
    from nem_mms_ray.pipelines.web import _url_ids

    a = _url_ids(["http://x", "http://y", ""])
    b = _url_ids(["http://x", "http://y", ""])
    assert a.dtype == np.int64
    assert (a == b).all()
    assert len(set(a.tolist())) == 3
    # null urls raise instead of silently collapsing into md5('') (ADVICE r4)
    with pytest.raises(ValueError, match="null url"):
        _url_ids(["http://x", None])


def test_web_cli(ray_session, tmp_path):
    """CLI smoke: `python -m nem_mms_ray web` prints the summary JSON."""
    src = tmp_path / "web.parquet"
    _write_webtable(str(src), [
        {"url": f"http://c/{i}", "html": f"<p>{EN}c{i}</p>".encode()}
        for i in range(4)
    ])
    r = subprocess.run(
        [sys.executable, "-m", "nem_mms_ray", "web", str(src), "-o",
         str(tmp_path / "o"), "--quality-min", "0.5", "--lang", "en"],
        capture_output=True, text=True, timeout=300, cwd="/root/repo")
    assert r.returncode == 0, r.stderr[-2000:]
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    assert summary["stages"]["encode"]["rows"] == 4

def test_web_pipeline_hygiene_stages(ray_session, tmp_path):
    """domain_cap + scrub + benchmark decontamination, composed: the cap
    bounds the mega-host BEFORE curation, scrub redacts PII before the
    gate (so the encoded corpus is scrubbed), and the benchmark anti-join
    drops the contaminated doc AFTER dedup — all inside the curate
    checkpoint, pinned in its plan."""
    import ray.data as rd

    from nem_mms_ray.pipelines.web import _url_ids, web_pipeline

    def words(tag, n=120):
        return " ".join(f"{tag}{i:03d}" for i in range(n))

    BEN = words("ben")
    PII = f"contact me a@b.co now {words('pii')}"
    rows = (
        [{"url": f"http://big.com/{i}",
          "html": f"<p>{words(f'big{i}x')}</p>".encode()} for i in range(4)]
        + [{"url": "http://small.org/pii", "html": f"<p>{PII}</p>".encode()},
           {"url": "http://small.org/copy",
            "html": f"<p>{BEN}</p>".encode()}])
    src = tmp_path / "web.parquet"
    _write_webtable(str(src), rows)
    bench = tmp_path / "bench.parquet"
    pq.write_table(pa.table({"text": pa.array([BEN])}), bench)

    out = tmp_path / "out"
    s = web_pipeline([str(src)], out, domain_cap=2, scrub=True,
                     benchmark_paths=[bench])
    assert s["stages"]["extract"]["rows"] == 6
    # big.com 4 -> 2 (cap), small.org keeps pii + copy, copy then
    # decontaminated away -> 3 survivors
    assert s["stages"]["curate"]["rows"] == 3

    cur = pq.read_table(sorted((out / "curated").glob("*.parquet"))
                        ).to_pandas()
    texts = set(cur["text"])
    assert BEN not in texts                      # decontaminated
    assert not any("a@b.co" in t for t in texts)  # scrubbed...
    assert any("<EMAIL>" in t for t in texts)     # ...to the placeholder

    # the cap kept exactly the 2 big.com urls with the LOWEST doc_id
    # (order_col) — deterministic, not batch-dependent
    big_urls = [f"http://big.com/{i}" for i in range(4)]
    big_ids = dict(zip(_url_ids(big_urls).tolist(), big_urls))
    kept = sorted(big_ids)[:2]
    assert set(cur["doc_id"]) & set(big_ids) == set(kept)

    # same params resume: curate checkpoint reused (outputs untouched)
    before = {p.name: p.stat().st_mtime_ns
              for p in (out / "curated").glob("*.parquet")}
    web_pipeline([str(src)], out, domain_cap=2, scrub=True,
                 benchmark_paths=[bench])
    after = {p.name: p.stat().st_mtime_ns
             for p in (out / "curated").glob("*.parquet")}
    assert before == after

    # hygiene params are plan-pinned: dropping them re-runs the stage
    s3 = web_pipeline([str(src)], out)
    assert s3["stages"]["curate"]["rows"] == 6
    cur3 = pq.read_table(sorted((out / "curated").glob("*.parquet"))
                         ).to_pandas()
    assert any("a@b.co" in t for t in cur3["text"])  # unscrubbed re-run


def test_keep_ids_both_regimes(ray_session):
    """keep_ids (the generic semi-join twin of drop_ids): broadcast and
    native-join regimes agree, empty keep set yields empty output."""
    import ray.data as rd

    from nem_mms_ray.ops.curate import keep_ids

    ids = np.arange(1000, dtype=np.int64)
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids),
                                 "v": pa.array(ids * 2)}))
    keep = rd.from_arrow(pa.table({"id": pa.array(ids[::3])}))
    a = keep_ids(ds, keep).to_pandas().sort_values("doc_id")
    b = keep_ids(ds, keep, max_broadcast_ids=0).to_pandas() \
        .sort_values("doc_id")
    assert a["doc_id"].tolist() == b["doc_id"].tolist() == ids[::3].tolist()
    assert a["v"].tolist() == (ids[::3] * 2).tolist()
    empty = rd.from_arrow(pa.table({"id": pa.array([], pa.int64())}))
    assert keep_ids(ds, empty).count() == 0


def test_web_pipeline_scrub_benchmark_interaction(ray_session, tmp_path):
    """With scrub=True the benchmark must see the SAME redaction as the
    corpus: a benchmark doc whose n-gram windows span a PII token would
    otherwise never match its scrubbed corpus copy and the contaminated
    doc would be kept (review r5 finding)."""
    from nem_mms_ray.pipelines.web import web_pipeline

    # short doc (< ngram words after the email) -> every window spans the
    # PII token, the adversarial case
    BEN = "please mail bob@leak.io with answer forty two exactly"
    rows = [
        {"url": "http://s/copy", "html": f"<p>{BEN}</p>".encode()},
        {"url": "http://s/other",
         "html": f"<p>{' '.join(f'k{i:03d}' for i in range(40))}</p>"
                 .encode()},
    ]
    src = tmp_path / "web.parquet"
    _write_webtable(str(src), rows)
    bench = tmp_path / "bench.parquet"
    pq.write_table(pa.table({"text": pa.array([BEN])}), bench)

    s = web_pipeline([str(src)], tmp_path / "out", scrub=True,
                     benchmark_paths=[bench])
    assert s["stages"]["curate"]["rows"] == 1  # the copy was dropped
    cur = pq.read_table(sorted((tmp_path / "out" / "curated")
                               .glob("*.parquet"))).to_pandas()
    assert all("bob@leak.io" not in t for t in cur["text"])


def test_web_pipeline_lm_filter(ray_session, tmp_path):
    """The CCNet stage: a self-trained char-LM perplexity filter drops the
    planted gibberish doc; the threshold is plan-pinned (changing it
    re-runs curate); lm_ref trains on trusted text only."""
    import ray.data as rd

    from nem_mms_ray.ops.charlm import lm_bits_scalar, train_char_lm
    from nem_mms_ray.pipelines.web import web_pipeline

    rng = np.random.default_rng(11)
    vocab = EN.split()
    goods = [" ".join(rng.choice(vocab, 80)) for _ in range(4)]
    gib = "".join(rng.choice(list("qxzjvkw@#%&^")) for _ in range(300))
    texts = goods + [gib]
    rows = [{"url": f"http://a/{i}", "html": f"<p>{t}</p>".encode()}
            for i, t in enumerate(texts)]
    src = tmp_path / "web.parquet"
    _write_webtable(str(src), rows)

    # the pipeline self-trains on the curated corpus (= all 5 docs here);
    # mirror that to place the threshold in the good/gibberish gap
    model = train_char_lm(rd.from_arrow(pa.table({"text": texts})), n=3)
    bits = [lm_bits_scalar(model, t) for t in texts]
    assert max(bits[:4]) < bits[4]
    thr = (max(bits[:4]) + bits[4]) / 2

    out = tmp_path / "out"
    s = web_pipeline([str(src)], out, lm_max_bits=thr)
    assert s["stages"]["extract"]["rows"] == 5
    assert s["stages"]["curate"]["rows"] == 4
    cur = pq.read_table(sorted((out / "curated").glob("*.parquet"))
                        ).to_pandas()
    assert gib not in set(cur["text"])

    # threshold is plan-pinned: a lax one re-runs and keeps all 5
    s2 = web_pipeline([str(src)], out, lm_max_bits=thr + 50.0)
    assert s2["stages"]["curate"]["rows"] == 5

    # lm_ref configuration: train on trusted text only (the goods); the
    # gibberish doc scores even worse under it and still drops
    ref = tmp_path / "ref.parquet"
    pq.write_table(pa.table({"text": pa.array(goods)}), ref)
    s3 = web_pipeline([str(src)], tmp_path / "out3", lm_max_bits=thr,
                      lm_ref_paths=[ref])
    assert s3["stages"]["curate"]["rows"] == 4


def test_sized_num_blocks():
    """Block count follows input bytes with a 2x-CPU floor."""
    from nem_mms_ray.ops.readutil import sized_num_blocks

    import pyarrow.parquet as pq
    import pyarrow as pa
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as d:
        p = pathlib.Path(d) / "t.parquet"
        pq.write_table(pa.table({"x": list(range(1000))}), str(p))
        sz = p.stat().st_size
        # tiny file -> the floor wins
        assert sized_num_blocks([str(p)], min_blocks=16) == 16
        # force byte-targeting: target = one file's bytes -> n files blocks
        assert sized_num_blocks([str(p)] * 64, target_block_bytes=sz,
                                min_blocks=4) == 64


def test_read_parquet_sized_file_uris(ray_session, tmp_path):
    """`file://` URIs of a directory and of a single file expand and size
    through pyarrow.fs the way the local paths they name do."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from nem_mms_ray.ops.readutil import _expand, read_parquet_sized, sized_num_blocks

    for name in ("b", "a"):
        pq.write_table(pa.table({"x": list(range(1000))}), tmp_path / f"{name}.parquet")
    (tmp_path / "notes.txt").write_text("not parquet")
    uri = f"file://{tmp_path}"
    files = _expand(uri)
    assert files == [f"{uri}/a.parquet", f"{uri}/b.parquet"] == _expand(uri + "/")
    assert _expand(files[1]) == [files[1]]
    sz = (tmp_path / "a.parquet").stat().st_size
    local = _expand(str(tmp_path))
    assert (sized_num_blocks(files, target_block_bytes=sz, min_blocks=1)
            == sized_num_blocks(local, target_block_bytes=sz, min_blocks=1) == 2)
    with pytest.raises(FileNotFoundError):
        sized_num_blocks([f"{uri}/missing.parquet"], min_blocks=1)
    assert read_parquet_sized(uri, min_blocks=1).count() == 2000
    assert read_parquet_sized(files[0], min_blocks=1).count() == 1000


def test_web_pipeline_shards_stage(ray_session, tmp_path):
    """--shards: the curated corpus lands as hive training shards, fully
    covering the curated rows; resume skips on same (n, seed) and re-runs
    on a changed seed (plan pinning)."""
    from nem_mms_ray.pipelines.web import web_pipeline

    src = tmp_path / "web.parquet"
    _write_webtable(str(src), [
        {"url": f"http://s/{i}",
         "html": f"<p>{EN} doc {i}</p>".encode()}
        for i in range(40)
    ])
    out = tmp_path / "out"
    s1 = web_pipeline([str(src)], out, shards=4, shard_seed=1, resume=False)
    assert s1["stages"]["shards"]["rows"] == s1["stages"]["curate"]["rows"]
    assert s1["stages"]["shards"]["n_shards"] == 4
    dirs = sorted(p.name for p in (out / "shards").iterdir() if p.is_dir())
    assert all(d.startswith("shard_id=") for d in dirs)
    covered = pq.read_table(str(out / "shards")).to_pandas()
    assert len(covered) == s1["stages"]["curate"]["rows"]
    assert covered["doc_id"].is_unique

    # resume on same plan: skip (marker honored)
    s2 = web_pipeline([str(src)], out, shards=4, shard_seed=1, resume=True)
    assert s2["stages"]["shards"]["rows"] == s1["stages"]["shards"]["rows"]
    before = {p.name for p in (out / "shards").rglob("*.parquet")}

    # changed seed: plan mismatch -> stage re-runs (files replaced)
    s3 = web_pipeline([str(src)], out, shards=4, shard_seed=2, resume=True)
    after = {p.name for p in (out / "shards").rglob("*.parquet")}
    assert s3["stages"]["shards"]["rows"] == s1["stages"]["shards"]["rows"]
    assert before != after or (
        pq.read_table(str(out / "shards")).to_pandas()["skey"].tolist()
        != covered["skey"].tolist())
