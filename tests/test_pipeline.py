"""End-to-end Ray pipeline tests: encode -> manifest -> decode round-trip ->
resume (SURVEY.md §5 plan items 3-4)."""

import glob
import json

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nem_mms_ray.pipelines.decode import decode_partition_file, verify_files
from nem_mms_ray.pipelines.encode import encode_files, plan_partitions
from nem_mms_ray.state.manifest import Manifest, PartitionRecord
from nem_mms_ray.webtable import SMALL, write_webtable

TARGET = 1 << 20


@pytest.fixture(scope="module")
def web_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("web")
    write_webtable(d, 3000, shard_rows=1500, cfg=SMALL, row_group_rows=512)
    return d


def _paths(web_dir):
    return sorted(glob.glob(str(web_dir / "*.parquet")))


def test_plan_partitions_stable_and_sized(web_dir):
    specs = plan_partitions(_paths(web_dir), target_bytes=TARGET)
    assert specs == plan_partitions(_paths(web_dir), target_bytes=TARGET)
    assert [s.pid for s in specs] == list(range(len(specs)))
    assert sum(s.rows for s in specs) == 3000
    # oversized row groups isolated
    for s in specs:
        if len(s.row_groups) > 1:
            assert s.approx_bytes <= TARGET * 2


def test_encode_verify_roundtrip(ray_session, web_dir, tmp_path):
    out = tmp_path / "enc"
    metrics = encode_files(_paths(web_dir), out, target_bytes=TARGET).to_pandas()
    assert (metrics["rows"] > 0).all()
    summ = Manifest(out).summary()
    assert summ["done"] == summ["partitions"] == len(metrics)
    assert summ["rows"] == 3000
    assert 0 < summ["ratio"] < 1.0

    v = verify_files(_paths(web_dir), out, target_bytes=TARGET).to_pandas()
    assert v["ok"].all(), v[~v["ok"]].to_string()
    assert v["rows"].sum() == 3000


def test_verify_reads_target_from_run_header(ray_session, web_dir, tmp_path):
    """Encode at a non-default target, verify without one: verify plans with
    the target the run header recorded.  Without a header it falls back to
    the default target, whose partitions misalign and verify as not ok."""
    target = 1 << 16
    out = tmp_path / "enc"
    encode_files(_paths(web_dir), out, target_bytes=target).to_pandas()
    n = len(plan_partitions(_paths(web_dir), target))
    assert n > len(plan_partitions(_paths(web_dir)))
    v = verify_files(_paths(web_dir), out).to_pandas()
    assert len(v) == n and v["ok"].all(), v.to_string()
    Manifest(out).run_header_path().unlink()
    assert not verify_files(_paths(web_dir), out).to_pandas()["ok"].all()


def test_compressed_size_beats_reference(ray_session, web_dir, tmp_path):
    """north_rule: total compressed size <= the reference's (plain parquet)."""
    out = tmp_path / "enc"
    encode_files(_paths(web_dir), out, target_bytes=TARGET).to_pandas()
    import os

    ref_bytes = sum(os.path.getsize(p) for p in _paths(web_dir))
    enc_files = sum(f.stat().st_size for f in out.glob("part-*.parquet"))
    assert enc_files <= ref_bytes


def test_resume_skips_done_partitions(ray_session, web_dir, tmp_path):
    out = tmp_path / "enc"
    m1 = encode_files(_paths(web_dir), out, target_bytes=TARGET).to_pandas()
    assert not m1["skipped"].any()
    import os

    mtimes = {f.name: os.path.getmtime(f) for f in out.glob("part-*.parquet")}
    m2 = encode_files(_paths(web_dir), out, target_bytes=TARGET).to_pandas()
    assert m2["skipped"].all()
    assert mtimes == {f.name: os.path.getmtime(f) for f in out.glob("part-*.parquet")}


def test_resume_refuses_different_plan(ray_session, web_dir, tmp_path):
    """Run-level lineage: same out_dir + changed target_bytes (or inputs)
    must error rather than silently mix two plans' partitions."""
    out = tmp_path / "enc"
    encode_files(_paths(web_dir), out, target_bytes=TARGET).to_pandas()
    with pytest.raises(ValueError, match="different run"):
        encode_files(_paths(web_dir), out, target_bytes=TARGET * 2)
    with pytest.raises(ValueError, match="different run"):
        encode_files(_paths(web_dir)[:1], out, target_bytes=TARGET)


def test_resume_redoes_missing_partition(ray_session, web_dir, tmp_path):
    out = tmp_path / "enc"
    encode_files(_paths(web_dir), out, target_bytes=TARGET).to_pandas()
    victim = sorted(out.glob("part-*.parquet"))[0]
    victim.unlink()  # simulate a killed run losing one output
    m2 = encode_files(_paths(web_dir), out, target_bytes=TARGET).to_pandas()
    assert (~m2["skipped"]).sum() == 1
    v = verify_files(_paths(web_dir), out, target_bytes=TARGET).to_pandas()
    assert v["ok"].all()


def test_decode_partition_file_order_preserved(ray_session, web_dir, tmp_path):
    out = tmp_path / "enc"
    encode_files(_paths(web_dir), out, target_bytes=TARGET).to_pandas()
    specs = plan_partitions(_paths(web_dir), target_bytes=TARGET)
    s = specs[0]
    orig = pa.Table.from_batches(
        pq.ParquetFile(s.path).iter_batches(row_groups=s.row_groups)
    )
    dec = decode_partition_file(out / f"part-{s.pid:06d}.parquet")
    assert dec.select(orig.column_names).equals(orig)
    # projected decode: only the requested columns decompress, same bytes
    proj = decode_partition_file(out / f"part-{s.pid:06d}.parquet",
                                 columns=["url", "lang"])
    assert sorted(proj.column_names) == ["lang", "url"]
    assert proj.column("url").combine_chunks().equals(
        orig.column("url").combine_chunks())


def test_manifest_record_roundtrip(tmp_path):
    m = Manifest(tmp_path)
    rec = PartitionRecord(
        pid=3, input_file="/x.parquet", row_groups=[0, 1], rows=10,
        orig_bytes=100, encoded_bytes=40, file_bytes=50,
        codecs={"a": "fsst"}, column_bytes={"a": [100, 40]},
        wall_sec=0.5, done=True, output_file="",
    )
    m.write(rec)
    back = m.load(3)
    assert back == rec
    assert m.is_done(3)
    assert not m.is_done(4)


def test_manifest_loads_records_without_kernel_path(tmp_path):
    """Records written before the kernel path was recorded still load and
    still count as done."""
    m = Manifest(tmp_path)
    m.init()
    old = {"pid": 0, "input_file": "/x.parquet", "row_groups": [0], "rows": 1,
           "orig_bytes": 8, "encoded_bytes": 4, "file_bytes": 9, "codecs": {},
           "column_bytes": {}, "wall_sec": 0.1, "done": True, "output_file": ""}
    m.record_path(0).write_text(json.dumps(old))
    assert m.load(0).native == {}
    assert m.is_done(0, "/x.parquet", [0])
    assert [r.pid for r in m.load_all()] == [0]


def test_encode_deterministic_across_runs(ray_session, web_dir, tmp_path):
    """Two independent runs over the same input produce byte-identical
    encoded partition files — the property that makes plans (and therefore
    compressed size + bit-identity checks) agree between the N-CPU and
    4N-CPU scaling runs (SURVEY.md §7.4): partition ids derive from sorted
    paths + row groups, and all per-partition state (sketches, FSST tables)
    derives deterministically from the partition's own first rows."""
    from pathlib import Path

    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"det_{run}"
        encode_files(_paths(web_dir), out, target_bytes=TARGET).to_pandas()
        outs.append(out)
    parts_a = sorted(Path(outs[0]).glob("part-*.parquet"))
    parts_b = sorted(Path(outs[1]).glob("part-*.parquet"))
    assert len(parts_a) == len(parts_b) > 1
    for pa_, pb_ in zip(parts_a, parts_b):
        assert pa_.name == pb_.name
        assert pa_.read_bytes() == pb_.read_bytes(), pa_.name


def test_scan_encoded_zone_pruning(ray_session, tmp_path, monkeypatch):
    """Zone maps: a range scan decodes only overlapping chunks and returns
    exactly the predicate's rows."""
    import dataclasses

    import numpy as np

    from nem_mms_ray.pipelines import decode
    from nem_mms_ray.pipelines.decode import scan_encoded
    from nem_mms_ray.pipelines.encode import EncodePartitions

    n = 20_000
    t = pa.table({
        "k": pa.array(np.arange(n, dtype=np.int64)),
        "v": pa.array(np.arange(n, dtype=np.float64) * 0.5),
        "s": pa.array([f"row-{i}" for i in range(n)]),
    })
    src = tmp_path / "src.parquet"
    pq.write_table(t, src, row_group_size=5000)
    enc = tmp_path / "enc"
    encode_files([str(src)], enc, target_bytes=1 << 18).to_pandas()

    got = scan_encoded(enc, columns=["k", "v"],
                       range_filters={"k": (1000, 1500)}).to_pandas()
    got = got.sort_values("k", ignore_index=True)
    assert list(got["k"]) == list(range(1000, 1501))
    assert np.allclose(got["v"], np.arange(1000, 1501) * 0.5)
    assert list(got.columns) == ["k", "v"]

    # open-ended + empty-result predicates behave
    hi = scan_encoded(enc, columns=["k"], range_filters={"k": (19990, None)}).to_pandas()
    assert sorted(hi["k"]) == list(range(19990, n))
    none = scan_encoded(enc, columns=["k"], range_filters={"k": (n + 1, None)}).to_pandas()
    assert len(none) == 0

    # a pruned row group's payloads are never decoded: scan one file of
    # five 1000-row chunks in process and count the column decodes
    first = plan_partitions([str(src)], target_bytes=1 << 18)[0]
    first = dataclasses.replace(first, approx_bytes=first.rows * ((32 << 20) // 1000))
    one = tmp_path / "one"
    EncodePartitions(str(one))(pa.Table.from_pylist([first.to_row()]))
    f = one / "part-000000.parquet"
    assert pq.ParquetFile(f).metadata.num_row_groups == 5
    decoded = []
    real = decode.decode_column
    monkeypatch.setattr(decode, "decode_column",
                        lambda ec: decoded.append(ec) or real(ec))
    got = decode._scan_task(pa.table({"path": [str(f)]}), columns=["k", "v"],
                            filters={"k": (1000, 1500)})
    assert got.column("k").to_pylist() == list(range(1000, 1501))
    assert len(decoded) == 2  # k and v of the one chunk that overlaps


def test_scan_encoded_nulls_in_filter_column(ray_session, tmp_path):
    import numpy as np

    from nem_mms_ray.pipelines.decode import scan_encoded

    n = 4000
    v = np.arange(n, dtype=np.float64)
    vals = [None if i % 7 == 0 else float(v[i]) for i in range(n)]
    t = pa.table({"k": pa.array(np.arange(n, dtype=np.int64)),
                  "v": pa.array(vals, pa.float64())})
    src = tmp_path / "src.parquet"
    pq.write_table(t, src, row_group_size=1000)
    enc = tmp_path / "enc"
    encode_files([str(src)], enc, target_bytes=1 << 17).to_pandas()
    got = scan_encoded(enc, columns=["k"],
                       range_filters={"v": (100.0, 200.0)}).to_pandas()
    expect = [i for i in range(100, 201) if i % 7 != 0]  # nulls never match
    assert sorted(got["k"]) == expect


def test_scan_encoded_timestamp_bounds(ray_session, tmp_path):
    """Temporal range filters: zone compare must use the column's storage
    unit (a pd.Timestamp bound is nanoseconds; the column is microseconds)."""
    import numpy as np
    import pandas as pd

    from nem_mms_ray.pipelines.decode import scan_encoded

    n = 5000
    ts = pd.date_range("2024-01-01", periods=n, freq="1min").astype("datetime64[us]")
    t = pa.table({"event_id": pa.array(np.arange(n, dtype=np.int64)),
                  "ts": pa.Array.from_pandas(pd.Series(ts))})
    src = tmp_path / "ev.parquet"
    pq.write_table(t, src, row_group_size=1000)
    enc = tmp_path / "enc"
    encode_files([str(src)], enc, target_bytes=1 << 17).to_pandas()
    lo, hi = pd.Timestamp("2024-01-01 10:00"), pd.Timestamp("2024-01-01 11:00")
    got = scan_encoded(enc, columns=["event_id"],
                       range_filters={"ts": (lo, hi)}).to_pandas()
    expect = [i for i in range(n) if lo <= ts[i] <= hi]
    assert sorted(got["event_id"]) == expect and len(expect) == 61


def test_scan_block_of_a_pruned_file_keeps_file_schema(ray_session, tmp_path):
    """A file whose every chunk is pruned gives a zero-row block with the
    schema of the other files' blocks: their column order (not sorted),
    and the real type of a list column stored plain."""
    import numpy as np

    from nem_mms_ray.pipelines import decode
    from nem_mms_ray.pipelines.encode import EncodePartitions

    paths = []
    for i, lo in enumerate((0, 10_000)):
        k = np.arange(lo, lo + 2000)
        src = tmp_path / f"in{i}.parquet"
        pq.write_table(pa.table({
            "z": pa.array([f"s{j % 7}" for j in k]),
            "k": pa.array(k),
            "emb": pa.array([[float(j), j + 0.5] for j in k], pa.list_(pa.float32())),
        }), src, row_group_size=1000)
        paths.append(str(src))
    enc = tmp_path / "enc"
    specs = plan_partitions(paths, target_bytes=1 << 30)
    EncodePartitions(str(enc))(pa.Table.from_pylist([s.to_row() for s in specs]))
    files = sorted(str(p) for p in enc.glob("part-*.parquet"))
    assert len(files) == 2

    flt = {"k": (0, 100)}
    for columns in (None, ["emb", "k"]):
        kept, pruned = (decode._scan_task(pa.table({"path": [f]}), columns=columns,
                                          filters=flt) for f in files)
        assert kept.num_rows == 101 and pruned.num_rows == 0
        assert pruned.schema.equals(kept.schema), columns
        assert pruned.column_names == (columns or ["z", "k", "emb"])

    got = decode.scan_encoded(enc, range_filters=flt).to_pandas()
    assert list(got.columns) == ["z", "k", "emb"]
    assert sorted(got["k"]) == list(range(101))


def test_encode_zero_row_input(ray_session, tmp_path):
    """Zero-row parquet: plan, encode, verify and decode all succeed."""
    src = tmp_path / "empty.parquet"
    pq.write_table(pa.table({"a": pa.array([], pa.int64()),
                             "s": pa.array([], pa.string())}), src)
    enc = tmp_path / "enc"
    m = encode_files([str(src)], enc, target_bytes=1 << 20).to_pandas()
    assert len(m) == 1 and int(m["rows"].sum()) == 0
    v = verify_files([str(src)], enc, target_bytes=1 << 20).to_pandas()
    assert v["ok"].all()


def test_one_chunk_per_encoded_row_group(ray_session, web_dir, tmp_path):
    """Zone-map pruning is a parquet-level skip only because each encoded
    row group holds exactly one chunk — pin that layout invariant."""
    out = tmp_path / "enc"
    encode_files(_paths(web_dir), out, target_bytes=TARGET).to_pandas()
    f = sorted(out.glob("part-*.parquet"))[0]
    pf = pq.ParquetFile(f)
    assert pf.metadata.num_row_groups >= 1
    for rg in range(pf.metadata.num_row_groups):
        cis = set(pf.read_row_group(rg, columns=["chunk_idx"])
                  .column("chunk_idx").to_pylist())
        assert len(cis) == 1


def test_string_zone_map_scan(ray_session, tmp_path):
    """url-range scan over a url-sorted encode: exact rows back, and the
    string zones really prune (chunks fully outside the range skip)."""
    import json

    import numpy as np
    import pyarrow.parquet as pq

    from nem_mms_ray.pipelines.decode import scan_encoded
    from nem_mms_ray.pipelines.encode import encode_files, _string_successor

    assert _string_successor("ab") == "ac"
    assert _string_successor("a" + chr(0x10FFFF)) == "b"
    assert _string_successor(chr(0x10FFFF)) == ""

    n = 4000
    urls = [f"https://site-{i:06d}.example/page" for i in range(n)]
    long_text = ["x" * 200 for _ in range(n)]
    src = tmp_path / "src.parquet"
    pq.write_table(pa.table({"url": pa.array(urls, pa.large_string()),
                             "text": pa.array(long_text, pa.large_string()),
                             "rid": pa.array(np.arange(n, dtype=np.int64))}),
                   str(src))
    out = tmp_path / "enc"
    encode_files([str(src)], str(out), target_bytes=64 << 10).to_pandas()

    lo, hi = "https://site-000100", "https://site-000199~"
    got = scan_encoded(str(out), columns=["url", "rid"],
                       range_filters={"url": (lo, hi)}).to_pandas()
    exp = [u for u in urls if lo <= u <= hi]
    assert sorted(got["url"]) == exp
    assert len(got) == 100

    # zones exist on the url column of every encoded chunk
    f = sorted(out.glob("part-*.parquet"))[0]
    t = pq.read_table(f, columns=["column", "params"])
    zs = [json.loads(p) for c, p in zip(t.column("column").to_pylist(),
                                        t.column("params").to_pylist())
          if c == "url"]
    assert zs and all("zmin" in z and "zmax" in z for z in zs)


def test_verify_wide_fsst_table(ray_session, tmp_path):
    """Verify a table whose chunks each hold more than 16 FSST string
    columns: a chunk's columns are all decoded and held while the chunk is
    compared, so no column's decode output may share memory with another's
    (a 16-slot reused decode buffer once corrupted this comparison)."""
    src = tmp_path / "wide.parquet"
    n = 512
    cols = {
        f"s{i:02d}": pa.array(
            [f"col{i:02d} the quick brown fox row {j} jumps over dog {j % 7}"
             for j in range(n)])
        for i in range(24)
    }
    pq.write_table(pa.table(cols), src, row_group_size=256)
    enc = tmp_path / "enc"
    encode_files([str(src)], enc, target_bytes=1 << 20).to_pandas()
    encp = sorted(glob.glob(str(enc / "part-*.parquet")))[0]
    meta = pq.read_table(encp, columns=["column", "codec", "chunk_idx"])
    fsst_cols = {c for c, k in zip(meta.column("column").to_pylist(),
                                   meta.column("codec").to_pylist())
                 if k == "fsst"}
    assert len(fsst_cols) > 16, f"fixture needs > 16 FSST columns: {fsst_cols}"
    v = verify_files([str(src)], enc, target_bytes=1 << 20).to_pandas()
    assert v["ok"].all(), v.to_string()
