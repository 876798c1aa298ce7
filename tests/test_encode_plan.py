"""Per-partition planning: the encoded bytes it must reproduce, and the
FSST training it may skip.

`EncodePartitions` plans each partition from the first rows of its first
row group, taken from the batches its encode loop reads.  The digests
below were recorded on the encoder that planned from a separate read of
those rows (the `tabular_*` ones on the encoder whose zone maps scanned
every chunk and whose ALP tried every scale on the full chunk, the
`dict_*` ones on the encoder that read every input column as plain
strings); a change must reproduce them exactly, so never regenerate them
to make a change pass.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nem_mms_ray.pipelines.encode import EncodePartitions, plan_partitions
from nem_mms_ray.webtable import SMALL, generate_shard


def _partition_digest(path) -> str:
    """sha256 over every field of every encoded-partition row."""
    t = pq.read_table(path)
    h = hashlib.sha256()
    for name in t.column_names:
        h.update(name.encode())
        for v in t.column(name).to_pylist():
            h.update(v if isinstance(v, bytes) else repr(v).encode())
            h.update(b"\x1f")
    return h.hexdigest()


def _encode_digests(tmp_path, table: pa.Table, row_group_size: int,
                    target_bytes: int = 1 << 30, columns=None,
                    rows_per_batch: int | None = None, **write_kw) -> list[str]:
    src = tmp_path / "in.parquet"
    pq.write_table(table, src, row_group_size=row_group_size, **write_kw)
    specs = plan_partitions([str(src)], target_bytes)
    if rows_per_batch is not None:
        # inflate the byte estimate so `_rows_per_batch` lands on the
        # requested batch size (with ~1 KiB rows this takes ~32k rows)
        specs = [dataclasses.replace(s, approx_bytes=s.rows * ((32 << 20) // rows_per_batch))
                 for s in specs]
    out = tmp_path / "enc"
    stage = EncodePartitions(str(out), columns)
    stage(pa.Table.from_pylist([s.to_row() for s in specs]))
    return [_partition_digest(out / f"part-{s.pid:06d}.parquet") for s in specs]


def _web(rows: int, shard: int = 0) -> pa.Table:
    return generate_shard(shard, rows, 0, SMALL)


def _tabular(rows: int, seed: int) -> pa.Table:
    """sf-shaped columns for the dict and ALP paths and their zone maps."""
    rng = np.random.default_rng(seed)
    i = np.arange(rows)
    nulls = rng.random(rows) < 0.1
    money = np.round(rng.uniform(900.0, 105_000.0, rows), 2)
    prio = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"])
    long_vals = np.array(["x" * 70 + "a", "x" * 70 + "b", "y" * 65])
    return pa.table({
        "l_returnflag": np.array(["A", "N", "R"])[rng.integers(0, 3, rows)],
        "o_orderpriority": pa.array(prio[rng.integers(0, 5, rows)], mask=nulls),
        "l_comment": long_vals[rng.integers(0, 3, rows)],
        "l_extendedprice": money,
        "balance": pa.array(np.round(rng.uniform(-500.0, 500.0, rows), 2),
                            mask=rng.random(rows) < 0.2),
        "score32": pa.array((rng.integers(-9999, 9999, rows) / 100).astype(np.float32),
                            mask=nulls),
        # integral on each 1000-row chunk's first 64 values: the head
        # passes e=0 and e=1, the whole chunk needs e=2
        "head_int": np.where(i % 1000 < 64, np.floor(money), money),
        # decimal in the plan's sample, not after it: ALP falls back
        "late_real": np.where(i < 4096, money, rng.normal(0.0, 1.0, rows)),
    })


def _low_card(rows: int, seed: int, layout: str) -> pa.Table:
    """Low-cardinality string columns next to numeric ones, laid out so a
    dictionary read of the input sees each hard case:

    - "two_dicts": the halves draw from different value sets (each row
      group has its own dictionary), 10% nulls;
    - "clustered": each 1000 rows draw from their own few values, so later
      chunks use codes the first never saw; real "" values next to nulls;
    - "overflow": a column whose dictionary page overflows into PLAIN
      pages after 90% of its rows, and one that overflows at once;
    - "sorted": sorted values, which rle wins.
    """
    rng = np.random.default_rng(seed)
    i = np.arange(rows)
    cols = {"qty": rng.integers(1, 50, rows),
            "price": np.round(rng.uniform(1.0, 999.0, rows), 2)}
    if layout == "two_dicts":
        first = np.array(["A", "N", "R"])[rng.integers(0, 3, rows)]
        second = np.array(["F", "O", "R", "X"])[rng.integers(0, 4, rows)]
        cols["flag"] = pa.array(np.where(i < rows // 2, first, second),
                                mask=rng.random(rows) < 0.1)
        cols["status"] = np.array(["open", "done"])[rng.integers(0, 2, rows)]
    elif layout == "clustered":
        block = i // 1000
        cols["region"] = np.char.add("region-", (block * 2 + rng.integers(0, 4, rows)).astype(str))
        code = np.where(rng.random(rows) < 0.2, "", np.char.add("c", (block + rng.integers(0, 3, rows)).astype(str)))
        cols["code"] = pa.array(code, mask=(rng.random(rows) < 0.15) | (block == 3))
    elif layout == "overflow":
        late = np.char.add("late-", i.astype(str))
        cols["tail"] = np.where(i < rows * 9 // 10,
                                np.array(["aa", "bb", "cc", "dd", "ee"])[rng.integers(0, 5, rows)],
                                late)
        cols["ids"] = np.char.add("id-", rng.permutation(rows).astype(str))
    else:
        cols["flag"] = np.sort(np.char.add("v", rng.integers(100, 300, rows).astype(str)))
        cols["kind"] = np.array(["x", "y", "z", "w"])[rng.integers(0, 4, rows)]
    return pa.table(cols)


PARTITION_CASES = {
    # two row groups; the first encode batch spans both
    "two_row_groups": lambda p: _encode_digests(p, _web(3000), 1800),
    # the 4096-row sample spans five 1000-row encode batches
    "sample_spans_batches": lambda p: _encode_digests(
        p, _web(6000, 1), 6000, rows_per_batch=1000),
    # first row group shorter than the sample
    "short_first_group": lambda p: _encode_digests(p, _web(5000, 2), 1000),
    # several partitions per file: later ones plan from their own first group
    "partitions_per_file": lambda p: _encode_digests(
        p, _web(5000, 3), 1250, target_bytes=2 << 20),
    "zero_rows": lambda p: _encode_digests(p, _web(10).slice(0, 0), 1000),
    "projection": lambda p: _encode_digests(
        p, _web(5000, 4), 4500, columns=["lang", "url", "warc_ts"]),
    # dict and ALP chunks of 1000 rows, the last one shorter than 64
    "tabular_chunks": lambda p: _encode_digests(
        p, _tabular(6030, 5), 6030, rows_per_batch=1000),
    # one row group, encoded as one chunk
    "tabular_one_chunk": lambda p: _encode_digests(p, _tabular(20_000, 6), 20_000),
    # two row groups with their own dictionaries; the first batch spans both
    "dict_two_row_groups": lambda p: _encode_digests(
        p, _low_card(6000, 8, "two_dicts"), 3000, rows_per_batch=4000),
    # later chunks see values the first chunk never saw
    "dict_clustered": lambda p: _encode_digests(
        p, _low_card(6000, 9, "clustered"), 6000, rows_per_batch=1000),
    # dictionary pages that overflow into PLAIN pages
    "dict_overflow": lambda p: _encode_digests(
        p, _low_card(20_000, 10, "overflow"), 20_000, rows_per_batch=4000,
        dictionary_pagesize_limit=256),
    # a low-cardinality column that rle wins
    "dict_sorted_rle": lambda p: _encode_digests(p, _low_card(20_000, 11, "sorted"), 8000),
    # projections with a dictionary column, out of file order, and of
    # dictionary columns only
    "dict_projection": lambda p: _encode_digests(
        p, _tabular(5000, 7), 2500, columns=["o_orderpriority", "l_extendedprice", "l_returnflag"],
        rows_per_batch=2000),
    "dict_projection_only": lambda p: _encode_digests(
        p, _tabular(5000, 7), 2500, columns=["l_returnflag", "o_orderpriority"],
        rows_per_batch=2000),
}

PARTITION_DIGESTS = {
    "partitions_per_file": [
        "a36279b58a81932bba80fb8acf0f1aac94d76f0a31c9df6acb4759bfdcb2b6f1",
        "4a28993a727866702477fce1394be56fa20eebf82199e095343f510cbe8fd40c",
        "579390ad03babad480913679604b3e3b23e484cbbcde417d64aee17738eede20",
        "0925aa61873ffeae58b3e6b4d04459c2e6c4a8ca8379276d1105ced9ac273a92",
    ],
    "projection": ["42d919220cb7e28654040b698e17faef64aac499960df73de242ddafca7ef4f4"],
    "tabular_chunks": ["07a35ed4bbb228cff2ddc91a29af8fdfbfe430984550add6a63cd9713a8f2c1f"],
    "tabular_one_chunk": ["36a008e91f5d574bb81be981a9df552d7d175205f7c65a955d68c5153a534675"],
    "sample_spans_batches": ["4a0a91ba1fa413d5b64c57280dfd3dc2463e7a6391d69ebdd7185d6bf4aa6e77"],
    "short_first_group": ["2e530b03006aa1172bd7e5a0c98848ae9cff4210f93d8b3081c0d80d3658d17c"],
    "two_row_groups": ["7ca05cdaf07d1a8a9fc6f2cba1643005a2e48fd3b2a31df041adba1c3ed4bf97"],
    "zero_rows": ["ff8cc2e9aab0984577a06b8a270a33bdcff24cacaff0222dc3c7acbc4129cd9b"],
    "dict_clustered": ["82988b7d97dab1533c98f006f28a1f4d6d9d97cf968c3f7bd755614426ac5a20"],
    "dict_overflow": ["dfd25efc98d5438a5f4f6f0e61df0166d205d0476dccc9811a381224c5965ab0"],
    "dict_projection": ["7a82cdb6dc34ffd434de0cd9a76c485d787d605f332cc478a07be82801a44ee0"],
    "dict_projection_only": ["04a140532706b680b61e29c1726c372078fb108cacf828ef2cab87c6f05b94c5"],
    "dict_sorted_rle": ["d00fe2f48ee9d62c247cdc53d04137dc413eb14524b4272dd3843fdd607c4163"],
    "dict_two_row_groups": ["d4e473c28ccfe87da9d98213e434f2b5360f5f31b043c19fa7c6d50cdb1fce5a"],
}


@pytest.mark.parametrize("case", sorted(PARTITION_CASES))
def test_encoded_partitions_identical(case, tmp_path):
    assert PARTITION_CASES[case](tmp_path) == PARTITION_DIGESTS[case]


@pytest.mark.parametrize("layout,row_group_size,batch_rows,columns", [
    ("two_dicts", 3000, 4000, None),
    ("clustered", 1700, 1000, ["code", "qty", "region"]),
    ("overflow", 20_000, 4000, None),
    ("sorted", 8000, 20_000, ["kind", "flag"]),
])
def test_dictionary_read_matches_dense_read(layout, row_group_size, batch_rows, columns, tmp_path):
    """The dictionary-read batches hold the dense read's rows, cut the same
    way, and count the dense batches' `nbytes` exactly."""
    from nem_mms_ray.codecs import get_codec
    from nem_mms_ray.pipelines.encode import _dense, _dict_read_columns, _read_batches

    src = tmp_path / "in.parquet"
    pq.write_table(_low_card(20_000 if layout == "overflow" else 6000, 12, layout), src,
                   row_group_size=row_group_size, dictionary_pagesize_limit=256)
    (spec,) = plan_partitions([str(src)])
    pf = pq.ParquetFile(src)
    dict_cols = _dict_read_columns(pf, spec.row_groups, columns or pf.schema_arrow.names)
    assert dict_cols and "ids" not in dict_cols
    dense = list(pf.iter_batches(batch_size=batch_rows, row_groups=spec.row_groups,
                                 columns=columns))
    got = list(_read_batches(pf, spec, batch_rows, columns, dict_cols))
    assert [b.num_rows for b in got] == [b.num_rows for b in dense]
    for want, rb in zip(dense, got):
        assert rb.schema.names == want.schema.names
        for name, arr in zip(rb.schema.names, rb.columns):
            assert isinstance(arr, pa.DictionaryArray) == (name in dict_cols)
            assert _dense(arr).equals(want.column(name))
            assert _dense(arr).nbytes == want.column(name).nbytes
            if name in dict_cols:
                assert get_codec("dict").encode(arr).dense_nbytes == want.column(name).nbytes


def test_dict_read_column_rule(tmp_path):
    """String and binary columns are read as dictionaries only where every
    row group of the partition keeps them under 4 bytes a value: not
    large_string, not a column whose values turn distinct in one row
    group, and never html-like columns."""
    from nem_mms_ray.pipelines.encode import _dict_read_columns

    n = 4000
    flags = np.array(["A", "N", "R"])[np.arange(n) % 3]
    t = pa.table({
        "flag": flags,
        "raw": pa.array([f.encode() for f in flags], pa.binary()),
        "wide": pa.array(flags.tolist(), pa.large_string()),
        "turns": np.where(np.arange(n) < 2000, flags, np.char.add("row-", np.arange(n).astype(str))),
        "qty": np.arange(n),
    })
    src = tmp_path / "in.parquet"
    pq.write_table(t, src, row_group_size=2000)
    pf = pq.ParquetFile(src)
    assert _dict_read_columns(pf, [0, 1], t.column_names) == ["flag", "raw"]
    assert _dict_read_columns(pf, [0], t.column_names) == ["flag", "raw", "turns"]
    assert _dict_read_columns(pf, [0], ["qty", "turns", "turns"]) == []
    web = tmp_path / "web.parquet"
    pq.write_table(_web(2000), web)
    assert _dict_read_columns(pq.ParquetFile(web), [0], _web(10).column_names) == ["lang"]


def test_dict_read_recorded_and_described(tmp_path):
    """The manifest names the columns read as dictionaries; `describe`
    counts, per column, the partitions that read it so."""
    import json
    import subprocess
    import sys

    from nem_mms_ray.state.manifest import Manifest

    src = tmp_path / "in.parquet"
    pq.write_table(_low_card(6000, 13, "two_dicts"), src, row_group_size=3000)
    EncodePartitions(str(tmp_path / "enc"))(
        pa.Table.from_pylist([s.to_row() for s in plan_partitions([str(src)])]))
    (rec,) = Manifest(tmp_path / "enc").load_all()
    assert rec.dict_read == ["flag", "status"]
    out = subprocess.run([sys.executable, "-m", "nem_mms_ray", "describe", str(tmp_path / "enc")],
                         capture_output=True, text=True, check=True).stdout
    cols = json.loads(out)["columns"]
    assert {c: e["dict_read"] for c, e in cols.items()} == {
        "qty": 0, "price": 0, "flag": 1, "status": 1}


# ---------------------------------------------------------------------------
# FSST training is skipped where the selector cannot pick FSST at any ratio
# ---------------------------------------------------------------------------


def _counting_train(monkeypatch) -> list[int]:
    from nem_mms_ray.codecs import fsst

    calls: list[int] = []
    real = fsst.train_symbols

    def train(sample, *a, **k):
        calls.append(len(sample))
        return real(sample, *a, **k)

    monkeypatch.setattr(fsst, "train_symbols", train)
    return calls


def _sf_returnflag(rows: int) -> pa.Array:
    rng = np.random.default_rng(21)
    return pa.array(np.array(["A", "N", "R"])[rng.integers(0, 3, rows)])


@pytest.mark.parametrize("name", ["lang", "l_returnflag"])
def test_fsst_training_skipped_when_it_cannot_win(name, monkeypatch, tmp_path):
    from nem_mms_ray.pipelines import encode

    col = _web(4096).column("lang") if name == "lang" else _sf_returnflag(4096)
    sample = pa.table({name: col})
    stage = EncodePartitions(str(tmp_path))
    calls = _counting_train(monkeypatch)
    plans, symbols = stage._plan(sample)
    assert calls == [] and symbols == {}
    monkeypatch.setattr(encode, "_fsst_can_win", lambda sk: True)
    trained, _ = stage._plan(sample)
    assert len(calls) == 1
    assert plans[name].codec == trained[name].codec != "fsst"
    skip_est = {k: v for k, v in plans[name].estimates.items() if k != "fsst"}
    assert skip_est == {k: v for k, v in trained[name].estimates.items() if k != "fsst"}


def test_fsst_trains_the_columns_it_can_win(monkeypatch, tmp_path):
    """On the web table only `lang` skips: url, html and text still train."""
    calls = _counting_train(monkeypatch)
    plans, symbols = EncodePartitions(str(tmp_path))._plan(_web(4096))
    assert len(calls) == 3
    assert sorted(symbols) == ["html", "text", "url"]
    assert {n: p.codec for n, p in plans.items() if n in symbols} == dict.fromkeys(symbols, "fsst")


def test_fsst_trains_once_per_column_per_partition(monkeypatch, tmp_path):
    """The plan is the only FSST trainer: one table per FSST-planned column
    for a whole partition (two row groups, three or more chunks), and
    sketching a string column trains nothing."""
    from nem_mms_ray.stats import sketch_array

    src = tmp_path / "in.parquet"
    pq.write_table(_web(3000), src, row_group_size=1800)
    (spec,) = [dataclasses.replace(s, approx_bytes=s.rows * ((32 << 20) // 1000))
               for s in plan_partitions([str(src)])]
    assert spec.row_groups == [0, 1]
    calls = _counting_train(monkeypatch)
    res = EncodePartitions(str(tmp_path / "enc"))._encode_partition(spec)
    assert res.rows == 3000
    enc = pq.read_table(tmp_path / "enc" / f"part-{spec.pid:06d}.parquet",
                        columns=["column", "codec", "chunk_idx"]).to_pylist()
    fsst_cols = {r["column"] for r in enc if r["codec"] == "fsst"}
    assert fsst_cols == {"html", "text", "url"}
    assert max(r["chunk_idx"] for r in enc) >= 2
    assert len(calls) == len(fsst_cols)

    calls.clear()
    text = pa.array([f"page {i} " + "lorem ipsum dolor " * 20 for i in range(400)])
    assert pa.compute.sum(pa.compute.binary_length(text)).as_py() >= 64 << 10
    assert sketch_array("text", text).fsst_ratio is None
    assert calls == []


def test_fsst_skip_never_hides_an_fsst_plan():
    """Seeded property: whenever `_fsst_can_win` says no, the selector
    picks another codec at every ratio FSST could measure, [1/8, 1]."""
    from nem_mms_ray.pipelines.encode import _fsst_can_win
    from nem_mms_ray.selector import select_codec
    from nem_mms_ray.stats import sketch_array

    rng = np.random.default_rng(20261017)
    ratios = np.concatenate([[1 / 8, np.nextafter(1 / 8, 1), 1.0],
                             rng.uniform(1 / 8, 1.0, 40)])
    fired = 0
    for _ in range(300):
        n = int(rng.integers(1, 3000))
        ndv = int(rng.integers(1, 2 * n + 1))
        width = int(rng.integers(1, 40))
        pool = np.array([rng.integers(97, 123, int(rng.integers(1, width + 1)),
                                      dtype=np.uint8).tobytes().decode()
                         for _ in range(min(ndv, 512))])
        vals = pool[rng.integers(0, len(pool), n)]
        if rng.random() < 0.5:
            vals = np.sort(vals)  # long runs
        mask = rng.random(n) < rng.choice([0.0, 0.1, 0.9])
        sk = sketch_array("c", pa.array(vals, mask=mask))
        if _fsst_can_win(sk):
            continue
        fired += 1
        for r in ratios:
            assert select_codec(dataclasses.replace(sk, fsst_ratio=float(r))).codec != "fsst"
    assert 0 < fired < 300


# ---------------------------------------------------------------------------
# String columns are planned from length floors; hashed only where it matters
# ---------------------------------------------------------------------------


def _string_case(rng, n: int) -> list:
    """One seeded string column: equal-length distinct, sorted runs, Zipf,
    empty strings, non-ASCII or one multi-MB blob, then a null rate."""
    kind = rng.choice(["equal_len", "runs", "zipf", "empty", "non_ascii", "blob"])
    if kind == "equal_len":  # all distinct, one length: floors of 1
        w = max(len(str(n)), int(rng.integers(1, 12)))
        vals = [f"{i:0{w}d}" for i in rng.permutation(n)]
    else:
        words = [rng.integers(97, 123, int(rng.integers(0 if kind == "empty" else 1, 60)),
                              dtype=np.uint8).tobytes().decode()
                 for _ in range(int(rng.integers(1, 2 * n + 2)))]
        if kind == "non_ascii":
            words = [w + "é中🙂"[: int(rng.integers(0, 4))] for w in words]
        pick = (np.minimum(rng.zipf(1.3, n), len(words)) - 1 if kind == "zipf"
                else rng.integers(0, len(words), n))
        vals = [words[i] for i in pick]
        if kind == "runs":
            vals.sort()
        if kind == "blob":
            blob = "lorem ipsum " * int(rng.integers(90_000, 200_000))  # 1-2.4 MB
            vals[int(rng.integers(0, min(n, 2048)))] = blob
    null_rate = rng.choice([0.0, 0.1, 0.9, 1.0])
    return [None if rng.random() < null_rate else v for v in vals]


def _plan_column(tmp_path, monkeypatch, arr: pa.Array, exact: bool):
    """(codec, trained?) for a one-column sample, with the exact sketch
    forced when `exact`."""
    from nem_mms_ray.codecs import fsst
    from nem_mms_ray.pipelines import encode

    real_sketch, real_train = encode.sketch_array, fsst.train_symbols
    calls = []
    with monkeypatch.context() as m:
        if exact:
            m.setattr(encode, "sketch_array", lambda name, a, **kw: real_sketch(name, a))
        m.setattr(fsst, "train_symbols",
                  lambda s, *a, **k: calls.append(1) or real_train(s, *a, **k))
        plans, _ = EncodePartitions(str(tmp_path))._plan(pa.table({"c": arr}))
    return plans["c"].codec, bool(calls)


def test_length_floors_never_change_a_plan(tmp_path, monkeypatch):
    """Seeded property: the codec and the FSST training decision of every
    string column equal the plan made with the exact sketch forced, over
    the column shapes where the length floors are weakest."""
    from nem_mms_ray import stats

    rng = np.random.default_rng(20261019)
    real_hash = stats._hash_values
    hashed = []
    monkeypatch.setattr(stats, "_hash_values", lambda a: hashed.append(1) or real_hash(a))
    floor_only = 0
    for i in range(120):
        n = int(rng.integers(1, 3000))
        typ = [pa.string(), pa.large_string(), pa.binary()][i % 3]
        vals = _string_case(rng, n)
        arr = pa.array([v if v is None or typ != pa.binary() else v.encode() for v in vals], typ)
        hashed.clear()
        got = _plan_column(tmp_path, monkeypatch, arr, exact=False)
        floor_only += not hashed
        assert got == _plan_column(tmp_path, monkeypatch, arr, exact=True), i
    assert 0 < floor_only < 120


@pytest.mark.parametrize("name", ["html", "text", "lang", "l_returnflag"])
def test_plan_hashes_only_where_dict_can_win(name, monkeypatch, tmp_path):
    """On the web table html and text are planned from their lengths and
    never hashed; `lang` and an sf-shaped flag column, where dict wins,
    still get the exact KMV sketch."""
    from nem_mms_ray import stats

    col = _sf_returnflag(4096) if name == "l_returnflag" else _web(4096).column(name)
    real = stats._hash_values
    hashed = []
    monkeypatch.setattr(stats, "_hash_values", lambda a: hashed.append(len(a)) or real(a))
    plans, _ = EncodePartitions(str(tmp_path))._plan(pa.table({name: col}))
    if name in ("html", "text"):
        assert hashed == [] and plans[name].codec == "fsst"
    else:
        assert hashed and plans[name].codec == "dict"


# ---------------------------------------------------------------------------
# Verify compares decoded chunk i with source batch i
# ---------------------------------------------------------------------------


def _encode_batched(tmp_path, table: pa.Table, row_group_size: int, batch_rows: int):
    """Encode `table` as one partition read in `batch_rows`-row batches;
    the partition's spec rows and its encoded file."""
    src = tmp_path / "in.parquet"
    pq.write_table(table, src, row_group_size=row_group_size)
    (spec,) = [dataclasses.replace(s, approx_bytes=s.rows * ((32 << 20) // batch_rows))
               for s in plan_partitions([str(src)])]
    spec_rows = pa.Table.from_pylist([spec.to_row()])
    EncodePartitions(str(tmp_path / "enc"))(spec_rows)
    return spec_rows, tmp_path / "enc" / f"part-{spec.pid:06d}.parquet"


def _verify(tmp_path, spec_rows: pa.Table) -> list[dict]:
    from nem_mms_ray.pipelines.decode import VerifyPartitions

    return VerifyPartitions(str(tmp_path / "enc"))(spec_rows).to_pylist()


@pytest.mark.parametrize("flip_row", [None, 60_000, 66_000])
def test_verify_slice_spanning_input_batches(flip_row, tmp_path):
    """Encoded chunks are about 50000 rows of a 70000-row input: equal data
    verifies, and one flipped byte in the second chunk, on either side of
    row 65536, fails it and names the column."""
    rows = 70_000
    strs = [f"row-{i:06d}" for i in range(rows)]
    spec_rows, _ = _encode_batched(
        tmp_path, pa.table({"i": np.arange(rows), "s": strs}), 1 << 20, 50_000)
    if flip_row is not None:
        strs[flip_row] = strs[flip_row][:-1] + "x"
        pq.write_table(pa.table({"i": np.arange(rows), "s": strs}), tmp_path / "in.parquet")
    assert _verify(tmp_path, spec_rows) == [
        {"pid": 0, "rows": rows, "ok": flip_row is None,
         "mismatched_columns": "" if flip_row is None else "s"}]


def _rows_2900() -> pa.Table:
    return pa.table({"i": np.arange(2900), "s": [f"row-{i:06d}" for i in range(2900)]})


def test_verify_batches_across_row_groups(tmp_path):
    """1000-row batches over 1200-row row groups: chunks cross row-group
    boundaries, and the partition still verifies chunk by chunk."""
    spec_rows, enc = _encode_batched(tmp_path, _rows_2900(), 1200, 1000)
    assert len(spec_rows.column("row_groups")[0]) == 3
    assert pq.ParquetFile(enc).metadata.num_row_groups == 3  # 1000, 1000, 900
    assert _verify(tmp_path, spec_rows) == [
        {"pid": 0, "rows": 2900, "ok": True, "mismatched_columns": ""}]


@pytest.mark.parametrize("edit", ["drop_last", "extra_chunk", "swap_last_two"])
def test_verify_chunk_layout_mismatch(edit, tmp_path):
    """An encoded file missing its last chunk, holding one extra chunk, or
    with a chunk whose row count differs from its source batch's verifies
    as not ok, without raising."""
    spec_rows, enc = _encode_batched(tmp_path, _rows_2900(), 1200, 1000)
    pf = pq.ParquetFile(enc)
    groups = [pf.read_row_group(i) for i in range(pf.metadata.num_row_groups)]
    groups = {"drop_last": groups[:-1], "extra_chunk": groups + groups[-1:],
              "swap_last_two": [groups[0], groups[2], groups[1]]}[edit]
    with pq.ParquetWriter(enc, pf.schema_arrow) as w:
        for g in groups:
            w.write_table(g)
    assert pq.ParquetFile(enc).metadata.num_row_groups == len(groups)
    (res,) = _verify(tmp_path, spec_rows)
    assert res["ok"] is False
