"""Seeded inputs of the benchmark workloads and their scan queries.

Everything here is a pure function of the workload seed: the same seed
gives byte-identical Parquet inputs and the same query list.  The engine
only ever sees the files written here.

Two input families:

- web tables, made by the engine's own shard generator
  (`nem_mms_ray.webtable.generate_shard`) in the bench configuration:
  html median 2 KiB, Zipf hosts, near-monotone `warc_ts`, plus exactly
  0.05% of rows turned into 1-4 MiB html blobs;
- TPC-H-shaped tables (`documents lineitem events orders embeddings`),
  generated here with NumPy in the shapes of the repository's sf test
  tables: one row group per file, unclustered `l_shipdate`, sorted
  `events.ts`, low-cardinality flags, a list<float> embedding column.
  At SF_SCALE they have the row counts of the sf0.1 tables, the engine
  picks the same codec for every column of both, and the encoded bytes
  of the two agree to 0.1%.  Scale matters: FSST training costs about the
  same per string column at any size, so a smaller copy shifts the
  encode time from the numeric codecs to FSST training.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

WEB_ROWS = 24_000
WEB_SHARD_ROWS = 8_000
BLOB_FRAC = 0.0005
WARM_ROWS = 400
SF_SCALE = 0.1              # lineitem rows = 6M * scale: the sf0.1 row counts
N_SCANS = 50                # warc_ts scans of web_html: cheap, they prune
SF_SCANS = 30               # l_shipdate scans of tabular_sf: each decodes all of lineitem
_DAY_US = 86_400 * 1_000_000
_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class Query:
    """Inclusive range filter on `column`, projecting `project`."""

    column: str
    lo: int
    hi: int
    project: str


@dataclass
class Inputs:
    paths: list[str]           # what the workload hands the engine
    rows: int                  # input rows over `paths`
    scan_paths: list[str]      # Parquet the scan oracle reads
    queries: list[Query]
    warm_paths: list[str]      # tiny tables for the set-up warm-up pass
    warm_query: Query          # a scan over the encoding of the first


def _web_config(seed: int):
    from nem_mms_ray.webtable import WebTableConfig

    return WebTableConfig(seed=seed, html_median=2048, blob_frac=0.0)


def _with_blobs(t: pa.Table, rng: np.random.Generator) -> pa.Table:
    """Exactly BLOB_FRAC of the rows get a 1-4 MiB html blob, one in each
    of k equal row strata, sizes evenly spaced over the range (rows, order
    and contents seeded): a Bernoulli blob count would swing the bytes of a
    table this small by a third from seed to seed, and clumped blobs would
    make some encoded chunks, and the scans that read them, far heavier."""
    html = t.column("html").to_pylist()
    live = [i for i, h in enumerate(html) if h is not None]
    k = max(1, round(len(html) * BLOB_FRAC))
    pool = b"".join(html[i] for i in live)
    rows = [int(rng.choice(stratum)) for stratum in np.array_split(live, k)]
    sizes = ((1.0 + 3.0 * (np.arange(k) + 0.5) / k) * (1 << 20)).astype(np.int64)
    for row, n in zip(rows, rng.permutation(sizes)):
        off = int(rng.integers(0, len(pool)))
        html[row] = (pool * ((off + int(n)) // len(pool) + 1))[off:off + int(n)]
    return t.set_column(t.schema.get_field_index("html"), "html",
                        pa.array(html, pa.binary()))


def _write_web(out: Path, rows: int, seed: int) -> list[str]:
    """The web table as files of WEB_SHARD_ROWS rows: each file is one
    encode partition, so the partition count never depends on the seed."""
    from nem_mms_ray.webtable import generate_shard

    out.mkdir(parents=True, exist_ok=True)
    table = generate_shard(0, rows, 0, _web_config(seed))
    rng = np.random.default_rng([seed, 5])
    paths = []
    for i, start in enumerate(range(0, rows, WEB_SHARD_ROWS)):
        p = out / f"web-{i:05d}.parquet"
        pq.write_table(_with_blobs(table.slice(start, WEB_SHARD_ROWS), rng), p,
                       row_group_size=4096)
        paths.append(str(p))
    return paths


def _warc_ts_queries(rng: np.random.Generator, rows: int, seed: int) -> list[Query]:
    """Ranges over the near-monotone crawl clock, 0.5-3% of the rows wide."""
    cfg = _web_config(seed)
    out = []
    for _ in range(N_SCANS):
        width = int(rng.integers(max(1, rows // 200), max(2, rows * 3 // 100)))
        start = int(rng.integers(0, max(1, rows - width)))
        lo = cfg.base_ts_us + start * cfg.step_us
        out.append(Query("warc_ts", lo, lo + width * cfg.step_us, "url"))
    return out


def web_inputs(work: Path, seed: int, rows: int) -> Inputs:
    paths = _write_web(work / "in", rows, seed)
    warm = work / "warm.parquet"
    head = pq.read_table(paths[0]).slice(0, WARM_ROWS)
    small = pc.fill_null(pc.less(pc.binary_length(head.column("html")), 1 << 20), True)
    pq.write_table(head.filter(small), warm)  # blob-free, so set-up cost is seed-free
    # scans read the first file's partition alone: one Ray task per scan, as
    # on tabular_sf (each extra partition file adds a task and its jitter)
    rng = np.random.default_rng([seed, 1])
    scan_rows = min(rows, WEB_SHARD_ROWS)
    return Inputs(paths=paths, rows=rows, scan_paths=paths[:1],
                  queries=_warc_ts_queries(rng, scan_rows, seed), warm_paths=[str(warm)],
                  warm_query=Query("warc_ts", 0, _INT64_MAX, "url"))


# --------------------------------------------------------------- sf tables
_WORDS = np.array("a agg batch big column customer data fast filter group hash join "
                  "key line merge order part query row scan slow small sort spark "
                  "stream table the value vector window".split())


def _days(rng, n, first: str, last: str) -> np.ndarray:
    d0 = np.datetime64(first, "D").astype(np.int64)
    d1 = np.datetime64(last, "D").astype(np.int64)
    return rng.integers(d0, d1 + 1, n) * _DAY_US


def _money(rng, n, lo, hi) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def _sf_tables(seed: int, scale: float) -> dict[str, pa.Table]:
    rng = np.random.default_rng([seed, 3])
    n_li = max(64, int(6_000_000 * scale))
    n_or = max(16, int(1_500_000 * scale))
    n_ev = max(16, int(1_000_000 * scale))
    n_doc = max(16, int(50_000 * scale))
    n_emb = max(16, int(20_000 * scale))
    ts_us = pa.timestamp("us")

    lineitem = pa.table({
        "l_orderkey": rng.integers(0, n_or, n_li),
        "l_partkey": rng.integers(0, max(1, int(200_000 * scale)), n_li),
        "l_suppkey": rng.integers(0, max(1, int(10_000 * scale)), n_li),
        "l_linenumber": rng.integers(1, 8, n_li).astype(np.int32),
        "l_quantity": rng.integers(1, 51, n_li).astype(np.float64),
        "l_extendedprice": _money(rng, n_li, 900.0, 105_000.0),
        "l_discount": rng.integers(0, 11, n_li) / 100.0,
        "l_tax": rng.integers(0, 9, n_li) / 100.0,
        "l_returnflag": pa.array(np.array(["A", "N", "R"])[rng.integers(0, 3, n_li)]),
        "l_linestatus": pa.array(np.array(["O", "F"])[rng.integers(0, 2, n_li)]),
        "l_shipdate": pa.array(_days(rng, n_li, "1995-01-02", "2001-11-04"), ts_us),
    })
    prio = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"])
    orders = pa.table({
        "o_orderkey": np.arange(n_or, dtype=np.int64),
        "o_custkey": rng.integers(0, max(1, int(150_000 * scale)), n_or),
        "o_orderstatus": pa.array(np.array(["O", "F", "P"])[rng.integers(0, 3, n_or)]),
        "o_totalprice": _money(rng, n_or, 1_000.0, 500_000.0),
        "o_orderdate": pa.array(_days(rng, n_or, "1995-01-01", "2001-08-01"), ts_us),
        "o_orderpriority": pa.array(prio[rng.integers(0, 5, n_or)]),
    })
    t0 = np.datetime64("2024-01-01", "us").astype(np.int64)
    events = pa.table({
        "event_id": np.arange(n_ev, dtype=np.int64),
        "ts": pa.array(np.sort(t0 + rng.integers(0, 30 * _DAY_US, n_ev)), ts_us),
        "user_id": rng.integers(0, 1500, n_ev),
        "event_type": pa.array(np.array(["click", "error", "purchase", "signup",
                                         "view"])[rng.integers(0, 5, n_ev)]),
        "value": np.round(rng.exponential(60.0, n_ev), 2),
        "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, n_ev)]),
    })
    n_words = rng.integers(8, 100, n_doc)
    words = _WORDS[rng.integers(0, len(_WORDS), int(n_words.sum()))]
    ends = np.cumsum(n_words)
    texts = [" ".join(words[e - k:e]) for k, e in zip(n_words, ends)]
    langs = np.array(["en", "en", "zh", "de", "es", "fr"])
    documents = pa.table({
        "doc_id": np.arange(n_doc, dtype=np.int64),
        "text": pa.array(texts),
        "lang": pa.array(langs[rng.integers(0, len(langs), n_doc)]),
        "source": pa.array([f"src{s}" for s in rng.integers(0, 20, n_doc)]),
        "n_chars": np.array([len(t) for t in texts], dtype=np.int64),
    })
    emb = rng.normal(0.0, 0.13, (n_emb, 64)).astype(np.float32)
    embeddings = pa.table({
        "vec_id": np.arange(n_emb, dtype=np.int64),
        "embedding": pa.ListArray.from_arrays(
            pa.array(np.arange(0, 64 * n_emb + 1, 64, dtype=np.int32)),
            pa.array(emb.reshape(-1))),
        "label": rng.integers(0, 10, n_emb).astype(np.int32),
    })
    return {"documents": documents, "lineitem": lineitem, "events": events,
            "orders": orders, "embeddings": embeddings}


def sf_inputs(work: Path, seed: int, scale: float) -> Inputs:
    out = work / "in"
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    rows = 0
    for name, t in _sf_tables(seed, scale).items():
        p = out / f"{name}.parquet"
        pq.write_table(t, p, row_group_size=max(1, t.num_rows))  # one row group
        paths.append(str(p))
        rows += t.num_rows
    rng = np.random.default_rng([seed, 4])
    d0 = np.datetime64("1995-01-02", "D").astype(np.int64)
    d1 = np.datetime64("2001-11-04", "D").astype(np.int64)
    queries = []
    for _ in range(SF_SCANS):
        width = int(rng.integers(1, 31))
        start = int(rng.integers(d0, d1 - width + 1))
        queries.append(Query("l_shipdate", start * _DAY_US,
                             (start + width) * _DAY_US - 1, "l_extendedprice"))
    # the head of every table, lineitem first: the warm-up pass runs each
    # codec the timed encodes will use
    warm = work / "warm_in"
    warm.mkdir()
    warm_paths = []
    for p in sorted(paths, key=lambda p: not p.endswith("lineitem.parquet")):
        warm_paths.append(str(warm / Path(p).name))
        pq.write_table(pq.read_table(p).slice(0, WARM_ROWS), warm_paths[-1])
    return Inputs(paths=sorted(paths), rows=rows, scan_paths=[str(out / "lineitem.parquet")],
                  queries=queries, warm_paths=warm_paths,
                  warm_query=Query("l_shipdate", 0, _INT64_MAX, "l_extendedprice"))


# ----------------------------------------------------------------- checksums
def checksum(column: pa.ChunkedArray | pa.Array) -> int:
    """Order-independent exact checksum of a projected scan column: summed
    byte length for strings, summed cents for money."""
    if isinstance(column, pa.ChunkedArray):
        column = column.combine_chunks()
    if pa.types.is_floating(column.type):
        v = column.to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v)]
        return int(np.rint(v * 100.0).astype(np.int64).sum())
    s = pc.sum(pc.binary_length(column)).as_py()
    return int(s or 0)


def oracle(paths: list[str], queries: list[Query]) -> list[tuple[int, int]]:
    """(row count, checksum) of each query, by DuckDB over the original
    Parquet: the scan's answer must match exactly."""
    import duckdb

    con = duckdb.connect()
    try:
        con.execute("SET threads=1")
        files = "[" + ", ".join("'" + p.replace("'", "''") + "'" for p in paths) + "]"
        out = []
        for q in queries:
            if q.column in ("warc_ts", "l_shipdate"):
                pred = f"epoch_us({q.column}) BETWEEN {q.lo} AND {q.hi}"
            else:
                pred = f"{q.column} BETWEEN {q.lo} AND {q.hi}"
            if q.project == "l_extendedprice":
                agg = "CAST(round(l_extendedprice * 100) AS BIGINT)"
            else:
                agg = f"strlen({q.project})"
            n, s = con.execute(
                f"SELECT count(*), coalesce(sum({agg}), 0) "
                f"FROM read_parquet({files}) WHERE {pred}").fetchone()
            out.append((int(n), int(s)))
        return out
    finally:
        con.close()
