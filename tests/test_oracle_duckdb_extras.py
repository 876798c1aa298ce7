"""DuckDB-oracle checks for the r5 hygiene ops (scrub / decontaminate /
domain_cap), held OUT of the driver's queries() because its correctness
report caps at 50 rows (the r3 eviction regression — see
__ray_entry__._ngram_dropped_stats).  These run the same side-by-side
SQL comparison the driver would: full-frame equality against a DuckDB
query over the identical parquet input.

DuckDB and Arrow both use RE2, so the regex oracles share engine
semantics with the implementation; the token oracle carries the same
ASCII-whitespace caveat as every \\s+ oracle in __ray_entry__ (the
deterministic testdata generator guarantees ASCII).
"""
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nem_mms_ray.ops.scrub import DEFAULT_PATTERNS

SF_DIR = "/root/testdata/sf0.001"


def _scrub_corpus(tmp_path: Path) -> str:
    """sf0.001 document texts with PII planted into a deterministic
    subset — written to parquet so Ray and DuckDB read the SAME file."""
    docs = pq.read_table(f"{SF_DIR}/documents.parquet",
                         columns=["doc_id", "text"])
    texts = docs.column("text").to_pylist()
    plants = ["mail bob.smith+x@example.co.uk", "at 10.0.0.1 and 192.168.1.9",
              "ssn 123-45-6789", "call (555) 123-4567 or +1 555 123 4567",
              "card 4111111111111111", "999.999.999.999 ip-ish",
              "17 digits 12345678901234567 safe"]
    for i in range(0, len(texts), 5):
        texts[i] = f"{plants[(i // 5) % len(plants)]} {texts[i] or ''}"
    texts[1] = None
    texts[2] = ""
    path = tmp_path / "scrub_corpus.parquet"
    pq.write_table(pa.table({"doc_id": docs.column("doc_id"),
                             "text": pa.array(texts, pa.string())}), path)
    return str(path)


def test_scrub_matches_duckdb_regexp_chain(ray_session, tmp_path):
    """scrub_text(with_counts) over a PII-planted corpus must equal the
    sequential DuckDB regexp_replace/regexp_extract_all chain — counts
    taken against the text as each pattern sees it (after the patterns
    before it replaced), the module's documented left-to-right
    contract.  The SQL is generated from DEFAULT_PATTERNS so the oracle
    tracks any future pattern change."""
    import ray.data as rd

    from nem_mms_ray.ops.scrub import scrub_text

    path = _scrub_corpus(tmp_path)
    got = (scrub_text(rd.read_parquet(path), with_counts=True)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))

    # t0 = coalesced input; per pattern k: count on t{k}, replace -> t{k+1}
    stages, prev = [], "coalesce(text, '')"
    counts = []
    for name, pat, repl in DEFAULT_PATTERNS:
        counts.append(f"len(regexp_extract_all({prev}, '{pat}')) "
                      f"AS pii_{name}")
        prev = f"regexp_replace({prev}, '{pat}', '{repl}', 'g')"
    sql = (f"SELECT doc_id, {prev} AS text, {', '.join(counts)} "
           f"FROM read_parquet('{path}') ORDER BY doc_id")
    con = duckdb.connect()  # keep the ref: a chained temp conn is GC'd
    want = con.sql(sql).df()

    assert got["text"].tolist() == want["text"].tolist()
    for name, _, _ in DEFAULT_PATTERNS:
        assert got[f"pii_{name}"].tolist() == \
            want[f"pii_{name}"].astype(int).tolist(), name
    assert sum(got["pii_email"]) > 0 and sum(got["pii_card"]) > 0


# 8-gram windows of the whitespace word array, the decontaminate contract:
# empty -> [], short -> one join-all gram, else sliding windows.
_GRAMS8_CTE = """
    w AS (
        SELECT doc_id,
               list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                           x -> x <> '') AS ws
        FROM {src}
    ), t AS (
        SELECT doc_id,
               CASE WHEN len(ws) = 0 THEN []
                    WHEN len(ws) < 8 THEN [array_to_string(ws, ' ')]
                    ELSE list_transform(range(1, len(ws) - 6),
                        i -> concat_ws(' ', ws[i], ws[i+1], ws[i+2], ws[i+3],
                                       ws[i+4], ws[i+5], ws[i+6], ws[i+7]))
               END AS grams
        FROM w
    ), g AS (SELECT DISTINCT doc_id, unnest(grams) AS gram FROM t)
"""


def test_decontaminate_matches_duckdb(ray_session):
    """decontaminate(ngram=8) over sf0.001 documents, benchmark = every
    29th doc's text, must equal the DuckDB n-gram set-intersection mirror
    frame-for-frame (doc_id, n_grams, hits, overlap, contaminated).
    The Ray side intersects uint64 gram hashes, the SQL side gram
    strings — equality IS the no-collision witness on this corpus."""
    import ray.data as rd

    from nem_mms_ray.ops.decontam import decontaminate

    docs = pq.read_table(f"{SF_DIR}/documents.parquet",
                         columns=["doc_id", "text"])
    bench = [t for i, t in enumerate(docs.column("text").to_pylist())
             if i % 29 == 0]
    got = (decontaminate(rd.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]),
        bench, ngram=8)
        .to_pandas().sort_values("doc_id").reset_index(drop=True))

    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF_DIR}/documents.parquet')")
    con.sql("CREATE VIEW bench AS SELECT doc_id, text FROM documents "
            "WHERE doc_id % 29 = 0")
    want = con.sql(f"""
        WITH {_GRAMS8_CTE.format(src='documents')},
        bu AS (
            WITH {_GRAMS8_CTE.format(src='bench')}
            SELECT DISTINCT gram FROM g
        ), sz AS (SELECT doc_id, count(*) AS n_grams FROM g GROUP BY doc_id),
        h AS (
            SELECT g.doc_id, count(*) AS hits
            FROM g JOIN bu USING (gram) GROUP BY g.doc_id
        )
        SELECT d.doc_id,
               coalesce(sz.n_grams, 0) AS n_grams,
               coalesce(h.hits, 0) AS hits,
               coalesce(h.hits, 0) * 1.0
                   / greatest(coalesce(sz.n_grams, 0), 1) AS overlap,
               coalesce(h.hits, 0) > 0 AS contaminated
        FROM documents d
        LEFT JOIN sz ON sz.doc_id = d.doc_id
        LEFT JOIN h ON h.doc_id = d.doc_id
        ORDER BY d.doc_id
    """).df()

    assert got["n_grams"].tolist() == want["n_grams"].astype(int).tolist()
    assert got["hits"].tolist() == want["hits"].astype(int).tolist()
    assert got["overlap"].tolist() == want["overlap"].tolist()
    assert got["contaminated"].tolist() == want["contaminated"].tolist()
    assert got["contaminated"].sum() >= len(bench)  # the planted copies flag


def test_domain_cap_matches_duckdb(ray_session, tmp_path, monkeypatch):
    """domain_cap(cap=3) over a skewed synthetic url corpus must equal the
    DuckDB row_number()-per-domain mirror, nulls and all.  Hosts come
    from the same RE2 pattern on both sides (group 1 = the named host
    group; DuckDB returns '' on no-match where Arrow returns null, hence
    the nullif)."""
    import ray.data as rd

    from nem_mms_ray.ops.urltools import _HOST_PATTERN, domain_cap

    rng = np.random.default_rng(23)
    hosts = [f"h{i}.example.com" for i in range(12)]
    picks = rng.choice(len(hosts), 400, p=np.array(
        [0.4] + [0.6 / 11] * 11))  # one mega-domain
    urls = [f"https://{hosts[p]}/p{i}" for i, p in enumerate(picks)]
    urls[3] = "HTTPS://UPPER.Example.COM:8443/x"   # case + port
    urls[5] = "//cdn.example.org/asset.js"         # protocol-relative
    urls[8] = "user:pw@ftp.example.net/f"          # userinfo, no scheme
    urls[11] = None                                # null url -> null domain
    path = tmp_path / "urls.parquet"
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(urls)), pa.int64()),
        "url": pa.array(urls, pa.string())}), path)

    from nem_mms_ray.ops import readutil

    monkeypatch.setattr(readutil, "N_BUCKETS", 7)
    got = (domain_cap(rd.read_parquet(str(path)), cap=3)
           .to_pandas().sort_values(["domain", "doc_id"],
                                    na_position="last")
           .reset_index(drop=True))
    con = duckdb.connect()
    want = con.sql(f"""
        WITH d AS (
            SELECT lower(nullif(regexp_extract(url, '{_HOST_PATTERN}', 1),
                                '')) AS domain, doc_id
            FROM read_parquet('{path.as_posix()}')
        ), r AS (
            SELECT domain, doc_id,
                   row_number() OVER (PARTITION BY domain
                                      ORDER BY doc_id) AS rn
            FROM d
        )
        SELECT domain, doc_id FROM r WHERE rn <= 3
        ORDER BY domain NULLS LAST, doc_id
    """).df()

    assert len(got) == len(want)
    # the mega-domain (p=0.4) really was capped, and the null group kept
    assert (got["domain"] == "h0.example.com").sum() == 3
    assert got["domain"].isna().sum() == 1
    assert got["doc_id"].tolist() == want["doc_id"].astype(int).tolist()
    assert got["domain"].fillna("<null>").tolist() == \
        want["domain"].fillna("<null>").tolist()
