"""Deterministic shuffle + training shards (ops/shard)."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow.parquet as pq

SF_DIR = "/root/testdata/sf0.001"


def test_shuffle_matches_duckdb(ray_session):
    """Global order == ORDER BY md5('{seed}:' || id) — the SQL mirror,
    exact, over the sf0.001 documents table."""
    import ray.data as rd

    from nem_mms_ray.ops.shard import add_shuffle_key

    ds = rd.read_parquet(f"{SF_DIR}/documents.parquet",
                         columns=["doc_id"])
    got = add_shuffle_key(ds, seed=7).sort("skey").to_pandas()
    want = duckdb.sql(f"""
        SELECT doc_id, md5(concat('7:', CAST(doc_id AS VARCHAR))) AS skey
        FROM read_parquet('{SF_DIR}/documents.parquet')
        ORDER BY skey
    """).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True),
        want.astype({"doc_id": got["doc_id"].dtype}))


def test_shuffle_partition_invariance_and_seed(ray_session):
    """Same (corpus, seed) -> identical order on any partitioning; a new
    seed is a different permutation of the same rows."""
    import ray.data as rd

    from nem_mms_ray.ops.shard import add_shuffle_key

    df = pd.DataFrame({"doc_id": np.arange(500, dtype=np.int64)})
    a = add_shuffle_key(rd.from_pandas(df), seed=1).sort("skey").to_pandas()
    b = add_shuffle_key(rd.from_pandas(df).repartition(9),
                        seed=1).sort("skey").to_pandas()
    c = add_shuffle_key(rd.from_pandas(df), seed=2).sort("skey").to_pandas()
    pd.testing.assert_frame_equal(a, b)
    assert not a["doc_id"].equals(c["doc_id"])
    assert sorted(a["doc_id"]) == sorted(c["doc_id"])


def test_shard_assignment_matches_duckdb(ray_session):
    """shard_id == cast(concat('0x', substr(skey,1,15)) as ubigint) % n."""
    import ray.data as rd

    from nem_mms_ray.ops.shard import assign_shards

    ds = rd.read_parquet(f"{SF_DIR}/documents.parquet", columns=["doc_id"])
    got = (assign_shards(ds, n_shards=5, seed=3).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    want = duckdb.sql(f"""
        WITH k AS (
            SELECT doc_id,
                   md5(concat('3:', CAST(doc_id AS VARCHAR))) AS skey
            FROM read_parquet('{SF_DIR}/documents.parquet')
        )
        SELECT doc_id, skey,
               CAST(cast(concat('0x', substr(skey, 1, 15)) as ubigint) % 5
                    AS BIGINT) AS shard_id
        FROM k ORDER BY doc_id
    """).df()
    pd.testing.assert_frame_equal(
        got, want.astype({"doc_id": got["doc_id"].dtype}))


def test_write_training_shards(ray_session, tmp_path):
    """Shards land hive-partitioned, cover every row exactly once, are
    ~uniform, and each shard's rows are in global shuffle order."""
    import ray.data as rd

    from nem_mms_ray.ops.shard import write_training_shards

    df = pd.DataFrame({
        "doc_id": np.arange(2000, dtype=np.int64),
        "text": [f"doc {i}" for i in range(2000)],
    })
    out = tmp_path / "shards"
    res = write_training_shards(rd.from_pandas(df), out, n_shards=4, seed=11)
    assert res == {"rows": 2000, "n_shards": 4}
    dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert dirs == [f"shard_id={k}" for k in range(4)]
    seen = []
    for k in range(4):
        t = pq.read_table(str(out / f"shard_id={k}")).to_pandas()
        assert 300 < len(t) < 700  # uniform-ish over 4 shards
        assert list(t["skey"]) == sorted(t["skey"])  # shuffle order kept
        seen.extend(t["doc_id"].tolist())
    assert sorted(seen) == list(range(2000))
