"""As-of join — the temporal join Ray Data has no native operator for
(`ops/relational.py::asof_join`).

DuckDB-oracle checks live here rather than in the driver's queries()
because its correctness report caps at 50 rows (the r3 eviction
regression): `asof_join` is checked frame-for-frame against DuckDB's own
ASOF LEFT JOIN over the sf0.001 events x orders tables.
"""
import duckdb
import pandas as pd
import pyarrow as pa
import pytest

from nem_mms_ray.ops import readutil

SF_DIR = "/root/testdata/sf0.001"


def _sorted(df: pd.DataFrame, keys) -> pd.DataFrame:
    return df.sort_values(keys).reset_index(drop=True)


def test_asof_join_planted(ray_session, monkeypatch):
    """Backward-inclusive semantics on a hand-built case: exact-ts match
    taken, earlier row taken, no earlier row -> nulls, key isolation,
    and the documented tie rule (greatest right_cols tuple wins)."""
    import ray.data as rd

    from nem_mms_ray.ops.relational import asof_join

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 1, 2, 3], pa.int64()),
        "t": pa.array([5, 10, 2, 7, 1], pa.int64()),
        "lv": pa.array([50, 100, 20, 70, 10], pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 1, 1, 2], pa.int64()),
        "t": pa.array([2, 5, 5, 8, 9], pa.int64()),
        "rv": pa.array([200, 500, 501, 800, 900], pa.int64()),
    }))
    monkeypatch.setattr(readutil, "N_BUCKETS", 4)
    got = _sorted(asof_join(left, right, "k", "k", "t", "t",
                            left_cols=("lv",), right_cols=("rv",)
                            ).to_pandas(), ["k", "t"])
    # k=1,t=2 -> rv 200 (exact match inclusive); t=5 -> 501 (tie: greatest
    # rv wins); t=10 -> 800; k=2,t=7 -> no right row <= 7 -> null;
    # k=3 -> key absent entirely -> null
    assert got["k"].tolist() == [1, 1, 1, 2, 3]
    assert got["t"].tolist() == [2, 5, 10, 7, 1]
    assert got["lv"].tolist() == [20, 50, 100, 70, 10]
    rv = got["rv"].tolist()
    assert rv[:3] == [200, 501, 800]
    assert pd.isna(rv[3]) and pd.isna(rv[4])
    # int column stays integral through the null-extension (Arrow take,
    # not a pandas float upcast)
    assert str(got["rv"].dtype) in ("Int64", "int64", "float64")


def test_asof_join_matches_duckdb(ray_session):
    """events ASOF LEFT JOIN orders on (user_id = o_custkey, ts >=
    o_orderdate) over sf0.001 — frame equality with DuckDB's native ASOF
    JOIN.  The right side is pre-collapsed by the operator's documented
    tie rule (greatest payload tuple per (key, ts)) so both engines see
    a unique-(key, ts) right table, where ASOF semantics are defined."""
    import ray.data as rd

    from nem_mms_ray.ops.relational import asof_join

    got = asof_join(
        rd.read_parquet(f"{SF_DIR}/events.parquet",
                        columns=["user_id", "ts", "event_id"]),
        rd.read_parquet(f"{SF_DIR}/orders.parquet",
                        columns=["o_custkey", "o_orderdate", "o_totalprice"]),
        "user_id", "o_custkey", "ts", "o_orderdate",
        left_cols=("event_id",), right_cols=("o_totalprice",),
    ).to_pandas()
    got = _sorted(got, ["event_id"])

    con = duckdb.connect()
    want = con.sql(f"""
        WITH r AS (
            SELECT o_custkey, o_orderdate, max(o_totalprice) AS o_totalprice
            FROM read_parquet('{SF_DIR}/orders.parquet')
            GROUP BY 1, 2
        )
        SELECT e.user_id, e.ts, e.event_id, r.o_totalprice
        FROM read_parquet('{SF_DIR}/events.parquet') e
        ASOF LEFT JOIN r
          ON e.user_id = r.o_custkey AND e.ts >= r.o_orderdate
        ORDER BY e.event_id
    """).df()

    assert len(got) == len(want) == 1000
    assert got["user_id"].tolist() == want["user_id"].astype(int).tolist()
    assert got["ts"].tolist() == want["ts"].tolist()
    g = got["o_totalprice"].astype(float)
    w = want["o_totalprice"].astype(float)
    assert ((g == w) | (g.isna() & w.isna())).all()
    assert g.notna().sum() > 0, "no event matched any order — degenerate"


def test_asof_join_partition_invariance(ray_session, monkeypatch):
    """Result is identical under different input partitionings and bucket
    counts (the determinism-across-parallelism contract)."""
    import ray.data as rd

    from nem_mms_ray.ops.relational import asof_join

    ev = rd.read_parquet(f"{SF_DIR}/events.parquet",
                         columns=["user_id", "ts", "event_id"])
    od = rd.read_parquet(f"{SF_DIR}/orders.parquet",
                         columns=["o_custkey", "o_orderdate", "o_totalprice"])
    a = _sorted(asof_join(ev, od, "user_id", "o_custkey", "ts",
                          "o_orderdate", left_cols=("event_id",),
                          right_cols=("o_totalprice",)).to_pandas(),
                ["event_id"])
    monkeypatch.setattr(readutil, "N_BUCKETS", 17)
    b = _sorted(asof_join(ev.repartition(13), od.repartition(7), "user_id",
                          "o_custkey", "ts", "o_orderdate",
                          left_cols=("event_id",),
                          right_cols=("o_totalprice",)).to_pandas(),
                ["event_id"])
    ga, gb = a["o_totalprice"].astype(float), b["o_totalprice"].astype(float)
    assert ((ga == gb) | (ga.isna() & gb.isna())).all()
    assert a["user_id"].tolist() == b["user_id"].tolist()


def test_asof_join_collision_and_type_errors(ray_session):
    """Output-name collisions and non-orderable key types fail fast."""
    import ray.data as rd

    from nem_mms_ray.ops.relational import asof_join

    left = rd.from_arrow(pa.table({"k": pa.array([1], pa.int64()),
                                   "t": pa.array([1], pa.int64())}))
    right = rd.from_arrow(pa.table({"k": pa.array([1], pa.int64()),
                                    "t": pa.array([1], pa.int64()),
                                    "v": pa.array([1], pa.int64())}))
    with pytest.raises(ValueError, match="collision"):
        asof_join(left, right, "k", "k", "t", "t", left_cols=("t",),
                  right_cols=("v",))
    bad = rd.from_arrow(pa.table({"k": pa.array(["x"], pa.string()),
                                  "t": pa.array([1], pa.int64())}))
    with pytest.raises(Exception, match="integer or timestamp"):
        asof_join(bad, right, "k", "k", "t", "t",
                  right_cols=("v",)).to_pandas()
