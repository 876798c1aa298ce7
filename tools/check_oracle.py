"""Local emulation of the driver's correctness gate: run each queries()
entry and its oracle_sql() side by side on an sf dir, compare row count,
schema and order-insensitive values.

Usage: python tools/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), ignore_index=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    problems = []
    if len(ray_df) != len(sql_df):
        problems.append(f"rowcount ray={len(ray_df)} sql={len(sql_df)}")
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        problems.append(f"columns ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}")
        return problems
    a, b = canon(ray_df), canon(sql_df)
    if len(a) == len(b):
        for c in a.columns:
            # Driver hashes values per-dtype: an int64 column on one side and
            # float64 on the other hash-mismatch even when isclose passes.
            ai, bi = np.issubdtype(a[c].dtype, np.integer), np.issubdtype(b[c].dtype, np.integer)
            af, bf = np.issubdtype(a[c].dtype, np.floating), np.issubdtype(b[c].dtype, np.floating)
            if (ai and bf) or (af and bi):
                problems.append(f"col {c}: dtype mismatch ray={a[c].dtype} sql={b[c].dtype}")
        for c in a.columns:
            av, bv = a[c].values, b[c].values
            if np.issubdtype(a[c].dtype, np.floating) or np.issubdtype(b[c].dtype, np.floating):
                av = np.asarray(av, np.float64)
                bv = np.asarray(bv, np.float64)
                bad = ~(np.isclose(av, bv, rtol=0, atol=1e-9) | (pd.isna(av) & pd.isna(bv)))
            else:
                bad = ~((av == bv) | (pd.isna(av) & pd.isna(bv)))
            if bad.any():
                i = int(np.argmax(bad))
                problems.append(f"col {c}: {int(bad.sum())} diffs, first ray={av[i]!r} sql={bv[i]!r}")
    return problems


def check_rows(sf_dir: str, only: set[str] | frozenset = frozenset()):
    """Yield (name, problems, rows, wall) for each queries() row (all, or
    those named in `only`) against its oracle_sql().  `problems` is None
    when the row has no oracle; a query that raises is one problem.
    Needs a running Ray session."""
    import __ray_entry__ as E

    con = duckdb.connect()
    for t in TABLES:
        p = f"{sf_dir}/{t}.parquet"
        if Path(p).exists():
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")
    oracles = E.oracle_sql()
    for name, fn in E.queries().items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:
            yield name, [f"query raised {type(e).__name__}: {e}"], 0, time.time() - t0
            continue
        wall = time.time() - t0
        if name not in oracles:
            yield name, None, len(ray_df), wall
            continue
        yield name, compare(name, ray_df, con.sql(oracles[name]).df()), len(ray_df), wall


def main() -> None:
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    n_fail = 0
    for name, problems, rows, wall in check_rows(sf_dir, only):
        if problems is None:
            print(f"rows  {name}: {rows} rows ({wall:.1f}s, no oracle)")
        elif problems:
            n_fail += 1
            print(f"FAIL  {name} ({wall:.1f}s): " + "; ".join(problems))
        else:
            print(f"OK    {name}: {rows} rows match oracle ({wall:.1f}s)")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
