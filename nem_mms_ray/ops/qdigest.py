"""Mergeable quantile digest — the streaming-sketch counterpart to
`ops.relational`'s exact quantile paths.

A simplified merging digest (t-digest family: Dunning & Ertl's merging
variant, simplified to a uniform weight cap): centroids are (value, weight)
pairs kept sorted by value; compression greedily packs adjacent centroids
into bins of weight <= ceil(total / capacity).  Properties:

- mergeable: merge = concatenate + sort + compress; partials from any
  batch/partition order combine (order-invariant whenever no compression
  fires, e.g. the low-cardinality exact regime below).
- bounded error: a rank query walks cumulative weights, so the returned
  value's rank error is at most the largest centroid weight,
  <= ceil(n / capacity) + max single-value multiplicity effects — i.e.
  rank error ~ n/capacity for continuous data.
- EXACT low-cardinality regime: compression only fires when the distinct
  value count exceeds `capacity`, so for columns with <= capacity distinct
  values every centroid is a single exact value and quantiles are exact
  order statistics — that regime is what the SQL oracle checks; the
  continuous-data error bound is pinned by tests.

Distributed shape (`digest_quantiles`): per-batch digests (<= capacity
rows each) -> one groupby over a value-hash bucket merges ~1/_MERGE_BUCKETS
of the centroid rows each -> driver merges <= _MERGE_BUCKETS * capacity
rows.  The corpus itself never shuffles and the driver never sees raw rows.
The merge buckets are the digest's own (not `readutil.keyed_map_groups`):
which centroids merge with which shapes the approximate quantiles.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

_MERGE_BUCKETS = 32


def _compress(values: np.ndarray, weights: np.ndarray,
              capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy adjacent packing into bins of weight <= ceil(total/capacity).
    No-op (exactness preserved) while len(values) <= capacity."""
    if len(values) <= capacity:
        return values, weights
    order = np.argsort(values, kind="stable")
    v, w = values[order], weights[order]
    cap = int(np.ceil(w.sum() / capacity))
    out_v, out_w = [], []
    acc_vw = 0.0
    acc_w = 0
    for i in range(len(v)):
        if acc_w and acc_w + w[i] > cap:
            out_v.append(acc_vw / acc_w)
            out_w.append(acc_w)
            acc_vw, acc_w = 0.0, 0
        acc_vw += v[i] * w[i]
        acc_w += int(w[i])
    if acc_w:
        out_v.append(acc_vw / acc_w)
        out_w.append(acc_w)
    return np.asarray(out_v, np.float64), np.asarray(out_w, np.int64)


def digest_batch(x: np.ndarray, capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """One batch -> (values, weights) centroid arrays (exact np.unique
    first: a batch with few distinct values costs nothing)."""
    v, w = np.unique(np.asarray(x, np.float64), return_counts=True)
    return _compress(v, w.astype(np.int64), capacity)


def merge_digests(parts: list[tuple[np.ndarray, np.ndarray]],
                  capacity: int) -> tuple[np.ndarray, np.ndarray]:
    vs = np.concatenate([p[0] for p in parts]) if parts else np.zeros(0)
    ws = np.concatenate([p[1] for p in parts]) if parts else np.zeros(0, np.int64)
    if len(vs) == 0:
        return vs, ws.astype(np.int64)
    # exact pre-merge of equal values keeps the low-cardinality regime
    # exact across any number of partials
    uv, inv = np.unique(vs, return_inverse=True)
    uw = np.bincount(inv, weights=ws).astype(np.int64)
    return _compress(uv, uw, capacity)


def digest_quantile(values: np.ndarray, weights: np.ndarray,
                    q: float) -> float:
    """Rank-walk quantile: the centroid covering zero-based rank
    floor(q * (n - 1)).  Exact when centroids are single values."""
    n = int(weights.sum())
    if n == 0:
        return float("nan")
    k = int(np.floor(q * (n - 1)))
    cum = np.cumsum(weights)
    i = int(np.searchsorted(cum, k, side="right"))
    return float(values[min(i, len(values) - 1)])


def digest_quantiles(ds, col: str = "value", qs: tuple = (0.25, 0.5, 0.75),
                     capacity: int = 512) -> pa.Table:
    """Distributed quantile sketch over a Dataset column.

    Returns pa.table({q, value}).  See module docstring for the shape and
    the exact-regime contract the oracle uses."""
    def per_batch(t: pa.Table) -> pa.Table:
        v, w = digest_batch(np.asarray(t.column(col), np.float64), capacity)
        h = pd.util.hash_array(v.view(np.uint64)) % _MERGE_BUCKETS
        return pa.table({"v": pa.array(v), "w": pa.array(w),
                         "bucket": pa.array(h.astype(np.int32))})

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        v, w = merge_digests(
            [(g["v"].to_numpy(np.float64), g["w"].to_numpy(np.int64))],
            capacity)
        return pd.DataFrame({"v": v, "w": w})

    parts = (ds.map_batches(per_batch, batch_format="pyarrow")
               .groupby("bucket").map_groups(merge_bucket, batch_format="pandas")
               .to_pandas())
    v, w = merge_digests(
        [(parts["v"].to_numpy(np.float64), parts["w"].to_numpy(np.int64))],
        capacity)
    return pa.table({
        "q": pa.array([float(q) for q in sorted(qs)], pa.float64()),
        "value": pa.array([digest_quantile(v, w, q) for q in sorted(qs)],
                          pa.float64()),
    })


def group_quantiles(ds, group_col: str, col: str,
                    qs: tuple = (0.25, 0.5, 0.75),
                    capacity: int = 512) -> pa.Table:
    """Per-group quantiles via mergeable digests: Dataset columns
    (group, q, value), exact whenever each group's distinct-value count
    stays <= capacity (see module docstring).

    Scale shape: each batch pre-digests per group (np.unique per group —
    one row per DISTINCT (group, value) per batch leaves the stage, a
    massive reduction for low-cardinality measures), the single shuffle
    groups by group_col, and the per-group merge + rank walk runs
    vectorized in its task.  Group count bounds the Ray group count;
    per-group digest size bounds task memory at ~capacity rows.
    """
    def per_batch(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "g": t.column(group_col).to_pandas(),
            "v": np.asarray(t.column(col), np.float64),
        })
        outs_g, outs_v, outs_w = [], [], []
        for g, sub in df.groupby("g", sort=False, dropna=False):
            v, w = digest_batch(sub["v"].to_numpy(np.float64), capacity)
            outs_g.extend([g] * len(v))
            outs_v.append(v)
            outs_w.append(w)
        if not outs_g:
            return pa.table({group_col: pa.array([], t.column(group_col).type),
                             "v": pa.array([], pa.float64()),
                             "w": pa.array([], pa.int64())})
        return pa.table({group_col: pa.array(outs_g),
                         "v": pa.array(np.concatenate(outs_v)),
                         "w": pa.array(np.concatenate(outs_w))})

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        v, w = merge_digests(
            [(g["v"].to_numpy(np.float64), g["w"].to_numpy(np.int64))],
            capacity)
        return pd.DataFrame({
            group_col: [g[group_col].iloc[0]] * len(qs),
            "q": sorted(float(x) for x in qs),
            "value": [digest_quantile(v, w, q) for q in sorted(qs)],
        })

    return (ds.map_batches(per_batch, batch_format="pyarrow")
              .groupby(group_col)
              .map_groups(finish, batch_format="pandas"))
