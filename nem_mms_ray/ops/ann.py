"""Approximate-nearest-neighbor search over an embedding column.

- `topk_cosine`: exact brute force — numpy matmul per batch against a
  broadcast query matrix (ray.put once, read per actor), per-batch local
  top-k then a tiny driver-side merge.  The baseline and the oracle.
- `ivf_topk_cosine`: IVF scale path — deterministic sample centroids,
  batches route to nearest centroids, search only nprobe closest lists.
- `assign_clusters`: each vector's nearest centroid, the routing step of
  IVF as a Dataset of (id, cluster).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _to_matrix(col) -> np.ndarray:
    """(n, dim) float64 matrix from a list<float>/fixed_size_list column.

    Uniform-width lists (the embedding-table invariant) reshape straight
    from the Arrow child buffer — no per-row Python object round-trip, which
    was the hottest conversion in the ANN/dedup inner loops.  Ragged or
    null-bearing columns fall back to the generic per-row path."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_fixed_size_list(arr.type) and arr.null_count == 0:
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        return flat.reshape(len(arr), arr.type.list_size).astype(np.float64, copy=False)
    if (pa.types.is_list(arr.type) or pa.types.is_large_list(arr.type)) and arr.null_count == 0:
        offs = np.asarray(arr.offsets)
        widths = np.diff(offs)
        if len(widths) and bool((widths == widths[0]).all()) and widths[0] > 0:
            flat = arr.values.to_numpy(zero_copy_only=False)[offs[0]: offs[-1]]
            return flat.reshape(len(arr), int(widths[0])).astype(np.float64, copy=False)
    return np.stack([np.asarray(v, np.float64) for v in arr.to_pylist()])


def _pool(want: int = 4) -> int:
    """An actor pool that reserves every CPU starves the upstream read and
    the pipeline deadlocks (observed live on a 4-CPU session with
    concurrency=4); always leave at least one CPU for reads/writes."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", want + 1)) if ray.is_initialized() else want + 1
    return max(1, min(want, cpus - 1))


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


class BruteForceTopK:
    """Actor-pool stage: per-batch cosine top-k against broadcast queries."""

    def __init__(self, queries_ref, k: int, vec_col: str = "embedding",
                 id_col: str = "vec_id"):
        import ray

        q = ray.get(queries_ref) if not isinstance(queries_ref, np.ndarray) else queries_ref
        self.q = _normalize(np.atleast_2d(np.asarray(q, np.float64)))
        self.k = k
        self.vec_col = vec_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(self.id_col))
        m = _normalize(_to_matrix(batch.column(self.vec_col)))
        sims = m @ self.q.T  # (batch, nq)
        rows = {"query_idx": [], self.id_col: [], "cosine": []}
        k = min(self.k, len(ids))
        for qi in range(self.q.shape[0]):
            s = sims[:, qi]
            top = np.argpartition(-s, k - 1)[:k] if k < len(s) else np.arange(len(s))
            for t in top:
                rows["query_idx"].append(qi)
                rows[self.id_col].append(int(ids[t]))
                rows["cosine"].append(float(s[t]))
        return pa.table(
            {
                "query_idx": pa.array(rows["query_idx"], pa.int32()),
                self.id_col: pa.array(rows[self.id_col], pa.int64()),
                "cosine": pa.array(rows["cosine"], pa.float64()),
            }
        )


_WORKER_TOPK: dict = {}


def _topk_task(batch: pa.Table, *, queries_ref, k: int, vec_col: str, id_col: str) -> pa.Table:
    """Task-mode wrapper: warm workers cache the normalized query matrix per
    object ref (plasma-local anyway), skipping actor-pool ramp-up."""
    key = (queries_ref.hex() if hasattr(queries_ref, "hex") else id(queries_ref),
           k, vec_col, id_col)
    st = _WORKER_TOPK.get(key)
    if st is None:
        if len(_WORKER_TOPK) > 16:
            _WORKER_TOPK.clear()
        st = _WORKER_TOPK[key] = BruteForceTopK(queries_ref, k, vec_col, id_col)
    return st(batch)


def topk_cosine(ds, queries: np.ndarray, k: int = 10, vec_col: str = "embedding",
                id_col: str = "vec_id", concurrency: int | None = None) -> pd.DataFrame:
    """Exact top-k via per-batch candidates + driver merge (tiny result).

    Returns a DataFrame (query_idx, id, cosine, rank) sorted deterministically
    (cosine desc, id asc tie-break).
    """
    import functools

    import ray

    qref = ray.put(np.atleast_2d(np.asarray(queries, np.float64)))
    cands = ds.map_batches(
        functools.partial(_topk_task, queries_ref=qref, k=k,
                          vec_col=vec_col, id_col=id_col),
        batch_format="pyarrow",
        num_cpus=1,
    ).to_pandas()
    out = []
    for qi, g in cands.groupby("query_idx"):
        g = g.sort_values(["cosine", id_col], ascending=[False, True]).head(k)
        g = g.assign(rank=np.arange(1, len(g) + 1))
        out.append(g)
    res = pd.concat(out, ignore_index=True) if out else cands.assign(rank=[])
    res["cosine"] = res["cosine"].round(6)
    return res[["query_idx", id_col, "cosine", "rank"]]


class _AllPairsStage:
    """Actor-pool stage: each batch's rows vs the broadcast full matrix."""

    def __init__(self, ref, threshold: float, vec_col: str, id_col: str):
        import ray

        self.all_ids, self.all_mn = ray.get(ref)
        self.threshold = threshold
        self.vec_col = vec_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(self.id_col))
        m = _normalize(_to_matrix(batch.column(self.vec_col)))
        sims = m @ self.all_mn.T  # (batch, n_all)
        mask = (sims >= self.threshold) & (ids[:, None] < self.all_ids[None, :])
        ai, bi = np.nonzero(mask)
        return pa.table(
            {
                "a": pa.array(ids[ai], pa.int64()),
                "b": pa.array(self.all_ids[bi], pa.int64()),
                "cosine": pa.array(np.round(sims[ai, bi], 6), pa.float64()),
            }
        )


def cosine_pairs_exact(ds, threshold: float, vec_col: str = "embedding",
                       id_col: str = "vec_id", concurrency: int | None = None):
    """Exact all-pairs cosine >= threshold: Dataset[(a, b, cosine)], a < b.

    The brute-force O(n^2) baseline (and DuckDB-oracle target) for the LSH
    scale path (`dedup.embedding_near_pairs`): the normalized matrix is
    built in one pass, broadcast once via ray.put, and every batch compares
    its rows against it — no shuffle.  Suitable when n_vectors x dim fits a
    worker's heap; beyond that, use the LSH variant.
    """
    import ray

    side = pa.concat_tables(ray.get(ds.select_columns([id_col, vec_col]).to_arrow_refs()))
    all_ids = side.column(id_col).to_numpy().astype(np.int64, copy=False)
    all_mn = _normalize(_to_matrix(side.column(vec_col)))
    ref = ray.put((all_ids, all_mn))
    return ds.map_batches(
        _AllPairsStage,
        fn_constructor_kwargs={"ref": ref, "threshold": threshold,
                               "vec_col": vec_col, "id_col": id_col},
        batch_format="pyarrow",
        concurrency=concurrency or _pool(),
        num_cpus=1,
    )


def build_ivf_centroids(ds, n_centroids: int, vec_col: str = "embedding",
                        sample_rows: int = 2048, seed: int = 42,
                        iters: int = 5) -> np.ndarray:
    """Deterministic mini k-means on a driver-side sample (Lloyd's, fixed
    seed/init).  The centroid matrix is tiny and broadcast to searchers."""
    sample = ds.limit(sample_rows).take_batch(sample_rows, batch_format="pyarrow")
    m = _normalize(_to_matrix(sample.column(vec_col)))
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(m), size=min(n_centroids, len(m)), replace=False)
    c = m[np.sort(idx)].copy()
    for _ in range(iters):
        assign = (m @ c.T).argmax(axis=1)
        for j in range(len(c)):
            pts = m[assign == j]
            if len(pts):
                c[j] = pts.mean(axis=0)
        c = _normalize(c)
    return c


def ivf_topk_cosine(ds, queries: np.ndarray, k: int = 10, n_centroids: int = 16,
                    nprobe: int = 4, vec_col: str = "embedding",
                    id_col: str = "vec_id", concurrency: int | None = None) -> pd.DataFrame:
    """IVF-style ANN: rows route to their nearest centroid's list; each query
    searches only its nprobe closest lists.  Recall < 1.0 by design; the
    brute-force path is the correctness oracle."""
    import ray

    q = _normalize(np.atleast_2d(np.asarray(queries, np.float64)))
    cents = build_ivf_centroids(ds, n_centroids, vec_col)
    cref = ray.put(cents)
    probe_lists = np.argsort(-(q @ cents.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    wanted: dict[int, list[int]] = {}
    for qi, lists in enumerate(probe_lists):
        for li in lists:
            wanted.setdefault(int(li), []).append(qi)
    wref = ray.put(wanted)
    qref = ray.put(q)

    class ProbeSearch:
        def __init__(self):
            self.c = ray.get(cref)
            self.w = ray.get(wref)
            self.q = ray.get(qref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch.column(id_col))
            m = _normalize(_to_matrix(batch.column(vec_col)))
            assign = (m @ self.c.T).argmax(axis=1)
            rows = {"query_idx": [], id_col: [], "cosine": []}
            for li, qis in self.w.items():
                mask = assign == li
                if not mask.any():
                    continue
                sub = m[mask]
                sub_ids = ids[mask]
                sims = sub @ self.q[qis].T
                kk = min(k, len(sub_ids))
                for col, qi in enumerate(qis):
                    s = sims[:, col]
                    top = np.argpartition(-s, kk - 1)[:kk] if kk < len(s) else np.arange(len(s))
                    for t in top:
                        rows["query_idx"].append(qi)
                        rows[id_col].append(int(sub_ids[t]))
                        rows["cosine"].append(float(s[t]))
            return pa.table({"query_idx": pa.array(rows["query_idx"], pa.int32()),
                             id_col: pa.array(rows[id_col], pa.int64()),
                             "cosine": pa.array(rows["cosine"], pa.float64())})

    cands = ds.map_batches(ProbeSearch, batch_format="pyarrow",
                           concurrency=concurrency or _pool(), num_cpus=1).to_pandas()
    out = []
    for qi, g in cands.groupby("query_idx"):
        g = g.sort_values(["cosine", id_col], ascending=[False, True]).head(k)
        out.append(g.assign(rank=np.arange(1, len(g) + 1)))
    res = pd.concat(out, ignore_index=True) if out else cands.assign(rank=[])
    res["cosine"] = res["cosine"].round(6)
    return res[["query_idx", id_col, "cosine", "rank"]]


def assign_clusters(ds, centroids: np.ndarray,
                    vec_col: str = "embedding", id_col: str = "vec_id"):
    """Dataset[(id, cluster)]: each vector's nearest centroid by cosine
    (ties -> lowest centroid id).  The routing step IVF's search uses,
    exposed as a first-class op: centroids broadcast ONCE via ray.put,
    one vectorized matmul + argmax per batch, nothing shuffles."""
    import ray

    c = _normalize(np.atleast_2d(np.asarray(centroids, np.float64)))
    cref = ray.put(c)

    def assign(batch: pa.Table) -> pa.Table:
        cc = ray.get(cref)
        m = _normalize(_to_matrix(batch.column(vec_col)))
        sims = m @ cc.T
        # argmax returns the FIRST maximum -> lowest centroid id on ties
        li = sims.argmax(axis=1).astype(np.int64)
        return pa.table({id_col: batch.column(id_col).cast(pa.int64()),
                         "cluster": pa.array(li)})

    return ds.map_batches(assign, batch_format="pyarrow")
