"""Composed training-data curation: quality/language gate + exact dedup.

The flagship composition a 100 TB pre-training pipeline runs end-to-end
(filter -> dedup -> keep representative), expressed Ray-Data-first:

- ONE fused read pass labels every doc (quality score, language id, md5
  fingerprint) and filters immediately — rejected docs never leave the
  stage, and the text column never enters the shuffle;
- the dedup shuffle moves only (doc_id, fp, lang_pred, quality) rows
  (~50 B/doc), keyed by fingerprint through `readutil.keyed_map_groups`
  so the Ray group count stays flat at any corpus size;
- the winner per fingerprint is the minimum doc_id (deterministic), with
  its labels — SQL-mirrorable, so the whole composition is oracle-checked.

Callers that need the curated text back semi-join the winner ids against
the source; that join and the id filters `keep_ids`/`drop_ids` share one
body, `_id_join`: it materializes the id side once (so the label pass
runs once per call), broadcasts it under a threshold and otherwise runs
Ray Data's native `Dataset.join`.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from nem_mms_ray.ops.readutil import keyed_map_groups
from nem_mms_ray.ops.textstats import LangId, fingerprint_batch, quality_score_batch


class CurateLabel:
    """Label stage: doc -> (doc_id, fp, lang_pred, quality), filtered.

    Stateful pattern: the LangId stopword tables and word regex build once
    per worker (`_label_task` caches them); each batch runs the three
    vectorized labelers and applies the quality/language gate before
    anything is emitted.
    """

    def __init__(self, quality_min: float = 0.0, lang: str | None = None,
                 id_col: str = "doc_id", text_col: str = "text"):
        self.langid = LangId()
        self.quality_min = quality_min
        self.lang = lang
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.id_col != "doc_id" or self.text_col != "text":
            batch = batch.rename_columns(
                ["doc_id" if c == self.id_col else
                 "text" if c == self.text_col else c
                 for c in batch.column_names])
        import pyarrow.compute as pc

        q = np.asarray(quality_score_batch(batch).column("quality"), np.float64)
        lp = self.langid(batch).column("lang_pred")
        keep = q >= self.quality_min
        if self.lang is not None:
            keep &= np.asarray(pc.equal(lp, self.lang))
        mask = pa.array(keep)
        fp = fingerprint_batch(batch).column("fp").filter(mask)
        return pa.table({
            "doc_id": batch.column("doc_id").filter(mask).cast(pa.int64()),
            "fp": fp,
            "lang_pred": lp.filter(mask),
            "quality": pa.array(q[keep], pa.float64()),
        })


_WORKER_LABELERS: dict = {}


def _label_task(batch: pa.Table, **kw) -> pa.Table:
    """Task-mode wrapper: warm Ray workers cache the CurateLabel stage
    (stopword tables, compiled regex) across tasks like an actor would,
    without the actor-pool ramp-up (~3s on this sandbox)."""
    key = tuple(sorted(kw.items()))
    st = _WORKER_LABELERS.get(key)
    if st is None:
        st = _WORKER_LABELERS[key] = CurateLabel(**kw)
    return st(batch)


def curate_documents(ds, quality_min: float = 0.0, lang: str | None = None,
                     id_col: str = "doc_id", text_col: str = "text"):
    """Dataset[(doc_id, lang_pred, quality)] of curated survivors:
    quality >= quality_min, (optional) lang_pred == lang, exact-dedup
    winner (min doc_id) per md5 fingerprint."""
    import functools

    labeled = ds.map_batches(
        functools.partial(_label_task, quality_min=quality_min, lang=lang,
                          id_col=id_col, text_col=text_col),
        batch_format="pyarrow",
        num_cpus=1,
    )

    def partial_winners(t: pa.Table) -> pa.Table:
        # combiner: per-batch winner per fingerprint BEFORE the shuffle —
        # a mega-duplicate fp (e.g. a boilerplate page repeated across the
        # corpus) then contributes at most one row per batch to its bucket
        # instead of concentrating every occurrence in one task
        df = t.to_pandas()
        w = df.loc[df.groupby("fp")["doc_id"].idxmin()]
        return pa.Table.from_pandas(w, preserve_index=False)

    def pick_winners(g: pd.DataFrame) -> pd.DataFrame:
        w = g.loc[g.groupby("fp")["doc_id"].idxmin()]
        return pd.DataFrame({
            "doc_id": w["doc_id"].to_numpy(np.int64),
            "lang_pred": w["lang_pred"],
            "quality": w["quality"].to_numpy(np.float64),
        })

    return keyed_map_groups(
        labeled.map_batches(partial_winners, batch_format="pyarrow"),
        ["fp"], pick_winners, "pandas")


def curated_text_semijoin(source_ds, winners_ds, id_col: str = "doc_id",
                          text_col: str = "text",
                          max_broadcast_ids: int = 5_000_000):
    """Semi-join the curation winners back against the source corpus —
    the "last mile" that turns the ~50 B/doc winner labels into usable
    curated DATA (reference analog: the pipeline ends in written tables,
    src/packages/mod.rs:219-235, not summaries).

    Returns Dataset[(doc_id, text, lang_pred, quality)].  Shapes: see
    `_id_join`; above `max_broadcast_ids` winners the source text crosses
    the join's shuffle once (label rows are ~50 B: 5M winners ~ 250 MB of
    driver/worker heap under the broadcast shape)."""
    labels = winners_ds.map_batches(
        lambda t: pa.table({
            "id": t.column("doc_id").cast(pa.int64()),
            "lang_pred": t.column("lang_pred").cast(pa.string()),
            "quality": t.column("quality").cast(pa.float64())}),
        batch_format="pyarrow")
    return _id_join(source_ds.select_columns([id_col, text_col]), labels,
                    "inner", id_col, max_broadcast_ids)


def _id_join(ds, ids_ds, join_type: str, id_col: str,
             max_broadcast_ids: int):
    """Shared body of `keep_ids` ("left_semi"), `drop_ids` ("left_anti")
    and `curated_text_semijoin` ("inner"): filter `ds` by membership of
    `id_col` in `ids_ds`'s `id` column.  For "inner" the id side also
    carries `lang_pred` and `quality`, attached to each kept row.  Both
    shapes emit `id_col` as int64.

    The id side is materialized once and counted from that, so whatever
    produced it (for the text join, the label + exact-dedup pass) runs
    once per call.  Two shapes, chosen on that count:
    - broadcast (<= max_broadcast_ids): the sorted ids (+ labels) ship
      once via ray.put; one map_batches over `ds` filters by searchsorted
      and takes the labels at the same positions.  Zero shuffles.
    - native hash join (`Dataset.join`) above it: everything stays
      worker-side; `ds` rows cross the shuffle once (unavoidable without
      knowing the set)."""
    import ray

    ids_ds = ids_ds.materialize()
    n_ids = ids_ds.count()
    # Ray 2.49's join raises ArrowInvalid when its right side has no rows,
    # so an empty id set always takes the broadcast shape
    if n_ids == 0 or n_ids <= max_broadcast_ids:
        side = (ids_ds.to_pandas() if n_ids else
                pd.DataFrame({"id": np.zeros(0, np.int64), "lang_pred": [],
                              "quality": np.zeros(0, np.float64)}))
        ids = side["id"].to_numpy(np.int64)
        order = np.argsort(ids, kind="stable")
        ref = ray.put((ids[order],) + (
            (side["lang_pred"].to_numpy(object)[order],
             side["quality"].to_numpy(np.float64)[order])
            if join_type == "inner" else ()))

        def member_filter(batch: pa.Table) -> pa.Table:
            s, *labels = ray.get(ref)
            key = batch.column(id_col).cast(pa.int64())
            ids = np.asarray(key, np.int64)
            pos = np.clip(np.searchsorted(s, ids), 0, max(len(s) - 1, 0))
            hit = (s[pos] == ids) if len(s) else np.zeros(len(ids), bool)
            batch = batch.set_column(batch.schema.get_field_index(id_col),
                                     id_col, key)
            out = batch.filter(pa.array(hit if join_type != "left_anti"
                                        else ~hit))
            if labels:
                lang, q = labels
                out = out.append_column("lang_pred", pa.array(
                    lang[pos[hit]].tolist(), pa.string())).append_column(
                    "quality", pa.array(q[pos[hit]], pa.float64()))
            return out

        return ds.map_batches(member_filter, batch_format="pyarrow")

    from nem_mms_ray.ops.dedup import _join_partitions

    def int64_key(t: pa.Table, name: str = id_col) -> pa.Table:
        i = t.schema.get_field_index(name)
        return t.set_column(i, id_col, t.column(i).cast(pa.int64()))

    right = ids_ds.map_batches(lambda t: int64_key(t, "id"),
                               batch_format="pyarrow")
    if join_type != "inner":
        right = right.select_columns([id_col])
    return ds.map_batches(int64_key, batch_format="pyarrow").join(
        right, join_type=join_type, num_partitions=_join_partitions(),
        on=(id_col,))


def drop_ids(ds, drop_ds, id_col: str = "doc_id",
             max_broadcast_ids: int = 5_000_000):
    """Anti-join: rows of `ds` whose `id_col` does NOT appear in `drop_ds`
    (a Dataset with an `id` column).  All other columns pass through.
    Shapes: see `_id_join`."""
    return _id_join(ds, drop_ds, "left_anti", id_col, max_broadcast_ids)


def keep_ids(ds, keep_ds, id_col: str = "doc_id",
             max_broadcast_ids: int = 5_000_000):
    """Semi-join: rows of `ds` whose `id_col` DOES appear in `keep_ds`
    (a Dataset with an `id` column).  All other columns pass through —
    the generic twin of `drop_ids`, used by the web pipeline's
    per-domain cap (the winner set filters the corpus before curation).
    Shapes: see `_id_join`; an empty keep set yields an empty result."""
    return _id_join(ds, keep_ds, "left_semi", id_col, max_broadcast_ids)


def curate_documents_near(ds_factory, quality_min: float = 0.0,
                          lang: str | None = None, threshold: float = 1.0,
                          id_col: str = "doc_id", text_col: str = "text",
                          text_map=None, **semijoin_kw):
    """The full curation endgame (VERDICT r3 item 8): gate + exact dedup +
    text semi-join, then MinHash near-dup pairs -> connected components ->
    keep only each component's representative (its minimum id).

    Returns Dataset[(doc_id, text, lang_pred, quality)] — the curated
    corpus with near-duplicates collapsed.

    The curated intermediate is materialized once: it is consumed twice
    (the minhash pass, which tokenizes each doc once, and the final
    anti-join) and is the natural checkpoint of a production run (which
    would `write_parquet` it instead — post-gate + exact-dedup, so a
    fraction of the corpus; Ray's object store spills it rather than
    re-running the corpus reads + label pass).  Docs that appear in no near-dup
    pair are their own representative and pass through untouched.
    """
    from nem_mms_ray.ops.dedup import connected_components, minhash_dedup

    curated = curate_documents_with_text(
        ds_factory, quality_min=quality_min, lang=lang, id_col=id_col,
        text_col=text_col, text_map=text_map, **semijoin_kw).materialize()
    near_in = curated.select_columns([id_col, text_col])
    if (id_col, text_col) != ("doc_id", "text"):
        near_in = near_in.map_batches(
            lambda t: t.rename_columns(["doc_id", "text"]),
            batch_format="pyarrow")
    pairs = minhash_dedup(near_in, threshold=threshold)
    comps = connected_components(pairs)
    losers = comps.map_batches(
        lambda t: pa.table({"id": t.column("id").filter(
            pa.compute.not_equal(t.column("id"), t.column("component")))}),
        batch_format="pyarrow")
    return drop_ids(curated, losers, id_col=id_col)


def curate_documents_with_text(ds_factory, quality_min: float = 0.0,
                               lang: str | None = None,
                               id_col: str = "doc_id", text_col: str = "text",
                               text_map=None, **semijoin_kw):
    """curate_documents + curated_text_semijoin in one call.

    `ds_factory` is a zero-arg callable returning a fresh source Dataset —
    the corpus is read TWICE (label+dedup pass, then the semi-join pass;
    each runs once); passing a factory instead of a Dataset makes the
    double read explicit and lets the second pass prune to (id, text)
    columns at the read.

    `text_map` (optional, Dataset -> Dataset): a PER-ROW-DETERMINISTIC
    transform of `text_col` only (e.g. `ops/scrub.scrub_text`).  It is
    applied to the full corpus in the label pass — so the quality gate,
    fingerprints and dedup all see the transformed text — but in the
    semi-join pass only to the WINNERS (after the filter), which is
    output-identical (map∘filter == filter∘map for a per-row transform)
    and skips transforming losers a second time."""
    gate_src = (lambda: text_map(ds_factory())) if text_map else ds_factory
    winners = curate_documents(gate_src(), quality_min=quality_min,
                               lang=lang, id_col=id_col, text_col=text_col)
    out = curated_text_semijoin(ds_factory(), winners, id_col=id_col,
                                text_col=text_col, **semijoin_kw)
    return text_map(out) if text_map else out
