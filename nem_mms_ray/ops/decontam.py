"""Benchmark decontamination: flag corpus docs that share word n-grams
with an evaluation/benchmark set.

The standard pre-training hygiene step (an eval example leaking into the
training corpus inflates benchmark scores): every doc whose text shares at
least one n-gram window — or at least `threshold` of its own distinct
n-grams — with any benchmark doc is flagged for removal.

Ray-Data-first shape (the small-side-broadcast rule): the benchmark set is
tiny relative to the corpus (eval suites are thousands of docs against a
10^12-doc corpus), so its DISTINCT gram-hash union is built once, sorted,
and broadcast via ray.put; the corpus pass is then a pure `map_batches`
with a per-batch vectorized searchsorted membership — zero shuffles, and
the corpus text streams through exactly once.  Gram hashing reuses the
dedup module's `_batch_word_ngrams` (one dictionary-encode word-hash pass
per batch), so decontamination n-grams are bit-compatible with the
Jaccard/minhash family.

Scale bound: the broadcast is the benchmark's distinct gram count x 8 B,
gated by `max_benchmark_grams` (default 50M ~ 400 MB, the same order as
the dedup verify broadcast gate).  A benchmark too large to broadcast is
no longer a "benchmark" — at that point run `ngram_jaccard_pairs` over
corpus+benchmark union tagged by side (the distributed gram explode
semi-join), which this module deliberately does not duplicate.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

from nem_mms_ray.ops.dedup import _batch_word_ngrams

logger = logging.getLogger(__name__)


def benchmark_gram_union(benchmark, ngram: int = 8,
                         text_col: str = "text",
                         max_benchmark_grams: int = 50_000_000) -> np.ndarray:
    """Sorted distinct uint64 gram hashes of the benchmark side.

    `benchmark` is a list[str], a pyarrow Table, or a ray.data.Dataset.
    A Dataset is reduced distributedly: each batch contributes its own
    per-batch distinct union (one small uint64 row per batch), and only
    those pre-deduplicated partials reach the driver for the final merge
    — never raw per-doc gram rows.
    """
    if isinstance(benchmark, list):
        parts = [np.unique(np.concatenate(
            _batch_word_ngrams(benchmark, ngram) or
            [np.zeros(0, np.uint64)]))]
    elif isinstance(benchmark, pa.Table):
        parts = [np.unique(np.concatenate(
            _batch_word_ngrams(benchmark.column(text_col), ngram) or
            [np.zeros(0, np.uint64)]))]
    else:  # ray.data.Dataset
        def batch_union(t: pa.Table) -> pa.Table:
            sets = _batch_word_ngrams(t.column(text_col), ngram)
            u = (np.unique(np.concatenate(sets)) if sets
                 else np.zeros(0, np.uint64))
            return pa.table({"gram": pa.array(u, pa.uint64())})

        parts = [np.asarray(t.column("gram"), np.uint64)
                 for t in benchmark.map_batches(
                     batch_union, batch_format="pyarrow")
                 .iter_batches(batch_format="pyarrow", batch_size=None)
                 if t.num_rows]
    grams = (np.unique(np.concatenate(parts)) if parts
             else np.zeros(0, np.uint64))
    if len(grams) > max_benchmark_grams:
        raise ValueError(
            f"benchmark gram union has {len(grams)} distinct grams, over "
            f"the broadcast gate max_benchmark_grams={max_benchmark_grams}"
            " — a set that size should go through the distributed "
            "ngram_jaccard_pairs explode instead of a broadcast")
    return grams


def decontaminate(ds, benchmark, ngram: int = 8, threshold: float = 0.0,
                  id_col: str = "doc_id", text_col: str = "text",
                  max_benchmark_grams: int = 50_000_000):
    """Dataset[(doc_id, n_grams, hits, overlap, contaminated)].

    hits     = |doc's distinct grams ∩ benchmark grams| (exact),
    overlap  = hits / max(n_grams, 1),
    contaminated = hits > 0 when threshold == 0 (strict: ANY shared
    n-gram window flags the doc — the usual contract at ngram >= 8),
    else overlap >= threshold.

    Docs shorter than `ngram` words hash as one join-all gram (the
    `_combine_ngrams` short-doc rule), so an exact copy of a short
    benchmark doc still flags.  Null/empty text rows carry n_grams = 0,
    hits = 0 and are never flagged.
    """
    import ray

    grams = benchmark_gram_union(benchmark, ngram, text_col,
                                 max_benchmark_grams)
    logger.info("decontaminate: %d distinct benchmark grams (ngram=%d)",
                len(grams), ngram)
    gram_ref = ray.put(grams)

    def score(t: pa.Table) -> pa.Table:
        bench = ray.get(gram_ref)  # zero-copy plasma view, once per batch
        sets = _batch_word_ngrams(t.column(text_col), ngram)
        n = np.fromiter((len(s) for s in sets), np.int64, len(sets))
        hits = np.zeros(len(sets), np.int64)
        if len(bench) and n.sum():
            # one flat searchsorted for the whole batch, summed back per
            # doc — no per-doc Python loop
            flat = np.concatenate(sets)
            pos = np.clip(np.searchsorted(bench, flat), 0, len(bench) - 1)
            hit = bench[pos] == flat
            doc = np.repeat(np.arange(len(sets)), n)
            hits = np.bincount(doc[hit], minlength=len(sets)).astype(np.int64)
        overlap = hits / np.maximum(n, 1)
        flagged = (hits > 0) if threshold <= 0.0 else (overlap >= threshold)
        return pa.table({
            id_col: t.column(id_col).cast(pa.int64()),
            "n_grams": pa.array(n, pa.int64()),
            "hits": pa.array(hits, pa.int64()),
            "overlap": pa.array(overlap, pa.float64()),
            "contaminated": pa.array(flagged),
        })

    return ds.map_batches(score, batch_format="pyarrow")
