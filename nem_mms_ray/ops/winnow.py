"""Winnowing fingerprints: substring-level duplicate detection.

The substring-dedup family (Lee et al. 2022, "Deduplicating Training Data
Makes Language Models Better") targets byte SPANS copied between documents
— the regime whole-doc shingle MinHash misses (a 300-char license block
inside two otherwise-different pages barely moves doc-level Jaccard, but
is exactly the memorization hazard that paper measures).  The exact tool
is a corpus suffix array, which is inherently sequential; the published
distributable alternative is local fingerprinting: Schleimer / Wilkerson /
Aiken, SIGMOD 2003 ("Winnowing: Local Algorithms for Document
Fingerprinting").

Per document: rolling polynomial hashes over all codepoint k-grams, then
the MINIMUM hash inside every window of `window` consecutive k-gram hashes
is selected (ties collapse — only the selected hash VALUES matter for pair
detection, so min-per-window equals the paper's rightmost-min rule).  Two
properties carry the semantics:

* GUARANTEE (the paper's correctness property): two docs sharing a
  substring of length >= window + k - 1 codepoints share at least one
  selected fingerprint — no false negatives above the threshold length.
* SOUNDNESS: every selected fingerprint is a real k-gram hash of the doc,
  so a reported pair shares a k-codepoint substring (up to 64-bit hash
  equality, the same no-collision contract as the gram-hash dedup family).
* DENSITY: ~2/(window+1) of all k-grams are selected, so the exploded
  index is ~window/2 x smaller than the full k-gram explode — the lever
  that makes substring-level indexing feasible at 100 TB.

Distributed shape = the exact n-gram family's (`ops/dedup.py`,
`ngram_jaccard_pairs`): ONE map pass explodes (doc_id, fp, sz) with the
doc's selected-fingerprint count stamped on every row -> fp-keyed group
shuffle (`readutil.keyed_map_groups`) -> per-bucket vectorized pair
expansion with the same frequent-fingerprint skew guard
(`_gram_pairs_in_bucket`, reused) -> `bucketed_pair_agg` sums shared-fp
counts per pair.  Cost scales with
fingerprint SHARING, not n^2; a boilerplate fingerprint shared by M docs
is bounded by the same opt-in `max_fp_df` cap, logged never silent.

`window=1` selects EVERY k-gram: pairs sharing ANY k-codepoint substring,
exactly — the guaranteed-recall regime the DuckDB oracle mirrors with a
substring-explode SQL (`tests/test_winnow.py`).  `window>1` is the scale
regime, pinned by the guarantee/soundness tests.
"""

from __future__ import annotations

import functools
import logging

import numpy as np
import pyarrow as pa

logger = logging.getLogger(__name__)

# odd multiplier -> bijective modulo 2^64 per step; same constant family as
# the dedup gram hashes (_GRAM_MULT[0], ops/dedup.py)
_B = np.uint64(0x9E3779B97F4A7C15)


def _codepoints(text) -> np.ndarray:
    """Codepoint array (uint64) of a python string; () for None/''.

    utf-32-le round-trip is the vectorized way to get CHARACTER (not byte)
    semantics, matching SQL substr() in the oracle mirror."""
    if not text:
        return np.zeros(0, np.uint64)
    return np.frombuffer(text.encode("utf-32-le"), np.uint32).astype(np.uint64)


_M64 = (1 << 64) - 1


def _kgram_hashes(cps: np.ndarray, k: int) -> np.ndarray:
    """Positional polynomial hash of every k-gram: h = sum cp[j]*B^(k-1-j)
    (mod 2^64, numpy wrap).  Equal k-grams hash equal regardless of
    position; the positional weights keep anagrams apart.  The reference
    form: the batch hot path is the C kernel behind `_flat_hashes`,
    bit-identical (test_flat_hashes_native_parity)."""
    nh = len(cps) - k + 1
    if nh <= 0:
        return np.zeros(0, np.uint64)
    pows = np.empty(k, np.uint64)
    pw = 1
    for j in range(k - 1, -1, -1):  # python ints: no numpy scalar-overflow warn
        pows[j] = pw
        pw = (pw * int(_B)) & _M64
    win = np.lib.stride_tricks.sliding_window_view(cps, k)
    return (win * pows[None, :]).sum(axis=1, dtype=np.uint64)


def _flat_corpus(texts) -> tuple[np.ndarray, np.ndarray]:
    """(flat codepoints uint32, per-doc codepoint lengths) for a whole
    batch — ONE join + utf-32 encode instead of per-doc encodes.  uint32
    is the C kernel's input form; the numpy arithmetic below upcasts to
    uint64 where it multiplies."""
    joined = "".join(t if t else "" for t in texts)
    flat = np.frombuffer(joined.encode("utf-32-le"), np.uint32)
    lens = np.fromiter((len(t) if t else 0 for t in texts), np.int64,
                       count=len(texts))
    return flat, lens


def _flat_hashes(flat: np.ndarray, k: int) -> np.ndarray:
    """k-gram hashes at EVERY flat position (including ones spanning doc
    boundaries — callers mask with `_valid_positions`).

    The C kernel (`winnow_kernel.c:rolling_hashes`, gated on uint32 input,
    the `_flat_corpus` form, so no hidden copy) streams one fused
    Rabin-Karp pass with no allocation, bit-identical to `_kgram_hashes`
    (test_flat_hashes_native_parity).  Without it the reference
    `_kgram_hashes` runs over the whole flat array: it holds N x k uint64
    temporaries (the windowed product), so the charlm hash pass (k <= 3
    by default) costs a few times the corpus in memory per batch."""
    if flat.dtype == np.uint32 and len(flat) >= k:
        from nem_mms_ray.ops import _winnow_native

        h = _winnow_native.rolling_hashes(flat, k, int(_B))
        if h is not None:
            return h
    return _kgram_hashes(flat, k)


def _valid_positions(lens: np.ndarray, k: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pos, doc_idx, nh): the flat positions whose k-gram lies entirely
    inside one doc, the doc index of each, and per-doc position counts."""
    nh = np.maximum(lens - k + 1, 0)
    offs = np.cumsum(lens) - lens
    total = int(nh.sum())
    cum = np.cumsum(nh) - nh
    intra = np.arange(total, dtype=np.int64) - np.repeat(cum, nh)
    pos = np.repeat(offs, nh) + intra
    doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), nh)
    return pos, doc_idx, nh


def winnow_select(cps: np.ndarray, k: int, window: int) -> np.ndarray:
    """Distinct selected fingerprint values (uint64) for one doc.

    Docs with fewer than `window` k-grams use a truncated window (their
    global min survives), so every doc with >= k codepoints is indexed;
    shorter docs have no k-gram and emit nothing (outside the guarantee
    length anyway)."""
    h = _kgram_hashes(cps, k)
    if len(h) == 0:
        return h
    w = min(window, len(h))
    if w > 1:
        h = np.lib.stride_tricks.sliding_window_view(h, w).min(axis=1)
    return np.unique(h)


def _perdoc_unique(sel: np.ndarray, sdoc: np.ndarray, ndocs: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(doc_idx, distinct fps) from run-deduped doc-major (sel, sdoc):
    per-doc np.unique over the pre-sliced contiguous segments — measured
    ~7x cheaper than a global lexsort of the same rows."""
    if not len(sel):
        return np.zeros(0, np.int64), np.zeros(0, np.uint64)
    cnts = np.bincount(sdoc, minlength=ndocs)
    cuts = np.concatenate([[0], np.cumsum(cnts)])
    outs = [np.unique(sel[cuts[i]:cuts[i + 1]]) for i in range(ndocs)]
    ucnt = np.fromiter((len(o) for o in outs), np.int64, count=ndocs)
    return (np.repeat(np.arange(ndocs, dtype=np.int64), ucnt),
            np.concatenate(outs))


def _batch_winnow_sets(texts, k: int, window: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(doc_idx, fp) of every doc's distinct selected fingerprints,
    set-identical per doc to `winnow_select`.  C kernel, else the scalar
    reference: the kernel (`winnow_kernel.c`) runs the rolling hash,
    windowed min and adjacent-run dedup over the whole batch in one fused
    pass (bit-identical values — Rabin-Karp update of the same polynomial;
    test_native_kernel_parity), leaving a per-doc np.unique tail; without
    it each doc goes through `winnow_select`."""
    ndocs = len(texts)
    from nem_mms_ray.ops import _winnow_native

    flat, lens = _flat_corpus(texts)
    native = _winnow_native.winnow_batch(flat, lens, k, window, int(_B))
    if native is not None:
        sel, cnts = native
        sdoc = np.repeat(np.arange(ndocs, dtype=np.int64), cnts)
        return _perdoc_unique(sel, sdoc, ndocs)
    sets = [winnow_select(_codepoints(t), k, window) for t in texts]
    sdoc = np.repeat(np.arange(ndocs, dtype=np.int64),
                     [len(s) for s in sets])
    fps = np.concatenate(sets) if sets else np.zeros(0, np.uint64)
    return sdoc, fps


def _winnow_explode(batch: pa.Table, k: int, window: int, id_col: str,
                    text_col: str) -> pa.Table:
    """(id, gram, sz) rows — one per selected fingerprint, with the
    doc's selected count stamped on each row (the sz-carry trick from
    ngram_jaccard_pairs: no second pass, no driver size dict).  Column
    names match `_gram_pairs_in_bucket`'s contract so the pair stage is
    shared verbatim with the n-gram family."""
    ids = np.asarray(batch.column(id_col), dtype=np.int64)
    sdoc, fps = _batch_winnow_sets(batch.column(text_col).to_pylist(),
                                   k, window)
    counts = np.bincount(sdoc, minlength=len(ids)).astype(np.int64)
    return pa.table({
        id_col: pa.array(ids[sdoc]),
        "gram": pa.array(fps.view(np.int64)),
        "sz": pa.array(counts[sdoc]),
    })


def winnow_dup_pairs(ds, k: int = 8, window: int = 4, min_shared: int = 1,
                     id_col: str = "doc_id", text_col: str = "text",
                     max_fp_df: int | None = None):
    """Dataset[(a, b, shared, containment)], a < b: doc pairs sharing
    >= `min_shared` selected fingerprints.

    `shared` counts distinct shared fingerprints; `containment` =
    shared / min(|fps_a|, |fps_b|) — the span-copy signal (a small doc
    fully embedded in a big one scores 1.0 where Jaccard would vanish).

    window=1: exact "shares any k-codepoint substring" semantics (DuckDB
    oracle regime).  window>1: candidates for spans >= window+k-1, sound
    per selected fp.  `max_fp_df` is the same OPT-IN frequent-key skew
    guard as `ngram_jaccard_pairs.max_gram_df` (None = exact contract:
    boilerplate shared by M docs emits its M^2/2 pairs — cap it only
    after exact/near dedup has run, drops are logged never silent)."""
    from nem_mms_ray.ops.dedup import _gram_pairs_in_bucket, bucketed_pair_agg
    from nem_mms_ray.ops.readutil import keyed_map_groups

    explode = functools.partial(_winnow_explode, k=k, window=window,
                                id_col=id_col, text_col=text_col)
    inter = keyed_map_groups(
        ds.map_batches(explode, batch_format="pyarrow"), ["gram"],
        functools.partial(_gram_pairs_in_bucket, id_col=id_col,
                          max_gram_df=max_fp_df), "pandas")
    pairs = bucketed_pair_agg(
        inter,
        lambda g: g.groupby(["a", "b"], as_index=False)
                   .agg({"cnt": "sum", "na": "max", "nb": "max"}))

    def score(t: pa.Table) -> pa.Table:
        a = np.asarray(t.column("a"), np.int64)
        b = np.asarray(t.column("b"), np.int64)
        c = np.asarray(t.column("cnt"), np.int64)
        na = np.asarray(t.column("na"), np.int64)
        nb = np.asarray(t.column("nb"), np.int64)
        keep = c >= min_shared
        cont = np.round(c[keep] / np.minimum(na[keep], nb[keep]), 6)
        return pa.table({"a": pa.array(a[keep]), "b": pa.array(b[keep]),
                         "shared": pa.array(c[keep]),
                         "containment": pa.array(cont)})

    return pairs.map_batches(score, batch_format="pyarrow")


def winnow_dedup(ds, min_containment: float = 0.5, min_shared: int = 2,
                 k: int = 8, window: int = 4, id_col: str = "doc_id",
                 text_col: str = "text", max_fp_df: int | None = None):
    """The substring-dedup ENDGAME (the minhash family's shape,
    `ops/curate.curate_documents_near`): winnow pairs above the
    containment threshold -> connected components -> keep only each
    cluster's minimum-id representative.  Returns the surviving Dataset
    with all input columns.

    Containment (shared / min fingerprint count) is the span-copy signal:
    at the 0.5 default a doc half-embedded in another clusters with it,
    while ordinary phrase sharing does not.  The input is materialized
    once — it is consumed by the fingerprint pass and the final anti-join
    (a production run would checkpoint it to parquet instead)."""
    import pyarrow.compute as pc

    from nem_mms_ray.ops.curate import drop_ids
    from nem_mms_ray.ops.dedup import connected_components

    ds = ds.materialize()
    pairs = winnow_dup_pairs(ds, k=k, window=window, min_shared=min_shared,
                             id_col=id_col, text_col=text_col,
                             max_fp_df=max_fp_df)
    flagged = pairs.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("containment"),
                                            min_containment)),
        batch_format="pyarrow")
    comps = connected_components(flagged)
    losers = comps.map_batches(
        lambda t: pa.table({"id": t.column("id").filter(
            pc.not_equal(t.column("id"), t.column("component")))}),
        batch_format="pyarrow")
    return drop_ids(ds, losers, id_col=id_col)
