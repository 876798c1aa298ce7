"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Scale shapes (ray_guide patterns):
- exact: vectorized md5 per batch -> groupby(fp) keep min doc_id (one small
  shuffle over 16-byte keys, pre-hashed so text never shuffles)
- minhash: ONE pass tokenizes each doc (`MinHashStage`: band keys plus the
  serialized shingle set) -> explode to (band, band_key, doc_id) -> groupby
  bands -> candidate pairs -> distinct -> exact Jaccard in
  `pairs_payload_metric` over the same pass's shingle sets
- simhash/embedding: per-batch signatures; bucket by prefix/hyperplane for
  candidate generation.
- clusters: `connected_components` turns pairs into min-id components (a
  streamed driver union-find, or distributed label propagation).

One implementation per step: `_group_pairs` is the one expander of key
groups into candidate pairs (MinHash bands, n-gram grams,
SimHash bands, embedding hyperplane buckets; each caller keeps its own
oversized-group rule), and `pairs_payload_metric` the one pair scorer of
the operators that verify candidates against per-id payloads (shingle
sets, vectors).  Every keyed shuffle here (band keys, grams, pairs,
payload ids) is `readutil.keyed_map_groups`.  All randomness is seeded;
outputs are deterministic for a given input.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from nem_mms_ray.ops import readutil
from nem_mms_ray.ops.readutil import bucket_keys, key_buckets, keyed_map_groups

logger = logging.getLogger(__name__)

_P61 = np.uint64((1 << 61) - 1)  # Mersenne prime for minhash permutations
_POPCNT = np.array([bin(i).count("1") for i in range(256)], np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (byte-LUT; numpy<2 lacks
    bitwise_count)."""
    if len(x) == 0:
        return np.zeros(0, np.int64)
    return _POPCNT[np.ascontiguousarray(x).view(np.uint8).reshape(len(x), 8)].sum(
        axis=1).astype(np.int64)


def _group_pairs(keys: tuple, doc: np.ndarray, cap: int,
                 chain: str | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every doc pair sharing a key group: (ia, ib, big), where ia/ib are
    ROW POSITIONS into the inputs (doc[ia] < doc[ib]; a caller reads any
    per-row column through them) and big holds the sizes of the groups
    above `cap` docs.  A group is the rows with equal values in every
    array of `keys`; a doc repeated under one key counts once.

    The one candidate-pair expander of the near-dup operators.  One
    lexsort (keys, then doc) finds the groups and the repeats; pairs then
    expand once per DISTINCT GROUP SIZE through a shared triu_indices
    broadcast, not once per group — a per-group Python loop was 32 core-s
    on the sf0.1 flagship's ~100k multi-doc MinHash keys, more than the
    MinHash pass itself.  Row order of the pairs is unspecified; every
    consumer is order-insensitive.

    Oversized groups (the skew guard against an M^2/2 blow-up): with
    `chain` set they pair each doc with the group's min doc (O(M) pairs;
    duplicates still link to a representative and the verify rejects
    false candidates), logged under that label; without it they emit no
    pair, and the caller reports them from `big`."""
    doc = np.asarray(doc, np.int64)
    none = np.zeros(0, np.int64)
    if not len(doc):
        return none, none, none
    keys = [np.asarray(k) for k in keys]
    order = np.lexsort((doc, *keys[::-1]))
    skeys = [k[order] for k in keys]
    sdoc = doc[order]
    new_grp = np.zeros(len(doc), np.bool_)
    new_grp[0] = True
    for k in skeys:
        new_grp[1:] |= k[1:] != k[:-1]
    keep = np.ones(len(doc), np.bool_)
    keep[1:] = new_grp[1:] | (sdoc[1:] != sdoc[:-1])
    rows, new_grp = order[keep], new_grp[keep]
    starts = np.nonzero(new_grp)[0]
    sizes = np.diff(np.append(starts, len(rows)))
    big = (sizes > cap) & (sizes >= 2)
    out_a, out_b = [none], [none]
    if chain is not None and big.any():
        logger.warning("dedup: %d oversized %s group(s), largest %d ids — "
                       "chaining to min id", int(big.sum()), chain,
                       int(sizes[big].max()))
        out_a.append(np.repeat(starts[big], sizes[big] - 1))
        out_b.append(np.nonzero(np.repeat(big, sizes) & ~new_grp)[0])
    norm = ~big & (sizes >= 2)
    nstarts, nsizes = starts[norm], sizes[norm]
    for s in np.unique(nsizes):
        gs = nstarts[nsizes == s]
        ai, bi = np.triu_indices(int(s), k=1)
        out_a.append((gs[:, None] + ai[None, :]).ravel())
        out_b.append((gs[:, None] + bi[None, :]).ravel())
    return (rows[np.concatenate(out_a)], rows[np.concatenate(out_b)],
            sizes[big])


# ---------------------------------------------------------------------------
# distributed pair verify (shuffle-join payloads onto candidate pairs)
# ---------------------------------------------------------------------------


def _payload_store(payload_series) -> tuple[np.ndarray, np.ndarray]:
    """(flat uint8 values, int64 byte offsets) for a sequence of bytes
    payloads — the zero-copy broadcast form (numpy arrays ship through
    the object store without pickling 100k+ bytes objects) and the input
    layout of the C set-intersection kernel.  Slot k is
    flat[off[k]:off[k+1]]; one extra EMPTY slot is appended at the end
    as the router target for ids with no payload."""
    blobs = [v if isinstance(v, (bytes, bytearray, memoryview)) else b""
             for v in payload_series]
    off = np.zeros(len(blobs) + 2, np.int64)
    off[1:len(blobs) + 1] = np.cumsum([len(v) for v in blobs])
    off[len(blobs) + 1] = off[len(blobs)]  # sentinel empty slot
    flat = np.frombuffer(b"".join(blobs), np.uint8) if blobs else \
        np.zeros(0, np.uint8)
    return flat, off


def _filter_by_sorted_ids(t: pa.Table, s: np.ndarray, col: str) -> pa.Table:
    """Rows of `t` whose int64 `col` value appears in the SORTED distinct
    array `s` — the clip-then-compare searchsorted membership idiom, owned
    once (empty `s` -> empty table).  `s` MUST be sorted (np.unique /
    np.sort output)."""
    ids = np.asarray(t.column(col), np.int64)
    if not len(s):
        return t.slice(0, 0)
    pos = np.clip(np.searchsorted(s, ids), 0, len(s) - 1)
    return t.filter(pa.array(s[pos] == ids))


def _store_positions(sorted_ids: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Store slot of each id in `x` against a `_payload_store` whose rows
    are keyed by `sorted_ids` (ascending, distinct); ids absent from the
    store map to the sentinel EMPTY slot at index len(sorted_ids)."""
    empty_slot = len(sorted_ids)
    if not empty_slot:
        return np.zeros(len(x), np.int64)  # slot 0 IS the sentinel
    p = np.clip(np.searchsorted(sorted_ids, x), 0, empty_slot - 1)
    return np.where(sorted_ids[p] == x, p, empty_slot).astype(np.int64)


def _jaccard_store_batch(flat: np.ndarray, off: np.ndarray,
                         a_pos: np.ndarray, b_pos: np.ndarray,
                         min_metric: float = 0.0) -> np.ndarray:
    """Vectorized Jaccard over a `_payload_store` of serialized uint64
    shingle sets (the `MinHashStage` `payload` layout): one C
    merge-intersection call for the whole batch (`ops/setops_kernel.c`),
    ~0.4us/pair with the min_metric early exit vs ~12us/pair for per-pair
    np.intersect1d.  min_metric > 0: pairs provably below it report an
    upper bound that still thresholds identically (see intersect_counts);
    survivors are exact.  Matches `_jaccard_blobs` bit-for-bit above the
    threshold."""
    from nem_mms_ray.ops._setops_native import intersect_counts

    vals = flat.view(np.uint64)
    eoff = off // 8  # byte offsets -> uint64 element offsets
    inter = intersect_counts(vals, eoff, a_pos, b_pos, min_j=min_metric)
    na = eoff[a_pos + 1] - eoff[a_pos]
    nb = eoff[b_pos + 1] - eoff[b_pos]
    union = na + nb - inter
    return np.where(na + nb == 0, 1.0,
                    np.where(union > 0, inter / np.maximum(union, 1), 0.0))


def _keyed_store(jid: np.ndarray, payloads) -> tuple:
    """(sorted ids, flat bytes, byte offsets): a `_payload_store` keyed by
    `jid` (one payload per id), the form `_store_positions` probes."""
    order = np.argsort(jid)
    return (jid[order], *_payload_store(np.asarray(payloads, object)[order]))


def pairs_payload_metric(pairs, payloads, pair_metric, metric_name: str,
                         max_broadcast_payload: int = 256 << 20,
                         max_probe_pairs: int = 4_000_000,
                         pair_metric_batch=None,
                         metric_min: float | None = None):
    """Score candidate pairs against per-id binary payloads — the one pair
    scorer of the near-dup operators.

    pairs: Dataset[(a: int64, b: int64)], a < b, distinct.  Materialized
      here once (every regime consumes it twice; a lazy lineage such as
      a `bucketed_pair_agg` shuffle would otherwise re-execute).
    payloads: Dataset[(jid: int64, payload: binary-like)], one row per id.
      An id with no payload row scores as the empty payload b"".
    pair_metric(bytes, bytes) -> float, computed once per pair.
    pair_metric_batch (optional): vectorized twin with signature
      (flat_u8, byte_offsets, a_pos, b_pos, metric_min) -> float64 scores
      over a `_payload_store`, scoring a whole batch in one call (the C
      kernel for Jaccard: `_jaccard_store_batch`).  It may report any
      value strictly below metric_min for pairs provably under it (the
      early-exit contract); those pairs are dropped anyway.

    Returns Dataset[(a, b, <metric_name>)]: the pairs scoring at or above
    `metric_min` (every pair when it is None), scores rounded to 6 places.
    With no pair it is a zero-row Dataset with those typed columns.

    Regimes, chosen from the materialized pair count:
    - BROADCAST (at most `max_probe_pairs` pairs): the referenced ids
      stream to the driver as per-batch uniques (never raw pair rows),
      filter the payloads, and if the referenced payload rows fit
      `max_broadcast_payload` bytes (`Dataset.size_bytes` of the
      materialized rows) they ship once via ray.put as a keyed payload
      store; scoring is a plain map_batches over the pair stream.
    - TWO-SHUFFLE (above either cap): no pair id is ever collected on the
      driver above `max_probe_pairs`.  Two `keyed_map_groups` shuffles,
      payload-deduplicated:
      (1) keyed by jid: each payload meets the DISTINCT set of score
          routes (the bucket of (a, b)) whose pairs reference it and is
          emitted once per (id, route), never once per pair, so an id
          referenced by M pairs ships at most min(M, N_BUCKETS) copies;
          the attach stage's inner merge drops unreferenced ids.
      (2) keyed by route: pair rows (bare ints) meet the deduplicated
          payloads; each bucket builds one payload store and scores its
          pairs as the broadcast regime does.
      Skew bound: a score bucket holds the payloads its own pairs
      reference plus about pairs/N_BUCKETS pair rows; `readutil.N_BUCKETS`
      sizes every keyed shuffle of the operators at once.
    """
    import ray
    import ray.data as rd

    def rows(a: np.ndarray, b: np.ndarray, m) -> pa.Table:
        m = np.asarray(m, np.float64)
        if metric_min is not None:
            keep = m >= metric_min
            a, b, m = a[keep], b[keep], m[keep]
        return pa.table({"a": pa.array(a, pa.int64()),
                         "b": pa.array(b, pa.int64()),
                         metric_name: pa.array(np.round(m, 6))})

    def score(store: tuple, a: np.ndarray, b: np.ndarray) -> pa.Table:
        ids, flat, off = store
        ia, ib = _store_positions(ids, a), _store_positions(ids, b)
        if pair_metric_batch is not None:
            return rows(a, b, pair_metric_batch(
                flat, off, ia, ib, 0.0 if metric_min is None else metric_min))

        def blob(k: int) -> bytes:
            return flat[off[k]:off[k + 1]].tobytes()

        return rows(a, b, [pair_metric(blob(x), blob(y))
                           for x, y in zip(ia, ib)])

    pairs = pairs.materialize()
    n_pairs = pairs.count()
    if not n_pairs:
        # a map over zero rows never runs, so its output has no schema
        none = np.zeros(0, np.int64)
        return rd.from_arrow(rows(none, none, none))
    if n_pairs > max_probe_pairs:
        logger.info(
            "pairs_payload_metric: pair count exceeds max_probe_pairs=%d — "
            "skipping the broadcast probe; two-shuffle path with attach-side "
            "semi-join", max_probe_pairs)
        return _pairs_payload_metric_shuffle(pairs, payloads, score)

    ab = [np.unique(np.concatenate([np.asarray(t.column("a"), np.int64),
                                    np.asarray(t.column("b"), np.int64)]))
          for t in pairs.iter_batches(batch_format="pyarrow",
                                      batch_size=65536)
          if t.num_rows]
    id_ref = ray.put(np.unique(np.concatenate(ab)))

    def keep_referenced(t: pa.Table) -> pa.Table:
        return _filter_by_sorted_ids(t, ray.get(id_ref), "jid")

    referenced = payloads.map_batches(keep_referenced,
                                      batch_format="pyarrow").materialize()
    if referenced.size_bytes() > max_broadcast_payload:
        logger.info("pairs_payload_metric: referenced payloads %.0f MB exceed "
                    "broadcast cap — two-shuffle path",
                    referenced.size_bytes() / 1e6)
        return _pairs_payload_metric_shuffle(pairs, referenced, score)
    # reindex: a zero-row frame (no id has a payload) has no columns
    pdf = referenced.to_pandas().reindex(columns=["jid", "payload"])
    store_ref = ray.put(_keyed_store(pdf["jid"].to_numpy(np.int64),
                                     pdf["payload"]))

    def score_broadcast(t: pa.Table) -> pa.Table:
        return score(ray.get(store_ref), np.asarray(t.column("a"), np.int64),
                     np.asarray(t.column("b"), np.int64))

    return pairs.map_batches(score_broadcast, batch_format="pyarrow",
                             batch_size=65536)


def _pairs_payload_metric_shuffle(pairs, payloads, score):
    """The fully-distributed two-shuffle scoring path (see
    `pairs_payload_metric`, whose `score(store, a, b)` each score bucket
    calls once over its keyed payload store).  `payloads` may be
    unfiltered: the attach stage's inner merge IS the semi-join —
    unreferenced ids ship once through the first shuffle and are dropped
    there.  A pair's route is the key (`bucket_keys`) of its (a, b)
    bucket; a payload row carries the route of each pair that references
    it, so both meet in the second shuffle, keyed by route, and each of
    the N_BUCKETS routes has a score bucket of its own."""
    REF_SCHEMA = pa.schema([("jid", pa.int64()), ("route", pa.int32()),
                            ("payload", pa.large_binary())])
    n_routes = readutil.N_BUCKETS
    route_keys = bucket_keys(n_routes)

    def routes(t: pa.Table) -> np.ndarray:
        return route_keys[key_buckets(t, ["a", "b"], n_routes)]

    def explode_refs(t: pa.Table) -> pa.Table:
        # (jid, route) per pair side, deduped per batch: what the attach
        # shuffle routes — bare ints, no payloads
        route = routes(t)
        jid = np.concatenate([np.asarray(t.column("a"), np.int64),
                              np.asarray(t.column("b"), np.int64)])
        u = np.unique(np.stack([jid, np.tile(route, 2).astype(np.int64)],
                               axis=1), axis=0)
        return pa.table({
            "jid": pa.array(u[:, 0]),
            "route": pa.array(u[:, 1].astype(np.int32)),
            "payload": pa.nulls(len(u), pa.large_binary()),
        }, schema=REF_SCHEMA)

    def tag_payloads(t: pa.Table) -> pa.Table:
        return pa.table({
            "jid": t.column("jid").cast(pa.int64()),
            "route": pa.array(np.full(t.num_rows, -1, np.int32)),
            "payload": t.column("payload").cast(pa.large_binary()),
        }, schema=REF_SCHEMA)

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        # one output payload row per DISTINCT (jid, route)
        pay = g[g["route"] < 0]
        refs = g[g["route"] >= 0].drop_duplicates(["jid", "route"])
        m = refs.merge(pay[["jid", "payload"]], on="jid", how="inner",
                       suffixes=("", "_p"))
        return pd.DataFrame({
            "jid": m["jid"].to_numpy(np.int64),
            "route": m["route"].to_numpy(np.int32),
            "payload": m["payload_p"]
                       if "payload_p" in m.columns else m["payload"],
        })

    PAIR_SCHEMA = pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), ("jid", pa.int64()),
         ("payload", pa.large_binary()), ("is_pair", pa.int8()),
         ("route", pa.int32())])

    def pair_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({
            "a": t.column("a").cast(pa.int64()),
            "b": t.column("b").cast(pa.int64()),
            "jid": pa.array(np.zeros(n, np.int64)),
            "payload": pa.nulls(n, pa.large_binary()),
            "is_pair": pa.array(np.ones(n, np.int8)),
            "route": pa.array(routes(t)),
        }, schema=PAIR_SCHEMA)

    def payload_rows(t: pa.Table) -> pa.Table:
        z = pa.array(np.zeros(t.num_rows, np.int64))
        return pa.table({
            "a": z, "b": z,
            "jid": t.column("jid").cast(pa.int64()),
            "payload": t.column("payload").cast(pa.large_binary()),
            "is_pair": pa.array(np.zeros(t.num_rows, np.int8)),
            "route": t.column("route").cast(pa.int32()),
        }, schema=PAIR_SCHEMA)

    def score_bucket(g: pd.DataFrame) -> pa.Table:
        # every payload row's route came from a pair, so pairs are present;
        # an id routed twice into one bucket stores one payload
        pay = g[g["is_pair"] == 0].drop_duplicates("jid")
        pr = g[g["is_pair"] == 1]
        return score(_keyed_store(pay["jid"].to_numpy(np.int64),
                                  pay["payload"]),
                     pr["a"].to_numpy(np.int64), pr["b"].to_numpy(np.int64))

    deduped_payloads = keyed_map_groups(
        pairs.map_batches(explode_refs, batch_format="pyarrow")
        .union(payloads.map_batches(tag_payloads, batch_format="pyarrow")),
        ["jid"], attach, "pandas")
    both = pairs.map_batches(pair_rows, batch_format="pyarrow").union(
        deduped_payloads.map_batches(payload_rows, batch_format="pyarrow"))
    return keyed_map_groups(both, ["route"], score_bucket, "pandas")


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup(ds, key: str = "text", id_col: str = "doc_id"):
    """Survivors (min id per distinct key value). Returns Dataset[id, fp]."""
    from ray.data.aggregate import Min

    def add_fp(batch: pa.Table) -> pa.Table:
        from nem_mms_ray.ops.textstats import md5_hex_column

        return pa.table({id_col: batch.column(id_col),
                         "fp": pa.array(md5_hex_column(batch.column(key)))})

    return (
        ds.map_batches(add_fp, batch_format="pyarrow")
        .groupby("fp")
        .aggregate(Min(id_col, alias_name=id_col))
    )


# ---------------------------------------------------------------------------
# shingles + minhash
# ---------------------------------------------------------------------------


# odd multipliers for the positional n-gram combine (uint64 wraparound)
# first 5 entries pin every existing n<=5 gram hash (oracle-checked);
# entries 6-16 (a splitmix64 stream, forced odd) extend the positional
# polynomial to the n=8..13 windows benchmark decontamination uses
_GRAM_MULT = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
                       0x27D4EB2F165667C5, 0x85EBCA77C2B2AE63,
                       0xE2AAC06220126021, 0x246E8D982BB2B96D,
                       0x01DF430E373212BD, 0x7F2BA67227183A51,
                       0xEF2298083637156F, 0xAB57CA4CD8942691,
                       0xED25F55EE0440287, 0xA773472FA44095B7,
                       0x42378AD4080EAD29, 0x6F2B9B5927A35C91,
                       0xB4CC78941DAD7B75], dtype=np.uint64)


def _combine_ngrams(hw: np.ndarray, n: int) -> np.ndarray:
    """Positional-polynomial combine of consecutive word hashes (vectorized):
    gram_i = sum_j hw[i+j] * MULT[j].  Short docs (<n words) collapse to one
    gram over all words, matching the join-all behavior of the string path."""
    k = len(hw)
    if k == 0:
        return np.zeros(0, np.uint64)
    if k < n:
        return np.unique((hw * _GRAM_MULT[:k]).sum(dtype=np.uint64, keepdims=True))
    g = np.zeros(k - n + 1, np.uint64)
    for j in range(n):
        g += hw[j : k - n + 1 + j] * _GRAM_MULT[j]
    return np.unique(g)


def _batch_word_ngrams(texts, n: int = 3) -> list[np.ndarray]:
    """Shingle sets for a whole batch with ONE vectorized word-hash call.

    Accepts an Arrow string column (fast path: C whitespace split +
    dictionary-encode, so only the VOCABULARY is hashed as Python
    objects — measured 2.7x over the list path on web text and
    shingle-identical) or a list of str (legacy).  Word hashes are
    pd.util.hash_array per distinct word + a vectorized polynomial
    combine; both paths produce identical sets (the hash is per-value,
    so hashing each vocab entry once equals hashing every occurrence).

    The Arrow split goes through textkernels.split_whitespace_padded
    (str.split() semantics + the pyarrow 16.1 buffer-boundary OOB
    workaround); unlike tokenize_column, no lowercasing — shingles are
    case-sensitive to match the SQL oracle's string_split(text, ' ')."""
    if isinstance(texts, (pa.Array, pa.ChunkedArray)):
        from nem_mms_ray.ops.textkernels import split_whitespace_padded

        col = pc.fill_null(texts, "")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ndocs = len(col)
        flat, di = split_whitespace_padded(col)
        d = pc.dictionary_encode(flat)
        codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = d.dictionary.to_numpy(zero_copy_only=False)
        vh = (pd.util.hash_array(vocab, categorize=False).astype(np.uint64)
              if len(vocab) else np.zeros(0, np.uint64))
        hflat = vh[codes]
        counts = np.bincount(di, minlength=ndocs)
        out, pos = [], 0
        for c in counts:
            out.append(_combine_ngrams(hflat[pos:pos + c], n))
            pos += c
        return out
    words_per = [(t or "").split() for t in texts]
    flat = [w for ws in words_per for w in ws]
    if flat:
        hflat = pd.util.hash_array(np.asarray(flat, dtype=object),
                                   categorize=False).astype(np.uint64)
    else:
        hflat = np.zeros(0, np.uint64)
    out = []
    pos = 0
    for ws in words_per:
        hw = hflat[pos : pos + len(ws)]
        pos += len(ws)
        out.append(_combine_ngrams(hw, n))
    return out


def _word_ngrams(text: str, n: int = 3) -> np.ndarray:
    """Hashes of word n-grams (the shingle set) of one document."""
    return _batch_word_ngrams([text], n)[0]


def _minhash_params(num_perm: int, seed: int = 42):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, int(_P61), num_perm, dtype=np.uint64)
    b = rng.integers(0, int(_P61), num_perm, dtype=np.uint64)
    return a, b


def _minhash(shingles: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(shingles) == 0:
        return np.full(len(a), int(_P61), np.uint64)
    # (a*x + b) mod p per permutation; uint64 wrap-around then mod keeps
    # determinism (not a true mod-p universal hash but stable + well-mixed)
    x = shingles[None, :] * a[:, None] + b[:, None]
    return (x % _P61).min(axis=1)


class MinHashStage:
    """Stateful stage: doc -> shingle set -> minhash signature -> LSH band
    keys; the only pass of `minhash_dedup` that tokenizes text.

    Permutation parameters built once per worker (cached), applied per
    batch; emits one row per doc: `doc_id`, `band_keys` (fixed-size list
    of `bands` int64 keys, exploded for the band groupby by
    `_minhash_raw_pairs`) and `payload`, the doc's sorted shingle set as
    serialized uint64s (large_binary; the `_jaccard_store_batch` layout,
    the exact-Jaccard verify's input).  Band keys are a
    positional-polynomial combine of the band's signature rows
    (vectorized, uint64 wraparound) — identical band vectors always map to
    identical keys, and the rare combine collision only adds a candidate
    pair that exact-Jaccard verification then rejects.
    """

    def __init__(self, num_perm: int = 128, bands: int = 16, ngram: int = 3,
                 seed: int = 42, id_col: str = "doc_id", text_col: str = "text"):
        assert num_perm % bands == 0
        self.a, self.b = _minhash_params(num_perm, seed)
        self.bands = bands
        self.rows_per_band = num_perm // bands
        rng = np.random.default_rng(seed + 987)
        self.band_mult = (rng.integers(0, 1 << 63, self.rows_per_band,
                                       dtype=np.uint64) << np.uint64(1)) | np.uint64(1)
        self.ngram = ngram
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(self.id_col), dtype=np.int64)
        shingle_sets = _batch_word_ngrams(batch.column(self.text_col),
                                          self.ngram)
        nb = self.bands
        from nem_mms_ray.ops._setops_native import minhash_signatures

        sigs = minhash_signatures(shingle_sets, self.a, self.b)
        if sigs is not None:
            # C kernel: whole batch in one call (the 128-perm running-min
            # array stays in L1; the Mersenne mod replaces the u64 div),
            # bit-identical to the per-doc numpy path below.  Band keys
            # then combine fully vectorized over (docs, bands, rows).
            keys = (sigs.reshape(len(ids), nb, self.rows_per_band)
                    * self.band_mult).sum(axis=2, dtype=np.uint64)
        else:
            # NOTE: per-doc hashing is the fast numpy shape — shingle sets
            # are small, so each (num_perm, n_shingles) matrix stays
            # cache-resident; a batch-concatenated matrix + minimum.reduceat
            # was measured 15x SLOWER (200 MB working set, reduceat overhead)
            keys = np.empty((len(ids), nb), np.uint64)
            for i, sh in enumerate(shingle_sets):
                sig = _minhash(sh, self.a, self.b)
                keys[i] = (sig.reshape(nb, self.rows_per_band)
                           * self.band_mult).sum(axis=1, dtype=np.uint64)
        # payload straight from the concatenated sets: one copy, no
        # per-doc bytes objects
        off = np.zeros(len(ids) + 1, np.int64)
        off[1:] = 8 * np.cumsum(np.fromiter(
            (len(sh) for sh in shingle_sets), np.int64, len(ids)))
        flat = (np.concatenate(shingle_sets) if shingle_sets
                else np.zeros(0, np.uint64))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "band_keys": pa.FixedSizeListArray.from_arrays(
                pa.array(keys.reshape(-1).view(np.int64)), nb),
            "payload": pa.LargeBinaryArray.from_buffers(
                pa.large_binary(), len(ids),
                [None, pa.py_buffer(off), pa.py_buffer(flat)]),
        })


_WORKER_MINHASH: dict = {}


def _minhash_task(batch: pa.Table, **kw) -> pa.Table:
    """Task-mode wrapper: warm Ray workers cache the stage (permutation
    params) across tasks like an actor would, without actor-pool ramp-up."""
    key = tuple(sorted(kw.items()))
    st = _WORKER_MINHASH.get(key)
    if st is None:
        st = _WORKER_MINHASH[key] = MinHashStage(**kw)
    return st(batch)


#: key groups above this many docs chain to their min doc (`_group_pairs`)
#: in the MinHash and SimHash candidate stages; embedding LSH uses 500
_LSH_MAX_GROUP = 200


def _pairs_in_bucket(g: dict) -> dict:
    """All MinHash candidate pairs inside one `keyed_map_groups` bucket:
    the docs sharing a fine (band, band_key) group.  Groups arrive as
    numpy columns: converting each bucket to pandas cost about as much as
    the pairing itself
    (sf0.1: the band shuffle 0.29-0.41 s with pandas groups, 0.16-0.18 s
    with numpy, 1 CPU)."""
    doc = np.asarray(g["doc_id"], np.int64)
    ia, ib, _ = _group_pairs((g["band"], g["band_key"]), doc,
                             _LSH_MAX_GROUP, chain="minhash LSH")
    return {"a": doc[ia], "b": doc[ib]}


def _minhash_raw_pairs(docs):
    """Dataset[(a, b)] of LSH candidate pairs, possibly repeated across
    bands, from `MinHashStage` rows: each doc's band keys explode to
    (doc_id, band, band_key) rows, grouped by (band, band_key).

    `docs` is materialized by `minhash_dedup` (the verify reads its
    payloads too), so the explode streams from memory into the shuffle.
    Do NOT also materialize or repartition the exploded rows to
    "right-size" blocks: that barrier costs ~3x the per-block fixed
    overhead it saves (measured, sf0.1 @ 8 CPUs)."""

    def explode_bands(t: pa.Table) -> pa.Table:
        nb = t.schema.field("band_keys").type.list_size
        return pa.table({
            "doc_id": pa.array(np.repeat(
                np.asarray(t.column("doc_id"), np.int64), nb)),
            "band": pa.array(np.tile(np.arange(nb, dtype=np.int32),
                                     t.num_rows)),
            "band_key": pa.array(np.asarray(
                pc.list_flatten(t.column("band_keys")), np.int64)),
        })

    return keyed_map_groups(
        docs.map_batches(explode_bands, batch_format="pyarrow"),
        ["band", "band_key"], _pairs_in_bucket, "numpy")


def bucketed_pair_agg(pairs, pd_agg):
    """Aggregate rows sharing an (a, b) pair key: a per-batch combiner,
    then ONE `keyed_map_groups` shuffle keyed by (a, b) with a vectorized
    pandas aggregation per bucket.

    Ray Data's hash groupby degrades when the number of DISTINCT keys is
    large: groupby(["a","b"]).aggregate(Count) over 5.7M candidate rows /
    2.37M distinct pairs measured 605s (r4 flagship profile) where this
    shape runs the identical aggregation in seconds.  All rows of one
    pair land in one bucket, so per-pair results are exact.

    `pd_agg` must be a CLOSED aggregation over same-named columns
    (distinct / min / max / sum compose with themselves): it also runs
    per input batch as the combiner, cutting exchange volume — exactly
    the class of aggregations used by the dedup candidate paths.
    """

    def combine(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return t
        return pa.Table.from_pandas(pd_agg(t.to_pandas()),
                                    preserve_index=False)

    return keyed_map_groups(pairs.map_batches(combine, batch_format="pyarrow"),
                            ["a", "b"], pd_agg, "pandas")


def _or_typed_empty(out, schema: pa.Schema):
    """`out` materialized, or zero rows typed by `schema` when it has no
    row: a Ray Data map over zero rows never calls its function, so its
    output has no schema and a consumer would get no columns."""
    import ray.data as rd

    out = out.materialize()
    return out if out.count() else rd.from_arrow(schema.empty_table())


def _pd_distinct_pairs(g: pd.DataFrame) -> pd.DataFrame:
    return g.drop_duplicates(["a", "b"], ignore_index=True)[["a", "b"]]


def _gram_pairs_in_bucket(g: pd.DataFrame, id_col: str,
                          max_gram_df: int | None,
                          emit_stats: bool = False) -> pd.DataFrame:
    """Per-gram doc pairs inside one `keyed_map_groups` bucket, with the
    frequent-gram skew guard: a gram shared by > max_gram_df docs is
    excluded from pair generation (a stop-gram shared by M docs would emit
    M^2/2 pairs — the quadratic blow-up VERDICT r2 flagged).  Dropped
    grams are logged, per the no-silent-caps rule; with `emit_stats` they
    ALSO ride the data plane as one sentinel row per bucket (cnt=-1,
    na=dropped gram count, nb=max doc freq seen) so the caller can
    aggregate recall loss instead of scraping logs (ADVICE r4).  Each pair
    carries both docs' total set sizes (the "sz" column the explode stage
    stamped on every gram row), so the downstream jaccard needs no second
    pass over the corpus."""
    if max_gram_df is None:
        max_gram_df = np.iinfo(np.int64).max  # no cap: fully exact
    doc = g[id_col].to_numpy(np.int64)
    sz = g["sz"].to_numpy(np.int64)  # constant per doc: any row serves
    # skew guard: a stop-gram's docs pair with nobody; singletons are never
    # counted as dropped, so a degenerate cap < 2 costs no recall report
    ia, ib, big = _group_pairs((g["gram"].to_numpy(np.int64),), doc,
                               max_gram_df)
    dropped = len(big)
    max_df_seen = int(big.max()) if dropped else 0
    if dropped:
        logger.warning(
            "ngram_jaccard: dropped %d frequent gram(s) from pair generation "
            "(doc freq > %d, max seen %d) — jaccard for pairs sharing only "
            "those grams is a lower bound", dropped, max_gram_df, max_df_seen)
    stats = pd.DataFrame({"a": [0], "b": [0], "cnt": [-1],
                          "na": [dropped], "nb": [max_df_seen]}
                         ).astype("int64") if emit_stats and dropped else None
    if not len(ia):
        empty = pd.DataFrame({c: pd.Series([], dtype="int64")
                              for c in ("a", "b", "cnt", "na", "nb")})
        return empty if stats is None else stats
    # per-pair aggregate (cnt = shared-gram count = |intersection|),
    # vectorized: sort pairs, run-length the (a, b) groups
    A, B, NA, NB = doc[ia], doc[ib], sz[ia], sz[ib]
    o = np.lexsort((B, A))
    A, B, NA, NB = A[o], B[o], NA[o], NB[o]
    ng = np.empty(len(A), np.bool_)
    ng[0] = True
    ng[1:] = (A[1:] != A[:-1]) | (B[1:] != B[:-1])
    ps = np.nonzero(ng)[0]
    cnt = np.diff(np.append(ps, len(A)))
    agg = pd.DataFrame({"a": A[ps], "b": B[ps], "cnt": cnt.astype(np.int64),
                        "na": NA[ps], "nb": NB[ps]})
    return agg if stats is None else pd.concat([agg, stats],
                                               ignore_index=True)


def ngram_jaccard_pairs(ds, threshold: float = 0.2, ngram: int = 3,
                        id_col: str = "doc_id", text_col: str = "text",
                        max_gram_df: int | None = None,
                        return_dropped_stats: bool = False):
    """EXACT n-gram Jaccard pairs (no LSH): Dataset[(a, b, jaccard)], a < b.

    Distributed shape: ONE explode pass emits (doc, gram, sz) where sz is
    the doc's total distinct-gram count stamped on every gram row -> group
    by gram (`keyed_map_groups`, like the LSH path) -> per-gram doc pairs
    carrying (na, nb) -> sum shared-gram counts per pair (= |intersection|,
    grams are distinct per doc) -> jaccard = inter / (na + nb - inter)
    computed per batch.  Carrying sz on the exploded rows costs 8 B/gram but
    removes the r2 anti-patterns: no second shingle pass for sizes, no
    driver-side size dict, no extra ds.count() probe (VERDICT r2 findings
    1-2, ADVICE r2).  Only intersecting pairs materialize, so cost scales
    with gram sharing, not n^2; docs without grams produce no rows.

    max_gram_df is an OPT-IN cap on per-gram document frequency for pair
    generation (see _gram_pairs_in_bucket).  The default (None) preserves
    the exact contract: a duplicate set of ANY size produces its pairs —
    a default cap would silently emit zero pairs for boilerplate shared
    by more docs than the cap, exactly the case exact dedup targets
    (ADVICE r3).  At web scale, run exact/near dedup FIRST and then set
    max_gram_df to bound the M^2/2 pair blow-up of residual stop-grams;
    with a cap set, reported jaccard is a lower bound for pairs whose
    shared grams were dropped (dropped grams are logged, never silent).
    `return_dropped_stats=True` additionally returns (pairs, stats) where
    stats = {"dropped_grams", "max_gram_df_seen"} aggregated from
    per-bucket sentinel rows — the recall-loss signal as DATA a pipeline
    can alert on, not just a log line (ADVICE r4).  It materializes the
    per-gram intersection stream once (it is consumed by both the stats
    aggregate and the pair path), so reserve it for capped runs — which
    are the bounded-pair regime anyway.  The DuckDB oracle mirrors the
    uncapped exact semantics over the literal gram strings."""
    import functools

    def explode(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        sets = _batch_word_ngrams(batch.column(text_col), ngram)
        counts = np.array([len(s) for s in sets], np.int64)
        grams = np.concatenate(sets) if sets else np.zeros(0, np.uint64)
        return pa.table({
            id_col: pa.array(np.repeat(ids, counts)),
            "gram": pa.array(grams.view(np.int64)),
            "sz": pa.array(np.repeat(counts, counts)),
        })

    inter = keyed_map_groups(
        ds.map_batches(explode, batch_format="pyarrow"), ["gram"],
        functools.partial(_gram_pairs_in_bucket, id_col=id_col,
                          max_gram_df=max_gram_df,
                          emit_stats=return_dropped_stats), "pandas")
    stats = None
    if return_dropped_stats:
        inter = inter.materialize()
        srows = inter.map_batches(
            lambda t: t.filter(pc.less(t.column("cnt"), 0)),
            batch_format="pyarrow").to_pandas()
        empty = srows.empty or "na" not in srows  # no drops: schema may vanish
        stats = {"dropped_grams": 0 if empty else int(srows["na"].sum()),
                 "max_gram_df_seen": 0 if empty else int(srows["nb"].max())}
        inter = inter.map_batches(
            lambda t: t.filter(pc.greater(t.column("cnt"), 0)),
            batch_format="pyarrow")
    inter = bucketed_pair_agg(
        inter,
        lambda g: g.groupby(["a", "b"], as_index=False)
                   .agg({"cnt": "sum", "na": "max", "nb": "max"}))

    def score(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column("a"), dtype=np.int64)
        b = np.asarray(batch.column("b"), dtype=np.int64)
        i = np.asarray(batch.column("cnt"), dtype=np.int64)
        na = np.asarray(batch.column("na"), dtype=np.int64)
        nb = np.asarray(batch.column("nb"), dtype=np.int64)
        j = i / (na + nb - i)
        keep = j >= threshold
        return pa.table({"a": pa.array(a[keep]), "b": pa.array(b[keep]),
                         "jaccard": pa.array(np.round(j[keep], 6))})

    scored = _or_typed_empty(
        inter.map_batches(score, batch_format="pyarrow"),
        pa.schema([("a", pa.int64()), ("b", pa.int64()),
                   ("jaccard", pa.float64())]))
    return (scored, stats) if return_dropped_stats else scored


def jaccard(text_a: str, text_b: str, ngram: int = 3) -> float:
    sa, sb = _word_ngrams(text_a, ngram), _word_ngrams(text_b, ngram)
    if len(sa) == 0 and len(sb) == 0:
        return 1.0
    inter = len(np.intersect1d(sa, sb))
    union = len(sa) + len(sb) - inter
    return inter / union if union else 0.0


def _jaccard_blobs(pa_: bytes, pb_: bytes) -> float:
    """Jaccard of two serialized uint64 shingle sets (tobytes of np.unique)."""
    sa = np.frombuffer(pa_, np.uint64)
    sb = np.frombuffer(pb_, np.uint64)
    if len(sa) == 0 and len(sb) == 0:
        return 1.0
    inter = len(np.intersect1d(sa, sb, assume_unique=True))
    union = len(sa) + len(sb) - inter
    return inter / union if union else 0.0  # the scorer thresholds, rounds


# Raw LSH candidates at or under this count are made distinct on the driver
# (a pandas drop_duplicates); above it, by one `bucketed_pair_agg` shuffle.
MAX_DRIVER_DISTINCT_PAIRS = 50_000


def minhash_dedup(ds, threshold: float = 0.8, num_perm: int = 128,
                  bands: int = 16, ngram: int = 3):
    """Near-dup pairs verified by exact n-gram Jaccard >= threshold.

    Returns Dataset[(a, b, jaccard)], a < b (zero typed rows when no pair
    qualifies).  One `MinHashStage` pass tokenizes each doc once and is
    materialized: its band keys give the LSH candidates, its shingle sets
    are the payloads `pairs_payload_metric` scores the distinct candidates
    against.  That scorer picks its own regime (driver broadcast of the
    referenced shingle sets, or a two-shuffle join) from the candidate
    count and the referenced payload bytes.
    """
    import functools

    import ray.data as rd

    docs = ds.map_batches(
        functools.partial(_minhash_task, num_perm=num_perm, bands=bands,
                          ngram=ngram),
        batch_format="pyarrow", num_cpus=1).materialize()
    raw = _minhash_raw_pairs(docs).materialize()
    n_raw = raw.count()
    if n_raw > MAX_DRIVER_DISTINCT_PAIRS:
        cand = bucketed_pair_agg(raw, _pd_distinct_pairs)
    else:  # a zero-row frame has no columns: no candidates pass as is
        cand = rd.from_pandas(_pd_distinct_pairs(raw.to_pandas())) \
            if n_raw else raw
    payloads = docs.select_columns(["doc_id", "payload"]).rename_columns(
        {"doc_id": "jid"})
    return pairs_payload_metric(cand, payloads, _jaccard_blobs, "jaccard",
                                pair_metric_batch=_jaccard_store_batch,
                                metric_min=threshold)


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------


def simhash_batch(batch: pa.Table, id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """64-bit SimHash per doc: sign-sum of token-hash bit vectors.

    Word hashes for the whole batch come from ONE vectorized hash_array
    call; the per-doc bit expansion stays small (words x 64 int8).
    Whole-batch alternatives were A/B-measured (r4, sf0.1 documents,
    5000 docs): a (tokens x 64) int32 sign matrix + add.reduceat ran
    11x slower and an unpackbits bit-sliced variant 2x slower than this
    loop — the per-doc matrices fit cache, the whole-batch intermediates
    (150 MB at ~600k tokens) do not.  The loop stays."""
    texts = batch.column(text_col).to_pylist()
    words_per = [(t or "").split() for t in texts]
    flat = [w for ws in words_per for w in ws]
    if flat:
        hflat = pd.util.hash_array(np.asarray(flat, dtype=object),
                                   categorize=False).astype(np.uint64)
    else:
        hflat = np.zeros(0, np.uint64)
    shifts = np.arange(64, dtype=np.uint64)
    powers = (np.uint64(1) << shifts)
    out = np.zeros(len(texts), np.uint64)
    pos = 0
    for i, ws in enumerate(words_per):
        k = len(ws)
        if k == 0:
            continue
        hs = hflat[pos : pos + k]
        pos += k
        bits = ((hs[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int8)
        v = (2 * bits.astype(np.int32) - 1).sum(axis=0)
        out[i] = (powers * (v > 0)).sum(dtype=np.uint64)
    return pa.table({id_col: batch.column(id_col),
                     "simhash": pa.array(out.view(np.int64))})


def simhash_near_pairs(ds, max_hamming: int = 3):
    """Near-dup pairs by SimHash: group on each of 4 16-bit bands (any band
    equal -> candidate), verify Hamming distance <= max_hamming."""
    def explode(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), np.int64)
        sh = np.asarray(batch.column("simhash"), np.int64).view(np.uint64)
        bands = np.tile(np.arange(4, dtype=np.int32), len(ids))
        keys = ((sh[:, None] >> (np.uint64(16) * np.arange(4, dtype=np.uint64)))
                & np.uint64(0xFFFF)).astype(np.int32).reshape(-1)
        return pa.table({"doc_id": pa.array(np.repeat(ids, 4)),
                         "band": pa.array(bands),
                         "key": pa.array(keys),
                         "simhash": pa.array(np.repeat(sh.view(np.int64), 4))})

    def pairs_in_bucket(g: dict) -> dict:
        """Candidate pairs of the (band, key) groups in one bucket (see
        `_pairs_in_bucket`), kept within max_hamming."""
        doc = np.asarray(g["doc_id"], np.int64)
        ia, ib, _ = _group_pairs((g["band"], g["key"]), doc, _LSH_MAX_GROUP,
                                 chain="simhash")
        sh = np.asarray(g["simhash"], np.int64).view(np.uint64)
        ham = _popcount64(sh[ia] ^ sh[ib])
        keep = ham <= max_hamming
        return {"a": doc[ia[keep]], "b": doc[ib[keep]], "hamming": ham[keep]}

    pairs = keyed_map_groups(
        ds.map_batches(simhash_batch, batch_format="pyarrow")
        .map_batches(explode, batch_format="pyarrow"),
        ["band", "key"], pairs_in_bucket, "numpy")
    return _or_typed_empty(
        bucketed_pair_agg(
            pairs,
            lambda g: g.groupby(["a", "b"], as_index=False)["hamming"].min()),
        pa.schema([("a", pa.int64()), ("b", pa.int64()),
                   ("hamming", pa.int64())]))


# ---------------------------------------------------------------------------
# embedding near-dup
# ---------------------------------------------------------------------------


_WORKER_PLANES: dict = {}


def _lsh_planes(seed: int, n_tables: int, dim: int, n_planes: int) -> np.ndarray:
    """Hyperplane tensor, built once per worker process and cached (the
    per-batch regeneration was r1 VERDICT item 3)."""
    key = (seed, n_tables, dim, n_planes)
    p = _WORKER_PLANES.get(key)
    if p is None:
        p = _WORKER_PLANES[key] = np.random.default_rng(seed).standard_normal(
            (n_tables, dim, n_planes))
    return p


def _cosine_blobs(pa_: bytes, pb_: bytes) -> float:
    va = np.frombuffer(pa_, np.float64)
    vb = np.frombuffer(pb_, np.float64)
    if len(va) == 0 or len(vb) == 0:
        return 0.0
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0 or nb == 0:
        return 0.0
    return float(va @ vb / (na * nb))  # the scorer thresholds, rounds


def embedding_near_pairs(ds, threshold: float = 0.95, n_planes: int = 12,
                         n_tables: int = 4, seed: int = 42,
                         vec_col: str = "embedding", id_col: str = "vec_id"):
    """Cosine near-dup via multi-table random-hyperplane LSH + exact verify.

    Scale path (exact baseline: `ann.cosine_pairs_exact`): each vector lands
    in one sign bucket per table; vectors sharing a bucket in ANY of the
    `n_tables` tables are candidates, verified by exact cosine.  One table of
    b planes misses a near-identical pair with prob ~1-(1-theta/pi)^b (~10%
    at b=12); OR-ing L independent tables drives the miss rate to that to the
    Lth power.

    Shuffle discipline (r1 VERDICT item 3): the candidate stage moves ONLY
    (key, vec_id) int rows — raw vectors never replicate through the
    xN-tables shuffle.  The distinct candidates are scored by exact cosine
    in `pairs_payload_metric`, which keeps those at or above `threshold`:
    Dataset[(a, b, cosine)] (zero typed rows when none qualifies).
    Deterministic: planes from a fixed seed, cached per worker.
    """
    from nem_mms_ray.ops.ann import _to_matrix

    def bucketize(batch: pa.Table) -> pa.Table:
        vecs = _to_matrix(batch.column(vec_col))
        planes = _lsh_planes(seed, n_tables, vecs.shape[1], n_planes)
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        out_id, out_key = [], []
        for t in range(n_tables):
            signs = (vecs @ planes[t]) >= 0
            keys = (signs * (1 << np.arange(n_planes))).sum(axis=1).astype(np.int64)
            out_id.append(ids)
            out_key.append(keys + (t << n_planes))  # fine key: (table, bucket)
        return pa.table({id_col: pa.array(np.concatenate(out_id)),
                         "key": pa.array(np.concatenate(out_key))})

    def cand_in_bucket(g: dict) -> dict:
        """Candidate pairs of the sign buckets in one coarse bucket."""
        doc = np.asarray(g[id_col], np.int64)
        ia, ib, _ = _group_pairs((g["key"],), doc, 500, chain="embedding LSH")
        return {"a": doc[ia], "b": doc[ib]}

    def vec_blobs(batch: pa.Table) -> pa.Table:
        m = _to_matrix(batch.column(vec_col))
        return pa.table({
            "jid": batch.column(id_col).cast(pa.int64()),
            "payload": pa.array([m[i].tobytes() for i in range(len(m))],
                                pa.large_binary()),
        })

    cand = keyed_map_groups(ds.map_batches(bucketize, batch_format="pyarrow"),
                            ["key"], cand_in_bucket, "numpy")
    # a pair can surface from several tables: distinct before verify
    cand = bucketed_pair_agg(cand, _pd_distinct_pairs)
    return pairs_payload_metric(
        cand, ds.map_batches(vec_blobs, batch_format="pyarrow"),
        _cosine_blobs, "cosine", metric_min=threshold)


# ---------------------------------------------------------------------------
# pair clusters (the dedup endgame: pairs -> components -> representative)
# ---------------------------------------------------------------------------


#: target edge rows per hash-join partition when sizing from the edge list
_EDGE_ROWS_PER_PARTITION = 1_000_000


def _join_partitions(requested: int | None = None,
                     edge_rows: int | None = None,
                     cpus: int | None = None) -> int:
    """Partition count for Dataset.join: its hash aggregators are actors
    that each need a CPU slot, so requesting more partitions than the
    cluster has CPUs deadlocks small sessions (observed at 4-CPU pytest).
    The cap is therefore always cpus//2 (join uses two actor pools).

    With `edge_rows`, size from the data: ~1M edge rows (~16 MB) per
    partition, so a 100-TB run's edge list spreads across the cluster
    instead of 16 aggregators (VERDICT r3 finding 2); without it, a fixed
    16 ceiling keeps small interactive sessions snappy."""
    if requested:
        return requested
    if cpus is None:
        import ray

        try:
            cpus = int(ray.cluster_resources().get("CPU", 4))
        except Exception:
            cpus = 4
    cap = max(2, cpus // 2)
    if edge_rows:
        derived = -(-edge_rows // _EDGE_ROWS_PER_PARTITION)  # ceil div
        return max(2, min(cap, derived))
    return min(16, cap)


def _streamed_unique_ids(raw, ceiling: int) -> np.ndarray | None:
    """Sorted distinct int64 ids over a (a, b) pair Dataset, streamed:
    per-batch uniques accumulate in a buffer that compacts (one merged
    np.unique) whenever it outgrows the current union — memory stays
    O(distinct + slack), never O(edges).  None as soon as the distinct
    count provably exceeds `ceiling` (the caller falls back to the
    distributed regime without finishing the pass)."""
    cur = np.zeros(0, np.int64)
    buf: list[np.ndarray] = []
    bufn = 0
    for t in raw.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
        if not t.num_rows:
            continue
        u = np.unique(np.concatenate([np.asarray(t.column("a"), np.int64),
                                      np.asarray(t.column("b"), np.int64)]))
        buf.append(u)
        bufn += len(u)
        if bufn >= max(len(cur), 4 << 20):
            cur = np.unique(np.concatenate([cur, *buf]))
            buf, bufn = [], 0
            if len(cur) > ceiling:
                return None
    if buf:
        cur = np.unique(np.concatenate([cur, *buf]))
    return cur if len(cur) <= ceiling else None


#: node-set ceiling of the driver union-find in `connected_components`
#: (~16 B/node of driver heap); a larger graph clusters distributedly
MAX_DRIVER_NODES = 50_000_000


def connected_components(pairs, max_iters: int = 25,
                         num_partitions: int | None = None):
    """Dataset[(id, component)] for every node appearing in the pair list:
    component = the MINIMUM id reachable through the pair graph — the
    canonical representative a dedup run keeps.

    Two regimes:

    1. DRIVER (node set at most `MAX_DRIVER_NODES`, ~16 B/node): the
       distinct ids stream to the driver, then the edges stream through
       a union-find batch by batch (`StreamingUnionFind`: the C kernel,
       or its interpreted reference without a compiler) — memory is
       O(nodes), edges never coexist.  Two linear streams, against the
       distributed regime's ~log(diameter) rounds of joins (measured: 24
       rounds x 8.2s of join fixed cost on the sf0.1 flagship's 114k-pair
       graph = 195s).
    2. DISTRIBUTED min-label propagation with pointer jumping: labels
       start as own id; each round ships labels across the (symmetrized)
       edges with Ray Data's native hash join and takes the per-node
       minimum, then label-doubling halves every chain — O(log diameter)
       rounds, each bounded by the EDGE list (~16 B/edge), never the
       corpus.  The only regime when the node set exceeds the driver.
       If `max_iters` rounds pass without convergence the loop stops and
       LOGS the residual (no-silent-caps rule); labels are then upper
       bounds, still a valid (finer) partition.

    Both produce identical labels (test_cc_regimes_identical).
    """
    import ray.data as rd
    from ray.data.aggregate import Min

    from nem_mms_ray.ops._setops_native import StreamingUnionFind

    def symmetrize(t: pa.Table) -> pa.Table:
        a = np.asarray(t.column("a"), np.int64)
        b = np.asarray(t.column("b"), np.int64)
        return pa.table({"src": pa.array(np.concatenate([a, b])),
                         "dst": pa.array(np.concatenate([b, a]))})

    raw = pairs.select_columns(["a", "b"]).materialize()
    if raw.count() == 0:
        # no pairs -> no components; the empty-block Dataset would lose
        # its schema before the join (observed: Arrow "no match for key
        # field src"), so return a TYPED empty result instead
        return rd.from_arrow(pa.table({"id": pa.array([], pa.int64()),
                                       "component": pa.array([], pa.int64())}))
    nodes = _streamed_unique_ids(raw, MAX_DRIVER_NODES)
    if nodes is not None:
        uf = StreamingUnionFind(len(nodes))
        for t in raw.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
            if t.num_rows:
                uf.add_edges(
                    np.searchsorted(nodes, np.asarray(t.column("a"), np.int64)),
                    np.searchsorted(nodes, np.asarray(t.column("b"), np.int64)))
        comp = nodes[uf.flatten()]
        return rd.from_arrow(pa.table({"id": pa.array(nodes),
                                       "component": pa.array(comp)}))
    logger.info("connected_components: node set exceeds MAX_DRIVER_NODES=%d "
                "— distributed label-propagation regime", MAX_DRIVER_NODES)

    # distributed rounds need the symmetrized edge list (labels propagate
    # along both directions of every pair)
    edges = raw.map_batches(symmetrize, batch_format="pyarrow").materialize()
    # size the join from the edge list (count is free on a materialized
    # dataset): each round's join/groupby traffic is proportional to it
    num_partitions = _join_partitions(num_partitions,
                                      edge_rows=edges.count())
    labels = (edges.groupby("src").aggregate(Min("dst", alias_name="nbr_min"))
              .map_batches(lambda t: pa.table({
                  "id": t.column("src"),
                  "label": pa.compute.min_element_wise(t.column("src"),
                                                       t.column("nbr_min")),
              }), batch_format="pyarrow").materialize())

    for it in range(max_iters):
        # propagate: each node offers its label to every neighbor
        offered = (edges.join(labels.map_batches(
                        lambda t: t.rename_columns(["src", "label"]),
                        batch_format="pyarrow"),
                        join_type="inner", num_partitions=num_partitions,
                        on=("src",))
                   .groupby("dst").aggregate(Min("label", alias_name="offer")))
        merged = labels.join(
            offered.map_batches(lambda t: t.rename_columns(["id", "offer"]),
                                batch_format="pyarrow"),
            join_type="left_outer", num_partitions=num_partitions, on=("id",))

        def take_min(t: pa.Table) -> pa.Table:
            # all-Arrow int64: routing labels through float64 (or pandas
            # fillna, which upcasts nullable int64) would corrupt node ids
            # above 2^53 — common when ids are 64-bit hashes (ADVICE r3).
            # A node with no offer keeps its label via the int64-max
            # sentinel, never via inf.
            lab = t.column("label").combine_chunks().cast(pa.int64())
            off = pa.compute.fill_null(
                t.column("offer").combine_chunks().cast(pa.int64()),
                np.iinfo(np.int64).max)
            new = pa.compute.min_element_wise(lab, off)
            chg = pa.compute.not_equal(new, lab).cast(pa.int64())
            return pa.table({"id": t.column("id").cast(pa.int64()),
                             "label": new, "chg": chg})

        nxt = merged.map_batches(take_min, batch_format="pyarrow").materialize()
        n_changed = int(nxt.sum("chg") or 0)
        labels = nxt.select_columns(["id", "label"]).materialize()

        # pointer jumping (label doubling): label[v] <- label[label[v]].
        # Edge propagation alone moves the minimum ONE hop per round, so a
        # chain-shaped pair graph — exactly what the minhash chain-to-min
        # skew guard emits for a mega-cluster — needs O(cluster size)
        # rounds (observed: 120k-doc webtable, 25 rounds, no fixpoint).
        # Jumping halves every chain's depth per round, making the loop
        # O(log diameter): 25 rounds covers diameter 2^25.  label[label[v]]
        # is in v's component and <= label[v]'s own bound, so the invariant
        # (label = some component member's id, non-increasing) holds.
        as_parent = labels.map_batches(
            lambda t: pa.table({"label": t.column("id"),
                                "parent": t.column("label")}),
            batch_format="pyarrow")
        jumped = labels.join(as_parent, join_type="left_outer",
                             num_partitions=num_partitions, on=("label",))

        def jump_min(t: pa.Table) -> pa.Table:
            lab = t.column("label").combine_chunks().cast(pa.int64())
            par = pa.compute.fill_null(
                t.column("parent").combine_chunks().cast(pa.int64()),
                np.iinfo(np.int64).max)
            new = pa.compute.min_element_wise(lab, par)
            chg = pa.compute.not_equal(new, lab).cast(pa.int64())
            return pa.table({"id": t.column("id").cast(pa.int64()),
                             "label": new, "chg": chg})

        jnxt = jumped.map_batches(jump_min, batch_format="pyarrow").materialize()
        n_changed += int(jnxt.sum("chg") or 0)
        labels = jnxt.select_columns(["id", "label"]).materialize()
        if n_changed == 0:
            break
    else:
        logger.warning(
            "connected_components: no fixpoint after %d rounds — labels are "
            "an upper-bound (finer) partition; raise max_iters for graphs "
            "with longer chains", max_iters)
    return labels.map_batches(
        lambda t: pa.table({"id": t.column("id"),
                            "component": t.column("label")}),
        batch_format="pyarrow")
