"""Tests for the training-data operators (dedup, ANN, text stats, multimodal)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(42)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    texts = []
    for i in range(200):
        texts.append(" ".join(rng.choice(words, 40)))
    # planted exact dups
    texts[50] = texts[10]
    texts[51] = texts[10]
    # planted near-dup: one word changed
    w = texts[20].split()
    w[5] = "CHANGED"
    texts[60] = " ".join(w)
    df = pd.DataFrame({"doc_id": np.arange(200, dtype=np.int64), "text": texts})
    return rd.from_pandas(df), df


def test_exact_dedup(docs_ds):
    from nem_mms_ray.ops.dedup import exact_dedup

    ds, df = docs_ds
    survivors = exact_dedup(ds).to_pandas()
    expected = df.groupby("text")["doc_id"].min()
    assert sorted(survivors["doc_id"]) == sorted(expected.values)
    assert 50 not in survivors["doc_id"].values
    assert 10 in survivors["doc_id"].values


def test_setops_kernel_parity():
    """The C set-intersection and minhash kernels must match their numpy
    references exactly: counts vs np.intersect1d; the min_j early exit
    exact at-or-above the threshold and upper-bounded below it; minhash
    signatures bit-identical to the per-doc numpy path (same wraparound
    multiply + Mersenne mod); the batch jaccard equal to _jaccard_blobs."""
    from nem_mms_ray.ops._setops_native import (intersect_counts,
                                                minhash_signatures)
    from nem_mms_ray.ops.dedup import (_jaccard_blobs, _jaccard_store_batch,
                                       _minhash, _minhash_params,
                                       _payload_store)

    rng = np.random.default_rng(11)
    sets = [np.unique(rng.integers(0, 400, rng.integers(0, 80))
                      .astype(np.uint64)) for _ in range(150)]
    sets[3] = np.zeros(0, np.uint64)  # empty set edge
    off = np.zeros(len(sets) + 1, np.int64)
    off[1:] = np.cumsum([len(s) for s in sets])
    vals = np.concatenate(sets)
    a = rng.integers(0, 150, 3000).astype(np.int64)
    b = rng.integers(0, 150, 3000).astype(np.int64)
    want = np.array([len(np.intersect1d(sets[x], sets[y],
                                        assume_unique=True))
                     for x, y in zip(a, b)])
    assert (intersect_counts(vals, off, a, b) == want).all()
    na, nb = off[a + 1] - off[a], off[b + 1] - off[b]
    with np.errstate(invalid="ignore"):
        j_true = np.where(na + nb == 0, 1.0,
                          want / np.maximum(na + nb - want, 1))
    for t in (0.3, 0.8):
        capped = intersect_counts(vals, off, a, b, min_j=t)
        hi = j_true >= t
        assert (capped[hi] == want[hi]).all()  # exact at/above threshold
        j_cap = np.where(na + nb == 0, 1.0,
                         capped / np.maximum(na + nb - capped, 1))
        assert (j_cap[~hi] < t).all()          # bound stays below

    # minhash C kernel: bit parity with the numpy path
    pa_, pb_ = _minhash_params(64)
    sigs = minhash_signatures(sets, pa_, pb_)
    if sigs is not None:  # no compiler -> numpy path is the only path
        ref = np.stack([_minhash(s, pa_, pb_) for s in sets])
        assert (sigs == ref).all()

    # batch jaccard over a payload store == per-pair _jaccard_blobs
    blobs = [s.tobytes() for s in sets]
    flat, boff = _payload_store(blobs)
    jb = _jaccard_store_batch(flat, boff, a, b)
    ref_j = np.array([_jaccard_blobs(blobs[x], blobs[y])
                      for x, y in zip(a, b)])
    assert np.allclose(jb, ref_j)


def test_minhash_finds_planted_dups(docs_ds):
    from nem_mms_ray.ops.dedup import minhash_dedup

    ds, df = docs_ds
    pairs = minhash_dedup(ds, threshold=0.7).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs["a"], pairs["b"])}
    assert (10, 50) in got and (10, 51) in got and (50, 51) in got
    assert (20, 60) in got  # near-dup (1 of ~38 3-grams changed -> j ~ 0.85)


def test_minhash_distributed_verify_matches_broadcast(docs_ds, monkeypatch):
    """Both distinct shapes (driver drop_duplicates, or bucketed_pair_agg
    when MAX_DRIVER_DISTINCT_PAIRS is 0) and both pairs_payload_metric
    regimes (broadcast, or two-shuffle when max_probe_pairs is 0) return
    the same pairs.  Both choices are made on the driver, so patching
    the module here forces them."""
    import functools
    from unittest import mock

    from nem_mms_ray.ops import dedup

    ds, df = docs_ds
    key = lambda d: sorted(zip(d["a"].astype(int), d["b"].astype(int),
                               d["jaccard"].round(6)))
    want = key(dedup.minhash_dedup(ds, threshold=0.7).to_pandas())
    assert len(want) > 0
    agg = mock.Mock(wraps=dedup.bucketed_pair_agg)
    shuffle = mock.Mock(wraps=dedup._pairs_payload_metric_shuffle)
    monkeypatch.setattr(dedup, "bucketed_pair_agg", agg)
    monkeypatch.setattr(dedup, "_pairs_payload_metric_shuffle", shuffle)
    scorer = dedup.pairs_payload_metric
    for cap, probe in ((0, 4_000_000), (50_000, 0), (0, 0)):
        monkeypatch.setattr(dedup, "MAX_DRIVER_DISTINCT_PAIRS", cap)
        monkeypatch.setattr(dedup, "pairs_payload_metric",
                            functools.partial(scorer, max_probe_pairs=probe))
        got = key(dedup.minhash_dedup(ds, threshold=0.7).to_pandas())
        assert got == want, (cap, probe)
    assert (agg.call_count, shuffle.call_count) == (2, 2)


def test_minhash_dedup_tokenizes_input_once(docs_ds, tmp_path):
    """The MinHash pass is the only pass over the input: its shingle sets
    feed the exact-Jaccard verify, so the input is read once."""
    import ray.data as rd

    from nem_mms_ray.ops.dedup import minhash_dedup

    _, df = docs_ds
    log = tmp_path / "reads.txt"

    def record(t: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write(f"{t.num_rows}\n")
        return t

    src = rd.from_pandas(df).map_batches(record, batch_format="pyarrow")
    pairs = minhash_dedup(src, threshold=0.7).to_pandas()
    assert len(pairs) > 0
    assert sum(map(int, log.read_text().split())) == len(df)


def _assert_no_pairs(out, metric: str, metric_type=pa.float64()):
    """Zero rows, typed (a, b, metric) columns."""
    assert out.count() == 0
    schema = out.schema()
    assert list(schema.names) == ["a", "b", metric]
    assert list(schema.types) == [pa.int64(), pa.int64(), metric_type]


def test_near_pairs_without_candidates_are_typed_empty(ray_session):
    """No candidate pair at all: zero typed rows (the scorer used to raise
    KeyError: 'jid' on the zero-row payload frame; the n-gram and SimHash
    operators returned a Dataset with no schema on a zero-row input)."""
    import ray.data as rd

    from nem_mms_ray.ops.dedup import (embedding_near_pairs, minhash_dedup,
                                       ngram_jaccard_pairs,
                                       simhash_near_pairs)

    e0 = np.zeros(8)
    e0[0] = 1.0
    vecs = rd.from_pandas(pd.DataFrame({
        "vec_id": np.array([0, 1], np.int64),
        "embedding": [list(e0), list(-e0)]}))  # opposite: never one bucket
    _assert_no_pairs(embedding_near_pairs(vecs, threshold=0.9), "cosine")

    empty = rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()),
                                    "text": pa.array([], pa.string())}))
    _assert_no_pairs(minhash_dedup(empty, threshold=0.5), "jaccard")
    _assert_no_pairs(ngram_jaccard_pairs(empty), "jaccard")
    _assert_no_pairs(simhash_near_pairs(empty), "hamming", pa.int64())

    distinct = rd.from_pandas(pd.DataFrame({
        "doc_id": np.arange(30, dtype=np.int64),
        "text": [" ".join(f"w{i}x{k}" for k in range(20))
                 for i in range(30)]}))
    _assert_no_pairs(minhash_dedup(distinct, threshold=0.5), "jaccard")
    _assert_no_pairs(ngram_jaccard_pairs(distinct), "jaccard")


def _naive_group_pairs(keys, doc, cap, chain):
    """Reference for `_group_pairs`: per key, the distinct docs' pairs by
    itertools.combinations (a pair repeats once per key it shares); above
    `cap` docs, min-doc chaining or none."""
    import itertools

    groups: dict = {}
    for k, d in zip(zip(*[np.asarray(x).tolist() for x in keys]),
                    np.asarray(doc).tolist()):
        groups.setdefault(k, set()).add(d)
    pairs, big = [], []
    for members in groups.values():
        u = sorted(members)
        if len(u) > cap and len(u) >= 2:
            big.append(len(u))
            if chain:
                pairs += [(u[0], x) for x in u[1:]]
        else:
            pairs += list(itertools.combinations(u, 2))
    return pairs, sorted(big)


@pytest.mark.parametrize("chain", [True, False])
def test_group_pairs_matches_naive_combinations(chain):
    """The one pair expander against a per-key itertools reference: docs
    repeated under one key, groups of exactly `cap` and `cap` + 1 docs,
    two-column keys, an empty input, both oversized-group rules."""
    from collections import Counter

    from nem_mms_ray.ops.dedup import _group_pairs

    cap = 6
    rng = np.random.default_rng(18)
    none = np.zeros(0, np.int64)
    ia, ib, big = _group_pairs((none,), none, cap, chain="t" if chain else None)
    assert len(ia) == len(ib) == len(big) == 0
    for trial in range(40):
        n = int(rng.integers(1, 400))
        k1 = rng.integers(0, 3, n)
        k2 = rng.integers(0, int(rng.integers(1, 60)), n)
        doc = rng.integers(0, 200, n).astype(np.int64)
        # a group of exactly cap docs, one of cap + 1, one repeated doc
        for size, key in ((cap, 1000), (cap + 1, 1001)):
            k1 = np.concatenate([k1, np.zeros(size, np.int64)])
            k2 = np.concatenate([k2, np.full(size, key)])
            doc = np.concatenate([doc, rng.choice(500, size, replace=False)])
        k1 = np.concatenate([k1, [2, 2, 2]])
        k2 = np.concatenate([k2, [1002, 1002, 1002]])
        doc = np.concatenate([doc, [7, 7, 9]]).astype(np.int64)
        perm = rng.permutation(len(doc))
        k1, k2, doc = k1[perm], k2[perm], doc[perm]
        ia, ib, big = _group_pairs((k1, k2), doc, cap,
                                   chain="t" if chain else None)
        assert (k1[ia] == k1[ib]).all() and (k2[ia] == k2[ib]).all()
        got = Counter(zip(doc[ia].tolist(), doc[ib].tolist()))
        want, want_big = _naive_group_pairs((k1, k2), doc, cap, chain)
        assert got == Counter(want), trial  # once per group sharing it
        assert sorted(big.tolist()) == want_big
        assert cap + 1 in want_big  # the cap-sized group expands in full


def test_pairs_payload_metric_joins_payloads(ray_session):
    import ray.data as rd

    from nem_mms_ray.ops.dedup import pairs_payload_metric

    pairs = rd.from_items([{"a": 1, "b": 2}, {"a": 1, "b": 3}, {"a": 2, "b": 9}])
    payloads = rd.from_items([
        {"jid": 1, "payload": b"\x01"}, {"jid": 2, "payload": b"\x01"},
        {"jid": 3, "payload": b"\x02"}, {"jid": 4, "payload": b"\xff"},
    ])  # jid 9 missing -> b""; jid 4 unreferenced -> dropped
    metric = lambda x, y: float(len(x) > 0 and x == y)
    out = pairs_payload_metric(pairs, payloads, metric, "eq").to_pandas()
    got = {(int(r.a), int(r.b)): r.eq for r in out.itertuples()}
    assert got == {(1, 2): 1.0, (1, 3): 0.0, (2, 9): 0.0}


def test_pairs_payload_metric_no_driver_pairs_above_gate(ray_session):
    """Above max_probe_pairs the candidate pair stream must NEVER be
    collected on the driver (VERDICT r4 item 1): Dataset.iter_batches is
    the only driver-side collection point in the function, so with the
    gate forced to 0 the whole call must complete without it — and still
    produce the same scores as the probe regime."""
    from unittest import mock

    import ray.data as rd

    from nem_mms_ray.ops.dedup import pairs_payload_metric

    pairs = rd.from_items([{"a": 1, "b": 2}, {"a": 1, "b": 3}, {"a": 2, "b": 9}])
    payloads = rd.from_items([
        {"jid": 1, "payload": b"\x01"}, {"jid": 2, "payload": b"\x01"},
        {"jid": 3, "payload": b"\x02"}, {"jid": 4, "payload": b"\xff"},
    ])
    metric = lambda x, y: float(len(x) > 0 and x == y)
    with mock.patch.object(
            rd.Dataset, "iter_batches",
            side_effect=AssertionError("pair stream collected on the driver")):
        out = pairs_payload_metric(pairs, payloads, metric, "eq",
                                   max_probe_pairs=0)
    got = {(int(r.a), int(r.b)): r.eq for r in out.to_pandas().itertuples()}
    assert got == {(1, 2): 1.0, (1, 3): 0.0, (2, 9): 0.0}


def test_ngram_jaccard_frequent_gram_guard(ray_session):
    """A stop-gram shared by every doc must NOT produce n^2/2 pairs when its
    doc frequency exceeds max_gram_df: only pairs that also share an
    infrequent gram survive, and true duplicates still link (their other
    grams are rare)."""
    import ray.data as rd

    from nem_mms_ray.ops.dedup import ngram_jaccard_pairs

    n = 300
    # every doc starts with the same 3 words (one shared gram with df=n);
    # the rest of each doc is unique except for one planted duplicate
    texts = [f"of the and u{i}a u{i}b u{i}c u{i}d u{i}e" for i in range(n)]
    texts[250] = texts[17]
    df = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64), "text": texts})
    out = ngram_jaccard_pairs(rd.from_pandas(df), threshold=0.2,
                              max_gram_df=100).to_pandas()
    got = {(int(a), int(b)): j for a, b, j in zip(out["a"], out["b"], out["jaccard"])}
    # without the guard the shared gram alone emits n*(n-1)/2 = 44850 pairs;
    # with it, only the planted duplicate's pair survives the threshold
    assert (17, 250) in got
    assert len(got) < n
    # duplicate's jaccard is a lower bound (the dropped gram's contribution
    # to |intersection| is lost) but still well above threshold
    assert got[(17, 250)] >= 0.5


def test_ngram_jaccard_dropped_stats_side_output(ray_session):
    """With return_dropped_stats=True the capped run reports its recall
    loss as DATA: (pairs, stats) where stats carries the dropped-gram
    count and the max doc frequency seen — and the pair results are
    identical to the stats-less capped run (ADVICE r4)."""
    import ray.data as rd

    from nem_mms_ray.ops.dedup import ngram_jaccard_pairs

    n = 120
    texts = [f"of the and u{i}a u{i}b u{i}c u{i}d u{i}e" for i in range(n)]
    texts[100] = texts[17]
    df = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64), "text": texts})
    pairs, stats = ngram_jaccard_pairs(
        rd.from_pandas(df), threshold=0.2, max_gram_df=50,
        return_dropped_stats=True)
    got = pairs.to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    # the df=120 stop-gram was dropped: exactly one dropped gram, df seen 120
    assert stats == {"dropped_grams": 1, "max_gram_df_seen": n}
    base = ngram_jaccard_pairs(
        rd.from_pandas(df), threshold=0.2, max_gram_df=50
    ).to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, base)
    # uncapped run reports no loss
    _, s0 = ngram_jaccard_pairs(rd.from_pandas(df), threshold=0.2,
                                return_dropped_stats=True)
    assert s0 == {"dropped_grams": 0, "max_gram_df_seen": 0}


def test_gram_pairs_bucket_guard_warns(caplog):
    """Direct unit test of the in-bucket guard: oversized gram groups are
    skipped with a warning (the no-silent-caps rule), bounded groups pair."""
    import logging

    from nem_mms_ray.ops.dedup import _gram_pairs_in_bucket

    hot = pd.DataFrame({"doc_id": np.arange(1000, dtype=np.int64),
                        "gram": np.zeros(1000, np.int64),
                        "sz": np.full(1000, 7, np.int64)})
    cold = pd.DataFrame({"doc_id": np.array([3, 9], np.int64),
                         "gram": np.ones(2, np.int64),
                         "sz": np.array([7, 5], np.int64)})
    g = pd.concat([hot, cold], ignore_index=True)
    with caplog.at_level(logging.WARNING, logger="nem_mms_ray.ops.dedup"):
        out = _gram_pairs_in_bucket(g, "doc_id", max_gram_df=200)
    assert any("frequent gram" in r.message for r in caplog.records)
    assert len(out) == 1  # only the cold gram's single pair
    assert (int(out["a"][0]), int(out["b"][0])) == (3, 9)
    assert (int(out["na"][0]), int(out["nb"][0])) == (7, 5)


def test_jaccard_symmetry_and_bounds():
    from nem_mms_ray.ops.dedup import jaccard

    a = "the quick brown fox jumps over the lazy dog"
    b = "the quick brown fox leaps over the lazy dog"
    j = jaccard(a, b)
    assert 0 < j < 1
    assert jaccard(a, a) == 1.0
    assert jaccard(a, b) == jaccard(b, a)
    assert jaccard("", "") == 1.0


def test_simhash_identical_and_near(docs_ds, ray_session):
    from nem_mms_ray.ops.dedup import simhash_batch, simhash_near_pairs

    ds, df = docs_ds
    sig = ds.map_batches(simhash_batch, batch_format="pyarrow").to_pandas()
    sh = dict(zip(sig["doc_id"], sig["simhash"]))
    assert sh[10] == sh[50] == sh[51]
    # near-dup should be within a few bits
    ham = bin(np.uint64(np.int64(sh[20]).astype(np.uint64))
              ^ np.uint64(np.int64(sh[60]).astype(np.uint64))).count("1")
    assert ham <= 10
    pairs = simhash_near_pairs(ds, max_hamming=3).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs["a"], pairs["b"])}
    assert (10, 50) in got


def test_embedding_near_pairs(ray_session):
    import ray.data as rd

    from nem_mms_ray.ops.dedup import embedding_near_pairs

    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((100, 16))
    vecs[7] = vecs[3] + rng.standard_normal(16) * 0.01  # planted near-dup
    df = pd.DataFrame({
        "vec_id": np.arange(100, dtype=np.int64),
        "embedding": [v.astype(np.float32).tolist() for v in vecs],
    })
    pairs = embedding_near_pairs(rd.from_pandas(df), threshold=0.95).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs["a"], pairs["b"])}
    assert (3, 7) in got


def test_cosine_pairs_exact_matches_numpy(ray_session):
    import ray.data as rd

    from nem_mms_ray.ops.ann import cosine_pairs_exact
    from nem_mms_ray.ops.dedup import embedding_near_pairs

    rng = np.random.default_rng(11)
    vecs = rng.standard_normal((120, 16))
    vecs[9] = vecs[4] + rng.standard_normal(16) * 0.01  # planted near-dup
    df = pd.DataFrame({
        "vec_id": np.arange(120, dtype=np.int64),
        "embedding": [v.astype(np.float32).tolist() for v in vecs],
    })
    thr = 0.6
    got = cosine_pairs_exact(rd.from_pandas(df), threshold=thr).to_pandas()
    got_pairs = {(int(a), int(b)) for a, b in zip(got["a"], got["b"])}

    m = np.stack([np.asarray(v, np.float64) for v in df["embedding"]])
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    sim = mn @ mn.T
    ai, bi = np.triu_indices(len(m), k=1)
    expect = {(int(a), int(b)) for a, b in zip(ai[sim[ai, bi] >= thr], bi[sim[ai, bi] >= thr])}
    assert got_pairs == expect
    assert (4, 9) in got_pairs
    # LSH scale path finds only true pairs (subset of the exact baseline)
    lsh = embedding_near_pairs(rd.from_pandas(df), threshold=thr).to_pandas()
    lsh_pairs = {(int(a), int(b)) for a, b in zip(lsh["a"], lsh["b"])}
    assert lsh_pairs <= got_pairs
    assert (4, 9) in lsh_pairs


def test_ann_matches_numpy_bruteforce(ray_session):
    import ray.data as rd

    from nem_mms_ray.ops.ann import topk_cosine

    rng = np.random.default_rng(6)
    vecs = rng.standard_normal((300, 24))
    df = pd.DataFrame({
        "vec_id": np.arange(300, dtype=np.int64),
        "embedding": [v.tolist() for v in vecs],
    })
    q = vecs[0]
    res = topk_cosine(rd.from_pandas(df), q, k=5)
    mn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = mn @ (q / np.linalg.norm(q))
    expect = np.lexsort((np.arange(300), -sims))[:5]
    assert list(res["vec_id"]) == [int(i) for i in expect]
    assert res["cosine"].iloc[0] == pytest.approx(1.0)


def test_ivf_recall(ray_session):
    import ray.data as rd

    from nem_mms_ray.ops.ann import ivf_topk_cosine, topk_cosine

    rng = np.random.default_rng(7)
    centers = rng.standard_normal((8, 16)) * 4
    vecs = np.concatenate([c + rng.standard_normal((50, 16)) for c in centers])
    df = pd.DataFrame({
        "vec_id": np.arange(len(vecs), dtype=np.int64),
        "embedding": [v.tolist() for v in vecs],
    })
    ds = rd.from_pandas(df)
    q = vecs[10]
    exact = set(topk_cosine(ds, q, k=10)["vec_id"])
    approx = set(ivf_topk_cosine(ds, q, k=10, n_centroids=8, nprobe=3)["vec_id"])
    assert len(exact & approx) / 10 >= 0.7  # clustered data -> high recall


def test_curate_documents(ray_session):
    """Composed gate: low-quality and wrong-language docs drop; exact dups
    collapse to the min-id representative."""
    import ray.data as rd

    from nem_mms_ray.ops.curate import curate_documents

    en = ("the quick brown fox jumps over the lazy dog and runs to the "
          "hills with great speed for that is what foxes do in the wild ") * 5
    de = ("der hund und die katze sind mit den kindern in das haus "
          "gegangen und das ist nicht schlecht ") * 5
    df = pd.DataFrame({
        "doc_id": np.arange(5, dtype=np.int64),
        "text": [en, en, de, "short", en + "tail"],
    })
    out = curate_documents(rd.from_pandas(df), quality_min=0.5,
                           lang="en").to_pandas().sort_values("doc_id")
    # doc 1 is an exact dup of 0 (min id wins); 2 is German; 3 too short
    assert list(out["doc_id"]) == [0, 4]
    assert set(out["lang_pred"]) == {"en"}
    assert (out["quality"] >= 0.5).all()


def test_token_stats_and_quality(ray_session):
    import ray.data as rd

    from nem_mms_ray.ops.textstats import quality_score_batch, token_stats_batch

    df = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": ["one two three", "", None, "hi, there! ok."],
    })
    t = token_stats_batch(pa.Table.from_pandas(df))
    assert t.column("n_tokens").to_pylist() == [3, 0, 0, 3]
    assert t.column("n_chars_obs").to_pylist() == [13, 0, 0, 14]
    q = quality_score_batch(pa.Table.from_pandas(df))
    vals = q.column("quality").to_pylist()
    assert vals[1] == 0.0 and 0 <= vals[0] <= 1


def test_lang_id(ray_session):
    from nem_mms_ray.ops.textstats import LangId

    li = LangId()
    batch = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([
            "the cat sat on the mat and the dog was in the house",
            "der Hund ist nicht mit der Katze in das Haus",
            "",
        ]),
    })
    out = li(batch)
    assert out.column("lang_pred").to_pylist()[:2] == ["en", "de"]
    assert out.column("lang_pred").to_pylist()[2] == "und"


def test_multimodal_plumbing(ray_session):
    import ray.data as rd

    from nem_mms_ray.ops.multimodal import DecodeMedia, extract_features

    df = pd.DataFrame({
        "url": ["a", "b", "c"],
        "html": [b"x" * 1000, None, b"hello world" * 50],
    })
    dec = DecodeMedia()(pa.Table.from_pandas(df)).to_pandas()
    assert list(dec["media_ok"]) == [True, False, True]
    assert dec.loc[0, "media_bytes"] == 1000

    feats = extract_features(rd.from_pandas(df), concurrency=1).to_pandas()
    assert all(len(f) == 16 for f in feats["features"])
    assert np.allclose(sum(feats["features"][0]), 1.0)

    with pytest.raises(ValueError):
        DecodeMedia(backend="bogus")


def test_decode_media_real_backend():
    """backend='real' parses actual image headers with no media library:
    hand-built PNG/GIF/BMP/JPEG/PPM byte streams decode to true dims."""
    import struct

    from nem_mms_ray.ops.multimodal import DecodeMedia, sniff_media

    png = (b"\x89PNG\r\n\x1a\n" + struct.pack(">I", 13) + b"IHDR"
           + struct.pack(">II", 320, 200) + b"\x08\x02\x00\x00\x00" + b"\x00" * 8)
    gif = b"GIF89a" + struct.pack("<HH", 640, 480) + b"\x00" * 8
    bmp = (b"BM" + b"\x00" * 16 + struct.pack("<ii", 800, -600) + b"\x00" * 8)
    ppm = b"P6\n# a comment\n1024 768\n255\n" + b"\x00" * 16
    jpeg = (b"\xff\xd8"                                   # SOI
            + b"\xff\xe0" + struct.pack(">H", 4) + b"JF"   # APP0
            + b"\xff\xc0" + struct.pack(">H", 11)          # SOF0
            + b"\x08" + struct.pack(">HH", 99, 123) + b"\x03" + b"\x00" * 9)
    assert sniff_media(png) == ("png", 320, 200)
    assert sniff_media(gif) == ("gif", 640, 480)
    assert sniff_media(bmp) == ("bmp", 800, 600)   # abs(negative height)
    assert sniff_media(ppm) == ("pnm", 1024, 768)
    assert sniff_media(jpeg) == ("jpeg", 123, 99)
    assert sniff_media(b"not an image at all") is None

    df = pd.DataFrame({"url": list("abcdef"),
                       "html": [png, gif, bmp, ppm, jpeg, b"junk"]})
    dec = DecodeMedia(backend="real")(
        pa.Table.from_pandas(df)).to_pandas().sort_values("url")
    assert list(dec["media_ok"]) == [True] * 5 + [False]
    assert list(dec["media_format"].dropna()) == ["png", "gif", "bmp", "pnm", "jpeg"]
    assert list(dec["media_w"].dropna().astype(int)) == [320, 640, 800, 1024, 123]


def test_rolling_fingerprint_deterministic():
    from nem_mms_ray.ops.textstats import rolling_fingerprint_batch

    batch = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["some document text here " * 10, "short"]),
    })
    a = rolling_fingerprint_batch(batch)
    b = rolling_fingerprint_batch(batch)
    assert a.equals(b)
    # same content -> same fingerprint regardless of doc id
    batch2 = pa.table({
        "doc_id": pa.array([99], pa.int64()),
        "text": pa.array(["some document text here " * 10]),
    })
    assert rolling_fingerprint_batch(batch2).column("rfp")[0] == a.column("rfp")[0]


def test_relational_pricing_summary(ray_session):
    import ray.data as rd

    from nem_mms_ray.ops.relational import pricing_summary

    df = pd.DataFrame({
        "l_returnflag": ["A", "A", "B"],
        "l_linestatus": ["O", "O", "F"],
        "l_quantity": [1.0, 2.0, 3.0],
        "l_extendedprice": [10.0, 20.0, 30.0],
        "l_discount": [0.1, 0.2, 0.3],
    })
    out = pricing_summary(rd.from_pandas(df)).to_pandas().sort_values("l_returnflag")
    assert list(out["sum_qty"]) == [3.0, 3.0]
    assert list(out["n"]) == [2, 1]
    assert out["avg_disc"].iloc[0] == pytest.approx(0.15)


def test_sessionize_and_sliding_avg(ray_session):
    import ray.data as rd

    from nem_mms_ray.ops.relational import events_sliding_avg, sessionize_events

    base = pd.Timestamp("2024-01-01")
    mins = [0, 5, 10, 60, 61, 200]          # gaps: 30min rule -> 3 sessions
    df = pd.DataFrame({
        "event_id": np.arange(6, dtype=np.int64),
        "ts": [base + pd.Timedelta(minutes=m) for m in mins],
        "user_id": np.array([1, 1, 1, 1, 1, 1], np.int64),
        "value": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    })
    df["ts"] = df["ts"].astype("datetime64[us]")
    sess = sessionize_events(rd.from_pandas(df), gap_minutes=30).to_pandas()
    sess = sess.sort_values("session_id", ignore_index=True)
    assert list(sess["session_id"]) == [0, 1, 2]
    assert list(sess["n_events"]) == [3, 2, 1]
    assert sess["session_start"].iloc[1] == df["ts"].iloc[3]

    sl = events_sliding_avg(rd.from_pandas(df), window=3).to_pandas()
    sl = sl.sort_values("event_id", ignore_index=True)
    assert list(sl["sliding_avg"]) == [1.0, 1.5, 2.0, 3.0, 4.0, 5.0]


def test_window_mega_user_skew_guard(ray_session, monkeypatch, caplog):
    """One pathological user dominating the table: windows stay correct and
    complete (no silent cap), and the skew reporter fires past the limit."""
    import logging

    import ray.data as rd

    import nem_mms_ray.ops.relational as rel

    n = 500
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": pd.date_range("2024-01-01", periods=n, freq="1min")
                .astype("datetime64[us]"),
        "user_id": np.full(n, 7, np.int64),
        "value": np.ones(n),
    })
    sess = rel.sessionize_events(rd.from_pandas(df), gap_minutes=30).to_pandas()
    assert len(sess) == 1 and int(sess["n_events"].iloc[0]) == n
    sl = rel.events_sliding_avg(rd.from_pandas(df), window=3).to_pandas()
    assert len(sl) == n
    # reporter itself (runs inside the worker task at real scale)
    monkeypatch.setattr(rel, "MAX_USER_ROWS", 100)
    with caplog.at_level(logging.WARNING, logger="nem_mms_ray.ops.relational"):
        rel._warn_skewed_users(df, "sessionize_events")
    assert any("exceed" in r.message for r in caplog.records)


def test_ngram_jaccard_pairs_exact(ray_session):
    # dedicated corpus with a wide vocab: the shared docs_ds fixture's
    # 8-word vocab makes every gram co-occur in ~all docs, which is the
    # documented quadratic worst case for exact all-pairs jaccard
    import ray.data as rd

    from nem_mms_ray.ops.dedup import jaccard, ngram_jaccard_pairs

    rng = np.random.default_rng(13)
    vocab = [f"w{i}" for i in range(500)]
    texts = [" ".join(rng.choice(vocab, 30)) for _ in range(80)]
    texts[40] = texts[7]                        # exact dup
    w = texts[12].split(); w[3] = "CHANGED"     # near dup
    texts[55] = " ".join(w)
    df = pd.DataFrame({"doc_id": np.arange(80, dtype=np.int64), "text": texts})
    pairs = ngram_jaccard_pairs(rd.from_pandas(df), threshold=0.7).to_pandas()
    got = {(int(a), int(b)): j for a, b, j in zip(pairs["a"], pairs["b"], pairs["jaccard"])}
    assert (7, 40) in got and got[(7, 40)] == 1.0
    assert (12, 55) in got
    # the pairwise score matches the scalar jaccard() on the same texts
    expect = round(jaccard(df["text"][12], df["text"][55]), 6)
    assert got[(12, 55)] == expect


def test_sniff_media_fuzz_no_crash():
    """Random/truncated byte streams must never crash the header parser."""
    import random

    from nem_mms_ray.ops.multimodal import sniff_media

    rng = random.Random(42)
    prefixes = [b"", b"\x89PNG\r\n\x1a\n", b"GIF89a", b"BM", b"\xff\xd8",
                b"P6", b"P5\n#", b"\xff\xd8\xff\xc0"]
    for _ in range(300):
        p = rng.choice(prefixes)
        blob = p + bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 40)))
        r = sniff_media(blob)
        assert r is None or (isinstance(r[0], str) and len(r) == 3)


def test_resize_media_real_pnm():
    """Real pixel kernel: a generated P6 gradient resizes with exact
    nearest-neighbor values, round-tripped through the PNM codec."""
    from nem_mms_ray.ops.multimodal import ResizeMedia, decode_pnm, encode_pnm

    h, w = 40, 60
    img = np.zeros((h, w, 3), np.uint8)
    img[..., 0] = np.arange(w, dtype=np.uint8)[None, :]
    img[..., 1] = np.arange(h, dtype=np.uint8)[:, None]
    buf = encode_pnm(img)
    assert np.array_equal(decode_pnm(buf), img)
    gray = encode_pnm(img[..., 0])  # P5

    df = pd.DataFrame({"url": ["a", "b", "c", "d"],
                       "html": [buf, gray, b"\x89PNGnotreallydecodable", None]})
    out = ResizeMedia(width=20, height=10)(
        pa.Table.from_pandas(df)).to_pandas().set_index("url")
    assert list(out["resize_ok"]) == [True, True, False, False]
    r = decode_pnm(out.loc["a", "resized"])
    assert r.shape == (10, 20, 3)
    # nearest-neighbor: pixel (y, x) = source (y*40//10, x*60//20)
    assert r[3, 7, 0] == img[12, 21, 0] and r[3, 7, 1] == img[12, 21, 1]
    assert decode_pnm(out.loc["b", "resized"]).shape == (10, 20)


def test_repetition_and_quantiles(ray_session):
    import ray.data as rd

    from nem_mms_ray.ops.relational import exact_value_quantiles
    from nem_mms_ray.ops.textstats import repetition_batch

    rep = repetition_batch(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": ["spam spam spam spam spam", "all words here are unique now",
                 "ab", None],
    }))
    vals = rep.column("repetition").to_pylist()
    assert vals[0] > 0.6          # 3 identical grams out of 3
    assert vals[1] == 0.0         # all distinct
    assert vals[2] == 0.0 and vals[3] == 0.0

    df = pd.DataFrame({"event_id": np.arange(101, dtype=np.int64),
                       "value": np.arange(101, dtype=np.float64)})
    q = exact_value_quantiles(rd.from_pandas(df), qs=(0.0, 0.5, 1.0))
    assert q.column("value").to_pylist() == [0.0, 50.0, 100.0]


def test_pairs_payload_metric_randomized(ray_session):
    """Randomized (seeded) check of the shuffle-join verify against a local
    reference: many pairs, shared ids, missing ids."""
    import ray.data as rd

    from nem_mms_ray.ops.dedup import pairs_payload_metric

    rng = np.random.default_rng(17)
    n_ids = 120
    payload_of = {i: bytes(rng.integers(0, 256, rng.integers(1, 9)).astype(np.uint8))
                  for i in range(n_ids)}
    pairs = set()
    while len(pairs) < 300:
        a, b = sorted(rng.integers(0, n_ids + 10, 2))  # some ids missing
        if a != b:
            pairs.add((int(a), int(b)))
    pairs = sorted(pairs)
    pairs_ds = rd.from_items([{"a": a, "b": b} for a, b in pairs])
    pay_ds = rd.from_items([{"jid": i, "payload": payload_of[i]}
                            for i in range(n_ids)])

    def metric(x, y):
        return float(len(x) + 2 * len(y))

    expect = {(a, b): float(len(payload_of.get(a, b"")) +
                            2 * len(payload_of.get(b, b"")))
              for a, b in pairs}
    # BOTH regimes must agree with the local reference: payload-broadcast
    # (default cap) and the two-shuffle path (cap forced to 0)
    for cap in (256 << 20, 0):
        out = pairs_payload_metric(pairs_ds, pay_ds, metric, "m",
                                   max_broadcast_payload=cap).to_pandas()
        got = {(int(r.a), int(r.b)): r.m for r in out.itertuples()}
        assert got == expect, f"cap={cap}"


def test_score_shuffle_routes_fill_every_bucket(ray_session, monkeypatch):
    """The score shuffle of the two-shuffle regime gives each of the 64
    pair routes a bucket of its own (keyed by the route number itself,
    the 64 routes fill only 39 buckets), and the scores equal the
    broadcast regime's."""
    from unittest import mock

    import ray.data as rd

    from nem_mms_ray.ops import dedup
    from nem_mms_ray.ops.readutil import key_buckets

    rng = np.random.default_rng(3)
    payload_of = {i: bytes(rng.integers(0, 256, 6).astype(np.uint8))
                  for i in range(300)}
    pairs = sorted({tuple(sorted(map(int, rng.choice(300, 2, replace=False))))
                    for _ in range(2000)})
    pairs_ds = rd.from_arrow(pa.table({"a": [a for a, _ in pairs],
                                       "b": [b for _, b in pairs]}))
    pay_ds = rd.from_arrow(pa.table({"jid": list(payload_of),
                                     "payload": list(payload_of.values())}))
    metric = lambda x, y: float(x[0] ^ y[0])
    groups = mock.Mock(wraps=dedup.keyed_map_groups)
    monkeypatch.setattr(dedup, "keyed_map_groups", groups)

    def scores(probe):
        out = dedup.pairs_payload_metric(pairs_ds, pay_ds, metric, "m",
                                         max_probe_pairs=probe).to_pandas()
        return sorted(zip(out["a"], out["b"], out["m"]))

    assert scores(0) == scores(4_000_000)
    score_input = next(c.args[0] for c in groups.call_args_list
                       if c.args[1] == ["route"])
    routes = np.unique(score_input.to_pandas()["route"].to_numpy(np.int32))
    assert len(routes) == 64
    buckets = key_buckets(pa.table({"route": pa.array(routes)}), ["route"], 64)
    assert len(np.unique(buckets)) == 64


def test_ngram_dropped_stats_matches_duckdb(ray_session):
    """Oracle-level check for the capped n-gram recall-loss side output,
    held OUT of the driver's queries() because its report caps at 50 rows
    (see _ngram_dropped_stats): the Ray stats must equal the same two
    aggregates computed by DuckDB over the literal trigram df
    distribution at sf0.001.

    Shared caveat of every token oracle in __ray_entry__ (all use
    regexp_split_to_array(text, '\\s+')): DuckDB's RE2 \\s is
    ASCII-only while Arrow's utf8_split_whitespace is Unicode-aware,
    so the comparison assumes ASCII whitespace — which the
    deterministic testdata generator guarantees."""
    import sys
    from pathlib import Path

    import duckdb

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    import __ray_entry__ as entry

    sf_dir = "/root/testdata/sf0.001"
    got = entry._ngram_dropped_stats(sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf_dir}/documents.parquet')")
    want = con.sql(entry.NGRAM_DROPPED_STATS_SQL).df()
    assert int(got["dropped_grams"][0]) == int(want["dropped_grams"][0])
    assert (int(got["max_gram_df_seen"][0])
            == int(want["max_gram_df_seen"][0]))
    assert int(got["dropped_grams"][0]) > 0  # the cap actually engaged


def test_pairs_payload_metric_shuffle_vectorized_branch(ray_session,
                                                        monkeypatch):
    """The two-shuffle regime's VECTORIZED scoring branch (per-bucket
    payload store + pair_metric_batch) must match the scalar metric —
    it only triggers past the broadcast caps, which this test forces
    (max_probe_pairs=0 skips the probe AND the broadcast regime), so
    without this no test reaches the at-scale branch at all."""
    import ray.data as rd

    from nem_mms_ray.ops import readutil
    from nem_mms_ray.ops.dedup import pairs_payload_metric

    monkeypatch.setattr(readutil, "N_BUCKETS", 7)
    rng = np.random.default_rng(23)
    n_ids = 90
    payload_of = {i: bytes(rng.integers(0, 256, rng.integers(0, 7))
                           .astype(np.uint8)) for i in range(n_ids)}
    pairs = set()
    while len(pairs) < 250:
        a, b = sorted(rng.integers(0, n_ids + 15, 2))  # some ids missing
        if a != b:
            pairs.add((int(a), int(b)))
    pairs = sorted(pairs)

    def metric(x, y):
        return float(len(x) + 2 * len(y))

    def metric_batch(flat, off, a_pos, b_pos, metric_min):
        la = off[a_pos + 1] - off[a_pos]
        lb = off[b_pos + 1] - off[b_pos]
        return (la + 2 * lb).astype(np.float64)

    expect = {(a, b): metric(payload_of.get(a, b""), payload_of.get(b, b""))
              for a, b in pairs}
    pairs_ds = rd.from_items([{"a": a, "b": b} for a, b in pairs])
    pay_ds = rd.from_items([{"jid": i, "payload": payload_of[i]}
                            for i in range(n_ids)])
    out = pairs_payload_metric(pairs_ds, pay_ds, metric, "m",
                               pair_metric_batch=metric_batch,
                               max_probe_pairs=0).to_pandas()
    got = {(int(r.a), int(r.b)): r.m for r in out.itertuples()}
    assert got == expect


def test_curated_text_semijoin_both_paths(ray_session):
    """Broadcast and native-join semi-join return the same curated rows
    (doc_id, text, lang_pred, quality); non-winners never appear."""
    import ray.data as rd

    from nem_mms_ray.ops.curate import curate_documents, curated_text_semijoin

    en = ("the quick brown fox jumps over the lazy dog and runs to the "
          "hills with great speed for that is what foxes do in the wild ") * 5
    df = pd.DataFrame({
        "doc_id": np.arange(5, dtype=np.int64),
        "text": [en, en, "kurz", "short", en + "tail"],
    })
    src = lambda: rd.from_pandas(df)
    winners = curate_documents(src(), quality_min=0.5, lang="en")
    wins_pd = winners.to_pandas()

    bc = curated_text_semijoin(src(), winners).to_pandas().sort_values("doc_id")
    winners2 = curate_documents(src(), quality_min=0.5, lang="en")
    dist = curated_text_semijoin(src(), winners2, max_broadcast_ids=0
                                 ).to_pandas().sort_values("doc_id")

    for out in (bc, dist):
        assert list(out["doc_id"]) == sorted(wins_pd["doc_id"])
        assert list(out.columns) == ["doc_id", "text", "lang_pred", "quality"]
        assert (out.set_index("doc_id")["text"]
                == df.set_index("doc_id")["text"].loc[out["doc_id"]]).all()
    pd.testing.assert_frame_equal(bc.reset_index(drop=True),
                                  dist.reset_index(drop=True))


def test_simhash_near_pairs_hamming_zero_is_exact_dups(ray_session):
    """At max_hamming=0 over a high-entropy corpus the pair set equals the
    identical-text pairs (the guaranteed-recall regime the
    simhash_near_dups oracle runs).  Needs a rich vocabulary: tiny-vocab
    docs (e.g. the 8-word docs_ds fixture) collide on all 64 bits at
    realistic rates because the signature is a sign-sum over only 8
    distinct word hashes."""
    import ray.data as rd

    from nem_mms_ray.ops.dedup import simhash_near_pairs

    rng = np.random.default_rng(5)
    vocab = [f"tok{i}" for i in range(5000)]
    texts = [" ".join(rng.choice(vocab, 40)) for _ in range(200)]
    texts[50] = texts[10]
    texts[51] = texts[10]
    df = pd.DataFrame({"doc_id": np.arange(200, dtype=np.int64), "text": texts})
    out = simhash_near_pairs(rd.from_pandas(df), max_hamming=0).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(out["a"], out["b"])}
    expect = {(10, 50), (10, 51), (50, 51)}
    assert got == expect
    assert (out["hamming"] == 0).all()


def test_ivf_exhaustive_probe_matches_bruteforce(ray_session):
    """nprobe == n_centroids makes IVF exhaustive: top-k must equal the
    brute-force ranking exactly (the ivf_ann_topk oracle regime)."""
    import ray.data as rd

    from nem_mms_ray.ops.ann import ivf_topk_cosine, topk_cosine

    rng = np.random.default_rng(7)
    m = rng.standard_normal((400, 16))
    df = pd.DataFrame({"vec_id": np.arange(400, dtype=np.int64),
                       "embedding": list(m)})
    q = m[3]
    bf = topk_cosine(rd.from_pandas(df), q, k=10)
    ivf = ivf_topk_cosine(rd.from_pandas(df), q, k=10, n_centroids=8, nprobe=8)
    assert list(ivf["vec_id"]) == list(bf["vec_id"])
    np.testing.assert_allclose(ivf["cosine"], bf["cosine"], atol=1e-9)
    assert list(ivf["rank"]) == list(range(1, 11))


def test_sampled_exact_quantiles_matches_sort(ray_session):
    """The shuffle-free two-pass gives the same exact order statistics as
    the full-sort variant, including with heavy duplicates."""
    import ray.data as rd

    from nem_mms_ray.ops.relational import (exact_value_quantiles,
                                            sampled_exact_quantiles)

    rng = np.random.default_rng(11)
    vals = np.concatenate([rng.standard_normal(3000).round(2),
                           np.full(500, 0.42)])  # duplicate spike
    df = pd.DataFrame({"value": vals})
    qs = (0.1, 0.25, 0.5, 0.75, 0.9)
    a = exact_value_quantiles(rd.from_pandas(df), qs=qs)
    b = sampled_exact_quantiles(rd.from_pandas(df), qs=qs)
    assert a.column("value").to_pylist() == b.column("value").to_pylist()
    assert b.column("q").to_pylist() == sorted(qs)


def test_hash_sample_deterministic_and_rate(ray_session):
    """Same corpus -> same sample on repeat; empirical rate near nominal;
    threshold formatting exact."""
    import hashlib

    import ray.data as rd

    from nem_mms_ray.ops.sampling import hash_sample, sample_threshold

    assert sample_threshold(0.25) == "4000"
    assert sample_threshold(0.0) == "0000"
    assert sample_threshold(1.0) == "g"  # above every hex digit: keeps all
    rng = np.random.default_rng(2)
    texts = [" ".join(map(str, rng.integers(0, 1e6, 8))) for _ in range(2000)]
    df = pd.DataFrame({"doc_id": np.arange(2000, dtype=np.int64), "text": texts})
    a = hash_sample(rd.from_pandas(df), rate=0.25).to_pandas()
    b = hash_sample(rd.from_pandas(df), rate=0.25).to_pandas()
    assert sorted(a["doc_id"]) == sorted(b["doc_id"])
    assert 0.18 < len(a) / 2000 < 0.32
    # every kept doc really is below the threshold
    for t in a["text"].head(20):
        assert hashlib.md5(t.encode()).hexdigest()[:4] < "4000"


def test_token_topk_exact(ray_session):
    import ray.data as rd

    from nem_mms_ray.ops.sampling import token_topk

    df = pd.DataFrame({"text": ["a b b c C c", "c a", None, "  "]})
    out = token_topk(rd.from_pandas(df), k=2).to_pandas()
    assert list(out["token"]) == ["c", "a"]  # c:4 (case-folded), a:2
    assert list(out["n"]) == [4, 2]


def test_stratified_cap(ray_session):
    """Global first-N per group survives multi-batch partials."""
    import ray.data as rd

    from nem_mms_ray.ops.sampling import stratified_cap

    n = 3000
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64)[::-1],  # descending ids
        "lang": np.where(np.arange(n) % 3 == 0, "en", "de"),
    })
    out = stratified_cap(rd.from_pandas(df).repartition(8), cap=5,
                         group_col="lang", order_col="doc_id").to_pandas()
    assert len(out) == 10
    for lang, g in out.groupby("lang"):
        expect = sorted(df[df["lang"] == lang]["doc_id"])[:5]
        assert sorted(g["doc_id"]) == expect


def test_qdigest_exact_low_cardinality(ray_session):
    """<= capacity distinct values: digest quantiles are exact order
    statistics across many batches (the oracle regime)."""
    import ray.data as rd

    from nem_mms_ray.ops.qdigest import digest_quantiles
    from nem_mms_ray.ops.relational import exact_value_quantiles

    rng = np.random.default_rng(4)
    vals = rng.integers(1, 51, 20000).astype(np.float64)
    df = pd.DataFrame({"value": vals})
    qs = (0.1, 0.25, 0.5, 0.75, 0.9)
    sk = digest_quantiles(rd.from_pandas(df).repartition(16), qs=qs)
    ex = exact_value_quantiles(rd.from_pandas(df), qs=qs)
    assert sk.column("value").to_pylist() == ex.column("value").to_pylist()


def test_qdigest_error_bound():
    """Continuous data: rank error of each returned quantile is within
    ~a few centroid widths (n / capacity)."""
    from nem_mms_ray.ops.qdigest import (digest_batch, digest_quantile,
                                         merge_digests)

    rng = np.random.default_rng(9)
    x = rng.standard_normal(60000)
    parts = [digest_batch(c, 512) for c in np.array_split(x, 30)]
    v, w = merge_digests(parts, 512)
    # greedy packing closes a bin early when the next centroid would
    # overflow it, so the bin count can exceed capacity by a few percent
    assert len(v) <= 512 * 1.1
    xs = np.sort(x)
    for q in (0.01, 0.25, 0.5, 0.75, 0.99):
        got = digest_quantile(v, w, q)
        rank = np.searchsorted(xs, got)
        assert abs(rank - q * len(x)) < 5 * len(x) / 512, q


def test_qdigest_merge_exactness_any_order():
    """Low-cardinality partials merge exactly regardless of grouping."""
    from nem_mms_ray.ops.qdigest import digest_batch, digest_quantile, merge_digests

    rng = np.random.default_rng(10)
    x = rng.integers(0, 40, 5000).astype(np.float64)
    chunks = np.array_split(x, 7)
    a = merge_digests([digest_batch(c, 512) for c in chunks], 512)
    b = merge_digests([digest_batch(c, 512) for c in chunks[::-1]], 512)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    xs = np.sort(x)
    for q in (0.0, 0.33, 0.5, 1.0):
        assert digest_quantile(*a, q) == xs[int(np.floor(q * (len(xs) - 1)))]


def test_hash_equijoin_inner_and_left(ray_session):
    """Bucketed equi-join matches pandas merge, both modes; duplicate keys
    on the right fan out; unmatched-left rows null-extend in 'left'."""
    import ray.data as rd

    from nem_mms_ray.ops.relational import hash_equijoin

    left = pd.DataFrame({"k": np.array([1, 2, 2, 3, 9], np.int64),
                         "lv": np.arange(5, dtype=np.int64)})
    right = pd.DataFrame({"k": np.array([2, 3, 3, 4], np.int64),
                          "rv": np.array([20, 30, 31, 40], np.int64)})
    got = hash_equijoin(rd.from_pandas(left).repartition(3),
                        rd.from_pandas(right).repartition(2),
                        on="k", left_cols=("k", "lv"), right_cols=("k", "rv"),
                        num_partitions=4).to_pandas()
    exp = left.merge(right, on="k", how="inner")
    key = lambda d: sorted(map(tuple, d[["k", "lv", "rv"]].to_numpy()))
    assert key(got) == key(exp)

    gotl = hash_equijoin(rd.from_pandas(left), rd.from_pandas(right),
                         on="k", left_cols=("k", "lv"), right_cols=("k", "rv"),
                         how="left", num_partitions=4).to_pandas()
    expl = left.merge(right, on="k", how="left")
    assert len(gotl) == len(expl)
    assert gotl["rv"].isna().sum() == expl["rv"].isna().sum()


def test_inverted_index_build_and_pruned_lookup(ray_session, tmp_path):
    """Postings round-trip; lookup reads only the queried tokens' shards."""
    import ray.data as rd

    from nem_mms_ray.ops.invindex import (_token_shard, build_token_index,
                                          lookup_postings)

    df = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": ["the cat sat", "the dog ran", "cat and dog", "", None,
                 "THE the The"],  # case folding + per-doc distinct
    })
    idx = tmp_path / "inv"
    build_token_index(rd.from_pandas(df), idx, n_shards=8)
    out = lookup_postings(idx, ["the", "cat"], n_shards=8).to_pandas()
    got = {(t, int(d)) for t, d in zip(out["token"], out["doc_id"])}
    assert got == {("the", 0), ("the", 1), ("the", 5), ("cat", 0), ("cat", 2)}
    # pruning: only the shards 'the'/'cat' hash to exist on the read path
    shards = {int(s) for s in _token_shard(["the", "cat"], 8)}
    from pathlib import Path
    touched = {int(p.name.split("=")[1])
               for p in Path(idx, "postings").iterdir() if "=" in p.name}
    assert shards <= touched  # those shards were written
    empty = lookup_postings(idx, ["zzz-not-present"], n_shards=8).to_pandas()
    assert len(empty) == 0


def test_tokenize_column_exact_buffer_boundary():
    """pyarrow 16.1's utf8_split_whitespace reads past the data buffer
    when the final string abuts its exact end (utf8_lower's fresh
    allocation): the trailing token then nondeterministically keeps its
    whitespace ('cat ' != 'cat').  tokenize_column pads with a sentinel
    doc; every token must equal the Python-split ground truth across many
    independently-allocated arrays (pre-fix this failed most runs)."""
    import pyarrow.compute as pc

    from nem_mms_ray.ops.textkernels import tokenize_column

    for i in range(50):
        docs = [f"the doc number {i} cat ", f"tail space {i}  "]
        # route through utf8_lower like the kernel does, forcing a fresh
        # exactly-sized allocation whose final string touches buffer end
        arr = pc.utf8_lower(pa.array(docs))
        flat, di = tokenize_column(arr)
        got = sorted(zip(flat.to_pylist(), di.tolist()))
        want = sorted((w, j) for j, d in enumerate(docs)
                      for w in d.lower().split())
        assert got == want, (i, got, want)
        assert all(t == t.strip() and t for t in flat.to_pylist())


def test_tfidf_topk_matches_reference(ray_session):
    """TF-IDF top-k equals a straightforward local computation, including
    tf multiplicity and the (score desc, id asc) tie order."""
    import math

    import ray.data as rd

    from nem_mms_ray.ops.invindex import tfidf_topk

    docs = ["cat cat dog", "dog", "cat fish", "bird", "", "CAT"]
    df = pd.DataFrame({"doc_id": np.arange(6, dtype=np.int64), "text": docs})
    out = tfidf_topk(rd.from_pandas(df).repartition(3), ["cat", "dog"], k=3)
    n = 6
    w_cat = round(math.log1p(n / 3), 6)   # docs 0, 2, 5
    w_dog = round(math.log1p(n / 2), 6)   # docs 0, 1
    exp = {0: round(2 * w_cat + w_dog, 4), 1: round(w_dog, 4),
           2: round(w_cat, 4), 5: round(w_cat, 4)}
    top = sorted(exp.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
    got = list(zip(out.column("doc_id").to_pylist(),
                   out.column("score").to_pylist()))
    assert [(d, round(s, 4)) for d, s in got] == top


def test_assign_clusters_matches_numpy(ray_session):
    import ray.data as rd

    from nem_mms_ray.ops.ann import assign_clusters

    rng = np.random.default_rng(3)
    m = rng.standard_normal((200, 8))
    cents = m[:5]
    df = pd.DataFrame({"vec_id": np.arange(200, dtype=np.int64),
                       "embedding": list(m)})
    out = assign_clusters(rd.from_pandas(df).repartition(4), cents).to_pandas()
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    cn = cents / np.linalg.norm(cents, axis=1, keepdims=True)
    exp = (mn @ cn.T).argmax(axis=1)
    got = out.sort_values("vec_id")["cluster"].to_numpy()
    assert np.array_equal(got, exp)


def test_connected_components_chain_and_clusters(ray_session):
    """Min-label propagation over a chain (diameter > 1) and disjoint
    clusters: every node labels with its component's min id."""
    import ray.data as rd

    from nem_mms_ray.ops.dedup import connected_components

    # chain 1-2-3-4-5 (diameter 4), triangle 10-11-12, pair 20-21
    pairs = pd.DataFrame({
        "a": np.array([1, 2, 3, 4, 10, 10, 11, 20], np.int64),
        "b": np.array([2, 3, 4, 5, 11, 12, 12, 21], np.int64),
    })
    out = connected_components(rd.from_pandas(pairs)).to_pandas()
    got = dict(zip(out["id"].astype(int), out["component"].astype(int)))
    assert got == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1,
                   10: 10, 11: 10, 12: 10, 20: 20, 21: 20}


def test_group_quantiles_exact_and_multibatch(ray_session):
    """Per-group digest quantiles equal per-group numpy order statistics
    in the low-cardinality regime, across multiple batches."""
    import ray.data as rd

    from nem_mms_ray.ops.qdigest import group_quantiles

    rng = np.random.default_rng(6)
    n = 9000
    df = pd.DataFrame({
        "grp": np.where(np.arange(n) % 3 == 0, "A", "B"),
        "value": rng.integers(1, 40, n).astype(np.float64),
    })
    out = group_quantiles(rd.from_pandas(df).repartition(8),
                          group_col="grp", col="value",
                          qs=(0.1, 0.5, 0.9)).to_pandas()
    for grp, g in df.groupby("grp"):
        xs = np.sort(g["value"].to_numpy())
        for q in (0.1, 0.5, 0.9):
            exp = xs[int(np.floor(q * (len(xs) - 1)))]
            got = out[(out["grp"] == grp) & (out["q"] == q)]["value"].iloc[0]
            assert got == exp, (grp, q)


def test_hash_equijoin_rejects_unknown_how(ray_session):
    """A typo'd how must raise, not silently produce a left join (ADVICE r3)."""
    import ray.data as rd

    from nem_mms_ray.ops.relational import hash_equijoin

    df = pd.DataFrame({"k": [1], "v": [2]})
    with pytest.raises(ValueError, match="how"):
        hash_equijoin(rd.from_pandas(df), rd.from_pandas(df),
                      on="k", left_cols=("k", "v"), right_cols=("k",),
                      how="right")


def test_join_partitions_derivation():
    """Partition sizing: explicit wins; no edge count -> fixed 16 ceiling;
    with an edge count, ~1M rows/partition capped by CPU slots (VERDICT r3)."""
    from nem_mms_ray.ops.dedup import _join_partitions

    assert _join_partitions(7) == 7
    assert _join_partitions(cpus=64) == 16
    assert _join_partitions(cpus=4) == 2
    # 10M edges / 1M per partition = 10, fits a 64-CPU cluster
    assert _join_partitions(edge_rows=10_000_000, cpus=64) == 10
    # same edges on 8 CPUs: capped at cpus//2 (aggregators need CPU slots)
    assert _join_partitions(edge_rows=10_000_000, cpus=8) == 4
    # tiny edge lists keep the floor of 2
    assert _join_partitions(edge_rows=5, cpus=64) == 2
    # a 100-TB-scale edge list is NOT capped at 16 when CPUs allow
    assert _join_partitions(edge_rows=1_000_000_000, cpus=4096) == 1000


def test_connected_components_ids_above_2_53(ray_session):
    """Node ids above 2^53 (64-bit hash ids): float64 routing would collapse
    distinct ids to one label and merge unrelated clusters (ADVICE r3)."""
    import ray.data as rd

    from nem_mms_ray.ops.dedup import connected_components

    base = 1 << 60  # float64 spacing here is 256: base+1..base+4 collapse
    pairs = pd.DataFrame({
        "a": np.array([base + 1, base + 3], np.int64),
        "b": np.array([base + 2, base + 4], np.int64),
    })
    out = connected_components(rd.from_pandas(pairs)).to_pandas()
    lab = dict(zip(out["id"].astype(np.int64), out["component"].astype(np.int64)))
    assert lab == {base + 1: base + 1, base + 2: base + 1,
                   base + 3: base + 3, base + 4: base + 3}


def test_ngram_jaccard_default_is_exact(ray_session):
    """Default max_gram_df=None: a duplicate set larger than any old cap
    still produces ALL its pairs (the exact contract, ADVICE r3)."""
    import ray.data as rd

    from nem_mms_ray.ops.dedup import ngram_jaccard_pairs

    text = "alpha beta gamma delta epsilon zeta"
    df = pd.DataFrame({"doc_id": np.arange(6, dtype=np.int64),
                       "text": [text] * 6})
    out = ngram_jaccard_pairs(rd.from_pandas(df), threshold=0.5).to_pandas()
    assert len(out) == 15  # C(6,2): every pair, jaccard 1.0
    assert (out["jaccard"] == 1.0).all()


def test_tfidf_topk_index_path_matches_and_prunes(ray_session, tmp_path):
    """TF-IDF through the persisted index returns exactly the corpus-scan
    result, and reads ONLY the probed shards: every non-probed shard is
    deleted before the query and the result is unchanged (VERDICT r3)."""
    import shutil
    from pathlib import Path

    import ray.data as rd

    from nem_mms_ray.ops.invindex import (_token_shard, build_token_index,
                                          tfidf_topk)

    docs = ["cat cat dog", "dog", "cat fish", "bird", "", "CAT"]
    df = pd.DataFrame({"doc_id": np.arange(6, dtype=np.int64), "text": docs})
    ds = rd.from_pandas(df).repartition(3)
    base = tfidf_topk(ds, ["cat", "dog"], k=3)
    idx = tmp_path / "inv"
    build_token_index(ds, idx, n_shards=16)
    probed = {int(s) for s in _token_shard(["cat", "dog"], 16)}
    for p in Path(idx, "postings").iterdir():
        if "=" in p.name and int(p.name.split("=")[1]) not in probed:
            shutil.rmtree(p)
    out = tfidf_topk(ds, ["cat", "dog"], k=3, index_dir=idx)
    assert out.equals(base), (out.to_pydict(), base.to_pydict())


def test_tfidf_topk_candidate_cap_falls_back(ray_session, tmp_path):
    """A query token frequent enough that its postings exceed
    `max_candidate_ids` must NOT be broadcast driver-side: the candidate
    collection is skipped (cand=None), df still comes from the index, and
    the unfiltered-scan scoring returns the identical result (ADVICE r4)."""
    import ray.data as rd

    from nem_mms_ray.ops.invindex import (_index_df_and_candidates,
                                          build_token_index, tfidf_topk)

    # "the" is a deliberate stop-word: present in every doc
    docs = [f"the doc number {i} " + ("cat " * (i % 3)) for i in range(40)]
    df = pd.DataFrame({"doc_id": np.arange(40, dtype=np.int64), "text": docs})
    ds = rd.from_pandas(df).repartition(4)
    base = tfidf_topk(ds, ["the", "cat"], k=5)
    idx = tmp_path / "inv"
    build_token_index(ds, idx, n_shards=8)

    # cap below "the"'s df: the candidate set must be withheld ...
    cmap, n_docs, cand = _index_df_and_candidates(
        idx, ["cat", "the"], "doc_id", max_candidate_ids=10)
    assert cand is None and cmap["the"] == 40 and n_docs == 40
    # ... and the capped index path still scores exactly the corpus scan
    out = tfidf_topk(ds, ["the", "cat"], k=5, index_dir=idx,
                     max_candidate_ids=10)
    assert out.equals(base), (out.to_pydict(), base.to_pydict())
    # sanity: an uncapped run broadcasts and also matches
    out2 = tfidf_topk(ds, ["the", "cat"], k=5, index_dir=idx)
    assert out2.equals(base)


def test_lookup_postings_manifest_guards(ray_session, tmp_path):
    """The index manifest pins shard count and hash scheme: a disagreeing
    n_shards raises instead of silently returning empty postings
    (ADVICE r3); omitting n_shards uses the manifest's value."""
    import ray.data as rd

    from nem_mms_ray.ops.invindex import build_token_index, lookup_postings

    df = pd.DataFrame({"doc_id": np.arange(2, dtype=np.int64),
                       "text": ["cat dog", "dog fish"]})
    idx = tmp_path / "inv"
    build_token_index(rd.from_pandas(df), idx, n_shards=8)
    with pytest.raises(ValueError, match="manifest"):
        lookup_postings(idx, ["dog"], n_shards=4)
    out = lookup_postings(idx, ["dog"]).to_pandas()  # n_shards from manifest
    assert set(out["doc_id"].astype(int)) == {0, 1}


def test_token_topk_sketch_exact_regime(ray_session):
    """Capacity >= vocab keeps the Misra-Gries error at zero: the sketch
    result is bit-identical to the exact token_topk."""
    import ray.data as rd

    from nem_mms_ray.ops.sampling import token_topk, token_topk_sketch

    rng = np.random.default_rng(11)
    vocab = np.array([f"w{i}" for i in range(60)])
    docs = [" ".join(rng.choice(vocab, size=30)) for _ in range(200)]
    ds = rd.from_pandas(pd.DataFrame({"text": docs})).repartition(6)
    exact = token_topk(ds, k=15).to_pandas().reset_index(drop=True)
    sk = token_topk_sketch(ds, k=15, capacity=4096).to_pandas()
    assert sk.reset_index(drop=True).equals(exact)


def test_token_topk_sketch_bounds(ray_session):
    """Approximate regime (capacity << vocab): every reported count
    brackets the true count (n_lo <= true <= n_hi), and every token whose
    true count exceeds the accumulated error survives the sketch — the
    Misra-Gries heavy-hitter guarantee."""
    import ray.data as rd

    from nem_mms_ray.ops.sampling import token_topk, token_topk_sketch

    rng = np.random.default_rng(3)
    vocab = np.array([f"w{i}" for i in range(300)])
    probs = 1.0 / (np.arange(300) + 1) ** 1.3
    probs /= probs.sum()
    docs = [" ".join(rng.choice(vocab, p=probs, size=40)) for _ in range(300)]
    ds = rd.from_pandas(pd.DataFrame({"text": docs})).repartition(8)
    true = (token_topk(ds, k=300).to_pandas()
            .set_index("token")["n"].astype(int))
    b = token_topk_sketch(ds, k=20, capacity=24,
                          with_bounds=True).to_pandas()
    err = int((b["n_hi"] - b["n_lo"]).iloc[0])
    assert err > 0  # genuinely approximate regime
    for _, r in b.iterrows():
        t = true.get(r["token"], 0)
        assert r["n_lo"] <= t <= r["n_hi"], (r["token"], r["n_lo"], t)
    # heavy-hitter presence: tokens with true count > err must be in the
    # full summary (query the sketch wide enough to see all survivors)
    full = token_topk_sketch(ds, k=10**6, capacity=24).to_pandas()
    kept = set(full["token"])
    for tok, n in true.items():
        if n > err:
            assert tok in kept, (tok, n, err)


def test_token_topk_sketch_empty_and_null(ray_session):
    """Null/empty docs contribute nothing; an all-empty corpus yields an
    empty sketch in both output shapes."""
    import ray.data as rd

    from nem_mms_ray.ops.sampling import token_topk_sketch

    df = pd.DataFrame({"text": [None, "", "  ", "a a b"]})
    out = token_topk_sketch(rd.from_pandas(df), k=5).to_pandas()
    assert list(out["token"]) == ["a", "b"]
    assert list(out["n"]) == [2, 1]
    empty = pd.DataFrame({"text": [None, ""]})
    out2 = token_topk_sketch(rd.from_pandas(empty), k=5,
                             with_bounds=True).to_pandas()
    assert len(out2) == 0 and list(out2.columns) == ["token", "n_lo", "n_hi"]


def test_drop_ids_both_paths(ray_session):
    """Anti-join keeps exactly the non-dropped rows, all columns intact,
    identically through the broadcast and native-join shapes."""
    import ray.data as rd

    from nem_mms_ray.ops.curate import drop_ids

    df = pd.DataFrame({"doc_id": np.arange(20, dtype=np.int64),
                       "text": [f"t{i}" for i in range(20)]})
    drop = pd.DataFrame({"id": np.array([3, 7, 11, 19], np.int64)})

    bc = drop_ids(rd.from_pandas(df), rd.from_pandas(drop)
                  ).to_pandas().sort_values("doc_id")
    dist = drop_ids(rd.from_pandas(df), rd.from_pandas(drop),
                    max_broadcast_ids=0
                    ).to_pandas().sort_values("doc_id")
    want = df[~df["doc_id"].isin(drop["id"])]
    for out in (bc, dist):
        assert list(out["doc_id"]) == list(want["doc_id"])
        assert list(out["text"]) == list(want["text"])
    # empty drop set: everything survives
    none = drop_ids(rd.from_pandas(df),
                    rd.from_pandas(pd.DataFrame({"id": np.array([], np.int64)}))
                    ).to_pandas()
    assert len(none) == 20


def test_id_join_empty_set_native_shape(ray_session):
    """An empty id set with the native-join shape forced
    (max_broadcast_ids=0): keep_ids returns no rows, drop_ids every row.
    Ray's join rejects a right side with no rows, so this pins the guard
    that keeps an empty set off it."""
    import ray.data as rd

    from nem_mms_ray.ops.curate import drop_ids, keep_ids

    df = pd.DataFrame({"doc_id": np.arange(12, dtype=np.int64),
                       "text": [f"t{i}" for i in range(12)]})
    empty = rd.from_arrow(pa.table({"id": pa.array([], pa.int64())}))
    assert keep_ids(rd.from_pandas(df), empty, max_broadcast_ids=0
                    ).count() == 0
    out = drop_ids(rd.from_pandas(df), empty, max_broadcast_ids=0
                   ).to_pandas().sort_values("doc_id")
    assert list(out["doc_id"]) == list(df["doc_id"])
    assert list(out["text"]) == list(df["text"])


def test_curate_with_text_label_pass_runs_once(ray_session, tmp_path):
    """One curate_documents_with_text call runs each pass once: the label
    + exact-dedup pass (the factory's first Dataset) and the semi-join
    pass (its second) each read exactly the corpus row count."""
    import ray.data as rd

    from nem_mms_ray.ops.curate import curate_documents_with_text

    en = ("the quick brown fox jumps over the lazy dog and runs to the "
          "hills with great speed for that is what foxes do in the wild ")
    df = pd.DataFrame({"doc_id": np.arange(60, dtype=np.int64),
                       "text": [en * 3 + f"doc {i % 20}" for i in range(60)]})
    log = tmp_path / "reads.txt"
    made = []

    def src():
        k = len(made)
        made.append(k)

        def record(t: pa.Table) -> pa.Table:
            with open(log, "a") as f:
                f.write(f"{k} {t.num_rows}\n")
            return t

        return rd.from_pandas(df).map_batches(record, batch_format="pyarrow")

    out = curate_documents_with_text(src, quality_min=0.5,
                                     lang="en").to_pandas()
    assert sorted(out["doc_id"]) == list(range(20))  # min id per text
    read = {0: 0, 1: 0}
    for line in log.read_text().splitlines():
        k, n = map(int, line.split())
        read[k] += n
    assert made == [0, 1]
    assert read == {0: len(df), 1: len(df)}


def test_curate_with_text_renamed_columns(ray_session):
    """The text join keys the winners by their `doc_id` label column
    whatever the source's id column is called; the output keeps the
    source's column names."""
    import ray.data as rd

    from nem_mms_ray.ops.curate import curate_documents_with_text

    en = ("the quick brown fox jumps over the lazy dog and runs to the "
          "hills with great speed ") * 4
    df = pd.DataFrame({"key": np.arange(6, dtype=np.int64),
                       "body": [en, en, en + "x", "kurz", en, en + "y"]})
    for cap in (5_000_000, 0):
        out = curate_documents_with_text(
            lambda: rd.from_pandas(df), quality_min=0.5, lang="en",
            id_col="key", text_col="body", max_broadcast_ids=cap
        ).to_pandas().sort_values("key")
        assert list(out.columns) == ["key", "body", "lang_pred", "quality"]
        assert list(out["key"]) == [0, 2, 5]


def test_curate_documents_near(ray_session):
    """Endgame composition: near-dups (different md5, equal gram sets)
    collapse to the min-id representative AFTER surviving exact dedup."""
    import ray.data as rd

    from nem_mms_ray.ops.curate import curate_documents_near

    en = ("the quick brown fox jumps over the lazy dog and runs to the "
          "hills with great speed for that is what foxes do in the wild ") * 5
    df = pd.DataFrame({
        "doc_id": np.array([0, 1, 2, 3, 4], np.int64),
        "text": [en,            # representative
                 en + " ",      # near-dup: md5 differs, grams equal -> drop
                 en + "tail",   # different grams -> keep
                 "kurz und gut",  # gated (German / low quality)
                 en],           # exact dup of 0 -> dropped by md5 stage
    })
    out = curate_documents_near(lambda: rd.from_pandas(df), quality_min=0.5,
                                lang="en", threshold=1.0
                                ).to_pandas().sort_values("doc_id")
    assert list(out["doc_id"]) == [0, 2]
    assert list(out.columns) == ["doc_id", "text", "lang_pred", "quality"]
    assert out.set_index("doc_id").loc[0, "text"] == en


def test_connected_components_driver_matches_distributed(ray_session,
                                                         monkeypatch):
    """The driver union-find and the distributed pointer-jumping path
    produce identical (id, component) labelings on a mixed graph (chain +
    triangle + isolated pair)."""
    import ray.data as rd

    from nem_mms_ray.ops import dedup
    from nem_mms_ray.ops.dedup import connected_components

    pairs = pd.DataFrame({
        "a": np.array([1, 2, 3, 10, 11, 10, 50, 7, 6, 5], np.int64),
        "b": np.array([2, 3, 4, 11, 12, 12, 51, 6, 5, 1], np.int64),
        "jaccard": np.ones(10),
    })
    drv = (connected_components(rd.from_pandas(pairs))
           .to_pandas().sort_values("id").reset_index(drop=True))
    monkeypatch.setattr(dedup, "MAX_DRIVER_NODES", 0)
    dist = (connected_components(rd.from_pandas(pairs))
            .to_pandas().sort_values("id").reset_index(drop=True))
    pd.testing.assert_frame_equal(drv, dist)
    # chain 1-2-3-4 merges with 5-6-7 via (5,1): component 1 for all
    m = dict(zip(drv["id"], drv["component"]))
    assert {m[i] for i in (1, 2, 3, 4, 5, 6, 7)} == {1}
    assert {m[i] for i in (10, 11, 12)} == {10}
    assert m[50] == 50 and m[51] == 50


def _fuzzed_pair_graph(seed: int, n_ids: int, n_edges: int, n_chain: int,
                       top: int, step: int) -> pd.DataFrame:
    """Random multigraph (self-loops, repeated edges) over `n_ids` ids,
    multiples of `step` below `top`, plus a long sorted chain — the worst
    case for naive union trees."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(top // step, n_ids, replace=False).astype(np.int64) * step
    chain = np.sort(rng.choice(ids, n_chain, replace=False))
    return pd.DataFrame({
        "a": np.concatenate([rng.choice(ids, n_edges), chain[:-1]]),
        "b": np.concatenate([rng.choice(ids, n_edges), chain[1:]]),
        "jaccard": 1.0})


def test_cc_native_parity(monkeypatch):
    """StreamingUnionFind: the C kernel and the interpreted reference give
    the same roots, edge batch by edge batch, and both equal the minimum
    code reachable from each node (a BFS over the same multigraph)."""
    from nem_mms_ray.ops import _setops_native
    from nem_mms_ray.ops._setops_native import StreamingUnionFind

    if _setops_native.get_lib() is None:
        pytest.skip("no C compiler in this environment")
    g = _fuzzed_pair_graph(11, 400, 3000, 200, 1 << 40, 7919)
    nodes, codes = np.unique(np.concatenate([g["a"], g["b"]]),
                             return_inverse=True)
    src, dst = codes[:len(g)], codes[len(g):]

    def run() -> np.ndarray:
        uf = StreamingUnionFind(len(nodes))
        for lo in range(0, len(src), 701):  # several uneven batches
            uf.add_edges(src[lo:lo + 701], dst[lo:lo + 701])
        return uf.flatten().copy()

    with_c = run()
    monkeypatch.setattr(_setops_native, "get_lib", lambda: None)
    reference = run()
    np.testing.assert_array_equal(with_c, reference)
    adj: dict = {}
    for x, y in zip(src.tolist(), dst.tolist()):
        adj.setdefault(x, set()).add(y)
        adj.setdefault(y, set()).add(x)
    for start in range(0, len(nodes), 37):
        seen, todo = {start}, [start]
        while todo:
            for y in adj[todo.pop()] - seen:
                seen.add(y)
                todo.append(y)
        assert with_c[start] == min(seen)


def test_cc_without_compiler_stays_on_driver(ray_session, monkeypatch):
    """No C kernel: connected_components still clusters on the driver
    (through the interpreted union-find) — no Dataset.join runs — and its
    labels equal the C run's."""
    import ray.data as rd

    from nem_mms_ray.ops import _setops_native
    from nem_mms_ray.ops.dedup import connected_components

    pairs = _fuzzed_pair_graph(23, 300, 2000, 150, 1 << 62, (1 << 40) + 9)

    def run() -> pd.DataFrame:
        return (connected_components(rd.from_pandas(pairs))
                .to_pandas().sort_values("id").reset_index(drop=True))

    with_c = run()
    joins = []
    real_join = rd.Dataset.join
    monkeypatch.setattr(rd.Dataset, "join",
                        lambda self, *a, **kw: joins.append(1)
                        or real_join(self, *a, **kw))
    monkeypatch.setattr(_setops_native, "get_lib", lambda: None)
    pd.testing.assert_frame_equal(with_c, run())
    assert joins == []


def test_cc_regimes_identical(ray_session, monkeypatch):
    """The driver union-find (C kernel, and its interpreted reference) and
    DISTRIBUTED label propagation produce identical labelings on a fuzzed
    graph with chains, triangles, isolated pairs, and 64-bit ids; a node
    ceiling below the node count falls through to distributed."""
    import ray.data as rd

    from nem_mms_ray.ops import _setops_native, dedup
    from nem_mms_ray.ops.dedup import connected_components

    ds = rd.from_pandas(
        _fuzzed_pair_graph(41, 300, 1500, 120, 1 << 62, (1 << 40) + 9)
    ).repartition(5)

    def run() -> pd.DataFrame:
        return (connected_components(ds)
                .to_pandas().sort_values("id").reset_index(drop=True))

    streaming = run()
    with monkeypatch.context() as mp:
        mp.setattr(_setops_native, "get_lib", lambda: None)
        pd.testing.assert_frame_equal(streaming, run())
    for ceiling in (0, 10):
        monkeypatch.setattr(dedup, "MAX_DRIVER_NODES", ceiling)
        pd.testing.assert_frame_equal(streaming, run())
