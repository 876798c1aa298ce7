"""Winnowing substring-dedup: DuckDB oracle (window=1 exact regime),
the SIGMOD'03 guarantee/soundness properties, and partition invariance.

Held OUT of the driver's queries() (its correctness report caps at 50
rows — the r3 eviction regression); the window=1 oracle here runs the
same side-by-side SQL comparison the driver would."""
from pathlib import Path

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from nem_mms_ray.ops.winnow import (
    _codepoints,
    _kgram_hashes,
    winnow_dup_pairs,
    winnow_select,
)

SF_DIR = "/root/testdata/sf0.001"

LICENSE = ("This text is licensed under the Creative Commons "
           "Attribution-ShareAlike terms; reuse with attribution.")


def _span_corpus(tmp_path: Path) -> str:
    """sf0.001 texts with substring-level duplication planted: a shared
    license block appended to a deterministic subset, and one doc fully
    embedded inside another — written to parquet so Ray and DuckDB read
    the SAME file."""
    docs = pq.read_table(f"{SF_DIR}/documents.parquet",
                         columns=["doc_id", "text"])
    texts = docs.column("text").to_pylist()
    for i in range(0, len(texts), 25):
        texts[i] = f"{texts[i] or ''} {LICENSE}"
    # containment case: doc 3's whole text copied into the middle of doc 7
    texts[3] = "unique prefix three " + (texts[3] or "")[:80]
    texts[7] = f"{texts[7] or ''} {texts[3]} trailing tail seven"
    texts[1] = None
    texts[2] = ""
    path = tmp_path / "span_corpus.parquet"
    pq.write_table(pa.table({"doc_id": docs.column("doc_id"),
                             "text": pa.array(texts, pa.string())}), path)
    return str(path)


def test_window1_matches_duckdb_substring_explode(ray_session, tmp_path):
    """window=1 selects EVERY k-gram, so winnow_dup_pairs must equal the
    literal substring-explode SQL: pairs sharing any k-char substring,
    with shared = distinct shared k-grams and containment =
    shared / min(per-doc distinct k-grams).  Hash-vs-string equality is
    the no-collision witness (the decontam precedent)."""
    import ray.data as rd

    path = _span_corpus(tmp_path)
    k = 8
    got = (winnow_dup_pairs(rd.read_parquet(path), k=k, window=1)
           .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))

    sql = f"""
    WITH pos AS (
      SELECT doc_id, text,
             unnest(generate_series(1, length(text) - {k} + 1)) AS i
      FROM read_parquet('{path}')
    ), g AS (
      SELECT DISTINCT doc_id, substr(text, i, {k}) AS gram FROM pos
    ), sz AS (
      SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id
    )
    SELECT ga.doc_id AS a, gb.doc_id AS b, count(*) AS shared,
           count(*) / least(min(sa.n), min(sb.n)) AS containment
    FROM g ga JOIN g gb ON ga.gram = gb.gram AND ga.doc_id < gb.doc_id
    JOIN sz sa ON sa.doc_id = ga.doc_id
    JOIN sz sb ON sb.doc_id = gb.doc_id
    GROUP BY 1, 2 ORDER BY 1, 2
    """
    con = duckdb.connect()
    want = con.sql(sql).df()

    assert len(got) == len(want) and len(got) > 0
    assert got["a"].tolist() == want["a"].astype(int).tolist()
    assert got["b"].tolist() == want["b"].astype(int).tolist()
    assert got["shared"].tolist() == want["shared"].astype(int).tolist()
    # got is np.round(ratio, 6) (banker's); the SQL side carries the raw
    # ratio — compare at the rounding quantum so only a REAL mismatch fails
    assert np.allclose(got["containment"], want["containment"], atol=5.1e-7)
    # the license-block plant must surface: every planted pair present
    planted = {i for i in range(0, 500, 25)}
    seen = set(got["a"]) | set(got["b"])
    assert planted <= seen


def test_guarantee_shared_span_detected(ray_session):
    """SIGMOD'03 guarantee: docs sharing a substring of length
    >= window + k - 1 share at least one SELECTED fingerprint — at
    window>1 the planted pair must be reported, even though winnowing
    keeps only ~2/(window+1) of the grams."""
    import ray.data as rd

    k, w = 8, 4
    span = "shared span payload copied verbatim between docs"
    assert len(span) >= w + k - 1
    rows = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([f"alpha document one {span} tail one",
                          f"a totally different beta page {span}",
                          "no overlap here at all, unique text only"]),
    })
    got = winnow_dup_pairs(rd.from_arrow(rows), k=k, window=w).to_pandas()
    pairs = set(zip(got["a"], got["b"]))
    assert (0, 1) in pairs


def test_soundness_reported_pairs_share_kgram(ray_session):
    """Every reported pair (any window) truly shares a k-codepoint
    substring: the selected fingerprints are a SUBSET of real k-gram
    hashes, so reported sharing implies substring sharing."""
    import ray.data as rd

    rng = np.random.default_rng(7)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
    texts = [" ".join(rng.choice(words, 30)) for _ in range(40)]
    k, w = 6, 5
    got = winnow_dup_pairs(
        rd.from_arrow(pa.table({"doc_id": pa.array(range(40), pa.int64()),
                                "text": pa.array(texts)})),
        k=k, window=w).to_pandas()
    assert len(got) > 0  # random word soup shares plenty of 6-grams
    gram_sets = [{t[i:i + k] for i in range(len(t) - k + 1)} for t in texts]
    for a, b in zip(got["a"], got["b"]):
        assert gram_sets[a] & gram_sets[b], (a, b)


def test_selected_subset_and_density():
    """winnow_select output is a subset of the doc's k-gram hashes and,
    on random text, close to the paper's 2/(w+1) density."""
    rng = np.random.default_rng(0)
    text = "".join(rng.choice(list("abcdefghij "), 5000))
    cps = _codepoints(text)
    k, w = 8, 9
    all_h = np.unique(_kgram_hashes(cps, k))
    sel = winnow_select(cps, k, w)
    assert np.isin(sel, all_h).all()
    density = len(sel) / len(all_h)
    assert 0.5 * 2 / (w + 1) < density < 2.5 * 2 / (w + 1)
    # short-doc edges: no k-gram -> empty; fewer grams than window -> min
    assert len(winnow_select(_codepoints("ab"), k, w)) == 0
    short = winnow_select(_codepoints("abcdefghij"), k, w)
    assert len(short) == 1


def test_partition_invariance_and_containment(ray_session, tmp_path):
    """Same pairs at 1 and 7 blocks; a doc planted inside another has
    containment 1.0."""
    import ray.data as rd

    path = _span_corpus(tmp_path)
    k, w = 8, 4

    def run(nblocks):
        ds = rd.read_parquet(path).repartition(nblocks)
        return (winnow_dup_pairs(ds, k=k, window=w)
                .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))

    p1, p7 = run(1), run(7)
    assert p1.equals(p7)
    # containment plant: doc 3 fully inside doc 7 -> containment 1.0
    row = p1[(p1["a"] == 3) & (p1["b"] == 7)]
    assert len(row) == 1 and row["containment"].iloc[0] == 1.0


def test_frequent_fp_guard_drops_boilerplate(ray_session):
    """max_fp_df caps the M^2/2 blow-up of a fingerprint shared by every
    doc: with the cap below the plant's df, the boilerplate-only pairs
    vanish; the distinct-span pair survives."""
    import ray.data as rd

    boiler = "universal boilerplate footer shared by every single page"
    rows = pa.table({
        "doc_id": pa.array(range(12), pa.int64()),
        "text": pa.array(
            [f"doc {i} says {'things ' * (i + 1)} {boiler}" for i in range(10)]
            + [f"twin page unique payload {'q' * 40}",
               f"twin page unique payload {'q' * 40}"]),
    })
    ds = rd.from_arrow(rows)
    capped = winnow_dup_pairs(ds, k=8, window=1, max_fp_df=4).to_pandas()
    pairs = set(zip(capped["a"], capped["b"]))
    assert (10, 11) in pairs
    boiler_pairs = {(a, b) for a, b in pairs if a < 10 and b < 10}
    # the 10 boilerplate docs share ONLY the footer (df=10 > cap) plus the
    # "doc"/"says"/"things" fragments; the footer grams are dropped so the
    # 45-pair clique must not fully materialize
    assert len(boiler_pairs) < 45


def test_flat_fast_path_parity():
    """The whole-batch flat path (_batch_winnow_sets / _flat_hashes) is
    output-identical to the per-doc reference (winnow_select /
    _kgram_hashes) on fuzzed unicode incl. astral chars, None, empty,
    shorter-than-k and shorter-than-window docs."""
    from nem_mms_ray.ops.winnow import (_batch_winnow_sets, _flat_corpus,
                                        _flat_hashes, _valid_positions)

    rng = np.random.default_rng(42)
    alphabet = list("abcdef é中\U0001F600")  # ascii+latin1+CJK+astral
    texts = ["".join(rng.choice(alphabet, rng.integers(0, 60)))
             for _ in range(200)] + [None, "", "ab", "abcdefgh"]
    for k, w in [(8, 4), (8, 1), (4, 9), (3, 2)]:
        sdoc, fps = _batch_winnow_sets(texts, k, w)
        # row order is unconstrained (consumers bucket/bincount) — compare
        # the (doc, fp) sets against the per-doc reference
        o = np.lexsort((fps, sdoc))
        sdoc, fps = sdoc[o], fps[o]
        ref_doc, ref_fp = [], []
        for i, t in enumerate(texts):
            s = winnow_select(_codepoints(t), k, w)
            ref_doc.extend([i] * len(s))
            ref_fp.extend(s.tolist())
        assert sdoc.tolist() == ref_doc, (k, w)
        assert fps.tolist() == ref_fp, (k, w)
    # _flat_hashes == _kgram_hashes on the concatenated corpus
    flat, lens = _flat_corpus(texts)
    for k in (2, 5, 16):
        assert np.array_equal(_flat_hashes(flat, k), _kgram_hashes(flat, k))
    # and masked positions carve the same per-doc hash runs
    pos, doc_idx, nh = _valid_positions(lens, 5)
    hv = _flat_hashes(flat, 5)[pos]
    cuts = np.cumsum(nh) - nh
    for i in (0, 3, 201, 202, 203):
        seg = hv[cuts[i]:cuts[i] + nh[i]]
        assert np.array_equal(seg, _kgram_hashes(_codepoints(texts[i]), 5))


def test_winnow_dedup_endgame(ray_session):
    """Pairs -> components -> representative: a three-doc substring-copy
    cluster collapses to its min id, unrelated docs survive, and the
    containment threshold separates span-copies from phrase sharing."""
    import ray.data as rd

    from nem_mms_ray.ops.winnow import winnow_dedup

    core = " ".join(f"core{i:03d}" for i in range(60))
    rows = pa.table({
        "doc_id": pa.array([10, 11, 12, 20, 21], pa.int64()),
        "text": pa.array([
            core,                              # cluster: whole doc...
            f"prefix one {core}",              # ...embedded here
            f"{core} suffix two",              # ...and here
            " ".join(f"solo{i:03d}" for i in range(80)),
            " ".join(f"other{i:03d}" for i in range(80)),
        ]),
    })
    kept = winnow_dedup(rd.from_arrow(rows), min_containment=0.9
                        ).to_pandas().sort_values("doc_id")
    assert kept["doc_id"].tolist() == [10, 20, 21]
    assert set(kept.columns) == {"doc_id", "text"}


def test_native_kernel_parity(monkeypatch):
    """C kernel path == the per-doc reference, row-for-row, on fuzzed
    unicode (the setops-kernel convention: force the fallback by
    monkeypatching the glue, compare both whole-batch outputs)."""
    from nem_mms_ray.ops import _winnow_native
    from nem_mms_ray.ops.winnow import _batch_winnow_sets

    if _winnow_native.get_lib() is None:
        import pytest
        pytest.skip("no C compiler in this environment")

    rng = np.random.default_rng(17)
    alphabet = list("abcdef gh é中\U0001F600")
    texts = ["".join(rng.choice(alphabet, rng.integers(0, 300)))
             for _ in range(300)] + [None, "", "abcdefgh", "x" * 7]
    for k, w in [(8, 4), (8, 1), (5, 64), (3, 2), (4, 9)]:
        with_c = _batch_winnow_sets(texts, k, w)
        with monkeypatch.context() as mp:
            mp.setattr(_winnow_native, "winnow_batch",
                       lambda *a, **kw: None)
            no_c = _batch_winnow_sets(texts, k, w)
        # compare as sorted (doc, fp) rows: row order is unconstrained
        oc = np.lexsort((with_c[1], with_c[0]))
        on = np.lexsort((no_c[1], no_c[0]))
        assert np.array_equal(with_c[0][oc], no_c[0][on]), (k, w)
        assert np.array_equal(with_c[1][oc], no_c[1][on]), (k, w)


def test_flat_hashes_native_parity():
    """C rolling_hashes == the reference `_kgram_hashes`, element for
    element, for every k the callers use (charlm n and n-1 grams, winnow
    k) and edge lengths around n == k."""
    from nem_mms_ray.ops import _winnow_native
    from nem_mms_ray.ops.winnow import _flat_hashes

    if _winnow_native.get_lib() is None:
        import pytest
        pytest.skip("no C compiler in this environment")

    rng = np.random.default_rng(23)
    for n in [0, 1, 2, 3, 7, 8, 9, 1000, 65536]:
        flat = rng.integers(0, 0x110000, n).astype(np.uint32)
        for k in (1, 2, 3, 5, 8, 16):
            got = _flat_hashes(flat, k)
            assert got.dtype == np.uint64
            assert np.array_equal(got, _kgram_hashes(flat, k)), (n, k)
