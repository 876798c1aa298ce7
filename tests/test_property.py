"""Property-based round-trip tests (SURVEY.md §5 plan item 5)."""

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from nem_mms_ray.codecs import decode_column, get_codec

ints = st.lists(
    st.one_of(st.integers(min_value=-(2**63), max_value=2**63 - 1), st.none()),
    max_size=200,
)
texts = st.lists(st.one_of(st.text(max_size=40), st.none()), max_size=150)


@settings(max_examples=60, deadline=None)
@given(vals=ints, codec=st.sampled_from(["plain", "for", "delta", "dict", "rle"]))
def test_int_roundtrip_property(vals, codec):
    arr = pa.array(vals, type=pa.int64())
    out = decode_column(get_codec(codec).encode(arr))
    assert out.equals(arr)


@settings(max_examples=60, deadline=None)
@given(vals=texts, codec=st.sampled_from(["plain", "dict", "rle", "fsst"]))
def test_string_roundtrip_property(vals, codec):
    arr = pa.array(vals, type=pa.string())
    out = decode_column(get_codec(codec).encode(arr))
    assert out.equals(arr)


@settings(max_examples=40, deadline=None)
@given(vals=st.lists(st.binary(max_size=60), max_size=100))
def test_fsst_binary_roundtrip_property(vals):
    arr = pa.array(vals, type=pa.binary())
    out = decode_column(get_codec("fsst").encode(arr))
    assert out.equals(arr)


@settings(max_examples=30, deadline=None)
@given(data=st.binary(max_size=3000))
def test_fsst_stream_property(data):
    from nem_mms_ray.codecs import _fsst_native as native
    from nem_mms_ray.codecs.fsst import train_symbols

    syms = train_symbols(data) if data else (np.zeros((0, 8), np.uint8), np.zeros(0, np.uint8))
    enc = native.encode(*syms, data)
    assert native.decode(*syms, enc, len(data)) == data
    assert native._py_encode(*syms, data) == enc


@settings(max_examples=60, deadline=None)
@given(vals=st.lists(
    st.one_of(
        st.integers(min_value=-(10**12), max_value=10**12).map(lambda i: i / 100.0),
        st.none(),
    ),
    max_size=200,
))
def test_alp_roundtrip_property(vals):
    """Any 2-decimal value within 2^53 scaled must round-trip through alp."""
    arr = pa.array(vals, type=pa.float64())
    out = decode_column(get_codec("alp").encode(arr))
    assert out.equals(arr)


@settings(max_examples=60, deadline=None)
@given(
    base=st.integers(min_value=-(2**40), max_value=2**40),
    div=st.sampled_from([1, 7, 1000, 86_400_000_000]),
    steps=st.lists(st.integers(min_value=0, max_value=5000), max_size=150),
)
def test_for_gcd_roundtrip_property(base, div, steps):
    """Values sharing a common divisor round-trip through for/delta and the
    for payload shrinks with the divisor extracted."""
    vals = [base + s * div for s in steps]
    arr = pa.array(vals, type=pa.int64())
    for codec in ("for", "delta"):
        ec = get_codec(codec).encode(arr)
        assert decode_column(ec).equals(arr)
    if len(set(vals)) > 2:
        ec = get_codec("for").encode(arr)
        assert ec.params["div"] % div == 0 or ec.params["width"] == 0


@settings(max_examples=40, deadline=None)
@given(
    vals=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=3000),
    capacity=st.sampled_from([8, 64, 512]),
    n_chunks=st.integers(min_value=1, max_value=7),
    q=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
)
def test_qdigest_rank_error_property(vals, capacity, n_chunks, q):
    """Digest quantiles stay within the rank-error bound for any data,
    capacity and partial split; exact when distinct <= capacity."""
    from nem_mms_ray.ops.qdigest import (digest_batch, digest_quantile,
                                         merge_digests)

    x = np.asarray(vals, np.float64)
    parts = [digest_batch(c, capacity)
             for c in np.array_split(x, min(n_chunks, len(x))) if len(c)]
    v, w = merge_digests(parts, capacity)
    assert int(w.sum()) == len(x)
    got = digest_quantile(v, w, q)
    xs = np.sort(x)
    if len(np.unique(x)) <= capacity:
        assert got == xs[int(np.floor(q * (len(xs) - 1)))]
    else:
        # rank-walk result must sit within a few max-bin-widths of target
        lo = np.searchsorted(xs, got, side="left")
        hi = np.searchsorted(xs, got, side="right")
        target = q * (len(xs) - 1)
        slack = 4 * max(1, len(x) // capacity) + int(w.max())
        assert lo - slack <= target <= hi + slack


@settings(max_examples=40, deadline=None)
@given(texts=st.lists(st.text(max_size=40), max_size=200),
       rate=st.sampled_from([0.0, 0.1, 0.5, 1.0]))
def test_hash_sample_threshold_property(texts, rate):
    """Threshold semantics: kept iff md5 prefix < threshold; rate 0 keeps
    nothing, rate 1 keeps everything."""
    import hashlib

    from nem_mms_ray.ops.sampling import sample_threshold

    thr = sample_threshold(rate)
    kept = [t for t in texts
            if hashlib.md5(t.encode()).hexdigest()[:4] < thr]
    if rate == 0.0:
        assert kept == []
    if rate == 1.0:
        assert kept == texts


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 80), seed=st.integers(0, 5),
       nparts=st.integers(1, 6))
def test_deterministic_shuffle_is_pure(ray_session, n, seed, nparts):
    """Order == md5-key sort regardless of partitioning; a permutation of
    the input ids (reproducible, total)."""
    import hashlib

    import ray.data as rd

    from nem_mms_ray.ops.shard import add_shuffle_key

    ids = np.arange(n, dtype=np.int64) * 3 - 7
    ds = rd.from_pandas(pd.DataFrame({"doc_id": ids})).repartition(nparts)
    got = add_shuffle_key(ds, seed=seed).sort("skey").to_pandas()
    want = sorted(ids.tolist(),
                  key=lambda i: hashlib.md5(f"{seed}:{i}".encode()).hexdigest())
    assert got["doc_id"].tolist() == want


@settings(max_examples=60, deadline=None)
@given(ids=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=60),
       cut=st.integers(0, 60), seed=st.integers(0, 9),
       n_shards=st.integers(1, 70), as_text=st.booleans())
def test_shard_keys_match_per_row_md5(ids, cut, seed, n_shards, as_text):
    """The batch digests give every id, int or string, across a chunk
    boundary and a slice offset, the key and shard of the per-row
    reference: md5(f"{seed}:{id}") hex, int(key[:15], 16) % n_shards."""
    import hashlib

    from nem_mms_ray.ops.shard import _digests, _hex_keys, _shard_ids

    vals = [str(i) for i in ids] if as_text else ids
    cut = min(cut, len(vals))
    col = pa.chunked_array([pa.array(["pad", *vals[:cut]] if as_text
                                     else [0, *vals[:cut]]).slice(1),
                            pa.array(vals[cut:], pa.string() if as_text
                                     else pa.int64())])
    want = [hashlib.md5(f"{seed}:{i}".encode()).hexdigest() for i in vals]
    d = _digests(col, seed)
    assert _hex_keys(d).to_pylist() == want
    assert _shard_ids(d, n_shards).tolist() == [int(k[:15], 16) % n_shards
                                                for k in want]
