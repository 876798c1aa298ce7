"""Per-codec round-trip tests over adversarial arrays (FIXTURES.md F2).

The analog of the reference's exact-equality parse tests
(/root/reference/src/flatfile.rs:644-773) and its render/parse round-trip
idiom (/root/reference/src/manage/state.rs:155-191): decode(encode(col))
must equal col exactly, including null positions and empty-vs-null strings.
"""

import dataclasses
import functools
import hashlib
import json

import numpy as np
import pyarrow as pa
import pytest

from nem_mms_ray.codecs import REGISTRY, decode_column, get_codec
from nem_mms_ray.codecs import _fsst_native as native
from nem_mms_ray.codecs import bitpack
from nem_mms_ray.codecs.bitpack import bit_width, pack_bits, unpack_bits
from nem_mms_ray.codecs.fsst import train_symbols

INT_ARRAYS = [
    pa.array([], type=pa.int64()),
    pa.array([None, None], type=pa.int64()),
    pa.array([7], type=pa.int64()),
    pa.array([5] * 100, type=pa.int64()),
    pa.array(range(1000), type=pa.int64()),
    pa.array([0, -1, 2**62, -(2**62), None], type=pa.int64()),
    pa.array([2**63 - 1, -(2**63), 0], type=pa.int64()),
    pa.array([2**64 - 1, 0, 12345], type=pa.uint64()),
    pa.array([-128, 127, None, 0], type=pa.int8()),
    pa.array([None, -32768, 32767], type=pa.int16()),
    pa.array(np.arange(500)[::-1].copy() * 1000003, type=pa.int64()),  # unsorted-ish
    pa.array((np.arange(300) * 86400_000_000 + 1_600_000_000_000_000), type=pa.timestamp("us")),
    pa.array([-10**15, 10**15, None], type=pa.timestamp("s")),
    pa.array([0, 1, 2], type=pa.date32()),
]

STRING_ARRAYS = [
    pa.array([], type=pa.string()),
    pa.array([None, None], type=pa.string()),
    pa.array([""], type=pa.string()),
    pa.array(["", None, "x", "", None]),  # empty-vs-null distinction
    pa.array(["same"] * 200),
    pa.array([f"distinct-{i}" for i in range(500)]),
    pa.array(["café", "naïve", "中文", "\U0001F600", ""] * 40),
    pa.array(["run"] * 50 + ["alt", "run"] * 50 + [None] * 10),
    pa.array([b"", b"\x00\xff\xfe", None, bytes(range(256)) * 4], type=pa.binary()),
    pa.array([b"large" * 100, None, b""], type=pa.large_binary()),
    pa.array(["large_string test", None, ""], type=pa.large_string()),
]

OTHER_ARRAYS = [
    pa.array([1.5, None, -0.0, float("inf"), float("-inf")], type=pa.float64()),
    pa.array([float("nan"), 1.0, None], type=pa.float64()),
    pa.array([True, False, None, True] * 25),
    pa.array([1.5, 2.5], type=pa.float32()),
]


def _roundtrip(codec_name, arr):
    codec = get_codec(codec_name)
    if not codec.can_encode(arr.type):
        pytest.skip(f"{codec_name} cannot encode {arr.type}")
    ec = codec.encode(arr)
    out = decode_column(ec)
    assert out.type.equals(arr.type), (codec_name, arr.type, out.type)
    # NaN-aware equality: arrow equals treats NaN != NaN, compare via pylist
    if pa.types.is_floating(arr.type):
        a, b = arr.to_pylist(), out.to_pylist()
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert (x is None) == (y is None)
            if x is not None:
                assert (x != x and y != y) or x == y or (repr(x) == repr(y))
    else:
        assert out.equals(arr), (codec_name, arr.to_pylist()[:10], out.to_pylist()[:10])
    # null positions preserved bit-exactly
    assert out.null_count == arr.null_count


@pytest.mark.parametrize("codec", ["plain", "for", "delta", "dict", "rle"])
@pytest.mark.parametrize("i", range(len(INT_ARRAYS)))
def test_int_roundtrip(codec, i):
    _roundtrip(codec, INT_ARRAYS[i])


@pytest.mark.parametrize("i", range(len(INT_ARRAYS)))
def test_bitpack_roundtrip(i):
    """Plain bit-pack: non-negative domain only (the selector estimates it
    as inf below zero, and encode() refuses; pipeline falls back to plain)."""
    import pyarrow.compute as pc

    from nem_mms_ray import dtypes as _dt

    arr = INT_ARRAYS[i]
    iv = arr if pa.types.is_integer(arr.type) else arr.view(_dt.int_view_type(arr.type))
    mn = pc.min(iv).as_py() if len(arr) else None
    if mn is not None and int(mn) < 0:
        with pytest.raises(ValueError):
            get_codec("bitpack").encode(arr)
        return
    _roundtrip("bitpack", arr)


@pytest.mark.parametrize("codec", ["plain", "dict", "rle", "fsst"])
@pytest.mark.parametrize("i", range(len(STRING_ARRAYS)))
def test_string_roundtrip(codec, i):
    _roundtrip(codec, STRING_ARRAYS[i])


@pytest.mark.parametrize("codec", ["plain", "dict", "rle"])
@pytest.mark.parametrize("i", range(len(OTHER_ARRAYS)))
def test_other_roundtrip(codec, i):
    _roundtrip(codec, OTHER_ARRAYS[i])


def test_sliced_array_roundtrip():
    base = pa.array(["pad", "a", "bb", None, "", "ccc", "tail"])
    sl = base.slice(1, 5)
    for codec in ("plain", "dict", "rle", "fsst"):
        ec = get_codec(codec).encode(sl)
        assert decode_column(ec).equals(pa.concat_arrays([sl]))


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 31, 32, 33, 63, 64])
def test_bitpack_widths(width):
    n = 257
    rng = np.random.default_rng(width + 1)
    if width == 0:
        vals = np.zeros(n, np.uint64)
    elif width == 64:
        vals = rng.integers(0, 2**63, n).astype(np.uint64) * 2 + (rng.integers(0, 2, n).astype(np.uint64))
    else:
        vals = rng.integers(0, 2**width, n).astype(np.uint64)
    buf = pack_bits(vals, width)
    out = unpack_bits(buf, n, width)
    assert np.array_equal(out, vals)
    assert len(buf) == (n * width + 7) // 8


PARITY_SIZES = [0, 1, 7, 63, 64, 65, 4095, 65536]


def _parity_values(n: int, seed: int) -> np.ndarray:
    """Full-range uint64 values: every bit above `width` is set somewhere."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)


@pytest.mark.parametrize("n", PARITY_SIZES)
def test_bitpack_kernel_matches_reference(n):
    """The C packer writes the numpy reference's bytes for every width,
    stores only the low `width` bits, and unpacks them back."""
    if bitpack._kernel() is None:
        pytest.skip("no C compiler in this environment")
    for width in range(65):
        vals = _parity_values(n, 1000 * n + width)
        low = vals if width == 64 else vals & np.uint64((1 << width) - 1)
        buf = pack_bits(vals, width)
        assert len(buf) == (n * width + 7) // 8, (n, width)
        out = unpack_bits(buf, n, width)
        assert out.dtype == np.uint64 and np.array_equal(out, low), (n, width)
        if n and width:
            assert buf == bitpack._pack_bits_ref(vals, width), (n, width)
            assert np.array_equal(bitpack._unpack_bits_ref(buf, n, width), low)


def test_bitpack_kernel_int64_and_strided_inputs():
    """int64 input (negative values included, read as their two's
    complement) and a strided view pack like a contiguous uint64 copy."""
    if bitpack._kernel() is None:
        pytest.skip("no C compiler in this environment")
    rng = np.random.default_rng(5)
    signed = rng.integers(-2**40, 2**40, 4099)
    base = _parity_values(8192, 6)
    for vals in (signed, np.abs(signed), base[::3], base[::-2]):
        for width in (1, 13, 41, 64):
            want = bitpack._pack_bits_ref(np.ascontiguousarray(vals).astype(np.uint64), width)
            assert pack_bits(vals, width) == want, width
            assert bitpack._pack_bits_ref(vals, width) == want, width


@pytest.mark.parametrize("reference", [False, True])
def test_truncated_payload_raises(reference, monkeypatch):
    """A packed stream shorter than ceil(n*width/8) bytes raises rather
    than decoding zero-padded values, in unpack_bits and in a codec."""
    if reference:
        monkeypatch.setattr(bitpack, "_kernel", lambda: None)
    buf = pack_bits(np.arange(100, dtype=np.uint64), 7)
    assert len(buf) == 88
    with pytest.raises(ValueError, match="truncated"):
        unpack_bits(buf[:40], 100, 7)
    with pytest.raises(ValueError, match="truncated"):
        unpack_bits(buf[:-1], 100, 7)
    assert np.array_equal(unpack_bits(buf, 100, 7), np.arange(100))
    with pytest.raises(ValueError, match="outside"):
        unpack_bits(buf, 10, 65)
    ec = get_codec("for").encode(pa.array(np.arange(1000) * 3 + 17, pa.int64()))
    ec.payload = ec.payload[: len(ec.payload) // 2]
    with pytest.raises(ValueError, match="truncated"):
        decode_column(ec)


def test_bit_width():
    assert bit_width(0) == 0
    assert bit_width(1) == 1
    assert bit_width(255) == 8
    assert bit_width(256) == 9


def test_fsst_c_matches_python_reference():
    rng = np.random.default_rng(7)
    data = bytes(rng.integers(0, 256, 2000, dtype=np.uint8)) + b"abcabcabc" * 200
    syms = train_symbols(data)
    enc_c = native.encode(*syms, data)
    enc_py = native._py_encode(*syms, data)
    assert enc_c == enc_py
    assert native._py_decode(*syms, enc_c) == data
    assert native.decode(*syms, enc_c, len(data)) == data


def test_fsst_python_reference_accepts_a_buffer_view():
    """The encoder hands FSST a uint8 view of the Arrow data buffer; the
    reference encode of that view equals the C encode and the reference
    encode of the same bytes, on both sides of the two-lane split."""
    from nem_mms_ray.codecs.fsst import _string_buffers

    words = ["naïve", "日本語", "", "http://example.com/a", "abcabc" * 40]
    arr = pa.array([words[i % len(words)] for i in range(300)]).slice(7)
    _, view = _string_buffers(arr)
    assert isinstance(view, np.ndarray) and len(view) >= native._DUAL_MIN
    for data in (view[:1000], view):
        syms = train_symbols(data.tobytes())
        ref = native._py_encode(*syms, data.tobytes())
        assert native._py_encode(*syms, data) == ref == native.encode(*syms, data)


def test_fsst_escape_byte_in_data():
    # 0xFF is the escape byte; data full of it must survive
    data = b"\xff" * 100 + b"ab\xffcd" * 50
    syms = train_symbols(data)
    enc = native.encode(*syms, data)
    assert native.decode(*syms, enc, len(data)) == data


def test_fsst_deterministic_training():
    data = b"the quick brown fox " * 500
    s1 = train_symbols(data)
    s2 = train_symbols(data)
    assert np.array_equal(s1[0], s2[0]) and np.array_equal(s1[1], s2[1])


def test_registry_complete():
    assert set(REGISTRY) >= {"plain", "for", "dict", "rle", "fsst"}


def test_compression_beats_plain_on_favorable_data():
    lang = pa.array(["en"] * 900 + ["fr"] * 80 + ["de"] * 20)
    plain = get_codec("plain").encode(lang).encoded_bytes
    assert get_codec("dict").encode(lang).encoded_bytes < plain
    assert get_codec("rle").encode(lang).encoded_bytes < plain
    ts = pa.array(np.arange(10000) * 1000 + 1_700_000_000_000_000, type=pa.timestamp("us"))
    assert get_codec("for").encode(ts).encoded_bytes < get_codec("plain").encode(ts).encoded_bytes / 2


# ---------------------------------------------------------------------------
# ALP decimal-float codec
# ---------------------------------------------------------------------------

ALP_OK_ARRAYS = [
    pa.array([], type=pa.float64()),
    pa.array([None, None], type=pa.float64()),
    pa.array([19.99, 0.01, None, -4.5, 100.0], type=pa.float64()),
    pa.array([1.0, 2.0, 3.0] * 50, type=pa.float64()),          # scale e=0
    pa.array(np.arange(1000) * 0.25, type=pa.float64()),        # e=2
    pa.array([1.5, 2.5, None], type=pa.float32()),
    pa.array([-1234.56, 7890.12], type=pa.float64()),
]


@pytest.mark.parametrize("i", range(len(ALP_OK_ARRAYS)))
def test_alp_roundtrip(i):
    _roundtrip("alp", ALP_OK_ARRAYS[i])


@pytest.mark.parametrize("bad", [
    pa.array([float("nan"), 1.0], type=pa.float64()),
    pa.array([float("inf"), 1.0], type=pa.float64()),
    pa.array([np.pi, 1.0], type=pa.float64()),                  # not decimal
    pa.array([-0.0, 1.0], type=pa.float64()),                   # -0.0 bit lost
    pa.array([1e17, 1.0], type=pa.float64()),                   # > 2^53
])
def test_alp_refuses_non_decimal(bad):
    with pytest.raises(ValueError):
        get_codec("alp").encode(bad)


def test_alp_selector_picks_it_for_prices():
    from nem_mms_ray.selector import select_codec
    from nem_mms_ray.stats import sketch_array

    rng = np.random.default_rng(3)
    prices = pa.array(np.round(rng.uniform(1, 100000, 20000), 2))
    plan = select_codec(sketch_array("price", prices))
    assert plan.codec == "alp"
    # and the estimate is honest: ~ n * width/8 for range 1e7 (24 bits)
    assert plan.estimates["alp"] < plan.estimates["plain"] / 2


def test_ipc_fallback_roundtrips_nested_types():
    """The universal fallback must round-trip types no typed codec covers."""
    arrays = [
        pa.array([[1.5, 2.5], None, [], [0.0]], type=pa.list_(pa.float32())),
        pa.array([{"a": 1, "b": "x"}, None, {"a": 2, "b": None}],
                 type=pa.struct([("a", pa.int64()), ("b", pa.string())])),
        pa.array([[1, 2], [3]], type=pa.list_(pa.int64())),
    ]
    for arr in arrays:
        ec = get_codec("ipc").encode(arr)
        out = decode_column(ec)
        assert out.equals(arr), arr.type
        assert out.null_count == arr.null_count


def test_encode_pipeline_handles_list_columns(tmp_path):
    """A table with a list column encodes via the ipc plan instead of
    aborting (the embeddings-table case)."""
    import pyarrow.parquet as pq

    from nem_mms_ray.pipelines.decode import decode_partition_file
    from nem_mms_ray.pipelines.encode import EncodePartitions, plan_partitions

    t = pa.table({
        "vec_id": pa.array(range(100), pa.int64()),
        "embedding": pa.array([[float(i), i + 0.5] for i in range(100)],
                              type=pa.list_(pa.float32())),
    })
    src = tmp_path / "emb.parquet"
    pq.write_table(t, src)
    specs = plan_partitions([str(src)], target_bytes=1 << 20)
    enc = EncodePartitions(str(tmp_path / "enc"))
    r = enc._encode_partition(specs[0])
    assert r.codecs["embedding"] == "ipc"
    back = decode_partition_file(tmp_path / "enc" / "part-000000.parquet")
    assert back.select(["vec_id", "embedding"]).equals(t)


def test_fsst_dual_lane_boundary_parity():
    """Inputs around the multi-lane threshold (and far above it) must match
    the Python reference byte-for-byte: the C kernel's four-lane split is
    mirrored by _py_encode, and any drift in the split arithmetic shows up
    here as an output mismatch (round-trip would still pass — decode is
    split-agnostic — so parity is the sharper assertion).  The lengths
    cover DUAL_MIN - 1 .. DUAL_MIN + 3 and every residue mod 4, so the last
    lane is up to three bytes longer than the others."""
    assert native._NLANE == 4
    d = native._DUAL_MIN
    rng = np.random.default_rng(77)
    base = b"the quick brown fox jumps over a lazy dog " * 600
    for n in [d - 1, d, d + 1, d + 2, d + 3, 4099, 5000, 8191, 8193, 12345,
              65537, 200003]:
        data = ((base * 3 + bytes(rng.integers(0, 256, 4000, dtype=np.uint8))) * 3)[:n]
        syms = train_symbols(data)
        enc_c = native.encode(*syms, data)
        assert enc_c == native._py_encode(*syms, data), n
        assert native.decode(*syms, enc_c, len(data)) == data, n


def _one_symbol_table(symbol: bytes):
    rows = np.zeros((1, 8), np.uint8)
    rows[0, : len(symbol)] = np.frombuffer(symbol, np.uint8)
    return rows, np.array([len(symbol)], np.uint8)


@pytest.mark.parametrize("n", [4096, 4097, 4098, 4099, 4103, 5001])
def test_fsst_four_lanes_cut_symbols_at_each_boundary(n):
    """An 8-byte symbol placed across each of the three lane cuts (at
    multiples of n // 4) is cut there: the lanes parse it as literals, the
    C kernel equals the reference, and both equal the per-lane encodes.
    Each lane's tail is shorter than one symbol, so the lanes end in the
    kernel's byte-at-a-time loop."""
    sym = b"ABCDEFGH"
    table = _one_symbol_table(sym)
    data = bytearray(b"-" * n)
    q = n // 4
    for cut in (q, 2 * q, 3 * q):
        data[cut - 3 : cut + 5] = sym  # straddles the cut
        data[cut - 20 : cut - 12] = sym  # whole, ends 12 bytes before it
    data = bytes(data)
    enc_c = native.encode(*table, data)
    cuts = [0, q, 2 * q, 3 * q, n]
    lanes = b"".join(native._py_encode_span(*table, data[a:b])
                     for a, b in zip(cuts, cuts[1:]))
    assert enc_c == native._py_encode(*table, data) == lanes
    # three whole symbols are coded; the straddling ones are escaped bytes
    assert enc_c.count(0) == 3
    assert native.decode(*table, enc_c, n) == data


def test_fsst_two_lane_stream_still_decodes():
    """Files written before the four-lane split hold two-lane streams (the
    encode of each half, concatenated); they decode to their input."""
    data = (b"the quick brown fox jumps over a lazy dog " * 300)[:10_001]
    syms = train_symbols(data)
    half = len(data) // 2
    two_lane = (native._py_encode_span(*syms, data[:half])
                + native._py_encode_span(*syms, data[half:]))
    assert two_lane != native.encode(*syms, data)
    assert native.decode(*syms, two_lane, len(data)) == data
    assert native._py_decode(*syms, two_lane) == data


def test_fsst_null_fast_path_and_sliced():
    """Null string slots round-trip through the no-copy path (zero-extent
    offsets), including on sliced arrays with non-zero offset."""
    c = get_codec("fsst")
    arr = pa.array((["hello world the quick brown fox"] * 50
                    + [None, "x", None]) * 40, pa.large_string())
    for a in [arr, arr.slice(7, 1900)]:
        dec = c.decode(c.encode(a))
        assert dec.equals(a)
        assert dec.null_count == a.null_count


def test_fsst_bucket_overflow_parity():
    """Seven symbols whose 3-byte prefixes all hash to ONE kernel bucket
    (hash3 collisions, brute-forced): the AVX2 probe covers only a
    bucket's 4 longest candidates, so matches on the 5th+ entries must
    come from the scalar overflow walk.  Byte-parity with the Python
    reference pins that path; a generic random table never exercises it
    (253 symbols over 2048 buckets make >4-entry buckets vanishingly
    rare)."""
    # all hash to bucket 1900 for hash3(x) = (x * 0x9E3779B1 >> 17) & 2047
    prefixes = [b"aad", b"aks", b"czl", b"ego", b"gvh", b"ick"]
    symbols = [b"aadx"] + prefixes  # len-4 first: exercises longest-first
    rows = np.zeros((len(symbols), 8), np.uint8)
    lens = np.zeros(len(symbols), np.uint8)
    for i, s in enumerate(symbols):
        rows[i, : len(s)] = np.frombuffer(s, np.uint8)
        lens[i] = len(s)
    # every symbol appears, including the two that can only match via the
    # overflow walk (bucket order is longest-first then code order, so the
    # SoA slots hold aadx,aad,aks,czl and the walk covers ego,gvh,ick)
    body = b"|".join(symbols) + b" ego gvh ick aadx aad "
    for data in (body * 40, body * 400):  # single-lane and dual-lane sizes
        enc_c = native.encode(rows, lens, data)
        assert enc_c == native._py_encode(rows, lens, data)
        assert native.decode(rows, lens, enc_c, len(data)) == data


# ---------------------------------------------------------------------------
# Golden FSST tables: sha256(sym_lens.tobytes() + sym_bytes.tobytes()) of
# train_symbols on seeded corpora.  Training changes must reproduce these
# exactly (tables, and therefore payloads and ratios, are bit-identical);
# never regenerate them to make a change pass.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _golden_corpora() -> dict[str, bytes]:
    from nem_mms_ray.webtable import SMALL, generate_shard

    out: dict[str, bytes] = {}
    shard = generate_shard(0, 200, 0, SMALL)
    for col in ("url", "text", "html", "lang"):
        vals = [v for v in shard.column(col).to_pylist() if v is not None]
        out[f"web_{col}"] = b"".join(v if isinstance(v, bytes) else v.encode() for v in vals)
    rng = np.random.default_rng(20261017)
    for k in (2, 16, 256):
        alphabet = rng.choice(256, size=k, replace=False).astype(np.uint8)
        out[f"alphabet_{k}"] = alphabet[rng.integers(0, k, 20000)].tobytes()
    for k in (1, 2, 3, 5, 8):
        out[f"ff_run_{k}"] = (b"\xff" * k + b"ab\xffc") * 400
    out["ff_all"] = b"\xff" * 5000
    # sparse 0xFF runs between words: rare enough that some generation's
    # table escapes 0xFF, so the escape parse sees runs of every parity
    words = [rng.integers(97, 123, rng.integers(2, 9), dtype=np.uint8).tobytes()
             for _ in range(400)]
    for per_mille in (2, 8):
        parts = []
        for _ in range(6000):
            parts.append(words[rng.integers(len(words))] + b" ")
            if rng.random() < per_mille / 1000:
                parts.append(b"\xff" * int(rng.integers(1, 8)))
        out[f"ff_sparse_{per_mille}"] = b"".join(parts)
    # text and random bytes, shuffled in 64-byte blocks
    base = (b"the quick brown fox jumps over the lazy dog " * 1200
            + rng.integers(0, 256, 20000, dtype=np.uint8).tobytes())
    blocks = np.frombuffer(base[: len(base) // 64 * 64], np.uint8).reshape(-1, 64)
    base = blocks[rng.permutation(len(blocks))].tobytes()
    for n in (1, 7, 4095, 65537):
        out[f"size_{n}"] = (base * 2)[:n]
    # generation 1's last L-1 positions hold no L-gram; zero padding makes
    # them look like grams ending in 0x00, so corpora ending in (or made
    # of) 0x00 catch a miscounted tail
    for n in range(1, 10):
        out[f"tail_len_{n}"] = (b"ab\x00" * 3)[:n]
    fox = b"the quick brown fox jumps over the lazy dog " * 40
    for k in (1, 3, 8):
        out[f"tail_zeros_{k}"] = fox + b"\x00" * k
    for k in (4, 9, 500):
        out[f"tail_a00_{k}"] = b"a\x00" * k
    for n in (8, 9, 5000):
        out[f"tail_all_zero_{n}"] = b"\x00" * n
    return out


def _table_digest(table) -> str:
    sym_bytes, sym_lens = table
    return hashlib.sha256(sym_lens.tobytes() + sym_bytes.tobytes()).hexdigest()


GOLDEN_TABLES = {
    "web_url": "b1bb5e684190df66cbf8ec0a3d11996e73f8ef077740906304f096b63593b2ba",
    "web_text": "fd2d3531103ce88c109d70af763243ee0f770787d594b4f27101db3561749586",
    "web_html": "a2047e79d6b67a0cbf3e71d552d9f491401e75e16b738ef6aeba273c77ed8d9e",
    "web_lang": "3065b77a48ebda6fe92e9f452ce8d68a8fbad0c174908d266dcc899e98cc815a",
    "alphabet_2": "fc3357b8893e71586cea289b0bafa0d08e314dd5efe51023f6e54a89064cfe0e",
    "alphabet_16": "6a0f3480587162b25cc0c526f754c1e70aca0aad7d2d083ceec1e0367d056a78",
    "alphabet_256": "47cf2f9a9e28a65c60ddf8f1b99f0466b0e037bb2d2ae6e4f458d4db8cb2ed01",
    "ff_run_1": "10b66bfeae32f532fe156e8c7a7e3cb428b1d4171f8910ce68f741318243e0d2",
    "ff_run_2": "cef99fdb5023b85ae8dfd5a1b56990a484b1378ec97559f1f20627b7616fceba",
    "ff_run_3": "bbbf37f6f04fa69646eb0eea966d9565d455063d62b0ca3255cc1e5d2ce191d9",
    "ff_run_5": "bd2a07d5e020d64b0e5eaa1916ed13a4b998b1908efbd6435126170a26c40342",
    "ff_run_8": "ac74294072e1cbfead24e96ea7d333118111abc2f3c2956d1b89c56fd67e2229",
    "ff_all": "3792f9b968fcf587a010d2de17ee98928fedee3e8ef89a6e79915c521f247882",
    "ff_sparse_2": "73b0ff441560cb8af8fe4629c58019531dac25da3a36951c19f56d89d87db201",
    "ff_sparse_8": "790466df04afa49d6719b9f44443a8b88fbe4c53dd46d68f61465995d24e555b",
    "size_1": "ce62c2f73ed0e20176208613beb326982872497ec022d5df5de818b40a30876c",
    "size_7": "aa89c74273e75d5896f9885e49eba6585eeb4e98e732dae88dbe718584fb1c5b",
    "size_4095": "32a02526ad572c30988eb50dcdc4bb6faee21931b56a70e6a130dc01c5f86951",
    "size_65537": "47a040908bed0afdb6ba0c41393a7494195ebed10694c222dd02ddeebfe0bb47",
    "tail_len_1": "ba9a4940c22297276cb5228cc2c37e174ae2a00e6e864373a833f5acd5ced455",
    "tail_len_2": "840abeabcd406555c170ed2250ced24cc394fc36487ad078ef2e4c4c038c37e4",
    "tail_len_3": "98f6cf85d53b4e22b147a75501e1574e37c9bafec48efa1f1e03605848bc4062",
    "tail_len_4": "977e4765c17db4e862aad43de8d02dc34dfe616d321ee7b1052f5a6311890e87",
    "tail_len_5": "0ea6157243b4b1078ea2cafd617d0dce627e9af29a1dc4aefe1bca7abaa48610",
    "tail_len_6": "98f6cf85d53b4e22b147a75501e1574e37c9bafec48efa1f1e03605848bc4062",
    "tail_len_7": "977e4765c17db4e862aad43de8d02dc34dfe616d321ee7b1052f5a6311890e87",
    "tail_len_8": "0ea6157243b4b1078ea2cafd617d0dce627e9af29a1dc4aefe1bca7abaa48610",
    "tail_len_9": "98f6cf85d53b4e22b147a75501e1574e37c9bafec48efa1f1e03605848bc4062",
    "tail_zeros_1": "003cd4f83b5ae6a2ee8d8932cf5f08c468bd11fc7babfb4380987783ed4b6edd",
    "tail_zeros_3": "003cd4f83b5ae6a2ee8d8932cf5f08c468bd11fc7babfb4380987783ed4b6edd",
    "tail_zeros_8": "a7912fcc14a86315391fa5e590dd5b96dd785ef3f46fc197d23d7900277ca8a7",
    "tail_a00_4": "ddcaec6f36c6443c98ea175a88416cab10d6eb7d0656f2da495c80788b3bcb47",
    "tail_a00_9": "1e6f3a3e1a97c0a62c58f723107ac24c368ef8346dae9b9a897d5347d6c5acfb",
    "tail_a00_500": "bfc66fbc27a60df4b045a1054a8674c2350acd7cd2fc2071814a08186013528c",
    "tail_all_zero_8": "13b2ea29e1926f9e95229bad3760db4f4f6faf5dc07d26543be2ed6a1ace2259",
    "tail_all_zero_9": "a2d97e1d96e7e41a1bdbafc19d3179736539d95addd1abe79a95d1e5ce356b4a",
    "tail_all_zero_5000": "c6c68a199034b31781e6562c9b9517c750aaa1b9829a801c0026082a2be4e2e1",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TABLES))
def test_fsst_golden_tables(name):
    assert _table_digest(train_symbols(_golden_corpora()[name])) == GOLDEN_TABLES[name]

@pytest.mark.parametrize("name", ["web_url", "ff_sparse_2"])
def test_fsst_training_without_compiler_matches_c(name, monkeypatch):
    """With no C kernel, refinement encodes through `_py_encode`; the
    reference path must train the very same table as the C path."""
    data = _golden_corpora()[name]
    with_c = train_symbols(data)
    monkeypatch.setattr(native, "get_lib", lambda: None)
    no_c = train_symbols(data)
    assert np.array_equal(no_c[0], with_c[0]) and np.array_equal(no_c[1], with_c[1])
    assert _table_digest(no_c) == GOLDEN_TABLES[name]


def test_fsst_item_ids_match_sequential_parse():
    """The vectorized escape parse equals a byte-at-a-time walk on valid
    streams full of escaped 0xFF literals (runs of every parity)."""
    from nem_mms_ray.codecs.fsst import _item_ids

    def walk(enc: bytes) -> list[int]:
        ids, i = [], 0
        while i < len(enc):
            if enc[i] == native.ESCAPE:
                ids.append(256 + enc[i + 1])
                i += 2
            else:
                ids.append(enc[i])
                i += 1
        return ids

    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 300))
        codes = rng.integers(0, native.ESCAPE, n)
        literals = np.where(rng.random(n) < 0.5, 0xFF, rng.integers(0, 256, n))
        escaped = rng.random(n) < 0.5
        enc = b"".join(bytes([native.ESCAPE, lit]) if esc else bytes([code])
                       for code, lit, esc in zip(codes, literals, escaped))
        assert _item_ids(np.frombuffer(enc, np.uint8)).tolist() == walk(enc)


def test_fsst_refine_sums_counts_of_equal_pairs():
    """Greedy matching yields the same bytes from two splits only where a
    match is cut short, as at the encoder's lane boundary: there "a"+"bc"
    spells "abc" once, beside three "ab"+"c" elsewhere.  Their counts add
    up to the gain >= 4 bar; either split alone stays below it."""
    from nem_mms_ray.codecs.fsst import _refine

    symbols = [b"ab", b"bc", b"a", b"c", b"z"]
    sym_bytes = np.zeros((len(symbols), 8), np.uint8)
    for i, s in enumerate(symbols):
        sym_bytes[i, : len(s)] = np.frombuffer(s, np.uint8)
    sym_lens = np.array([len(s) for s in symbols], np.uint8)
    quarter = 1050  # four lanes: the input is >= the multi-lane threshold
    first = (b"z" * 100 + b"zabcz" * 3).ljust(quarter - 1, b"z") + b"a"
    rest = b"bc".ljust(quarter, b"z") + b"z" * (2 * quarter)
    assert len(first + rest) >= native._DUAL_MIN and len(first + rest) // 4 == quarter

    def refined(data):
        out_bytes, out_lens = _refine(data, (sym_bytes, sym_lens), 255)
        return {bytes(row[:n]) for row, n in zip(out_bytes, out_lens)}

    assert b"abc" in refined(first + rest)
    assert b"abc" not in refined(first.replace(b"zabcz", b"zzzzz", 1) + rest)


# ---------------------------------------------------------------------------
# Golden payloads: sha256(payload + sorted params JSON) of every codec that
# bit-packs (for/bitpack/delta/alp payloads, dict indices, rle run lengths,
# fsst string lengths) on seeded columns.  Recorded before the packer moved
# to C; any packer change must reproduce them (the on-disk format), so
# never regenerate them to make a change pass.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _golden_columns() -> dict[str, tuple[str, pa.Array]]:
    from nem_mms_ray.webtable import SMALL, generate_shard

    rng = np.random.default_rng(20261018)
    n = 70_000  # more than one 64-bit word per field at every width
    nulls = rng.random(n) < 0.05
    ints = rng.integers(-1_000_000, 1_000_000, n)
    days = 1_600_000_000_000_000 + rng.integers(0, 4000, n) * 86_400_000_000
    ts = np.cumsum(rng.integers(900, 1100, n)) + 1_700_000_000_000_000
    shard = generate_shard(5, 600, 0, SMALL)
    words = np.array(["alpha", "beta", "gamma", "delta", "epsilon", "zeta"])
    return {
        "for_int64": ("for", pa.array(ints, pa.int64(), mask=nulls)),
        "for_days": ("for", pa.array(days, pa.timestamp("us"))),
        "for_full_range": ("for", pa.array(
            rng.integers(-2**63, 2**63 - 1, 4099, dtype=np.int64, endpoint=True))),
        "for_int16": ("for", pa.array(rng.integers(-300, 300, 999).astype(np.int16))),
        "bitpack_small": ("bitpack", pa.array(rng.integers(0, 6, n), pa.int64())),
        "bitpack_uint64": ("bitpack", pa.array(
            rng.integers(0, 2**64 - 1, 3001, dtype=np.uint64, endpoint=True))),
        "delta_ts": ("delta", pa.array(ts, pa.timestamp("us"))),
        "delta_mixed": ("delta", pa.array(ints, pa.int64(), mask=nulls)),
        "alp_prices": ("alp", pa.array(rng.integers(0, 10**7, n) / 100.0, mask=nulls)),
        "alp_float32": ("alp", pa.array(
            (rng.integers(-500, 500, 5000) / 4.0).astype(np.float32))),
        "dict_strings": ("dict", pa.array(words[rng.integers(0, len(words), n)])),
        "dict_ints": ("dict", pa.array(rng.integers(0, 3000, n) * 7919, pa.int64())),
        "rle_strings": ("rle", pa.array(np.repeat(
            words[rng.integers(0, len(words), 2000)], rng.integers(1, 60, 2000)))),
        "rle_ints": ("rle", pa.array(np.repeat(
            rng.integers(0, 9, 5000), rng.integers(1, 9, 5000)), pa.int32())),
        "fsst_text": ("fsst", shard.column("text").combine_chunks()),
        "fsst_url": ("fsst", shard.column("url").combine_chunks()),
    }


def _payload_digest(ec) -> str:
    params = json.dumps(ec.params, sort_keys=True).encode()
    return hashlib.sha256(ec.payload + params).hexdigest()


GOLDEN_PAYLOADS = {
    "alp_float32": "32fcf01a7e1d266522a752b7732483857e7f6915a30037b5def53a2c2fba3b47",
    "alp_prices": "070dfbcb83612856d0593fcb77d7a5958e2e4da2f74f22f4c24b1749f5253a3e",
    "bitpack_small": "48b55ed76ab7aa29fbdf62df4dcf04e743ff4794ae83f7c908721b55929460ab",
    "bitpack_uint64": "366d3a3143f52e8a11d9544c9034de142412b5a33ca62a086070eec98ca75d4d",
    "delta_mixed": "fd6bf75e12e7df085fe660028e77bcf9204610787aff7b0a5591e3ea15f7d869",
    "delta_ts": "2044ad12afb4b7ce2edbcb44eaaa74dd01f8f3ebdc01f39da07d2cbb10d50e7f",
    "dict_ints": "436a73b970645625488be47d31f0941f22462fc269cad5e3ab20d4e4e71bf05c",
    "dict_strings": "447642422560cf1a6a5ba85ed41e81e43598cba2290a2cef77d9c28ee65d98f6",
    "for_days": "8e4527ae9d0a2b21f549dfc09ae347a56091ed75084d6c98e765a78e91a6183a",
    "for_full_range": "c8888008214d6765b192ad0d880787b18350c268d3b86601b75b2272bdd6f64c",
    "for_int16": "5d29ed4ed9c7c114983312bed342c82f04b1727bacedaba260cc35b851b9366c",
    "for_int64": "556445b20ccd35acfb12290e2058463330886c7372435a5c7f5888c63a58487c",
    "fsst_text": "703f6978ba7e7095d1e399cc6786437ff5014c3f711b2b58d68b8fd86bd0e8ae",
    "fsst_url": "c916a1189a8df5d2aaf026d04b4df55724b430afa7a166947fce8371f49818d2",
    "rle_ints": "69ebad49811bfe8ee3ee8762a5b78a36012fee6501f8ac1144dffd220d79352e",
    "rle_strings": "b64abd8cc36134f437857faa8097bc5627b95c831099e6b53420a09ccc69a537",
}


@pytest.mark.parametrize("reference", [False, True])
@pytest.mark.parametrize("name", sorted(GOLDEN_PAYLOADS))
def test_golden_payloads(name, reference, monkeypatch):
    if reference:
        monkeypatch.setattr(bitpack, "_kernel", lambda: None)
    codec, arr = _golden_columns()[name]
    ec = get_codec(codec).encode(arr)
    assert _payload_digest(ec) == GOLDEN_PAYLOADS[name]
    assert decode_column(ec).equals(arr)


# ---------------------------------------------------------------------------
# Statistics the codecs reduce once: the ALP scale search and value_range
# ---------------------------------------------------------------------------


def _full_pass_scale(v: np.ndarray):
    """The ALP scale search as a full pass per exponent: the reference that
    `alp_scale_ints`'s head rejection must agree with."""
    from nem_mms_ray.stats import ALP_MAX_EXP

    if len(v) == 0:
        return 0
    if not np.all(np.isfinite(v)):
        return None
    bits = v.view(np.uint64 if v.dtype == np.float64 else np.uint32)
    v64 = v.astype(np.float64)
    for e in range(ALP_MAX_EXP + 1):
        s = 10.0 ** e
        ints = np.round(v64 * s)
        if np.abs(ints).max() >= 2.0 ** 53:
            return None
        recon = (ints.astype(np.int64).astype(np.float64) / s).astype(v.dtype)
        if np.array_equal(recon.view(bits.dtype), bits):
            return e
    return None


def _scale_cases(seed: int, count: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.choice([1, 2, 63, 64, 65, 66, int(rng.integers(1, 400))]))
        e = int(rng.integers(0, 5))
        v = rng.integers(-10**6, 10**6, n) / 10.0 ** e
        kind = rng.integers(0, 8)
        if kind == 1:    # exact head, finer tail
            v[64:] += 0.001
        elif kind == 2:  # exact head, non-decimal tail
            v[64:] = rng.normal(0.0, 1.0, max(0, n - 64))
        elif kind == 3:  # a -0.0 somewhere
            v[rng.integers(0, n)] = -0.0
        elif kind == 4:  # |v * 10^e| reaches 2^53 at some exponent
            v[rng.integers(0, n)] = float(rng.choice([2.0 ** 53, 1e12 + 0.5, 3e15 + 0.25]))
        elif kind == 5:  # nulls as the codec sees them (filled with 0.0)
            v[rng.random(n) < 0.3] = 0.0
        elif kind == 6:  # a 2^53 value in the tail only
            v[-1] = 2.0 ** 60
        if rng.random() < 0.4:
            v = v.astype(np.float32)
        out.append(v)
    return out


def test_alp_scale_ints_matches_full_pass():
    from nem_mms_ray.stats import alp_scale_ints

    exps = []
    for v in _scale_cases(20261018, 1500):
        want = _full_pass_scale(v)
        e, ints = alp_scale_ints(v)
        assert e == want, (v.dtype, len(v))
        if e is not None:
            np.testing.assert_array_equal(
                ints, np.round(v.astype(np.float64) * 10.0 ** e).astype(np.int64))
        exps.append(want)
    # the cases reach every outcome: no scale, e = 0, and larger exponents
    assert None in exps and 0 in exps and max(e for e in exps if e is not None) >= 3


def _zone_params(ec, arr, value_range) -> str:
    from nem_mms_ray.pipelines.encode import _attach_zone_map

    ec = dataclasses.replace(ec, params=dict(ec.params), value_range=value_range)
    _attach_zone_map(ec, arr)
    return json.dumps(ec.params, sort_keys=True)  # keeps -0.0 apart from 0.0


# (codec, chunk, whether it gets a zone)
ZONE_ARRAYS = [
    ("dict", pa.array(["N", "A", "R", "A"] * 50), True),
    ("dict", pa.array(["N", None, "R"] * 50), True),
    ("dict", pa.array(["b", "", "a"] * 10), True),
    ("dict", pa.array(["x" * 80 + "b", "x" * 80 + "a", "x" * 70]), True),
    # max is 70 x U+10FFFF: its 64-char prefix has no successor
    ("dict", pa.array(["\U0010ffff" * 70, "a", "\U0010ffff" * 64 + "b"]), False),
    ("dict", pa.array(["\U0010ffff" * 64, "a"], type=pa.large_string()), True),
    ("dict", pa.array([3, -7, 3, 11] * 20), True),
    ("dict", pa.array([2.5, -1.25, 2.5, 0.0, -0.0] * 20), True),
    ("dict", pa.array([-0.0, 0.0, 1.0] * 20), True),
    ("dict", pa.array([float("nan"), 4.0, 4.0]), True),
    ("dict", pa.array([float("nan")] * 3), False),
    ("dict", pa.array([7.5, None, 9.5] * 20), True),
    ("dict", pa.array([1.5, 2.5, 1.5], type=pa.float32()), True),
    ("alp", pa.array(np.round(np.linspace(900.0, 105_000.0, 500), 2)), True),
    ("alp", pa.array([-12.5, -3.25, -100.0, -0.5]), True),
    ("alp", pa.array([3.5, None, 7.25]), True),
    ("alp", pa.array([-3.5, None, -7.25]), True),
    ("alp", pa.array([0.1, 0.7, 0.3], type=pa.float32()), True),
    ("alp", pa.array([-99.94, 12.5, None], type=pa.float32()), True),
    ("alp", pa.array([0.0, 5.0, 0.0] * 40), True),
]


@pytest.mark.parametrize("i", range(len(ZONE_ARRAYS)))
def test_zone_map_from_value_range_matches_scan(i):
    """The zone map from the codec's range equals the one from scanning the
    chunk; a chunk with nulls carries no range (the codec saw fill values)."""
    codec, arr, zoned = ZONE_ARRAYS[i]
    ec = get_codec(codec).encode(arr)
    wants_range = arr.null_count == 0 and not pa.types.is_integer(arr.type)
    assert (ec.value_range is not None) == wants_range
    scanned = _zone_params(ec, arr, None)
    assert _zone_params(ec, arr, ec.value_range) == scanned
    assert ("zmin" in json.loads(scanned)) == zoned


def test_value_range_is_never_persisted():
    from nem_mms_ray.codecs import EncodedColumn

    arr = pa.array([19.99, 0.01, 4.5])
    ec = get_codec("alp").encode(arr)
    assert ec.value_range is not None
    row = ec.to_row()
    assert sorted(row) == ["codec", "dtype", "has_validity", "n", "params",
                           "payload", "validity"]
    back = EncodedColumn.from_row(row)
    assert back.value_range is None and back == ec
    bogus = dataclasses.replace(ec, value_range=(pa.scalar(-1.0), pa.scalar(1.0)))
    assert decode_column(back).equals(arr) and decode_column(bogus).equals(arr)


def _dictionary_case(rng, i: int) -> pa.DictionaryArray:
    """One seeded DictionaryArray: unused and repeated dictionary entries,
    a subset of codes out of dictionary order, nulls (all null, or next
    to a real ""), int8/int16/int32 indices, and slices with an offset."""
    index_type = [pa.int8(), pa.int16(), pa.int32()][i % 3]
    kind = rng.choice(["string", "binary", "int"])
    k = int(rng.integers(1, 120))
    words = ["", *("".join(rng.choice(list("abcxyz"), int(rng.integers(1, 9))))
                   for _ in range(k - 1))]
    if rng.random() < 0.3:  # repeated values
        words = [words[j] for j in rng.integers(0, len(words), k)]
    if kind == "int":
        dictionary = pa.array(rng.integers(-50, 50, k))
    else:
        dictionary = pa.array(words if kind == "string" else [w.encode() for w in words],
                              pa.string() if kind == "string" else pa.binary())
    n = int(rng.choice([0, 1, int(rng.integers(2, 3000))]))
    used = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
    codes = used[rng.integers(0, len(used), n)]
    if rng.random() < 0.3:  # clustered: the first codes are not 0, 1, ...
        codes = np.sort(codes)[::-1].copy()
    null_rate = rng.choice([0.0, 0.1, 0.9, 1.0])
    mask = rng.random(n) < null_rate
    arr = pa.DictionaryArray.from_arrays(pa.array(codes, index_type, mask=mask), dictionary)
    if n > 2 and rng.random() < 0.3:
        lo = int(rng.integers(1, n))
        arr = arr.slice(lo, int(rng.integers(0, n - lo + 1)))
    return arr


def _plain_nbytes(arr: pa.Array) -> int:
    """`nbytes` of `arr` rebuilt as a Parquet read leaves it: a validity
    buffer only when it has nulls."""
    if arr.null_count == 0:
        arr = pa.Array.from_buffers(arr.type, len(arr), [None, *arr.buffers()[1:]],
                                    0, arr.offset)
    return arr.nbytes


def test_dict_encode_of_dictionary_array_matches_dense():
    """Seeded property: a DictionaryArray encodes to the bytes, params,
    dtype and zone range of its dense values."""
    dict_codec = get_codec("dict")
    rng = np.random.default_rng(20261019)
    remapped = 0
    for i in range(400):
        arr = _dictionary_case(rng, i)
        kind = str(arr.type.value_type)
        dense = arr.cast(arr.type.value_type)
        got, want = dict_codec.encode(arr), dict_codec.encode(dense)
        assert got == want, i
        assert got.value_range == want.value_range, i
        assert decode_column(got).equals(dense), i
        if kind != "int64":  # what a plain read of the column would count
            assert got.dense_nbytes == _plain_nbytes(dense), i
        remapped += len(arr) > 0 and arr.null_count < len(arr)
    assert remapped > 100


def test_dict_encode_edge_dictionaries():
    dict_codec = get_codec("dict")
    cases = [
        # null dictionary entries make their rows null
        pa.DictionaryArray.from_arrays(pa.array([0, 1, 2, 1], pa.int8()),
                                       pa.array(["a", None, "b"])),
        # "" in the dictionary before the chunk's first null
        pa.DictionaryArray.from_arrays(pa.array([2, None, 0, 1, None], pa.int16()),
                                       pa.array(["", "q", "p"])),
        pa.DictionaryArray.from_arrays(pa.array([], pa.int32()), pa.array(["a", "b"])),
        # the first rows use codes 0..1 only; code 2 first shows late
        pa.DictionaryArray.from_arrays(pa.array([1, 0] * 700 + [2, 0], pa.int32()),
                                       pa.array(["b", "a", "c"])),
        pa.DictionaryArray.from_arrays(pa.array([None, None], pa.int32()), pa.array(["a"])),
    ]
    for arr in cases:
        dense = arr.cast(arr.type.value_type)
        got, want = dict_codec.encode(arr), dict_codec.encode(dense)
        assert got == want and got.value_range == want.value_range
        assert decode_column(got).equals(dense)
