"""HTML -> text extraction: Arrow RE2 chain vs an independent `re`
reference, webtable round-trip, stage plumbing, and the DuckDB mirror."""

import re

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from nem_mms_ray.ops.webextract import (_ENTITY_RULES, _REGEX_RULES, _WS_PATTERN,
                                        extract_text, extract_text_array,
                                        sql_expr)


def _reference_extract(s):
    """Slow obvious implementation of the SAME spec with Python's `re`
    (a different regex engine than Arrow's RE2): the test double the
    vectorized chain must match byte-for-byte."""
    if s is None:
        return None
    for pat, rep in _REGEX_RULES:
        s = re.sub(pat, rep, s)
    for ent, rep in _ENTITY_RULES:
        s = s.replace(ent, rep)
    return re.sub(_WS_PATTERN, " ", s).strip(" ")


CASES = [
    '<html><body><h1>Title</h1><p>a &amp; b</p></body></html>',
    '<script>var x = "<p>not text</p>";</script>after',
    '<style type="text/css">p { color: red }</style>styled',
    '<!-- a comment --><p>kept</p>',
    'a</td><td>b',                      # tag -> space keeps word boundary
    '&amp;lt; stays &lt; decodes',      # amp-last ordering
    'no markup at all',
    '',
    None,
    '<p>partial <b',                    # sliced/unbalanced tag survives
    'multi\n\n  line\t\ttext',
    '<SCRIPT SRC="x">UPPER</SCRIPT>ok', # case-insensitive block rules
    '<p a="1"\nb="2">attr\nnewline</p>',
]


def test_extract_matches_re_reference_on_cases():
    out = extract_text_array(pa.array(CASES, pa.string())).to_pylist()
    assert out == [_reference_extract(c) for c in CASES]


def test_extract_matches_re_reference_on_webtable_html():
    """The synthetic webtable's html (random tag soup, sliced mid-tag at
    blob boundaries) extracts byte-identically to the reference — the
    input contract's per-row invariant."""
    from nem_mms_ray.webtable import SMALL, generate_shard

    t = generate_shard(0, 300, 0, SMALL)
    html = [None if (b := v.as_py()) is None else b.decode("utf-8", "replace")
            for v in t.column("html").combine_chunks()]
    got = extract_text_array(pa.array(html, pa.string())).to_pylist()
    assert got == [_reference_extract(h) for h in html]


def test_extract_matches_duckdb_mirror():
    """sql_expr runs the same rule table through DuckDB's RE2 —
    byte-identical output on the edge cases."""
    vals = [c for c in CASES if c is not None]
    got = extract_text_array(pa.array(vals, pa.string())).to_pylist()
    sql = f"SELECT {sql_expr('x')} AS t FROM (SELECT unnest(?::VARCHAR[]) AS x)"
    want = [r[0] for r in duckdb.execute(sql, [vals]).fetchall()]
    assert got == want


def test_extract_text_stage_binary_and_drop(ray_session):
    """The Dataset stage decodes binary html, emits out_col, and drops
    the html column by default."""
    import ray.data as rd

    df = pd.DataFrame({
        "url": ["u1", "u2", "u3"],
        "html": [b"<p>one</p>", b"two &amp; three", None],
    })
    out = extract_text(rd.from_pandas(df)).to_pandas()
    assert list(out.columns) == ["url", "text"]
    assert list(out["text"]) == ["one", "two & three", None]


def test_extract_text_stage_invalid_utf8(ray_session):
    """A batch with invalid UTF-8 bytes takes the lossy per-row fallback
    instead of failing."""
    import ray.data as rd

    df = pd.DataFrame({"html": [b"<p>ok</p>", b"bad \xff byte"]})
    out = extract_text(rd.from_pandas(df)).to_pandas()
    assert list(out["text"]) == ["ok", "bad � byte"]


def test_extract_determinism():
    """Same bytes -> same text, independent of batch slicing (the
    byte-identical-per-url invariant the north rule names)."""
    from nem_mms_ray.webtable import SMALL, generate_shard

    t = generate_shard(1, 120, 0, SMALL)
    html = t.column("html").combine_chunks().cast(pa.large_binary())
    col = pa.array(
        [None if (b := v.as_py()) is None else b.decode("utf-8", "replace")
         for v in html], pa.string())
    whole = extract_text_array(col).to_pylist()
    sliced = []
    for lo in range(0, len(col), 7):
        sliced.extend(extract_text_array(col.slice(lo, 7)).to_pylist())
    assert whole == sliced


def test_extract_bytes_path_equals_string_path_on_valid_utf8():
    """Byte-mode extraction == decode-then-extract on valid UTF-8
    (continuation bytes never alias ASCII metacharacters)."""
    from nem_mms_ray.ops.webextract import extract_bytes_array, lossy_decode

    vals = [c for c in CASES if c is not None] + ["日本 <b>語</b> テスト",
                                                  "mixed ascii 中文 &amp; ok"]
    via_bytes = lossy_decode(extract_bytes_array(
        pa.array([v.encode() for v in vals], pa.binary()))).to_pylist()
    via_string = extract_text_array(pa.array(vals, pa.string())).to_pylist()
    assert via_bytes == via_string


def test_lossy_decode_joined_equals_per_row():
    """The NUL-joined single decode yields exactly the per-row
    bytes.decode('utf-8','replace') result, including truncated
    multibyte sequences at row boundaries, empty rows, and nulls."""
    from nem_mms_ray.ops.webextract import lossy_decode

    rows = [b"plain", b"trunc2 \xe4\xb8", b"trunc1 \xe4", b"", None,
            b"bad \xff mid", b"\x80lead", b"ok \xe4\xb8\xad end",
            b"\xf0\x9f\x98", b"tail\xc3"]
    got = lossy_decode(pa.array(rows, pa.binary())).to_pylist()
    want = [None if b is None else b.decode("utf-8", "replace") for b in rows]
    assert got == want


def test_lossy_decode_nul_sentinel_fallback():
    """A payload containing a genuine 0x00 still decodes correctly via
    the per-row path."""
    from nem_mms_ray.ops.webextract import lossy_decode

    rows = [b"a\x00b", b"c \xff d"]
    got = lossy_decode(pa.array(rows, pa.binary())).to_pylist()
    assert got == [b.decode("utf-8", "replace") for b in rows]


def test_extract_text_stage_binary_invalid_utf8_vectorized(ray_session):
    """Invalid-UTF-8 html goes through the byte-mode chain + joined
    decode (no per-row html decode) and matches the reference spec:
    extract on bytes, then lossy-decode."""
    import ray.data as rd

    raw = [b"<p>ok</p>", b"bad \xff <b>byte</b>", None,
           "tag <i>日本</i>".encode()]

    def ref(b):
        if b is None:
            return None
        for pat, rep in _REGEX_RULES:
            b = re.sub(pat.encode(), rep.encode(), b)
        for ent, rep in _ENTITY_RULES:
            b = b.replace(ent.encode(), rep.encode())
        b = re.sub(_WS_PATTERN.encode(), b" ", b)
        return b.strip(b" ").decode("utf-8", "replace")

    df = pd.DataFrame({"html": raw})
    out = extract_text(rd.from_pandas(df)).to_pandas()
    assert list(out["text"]) == [ref(b) for b in raw]


def _reference_extract_bytes(b):
    if b is None:
        return None
    for pat, rep in _REGEX_RULES:
        b = re.sub(pat.encode(), rep.encode(), b)
    for ent, rep in _ENTITY_RULES:
        b = b.replace(ent.encode(), rep.encode())
    b = re.sub(_WS_PATTERN.encode(), b" ", b)
    return b.strip(b" ").decode("utf-8", "replace")


def test_c_kernel_matches_reference_on_adversarial_and_fuzz():
    """The single-pass C kernel is byte-identical to the regex spec on
    alternation-order edge cases (unclosed blocks, nested openers, fake
    closers, case-folding aliases like \\r vs '-') and 1500 fuzzed
    tag/entity soups, including invalid UTF-8 and embedded NULs."""
    import random

    from nem_mms_ray.ops._webextract_native import extract_batch

    cases = [
        b"<di<script>x</script>v>", b"<script no close", b"<script>no close",
        b"<style>x", b"<!-- unclosed", b"<!-- a>b -->tail", b"<<b>",
        b"\r\r> fake close -->", b"<a <b>", b"<scriptxyz>hidden</script>on",
        b"&am<!-- -->p;", b"&NBSP; caseless", b"&nbsp;lead", b"trail&nbsp;",
        b"nul\x00here <i>x</i>", b"bad \xff <b>byte</b>", b"", None,
        b"\xe4\xb8\xad<script>\xff</script>\xe6\x96\x87",
        b"<SCRIPT SRC=x>UP</SCRIPT>ok", b"a&nbsp;&nbsp;b",
    ]
    rng = random.Random(7)
    pieces = [b"<", b">", b"&", b"script", b"style", b"<!--", b"-->",
              b"</script>", b"</STYLE>", b"amp;", b"&amp;", b"&lt;",
              b"&nbsp;", b" ", b"\n", b"\t", b"a", b"Z", b"\xff",
              b"\xe4\xb8", b"x y", b";", b"\x00"]
    for _ in range(1500):
        cases.append(b"".join(rng.choice(pieces)
                              for _ in range(rng.randint(0, 25))))
    arr = pa.array(cases, pa.binary())
    got = extract_batch(arr)
    if got is None:
        pytest.skip("no C compiler available")
    assert got.to_pylist() == [_reference_extract_bytes(c) for c in cases]


def test_c_kernel_matches_fused_arrow_path_on_webtable():
    """Kernel and the Arrow-chain fallback agree on real webtable html
    (sliced blobs, invalid UTF-8) — the two paths can never drift."""
    from nem_mms_ray.ops._webextract_native import extract_batch
    from nem_mms_ray.ops.webextract import extract_bytes_array, lossy_decode
    from nem_mms_ray.webtable import SMALL, generate_shard

    t = generate_shard(3, 300, 0, SMALL)
    col = t.column("html").combine_chunks()
    got = extract_batch(col)
    if got is None:
        pytest.skip("no C compiler available")
    assert got.to_pylist() == lossy_decode(extract_bytes_array(col)).to_pylist()


def test_c_kernel_sliced_input():
    """Arrow slice offsets route correctly into the (data, offsets) call."""
    from nem_mms_ray.ops._webextract_native import extract_batch

    arr = pa.array([b"<p>a</p>", b"<b>b</b>", b"c &amp; d", None,
                    b"<i>e</i>"], pa.binary())
    sl = arr.slice(1, 3)
    got = extract_batch(sl)
    if got is None:
        pytest.skip("no C compiler available")
    assert got.to_pylist() == ["b", "c & d", None]
