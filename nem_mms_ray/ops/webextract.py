"""HTML -> text extraction for Common-Crawl-style web tables.

The input contract this engine targets (url, warc_ts, html, text, lang)
carries a per-row invariant: the text column is the DETERMINISTIC
extraction of the html column, byte-identical per url across runs and
cluster sizes.  This module is that extractor, expressed as a WET-style
tag-stripping spec that runs entirely in Arrow's RE2 kernels — one
`pc.replace_substring_regex` C pass per rule, no Python strings in the
hot path:

  1. ONE structural pass (a single leftmost-first alternation): drop
     <script>...</script> and <style>...</style> blocks (their content is
     code, not text) and <!-- comments -->, and replace every other <tag>
     with a space (space, not empty, so `a</td><td>b` doesn't weld into
     `ab`),
  2. decode the six ubiquitous entities (&nbsp; &lt; &gt; &quot; &#39;
     &amp; — amp LAST so `&amp;lt;` decodes to the literal `&lt;`),
  3. collapse whitespace runs to one space and trim.

Entity decoding runs AFTER tag stripping on purpose: a decoded `&lt;b&gt;`
is text and must survive, not be re-stripped as a tag.

Determinism/oracle: Arrow and DuckDB both run RE2, so the exact same
pattern chain is expressible as SQL (`sql_expr`) — the driver oracle
hash-checks the two engines byte-for-byte.  `tests/test_webextract.py`
additionally pins the Arrow chain against an independent `re`-module
reference on the synthetic webtable's html (which includes sliced — i.e.
partial/unbalanced — tags) and fuzzed entity/tag soup.

Scale shape: a pure map_batches stage (zero shuffle, zero state — plain
task pool, no actor pool needed since there is nothing to set up), so it
pipelines with the encode stage that typically follows.

Binary html: C kernel, else the scalar reference.  The single-pass C
kernel (`webextract_kernel.c`, via ops/_webextract_native) extracts the
whole binary column in one call; without it the SAME rule chain runs
byte-mode in Arrow (`extract_bytes_array` — RE2 accepts binary) and only
the extracted text is lossy-decoded (`lossy_decode`).  In UTF-8,
continuation bytes are >= 0x80 and can never alias the ASCII
metacharacters (< > & ;), so byte-mode extraction equals
decode-then-extract on every valid input — and on invalid bytes (real
Common Crawl contains them; so do this repo's sliced webtable blobs) it
stays deterministic and vectorized instead of dropping to a per-row
Python decode of the full html.
"""

from __future__ import annotations

import logging

import pyarrow as pa
import pyarrow.compute as pc

logger = logging.getLogger(__name__)

#: (pattern, replacement) regex passes, applied in order.  RE2 syntax —
#: valid for Arrow and DuckDB alike (no backreferences, inline flags ok).
#: ALL four structural rules (script/style blocks, comments, tags) are ONE
#: alternation in ONE pass: each regex pass scans and copies the full
#: payload, so pass count is the main throughput lever.  Alternation order
#: is load-bearing: RE2, DuckDB and Python `re` all use leftmost-FIRST
#: alternative semantics, so at a `<script`/`<style`/`<!--` position the
#: whole block is consumed before the bare-tag rule can see it.
_REGEX_RULES: tuple[tuple[str, str], ...] = (
    (r"(?is)<script[^>]*>.*?</script>|<style[^>]*>.*?</style>"
     r"|<!--.*?-->|<[^>]*>",
     " "),
)

#: literal entity decodes, applied after tag stripping, in order (amp last).
_ENTITY_RULES: tuple[tuple[str, str], ...] = (
    ("&nbsp;", " "),
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&quot;", '"'),
    ("&#39;", "'"),
    ("&amp;", "&"),
)

#: Explicit ASCII class, NOT \s: Python's re counts Unicode whitespace
#: (\x1c, NBSP, ...) in \s while RE2 (Arrow, DuckDB) is ASCII-only, and
#: DuckDB's trim() strips spaces only — an explicit class plus a
#: space-only trim is the one spec all three engines execute identically.
_WS_PATTERN = r"[ \t\n\f\r\v]+"


def extract_text_array(col: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Apply the extraction spec to an Arrow STRING column (nulls pass
    through).  All-C: RE2 replaces + trim."""
    a = col
    for pat, rep in _REGEX_RULES:
        a = pc.replace_substring_regex(a, pattern=pat, replacement=rep)
    for ent, rep in _ENTITY_RULES:
        a = pc.replace_substring(a, pattern=ent, replacement=rep)
    a = pc.replace_substring_regex(a, pattern=_WS_PATTERN, replacement=" ")
    return pc.utf8_trim(a, characters=" ")


def extract_bytes_array(col: pa.Array | pa.ChunkedArray) -> pa.Array:
    """The same spec over a BINARY column, byte-mode RE2 end to end
    (the patterns are pure ASCII, so byte and codepoint semantics agree
    on valid UTF-8; invalid bytes pass through untouched)."""
    a = col
    for pat, rep in _REGEX_RULES:
        a = pc.replace_substring_regex(a, pattern=pat, replacement=rep)
    for ent, rep in _ENTITY_RULES:
        a = pc.replace_substring(a, pattern=ent, replacement=rep)
    a = pc.replace_substring_regex(a, pattern=_WS_PATTERN, replacement=" ")
    # byte-mode trim: utf8_trim has no binary kernel, the anchors do
    return pc.replace_substring_regex(a, pattern=r"^ +| +$", replacement="")


def lossy_decode(col) -> pa.Array:
    """binary -> string with errors='replace', vectorized: the fast path
    is the C cast (valid batch); an invalid batch decodes ONCE as a
    NUL-joined buffer and splits per row — not a Python decode per row.
    A batch whose payload contains a real 0x00 byte (sentinel collision)
    takes the per-row path."""
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return col
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    try:
        return col.cast(pa.string())
    except pa.ArrowInvalid:
        pass
    bufs = [v.as_py() for v in col]
    present = [b for b in bufs if b is not None]
    if any(b"\x00" in b for b in present):
        logger.info("lossy_decode: NUL byte in payload, per-row decode")
        dec = iter([b.decode("utf-8", "replace") for b in present])
    else:
        joined = b"\x00".join(present)
        dec = iter(joined.decode("utf-8", "replace").split("\x00"))
    return pa.array([None if b is None else next(dec) for b in bufs],
                    pa.string())


def extract_binary(col) -> pa.Array:
    """Extract a BINARY html column on its raw bytes and decode only the
    (much smaller) text: the C kernel, else the byte-identical Arrow
    chain."""
    from nem_mms_ray.ops._webextract_native import extract_batch

    text = extract_batch(col)
    return lossy_decode(extract_bytes_array(col)) if text is None else text


def extract_text(ds, html_col: str = "html", out_col: str = "text",
                 drop_html: bool = True):
    """Dataset stage: add `out_col` = extracted text of `html_col`.

    With `drop_html` the (large) html column is dropped from the output —
    the usual shape when extraction feeds a text-only curation pipeline,
    and what keeps the downstream object-store footprint small.
    """

    def run(t: pa.Table) -> pa.Table:
        col = t.column(html_col)
        if pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type):
            text = extract_binary(col)
        else:
            text = extract_text_array(col)
        if out_col in t.column_names:
            t = t.drop_columns([out_col])
        t = t.append_column(out_col, text)
        if drop_html and html_col != out_col and html_col in t.column_names:
            t = t.drop_columns([html_col])
        return t

    return ds.map_batches(run, batch_format="pyarrow")


def sql_expr(col: str) -> str:
    """The DuckDB expression computing the SAME extraction (RE2 on both
    engines), generated from the one rule table so the oracle can never
    drift from the Ray kernel."""
    e = col
    for pat, rep in _REGEX_RULES:
        e = f"regexp_replace({e}, '{pat}', '{rep}', 'g')"
    for ent, rep in _ENTITY_RULES:
        rep_sql = rep.replace("'", "''")
        e = f"regexp_replace({e}, '{ent}', '{rep_sql}', 'g')"
    # _WS_PATTERN is a raw string (backslash-t, not a tab byte), and
    # DuckDB's standard single-quoted literals pass backslashes through
    # untouched — the pattern text is valid verbatim in SQL
    e = f"regexp_replace({e}, '{_WS_PATTERN}', ' ', 'g')"
    return f"trim({e})"
