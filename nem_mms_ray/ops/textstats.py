"""Text-analysis operators over a documents table: token counting, quality
scoring, language ID, document fingerprinting.

All stages are vectorized `map_batches` transforms; the SQL-expressible ones
(token counts, punct ratios, md5 fingerprints, quality score) mirror their
DuckDB oracle formulas exactly (see __ray_entry__.oracle_sql) so the driver's
value-hash comparison passes.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa


_PUNCT = r"[.,!?;:]"
_PUNCT_RE = re.compile(_PUNCT)
_WS_RE = re.compile(r"\s+")

# ---------------------------------------------------------------------------
# C kernel, else the scalar reference
#
# token_stats_batch and LangId run one fused C scan over the column's raw
# utf8 buffer (`langid_kernel.c`, via ops/_langid_native); where the
# kernel is unavailable or declines, the scalar formulas (`_token_stats_py`,
# `LangId._py_batch`) run per doc.  The scan's semantics are Python's by
# construction:
#   - token stats work at the BYTE level — a maximal run of non-whitespace
#     bytes equals a run of non-whitespace codepoints because UTF-8
#     continuation bytes are never whitespace; the one exception, a doc
#     with a multibyte whitespace CHARACTER (U+00A0, U+2000.., U+3000, ...),
#     is flagged by the kernel and recomputed by the scalar formula.
#   - LangId classifies each codepoint against BMP lookup tables derived at
#     import from Python's own `re` \w and str.lower().  Docs with an astral
#     (>BMP) codepoint or a codepoint whose lowercase expands (e.g. U+0130)
#     are flagged and recomputed by the scalar formula.
# C/scalar agreement is pinned by parity + fuzz tests.
# ---------------------------------------------------------------------------

_ASCII_WS = np.zeros(128, np.uint8)  # Python \s / str.strip() on ASCII
_ASCII_WS[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = 1

# every multibyte codepoint Python's \s matches (ascending) — the only
# case where byte-level whitespace runs diverge from codepoint runs
_MB_WS_CPS = np.array([c for c in range(0x80, 0x10000)
                       if re.match(r"\s", chr(c))], np.uint32)

_BMP: dict = {}


def _bmp_tables() -> dict:
    """BMP classification tables, built once per process from Python's own
    regex engine / str.lower so the C kernel's semantics are Python's by
    construction: a word (\\w) mask, a single-codepoint lowercase map, and
    the 'lower is one codepoint' safety mask."""
    if not _BMP:
        n = 0x10000
        chars = "".join(map(chr, range(n)))
        word = np.zeros(n, np.bool_)
        for m in re.finditer(r"\w", chars):
            word[m.start()] = True
        lower = np.arange(n, dtype=np.uint32)
        safe = np.ones(n, np.bool_)
        for c in np.nonzero(word)[0]:
            lo = chr(c).lower()
            if len(lo) == 1 and ord(lo) < n:
                lower[c] = ord(lo)
            else:
                safe[c] = False
        _BMP.update(word=word, lower=lower, safe=safe)
    return _BMP


def _as_utf8(col):
    """Normalize a text column to a null-free plain-utf8 array:
    dictionary-encoded (e.g. pandas categorical) and string_view columns
    decode C-side first; any non-text type raises a clear TypeError
    instead of an opaque buffer-layout error; nulls fill to ''.
    Idempotent — already-normalized columns pass through cheaply."""
    import pyarrow.compute as pc

    t = col.type
    if not (pa.types.is_string(t) or pa.types.is_large_string(t)):
        decodable = (
            (pa.types.is_dictionary(t)
             and (pa.types.is_string(t.value_type)
                  or pa.types.is_large_string(t.value_type)))
            or (hasattr(pa.types, "is_string_view")
                and pa.types.is_string_view(t)))
        if not decodable:
            raise TypeError(f"expected a utf8 text column, got {t}")
        col = pc.cast(col, pa.string())
    return pc.fill_null(col, "")


def _utf8_bytes_view(col, limit: int | None = None):
    """(flat uint8, starts, ends) — zero-copy byte view of a
    utf8/large_utf8 column after null->'' fill and an optional codepoint
    prefix slice (`utf8_slice_codeunits` slices codepoints, i.e. Python
    `text[:limit]`).  starts/ends are per-doc byte ranges into flat."""
    import pyarrow.compute as pc

    col = _as_utf8(col)  # idempotent: pre-normalized callers pass through
    if limit is not None:
        col = pc.utf8_slice_codeunits(col, 0, limit)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0:
        z = np.zeros(0, np.int64)
        return np.zeros(0, np.uint8), z, z
    odt = np.int64 if pa.types.is_large_string(col.type) else np.int32
    bufs = col.buffers()
    off = np.frombuffer(bufs[1], odt)[col.offset:col.offset + len(col) + 1]
    off = off.astype(np.int64)
    data = (np.frombuffer(bufs[2], np.uint8) if bufs[2] is not None
            else np.zeros(0, np.uint8))
    flat = data[off[0]:off[-1]]
    starts = off[:-1] - off[0]
    ends = off[1:] - off[0]
    return flat, starts, ends


# language-ID: tiny per-language stopword lists (public common words)
_STOPWORDS = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "for", "with", "was"},
    "de": {"der", "die", "und", "das", "ist", "von", "mit", "den", "nicht", "ein"},
    "fr": {"le", "la", "les", "des", "est", "dans", "pour", "que", "une", "sur"},
    "es": {"el", "la", "los", "de", "que", "en", "por", "con", "para", "una"},
    "it": {"il", "di", "che", "per", "con", "del", "una", "sono", "non", "più"},
    "nl": {"de", "het", "een", "van", "en", "dat", "voor", "met", "niet", "zijn"},
    "pt": {"de", "que", "em", "para", "com", "uma", "por", "mais", "dos", "não"},
}


def _token_stats_py(texts: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The original per-doc formulas (Python unicode semantics) —
    (n_tokens, n_chars, n_punct) for a list of possibly-None texts: the
    reference the C kernel must agree with bit-for-bit."""
    n = len(texts)
    n_tokens = np.zeros(n, np.int64)
    n_chars = np.zeros(n, np.int64)
    n_punct = np.zeros(n, np.int64)
    for i, t in enumerate(texts):
        t = t or ""
        ps = _WS_RE.split(t.strip())
        n_tokens[i] = 0 if len(ps) == 1 and ps[0] == "" else len(ps)
        n_chars[i] = len(t)
        n_punct[i] = len(_PUNCT_RE.findall(t))
    return n_tokens, n_chars, n_punct


def token_stats_batch(batch: pa.Table) -> pa.Table:
    """doc_id, n_tokens, n_chars_obs, punct_ratio.

    Token rule (shared with the SQL oracle): number of non-empty pieces when
    splitting on runs of whitespace.  C kernel, else the scalar reference:
    one fused scan over the Arrow buffer counts whitespace-run starts
    (continuation bytes are never whitespace, so byte runs == codepoint
    runs), non-continuation bytes (== codepoints) and punct bytes (all six
    are ASCII), and flags each doc containing a MULTIBYTE whitespace char;
    flagged docs, or every doc when the kernel is unavailable, go through
    the scalar formulas (`_token_stats_py`, parity-tested).
    """
    from nem_mms_ray.ops import _langid_native

    col = _as_utf8(batch.column("text"))  # once; the view's internal
    # normalize is a no-op pass-through on the result
    native = _langid_native.token_stats_scan(
        *_utf8_bytes_view(col), _ASCII_WS, _MB_WS_CPS)
    if native is None:
        n_tokens, n_chars, n_punct = _token_stats_py(col.to_pylist())
    else:
        n_tokens, n_chars, n_punct, mb_mask = native
        mb_ws = np.nonzero(mb_mask)[0]
        if len(mb_ws):
            t2, c2, p2 = _token_stats_py(col.take(pa.array(mb_ws)).to_pylist())
            n_tokens[mb_ws] = t2
            n_chars[mb_ws] = c2
            n_punct[mb_ws] = p2
    punct_ratio = np.round(n_punct / np.maximum(n_chars, 1), 6)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tokens.astype(np.int64)),
            "n_chars_obs": pa.array(n_chars.astype(np.int64)),
            "punct_ratio": pa.array(punct_ratio.astype(np.float64)),
        }
    )


def quality_score_batch(batch: pa.Table) -> pa.Table:
    """doc_id, quality — a deterministic, SQL-mirrorable quality formula:
    quality = min(1, n_tokens/100) * (1 - min(punct_ratio*5, 0.5))."""
    ts = token_stats_batch(batch)
    n_tokens = np.asarray(ts.column("n_tokens"), dtype=np.float64)
    punct = np.asarray(ts.column("punct_ratio"), dtype=np.float64)
    quality = np.minimum(1.0, n_tokens / 100.0) * (1.0 - np.minimum(punct * 5.0, 0.5))
    return pa.table(
        {
            "doc_id": ts.column("doc_id"),
            "quality": pa.array(np.round(quality, 6)),
        }
    )


def md5_hex_column(col) -> list[str]:
    """md5 hex digest of each string's utf8 bytes (null -> md5('')).

    Hashes straight out of the Arrow buffer (the buffer IS the utf8
    encoding, so md5(slice) == md5(text.encode()) byte-for-byte) instead
    of round-tripping each value through a Python str — 1.5x measured on
    web text; md5 itself is the repo's stable-hash contract (SQL mirror:
    md5(text)) so the per-value digest call stays."""
    flat, dstarts, dends = _utf8_bytes_view(col)
    mv = memoryview(flat)
    return [hashlib.md5(mv[s:e]).hexdigest()
            for s, e in zip(dstarts.tolist(), dends.tolist())]


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """doc_id, fp = md5(text) hex — exact-dup key, SQL oracle: md5(text)."""
    return pa.table({"doc_id": batch.column("doc_id"),
                     "fp": pa.array(md5_hex_column(batch.column("text")))})


class LangId:
    """Actor-pool language classifier: stopword-hit scoring.

    Stateful stage pattern (ray_guide): word regex compiled and stopword
    tables built once per actor in __init__, applied per batch.
    """

    #: docs look at their first PREFIX codepoints only (the scalar formula's
    #: `text[:2000]`); stopwords are at most 8 codepoints (checked in
    #: __init__), so an 8-byte packed key identifies them exactly (see
    #: `_pack_word`).
    PREFIX = 2000

    @staticmethod
    def _pack_word(w: str) -> int:
        """First 8 codepoints, each clamped to min(cp, 0xFF), zero-padded,
        as a little-endian uint64.  Exact against any token: a token longer
        than the longest stopword is never looked up (both scan paths skip
        tokens past `max_word_len` <= 8 codepoints), and the 0xFF clamp
        value never occurs in a stopword (no stopword contains U+00FF or
        higher)."""
        bs = bytes(min(ord(ch), 0xFF) for ch in w[:8]).ljust(8, b"\0")
        return int.from_bytes(bs, "little")

    def __init__(self):
        self.word = re.compile(r"[\w']+", re.UNICODE)
        self.langs = sorted(_STOPWORDS)
        self.tables = [frozenset(_STOPWORDS[lang]) for lang in self.langs]
        self.max_word_len = max(len(w) for ws in _STOPWORDS.values()
                                for w in ws)
        if self.max_word_len > 8:  # keys hold 8 codepoints; longer collide
            raise ValueError(
                f"stopwords must be at most 8 codepoints, got {self.max_word_len}")
        # ONE combined distinct-key table + per-key language BITMASK for
        # the fused C kernel (langid_kernel.c): a single lookup per
        # candidate token instead of one per language
        bits: dict[int, int] = {}
        for j, lang in enumerate(self.langs):
            for w in _STOPWORDS[lang]:
                key = self._pack_word(w)
                bits[key] = bits.get(key, 0) | (1 << j)
        self.all_keys = np.array(sorted(bits), np.uint64)
        self.lang_bits = np.array([bits[k] for k in sorted(bits)], np.uint64)
        self.bmp = _bmp_tables()

    def _py_batch(self, texts: list) -> tuple[np.ndarray, np.ndarray]:
        """The scalar formula the DuckDB oracle mirrors — (preds, scores)
        for a list of possibly-None texts.  The fallback for docs the C
        kernel flags or cannot run, and its parity reference: winner =
        first lang in sorted order with the (strictly) highest stopword-hit
        count; score = round(hits / n_tokens, 6); empty or hitless docs ->
        ('und', 0.0)."""
        n_docs = len(texts)
        preds = np.full(n_docs, "und", dtype=object)
        scores = np.zeros(n_docs, np.float64)
        for i, t in enumerate(texts):
            toks = [w.lower()
                    for w in self.word.findall((t or "")[:self.PREFIX])]
            if not toks:
                continue
            hits = [sum(tok in tab for tok in toks) for tab in self.tables]
            best_li = int(np.argmax(hits))
            if hits[best_li] > 0:
                preds[i] = self.langs[best_li]
                scores[i] = np.round(hits[best_li] / len(toks), 6)
        return preds, scores

    def __call__(self, batch: pa.Table) -> pa.Table:
        """C kernel, else the scalar reference.  The kernel
        (`langid_kernel.c`) decodes each 2000-codepoint prefix, tokenizes
        it on the BMP \\w mask (plus apostrophe), packs candidate tokens
        (length <= the longest stopword) into lowercased uint64 keys and
        counts per-language hits against the combined stopword-key table
        in one fused scan.  Docs it flags (an astral codepoint or an
        expanding-lowercase word char), or every doc when the kernel is
        unavailable, go through `_py_batch`, the exact scalar formula
        (test_langid_native_parity)."""
        from nem_mms_ray.ops import _langid_native

        col = _as_utf8(batch.column("text"))
        native = _langid_native.langid_batch(
            *_utf8_bytes_view(col, self.PREFIX), self.bmp["word"],
            self.bmp["safe"], self.bmp["lower"], self.all_keys,
            self.lang_bits, self.max_word_len, len(self.langs))
        if native is None:
            preds, scores = self._py_batch(col.to_pylist())
        else:
            counts, hits, doc_unsafe = native
            best_li = hits.argmax(axis=1)  # first max = sorted-lang tiebreak
            best = hits[np.arange(len(counts)), best_li]
            langs = np.asarray(self.langs, dtype=object)
            preds = np.where(best > 0, langs[best_li], "und")
            safe_n = np.maximum(counts, 1)
            scores = np.round(np.where(best > 0, best / safe_n, 0.0), 6)
            if doc_unsafe.any():
                fb = np.nonzero(doc_unsafe)[0]
                p2, s2 = self._py_batch(col.take(pa.array(fb)).to_pylist())
                preds[fb] = p2
                scores[fb] = s2
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang_pred": pa.array(preds.tolist(), type=pa.string()),
                "lang_score": pa.array(scores, type=pa.float64()),
            }
        )


def rolling_fingerprint_batch(batch: pa.Table, window: int = 64) -> pa.Table:
    """doc_id, rfp — Rabin-style rolling-hash document fingerprint: min of
    rolling polynomial hashes over byte windows (winnowing-lite). Not SQL-
    expressible; covered by rows-only check + unit tests."""
    out = []
    B = np.uint64(1000003)
    for t in batch.column("text").to_pylist():
        data = np.frombuffer((t or "").encode(), np.uint8).astype(np.uint64)
        if len(data) < window:
            h = int(data.sum() * 1000003 % (2**63))
        else:
            # vectorized rolling hash: prefix powers trick
            pows = np.power(B, np.arange(window, dtype=np.uint64), dtype=np.uint64)
            win = np.lib.stride_tricks.sliding_window_view(data, window)
            hashes = (win * pows[None, :]).sum(axis=1, dtype=np.uint64)
            h = int(hashes.min() % np.uint64(2**63))
        out.append(h)
    return pa.table({"doc_id": batch.column("doc_id"), "rfp": pa.array(out, type=pa.int64())})


def repetition_batch(batch: pa.Table, ngram: int = 3) -> pa.Table:
    """doc_id, repetition = 1 - distinct_grams/total_grams over word
    n-grams WITH multiplicity — the intra-document template/boilerplate
    signal a pre-training filter thresholds on.  0.0 for gram-less docs.
    SQL-mirrorable: count(*) vs count(DISTINCT gram) per doc."""
    from nem_mms_ray.ops.dedup import _batch_word_ngrams

    texts = batch.column("text").to_pylist()
    ks = np.array([len((t or "").split()) for t in texts], np.int64)
    total = np.where(ks == 0, 0, np.where(ks < ngram, 1, ks - ngram + 1))
    distinct = np.array([len(s) for s in _batch_word_ngrams(texts, ngram)],
                        np.int64)
    rep = np.zeros(len(texts), np.float64)
    nz = total > 0
    rep[nz] = np.round(1.0 - distinct[nz] / total[nz], 6)
    return pa.table({"doc_id": batch.column("doc_id"),
                     "repetition": pa.array(rep, pa.float64())})
