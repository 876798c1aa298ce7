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
# Vectorized fast path (r5): LUT scans over the Arrow utf8 buffer
#
# The scalar formulas below tokenize with Python regexes per doc — ~0.4 ms
# per web-scale doc, which made LangId the single hottest function of the
# flagship's gate stage (18.3 s/50k docs single-core, 56% of the label
# pass).  Instead, each formula runs as a few numpy passes over the
# column's raw utf8 buffer (zero-copy):
#   - token_stats works at the BYTE level — a maximal run of
#     non-whitespace bytes equals a run of non-whitespace codepoints
#     because UTF-8 continuation bytes are never whitespace; the only
#     exception is a multibyte whitespace CHARACTER (U+00A0, U+2000..,
#     U+3000, ...), whose exact utf8 sequences are vector-searched and the
#     few docs containing one recomputed scalar-side.
#   - LangId decodes the prefix to a uint32 codepoint array (a handful of
#     numpy shift/or passes — UTF-8 is self-synchronizing) and classifies
#     each codepoint against BMP lookup tables derived at import from
#     Python's own `re` \w and str.lower(), so the semantics ARE Python's.
#     Docs with an astral (>BMP) codepoint or a codepoint whose lowercase
#     expands (e.g. U+0130) fall back to the scalar formula.
# Fast/scalar agreement is pinned by parity + fuzz tests.
# ---------------------------------------------------------------------------

_ASCII_WS = np.zeros(256, np.bool_)  # Python \s / str.strip() on ASCII
for _c in (9, 10, 11, 12, 13, 28, 29, 30, 31, 32):
    _ASCII_WS[_c] = True

_ASCII_PUNCTCH = np.zeros(256, np.bool_)
for _c in b".,!?;:":
    _ASCII_PUNCTCH[_c] = True

# utf8 byte sequences of every multibyte char Python's \s matches — the
# only case where byte-level whitespace runs diverge from codepoint runs
_MB_WS_SEQS = [chr(c).encode() for c in range(0x80, 0x10000)
               if re.match(r"\s", chr(c))]
# the same set as codepoints (ascending by construction) — input form of
# the fused C scan (langid_kernel.c:token_stats_batch_scan)
_MB_WS_CPS = np.array([ord(s.decode()) for s in _MB_WS_SEQS], np.uint32)

_BMP: dict = {}


def _bmp_tables() -> dict:
    """BMP classification tables, built once per process from Python's own
    regex engine / str.lower so fast-path semantics are Python's by
    construction: word (\\w) and whitespace (\\s) masks, a single-codepoint
    lowercase map, and the 'lower is one codepoint' safety mask."""
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


def _utf8_codepoints(flat: np.ndarray, dstarts: np.ndarray,
                     dends: np.ndarray):
    """Vectorized UTF-8 decode: (cp uint32, cp_starts, cp_ends) where
    cp_starts/cp_ends are per-doc ranges into cp.  Assumes valid UTF-8
    (Arrow guarantees it for utf8 columns); doc boundaries always align
    with codepoint boundaries."""
    cont = (flat & 0xC0) == 0x80
    if not cont.any():  # pure ASCII (or no multibyte at all): cp == byte
        return (flat.astype(np.uint32), dstarts.astype(np.int64),
                dends.astype(np.int64))
    # Decode IN PLACE on a widened copy, then compress out continuation
    # bytes with one boolean mask — avoids the previous version's
    # len(flat)-sized int64 lead-index vector + fancy-gathers.  Only
    # multibyte LEAD positions (>= 0xC0) need indexed work (at most
    # len/4 of the 15%-non-ASCII web corpus).  Order-fair interleaved
    # A/B on 68 MB of webtable prefixes: 1.5x at 1024-row batches, 2.0x
    # at 4096, 4.6x on one giant batch (old code's warm best 3.44s ->
    # 0.74s), outputs identical.
    cp0 = flat.astype(np.uint32)
    mb = np.nonzero(flat >= 0xC0)[0]
    b0 = cp0[mb]
    m2 = b0 < 0xE0
    m3 = (b0 >= 0xE0) & (b0 < 0xF0)
    m4 = b0 >= 0xF0
    if m2.any():
        i = mb[m2]
        cp0[i] = ((b0[m2] & 0x1F) << np.uint32(6)) | (cp0[i + 1] & 0x3F)
    if m3.any():
        i = mb[m3]
        cp0[i] = (((b0[m3] & 0x0F) << np.uint32(12))
                  | ((cp0[i + 1] & 0x3F) << np.uint32(6))
                  | (cp0[i + 2] & 0x3F))
    if m4.any():
        i = mb[m4]
        cp0[i] = (((b0[m4] & 0x07) << np.uint32(18))
                  | ((cp0[i + 1] & 0x3F) << np.uint32(12))
                  | ((cp0[i + 2] & 0x3F) << np.uint32(6))
                  | (cp0[i + 3] & 0x3F))
    cp = cp0[~cont]
    # Doc ranges into the compressed array: each byte position maps to
    # (position - #continuation bytes strictly before it).  Doc bounds
    # always sit on codepoint boundaries, so the map is exact there.
    # searchsorted over the continuation POSITIONS (ncont elements) beats
    # a len(flat)-sized cumsum on both memory and time.
    cpos = np.nonzero(cont)[0]
    cp_starts = dstarts - np.searchsorted(cpos, dstarts, side="left")
    cp_ends = dends - np.searchsorted(cpos, dends, side="left")
    return cp, cp_starts, cp_ends


def _run_starts(mask: np.ndarray, doc_starts: np.ndarray) -> np.ndarray:
    """Positions where a True-run begins, with runs broken at doc starts."""
    prev = np.zeros_like(mask)
    if len(mask):
        prev[1:] = mask[:-1]
        prev[doc_starts[doc_starts < len(mask)]] = False
    return np.nonzero(mask & ~prev)[0]


def _doc_of(pos: np.ndarray, doc_ends: np.ndarray) -> np.ndarray:
    """Doc index of each position (starts[i] <= pos < ends[i])."""
    return np.searchsorted(doc_ends, pos, side="right")


def _docs_with_multibyte_ws(flat: np.ndarray, dends: np.ndarray
                            ) -> np.ndarray:
    """Doc indices containing any multibyte whitespace character — exact:
    each candidate's full utf8 sequence is matched (a lead byte position is
    always a codepoint start, so there are no false positives)."""
    by_lead: dict[int, list[bytes]] = {}
    for seq in _MB_WS_SEQS:
        by_lead.setdefault(seq[0], []).append(seq)
    found: list[np.ndarray] = []
    for lead, seqs in by_lead.items():  # one buffer pass per distinct lead
        pos0 = np.nonzero(flat == lead)[0]
        if not len(pos0):
            continue
        for seq in seqs:
            pos = pos0
            for k in range(1, len(seq)):
                pos = pos[flat[np.minimum(pos + k, len(flat) - 1)] == seq[k]]
                if not len(pos):
                    break
            if len(pos):
                found.append(pos)
    if not found:
        return np.zeros(0, np.int64)
    return np.unique(_doc_of(np.concatenate(found), dends))

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
    (n_tokens, n_chars, n_punct) for a list of possibly-None texts.  The
    ASCII fast path must agree with THIS bit-for-bit on ASCII input."""
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
    splitting on runs of whitespace.  Fast path: byte-LUT numpy passes over
    the Arrow buffer — whitespace-run starts (continuation bytes are never
    whitespace, so byte runs == codepoint runs), non-continuation-byte
    count (== codepoint count), punct-byte count (all six are ASCII).  The
    single divergent case — a doc containing a MULTIBYTE whitespace char —
    is detected exactly and recomputed by the scalar formulas
    (`_token_stats_py`, identical semantics, parity-tested).
    """
    import pyarrow.compute as pc

    col = _as_utf8(batch.column("text"))  # once; the view's internal
    # normalize is a no-op pass-through on the result
    flat, dstarts, dends = _utf8_bytes_view(col)
    n_docs = len(dstarts)
    from nem_mms_ray.ops import _langid_native

    native = _langid_native.token_stats_scan(
        flat, dstarts, dends, _ASCII_WS[:128], _MB_WS_CPS)
    if native is not None:
        # fused C scan (one pass; test_token_stats_native_parity) — the
        # numpy passes below are the no-compiler fallback
        n_tokens, n_chars, n_punct, mb_mask = native
        mb_ws = np.nonzero(mb_mask)[0]
        if len(mb_ws):
            t2, c2, p2 = _token_stats_py(col.take(pa.array(mb_ws)).to_pylist())
            n_tokens[mb_ws] = t2
            n_chars[mb_ws] = c2
            n_punct[mb_ws] = p2
        punct_ratio = np.round(n_punct / np.maximum(n_chars, 1), 6)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tokens.astype(np.int64)),
            "n_chars_obs": pa.array(n_chars.astype(np.int64)),
            "punct_ratio": pa.array(punct_ratio.astype(np.float64)),
        })
    tok_starts = _run_starts(~_ASCII_WS[flat], dstarts)
    n_tokens = np.bincount(_doc_of(tok_starts, dends), minlength=n_docs)
    # codepoint count via Arrow's C kernel (np.cumsum / np.add.reduceat
    # over the 100 MB byte mask both measured 8-20x slower)
    nc = pc.utf8_length(col)
    if isinstance(nc, pa.ChunkedArray):
        nc = nc.combine_chunks()
    n_chars = np.asarray(nc).astype(np.int64)
    pp = np.nonzero(_ASCII_PUNCTCH[flat])[0]
    n_punct = np.bincount(_doc_of(pp, dends), minlength=n_docs)
    mb_ws = _docs_with_multibyte_ws(flat, dends)
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
        self.key_tables = [
            np.sort(np.array([self._pack_word(w) for w in _STOPWORDS[lang]],
                             np.uint64))
            for lang in self.langs
        ]
        # ONE combined distinct-key table + per-lang membership bitmask:
        # the fast path does a single searchsorted over candidate tokens
        # instead of one per language, and per-lang hits bincount only the
        # matched (stopword-occurrence) tokens.
        self.max_word_len = max(len(w) for ws in _STOPWORDS.values()
                                for w in ws)
        if self.max_word_len > 8:  # keys hold 8 codepoints; longer collide
            raise ValueError(
                f"stopwords must be at most 8 codepoints, got {self.max_word_len}")
        self.all_keys = np.unique(np.concatenate(self.key_tables))
        self.key_lang_mask = np.zeros(
            (len(self.all_keys), len(self.langs)), bool)
        for j, keys in enumerate(self.key_tables):
            self.key_lang_mask[np.searchsorted(self.all_keys, keys), j] = True
        # per-key language BITMASK for the fused C kernel (langid_kernel.c)
        self.lang_bits = np.zeros(len(self.all_keys), np.uint64)
        for j in range(len(self.langs)):
            self.lang_bits |= (self.key_lang_mask[:, j].astype(np.uint64)
                               << np.uint64(j))
        self.bmp = _bmp_tables()

    def _py_batch(self, texts: list) -> tuple[np.ndarray, np.ndarray]:
        """The scalar formula the DuckDB oracle mirrors — (preds, scores)
        for a list of possibly-None texts.  Fallback for non-ASCII docs and
        the parity reference for the fast path: winner = first lang in
        sorted order with the (strictly) highest stopword-hit count; score
        = round(hits / n_tokens, 6); empty or hitless docs -> ('und', 0.0)."""
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
        """Vectorized fast path (r5; was the gate stage's hottest function
        at 0.37 ms/doc): the 2000-codepoint prefix decodes to a uint32
        codepoint array (numpy shift/or passes), token runs come from the
        BMP \\w mask (plus apostrophe), match-candidate tokens (length <=
        the longest stopword) pack their lowercased clamped codepoints
        into a uint64 key, and hits come from ONE searchsorted against
        the combined distinct stopword-key table + per-language bincounts
        over the matched tokens — no per-doc Python.  Docs with an
        astral codepoint or an
        expanding-lowercase word char recompute via `_py_batch` (the exact
        scalar formula).

        When a compiler is present, the decode/tokenize/pack/lookup
        passes run FUSED in one C scan (`langid_kernel.c`) — same
        classification tables, identical outputs
        (test_langid_native_parity); the numpy passes below are the
        fallback."""
        col = batch.column("text")
        flat, bstarts, bends = _utf8_bytes_view(col, self.PREFIX)
        from nem_mms_ray.ops import _langid_native

        native = _langid_native.langid_batch(
            flat, bstarts, bends, self.bmp["word"], self.bmp["safe"],
            self.bmp["lower"], self.all_keys, self.lang_bits,
            self.max_word_len, len(self.langs))
        if native is not None:
            counts, hits, doc_unsafe = native
            best_li = hits.argmax(axis=1)
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
            return pa.table({
                "doc_id": batch.column("doc_id"),
                "lang_pred": pa.array(preds.tolist(), type=pa.string()),
                "lang_score": pa.array(scores, type=pa.float64()),
            })
        cp, dstarts, dends = _utf8_codepoints(flat, bstarts, bends)
        n_docs = len(dstarts)
        bmp = self.bmp
        cp_c = np.minimum(cp, 0xFFFF)
        astral = cp > 0xFFFF
        wordm = bmp["word"][cp_c] & ~astral
        m = wordm | (cp == 0x27)  # [\w']+
        tok_starts = _run_starts(m, dstarts)
        nxt = np.zeros_like(m)
        if len(m):
            nxt[:-1] = m[1:]
            last = dends[dends > dstarts] - 1
            nxt[last] = False
        tok_ends = np.nonzero(m & ~nxt)[0] + 1
        doc_idx = _doc_of(tok_starts, dends)
        counts = np.bincount(doc_idx, minlength=n_docs)
        lens = tok_ends - tok_starts
        # Keys only for tokens that CAN match: a token longer than the
        # longest stopword (max_word_len <= 8 cps) never equals one, so
        # skipping it is exact, and it shrinks both the pack loop
        # (max_word_len rounds, not 8) and the searchsorted input
        # (1.4-1.5x whole-stage, order-fair interleaved A/B, outputs
        # identical).  Lowercasing
        # gathers per packed position (~sum(min(len,5)) values) instead
        # of materializing a lowercase array over every codepoint — the
        # full-width cp_lc was the stage's top cost once decode was fixed.
        cand = lens <= self.max_word_len
        ctok = tok_starts[cand]
        clens = lens[cand]
        cdoc = doc_idx[cand]
        lower = bmp["lower"]
        key = np.zeros(len(ctok), np.uint64)
        for k in range(self.max_word_len):
            msk = clens > k
            lc = np.minimum(lower[cp_c[ctok[msk] + k]], 0xFF)
            key[msk] |= lc.astype(np.uint64) << np.uint64(8 * k)
        all_keys = self.all_keys
        pos = np.minimum(np.searchsorted(all_keys, key), len(all_keys) - 1)
        memb = all_keys[pos] == key
        kidx = pos[memb]
        mdoc = cdoc[memb]
        hits = np.zeros((n_docs, len(self.langs)), np.int64)
        for li in range(len(self.langs)):
            hits[:, li] = np.bincount(mdoc[self.key_lang_mask[kidx, li]],
                                      minlength=n_docs)
        best_li = hits.argmax(axis=1)  # first max = sorted-lang tiebreak
        best = hits[np.arange(n_docs), best_li]
        langs = np.asarray(self.langs, dtype=object)
        preds = np.where(best > 0, langs[best_li], "und")
        safe = np.maximum(counts, 1)
        scores = np.round(np.where(best > 0, best / safe, 0.0), 6)
        unsafe = astral | (wordm & ~bmp["safe"][cp_c])
        if unsafe.any():
            fb = np.unique(_doc_of(np.nonzero(unsafe)[0], dends))
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
