"""Parity suite for the textstats C kernels.

`token_stats_batch` and `LangId.__call__` run one fused C scan over the
Arrow utf8 buffer (or the scalar reference without a compiler); these
tests pin them bit-for-bit against independent scalar implementations of
the published formulas (Python `re` \\w / \\s semantics, `str.lower`,
`text[:2000]` prefix) over adversarial and fuzzed inputs: multibyte
scripts, multibyte whitespace, astral codepoints, expanding-lowercase
chars, nulls, chunked/sliced and large_string arrays.
"""

from __future__ import annotations

import random
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from nem_mms_ray.ops.textstats import _STOPWORDS, LangId, token_stats_batch

_WORD_RE = re.compile(r"[\w']+", re.UNICODE)
_WS_SPLIT = re.compile(r"\s+")
_PUNCT_RE = re.compile(r"[.,!?;:]")


def _ref_token_stats(texts):
    rows = []
    for t in texts:
        t = t or ""
        ps = _WS_SPLIT.split(t.strip())
        n_tokens = 0 if len(ps) == 1 and ps[0] == "" else len(ps)
        n_chars = len(t)
        n_punct = len(_PUNCT_RE.findall(t))
        rows.append((n_tokens, n_chars, round(n_punct / max(n_chars, 1), 6)))
    return rows


def _ref_langid(texts):
    langs = sorted(_STOPWORDS)
    rows = []
    for t in texts:
        toks = [w.lower() for w in _WORD_RE.findall((t or "")[:2000])]
        hits = [sum(tok in _STOPWORDS[lg] for tok in toks) for lg in langs]
        best = int(np.argmax(hits)) if toks else 0
        if toks and hits[best] > 0:
            rows.append((langs[best], float(np.round(hits[best] / len(toks), 6))))
        else:
            rows.append(("und", 0.0))
    return rows


_ADVERSARIAL = [
    None,
    "",
    " ",
    "\t\n\x1c\x1d\x1e\x1f",               # ASCII-range Python whitespace
    "the and of to in is that for with was",
    "der Hund ist nicht mit",    # nbsp between tokens
    "une\u3000dans\u3000pour",  # ideographic space
    " le la les des",  # exotic separators
    "это не просто текст the la de",       # Cyrillic + Latin stopwords
    "日本語のテキスト です the",
    "don't can't 'tis o''clock",
    "İstanbul İ İ the the the",            # expanding lowercase (U+0130)
    "𝔘𝔫𝔦𝔠𝔬𝔡𝔢 the and of",                  # astral word chars
    "😀 the 😀 and 😀",                      # astral non-word chars
    "a" * 5000,                            # prefix cut inside a token
    ("w " * 999) + "é" + (" the" * 200),   # multibyte near the 2000 cut
    "ZIJN VOOR HET EEN VAN",               # uppercase stopwords
    "the.and,of!to?in;is:",                # punct adjacent to stopwords
    "ÿ ÿthe theÿ",                         # U+00FF (the key clamp value)
    "Āā pìù più não",  # più / não
    "x" + " " * 3000,                 # multibyte ws crossing the cut
]


def _fuzz_docs(n=300, seed=11):
    rng = random.Random(seed)
    vocab = ["the", "la", "de", "não", "più", "het", "причём", "текст",
             "日本", "don't", "_x9", "...", "!?", "a" * 30, "é", "𝕏", "😀",
             "İ", "ǅ", "ÿ", " ", "　", " ", "\t", "\x1e", ""]
    docs = []
    for _ in range(n):
        k = rng.randint(0, 40)
        docs.append("".join(rng.choice(vocab) + rng.choice([" ", "", "\n"])
                            for _ in range(k)))
    return docs


def _variants(docs):
    """The same logical column in every physical layout the fast path
    special-cases: plain, large_string, and a sliced (offset != 0) array."""
    n = len(docs)
    yield pa.table({"doc_id": pa.array(range(n), pa.int64()),
                    "text": pa.array(docs, pa.string())})
    yield pa.table({"doc_id": pa.array(range(n), pa.int64()),
                    "text": pa.array(docs, pa.large_string())})
    base = pa.table({"doc_id": pa.array(range(n + 4), pa.int64()),
                     "text": pa.array(list(docs) + [None, "x", "", "y"],
                                      pa.string())})
    yield base.slice(2, n)


@pytest.mark.parametrize("docs", [_ADVERSARIAL, _fuzz_docs()],
                         ids=["adversarial", "fuzz"])
def test_token_stats_parity(docs):
    for batch in _variants(docs):
        got = token_stats_batch(batch)
        ref = _ref_token_stats(batch.column("text").to_pylist())
        assert got.column("n_tokens").to_pylist() == [r[0] for r in ref]
        assert got.column("n_chars_obs").to_pylist() == [r[1] for r in ref]
        assert got.column("punct_ratio").to_pylist() == pytest.approx(
            [r[2] for r in ref], abs=0)


@pytest.mark.parametrize("docs", [_ADVERSARIAL, _fuzz_docs(seed=12)],
                         ids=["adversarial", "fuzz"])
def test_langid_parity(docs):
    li = LangId()
    for batch in _variants(docs):
        got = li(batch)
        ref = _ref_langid(batch.column("text").to_pylist())
        assert got.column("lang_pred").to_pylist() == [r[0] for r in ref]
        assert got.column("lang_score").to_pylist() == pytest.approx(
            [r[1] for r in ref], abs=0)


def test_langid_empty_batch():
    li = LangId()
    batch = pa.table({"doc_id": pa.array([], pa.int64()),
                      "text": pa.array([], pa.string())})
    out = li(batch)
    assert out.num_rows == 0
    ts = token_stats_batch(batch)
    assert ts.num_rows == 0


def test_langid_chunked_column():
    docs1 = ["the and of", "der ist nicht"]
    docs2 = ["это текст the", None]
    col = pa.chunked_array([pa.array(docs1), pa.array(docs2)])
    batch = pa.table({"doc_id": pa.array(range(4), pa.int64()), "text": col})
    got = LangId()(batch)
    ref = _ref_langid(docs1 + docs2)
    assert got.column("lang_pred").to_pylist() == [r[0] for r in ref]
    ts = token_stats_batch(batch)
    ref_ts = _ref_token_stats(docs1 + docs2)
    assert ts.column("n_tokens").to_pylist() == [r[0] for r in ref_ts]


def test_md5_hex_column_parity():
    import hashlib

    from nem_mms_ray.ops.textstats import md5_hex_column

    docs = ["hello", None, "", "日本語 text", "a" * 5000, "é" * 100]
    ref = [hashlib.md5((t or "").encode()).hexdigest() for t in docs]
    assert md5_hex_column(pa.array(docs)) == ref
    assert md5_hex_column(pa.array(docs, pa.large_string())) == ref
    chunked = pa.chunked_array([pa.array(docs[:3]), pa.array(docs[3:])])
    assert md5_hex_column(chunked) == ref
    sliced = pa.array(["x"] + docs + ["y"]).slice(1, len(docs))
    assert md5_hex_column(sliced) == ref


def test_url_ids_column_parity_and_null_contract():
    import hashlib

    from nem_mms_ray.pipelines.web import _url_ids

    urls = ["http://a.com/x", "", "http://b.io/日本", "z" * 500]
    ref = np.array([int.from_bytes(hashlib.md5(u.encode()).digest()[:8],
                                   "little") for u in urls],
                   np.uint64).view(np.int64)
    assert (_url_ids(pa.array(urls)) == ref).all()
    assert (_url_ids(pa.chunked_array([pa.array(urls[:2]),
                                       pa.array(urls[2:])])) == ref).all()
    assert (_url_ids(urls) == ref).all()  # legacy list path
    for bad in (pa.array(["a", None]), ["a", None]):
        with pytest.raises(ValueError, match="null url"):
            _url_ids(bad)


def test_text_column_layouts_dictionary_and_errors():
    """Dictionary-encoded (pandas categorical) text decodes C-side; a
    non-text column raises a clear TypeError, not a buffer-layout error."""
    from nem_mms_ray.ops.textstats import md5_hex_column

    docs = ["the and of", None, "это текст the", ""]
    dict_col = pa.array(docs).dictionary_encode()
    batch = pa.table({"doc_id": pa.array(range(4), pa.int64()),
                      "text": dict_col})
    plain = pa.table({"doc_id": pa.array(range(4), pa.int64()),
                      "text": pa.array(docs)})
    assert token_stats_batch(batch).equals(token_stats_batch(plain))
    assert LangId()(batch).equals(LangId()(plain))
    assert md5_hex_column(dict_col) == md5_hex_column(pa.array(docs))
    with pytest.raises(TypeError, match="utf8 text column"):
        token_stats_batch(pa.table({"doc_id": pa.array([1], pa.int64()),
                                    "text": pa.array([7], pa.int64())}))


def test_langid_native_parity(monkeypatch):
    """Fused C langid scan == the scalar reference, row-for-row, on fuzzed
    unicode including astral codepoints, expanding-lowercase chars
    (İ, ß), apostrophe runs, overlong tokens, and null/empty docs."""
    import pyarrow as pa

    from nem_mms_ray.ops import _langid_native
    from nem_mms_ray.ops.curate import LangId

    if _langid_native.get_lib() is None:
        import pytest
        pytest.skip("no C compiler in this environment")

    rng = np.random.default_rng(7)
    alphabet = list("the and der die le la el en of in abcdef ' é ü 中 "
                    "\U0001F600 ß İ .,!")
    texts = ["".join(rng.choice(alphabet, rng.integers(0, 250)))
             for _ in range(400)]
    texts += [None, "", "the the the", "' '' '", "x" * 3000,
              "İstanbul the", "\U0001F600 the and", "het een en de"]
    b = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    li = LangId()
    with_c = li(b)
    with monkeypatch.context() as mp:
        mp.setattr(_langid_native, "langid_batch", lambda *a, **k: None)
        no_c = li(b)
    assert with_c.equals(no_c)


def test_token_stats_native_parity(monkeypatch):
    """Fused C token-stats scan == the scalar reference, row-for-row, on
    fuzzed unicode including multibyte whitespace (U+3000, NBSP-family),
    punct runs, and null/empty docs."""
    import pyarrow as pa

    from nem_mms_ray.ops import _langid_native
    from nem_mms_ray.ops.textstats import token_stats_batch

    if _langid_native.get_lib() is None:
        import pytest
        pytest.skip("no C compiler in this environment")

    rng = np.random.default_rng(3)
    alphabet = list("ab cd. e,f! 中 é  　   \t\n ? ; : \U0001F600")
    texts = ["".join(rng.choice(alphabet, rng.integers(0, 150)))
             for _ in range(400)]
    texts += [None, "", " ", "...", "  ", "a b", "x" * 500, "　a　"]
    b = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    with_c = token_stats_batch(b)
    with monkeypatch.context() as mp:
        mp.setattr(_langid_native, "token_stats_scan",
                   lambda *a, **k: None)
        no_c = token_stats_batch(b)
    assert with_c.equals(no_c)


def test_langid_rejects_overlong_stopword(monkeypatch):
    """Stopword keys pack 8 codepoints; a 9-codepoint stopword would share
    its key with its 8-codepoint prefix, so LangId refuses it instead of
    miscounting, and the fused kernel declines such a table."""
    from nem_mms_ray.ops import _langid_native, textstats

    long_word, prefix = "abcdefghi", "abcdefgh"
    assert LangId._pack_word(long_word) == LangId._pack_word(prefix)
    stopwords = {**_STOPWORDS, "en": _STOPWORDS["en"] | {long_word}}
    monkeypatch.setattr(textstats, "_STOPWORDS", stopwords)
    with pytest.raises(ValueError, match="at most 8 codepoints"):
        LangId()
    empty = np.zeros(0, np.int64)
    assert _langid_native.langid_batch(
        np.zeros(0, np.uint8), empty, empty, np.zeros(1, np.uint8),
        np.zeros(1, np.uint8), np.zeros(1, np.uint32), np.zeros(1, np.uint64),
        np.zeros(1, np.uint64), 9, 1) is None
