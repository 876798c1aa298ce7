"""Char n-gram LM training + per-doc cross-entropy scoring — the
perplexity quality filter (CCNet, Wenzek et al. LREC 2020: score every
crawled doc against a LM trained on trusted text; threshold or bucket on
perplexity).  CCNet uses a KenLM 5-gram word model; the deterministic,
dependency-free re-expression here is a conditional add-alpha codepoint
n-gram LM — same filtering signal, exactly mirrorable in SQL.

Model:  P(c | ctx) = (C(ctx.c) + alpha) / (C(ctx) + alpha * V)
where C counts n-gram / (n-1)-gram occurrences at n-gram START positions
(so sum_c C(ctx.c) = C(ctx) exactly) and V = distinct codepoints in the
training corpus.  Score = bits/char cross-entropy
H(doc) = mean_i -log2 P(c_i | ctx_i) over the doc's n-gram positions;
perplexity = 2^H.  Docs with no n-gram position (len < n) score null.

100-TB shape:
* TRAIN is ONE streaming corpus pass: per-batch vectorized k-gram hashing
  (`ops/winnow._flat_hashes` — n-gram and ctx hashes share the multiplier,
  so they are consistent by construction) -> within-batch np.unique
  combiner -> group shuffle keyed by hash (`readutil.keyed_map_groups` keeps
  the Ray group count flat; per-bucket pandas sum) -> driver-side model.
  Without a C compiler the hash pass holds N x k uint64 temporaries per
  batch (k <= 3 by default; see `_flat_hashes`).  The model is
  bounded by the n-gram TYPE space (charset^n), not the corpus, and the
  `max_types` gate makes the bound explicit instead of silent.
* SCORE is a pure zero-shuffle map_batches: the model broadcasts once via
  ray.put (plasma zero-copy for the numpy arrays), each batch does ONE
  flat searchsorted per kind over all docs' positions, and per-doc means
  come from np.add.reduceat — no per-row Python in the hot path.

Hash-vs-literal-string equality against the DuckDB mirror is the
no-collision witness (the decontam precedent, `tests/test_charlm.py`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa

from nem_mms_ray.ops.readutil import keyed_map_groups
from nem_mms_ray.ops.winnow import (
    _codepoints,
    _flat_corpus,
    _flat_hashes,
    _kgram_hashes,
    _valid_positions,
)

logger = logging.getLogger(__name__)


@dataclass
class CharLM:
    """Driver-resident model: sorted key arrays for searchsorted lookup."""
    n: int
    alpha: float
    v: int                 # distinct codepoints in the training corpus
    ng_keys: np.ndarray    # uint64 sorted — n-gram hashes
    ng_cnts: np.ndarray    # int64
    ctx_keys: np.ndarray   # uint64 sorted — (n-1)-gram hashes
    ctx_cnts: np.ndarray   # int64

    @property
    def n_types(self) -> int:
        return len(self.ng_keys)


def _doc_hashes(text, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(ngram hashes, ctx hashes) aligned by start position for one doc —
    the per-doc reference form (scalar mirror); the batch hot path is
    `_batch_hashes`, bit-identical (test_batch_hashes_parity)."""
    cps = _codepoints(text)
    ng = _kgram_hashes(cps, n)
    if len(ng) == 0:
        return ng, ng
    # ctx of position i is cps[i : i+n-1]; the (n-1)-gram window list has
    # one extra trailing entry (start len-n+1) that is NOT an n-gram start
    ctx = _kgram_hashes(cps, n - 1)[: len(ng)]
    return ng, ctx


def _batch_hashes(texts, n: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ngram hashes, ctx hashes, doc_idx, per-doc counts) for a whole
    batch: ONE flat encode + two rolling-hash passes; ctx hashes are read
    at the SAME flat positions as the n-grams (an (n-1)-gram inside a doc
    wherever its n-gram is), so alignment is by construction."""
    flat, lens = _flat_corpus(texts)
    pos, doc_idx, nh = _valid_positions(lens, n)
    ng = _flat_hashes(flat, n)[pos]
    ctx = _flat_hashes(flat, n - 1)[pos] if len(pos) else ng
    return ng, ctx, doc_idx, nh


def train_char_lm(ds, n: int = 3, text_col: str = "text",
                  alpha: float = 0.1, min_count: int = 1,
                  max_types: int = 50_000_000) -> CharLM:
    """Fit the LM in one distributed counting pass over `ds[text_col]`.

    `min_count` prunes n-gram types below the threshold from the model
    (the denominator C(ctx) stays exact, so pruned mass falls through to
    the smoothing term — probabilities stay <= 1).  `max_types` gates the
    driver collect: a charset^n type space that exceeds it raises instead
    of silently OOMing the driver."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0 (unseen n-grams need mass)")
    if n < 2:
        raise ValueError("n must be >= 2 (conditional model needs context)")

    def partials(t: pa.Table) -> pa.Table:
        texts = t.column(text_col).to_pylist()
        flat, lens = _flat_corpus(texts)
        pos, _, _ = _valid_positions(lens, n)
        ng = _flat_hashes(flat, n)[pos]
        ctx = _flat_hashes(flat, n - 1)[pos] if len(pos) else ng
        keys, cnts, kinds = [], [], []
        for kind, arr in ((0, ctx), (1, ng), (2, flat)):
            if not len(arr):
                continue
            k, c = np.unique(arr, return_counts=True)
            if kind == 2:
                c = np.ones(len(k), np.int64)  # distinct chars, not counts
            keys.append(k)
            cnts.append(c.astype(np.int64))
            kinds.append(np.full(len(k), kind, np.int8))
        if not keys:
            return pa.table({"key": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64()),
                             "kind": pa.array([], pa.int8())})
        # uint64: with every doc shorter than n only the codepoints remain
        key = np.concatenate(keys).astype(np.uint64, copy=False)
        return pa.table({
            "key": pa.array(key.view(np.int64)),
            "cnt": pa.array(np.concatenate(cnts)),
            "kind": pa.array(np.concatenate(kinds)),
        })

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(["key", "kind"], as_index=False)["cnt"].sum())
        if (out["kind"] == 2).any():
            out.loc[out["kind"] == 2, "cnt"] = 1  # distinct, not summed
        return out

    agg = keyed_map_groups(ds.map_batches(partials, batch_format="pyarrow"),
                           ["key"], per_bucket, "pandas").materialize()
    total = agg.count()
    if total > max_types:
        raise ValueError(
            f"char LM type space ({total} rows) exceeds max_types="
            f"{max_types}; raise the gate or reduce n")
    df = agg.to_pandas()

    def _sorted(kind: int, floor: int) -> tuple[np.ndarray, np.ndarray]:
        part = df[df["kind"] == kind]
        k = part["key"].to_numpy(np.int64).view(np.uint64)
        c = part["cnt"].to_numpy(np.int64)
        keep = c >= floor
        k, c = k[keep], c[keep]
        o = np.argsort(k)
        return k[o], c[o]

    ctx_keys, ctx_cnts = _sorted(0, 1)
    ng_keys, ng_cnts = _sorted(1, min_count)
    v = int((df["kind"] == 2).sum())
    logger.info("char LM: n=%d, %d ngram types, %d ctx types, V=%d",
                n, len(ng_keys), len(ctx_keys), v)
    return CharLM(n=n, alpha=float(alpha), v=v, ng_keys=ng_keys,
                  ng_cnts=ng_cnts, ctx_keys=ctx_keys, ctx_cnts=ctx_cnts)


def _lookup(keys: np.ndarray, cnts: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Counts for query hashes (0 where absent) — one flat searchsorted."""
    if len(keys) == 0 or len(q) == 0:
        return np.zeros(len(q), np.int64)
    pos = np.searchsorted(keys, q)
    pos[pos == len(keys)] = 0
    hit = keys[pos] == q
    out = np.where(hit, cnts[pos], 0)
    return out


def _score_arrays(model: CharLM, ng: np.ndarray,
                  ctx: np.ndarray) -> np.ndarray:
    cn = _lookup(model.ng_keys, model.ng_cnts, ng)
    cc = _lookup(model.ctx_keys, model.ctx_cnts, ctx)
    p = (cn + model.alpha) / (cc + model.alpha * model.v)
    return -np.log2(p)


def lm_bits_scalar(model: CharLM, text) -> float | None:
    """Scalar mirror of the batch scorer (tests / spot checks)."""
    ng, ctx = _doc_hashes(text, model.n)
    if len(ng) == 0:
        return None
    return float(np.round(_score_arrays(model, ng, ctx).mean(), 6))


def lm_score(ds, model: CharLM, id_col: str = "doc_id",
             text_col: str = "text", out_col: str = "lm_bits"):
    """Dataset[(id_col, out_col)] — bits/char cross-entropy per doc under
    `model` (lower = more corpus-like; CCNet keeps the low-perplexity
    head/middle).  Pure map, zero shuffles; the model ships once via
    ray.put and every batch is ONE searchsorted per kind + one reduceat."""
    import ray

    model_ref = ray.put(model)

    def score(t: pa.Table) -> pa.Table:
        m: CharLM = ray.get(model_ref)  # plasma zero-copy, once per batch
        ng, ctx, _, nh = _batch_hashes(t.column(text_col).to_pylist(), m.n)
        bits = np.full(len(nh), np.nan)
        nz = nh > 0
        if nz.any():
            pbits = _score_arrays(m, ng, ctx)
            # per-doc segments are contiguous in pbits; zero-length docs
            # collapse between consecutive nz starts, so reduceat over the
            # nz starts alone sums exactly each doc's run
            starts = (np.cumsum(nh) - nh)[nz]
            bits[nz] = np.add.reduceat(pbits, starts) / nh[nz]
        return pa.table({
            id_col: t.column(id_col),
            out_col: pa.array(np.round(bits, 6), pa.float64(),
                              from_pandas=True),  # NaN -> null
        })

    return ds.map_batches(score, batch_format="pyarrow")
