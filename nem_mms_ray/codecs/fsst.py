"""FSST codec for string/binary columns: learned symbol table + greedy encode.

From the published FSST design (VLDB 2020 paper, see PAPERS.md): at most 255
symbols of 1..8 bytes, escape byte 255 for literals.  Training is a
deterministic numpy pass over a sample: generation 1 ranks raw n-grams, and
each refinement generation encodes the sample and counts candidates
(count1 over item ids in the paper's fixed-size array, count2 over the
adjacent id pairs that occur).  The per-byte encode/decode loops run in the
C kernel (_fsst_native, pure-Python fallback available).

Per BASELINE.json:north_star this is the codec for `url`/`text` (with dict
fallback at low ndv).  The whole chunk's string data buffer is encoded as one
stream (no random access needed inside a chunk); original per-string lengths
are bit-packed so decode rebuilds offsets exactly — giving the bit-identical
round-trip the reference pins in its own round-trip tests
(/root/reference/src/manage/state.rs:155-191).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from nem_mms_ray import dtypes
from nem_mms_ray.codecs import _fsst_native as native
from nem_mms_ray.codecs.base import Codec, EncodedColumn, register
from nem_mms_ray.codecs.bitpack import bit_width, pack_bits, unpack_bits

MAX_SYMBOLS = 255
TRAIN_SAMPLE_BYTES = 1 << 16  # 64 KiB — FSST trains well on small samples
# (measured on the FIXTURES webtable: 64K/3-gen matches 128K/3-gen ratio
# within 1% at half the training cost; 2-gen loses 15-30% ratio on html)
_GRAM_LENGTHS = (2, 3, 4, 5, 6, 8)
MIN_RATIO = 1 / 8  # encoded/input bytes floor: one code covers <= 8 bytes


def take_sample(data, cap: int = TRAIN_SAMPLE_BYTES):
    """Deterministic strided sample spread over the whole buffer (bytes or
    a uint8 view; `data` itself when it fits in `cap`)."""
    if len(data) <= cap:
        return data
    piece = 4096
    k = cap // piece
    stride = len(data) // k
    view = np.frombuffer(data, np.uint8)
    parts = [view[i * stride : i * stride + piece] for i in range(k)]
    return np.concatenate(parts).tobytes()


def train_symbols(
    sample: bytes,
    max_symbols: int = MAX_SYMBOLS,
    generations: int = 3,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic multi-generation training (FSST paper: iterate, counting
    on the previous generation's code boundaries and merging adjacent
    symbols).  Generation 1 ranks raw 1..8-grams; each later generation
    encodes the sample with the current table and re-ranks {existing symbols
    by realized usage} ∪ {concatenations of adjacent code pairs} ∪ {escaped
    bytes}.  Refinement counts item ids (code, or 256 + escaped byte) with
    `np.bincount` into count1[512] and adjacent id pairs (id1 * 512 + id2)
    with `np.unique`, then maps only the counted ids and pairs back to
    (value, length), summing those that spell the same bytes.  All ties
    break on (length, value) so any parallelism level builds the
    identical table from the same sample (SURVEY.md §7.4)."""
    table = _train_gen1(sample, max_symbols)
    for _ in range(max(0, generations - 1)):
        refined = _refine(sample, table, max_symbols)
        if refined is None:
            break
        table = refined
    return table


def _train_gen1(sample: bytes, max_symbols: int = MAX_SYMBOLS) -> tuple[np.ndarray, np.ndarray]:
    """Generation-1 candidate ranking over raw grams."""
    sample = take_sample(sample)
    arr = np.frombuffer(sample, np.uint8)
    cand_gain: list[np.ndarray] = []
    cand_len: list[np.ndarray] = []
    cand_val: list[np.ndarray] = []

    counts1 = np.bincount(arr, minlength=256).astype(np.int64)
    present = np.nonzero(counts1)[0]
    cand_gain.append(counts1[present])
    cand_len.append(np.full(len(present), 1, np.int64))
    cand_val.append(present.astype(np.uint64))

    # one sort serves every gram length: each position's 8 bytes (zero
    # padded past the end) as a big-endian value, sorted once; the L-byte
    # prefixes of sorted values are sorted too, so their runs count the
    # L-grams.  The last L-1 positions have no L-gram: their padded
    # prefixes are subtracted from the counts.
    n = len(arr)
    srt = np.sort(_gram_values(arr))
    for L in _GRAM_LENGTHS:
        if n < L:
            break
        pre = srt >> np.uint64(8 * (8 - L))
        first = np.ones(n, bool)
        first[1:] = pre[1:] != pre[:-1]
        starts = np.flatnonzero(first)
        uniq = pre[starts]
        cnt = np.diff(np.append(starts, n))
        tail = _gram_values(arr[n - L + 1 :]) >> np.uint64(8 * (8 - L))
        np.subtract.at(cnt, np.searchsorted(uniq, tail), 1)
        gain = cnt.astype(np.int64) * (L - 1)
        # keep only candidates that plausibly pay for a code slot
        keep = gain >= max(8, L * 2)
        uniq, gain = uniq[keep], gain[keep]
        if len(uniq) > 4 * max_symbols:  # prune per length before global rank
            order = np.lexsort((uniq, -gain))[: 4 * max_symbols]
            uniq, gain = uniq[order], gain[order]
        cand_gain.append(gain)
        cand_len.append(np.full(len(uniq), L, np.int64))
        cand_val.append(uniq)

    gain = np.concatenate(cand_gain)
    lens = np.concatenate(cand_len)
    vals = np.concatenate(cand_val)
    order = np.lexsort((vals, lens, -gain))[:max_symbols]
    lens, vals = lens[order], vals[order]

    n = len(lens)
    sym_bytes = np.zeros((n, 8), np.uint8)
    shifts = (lens[:, None] - 1 - np.arange(8)[None, :]) * 8
    valid = shifts >= 0
    sym_bytes[valid] = ((vals[:, None] >> np.where(valid, shifts, 0).astype(np.uint64)) & np.uint64(0xFF))[valid]
    return sym_bytes, lens.astype(np.uint8)


def _gram_values(arr: np.ndarray) -> np.ndarray:
    """Big-endian uint64 of the 8 bytes starting at each position of `arr`,
    zero padded past its end."""
    padded = np.zeros(len(arr) + 7, np.uint8)
    padded[: len(arr)] = arr
    be = np.ndarray((len(arr),), ">u8", padded, strides=(1,))
    return be.astype(np.uint64)


def _item_ids(enc: np.ndarray) -> np.ndarray:
    """Item ids of an encoded stream: the code (0..254) of each symbol item,
    or 256 + byte for each escaped literal.

    The escape parse is sequential (a literal may itself be 0xFF) but
    vectorizes by run parity: every maximal run of 0xFF bytes starts at an
    item boundary, so inside it even offsets are escapes, and the byte after
    each escape is its literal (an odd offset, or the byte after an
    odd-length run).
    """
    n = len(enc)
    ids = enc.astype(np.int64)
    is_ff = enc == np.uint8(native.ESCAPE)
    if not is_ff.any():
        return ids
    pos = np.arange(n)
    run_start = np.zeros(n, bool)
    run_start[0] = is_ff[0]
    run_start[1:] = is_ff[1:] & ~is_ff[:-1]
    start_pos = np.maximum.accumulate(np.where(run_start, pos, 0))
    esc = is_ff & ((pos - start_pos) % 2 == 0)
    esc_pos = np.flatnonzero(esc)
    ids[esc_pos] = 256 + ids[np.minimum(esc_pos + 1, n - 1)]
    literal = np.zeros(n, bool)
    literal[1:] = esc[:-1]
    return ids[~literal]


def _group_reduce(vals: np.ndarray, lens: np.ndarray, x: np.ndarray, ufunc):
    """Distinct (vals, lens) pairs ordered by (vals, lens), with `x`
    reduced by `ufunc` over each pair's entries."""
    if len(vals) == 0:
        return vals, lens, x
    order = np.lexsort((lens, vals))
    vals, lens, x = vals[order], lens[order], x[order]
    first = np.ones(len(vals), bool)
    first[1:] = (vals[1:] != vals[:-1]) | (lens[1:] != lens[:-1])
    starts = np.flatnonzero(first)
    return vals[starts], lens[starts], ufunc.reduceat(x, starts)


def _refine(sample: bytes, table, max_symbols: int):
    """One refinement generation: re-rank on realized usage + merged pairs.

    Candidates are counted (FSST paper's count1/count2): count1 over item
    ids, count2 over the adjacent id pairs that occur (sorted pair keys
    with their counts, the non-zero bins of a 512 * 512 array), then map
    back to (value, length) and are summed per distinct value.
    """
    sym_bytes, sym_lens = table
    if len(sym_lens) == 0 or len(sample) == 0:
        return None
    sample = take_sample(sample)
    enc = np.frombuffer(native.encode(sym_bytes, sym_lens, sample), np.uint8)
    if len(enc) == 0:
        return None
    # big-endian packed value of each symbol
    shifts = (sym_lens.astype(np.int64)[:, None] - 1 - np.arange(8)[None, :]) * 8
    valid = shifts >= 0
    sym_vals = (
        (sym_bytes.astype(np.uint64) << np.where(valid, shifts, 0).astype(np.uint64))
        * valid
    ).sum(axis=1, dtype=np.uint64)
    # (value, length) of every item id: codes past the table clamp to its
    # last symbol, 256 + b is the escaped byte b
    code = np.minimum(np.arange(256), len(sym_lens) - 1)
    id_vals = np.concatenate([sym_vals[code], np.arange(256, dtype=np.uint64)])
    id_lens = np.concatenate([sym_lens.astype(np.int64)[code], np.ones(256, np.int64)])

    ids = _item_ids(enc)
    # existing symbols + escaped bytes by realized usage
    count1 = np.bincount(ids, minlength=512)
    nz1 = np.flatnonzero(count1)
    v1, l1, c1 = _group_reduce(id_vals[nz1], id_lens[nz1], count1[nz1], np.add)
    gain1 = c1 * np.maximum(1, l1 - 1)  # single byte: 1 saved vs escape
    # adjacent pairs with combined length <= 8, one output byte saved each
    nz2, count2 = np.unique(ids[:-1] * 512 + ids[1:], return_counts=True)
    a, b = nz2 >> 9, nz2 & 511
    l2 = id_lens[a] + id_lens[b]
    ok = l2 <= 8
    a, b, l2 = a[ok], b[ok], l2[ok]
    v2 = (id_vals[a] << (np.uint64(8) * id_lens[b].astype(np.uint64))) | id_vals[b]
    v2, l2, gain2 = _group_reduce(v2, l2, count2[ok], np.add)
    keep2 = gain2 >= 4
    v2, l2, gain2 = v2[keep2], l2[keep2], gain2[keep2]

    # dedupe (a pair may equal an existing symbol): keep max gain per item
    allv, alll, allg = _group_reduce(
        np.concatenate([v1, v2]), np.concatenate([l1, l2]),
        np.concatenate([gain1, gain2]), np.maximum)

    pick = np.lexsort((allv, alll, -allg))[:max_symbols]
    sel_v, sel_l = allv[pick], alll[pick]
    out_bytes = np.zeros((len(pick), 8), np.uint8)
    sh = (sel_l[:, None] - 1 - np.arange(8)[None, :]) * 8
    ok_sh = sh >= 0
    out_bytes[ok_sh] = ((sel_v[:, None] >> np.where(ok_sh, sh, 0).astype(np.uint64))
                        & np.uint64(0xFF))[ok_sh]
    return out_bytes, sel_l.astype(np.uint8)


def _string_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray | bytes]:
    """(lengths int64, concatenated data bytes) of a null-free string array.

    The data is a zero-copy uint8 view of the Arrow data buffer (b"" when
    empty), sliced arrays (non-zero offset) included.
    """
    bufs = arr.buffers()
    n = len(arr)
    big = pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type)
    off_t = np.int64 if big else np.int32
    itemsize = np.dtype(off_t).itemsize
    offsets = np.frombuffer(bufs[1], off_t, count=n + 1, offset=arr.offset * itemsize)
    lengths = np.diff(offsets).astype(np.int64)
    if bufs[2] is None or offsets[-1] == offsets[0]:
        return lengths, b""
    data = np.frombuffer(bufs[2], np.uint8, count=int(offsets[-1]))
    return lengths, data[int(offsets[0]):]


def _build_string_array(typ: pa.DataType, lengths: np.ndarray, data) -> pa.Array:
    """data: bytes / memoryview / uint8 ndarray — wrapped zero-copy; the
    py_buffer holds the owner alive, so no tobytes round-trip."""
    big = pa.types.is_large_string(typ) or pa.types.is_large_binary(typ)
    off_t = np.int64 if big else np.int32
    offsets = np.zeros(len(lengths) + 1, np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return pa.Array.from_buffers(
        typ,
        len(lengths),
        [None, pa.py_buffer(offsets.astype(off_t)), pa.py_buffer(data)],
    )


class FsstCodec(Codec):
    name = "fsst"

    def can_encode(self, typ: pa.DataType) -> bool:
        return dtypes.is_string_like(typ)

    def estimate(self, sketch) -> float:
        ratio = sketch.fsst_ratio if sketch.fsst_ratio is not None else 0.6
        len_w = bit_width(sketch.max_len or 0)
        return sketch.value_bytes * ratio + sketch.n * len_w / 8 + 2300

    def encode(
        self,
        arr: pa.Array,
        symbols: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> EncodedColumn:
        """Encode; `symbols` lets a stateful stage train the table once per
        partition and reuse it across batches (SURVEY.md §2.4 ST-target row)."""
        typ = arr.type
        validity = dtypes.extract_validity(arr)
        # fast path: arrow builders give null string slots zero extent
        # (equal offsets), so the raw buffers already match what fill_nulls
        # would produce — skip the full-column copy unless some null slot
        # actually spans bytes (possible after exotic slicing)
        lengths, data = _string_buffers(arr)
        if arr.null_count:
            nulls = dtypes.validity_to_mask(validity, len(arr))
            if lengths[nulls].any():
                lengths, data = _string_buffers(dtypes.fill_nulls(arr))

        max_len = int(lengths.max()) if len(lengths) else 0
        len_width = bit_width(max_len)
        lengths_packed = pack_bits(lengths.astype(np.uint64), len_width)

        raw = False
        if len(data) == 0:
            sym_bytes = np.zeros((0, 8), np.uint8)
            sym_lens = np.zeros(0, np.uint8)
            stream = b""
        else:
            sym_bytes, sym_lens = symbols if symbols is not None else train_symbols(data)
            stream = native.encode(sym_bytes, sym_lens, data)
            if len(stream) >= len(data):  # incompressible: store raw
                raw = True
                stream = data
        payload = dtypes.pack_sections(
            sym_lens.tobytes(), sym_bytes.tobytes(), stream, lengths_packed
        )
        return EncodedColumn(
            codec=self.name,
            n=len(arr),
            dtype=dtypes.type_to_str(typ),
            payload=payload,
            validity=validity,
            params={
                "raw": raw,
                "len_width": len_width,
                "data_bytes": int(len(data)),
                "n_sym": int(len(sym_lens)),
            },
        )

    def decode(self, ec: EncodedColumn) -> pa.Array:
        typ = dtypes.type_from_str(ec.dtype)
        sym_lens_b, sym_bytes_b, stream, lengths_packed = dtypes.unpack_sections(ec.payload)
        lengths = unpack_bits(lengths_packed, ec.n, ec.params["len_width"]).view(np.int64)
        if ec.params["raw"]:
            data = stream
        else:
            n_sym = ec.params["n_sym"]
            sym_lens = np.frombuffer(sym_lens_b, np.uint8, count=n_sym)
            sym_bytes = np.frombuffer(sym_bytes_b, np.uint8, count=n_sym * 8).reshape(n_sym, 8)
            data = native.decode_np(sym_bytes, sym_lens, stream, ec.params["data_bytes"])
        out = _build_string_array(typ, lengths, data)
        return dtypes.apply_validity(out, ec.validity)


register(FsstCodec())
