"""Dictionary codec: bit-packed codes + child-encoded dictionary values.

The scale path for low-cardinality columns like `lang`
(BASELINE.json:north_star: "low-cardinality columns like lang use
dict+bit-pack").  Dictionary order is first-appearance order in the chunk
(nulls count as `dtypes.fill_nulls`' value), whichever form the chunk
arrives in: a plain array goes through pyarrow.compute.dictionary_encode;
an Arrow `DictionaryArray` (a column read with Parquet's own dictionary)
has the codes it uses renumbered in that order, without hashing its rows.
Both give the same payload for the same values — the analog of the
reference's name-bound schema lookup being independent of CSV column order
(its src/flatfile.rs:499-505).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from nem_mms_ray import dtypes
from nem_mms_ray.codecs.base import (
    Codec,
    EncodedColumn,
    ec_from_bytes,
    ec_to_bytes,
    get_codec,
    register,
)
from nem_mms_ray.codecs.bitpack import bit_width, pack_bits, unpack_bits

# child payloads smaller than this are not worth FSST's symbol-table overhead
_FSST_CHILD_MIN_BYTES = 4096
# rows of a DictionaryArray whose codes are ordered by sorting; later rows
# only add the codes these never showed (`_first_appearance`)
_HEAD = 1024


def child_codec_for(values: pa.Array) -> str:
    """Deterministic child-codec choice for a small values array."""
    typ = values.type
    if dtypes.is_int_like(typ):
        return "for"
    if dtypes.is_string_like(typ):
        nbytes = int(pc.binary_length(values).cast(pa.int64()).sum().as_py() or 0) if len(values) else 0
        if nbytes >= _FSST_CHILD_MIN_BYTES:
            return "fsst"
    return "plain"


def _in_first_order(codes: np.ndarray) -> np.ndarray:
    """The distinct values of `codes`, in order of first position."""
    seen, first = np.unique(codes, return_index=True)
    return seen[np.argsort(first)]


def _first_appearance(arr: pa.DictionaryArray) -> tuple[pa.Array, np.ndarray]:
    """The dictionary and indices `pc.dictionary_encode(fill_nulls(dense))`
    gives for `arr`, from its codes alone.

    Null rows get the code `k` (one past the dictionary), standing for the
    fill value.  Only the codes that occur are renumbered, in order of
    first position: a Parquet row group's dictionary covers the whole
    group, not one chunk.  The order comes from the first `_HEAD` rows,
    then from the later rows whose code those never showed (skipped when
    the head holds codes 0..max).  The codes' values are dictionary-encoded
    themselves, so a value that two codes share (a repeated dictionary
    entry, or a real "" next to nulls) keeps the first one's number."""
    k = len(arr.dictionary)
    codes = np.asarray(arr.indices)
    if arr.null_count:
        codes = np.asarray(arr.indices.cast(pa.int64()).fill_null(k))
    order = _in_first_order(codes[:_HEAD])
    if len(codes) > _HEAD and not (order.max() == len(order) - 1 == codes.max()):
        rank = np.full(k + 1, -1, np.int32)
        rank[order] = np.arange(len(order))
        late = codes[_HEAD:]
        late = late[rank[late] < 0]
        if len(late):
            order = np.concatenate([order, _in_first_order(late)])
    picked = arr.dictionary.take(pa.array(order, mask=order == k))
    denc = pc.dictionary_encode(dtypes.fill_nulls(picked))
    if len(denc.dictionary) == len(order) and np.array_equal(order, np.arange(len(order))):
        return denc.dictionary, codes  # already in first-appearance order
    lut = np.zeros(k + 1, np.int32)
    lut[order] = np.asarray(denc.indices)
    return denc.dictionary, lut[codes]


def _dense_nbytes(arr: pa.DictionaryArray) -> int | None:
    """`Array.nbytes` of `arr` decoded to a string or binary array (validity
    only with nulls, one 32-bit offset per value, the bytes of the non-null
    values), from the dictionary's offsets and, unless every entry has one
    length, the codes' counts; None for other value types."""
    d = arr.dictionary
    if not (pa.types.is_string(d.type) or pa.types.is_binary(d.type)):
        return None
    n, nulls = len(arr), arr.null_count
    lengths = np.diff(np.frombuffer(d.buffers()[1], np.int32, len(d) + 1, 4 * d.offset))
    if len(d) == 0 or lengths.min() == lengths.max():  # flag columns: no pass over the rows
        data = (n - nulls) * int(lengths[0]) if len(d) else 0
    else:  # a null row is counted as code 0 once filled, then taken off
        codes = np.asarray(arr.indices.fill_null(0) if nulls else arr.indices)
        data = int(np.bincount(codes, minlength=len(d)) @ lengths) - nulls * int(lengths[0])
    return ((n + 7) // 8 if nulls else 0) + 4 * n + data


class DictCodec(Codec):
    name = "dict"

    def can_encode(self, typ: pa.DataType) -> bool:
        # dictionary_encode supports primitive + string-like; floats included
        return not pa.types.is_nested(typ)

    def estimate(self, sketch) -> float:
        ndv = max(1, sketch.ndv)
        w = bit_width(ndv - 1)
        avg = sketch.value_bytes / max(1, sketch.n)
        dict_bytes = ndv * avg + ndv * 2  # values + offsets-ish
        return sketch.n * w / 8 + dict_bytes + 100

    def encode(self, arr: pa.Array) -> EncodedColumn:
        if isinstance(arr, pa.DictionaryArray) and arr.dictionary.null_count:
            arr = arr.dictionary_decode()  # null entries: the rows are null too
        dense_nbytes = None
        if isinstance(arr, pa.DictionaryArray):
            typ = arr.type.value_type
            values, indices = _first_appearance(arr)
            dense_nbytes = _dense_nbytes(arr)
        else:
            typ = arr.type
            denc = pc.dictionary_encode(dtypes.fill_nulls(arr))
            if isinstance(denc, pa.ChunkedArray):
                denc = denc.combine_chunks()
            values, indices = denc.dictionary, np.asarray(denc.indices)
        validity = dtypes.extract_validity(arr)
        # every code 0..ndv-1 occurs: the dictionary holds only seen values
        width = bit_width(len(values) - 1)
        child = get_codec(child_codec_for(values)).encode(values)
        payload = dtypes.pack_sections(pack_bits(indices, width), ec_to_bytes(child))
        # the zone map's float and string range: the dictionary holds the
        # chunk's distinct values (plus fill_nulls' value if it has nulls)
        value_range = None
        if arr.null_count == 0 and (pa.types.is_floating(typ) or dtypes.is_string_like(typ)):
            mm = pc.min_max(values)
            value_range = (mm["min"], mm["max"])
        return EncodedColumn(
            codec=self.name,
            n=len(arr),
            dtype=dtypes.type_to_str(typ),
            payload=payload,
            validity=validity,
            params={"width": width, "ndv": len(values)},
            value_range=value_range,
            dense_nbytes=dense_nbytes,
        )

    def decode(self, ec: EncodedColumn) -> pa.Array:
        idx_packed, child_b = dtypes.unpack_sections(ec.payload)
        indices = unpack_bits(idx_packed, ec.n, ec.params["width"]).view(np.int64)
        values = ec_from_bytes(child_b)
        dict_values = get_codec(values.codec).decode(values)
        out = dict_values.take(pa.array(indices, type=pa.int64()))
        typ = dtypes.type_from_str(ec.dtype)
        if not out.type.equals(typ):
            out = out.cast(typ)
        return dtypes.apply_validity(out, ec.validity)


register(DictCodec())
