"""Dictionary codec: bit-packed codes + child-encoded dictionary values.

The scale path for low-cardinality columns like `lang`
(BASELINE.json:north_star: "low-cardinality columns like lang use
dict+bit-pack").  Dictionary order is first-appearance order from
pyarrow.compute.dictionary_encode, which is deterministic for a given chunk —
the analog of the reference's name-bound schema lookup being independent of
CSV column order (/root/reference/src/flatfile.rs:499-505).
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
        typ = arr.type
        validity = dtypes.extract_validity(arr)
        filled = dtypes.fill_nulls(arr)
        denc = pc.dictionary_encode(filled)
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        values = denc.dictionary
        # every code 0..ndv-1 occurs: the dictionary holds only seen values
        width = bit_width(len(values) - 1)
        child = get_codec(child_codec_for(values)).encode(values)
        payload = dtypes.pack_sections(
            pack_bits(np.asarray(denc.indices), width), ec_to_bytes(child)
        )
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
