"""Run-length codec: bit-packed run lengths + child-encoded run values.

For columns with long runs (sorted `lang`, clustered timestamps — FIXTURES.md
F1).  Runs are detected vectorized (adjacent not-equal over the null-filled
array); values are recursively encoded with the best child codec.
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
from nem_mms_ray.codecs.dictionary import child_codec_for


def run_starts(arr: pa.Array) -> np.ndarray:
    """Indices where a new run begins in a null-free array (always incl. 0)."""
    n = len(arr)
    if n == 0:
        return np.zeros(0, np.int64)
    neq = pc.not_equal(arr.slice(1), arr.slice(0, n - 1))
    changed = np.flatnonzero(np.asarray(neq.fill_null(True)))
    return np.concatenate([[0], changed + 1]).astype(np.int64)


class RleCodec(Codec):
    name = "rle"

    def can_encode(self, typ: pa.DataType) -> bool:
        return not pa.types.is_nested(typ)

    def estimate(self, sketch) -> float:
        runs = max(1, sketch.run_count)
        avg = sketch.value_bytes / max(1, sketch.n)
        max_run = max(1, sketch.n)  # conservative width bound
        return runs * avg + runs * bit_width(max_run) / 8 + 200

    def encode(self, arr: pa.Array) -> EncodedColumn:
        typ = arr.type
        validity = dtypes.extract_validity(arr)
        filled = dtypes.fill_nulls(arr)
        starts = run_starts(filled)
        n = len(arr)
        lengths = np.diff(np.concatenate([starts, [n]])).astype(np.uint64)
        values = filled.take(pa.array(starts, type=pa.int64()))
        width = bit_width(int(lengths.max())) if len(lengths) else 0
        child = get_codec(child_codec_for(values)).encode(values)
        payload = dtypes.pack_sections(pack_bits(lengths, width), ec_to_bytes(child))
        return EncodedColumn(
            codec=self.name,
            n=n,
            dtype=dtypes.type_to_str(typ),
            payload=payload,
            validity=validity,
            params={"width": width, "runs": int(len(lengths))},
        )

    def decode(self, ec: EncodedColumn) -> pa.Array:
        len_packed, child_b = dtypes.unpack_sections(ec.payload)
        runs = ec.params["runs"]
        lengths = unpack_bits(len_packed, runs, ec.params["width"]).view(np.int64)
        child = ec_from_bytes(child_b)
        values = get_codec(child.codec).decode(child)
        idx = np.repeat(np.arange(runs, dtype=np.int64), lengths)
        out = values.take(pa.array(idx, type=pa.int64()))
        typ = dtypes.type_from_str(ec.dtype)
        if not out.type.equals(typ):
            out = out.cast(typ)
        return dtypes.apply_validity(out, ec.validity)


register(RleCodec())
