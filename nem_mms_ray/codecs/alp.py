"""ALP-style decimal float codec: scaled-integer FOR+bitpack.

From the published ALP idea (Afroozeh & Boncz, "ALP: Adaptive Lossless
floating-Point Compression", SIGMOD 2024): real-world floats are
overwhelmingly scaled decimals, so round(v * 10^e) is a small integer that
frame-of-reference bit-packs far below the 64-bit IEEE representation.
Exactness is VERIFIED at encode time down to the bit pattern — any chunk
that doesn't decimalize (NaN/inf, true reals, -0.0) raises, and the encode
pipeline's fallback path stores it plain instead, mirroring the reference's
skip-vs-abort error split (/root/reference/src/packages/mod.rs:201-216).

The sketch probe (stats.alp_scale_ints on the plan's sample) gives the
selector an honest size estimate before the codec is chosen.  The codec
packs the very integers that check verified on the chunk (exponents whose
first 64 values already fail are rejected without a full pass), and hands
the zone map the chunk's (min, max) decoded from the packed range, so the
encode reduces the chunk once.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from nem_mms_ray import dtypes
from nem_mms_ray.codecs.base import Codec, EncodedColumn, register
from nem_mms_ray.codecs.bitpack import bit_width, pack_bits, unpack_bits


def from_ints(ints: np.ndarray, exp: int, np_t) -> np.ndarray:
    """Decode scaled integers: the expression `stats.alp_scale_ints`
    verifies every encoded value against, bit for bit."""
    return (ints.astype(np.float64, copy=False) / (10.0 ** exp)).astype(np_t, copy=False)


class AlpCodec(Codec):
    """Decimal-float FOR+bitpack (ALP): payload = pack_bits(round(v*10^e) - min)."""

    name = "alp"

    def can_encode(self, typ: pa.DataType) -> bool:
        return pa.types.is_floating(typ) and typ.bit_width in (32, 64)

    def estimate(self, sketch) -> float:
        if sketch.float_scale is None:
            return float("inf")
        if sketch.f_min is None:  # all-null / empty: params only
            return 40.0
        s = 10.0 ** sketch.float_scale
        lo, hi = round(sketch.f_min * s), round(sketch.f_max * s)
        if abs(lo) >= 2 ** 53 or abs(hi) >= 2 ** 53:
            return float("inf")
        return sketch.n * bit_width(int(hi - lo)) / 8 + 40

    def encode(self, arr: pa.Array) -> EncodedColumn:
        from nem_mms_ray.stats import alp_scale_ints

        typ = arr.type
        validity = dtypes.extract_validity(arr)
        filled = dtypes.fill_nulls(arr)  # nulls -> 0.0 (exact at every scale)
        v = np.asarray(filled)
        e, ints = alp_scale_ints(v)
        if e is None:
            raise ValueError("alp: chunk is not exactly decimal-scalable")
        value_range = None
        if len(ints):
            base, top = int(ints.min()), int(ints.max())
            deltas = (ints - base).view(np.uint64)  # >= 0
            width = bit_width(top - base)
            if arr.null_count == 0:
                # decode is monotone and every value decodes bit-exact, so
                # the decoded ends are the chunk's min and max
                ends = from_ints(np.array([base, top], np.int64), e, v.dtype)
                value_range = (pa.scalar(ends[0], type=typ), pa.scalar(ends[1], type=typ))
        else:
            base, deltas, width = 0, np.zeros(0, np.uint64), 0
        return EncodedColumn(
            codec=self.name,
            n=len(arr),
            dtype=dtypes.type_to_str(typ),
            payload=pack_bits(deltas, width),
            validity=validity,
            params={"base": base, "width": width, "exp": e},
            value_range=value_range,
        )

    def decode(self, ec: EncodedColumn) -> pa.Array:
        typ = dtypes.type_from_str(ec.dtype)
        np_t = np.float64 if typ.bit_width == 64 else np.float32
        ints = unpack_bits(ec.payload, ec.n, ec.params["width"]).view(np.int64)
        ints += np.int64(ec.params["base"])
        v = from_ints(ints, ec.params["exp"], np_t)
        return dtypes.apply_validity(pa.array(v, type=typ), ec.validity)


register(AlpCodec())
