"""ALP-style decimal float codec: scaled-integer FOR+bitpack.

From the published ALP idea (Afroozeh & Boncz, "ALP: Adaptive Lossless
floating-Point Compression", SIGMOD 2024): real-world floats are
overwhelmingly scaled decimals, so round(v * 10^e) is a small integer that
frame-of-reference bit-packs far below the 64-bit IEEE representation.
Exactness is VERIFIED at encode time down to the bit pattern — any chunk
that doesn't decimalize (NaN/inf, true reals, -0.0) raises, and the encode
pipeline's fallback path stores it plain instead, mirroring the reference's
skip-vs-abort error split (/root/reference/src/packages/mod.rs:201-216).

The sketch probe (stats.alp_find_scale) gives the selector an honest size
estimate before the codec is chosen.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from nem_mms_ray import dtypes
from nem_mms_ray.codecs.base import Codec, EncodedColumn, register
from nem_mms_ray.codecs.bitpack import bit_width, pack_bits, unpack_bits


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
        from nem_mms_ray.stats import alp_find_scale

        typ = arr.type
        validity = dtypes.extract_validity(arr)
        filled = dtypes.fill_nulls(arr)  # nulls -> 0.0 (exact at every scale)
        v = np.asarray(filled)
        e = alp_find_scale(v)
        if e is None:
            raise ValueError("alp: chunk is not exactly decimal-scalable")
        if len(v):
            ints = np.round(v.astype(np.float64) * (10.0 ** e)).astype(np.int64)
            base = int(ints.min())
            deltas = (ints - base).astype(np.uint64)
            width = bit_width(int(deltas.max()))
        else:
            base, deltas, width = 0, np.zeros(0, np.uint64), 0
        return EncodedColumn(
            codec=self.name,
            n=len(arr),
            dtype=dtypes.type_to_str(typ),
            payload=pack_bits(deltas, width),
            validity=validity,
            params={"base": base, "width": width, "exp": e},
        )

    def decode(self, ec: EncodedColumn) -> pa.Array:
        typ = dtypes.type_from_str(ec.dtype)
        np_t = np.float64 if typ.bit_width == 64 else np.float32
        ints = unpack_bits(ec.payload, ec.n, ec.params["width"]).view(np.int64)
        ints += np.int64(ec.params["base"])
        # same expression the encoder verified bit-equality against
        v = (ints.astype(np.float64) / (10.0 ** ec.params["exp"])).astype(np_t)
        return dtypes.apply_validity(pa.array(v, type=typ), ec.validity)


register(AlpCodec())
