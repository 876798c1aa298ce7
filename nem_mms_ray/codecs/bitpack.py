"""Width-minimal bit packing + frame-of-reference codec for integer-like types.

Used directly as the `for` and `delta` codecs on int/timestamp/date columns
(e.g. the `warc_ts` epoch-micros column per BASELINE.json:north_star), and as
the shared index/length packer inside dict, rle, fsst and alp.  Plain
width-minimal packing is `for` with base 0, which `for` never packs wider.

The decode side must reproduce values bit-identically including the
reference's checked-narrowing semantics (/root/reference/src/flatfile.rs:573-587):
we never change the logical type, only the physical width of the deltas.

`pack_bits`/`unpack_bits` carry every packed stream in the engine (these
codecs' payloads, alp's, dict indices, rle run lengths, fsst string
lengths).  They run the word-at-a-time C kernel in `bitpack_kernel.c`
(bound by `_bitpack_native`) on little-endian hosts, and otherwise the
numpy reference `_pack_bits_ref`/`_unpack_bits_ref`, which builds the
n x width bit matrix.  Both write the same bytes: value i in bits
[i*width, (i+1)*width) of a little-endian bit stream, ceil(n*width/8)
bytes in all.
"""

from __future__ import annotations

import sys

import numpy as np
import pyarrow as pa

from nem_mms_ray import dtypes
from nem_mms_ray.codecs import _bitpack_native
from nem_mms_ray.codecs.base import Codec, EncodedColumn, register

_LITTLE_ENDIAN = sys.byteorder == "little"
GCD_HEAD = 64  # deltas whose gcd `common_divisor` takes before the full pass


def bit_width(max_delta: int) -> int:
    """Bits needed for values in [0, max_delta]."""
    return int(max_delta).bit_length() if max_delta > 0 else 0


def common_divisor(deltas: np.ndarray) -> int:
    """The gcd of the uint64 `deltas`, or 1 when all of them are 0.

    The gcd of all the deltas divides the gcd of the first `GCD_HEAD`, so
    a head gcd of 1 settles the answer without the full pass (the same
    head test as the ALP scale search).  A head of zeros has gcd 0 and a
    head gcd above 1 may still be broken later: both run the full pass."""
    if int(np.gcd.reduce(deltas[:GCD_HEAD])) == 1:
        return 1
    return int(np.gcd.reduce(deltas)) if deltas.any() else 1


def _kernel():
    return _bitpack_native.get_lib() if _LITTLE_ENDIAN else None


def pack_bits(values: np.ndarray, width: int) -> bytes:
    """Pack the low `width` bits of each value (read as uint64) into
    `width`-bit little-endian fields: ceil(len(values)*width/8) bytes."""
    if width == 0 or len(values) == 0:
        return b""
    lib = _kernel()
    if lib is None:
        return _pack_bits_ref(values, width)
    v = np.ascontiguousarray(values, dtype=np.uint64)
    out = np.empty((len(v) * width + 7) // 8, np.uint8)
    lib.bp_pack(v.ctypes.data, len(v), width, out.ctypes.data)
    return out.tobytes()


def unpack_bits(buf: bytes, n: int, width: int) -> np.ndarray:
    """Inverse of pack_bits -> a fresh uint64 ndarray of length n.  Raises
    ValueError when `buf` is shorter than the ceil(n*width/8) bytes that
    pack_bits writes (a truncated payload) or `width` is outside 0..64."""
    if not 0 <= width <= 64:
        raise ValueError(f"bit width {width} outside 0..64")
    if width == 0 or n == 0:
        return np.zeros(n, dtype=np.uint64)
    need = (n * width + 7) // 8
    if len(buf) < need:
        raise ValueError(f"bit-packed stream truncated: {len(buf)} bytes "
                         f"for {n} values of {width} bits need {need}")
    lib = _kernel()
    if lib is None:
        return _unpack_bits_ref(buf, n, width)
    src = np.frombuffer(buf, np.uint8)
    out = np.empty(n, np.uint64)
    lib.bp_unpack(src.ctypes.data, len(src), n, width, out.ctypes.data)
    return out


def _pack_bits_ref(values: np.ndarray, width: int) -> bytes:
    """Numpy reference for pack_bits (width > 0, values non-empty)."""
    v = values.astype(np.uint64, copy=False)
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((v[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.ravel(), bitorder="little").tobytes()


def _unpack_bits_ref(buf: bytes, n: int, width: int) -> np.ndarray:
    """Numpy reference for unpack_bits (width > 0, n > 0, buf long enough)."""
    bits = np.unpackbits(
        np.frombuffer(buf, np.uint8), count=n * width, bitorder="little"
    ).reshape(n, width)
    weights = (np.uint64(1) << np.arange(width, dtype=np.uint64))
    return (bits.astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)


def _int_values(arr: pa.Array) -> np.ndarray:
    """Null-free integer view of an int-like array as int64 (or uint64)."""
    ivt = dtypes.int_view_type(arr.type)
    dense = arr if arr.type.equals(ivt) else arr.view(ivt)
    v = np.asarray(dense)
    return v


class ForBitpackCodec(Codec):
    """Frame-of-reference + bit-pack: payload = pack_bits(v - min, width)."""

    name = "for"

    def can_encode(self, typ: pa.DataType) -> bool:
        return dtypes.is_int_like(typ)

    def estimate(self, sketch) -> float:
        if sketch.int_range is None:
            return float("inf")
        w = bit_width(sketch.int_range)
        return sketch.n * w / 8 + 32

    def encode(self, arr: pa.Array) -> EncodedColumn:
        typ = arr.type
        validity = dtypes.extract_validity(arr)
        filled = dtypes.fill_nulls(arr)
        v = _int_values(filled)
        unsigned = v.dtype.kind == "u"
        work = v.astype(np.uint64) if unsigned else v.astype(np.int64)
        if len(work):
            base = int(work.min())
            # two's-complement subtraction wraps correctly for signed bases
            deltas = work.astype(np.uint64) - np.uint64(base & 0xFFFFFFFFFFFFFFFF)
            # extract the common divisor: day-aligned timestamps, cents,
            # quantized sensor steps etc. pack log2(div) fewer bits/value
            div = common_divisor(deltas)
            if div > 1:
                deltas = deltas // np.uint64(div)
            width = bit_width(int(deltas.max()))
        else:
            base, deltas, width, div = 0, np.zeros(0, np.uint64), 0, 1
        payload = pack_bits(deltas, width)
        return EncodedColumn(
            codec=self.name,
            n=len(arr),
            dtype=dtypes.type_to_str(typ),
            payload=payload,
            validity=validity,
            params={"base": base, "width": width, "div": div},
        )

    def decode(self, ec: EncodedColumn) -> pa.Array:
        typ = dtypes.type_from_str(ec.dtype)
        deltas = unpack_bits(ec.payload, ec.n, ec.params["width"])
        div = int(ec.params.get("div", 1))
        if div > 1:
            deltas = deltas * np.uint64(div)  # wraps mod 2^64 (inverse exact)
        base = int(ec.params["base"])
        raw = deltas + np.uint64(base & 0xFFFFFFFFFFFFFFFF)  # wraps mod 2^64
        ivt = dtypes.int_view_type(typ)
        np_t = np.dtype(str(ivt) if pa.types.is_integer(ivt) else "int64")
        v = raw.view(np.int64).astype(np_t) if np_t.kind == "i" else raw.astype(np_t)
        out = pa.array(v, type=ivt)
        if not typ.equals(ivt):
            out = out.view(typ)
        return dtypes.apply_validity(out, ec.validity)


class DeltaBitpackCodec(Codec):
    """Delta + frame-of-reference-on-deltas + bit-pack (the
    DELTA_BINARY_PACKED family): ideal for near-monotone sequences like
    crawl timestamps, where consecutive deltas span a far narrower range
    than the values themselves.  All arithmetic wraps mod 2^64 so any int64
    sequence round-trips exactly."""

    name = "delta"

    def can_encode(self, typ: pa.DataType) -> bool:
        return dtypes.is_int_like(typ)

    def estimate(self, sketch) -> float:
        if sketch.delta_width is None:
            return float("inf")
        return sketch.n * sketch.delta_width / 8 + 48

    def encode(self, arr: pa.Array) -> EncodedColumn:
        typ = arr.type
        validity = dtypes.extract_validity(arr)
        filled = dtypes.fill_nulls(arr)
        v = _int_values(filled).astype(np.uint64)
        if len(v):
            first = int(v[0])
            deltas = np.diff(v)  # wraps mod 2^64
            if len(deltas):
                min_d = int(deltas.min())
                rel = deltas - np.uint64(min_d)
                div = common_divisor(rel)
                if div > 1:
                    rel = rel // np.uint64(div)
                width = bit_width(int(rel.max()))
            else:
                min_d, rel, width, div = 0, np.zeros(0, np.uint64), 0, 1
        else:
            first, min_d, rel, width, div = 0, 0, np.zeros(0, np.uint64), 0, 1
        return EncodedColumn(
            codec=self.name,
            n=len(arr),
            dtype=dtypes.type_to_str(typ),
            payload=pack_bits(rel, width),
            validity=validity,
            params={"first": first, "min_delta": min_d, "width": width, "div": div},
        )

    def decode(self, ec: EncodedColumn) -> pa.Array:
        typ = dtypes.type_from_str(ec.dtype)
        n = ec.n
        if n == 0:
            vals = np.zeros(0, np.uint64)
        else:
            rel = unpack_bits(ec.payload, n - 1, ec.params["width"])
            div = int(ec.params.get("div", 1))
            if div > 1:
                rel = rel * np.uint64(div)
            deltas = rel + np.uint64(ec.params["min_delta"] & 0xFFFFFFFFFFFFFFFF)
            vals = np.empty(n, np.uint64)
            vals[0] = np.uint64(ec.params["first"] & 0xFFFFFFFFFFFFFFFF)
            if n > 1:
                np.cumsum(deltas, out=deltas)  # wraps mod 2^64
                vals[1:] = vals[0] + deltas
        ivt = dtypes.int_view_type(typ)
        np_t = np.dtype(str(ivt)) if pa.types.is_integer(ivt) else np.dtype("int64")
        v = vals.view(np.int64).astype(np_t) if np_t.kind == "i" else vals.astype(np_t)
        out = pa.array(v, type=ivt)
        if not typ.equals(ivt):
            out = out.view(typ)
        return dtypes.apply_validity(out, ec.validity)


register(ForBitpackCodec())
register(DeltaBitpackCodec())
