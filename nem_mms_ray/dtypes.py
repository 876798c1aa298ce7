"""Arrow type (de)serialization, validity-bitmap handling, payload sections.

The reference engine supports exactly six physical Arrow types and errors on
anything else (/root/reference/src/flatfile.rs:134-145).  We support a wider
but still closed set; anything outside it falls back to the `plain` codec
whose payload is Arrow IPC and therefore type-complete.

Null semantics mirror the reference (/root/reference/src/flatfile.rs:147-167):
validity is carried verbatim as an Arrow validity bitmap next to the encoded
values, and decode restores nulls bit-identically — including the distinction
between null and empty string (/root/reference/src/flatfile.rs:620-622).
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

# ---------------------------------------------------------------------------
# Type string round-trip (closed set; used to rebuild arrays at decode time)
# ---------------------------------------------------------------------------

_SIMPLE_TYPES: dict[str, pa.DataType] = {
    "bool": pa.bool_(),
    "int8": pa.int8(),
    "int16": pa.int16(),
    "int32": pa.int32(),
    "int64": pa.int64(),
    "uint8": pa.uint8(),
    "uint16": pa.uint16(),
    "uint32": pa.uint32(),
    "uint64": pa.uint64(),
    "float32": pa.float32(),
    "float64": pa.float64(),
    "string": pa.string(),
    "large_string": pa.large_string(),
    "binary": pa.binary(),
    "large_binary": pa.large_binary(),
    "date32": pa.date32(),
    "date64": pa.date64(),
}


def type_to_str(typ: pa.DataType) -> str:
    for name, t in _SIMPLE_TYPES.items():
        if typ.equals(t):
            return name
    if pa.types.is_timestamp(typ):
        tz = typ.tz or ""
        return f"timestamp:{typ.unit}:{tz}"
    if pa.types.is_duration(typ):
        return f"duration:{typ.unit}"
    if pa.types.is_time32(typ) or pa.types.is_time64(typ):
        return f"time:{typ.unit}"
    raise KeyError(f"unsupported type for string round-trip: {typ}")


def type_from_str(s: str) -> pa.DataType:
    if s in _SIMPLE_TYPES:
        return _SIMPLE_TYPES[s]
    parts = s.split(":")
    if parts[0] == "timestamp":
        return pa.timestamp(parts[1], tz=parts[2] or None)
    if parts[0] == "duration":
        return pa.duration(parts[1])
    if parts[0] == "time":
        return pa.time32(parts[1]) if parts[1] in ("s", "ms") else pa.time64(parts[1])
    raise KeyError(f"unknown type string: {s}")


def is_string_like(typ: pa.DataType) -> bool:
    return (
        pa.types.is_string(typ)
        or pa.types.is_large_string(typ)
        or pa.types.is_binary(typ)
        or pa.types.is_large_binary(typ)
    )


def is_int_like(typ: pa.DataType) -> bool:
    """Integer-representable: ints, timestamps, dates, times, durations."""
    return (
        pa.types.is_integer(typ)
        or pa.types.is_timestamp(typ)
        or pa.types.is_date(typ)
        or pa.types.is_time(typ)
        or pa.types.is_duration(typ)
    )


def int_view_type(typ: pa.DataType) -> pa.DataType:
    """The plain integer type whose bit pattern matches `typ`."""
    if pa.types.is_integer(typ):
        return typ
    w = typ.bit_width
    return {8: pa.int8(), 16: pa.int16(), 32: pa.int32(), 64: pa.int64()}[w]


# ---------------------------------------------------------------------------
# Validity bitmaps
# ---------------------------------------------------------------------------


def extract_validity(arr: pa.Array) -> bytes | None:
    """LSB-ordered validity bitmap, or None when the array has no nulls."""
    if arr.null_count == 0:
        return None
    mask = np.asarray(arr.is_valid())  # bool ndarray, True = valid
    return np.packbits(mask, bitorder="little").tobytes()


def validity_to_mask(validity: bytes | None, n: int) -> np.ndarray | None:
    """numpy bool mask of NULL positions (True = null), or None."""
    if validity is None:
        return None
    valid = np.unpackbits(np.frombuffer(validity, np.uint8), count=n, bitorder="little")
    return valid == 0


def fill_nulls(arr: pa.Array) -> pa.Array:
    """Replace nulls with a type-appropriate fill so codecs see dense values.

    The validity bitmap is carried separately and re-applied at decode; the
    fill value is never observable after round-trip.
    """
    if arr.null_count == 0:
        return arr
    typ = arr.type
    if is_string_like(typ):
        fill = b"" if pa.types.is_binary(typ) or pa.types.is_large_binary(typ) else ""
    elif pa.types.is_boolean(typ):
        fill = False
    elif pa.types.is_floating(typ):
        fill = 0.0
    else:
        fill = 0
    return arr.fill_null(fill)


def apply_validity(arr: pa.Array, validity: bytes | None) -> pa.Array:
    """Re-impose a validity bitmap on a dense (null-free) array."""
    if validity is None:
        return arr
    n = len(arr)
    vbuf = pa.py_buffer(validity)
    null_count = int(n - np.unpackbits(
        np.frombuffer(validity, np.uint8), count=n, bitorder="little").sum())
    if arr.offset != 0:
        arr = arr.slice(0, n).combine_chunks() if isinstance(arr, pa.ChunkedArray) else _compact(arr)
    bufs = arr.buffers()
    return pa.Array.from_buffers(arr.type, n, [vbuf] + bufs[1:], null_count=null_count)


def _compact(arr: pa.Array) -> pa.Array:
    """Force offset-0 buffers (cheap concat trick)."""
    return pa.concat_arrays([arr])


# ---------------------------------------------------------------------------
# Payload sections: length-prefixed concatenation of byte blobs
# ---------------------------------------------------------------------------


def pack_sections(*sections: bytes) -> bytes:
    head = struct.pack("<I", len(sections)) + b"".join(
        struct.pack("<Q", len(s)) for s in sections
    )
    return b"".join((head, *sections))


def unpack_sections(payload: bytes) -> list[bytes]:
    (k,) = struct.unpack_from("<I", payload, 0)
    off = 4
    lens = []
    for _ in range(k):
        (ln,) = struct.unpack_from("<Q", payload, off)
        lens.append(ln)
        off += 8
    out = []
    for ln in lens:
        out.append(payload[off : off + ln])
        off += ln
    return out
