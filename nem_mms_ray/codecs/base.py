"""EncodedColumn container + codec registry.

The registry is the engine's single extension point — the analog of the
reference's five hand-maintained dispatch sites for adding a package
(/root/reference/src/packages/mod.rs:47-100, schema.rs, fetch.rs:13-23),
collapsed into one dict as its own TODO list implies
(/root/reference/README.md:170-175).  Each codec implements
estimate/encode/decode; the auto-selector consults all registered codecs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import pyarrow as pa

if TYPE_CHECKING:
    from nem_mms_ray.stats import ColumnSketch


@dataclass
class EncodedColumn:
    """One encoded column chunk — the engine's physical unit.

    Analog of the reference's typed Arrow column produced by a
    `get_*_array` builder (/root/reference/src/flatfile.rs:147-278), with
    the payload holding codec-specific bytes instead of plain Arrow buffers.
    """

    codec: str
    n: int                      # logical value count (incl. nulls)
    dtype: str                  # dtypes.type_to_str of the logical type
    payload: bytes              # codec-defined binary payload
    validity: bytes | None      # LSB validity bitmap; None = no nulls
    params: dict = field(default_factory=dict)  # JSON-serializable params
    # (min, max) Arrow scalars of the chunk, when the codec reduced them
    # anyway (dict, alp); reused by the zone map, never written
    value_range: tuple | None = field(default=None, compare=False, repr=False)
    # `Array.nbytes` of the chunk as a plain array, when the codec was handed
    # a string or binary DictionaryArray (whose own nbytes counts codes); the
    # pipeline's byte counts use it, never written
    dense_nbytes: int | None = field(default=None, compare=False, repr=False)

    @property
    def encoded_bytes(self) -> int:
        return len(self.payload) + (len(self.validity) if self.validity else 0)

    # -- storage row (for writing encoded chunks into a Parquet sink) -------
    def to_row(self) -> dict:
        return {
            "codec": self.codec,
            "n": self.n,
            "dtype": self.dtype,
            "params": json.dumps(self.params, sort_keys=True),
            "payload": self.payload,
            "validity": self.validity if self.validity is not None else b"",
            "has_validity": self.validity is not None,
        }


class Codec:
    """Interface; subclasses register themselves via `register`."""

    name: str = "?"

    def can_encode(self, typ: pa.DataType) -> bool:
        raise NotImplementedError

    def estimate(self, sketch: "ColumnSketch") -> float:
        """Estimated encoded bytes from a sketch (lower wins in selection)."""
        raise NotImplementedError

    def encode(self, arr: pa.Array) -> EncodedColumn:
        raise NotImplementedError

    def decode(self, ec: EncodedColumn) -> pa.Array:
        raise NotImplementedError


REGISTRY: dict[str, Codec] = {}


def register(codec: Codec) -> Codec:
    REGISTRY[codec.name] = codec
    return codec


def get_codec(name: str) -> Codec:
    return REGISTRY[name]


# codec names that earlier encodes wrote and that no encode emits now:
# `bitpack` was `for` with its base pinned at 0 (params {"base": 0,
# "width": w}, no "div"), `ipc` was `plain` (a one-column Arrow IPC stream)
_DECODE_ALIASES = {"bitpack": "for", "ipc": "plain"}


def decode_column(ec: EncodedColumn) -> pa.Array:
    return REGISTRY[_DECODE_ALIASES.get(ec.codec, ec.codec)].decode(ec)


def ec_to_bytes(ec: EncodedColumn) -> bytes:
    """Self-contained byte serialization (for nesting inside parent payloads)."""
    from nem_mms_ray.dtypes import pack_sections

    head = json.dumps(
        {
            "codec": ec.codec,
            "n": ec.n,
            "dtype": ec.dtype,
            "params": ec.params,
            "has_validity": ec.validity is not None,
        },
        sort_keys=True,
    ).encode()
    return pack_sections(head, ec.payload, ec.validity or b"")


def ec_from_bytes(buf: bytes) -> EncodedColumn:
    from nem_mms_ray.dtypes import unpack_sections

    head_b, payload, validity = unpack_sections(buf)
    head = json.loads(bytes(head_b))  # bytes(): head may be a memoryview slice
    return EncodedColumn(
        codec=head["codec"],
        n=head["n"],
        dtype=head["dtype"],
        payload=payload,
        validity=validity if head["has_validity"] else None,
        params=head["params"],
    )
