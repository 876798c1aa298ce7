"""Plain fallback codec: Arrow IPC stream of a single-column record batch.

Type-complete and always valid — the analog of the reference's `Utf8`
stringify-anything fallback (/root/reference/src/flatfile.rs:598-608), but
lossless for every Arrow type because the payload is Arrow itself.  The
encode planner gives it every column that has no sketch (list, struct,
map...), whose dtype is then "ipc": the stream's schema describes it.
"""

from __future__ import annotations

import io

import pyarrow as pa

from nem_mms_ray import dtypes
from nem_mms_ray.codecs.base import Codec, EncodedColumn, register

IPC_DTYPE = "ipc"  # dtype of a chunk whose type only its IPC schema describes


def ipc_serialize_array(arr: pa.Array) -> bytes:
    batch = pa.record_batch([arr], names=["v"])
    sink = io.BytesIO()
    with pa.ipc.new_stream(sink, batch.schema) as w:
        w.write_batch(batch)
    return sink.getvalue()


def ipc_deserialize_array(buf: bytes) -> pa.Array:
    with pa.ipc.open_stream(pa.py_buffer(buf)) as r:
        table = r.read_all()
    col = table.column(0)
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


class PlainCodec(Codec):
    name = "plain"

    def can_encode(self, typ: pa.DataType) -> bool:
        return True

    def estimate(self, sketch) -> float:
        return float(sketch.value_bytes) + 16 * 8 + 300  # data + offsets + schema overhead

    def encode(self, arr: pa.Array) -> EncodedColumn:
        # IPC keeps validity inline; no separate bitmap needed.
        try:
            dtype = dtypes.type_to_str(arr.type)
        except KeyError:
            dtype = IPC_DTYPE  # exotic type: fully described by the IPC schema
        return EncodedColumn(
            codec=self.name,
            n=len(arr),
            dtype=dtype,
            payload=ipc_serialize_array(arr),
            validity=None,
            params={},
        )

    def decode(self, ec: EncodedColumn) -> pa.Array:
        return ipc_deserialize_array(ec.payload)


register(PlainCodec())
