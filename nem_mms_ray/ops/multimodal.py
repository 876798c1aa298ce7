"""Multimodal column stages: opaque binary payloads + typed metadata.

Image payloads are `binary` columns moved zero-copy through Arrow;
decode / feature-extract / resize run as actor-pool map_batches stages.
No media library is a dependency, so the REAL kernels are the ones
buildable from the stdlib + numpy alone:

- `sniff_media`: true header decode (dims + format) for PNG / GIF / BMP /
  JPEG / PNM — `DecodeMedia(backend="real")`;
- `decode_pnm` / `encode_pnm` / `ResizeMedia(backend="real")`: true
  pixel-level decode + nearest-neighbor resize for uncompressed binary PNM;
- `ExtractFeatures`: byte-histogram features (a real, deterministic
  computation standing in for batched model inference).

Compressed-pixel decode (PNG/JPEG bitmaps) is out of scope and reported as
media_ok=False rather than faked.  `backend="fake"` variants keep the
plumbing testable on arbitrary binary columns (e.g. the webtable html
column): schema, nulls, small-blob batch sizing, actor signatures.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

FEATURE_DIM = 16


def sniff_media(buf: bytes) -> tuple[str, int, int] | None:
    """Pure-stdlib image metadata decoder: (format, width, height) for
    PNG / GIF / BMP / JPEG / PPM-family headers, None if unrecognized.

    This is the `backend="real"` kernel — real header parsing with no
    external media library (none exists in this container).  Pixel-level
    decode of compressed formats is out of scope and documented as such.
    """
    n = len(buf)
    if n >= 24 and buf[:8] == b"\x89PNG\r\n\x1a\n" and buf[12:16] == b"IHDR":
        return ("png", int.from_bytes(buf[16:20], "big"),
                int.from_bytes(buf[20:24], "big"))
    if n >= 10 and buf[:6] in (b"GIF87a", b"GIF89a"):
        return ("gif", int.from_bytes(buf[6:8], "little"),
                int.from_bytes(buf[8:10], "little"))
    if n >= 26 and buf[:2] == b"BM":
        return ("bmp", int.from_bytes(buf[18:22], "little", signed=True),
                abs(int.from_bytes(buf[22:26], "little", signed=True)))
    if n >= 4 and buf[:2] == b"\xff\xd8":  # JPEG: walk segments to SOFn
        i = 2
        while i + 9 < n:
            if buf[i] != 0xFF:
                return None
            marker = buf[i + 1]
            if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
                i += 2
                continue
            seg_len = int.from_bytes(buf[i + 2 : i + 4], "big")
            if marker in (0xC0, 0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7,
                          0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
                return ("jpeg", int.from_bytes(buf[i + 7 : i + 9], "big"),
                        int.from_bytes(buf[i + 5 : i + 7], "big"))
            i += 2 + seg_len
        return None
    if n >= 2 and buf[0:1] == b"P" and buf[1:2] in b"123456":
        # PNM: ASCII width/height after magic, '#' comments allowed
        fields: list[int] = []
        i = 2
        while i < n and len(fields) < 2:
            c = buf[i : i + 1]
            if c == b"#":
                while i < n and buf[i : i + 1] != b"\n":
                    i += 1
            elif c.isspace():
                i += 1
            elif c.isdigit():
                j = i
                while j < n and buf[j : j + 1].isdigit():
                    j += 1
                fields.append(int(buf[i:j]))
                i = j
            else:
                return None
        if len(fields) == 2:
            return ("pnm", fields[0], fields[1])
    return None


class DecodeMedia:
    """Actor-pool stage: binary payload -> (ok, bytes, width, height, format).

    `backend="real"` parses actual image headers (`sniff_media`: PNG / GIF /
    BMP / JPEG / PNM) with no external library; unrecognized payloads get
    media_ok=False.  `backend="fake"` derives deterministic pseudo-metadata
    from the payload bytes so plumbing tests run on any binary column
    (e.g. the webtable html column).
    """

    def __init__(self, payload_col: str = "html", backend: str = "fake"):
        if backend not in ("fake", "real"):
            raise ValueError(f"unknown backend {backend!r}")
        self.payload_col = payload_col
        self.backend = backend

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column(self.payload_col)
        lengths = []
        oks = []
        w, h, fmt = [], [], []
        for v in payloads.to_pylist():
            if v is None:
                oks.append(False)
                lengths.append(0)
                w.append(None)
                h.append(None)
                fmt.append(None)
            elif self.backend == "real":
                meta = sniff_media(v)
                lengths.append(len(v))
                if meta is None:
                    oks.append(False)
                    w.append(None)
                    h.append(None)
                    fmt.append(None)
                else:
                    oks.append(True)
                    fmt.append(meta[0])
                    w.append(meta[1])
                    h.append(meta[2])
            else:
                oks.append(True)
                lengths.append(len(v))
                # deterministic fake dimensions from content
                w.append(64 + (len(v) % 1024))
                h.append(64 + (sum(v[:16]) % 1024) if len(v) else 64)
                fmt.append("fake")
        out = batch.drop_columns([self.payload_col])
        return (
            out.append_column("media_ok", pa.array(oks, pa.bool_()))
            .append_column("media_bytes", pa.array(lengths, pa.int64()))
            .append_column("media_w", pa.array(w, pa.int32()))
            .append_column("media_h", pa.array(h, pa.int32()))
            .append_column("media_format", pa.array(fmt, pa.string()))
        )


def decode_pnm(buf: bytes) -> np.ndarray | None:
    """Pure-numpy pixel decode of binary PNM (P5 gray / P6 RGB, maxval<256):
    (h, w) or (h, w, 3) uint8 array, or None if not a binary PNM."""
    if len(buf) < 2 or buf[0:1] != b"P" or buf[1:2] not in b"56":
        return None
    channels = 3 if buf[1:2] == b"6" else 1
    fields: list[int] = []
    i = 2
    n = len(buf)
    while i < n and len(fields) < 3:
        c = buf[i : i + 1]
        if c == b"#":
            while i < n and buf[i : i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < n and buf[j : j + 1].isdigit():
                j += 1
            fields.append(int(buf[i:j]))
            i = j
        else:
            return None
    if len(fields) < 3 or fields[2] > 255:
        return None
    i += 1  # single whitespace after maxval
    w, h = fields[0], fields[1]
    need = w * h * channels
    if n - i < need:
        return None
    arr = np.frombuffer(buf, np.uint8, need, i)
    return arr.reshape(h, w, channels) if channels == 3 else arr.reshape(h, w)


def encode_pnm(arr: np.ndarray) -> bytes:
    """Inverse of decode_pnm (maxval 255)."""
    if arr.ndim == 3:
        head = b"P6\n%d %d\n255\n" % (arr.shape[1], arr.shape[0])
    else:
        head = b"P5\n%d %d\n255\n" % (arr.shape[1], arr.shape[0])
    return head + np.ascontiguousarray(arr, np.uint8).tobytes()


class ResizeMedia:
    """Actor-pool stage: image payload -> resized payload.

    `backend="real"` does a TRUE nearest-neighbor pixel resize for binary
    PNM payloads (uncompressed, decodable with numpy alone — no media
    library in this container); compressed formats (PNG/JPEG/...) come back
    media_ok=False, honestly marked undecodable.  `backend="fake"` emits a
    deterministic byte slice of the target size so plumbing tests run on
    arbitrary binary columns.
    """

    def __init__(self, payload_col: str = "html", width: int = 64,
                 height: int = 64, backend: str = "real"):
        if backend not in ("fake", "real"):
            raise ValueError(f"unknown backend {backend!r}")
        self.payload_col = payload_col
        self.w = width
        self.h = height
        self.backend = backend

    def _resize(self, img: np.ndarray) -> np.ndarray:
        ys = (np.arange(self.h) * img.shape[0] // self.h).clip(0, img.shape[0] - 1)
        xs = (np.arange(self.w) * img.shape[1] // self.w).clip(0, img.shape[1] - 1)
        return img[ys][:, xs]

    def __call__(self, batch: pa.Table) -> pa.Table:
        oks, outs, ws, hs = [], [], [], []
        for v in batch.column(self.payload_col).to_pylist():
            img = decode_pnm(v) if (v is not None and self.backend == "real") else None
            if img is not None:
                r = self._resize(img)
                oks.append(True)
                outs.append(encode_pnm(r))
                ws.append(self.w)
                hs.append(self.h)
            elif self.backend == "fake" and v is not None:
                size = self.w * self.h
                rep = (v * (size // max(1, len(v)) + 1))[:size]
                oks.append(True)
                outs.append(rep)
                ws.append(self.w)
                hs.append(self.h)
            else:
                oks.append(False)
                outs.append(None)
                ws.append(None)
                hs.append(None)
        out = batch.drop_columns([self.payload_col])
        return (
            out.append_column("resized", pa.array(outs, pa.large_binary()))
            .append_column("resize_ok", pa.array(oks, pa.bool_()))
            .append_column("out_w", pa.array(ws, pa.int32()))
            .append_column("out_h", pa.array(hs, pa.int32()))
        )


class ExtractFeatures:
    """Actor-pool stage: binary payload -> fixed-dim feature vector.

    STUB kernel: 16-bin byte histogram (deterministic, vectorized) standing
    in for a real embedding model.  The actor pattern (weights loaded once
    in __init__), list<float> output schema and batch sizing are the real
    contract a model stage would use.
    """

    def __init__(self, payload_col: str = "html", dim: int = FEATURE_DIM):
        self.payload_col = payload_col
        self.dim = dim
        # "model load" happens once per actor: here, the bin edges
        self.edges = np.linspace(0, 256, dim + 1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = []
        for v in batch.column(self.payload_col).to_pylist():
            if v is None or len(v) == 0:
                feats.append(np.zeros(self.dim, np.float32))
                continue
            arr = np.frombuffer(v, np.uint8)
            hist, _ = np.histogram(arr, bins=self.edges)
            feats.append((hist / len(arr)).astype(np.float32))
        out = batch.drop_columns([self.payload_col])
        return out.append_column(
            "features", pa.array([f.tolist() for f in feats], pa.list_(pa.float32()))
        )


def extract_features(ds, payload_col: str = "html",
                     concurrency: int | tuple = (1, 4),
                     batch_size: int = 256):
    return ds.map_batches(
        ExtractFeatures,
        fn_constructor_kwargs={"payload_col": payload_col},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )
