"""In-process span tracing of the engine's layers, from outside the engine.

`Tracer.install()` wraps the engine's public module-level functions (and
the codec objects in its registry) with spans; `Tracer.restore()` puts the
originals back.  The engine's code is never edited: a span is opened by the
wrapper around each call into a layer, so a layer's time is the time spent
inside calls to it.

A span records its name, start, end, parent and a few attributes.  Its
self time is its duration minus the part its child spans cover, so the
self times of all spans below a root add up to exactly the part of the
root's wall that some layer accounts for (`coverage`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

_MISSING = object()


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "child_s")

    def __init__(self, name: str, parent: "Span | None", attrs: dict):
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.parent = parent
        self.attrs = attrs
        self.child_s = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        s = Span(name, self._stack[-1] if self._stack else None, attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if s.parent is not None:
                s.parent.child_s += s.dur

    def reset(self) -> None:
        self.spans = []

    # -- wrapping ------------------------------------------------------------
    def wrap(self, fn, name: str, attrs=None, caller: str | None = None):
        """`fn` with every call inside a span; `attrs(*args, **kw)` adds
        attributes to the span.  With `caller`, only calls made directly
        inside a span of that name get a span; other calls stay part of
        their caller's layer."""
        tracer = self

        def traced(*args, **kw):
            if caller is not None and (not tracer._stack or tracer._stack[-1].name != caller):
                return fn(*args, **kw)
            with tracer.span(name, **(attrs(*args, **kw) if attrs else {})):
                return fn(*args, **kw)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, attrs=None, caller: str | None = None) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, attrs, caller))

    def replace(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def install(self) -> None:
        """Wrap every layer boundary of the encode and decode paths."""
        from nem_mms_ray import dtypes
        from nem_mms_ray.codecs import REGISTRY, EncodedColumn
        from nem_mms_ray.codecs import _fsst_native, fsst
        from nem_mms_ray.pipelines import encode
        from nem_mms_ray.state.manifest import Manifest

        nbytes = lambda arr, *a, **k: {"mb": arr.nbytes / 1e6}  # noqa: E731
        for name, codec in REGISTRY.items():
            self.patch(codec, "encode", f"codecs.{name}.encode", nbytes)
            self.patch(codec, "decode", f"codecs.{name}.decode")
        self.patch(encode, "sketch_array", "stats.sketch")
        self.patch(encode, "plan_for_sketches", "selector.plan")
        self.patch(encode, "_attach_zone_map", "encode.zone_map")
        self.patch(fsst, "train_symbols", "codecs.fsst.train",
                   lambda sample, *a, **k: {"bytes": len(sample)})
        # FSST's training sample, cut by the partition driver's planner: the
        # planner is the only caller of these directly inside a partition
        # (codecs and sketches call fill_nulls too, inside their own spans)
        for owner, attr in ((fsst, "take_sample"), (fsst, "_string_buffers"),
                            (dtypes, "fill_nulls")):
            self.patch(owner, attr, "codecs.fsst.sample", caller="encode.partition")
        self.patch(_fsst_native, "encode", "native.fsst.encode")
        self.patch(_fsst_native, "decode_np", "native.fsst.decode")
        self.patch(EncodedColumn, "to_row", "encode.row_build")
        self.patch(Manifest, "write", "state.manifest.write")
        self.patch(Manifest, "is_done", "state.manifest.lookup")
        self.replace(encode, "pq", _TracedParquet(self, encode.pq))


class _TracedParquet:
    """Stand-in for the `pyarrow.parquet` module inside the encode module:
    opening and iterating input files is `read.input`, the output writer
    is `parquet.write`; everything else passes through."""

    def __init__(self, tracer: Tracer, pq):
        self._tracer = tracer
        self._pq = pq

    def __getattr__(self, name):
        return getattr(self._pq, name)

    def ParquetFile(self, *args, **kw):  # noqa: N802 - mirrors pyarrow
        with self._tracer.span("read.input"):
            return _TracedFile(self._tracer, self._pq.ParquetFile(*args, **kw))

    def ParquetWriter(self, *args, **kw):  # noqa: N802 - mirrors pyarrow
        with self._tracer.span("parquet.write"):
            return _TracedWriter(self._tracer, self._pq.ParquetWriter(*args, **kw))


class _TracedFile:
    def __init__(self, tracer: Tracer, pf):
        self._tracer = tracer
        self._pf = pf

    def __getattr__(self, name):
        return getattr(self._pf, name)

    def iter_batches(self, *args, **kw):
        it = self._pf.iter_batches(*args, **kw)
        while True:
            with self._tracer.span("read.input"):
                batch = next(it, None)
            if batch is None:
                return
            yield batch


class _TracedWriter:
    def __init__(self, tracer: Tracer, writer):
        self._tracer = tracer
        self._w = writer

    def write_table(self, table) -> None:
        with self._tracer.span("parquet.write"):
            self._w.write_table(table)

    def close(self) -> None:
        with self._tracer.span("parquet.write"):
            self._w.close()


def _inside(s: Span, name: str) -> bool:
    p = s.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def _codec_op(name: str) -> tuple[str, str] | None:
    """("fsst", "encode") for the span name "codecs.fsst.encode", else None."""
    parts = name.split(".")
    if len(parts) == 3 and parts[0] == "codecs" and parts[2] in ("encode", "decode"):
        return parts[1], parts[2]
    return None


def summarize(spans: list[Span], root: str) -> dict:
    """Per-layer totals under the `root` spans.

    Returns {"root_s", "covered_s",
             "layers": {name: {"calls", "self_s", "incl_s"}},
             "codec_encode": {codec: {"s", "mb"}}, "codec_decode": {codec: s},
             "train": {"calls", "bytes"}}.
    `incl_s` counts a span once even when it nests inside a span of the
    same name.  A codec's time excludes the codecs it calls (dict and rle
    encode their children through the registry) but includes the native
    kernels it calls."""
    out: dict = {"root_s": 0.0, "covered_s": 0.0, "layers": {},
                 "codec_encode": {}, "codec_decode": {},
                 "train": {"calls": 0, "bytes": 0}}
    codec_child: dict[int, float] = {}
    for s in spans:
        if s.name == root:
            out["root_s"] += s.dur
            out["covered_s"] += s.child_s
            continue
        lay = out["layers"].setdefault(s.name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        lay["calls"] += 1
        lay["self_s"] += s.self_s
        if not _inside(s, s.name):
            lay["incl_s"] += s.dur
        if _codec_op(s.name) and s.parent is not None and _codec_op(s.parent.name):
            codec_child[id(s.parent)] = codec_child.get(id(s.parent), 0.0) + s.dur
        if s.name == "codecs.fsst.train":
            out["train"]["calls"] += 1
            out["train"]["bytes"] += s.attrs.get("bytes", 0)
    for s in spans:
        op = _codec_op(s.name)
        if op is None:
            continue
        own = s.dur - codec_child.get(id(s), 0.0)
        if op[1] == "encode":
            c = out["codec_encode"].setdefault(op[0], {"s": 0.0, "mb": 0.0})
            c["s"] += own
            c["mb"] += s.attrs.get("mb", 0.0)
        else:
            out["codec_decode"][op[0]] = out["codec_decode"].get(op[0], 0.0) + own
    return out
