"""Merge-order-invariant per-column sketches driving codec selection.

This is the engine's analog of the reference's "inspect the data, pick the
format" dispatch (`Package::from_information_record`,
/root/reference/src/packages/mod.rs:89-100) and of its `DataValue::from_str`
inference cascade (/root/reference/src/flatfile.rs:619-640): a cheap pass
over (a sample of) each partition's data that decides the physical encoding.

Every sketch field merges order-invariantly (sums, min/max, KMV hash union)
so that an N-cpu and a 4N-cpu run over the same partition produce the same
sketch and therefore the same codec plan (SURVEY.md §7.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from nem_mms_ray import dtypes

KMV_K = 2048  # keep the K smallest 64-bit hashes -> ndv estimate
_FSST_SAMPLE_MIN = 4096


@dataclass
class ColumnSketch:
    column: str
    dtype: str
    n: int = 0
    nulls: int = 0
    value_bytes: int = 0          # payload bytes of the values
    run_count: int = 0            # runs (summed per chunk; >= true runs)
    int_min: int | None = None
    int_max: int | None = None
    max_len: int = 0              # longest string/binary value
    delta_width: int | None = None  # bits for (delta - min_delta); int-like only
    kmv: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint64))
    fsst_ratio: float | None = None   # measured sample compression ratio
    # ALP probe (floats only): smallest 10^e that represents every sampled
    # value exactly as an integer (None = not decimalizable), + value range
    float_scale: int | None = None
    f_min: float | None = None
    f_max: float | None = None

    @property
    def int_range(self) -> int | None:
        if self.int_min is None or self.int_max is None:
            return None
        return self.int_max - self.int_min

    @property
    def ndv(self) -> int:
        """KMV distinct-count estimate (exact when < KMV_K distincts seen)."""
        m = len(self.kmv)
        if m == 0:
            return 0
        if m < KMV_K:
            return m
        kth = float(self.kmv[-1])
        if kth == 0:
            return m
        return max(m, int((KMV_K - 1) * (2.0**64) / kth))

    # -- serialization through Ray / Arrow ---------------------------------
    def to_row(self) -> dict:
        return {
            "column": self.column,
            "dtype": self.dtype,
            "n": self.n,
            "nulls": self.nulls,
            "value_bytes": self.value_bytes,
            "run_count": self.run_count,
            "int_min": self.int_min,
            "int_max": self.int_max,
            "max_len": self.max_len,
            "delta_width": self.delta_width,
            "kmv": self.kmv.tobytes(),
            "fsst_ratio": self.fsst_ratio,
            "float_scale": self.float_scale,
            "f_min": self.f_min,
            "f_max": self.f_max,
        }

    @classmethod
    def from_row(cls, row: dict) -> "ColumnSketch":
        sk = cls(column=row["column"], dtype=row["dtype"])
        sk.n = int(row["n"])
        sk.nulls = int(row["nulls"])
        sk.value_bytes = int(row["value_bytes"])
        sk.run_count = int(row["run_count"])
        sk.int_min = None if row["int_min"] is None else int(row["int_min"])
        sk.int_max = None if row["int_max"] is None else int(row["int_max"])
        sk.max_len = int(row["max_len"])
        dw = row.get("delta_width") if isinstance(row, dict) else row["delta_width"]
        sk.delta_width = None if dw is None or (isinstance(dw, float) and np.isnan(dw)) else int(dw)
        sk.kmv = np.frombuffer(bytes(row["kmv"]), np.uint64).copy()
        fr = row["fsst_ratio"]
        sk.fsst_ratio = None if fr is None or (isinstance(fr, float) and np.isnan(fr)) else float(fr)

        def _opt(key, cast):
            v = row.get(key)
            return None if v is None or (isinstance(v, float) and np.isnan(v)) else cast(v)

        sk.float_scale = _opt("float_scale", int)
        sk.f_min = _opt("f_min", float)
        sk.f_max = _opt("f_max", float)
        return sk


def _hash_values(arr: pa.Array) -> np.ndarray:
    """Deterministic 64-bit hashes of the non-null values (vectorized)."""
    dense = arr.drop_null()
    if len(dense) == 0:
        return np.zeros(0, np.uint64)
    np_vals = dense.to_numpy(zero_copy_only=False)
    return pd.util.hash_array(np_vals, categorize=False).astype(np.uint64)


def _run_count(arr: pa.Array) -> int:
    n = len(arr)
    if n <= 1:
        return n
    filled = dtypes.fill_nulls(arr)
    neq = pc.not_equal(filled.slice(1), filled.slice(0, n - 1))
    return int(np.asarray(neq.fill_null(True)).sum()) + 1


ALP_MAX_EXP = 9  # probe decimal scales 10^0 .. 10^9
ALP_HEAD = 64  # values an exponent must pass before a full-array check


def alp_find_scale(v: np.ndarray) -> int | None:
    """Smallest e in [0, ALP_MAX_EXP] such that every finite value of `v`
    (float32/float64, no NaN/inf) is exactly round(v*10^e)/10^e down to the
    bit pattern (the ALP idea: real-world floats are mostly scaled decimals).
    Returns None if no scale is exact.  See `alp_scale_ints`."""
    return alp_scale_ints(v)[0]


def alp_scale_ints(v: np.ndarray) -> tuple[int | None, np.ndarray | None]:
    """`alp_find_scale`'s exponent plus the int64 round(v*10^e) it verified
    (None, None when no scale is exact).

    Values are verified through int64 and the codec's own decode
    expression: float-domain verification would wrongly accept -0.0
    (np.round keeps the sign of zero, the integer pipeline cannot).
    The check is elementwise, so an exponent whose first `ALP_HEAD` values
    fail it fails the whole array and is rejected without a full pass.  A
    head that reaches 2^53 goes on to the full check, which then returns
    None exactly as a full pass at that exponent would: |v*10^e| only grows
    with e, so no later exponent could pass either."""
    from nem_mms_ray.codecs.alp import from_ints

    if len(v) == 0:
        return 0, np.zeros(0, np.int64)
    if not np.all(np.isfinite(v)):
        return None, None
    bits = v.view(np.uint64 if v.dtype == np.float64 else np.uint32)
    v64 = v.astype(np.float64, copy=False)

    def exact(ints, e, n=None):
        ints = ints.astype(np.int64, copy=False)
        return np.array_equal(from_ints(ints, e, v.dtype).view(bits.dtype), bits[:n])

    for e in range(ALP_MAX_EXP + 1):
        if len(v) > ALP_HEAD:
            head = np.round(v64[:ALP_HEAD] * 10.0 ** e)
            if np.abs(head).max() < 2.0 ** 53 and not exact(head, e, ALP_HEAD):
                continue
        ints = np.round(v64 * 10.0 ** e)
        if np.abs(ints).max() >= 2.0 ** 53:
            return None, None
        ints = ints.astype(np.int64)
        if exact(ints, e):
            return e, ints
    return None, None


def _alp_probe(arr: pa.Array):
    dense = arr.drop_null()
    v = np.asarray(dense)
    e = alp_find_scale(v)
    if e is None:
        return None, None, None
    if len(v) == 0:
        return e, None, None
    return e, float(v.min()), float(v.max())


def sketch_array(column: str, arr: pa.Array, with_fsst_probe: bool = True) -> ColumnSketch:
    """Sketch one chunk of one column."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    typ = arr.type
    sk = ColumnSketch(column=column, dtype=dtypes.type_to_str(typ))
    sk.n = len(arr)
    sk.nulls = arr.null_count
    if sk.n == 0:
        return sk

    if dtypes.is_string_like(typ):
        lens = pc.binary_length(arr)
        total = pc.sum(lens)
        sk.value_bytes = int(total.as_py() or 0)
        mx = pc.max(lens)
        sk.max_len = int(mx.as_py() or 0)
    elif pa.types.is_boolean(typ):
        sk.value_bytes = (sk.n + 7) // 8
    else:
        sk.value_bytes = sk.n * (typ.bit_width // 8)

    if dtypes.is_int_like(typ):
        iv = arr.view(dtypes.int_view_type(typ)) if not pa.types.is_integer(typ) else arr
        mm = pc.min_max(iv)
        mn, mx = mm["min"].as_py(), mm["max"].as_py()
        sk.int_min = None if mn is None else int(mn)
        sk.int_max = None if mx is None else int(mx)
        dense = np.asarray(dtypes.fill_nulls(iv)).astype(np.uint64)
        if len(dense) > 1:
            d = np.diff(dense)
            rel = d - d.min()
            from nem_mms_ray.codecs.bitpack import bit_width

            sk.delta_width = bit_width(int(rel.max()))
        else:
            sk.delta_width = 0

    if pa.types.is_floating(typ):
        sk.float_scale, sk.f_min, sk.f_max = _alp_probe(arr)

    sk.run_count = _run_count(arr)

    h = np.unique(_hash_values(arr))
    sk.kmv = h[:KMV_K] if len(h) > KMV_K else h

    if with_fsst_probe and dtypes.is_string_like(typ) and sk.value_bytes >= _FSST_SAMPLE_MIN:
        from nem_mms_ray.codecs.fsst import _string_buffers, take_sample, train_symbols
        from nem_mms_ray.codecs import _fsst_native as native

        _, data = _string_buffers(dtypes.fill_nulls(arr))
        sample = take_sample(data, 1 << 16)
        syms = train_symbols(sample)
        enc = native.encode(*syms, sample)
        sk.fsst_ratio = len(enc) / max(1, len(sample))
    return sk


def merge_sketches(parts: list[ColumnSketch]) -> ColumnSketch:
    """Order-invariant merge of sketches of the same column."""
    assert parts
    out = ColumnSketch(column=parts[0].column, dtype=parts[0].dtype)
    kmvs = []
    ratios = []
    for p in sorted(parts, key=lambda p: (p.n, p.value_bytes)):
        out.n += p.n
        out.nulls += p.nulls
        out.value_bytes += p.value_bytes
        out.run_count += p.run_count
        out.max_len = max(out.max_len, p.max_len)
        if p.delta_width is not None:
            out.delta_width = p.delta_width if out.delta_width is None else max(out.delta_width, p.delta_width)
        if p.int_min is not None:
            out.int_min = p.int_min if out.int_min is None else min(out.int_min, p.int_min)
        if p.int_max is not None:
            out.int_max = p.int_max if out.int_max is None else max(out.int_max, p.int_max)
        kmvs.append(p.kmv)
        if p.fsst_ratio is not None:
            ratios.append((p.value_bytes, p.fsst_ratio))
        if p.f_min is not None:
            out.f_min = p.f_min if out.f_min is None else min(out.f_min, p.f_min)
        if p.f_max is not None:
            out.f_max = p.f_max if out.f_max is None else max(out.f_max, p.f_max)
    h = np.unique(np.concatenate(kmvs)) if kmvs else np.zeros(0, np.uint64)
    out.kmv = h[:KMV_K] if len(h) > KMV_K else h
    if ratios:
        w = sum(r[0] for r in ratios)
        out.fsst_ratio = sum(b * r for b, r in ratios) / max(1, w)
    # ALP scale merges to the coarsest part scale ONLY if every part
    # decimalized (any non-decimal part poisons the column: max is
    # order-invariant, and a larger e still represents smaller-e values)
    scales = [p.float_scale for p in parts]
    if all(s is not None for s in scales):
        out.float_scale = max(scales)
    return out


def sketch_table(table: pa.Table, columns: list[str] | None = None) -> dict[str, ColumnSketch]:
    cols = columns or table.column_names
    return {c: sketch_array(c, table.column(c)) for c in cols}
