"""Per-column sketches driving codec selection.

This is the engine's analog of the reference's "inspect the data, pick the
format" dispatch (`Package::from_information_record`,
/root/reference/src/packages/mod.rs:89-100) and of its `DataValue::from_str`
inference cascade (/root/reference/src/flatfile.rs:619-640): a cheap pass
over (a sample of) each partition's data that decides the physical encoding.

Each partition is sketched from its own sample (the first rows of its
first row group, `EncodePartitions._plan`), so the plan depends only on
the partition's data: an N-cpu and a 4N-cpu run produce the same sketches
and therefore the same codec plan (SURVEY.md §7.4).  The FSST ratio is
filled in by `_plan`, which measures the symbol table it then encodes with
(the run's table from partition 0's sample, or one it trains) on the
partition's own sample.

String-like columns are first sketched from their lengths alone
(`sketch_array(..., exact=False)`): `value_bytes` and `max_len` are exact,
and the distinct count and run count are FLOORS.  Values of different
lengths differ, so the number of distinct non-null lengths bounds the
distinct values from below, and 1 + the number of adjacent length changes
(nulls as length 0, as `fill_nulls` makes them "") bounds the runs.  Only
`DictCodec.estimate` reads `ndv` and only `RleCodec.estimate` reads
`run_count`, and each estimate never decreases as its number grows: when
neither dict nor rle wins at the floors, the exact counts cannot make
either win, so the plan is the exact sketch's plan.  `_plan` runs the
exact pass (KMV hashes over every value byte, `run_starts`) only when dict
or rle still can.  The KMV count could fall below the distinct-length
floor only through a 64-bit hash collision between values of different
lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from nem_mms_ray import dtypes
from nem_mms_ray.codecs.alp import from_ints
from nem_mms_ray.codecs.bitpack import bit_width
from nem_mms_ray.codecs.rle import run_starts

KMV_K = 2048  # keep the K smallest 64-bit hashes -> ndv estimate


@dataclass
class ColumnSketch:
    """Per-column summary the codec estimates read.  With `exact` False
    (string-like columns sketched from lengths only) `ndv` is the
    distinct-length floor and `run_count` the length-change floor; every
    other field is exact either way."""

    column: str
    dtype: str
    n: int = 0
    nulls: int = 0
    value_bytes: int = 0          # payload bytes of the values
    run_count: int = 0            # runs of equal adjacent values
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
    exact: bool = True            # False: ndv/run_count are length floors
    ndv_floor: int = 0            # distinct non-null lengths (floor sketch)

    @property
    def int_range(self) -> int | None:
        if self.int_min is None or self.int_max is None:
            return None
        return self.int_max - self.int_min

    @property
    def ndv(self) -> int:
        """KMV distinct-count estimate (exact when < KMV_K distincts seen);
        the distinct-length floor on a floor sketch."""
        if not self.exact:
            return self.ndv_floor
        m = len(self.kmv)
        if m == 0:
            return 0
        if m < KMV_K:
            return m
        kth = float(self.kmv[-1])
        if kth == 0:
            return m
        return max(m, int((KMV_K - 1) * (2.0**64) / kth))


def _hash_values(arr: pa.Array) -> np.ndarray:
    """Deterministic 64-bit hashes of the non-null values (vectorized)."""
    dense = arr.drop_null()
    if len(dense) == 0:
        return np.zeros(0, np.uint64)
    np_vals = dense.to_numpy(zero_copy_only=False)
    return pd.util.hash_array(np_vals, categorize=False).astype(np.uint64)


ALP_MAX_EXP = 9  # probe decimal scales 10^0 .. 10^9
ALP_HEAD = 64  # values an exponent must pass before a full-array check


def alp_scale_ints(v: np.ndarray) -> tuple[int | None, np.ndarray | None]:
    """Smallest e in [0, ALP_MAX_EXP] such that every value of `v`
    (float32/float64) is exactly round(v*10^e)/10^e down to the bit pattern
    (the ALP idea: real-world floats are mostly scaled decimals), plus the
    int64 round(v*10^e) it verified; (None, None) when no scale is exact
    or `v` holds NaN/inf.

    Values are verified through int64 and the codec's own decode
    expression: float-domain verification would wrongly accept -0.0
    (np.round keeps the sign of zero, the integer pipeline cannot).
    The check is elementwise, so an exponent whose first `ALP_HEAD` values
    fail it fails the whole array and is rejected without a full pass.  A
    head that reaches 2^53 goes on to the full check, which then returns
    None exactly as a full pass at that exponent would: |v*10^e| only grows
    with e, so no later exponent could pass either."""
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
    e = alp_scale_ints(v)[0]
    if e is None:
        return None, None, None
    if len(v) == 0:
        return e, None, None
    return e, float(v.min()), float(v.max())


def sketch_array(column: str, arr: pa.Array, exact: bool = True) -> ColumnSketch:
    """Sketch one column of a partition's sample.  `exact=False` sketches a
    string-like column from its lengths only (see the module docstring);
    other types are always sketched exactly."""
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
        if not exact:
            # ndv >= min(distinct hashes, KMV_K): cap so the floor holds
            # past KMV's exact range too
            sk.ndv_floor = min(pc.count_distinct(lens).as_py(), KMV_K)
            ln = np.asarray(lens.fill_null(0))
            sk.run_count = 1 + int(np.count_nonzero(ln[1:] != ln[:-1]))
            sk.exact = False
            return sk
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
            sk.delta_width = bit_width(int(rel.max()))
        else:
            sk.delta_width = 0

    if pa.types.is_floating(typ):
        sk.float_scale, sk.f_min, sk.f_max = _alp_probe(arr)

    sk.run_count = len(run_starts(dtypes.fill_nulls(arr)))

    h = np.unique(_hash_values(arr))
    sk.kmv = h[:KMV_K] if len(h) > KMV_K else h
    return sk
