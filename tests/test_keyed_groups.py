"""`ops/readutil.keyed_map_groups`: the operators' one keyed group shuffle.

Checks the grouping contract (every row of a key reaches exactly one
`fn` call, nulls included), that the bucket column never reaches `fn`,
that keys sharing low bits still spread over buckets, and that the
bucket of a key does not depend on the process computing it.
"""
import json
import os
import subprocess
import sys
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from nem_mms_ray.ops import readutil
from nem_mms_ray.ops.readutil import bucket_keys, key_buckets, keyed_map_groups


def _keyed_input(n: int = 3000):
    """Int and string keys (with nulls) spread over several blocks."""
    import ray.data as rd

    rng = np.random.default_rng(5)
    k = rng.integers(0, 400, n) * 64  # every key a multiple of 64
    s = np.array([f"host{i}" for i in rng.integers(0, 50, n)], object)
    s[rng.random(n) < 0.1] = None
    t = pa.table({"k": pa.array(k, pa.int64()),
                  "s": pa.array(s.tolist(), pa.string()),
                  "v": pa.array(np.arange(n, dtype=np.int64))})
    return t, rd.from_arrow(t).repartition(6)


@pytest.mark.parametrize("key", ["k", "s"])
def test_each_key_reaches_one_call(ray_session, key):
    t, ds = _keyed_input()

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        n = g.groupby(key, dropna=False).size()
        return pd.DataFrame({key: n.index, "n": n.to_numpy(np.int64),
                             "call": uuid.uuid4().hex})

    got = keyed_map_groups(ds, [key], fn, "pandas").to_pandas()
    calls = got.groupby(key, dropna=False)["call"].nunique()
    assert (calls == 1).all()  # no key split across calls
    assert got["call"].nunique() > 1  # and the keys did spread
    want = t.to_pandas().groupby(key, dropna=False).size()
    have = got.set_index(key)["n"]
    assert len(have) == len(want) == have.index.nunique(dropna=False)
    assert have.reindex(want.index).tolist() == want.tolist()
    if key == "s":
        assert have.index.isna().sum() == 1  # one null group, all its rows
        assert int(have[have.index.isna()].iloc[0]) == int(t.column("s").null_count)


@pytest.mark.parametrize("fmt", ["pandas", "pyarrow", "numpy"])
def test_fn_never_sees_bucket_column(ray_session, fmt):
    _, ds = _keyed_input(500)

    def fn(g):
        cols = list(g.column_names if fmt == "pyarrow" else g.keys())
        return {"cols": [json.dumps(cols)]} if fmt == "numpy" else \
            pd.DataFrame({"cols": [json.dumps(cols)]})

    got = keyed_map_groups(ds, ["k", "s"], fn, fmt).to_pandas()
    assert {tuple(json.loads(c)) for c in got["cols"]} == {("k", "s", "v")}


def test_low_bit_keys_spread_over_buckets():
    """User ids that are all multiples of 64 fell into one bucket under the
    old `user_id % 64`; the mixed hash spreads them."""
    t = pa.table({"user_id": pa.array(np.arange(0, 64 * 1000, 64),
                                      pa.int64())})
    b = key_buckets(t, ["user_id"], readutil.N_BUCKETS)
    assert b.dtype == np.int32 and b.min() >= 0 and b.max() < 64
    assert len(np.unique(b)) > 32
    # the bucket of a key is a function of the key alone: batch-independent
    # (a null number never changes the others' hash), order-independent
    t2 = pa.table({"user_id": pa.array([None, *range(0, 640, 64)],
                                       pa.int64())})
    assert np.array_equal(key_buckets(t2, ["user_id"], 64)[1:], b[:10])


_PROBE = """
import json
import pyarrow as pa
from nem_mms_ray.ops.readutil import key_buckets
t = pa.table({"s": pa.array(["a", None, "host7", "x" * 40], pa.string()),
              "k": pa.array([0, 64, 2**62, -5], pa.int64())})
print(json.dumps([key_buckets(t, ["s"], 64).tolist(),
                  key_buckets(t, ["k"], 64).tolist(),
                  key_buckets(t, ["s", "k"], 64).tolist()]))
"""


@pytest.mark.parametrize("n", [1, 7, 64])
def test_bucket_keys_map_one_to_one(n):
    """`bucket_keys(n)[r]` lands in bucket r, so n pre-bucketed routes
    keep n distinct buckets through the shuffle."""
    keys = bucket_keys(n)
    assert keys.dtype == np.int32 and (keys >= 0).all()
    got = key_buckets(pa.table({"route": pa.array(keys)}), ["route"], n)
    assert got.tolist() == list(range(n))


def test_buckets_agree_across_processes():
    """Two processes with different string-hash salts compute the same
    buckets, so no salted Python `hash()` decides a bucket."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": root}
        outs.append(json.loads(subprocess.run(
            [sys.executable, "-c", _PROBE], env=env, check=True,
            capture_output=True, text=True).stdout))
    assert outs[0] == outs[1]
