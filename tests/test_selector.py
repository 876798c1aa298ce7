"""Selector tests (SURVEY.md §5 plan item 2): synthetic columns with known
stats must get the expected codec — the analog of the reference's
package-dispatch match (/root/reference/src/packages/mod.rs:89-100)."""

import numpy as np
import pyarrow as pa

from nem_mms_ray.pipelines.encode import EncodePartitions
from nem_mms_ray.selector import select_codec
from nem_mms_ray.stats import sketch_array


def test_low_cardinality_string_gets_dict():
    lang = pa.array(np.random.default_rng(1).choice(["en", "fr", "de"], 5000))
    plan = select_codec(sketch_array("lang", lang))
    assert plan.codec == "dict"


def test_clustered_timestamps_get_delta_or_for():
    ts = pa.array(np.arange(20000) * 250_000 + 1_700_000_000_000_000, type=pa.timestamp("us"))
    plan = select_codec(sketch_array("warc_ts", ts))
    assert plan.codec == "delta"  # constant step -> delta beats FOR outright


def test_random_ints_get_for_not_delta():
    rng = np.random.default_rng(9)
    v = pa.array(rng.integers(0, 1000, 20000))
    plan = select_codec(sketch_array("x", v))
    # unordered: deltas span the range, so the width-minimal packer wins
    # (or dict); never delta
    assert plan.codec in ("for", "dict")


def test_high_entropy_text_gets_fsst(tmp_path):
    rng = np.random.default_rng(2)
    words = ["content", "page", "data", "search", "article", "the", "and"]
    text = pa.array([" ".join(rng.choice(words, 50)) + str(i) for i in range(2000)])
    plans, symbols = EncodePartitions(str(tmp_path))._plan(pa.table({"text": text}))
    assert plans["text"].codec == "fsst"
    assert list(symbols) == ["text"]


def test_constant_column_gets_rle_or_dict():
    const = pa.array(["same-value"] * 10000)
    plan = select_codec(sketch_array("c", const))
    assert plan.codec in ("rle", "dict")


def test_kmv_ndv_accuracy():
    rng = np.random.default_rng(4)
    vals = pa.array(rng.integers(0, 50_000, 200_000))
    sk = sketch_array("x", vals)
    true_ndv = len(np.unique(np.asarray(vals)))
    assert abs(sk.ndv - true_ndv) / true_ndv < 0.15


def test_webtable_plan_matches_north_star(tmp_path):
    from nem_mms_ray.webtable import SMALL, generate_shard

    t = generate_shard(0, 2000, 0, SMALL)
    plans, _ = EncodePartitions(str(tmp_path))._plan(t)
    plan = {c: p.codec for c, p in plans.items()}
    assert plan["lang"] == "dict"
    assert plan["warc_ts"] in ("delta", "for")
    assert plan["url"] == "fsst"
    assert plan["text"] == "fsst"
    assert plan["html"] == "fsst"
