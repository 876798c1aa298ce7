"""The one native-kernel loader (`nem_mms_ray._native`): its cache key,
and what happens when no kernel can be built — every loader returns None
and every op's scalar reference gives the C kernel's output."""

from __future__ import annotations

import importlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nem_mms_ray import _native
from nem_mms_ray.codecs import _bitpack_native, _fsst_native
from nem_mms_ray.codecs.bitpack import pack_bits, unpack_bits
from nem_mms_ray.codecs.fsst import train_symbols
from nem_mms_ray.ops import _webextract_native
from nem_mms_ray.ops.textstats import LangId, token_stats_batch
from nem_mms_ray.ops.webextract import extract_binary
from nem_mms_ray.ops.winnow import _flat_corpus, _flat_hashes
from nem_mms_ray.pipelines.encode import EncodePartitions, plan_partitions
from nem_mms_ray.state.manifest import Manifest
from nem_mms_ray.webtable import SMALL, generate_shard

LOADERS = ("nem_mms_ray.codecs._bitpack_native", "nem_mms_ray.codecs._fsst_native",
           "nem_mms_ray.ops._langid_native",
           "nem_mms_ray.ops._setops_native", "nem_mms_ray.ops._webextract_native",
           "nem_mms_ray.ops._winnow_native")


def test_cache_key_covers_source_flags_and_cpu(tmp_path):
    src = b"int f(void) { return 1; }\n"
    flags = (("-O3", "-march=native"), ("-O3",))
    path = _native.so_path(src, "k", flags, "sse2 avx2", tmp_path)
    assert path == _native.so_path(src, "k", flags, "sse2 avx2", tmp_path)
    assert path.parent == tmp_path and path.name.startswith("k_")
    assert path != _native.so_path(src, "k", flags, "sse2 avx512f", tmp_path)
    assert path != _native.so_path(src, "k", (("-O3",),), "sse2 avx2", tmp_path)
    assert path != _native.so_path(src + b"\n", "k", flags, "sse2 avx2", tmp_path)
    # the default key is this CPU's feature set
    assert (_native.so_path(src, "k", flags, None, tmp_path)
            == _native.so_path(src, "k", flags, _native.cpu_features(), tmp_path))


def _text_bytes(shard: pa.Table) -> bytes:
    return "".join(t or "" for t in shard.column("text").to_pylist()).encode()


def _outputs(shard: pa.Table, table) -> dict:
    """Every native-backed op's output on one webtable shard."""
    data = _text_bytes(shard)
    enc = _fsst_native.encode(*table, data)
    docs = pa.table({"doc_id": pa.array(range(shard.num_rows), pa.int64()),
                     "text": shard.column("text")})
    texts = docs.column("text").to_pylist()
    lengths = np.array([len(t or "") for t in texts], np.int64)
    packed = {w: pack_bits(lengths, w) for w in (3, 17, 64)}
    return {
        "pack_bits": packed,
        "unpack_bits": {w: unpack_bits(b, len(lengths), w).tobytes()
                        for w, b in packed.items()},
        "fsst_encode": enc,
        "fsst_decode": _fsst_native.decode(*table, enc, len(data)),
        "token_stats": token_stats_batch(docs),
        "langid": LangId()(docs),
        "rolling_hashes": _flat_hashes(_flat_corpus(texts)[0], 3).tobytes(),
        "extract": extract_binary(shard.column("html")).to_pylist(),
    }


@pytest.mark.parametrize("failure", ["unusable_build_dir", "missing_compiler"])
def test_no_kernel_falls_back_to_reference(failure, monkeypatch, tmp_path):
    if _fsst_native.get_lib() is None or _webextract_native.get_lib() is None:
        pytest.skip("no C compiler in this environment")
    shard = generate_shard(3, 300, 0, SMALL)
    table = train_symbols(_text_bytes(shard))
    with_c = _outputs(shard, table)
    assert with_c["fsst_decode"] == _text_bytes(shard)

    _disable_kernels(failure, monkeypatch, tmp_path)
    for name in LOADERS:
        assert importlib.import_module(name).get_lib() is None, name

    reference = _outputs(shard, table)
    for key in with_c:
        assert reference[key] == with_c[key], key


def _disable_kernels(failure: str, monkeypatch, tmp_path) -> None:
    """Make every loader fail the way `failure` names, from a cold cache."""
    monkeypatch.setattr(_native, "_LIBS", {})
    if failure == "unusable_build_dir":
        monkeypatch.setenv("NEM_MMS_RAY_BUILD", "/proc/nem_mms_ray_build")
    else:
        monkeypatch.setenv("NEM_MMS_RAY_BUILD", str(tmp_path / "build"))
        monkeypatch.setattr(_native, "CC", "nem-mms-ray-no-such-cc")


def _encode_and_record(tmp_path, name: str):
    """Encode a small web partition; its encoded rows and manifest record."""
    src = tmp_path / "in.parquet"
    if not src.exists():
        pq.write_table(generate_shard(3, 300, 0, SMALL), src)
    specs = plan_partitions([str(src)])
    out = tmp_path / name
    EncodePartitions(str(out), ["url", "lang", "warc_ts"])(
        pa.Table.from_pylist([s.to_row() for s in specs]))
    return pq.read_table(out / "part-000000.parquet"), Manifest(out).load(0)


def test_manifest_records_kernel_path(monkeypatch, tmp_path):
    """Each partition record says whether the FSST and bit-packing kernels
    ran; without them the reference path writes the same encoded rows."""
    if _fsst_native.get_lib() is None or _bitpack_native.get_lib() is None:
        pytest.skip("no C compiler in this environment")
    with_c, rec = _encode_and_record(tmp_path, "c")
    assert rec.native == {"fsst_kernel": True, "bitpack_kernel": True}

    _disable_kernels("unusable_build_dir", monkeypatch, tmp_path)
    reference, rec = _encode_and_record(tmp_path, "reference")
    assert rec.native == {"fsst_kernel": False, "bitpack_kernel": False}
    assert reference.equals(with_c)
