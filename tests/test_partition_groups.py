"""Partition specs grouped into one Ray task per CPU slot: the grouping
rule, the task count it gives on a real session, and resume after a crash
inside a group."""

import glob
import json
import re
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nem_mms_ray.pipelines.decode import decode_files, verify_files
from nem_mms_ray.pipelines.encode import (
    EncodePartitions,
    encode_files,
    partition_groups,
    plan_partitions,
)
from nem_mms_ray.state.manifest import Manifest, atomic_write
from nem_mms_ray.webtable import SMALL, generate_shard, write_webtable


def _weight_cases():
    rng = np.random.default_rng(20)
    yield [7]
    yield [0, 0, 0, 0, 0]
    yield [1] * 9
    yield [10**9] + [1] * 12          # one giant partition first
    yield [1] * 12 + [10**9]          # ... and last
    yield [5, 10**9, 5, 5, 10**9, 5]  # two giants among small ones
    for n in (2, 5, 13, 64):
        yield rng.integers(0, 1 << 30, n).tolist()
        yield (rng.pareto(1.2, n) * 1e6).astype(int).tolist()


@pytest.mark.parametrize("cpus", [1, 2, 3, 4, 8, 100])
def test_partition_groups_rule(cpus):
    for weights in _weight_cases():
        groups = partition_groups(weights, {"CPU": float(cpus)})
        assert groups == partition_groups(list(weights), {"CPU": float(cpus)})
        # every spec in exactly one group, pid order kept within and across
        assert [i for g in groups for i in g] == list(range(len(weights)))
        assert len(groups) == min(len(weights), cpus)
        assert all(len(g) > 0 for g in groups)
        share = sum(weights) / len(groups)
        heaviest = max(sum(weights[i] for i in g) for g in groups)
        assert heaviest <= share + max(weights), (weights, groups)


@pytest.mark.parametrize("resources", [{"CPU": 0.0}, {"CPU": 0.5}, {}, {"GPU": 4.0}])
def test_partition_groups_without_cpus_is_one_group(resources):
    assert partition_groups([3, 1, 4, 1, 5], resources) == [range(0, 5)]


def test_partition_groups_without_partitions():
    assert partition_groups([], {"CPU": 4.0}) == [range(0, 0)]


def _tasks(ds, fn_name: str) -> int:
    """Map tasks the materialized Dataset ran for its `fn_name` operator."""
    counts = re.findall(rf"MapBatches\({fn_name}\): (\d+) tasks executed", ds.stats())
    assert len(counts) == 1, ds.stats()
    return int(counts[0])


@pytest.fixture(scope="module")
def web_paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("web")
    write_webtable(d, 3000, shard_rows=1500, cfg=SMALL, row_group_rows=512)
    return sorted(glob.glob(str(d / "*.parquet")))


def test_one_map_task_per_cpu_slot(ray_session, web_paths, tmp_path):
    import ray

    target = 1 << 16
    n = len(plan_partitions(web_paths, target))
    cpus = int(ray.cluster_resources()["CPU"])
    assert n >= 6 and cpus == 4
    out = tmp_path / "enc"
    enc = encode_files(web_paths, out, target_bytes=target).materialize()
    assert _tasks(enc, "_encode_task") == min(n, cpus)
    rows = enc.to_pandas()
    assert sorted(rows["pid"]) == list(range(n))
    assert list(rows.columns) == ["pid", "rows", "orig_bytes", "encoded_bytes",
                                  "wall_sec", "skipped", "codecs"]
    assert not rows["skipped"].any()

    ver = verify_files(web_paths, out).materialize()
    assert _tasks(ver, "_verify_task") == min(n, cpus)
    rows = ver.to_pandas()
    assert sorted(rows["pid"]) == list(range(n)) and rows["ok"].all()
    assert list(rows.columns) == ["pid", "rows", "ok", "mismatched_columns"]

    dec = decode_files(out, tmp_path / "dec").materialize()
    assert _tasks(dec, "_decode_task") == min(n, cpus)
    assert sorted(dec.to_pandas()["pid"]) == list(range(n))


def test_encode_and_verify_without_partitions(ray_session, tmp_path):
    """An input with no row groups plans no partition: one empty group,
    no metric rows."""
    src = tmp_path / "empty.parquet"
    pq.ParquetWriter(src, pa.schema([("a", pa.int64())])).close()
    assert encode_files([src], tmp_path / "enc").to_pandas().empty
    assert verify_files([src], tmp_path / "enc").to_pandas().empty


def _three_partitions(tmp_path):
    """One group of three partition specs (one per row group) and the
    directory a clean encode of it wrote."""
    src = tmp_path / "in.parquet"
    pq.write_table(generate_shard(0, 3000, 0, SMALL), src, row_group_size=1000)
    specs = plan_partitions([src], target_bytes=1)  # one partition per row group
    assert len(specs) == 3
    batch = pa.Table.from_pylist([s.to_row() for s in specs])
    clean = tmp_path / "clean"
    EncodePartitions(str(clean))(batch)
    return batch, clean


def _assert_as_clean(out, clean, capsys):
    """No temporary file, no fsck finding, and the bytes of a clean run."""
    from nem_mms_ray.__main__ import main

    assert not list(out.rglob("*.tmp"))
    assert main(["describe", str(out), "--fsck"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["clean"] and rep["ok"] == rep["checked"] == 3
    names = sorted(p.name for p in clean.glob("part-*.parquet"))
    assert names == sorted(p.name for p in out.glob("part-*.parquet"))
    for name in names:
        assert (out / name).read_bytes() == (clean / name).read_bytes(), name


def test_crash_inside_a_group_resumes_unfinished_partitions(tmp_path, monkeypatch, capsys):
    """A grouped task dies writing its second partition's record: the rerun
    of the same group skips the first partition, re-encodes the other two,
    leaves no temporary file and no fsck finding, and writes the bytes a
    clean run writes."""
    batch, clean = _three_partitions(tmp_path)

    real_write = Manifest.write
    writes = []

    def crash_on_second(self, rec):
        writes.append(rec.pid)
        if len(writes) == 2:
            with atomic_write(self.record_path(rec.pid)) as tmp:
                Path(tmp).write_text('{"pid": ')  # half-written record
                raise OSError("no space left on device")
        real_write(self, rec)

    out = tmp_path / "enc"
    monkeypatch.setattr(Manifest, "write", crash_on_second)
    with pytest.raises(OSError, match="no space"):
        EncodePartitions(str(out))(batch)
    assert writes == [0, 1]
    # the second partition's file landed before its record: an orphan
    assert Manifest(out).fsck()["orphan_file"] == ["part-000001.parquet"]
    first = (out / "part-000000.parquet").stat().st_mtime_ns

    def recording(self, rec):
        writes.append(rec.pid)
        real_write(self, rec)

    writes.clear()
    monkeypatch.setattr(Manifest, "write", recording)
    res = EncodePartitions(str(out))(batch)
    assert res.column("pid").to_pylist() == [0, 1, 2]
    assert res.column("skipped").to_pylist() == [True, False, False]
    assert writes == [1, 2]
    assert (out / "part-000000.parquet").stat().st_mtime_ns == first
    _assert_as_clean(out, clean, capsys)


def test_crash_at_a_partition_file_commit_resumes_that_partition(tmp_path, monkeypatch, capsys):
    """The rename that commits the last partition's encoded file fails
    once: that partition leaves no file, no record and no temporary file;
    the rerun encodes it alone, and the run ends as a clean run does."""
    import os

    batch, clean = _three_partitions(tmp_path)
    real_replace = os.replace
    failed = []

    def replace_once(src, dst):
        if Path(dst).name == "part-000002.parquet" and not failed:
            failed.append(dst)
            raise OSError("input/output error")
        real_replace(src, dst)

    out = tmp_path / "enc"
    monkeypatch.setattr(os, "replace", replace_once)
    with pytest.raises(OSError, match="input/output"):
        EncodePartitions(str(out))(batch)
    assert len(failed) == 1
    assert not (out / "part-000002.parquet").exists()
    assert not Manifest(out).record_path(2).exists()
    assert not list(out.rglob("*.tmp"))
    done = {p: (out / f"part-{p:06d}.parquet").stat().st_mtime_ns for p in (0, 1)}

    writes = []
    real_write = Manifest.write

    def recording(self, rec):
        writes.append(rec.pid)
        real_write(self, rec)

    monkeypatch.setattr(Manifest, "write", recording)
    res = EncodePartitions(str(out))(batch)
    assert res.column("skipped").to_pylist() == [True, True, False]
    assert writes == [2]
    assert {p: (out / f"part-{p:06d}.parquet").stat().st_mtime_ns for p in (0, 1)} == done
    _assert_as_clean(out, clean, capsys)
