"""Run-level FSST tables (`pipelines/encode.py` module docstring).

A string column's FSST table is trained once per run, on partition 0's
plan sample; later partitions reuse it unless it drifted.  So an encoded
partition's bytes depend on its own data and partition 0's plan sample
only: not on how partitions are grouped into tasks, on the CPU count, or
on which partitions a resume still has to encode.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nem_mms_ray.pipelines import encode
from nem_mms_ray.pipelines.decode import decode_partition_file
from nem_mms_ray.pipelines.encode import (EncodePartitions, _encode_task, encode_files,
                                          partition_groups, plan_partitions)
from nem_mms_ray.state.manifest import Manifest
from nem_mms_ray.webtable import SMALL, generate_shard


def _counting_train(monkeypatch) -> list[int]:
    from nem_mms_ray.codecs import fsst

    calls: list[int] = []
    real = fsst.train_symbols

    def train(sample, *a, **k):
        calls.append(len(sample))
        return real(sample, *a, **k)

    monkeypatch.setattr(fsst, "train_symbols", train)
    return calls


@pytest.fixture(scope="module")
def web_specs(tmp_path_factory):
    """Two web files of two 1000-row row groups: four partitions."""
    d = tmp_path_factory.mktemp("web")
    paths = []
    for i in range(2):
        p = d / f"web-{i:05d}.parquet"
        pq.write_table(generate_shard(i, 2000, 2000 * i, SMALL), p, row_group_size=1000)
        paths.append(str(p))
    specs = plan_partitions(paths, target_bytes=1)  # one partition per row group
    assert len(specs) == 4
    return specs


def _files(out) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("part-*.parquet"))}


def _encode_in_groups(specs, out, cpus: int) -> dict[str, bytes]:
    """What `encode_files` runs on a `cpus`-CPU cluster, without Ray: one
    `_encode_task` per group, each handed partition 0's spec."""
    rows = [s.to_row() for s in specs]
    groups = partition_groups([s.approx_bytes for s in specs], {"CPU": cpus})
    assert len(groups) == min(cpus, len(specs))
    for g in groups:
        _encode_task(pa.Table.from_pylist(rows[g.start:g.stop]), out_dir=str(out),
                     columns=None, run_spec=rows[0])
    return _files(out)


def test_one_group_and_four_groups_write_identical_files(web_specs, tmp_path, monkeypatch):
    calls = _counting_train(monkeypatch)
    one = _encode_in_groups(web_specs, tmp_path / "one", cpus=1)
    trained_once = len(calls)
    four = _encode_in_groups(web_specs, tmp_path / "four", cpus=4)
    assert len(one) == 4 and one == four
    # one task trains each run table once; with four, the three tasks
    # without partition 0 train the same tables again from its sample
    recs = Manifest(tmp_path / "one").load_all()
    assert all(set(r.fsst_tables.values()) == {"run"} for r in recs)
    assert sorted(recs[0].fsst_tables) == ["html", "text", "url"]
    assert trained_once == 3 and len(calls) - trained_once == 3 + 3 * 3
    # perfbench's in-process run: no spec given, the first partition is
    # partition 0
    EncodePartitions(str(tmp_path / "noarg"))(
        pa.Table.from_pylist([s.to_row() for s in web_specs]))
    assert _files(tmp_path / "noarg") == one


def test_ray_encode_matches_one_group(ray_session, web_specs, tmp_path):
    """Through Ray on the 4-CPU test session: four tasks, the same bytes."""
    one = _encode_in_groups(web_specs, tmp_path / "one", cpus=1)
    paths = sorted({s.path for s in web_specs})
    encode_files(paths, tmp_path / "ray", target_bytes=1).materialize()
    assert _files(tmp_path / "ray") == one


def test_resume_after_partition_0_is_done(web_specs, tmp_path, monkeypatch):
    """The rerun skips partition 0, reads its sample for the run tables
    once, and writes the bytes of a clean run."""
    clean = _encode_in_groups(web_specs, tmp_path / "clean", cpus=1)
    rows = [s.to_row() for s in web_specs]
    out = tmp_path / "enc"
    _encode_task(pa.Table.from_pylist(rows[:1]), out_dir=str(out), columns=None,
                 run_spec=rows[0])
    reads = []
    real = EncodePartitions._read_run_tables
    monkeypatch.setattr(EncodePartitions, "_read_run_tables",
                        lambda self, spec: reads.append(spec.pid) or real(self, spec))
    res = _encode_task(pa.Table.from_pylist(rows), out_dir=str(out), columns=None,
                       run_spec=rows[0])
    assert res.column("skipped").to_pylist() == [True, False, False, False]
    assert reads == [0]
    assert _files(out) == clean


def _words(rng, alphabet: str, n: int) -> list[str]:
    letters = np.array(list(alphabet))
    return [" ".join("".join(rng.choice(letters, rng.integers(3, 9)))
                     for _ in range(rng.integers(8, 20))) for _ in range(n)]


def test_drifted_file_trains_its_own_table(tmp_path):
    """A planted file in another alphabet trains its own table and says so;
    the file after it is back on the run's table (partition 0's)."""
    rng = np.random.default_rng(5)
    latin = "abcdefghijklmnopqrstuvwxyz"
    greek = "αβγδεζηθικλμνξοπρστυφχψω"
    paths = []
    for i, alphabet in enumerate([latin, greek, latin]):
        p = tmp_path / f"in-{i}.parquet"
        pq.write_table(pa.table({"text": _words(rng, alphabet, 1500)}), p)
        paths.append(str(p))
    specs = plan_partitions(paths)
    stage = EncodePartitions(str(tmp_path / "enc"))
    recs = [stage._encode_partition(s) for s in specs]
    assert [r.codecs["text"] for r in recs] == ["fsst"] * 3
    assert [r.fsst_tables for r in recs] == [{"text": "run"}, {"text": "own"},
                                             {"text": "run"}]
    for r, path in zip(recs, paths):
        assert decode_partition_file(r.output_file).equals(pq.read_table(path))


def test_column_partition_0_lacks_trains_per_partition(tmp_path, monkeypatch):
    """A column first seen after partition 0 has no run table: each
    partition that has it trains its own."""
    rng = np.random.default_rng(6)
    latin = "abcdefghijklmnopqrstuvwxyz"
    a, b, c = (tmp_path / f"in-{i}.parquet" for i in range(3))
    pq.write_table(pa.table({"text": _words(rng, latin, 1500)}), a)
    for p in (b, c):
        pq.write_table(pa.table({"text": _words(rng, latin, 1500),
                                 "note": [f"note {i}: " + w for i, w in
                                          enumerate(_words(rng, latin, 1500))]}), p)
    calls = _counting_train(monkeypatch)
    stage = EncodePartitions(str(tmp_path / "enc"))
    recs = [stage._encode_partition(s) for s in plan_partitions([a, b, c])]
    assert [r.fsst_tables for r in recs] == [
        {"text": "run"}, {"text": "run", "note": "own"}, {"text": "run", "note": "own"}]
    assert len(calls) == 3  # text once for the run, note once per partition


def test_describe_counts_run_and_own_tables(tmp_path, capsys):
    """`describe` counts, per FSST column, the partitions on the run's
    table and on their own; a record that predates the field still
    describes and counts for neither."""
    from nem_mms_ray.__main__ import main

    rng = np.random.default_rng(7)
    latin = "abcdefghijklmnopqrstuvwxyz"
    paths = []
    for i, alphabet in enumerate([latin, "αβγδεζηθικλμνξοπρστυφχψω", latin]):
        p = tmp_path / f"in-{i}.parquet"
        pq.write_table(pa.table({"text": _words(rng, alphabet, 1500)}), p)
        paths.append(p)
    out = tmp_path / "enc"
    EncodePartitions(str(out))(pa.Table.from_pylist(
        [s.to_row() for s in plan_partitions(paths)]))
    assert main(["describe", str(out)]) == 0
    cols = json.loads(capsys.readouterr().out)["columns"]
    assert cols["text"]["fsst_tables"] == {"run": 2, "own": 1}

    rec_path = Manifest(out).record_path(2)
    old = json.loads(rec_path.read_text())
    del old["fsst_tables"]
    rec_path.write_text(json.dumps(old))
    assert main(["describe", str(out)]) == 0
    cols = json.loads(capsys.readouterr().out)["columns"]
    assert cols["text"]["fsst_tables"] == {"run": 1, "own": 1}


def test_drift_rule_is_one_constant():
    """The drift rule: keep the run's table while its ratio on the
    partition's sample is within `RUN_TABLE_DRIFT` of partition 0's."""
    sample = b"the quick brown fox jumps over the lazy dog " * 200
    run = encode._fsst_table(sample, None)
    assert not run.run
    run = encode.FsstTable(run.symbols, run.ratio, run=True)
    kept = encode._fsst_table(sample, run)
    assert kept.run and kept.symbols is run.symbols and kept.ratio == run.ratio
    drifted = encode.FsstTable(run.symbols, run.ratio - encode.RUN_TABLE_DRIFT - 1e-9,
                               run=True)
    own = encode._fsst_table(sample, drifted)
    assert not own.run and own.symbols is not run.symbols
