"""Manifest fsck: manifest-vs-disk reconciliation (the reference's stubbed
`manage update`, /root/reference/src/main.rs:148-150, implemented) —
clean run, missing output, size drift, orphan file, corrupt record,
repair -> resume re-encodes exactly the stale partitions."""

import glob
import json

import pytest

from nem_mms_ray.pipelines.decode import verify_files
from nem_mms_ray.pipelines.encode import encode_files
from nem_mms_ray.state.manifest import Manifest
from nem_mms_ray.webtable import SMALL, write_webtable

TARGET = 1 << 20


@pytest.fixture(scope="module")
def web_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("webf")
    write_webtable(d, 2000, shard_rows=1000, cfg=SMALL, row_group_rows=512)
    return d


def _paths(web_dir):
    return sorted(glob.glob(str(web_dir / "*.parquet")))


def _encode(web_dir, out):
    return encode_files(_paths(web_dir), out, target_bytes=TARGET).to_pandas()


def test_fsck_clean_after_encode(ray_session, web_dir, tmp_path):
    out = tmp_path / "enc"
    _encode(web_dir, out)
    rep = Manifest(out).fsck()
    assert rep["clean"] and rep["ok"] == rep["checked"] > 0
    assert not (rep["missing_output"] or rep["size_drift"]
                or rep["orphan_file"] or rep["corrupt_record"])


def test_fsck_findings_and_repair_resume(ray_session, web_dir, tmp_path):
    out = tmp_path / "enc"
    _encode(web_dir, out)
    m = Manifest(out)
    parts = sorted(out.glob("part-*.parquet"))
    assert len(parts) >= 3, "need >=3 partitions for 3 fault injections"

    # fault 1: output file deleted behind the manifest's back
    parts[0].unlink()
    # fault 2: output file truncated (size drift)
    data = parts[1].read_bytes()
    parts[1].write_bytes(data[: len(data) // 2])
    # fault 3: orphan encoded file no record references
    orphan = out / "part-999999.parquet"
    orphan.write_bytes(b"not a real parquet")
    # fault 4: corrupt record JSON
    rec2 = m.record_path(2)
    rec2.write_text("{corrupt")
    # non-fault: a FOREIGN parquet outside the encoder's part-* namespace
    # is none of fsck's business
    foreign = out / "user_notes.parquet"
    foreign.write_bytes(b"user data")

    rep = m.fsck()
    assert not rep["clean"]
    assert [f["pid"] for f in rep["missing_output"]] == [0]
    assert [f["pid"] for f in rep["size_drift"]] == [1]
    # a corrupt record can't vouch for its output: part-000002.parquet is
    # reported orphan alongside the planted fake; repair deletes both and
    # resume re-encodes the partition
    assert rep["orphan_file"] == ["part-000002.parquet",
                                  "part-999999.parquet"]
    assert rep["corrupt_record"] == ["part-000002.json"]

    # read-only: nothing deleted yet
    assert rec2.exists() and orphan.exists()

    rep2 = m.fsck(repair=True)
    assert rep2["repaired"] and not orphan.exists()
    assert not m.record_path(0).exists() and not m.record_path(1).exists() \
        and not rec2.exists()
    # the drifted output was deleted with its record: ONE repair pass
    # leaves the directory fsck-clean, and the foreign file is untouched
    assert not parts[1].exists()
    assert m.fsck()["clean"]
    assert foreign.exists()

    # resume re-encodes exactly the 3 stale partitions; round-trip green
    metrics = _encode(web_dir, out)
    redone = metrics[~metrics["skipped"]]
    assert sorted(redone["pid"].tolist()) == [0, 1, 2]
    assert Manifest(out).fsck()["clean"]
    v = verify_files(_paths(web_dir), out, target_bytes=TARGET).to_pandas()
    assert bool(v["ok"].all())


def test_fsck_cli_exit_codes(ray_session, web_dir, tmp_path, capsys):
    from nem_mms_ray.__main__ import main

    out = tmp_path / "enc"
    _encode(web_dir, out)
    assert main(["describe", str(out), "--fsck"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["clean"]

    next(iter(sorted(out.glob("part-*.parquet")))).unlink()
    assert main(["describe", str(out), "--fsck"]) == 1
    assert main(["describe", str(out), "--fsck", "--repair"]) == 0

    # manifest-less directory (e.g. a SOURCE dir passed by mistake):
    # refuse with exit 2 and NEVER touch its parquet files
    src_dir = tmp_path / "not_an_encode_dir"
    src_dir.mkdir()
    keepme = src_dir / "data.parquet"
    keepme.write_bytes(b"source data")
    assert main(["describe", str(src_dir), "--fsck", "--repair"]) == 2
    assert keepme.exists()


def test_fsck_refuses_manifestless_dir(tmp_path):
    with pytest.raises(FileNotFoundError, match="no manifest"):
        Manifest(tmp_path).fsck()
