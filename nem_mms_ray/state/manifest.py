"""Checkpoint manifest: per-partition lineage records enabling exact resume.

Completes the reference's vestigial `manage` layer
(/root/reference/src/manage/state.rs:104-148 — a data-directory scan with a
round-trip-tested filename scheme but an unimplemented `update`): here the
manifest is load-bearing.  One JSON record per partition under
`<out_dir>/_manifest/part-{pid:06d}.json`, written atomically (tmp+rename)
after the partition's encoded file lands; resume skips partitions whose
record and output both exist (the skip-and-continue semantics of the
reference's downloader, /root/reference/src/packages/fetch.rs:250-258,
made idempotent).

Partition ids derive from input fragment paths + row-group ranges — never
from scheduling order — so N-cpu and 4N-cpu runs agree (SURVEY.md §7.4).

Scale shape: manifest volume is O(partitions) small JSON files — at
100 TB / 64 MiB that is ~1.6M files, the same order as the data files
themselves and the standard table-format trade (Iceberg/Delta manifest
listings).  Writers touch exactly one record each (no contention, no
append log to serialize); only driver-side metadata passes (`load_all`,
`summary`, `fsck`, resume's `is_done` probe) list the directory, and a
listing of millions of names is a filesystem metadata scan, not a data
scan.  If the store's per-directory listing becomes the bottleneck,
records shard by pid prefix without changing any caller (record_path is
the single naming site).
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path: str | Path):
    """Yield a temporary path next to `path`; once the block finishes, the
    temporary replaces `path` in one rename.  If the block raises, the
    temporary is removed and `path` is left as it was."""
    fd, tmp = tempfile.mkstemp(dir=Path(path).parent, suffix=".tmp")
    os.close(fd)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


@dataclass
class PartitionRecord:
    pid: int
    input_file: str
    row_groups: list[int]
    rows: int = 0
    orig_bytes: int = 0          # arrow value bytes of the inputs
    encoded_bytes: int = 0       # codec payload bytes (pre-parquet)
    file_bytes: int = 0          # bytes of the encoded parquet file on disk
    codecs: dict = field(default_factory=dict)       # column -> codec name
    column_bytes: dict = field(default_factory=dict)  # column -> [orig, encoded]
    wall_sec: float = 0.0
    done: bool = False
    output_file: str = ""
    # kernel path of the encode: {"fsst_kernel": bool, "bitpack_kernel": bool}
    # (False = the scalar reference ran); {} on records that predate it
    native: dict = field(default_factory=dict)
    # input columns read as Arrow dictionaries (Parquet dictionary pages
    # kept, `encode._dict_read_columns`); [] on records that predate it
    dict_read: list = field(default_factory=list)

    @property
    def ratio(self) -> float:
        return self.encoded_bytes / self.orig_bytes if self.orig_bytes else 0.0


class Manifest:
    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.dir = self.out_dir / "_manifest"

    def init(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)

    def record_path(self, pid: int) -> Path:
        return self.dir / f"part-{pid:06d}.json"

    # -- run-level header: pins the plan the partition records belong to ----
    def run_header_path(self) -> Path:
        return self.dir / "run.json"

    def write_run_header(self, inputs: list[str], target_bytes: int,
                         n_partitions: int) -> None:
        """Record the run's plan identity (sorted input set + target_bytes).
        `check_run_header` refuses to resume into an out_dir whose manifest
        was produced by a different plan — the per-record lineage check
        guards single partitions, this guards the whole run."""
        self.init()
        with atomic_write(self.run_header_path()) as tmp:
            Path(tmp).write_text(json.dumps({
                "inputs": sorted({str(p) for p in inputs}),
                "target_bytes": int(target_bytes),
                "n_partitions": int(n_partitions),
            }, sort_keys=True))

    def read_run_header(self) -> dict | None:
        """The run header, or None for a fresh out_dir (or a manifest that
        predates headers)."""
        p = self.run_header_path()
        if not p.exists():
            return None
        with open(p) as f:
            return json.load(f)

    def check_run_header(self, inputs: list[str], target_bytes: int) -> None:
        hdr = self.read_run_header()
        if hdr is None:
            return  # nothing to check
        want = sorted({str(x) for x in inputs})
        if hdr.get("inputs") != want or hdr.get("target_bytes") != int(target_bytes):
            raise ValueError(
                f"manifest at {self.dir} was written by a different run "
                f"(inputs or target_bytes changed); use a fresh out_dir or "
                f"delete the stale manifest to re-encode")

    def is_done(
        self,
        pid: int,
        input_file: str | None = None,
        row_groups: list[int] | None = None,
    ) -> bool:
        """True iff partition `pid` completed AND (when given) the stored
        lineage matches the current plan — re-running into the same out_dir
        with different inputs or target_bytes re-encodes instead of silently
        reusing a stale partition."""
        p = self.record_path(pid)
        if not p.exists():
            return False
        try:
            rec = self.load(pid)
        except (json.JSONDecodeError, OSError, TypeError):
            return False
        if not rec.done:
            return False
        if input_file is not None and rec.input_file != str(input_file):
            return False
        if row_groups is not None and list(rec.row_groups) != list(row_groups):
            return False
        return not rec.output_file or Path(rec.output_file).exists()

    def write(self, rec: PartitionRecord) -> None:
        self.init()
        with atomic_write(self.record_path(rec.pid)) as tmp:
            Path(tmp).write_text(json.dumps(asdict(rec), sort_keys=True))

    def load(self, pid: int) -> PartitionRecord:
        with open(self.record_path(pid)) as f:
            return PartitionRecord(**json.load(f))

    def load_all(self) -> list[PartitionRecord]:
        if not self.dir.exists():
            return []
        recs = []
        for p in sorted(self.dir.glob("part-*.json")):
            with open(p) as f:
                recs.append(PartitionRecord(**json.load(f)))
        return recs

    def fsck(self, repair: bool = False) -> dict:
        """Reconcile the manifest against the on-disk encoded files — the
        implemented analog of the reference's `manage update`, which is
        stubbed there ("Not implemented yet, sorry",
        /root/reference/src/main.rs:148-150) over the same state the
        filename scheme in src/manage/state.rs round-trips.

        Checks, per record: unparseable JSON (`corrupt_record`), a done
        record whose output file is gone (`missing_output`) or whose
        on-disk size drifted from the recorded file_bytes (`size_drift`);
        plus encoded parquet files in out_dir referenced by no record
        (`orphan_file` — including the output of a corrupt record, which
        can no longer vouch for it; only the encoder's `part-*.parquet`
        namespace is considered).  Read-only by default; `repair=True`
        deletes the stale records, the drifted outputs, and the orphan
        files — so resume re-encodes exactly those partitions and a fresh
        fsck of the repaired dir is clean in one pass.  Raises
        FileNotFoundError when out_dir has no manifest at all (most likely
        a wrong path — never treat a manifest-less directory's parquet as
        orphans).  Offline tool: do not run `repair` against a live encode
        (a partition's parquet lands before its record and would read as
        an orphan in that window)."""
        if not self.dir.exists():
            # refuse rather than classify every parquet in a manifest-less
            # directory (e.g. a SOURCE dir passed by mistake) as an orphan
            # — with repair=True that would delete user data
            raise FileNotFoundError(
                f"no manifest at {self.dir}: not an encode output directory")
        out = {"checked": 0, "ok": 0, "corrupt_record": [],
               "missing_output": [], "size_drift": [], "orphan_file": [],
               "repaired": repair}
        referenced: set[str] = set()
        stale_records: list[Path] = []
        stale_outputs: list[Path] = []
        for p in sorted(self.dir.glob("part-*.json")):
            out["checked"] += 1
            try:
                with open(p) as f:
                    rec = PartitionRecord(**json.load(f))
            except (json.JSONDecodeError, OSError, TypeError):
                out["corrupt_record"].append(p.name)
                stale_records.append(p)
                continue
            if rec.output_file:
                referenced.add(str(Path(rec.output_file).resolve()))
            if rec.done and rec.output_file:
                op = Path(rec.output_file)
                if not op.exists():
                    out["missing_output"].append(
                        {"pid": rec.pid, "output_file": rec.output_file})
                    stale_records.append(p)
                    continue
                size = op.stat().st_size
                if rec.file_bytes and size != rec.file_bytes:
                    out["size_drift"].append(
                        {"pid": rec.pid, "output_file": rec.output_file,
                         "recorded": rec.file_bytes, "on_disk": size})
                    stale_records.append(p)
                    stale_outputs.append(op)  # the drifted file is
                    # stale too: delete with its record so the repaired
                    # dir passes a fresh fsck in one pass
                    continue
            out["ok"] += 1
        # only the encoder's own namespace: foreign parquet in out_dir is
        # none of fsck's business
        orphans = [f for f in sorted(self.out_dir.glob("part-*.parquet"))
                   if str(f.resolve()) not in referenced]
        out["orphan_file"] = [f.name for f in orphans]
        if repair:
            for p in stale_records:
                p.unlink(missing_ok=True)
            for f in orphans + stale_outputs:
                f.unlink(missing_ok=True)
        out["clean"] = not (out["corrupt_record"] or out["missing_output"]
                            or out["size_drift"] or out["orphan_file"])
        return out

    def summary(self) -> dict:
        recs = self.load_all()
        done = [r for r in recs if r.done]
        orig = sum(r.orig_bytes for r in done)
        enc = sum(r.encoded_bytes for r in done)
        return {
            "partitions": len(recs),
            "done": len(done),
            "rows": sum(r.rows for r in done),
            "orig_bytes": orig,
            "encoded_bytes": enc,
            "file_bytes": sum(r.file_bytes for r in done),
            "ratio": enc / orig if orig else 0.0,
            "wall_sec_sum": sum(r.wall_sec for r in done),
        }
