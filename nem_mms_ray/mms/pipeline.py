"""MMS parse pipeline: expand -> parse (parallel per file) -> route -> write.

The Ray-native rebuild of `nem-mms parse <PATH>`
(/root/reference/src/main.rs:92-100 -> src/packages/mod.rs:196-237): files
fan out as Dataset blocks, each task parses its file's CSV members
(including nested zips) into typed per-package Arrow tables, and results
route to per-package Parquet.  Differences from the reference, by design:

- the reference materializes every parsed record of every file in RAM, then
  holds all output batches in a HashMap before writing
  (/root/reference/src/packages/mod.rs:197-218); here each file is parsed in
  its own task and tables stream to the writer
- unrecognized packages are counted and reported, not silently printed
  (/root/reference/src/packages/mod.rs:201-207 prints and drops)
- the END OF REPORT control total — parsed but never checked by the
  reference (/root/reference/src/flatfile.rs:477-487) — is verified here and
  surfaced as a per-file mismatch flag
- `layout="partitioned"` (default) writes out_dir/PKG/part-*.parquet, the
  scalable resumable layout; `layout="reference"` reproduces the reference's
  single-file-per-package naming (path for one package, stem_PKG.parquet for
  several, /root/reference/src/packages/mod.rs:224-233)
"""

from __future__ import annotations

import io
import os
import tempfile
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from nem_mms_ray.mms.flatfile import MmsParseError, parse_flatfile_bytes
from nem_mms_ray.mms.sources import expand_paths, iter_file_csv_bytes


def _ipc(table: pa.Table) -> bytes:
    sink = io.BytesIO()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return sink.getvalue()


def _unipc(buf: bytes) -> pa.Table:
    with pa.ipc.open_stream(pa.py_buffer(buf)) as r:
        return r.read_all()


def _parse_file_task(batch: pa.Table, write_dir: str | None = None) -> pa.Table:
    """Parse each input file's members; one row per logical table.

    With `write_dir` set (the partitioned scale path), each task writes its
    tables straight to `write_dir/PKG/part-f...parquet` (deterministic names
    -> resumable) and ships only summary rows — parsed data never crosses to
    the driver.  Without it, tables return as Arrow IPC payloads (the
    reference-layout path, where one writer owns each output file)."""
    out = []
    for row in batch.to_pylist():
        path = row["path"]
        file_idx = row["file_idx"]
        for member_idx, (member, data) in enumerate(iter_file_csv_bytes(path)):
            parsed = parse_flatfile_bytes(data)
            eor = parsed.end_of_report_count()
            # control-total check: EOR counts every C/I/D record incl. the
            # header comment and itself; a declared total that disagrees
            # with the observed record count flags the member
            eor_ok = eor is None or eor == parsed.total_record_count()
            for table_idx, t in enumerate(parsed.tables):
                if t.package is None:
                    out.append({
                        "package": "", "file_idx": file_idx,
                        "member_idx": member_idx, "table_idx": table_idx,
                        "rows": t.num_data_rows, "ipc": b"",
                        "skipped_header": f"{t.report_type},{t.report_subtype}",
                        "eor_declared": eor if eor is not None else -1,
                        "eor_ok": eor_ok,
                        "source": member, "written": "",
                    })
                    continue
                arrow = t.to_arrow()
                rec = {
                    "package": t.package.name, "file_idx": file_idx,
                    "member_idx": member_idx, "table_idx": table_idx,
                    "rows": arrow.num_rows, "ipc": b"",
                    "skipped_header": "",
                    "eor_declared": eor if eor is not None else -1,
                    "eor_ok": eor_ok,
                    "source": member, "written": "",
                }
                if write_dir is not None:
                    tgt = (Path(write_dir) / t.package.name /
                           f"part-f{file_idx:05d}-m{member_idx:03d}-t{table_idx:03d}.parquet")
                    tgt.parent.mkdir(parents=True, exist_ok=True)
                    # tmp+rename: a killed run never leaves a truncated part
                    # at a deterministic (resume-advertised) name
                    fd, tmp = tempfile.mkstemp(dir=tgt.parent, suffix=".tmp")
                    os.close(fd)
                    try:
                        pq.write_table(arrow, tmp)
                        os.replace(tmp, tgt)
                    except BaseException:
                        try:
                            os.unlink(tmp)
                        except OSError:
                            pass
                        raise
                    rec["written"] = str(tgt)
                else:
                    rec["ipc"] = _ipc(arrow)
                out.append(rec)
    schema = pa.schema([
        ("package", pa.string()), ("file_idx", pa.int64()),
        ("member_idx", pa.int64()), ("table_idx", pa.int64()),
        ("rows", pa.int64()), ("ipc", pa.large_binary()),
        ("skipped_header", pa.string()), ("eor_declared", pa.int64()),
        ("eor_ok", pa.bool_()),
        ("source", pa.string()), ("written", pa.string()),
    ])
    return pa.Table.from_pylist(out, schema=schema)


def parse_dataset(input_path: str | Path, write_dir: str | Path | None = None):
    """Lazy Dataset of parsed-table rows, one block per file.

    With `write_dir`, tables land as worker-written parquet parts and the
    rows are summaries; without, rows carry the tables as Arrow IPC."""
    import functools

    import ray.data as rd

    files = expand_paths(input_path)
    if not files:
        raise MmsParseError(f"no .csv/.zip inputs under {input_path}")
    items = [{"path": str(p), "file_idx": i} for i, p in enumerate(files)]
    ds = rd.from_items(items, override_num_blocks=len(items))
    fn = (functools.partial(_parse_file_task, write_dir=str(write_dir))
          if write_dir is not None else _parse_file_task)
    return ds.map_batches(fn, batch_size=1, batch_format="pyarrow")


def parse_to_parquet(
    input_path: str | Path,
    out_path: str | Path,
    layout: str = "partitioned",
) -> dict:
    """Run the parse pipeline and write per-package Parquet.  Returns a
    summary dict (packages written, row counts, skipped headers)."""
    out_path = Path(out_path)
    summary: dict = {"packages": {}, "skipped": [], "files": 0, "eor_mismatches": []}
    seen_files = set()
    seen_eor_bad = set()

    def note_eor(r) -> None:
        key = (r["file_idx"], r["member_idx"])
        if not r["eor_ok"] and key not in seen_eor_bad:
            seen_eor_bad.add(key)
            summary["eor_mismatches"].append(
                {"source": r["source"], "declared": r["eor_declared"]})

    if layout == "partitioned":
        # scale path: workers write their own parts; only summary rows (no
        # table payloads) ever reach the driver
        rows = parse_dataset(input_path, write_dir=out_path).take_all()
        for r in rows:
            seen_files.add(r["file_idx"])
            note_eor(r)
            if not r["package"]:
                summary["skipped"].append(r["skipped_header"])
                continue
            p = summary["packages"].setdefault(
                r["package"], {"rows": 0, "path": str(out_path / r["package"])})
            p["rows"] += r["rows"]
        summary["files"] = len(seen_files)
        return summary

    # reference layout: one writer per package file, streamed driver-side
    # (/root/reference/src/packages/mod.rs:196-237 semantics).  CONTRACT:
    # table payloads cross to the driver as IPC rows, but only ONE table is
    # ever decoded in driver memory at a time — rows stream through
    # iter_batches (with preserve_order, so (file, member, table) order is
    # the input order) into per-package ParquetWriters.  The final names
    # depend on whether ONE or MANY packages occur (path vs stem_PKG.path,
    # /root/reference/src/packages/mod.rs:224-233), which is only known at
    # end-of-stream — so writers target a temp dir and finish with a
    # create-new-checked rename (the reference refuses to clobber,
    # /root/reference/src/packages/mod.rs:116-120).
    from ray.data import DataContext

    ctx = DataContext.get_current()
    prev_order = ctx.execution_options.preserve_order
    ctx.execution_options.preserve_order = True
    tmp_dir = Path(tempfile.mkdtemp(prefix=".nem_ref_layout_",
                                    dir=str(out_path.parent or ".")))
    writers: dict[str, pq.ParquetWriter] = {}
    try:
        results = parse_dataset(input_path)
        for batch in results.iter_batches(batch_size=1, batch_format="pyarrow"):
            for r in batch.to_pylist():
                seen_files.add(r["file_idx"])
                note_eor(r)
                if not r["package"]:
                    summary["skipped"].append(r["skipped_header"])
                    continue
                table = _unipc(r["ipc"])
                pkg = r["package"]
                if pkg not in writers:
                    writers[pkg] = pq.ParquetWriter(tmp_dir / f"{pkg}.parquet",
                                                    table.schema)
                    summary["packages"][pkg] = {"rows": 0}
                writers[pkg].write_table(table)
                summary["packages"][pkg]["rows"] += table.num_rows
        for w in writers.values():
            w.close()
        packages = sorted(writers)

        def target_for(pkg: str) -> Path:
            # /root/reference/src/packages/mod.rs:224-233 naming semantics
            if len(packages) == 1:
                return out_path
            if out_path.suffix:
                return out_path.with_name(f"{out_path.stem}_{pkg}{out_path.suffix}")
            return out_path / f"{pkg}.parquet"

        targets = {pkg: target_for(pkg) for pkg in packages}
        for pkg, tgt in targets.items():
            if tgt.exists():
                raise FileExistsError(f"output already exists: {tgt}")
        for pkg, tgt in targets.items():
            tgt.parent.mkdir(parents=True, exist_ok=True)
            os.replace(tmp_dir / f"{pkg}.parquet", tgt)
            summary["packages"][pkg]["path"] = str(tgt)
    finally:
        ctx.execution_options.preserve_order = prev_order
        for w in writers.values():
            try:
                w.close()
            except Exception:
                pass
        import shutil

        shutil.rmtree(tmp_dir, ignore_errors=True)
    summary["files"] = len(seen_files)
    return summary
