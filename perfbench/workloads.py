"""The timed end-to-end measurement of a workload.

Each workload drives the engine only through its public entry points
(`encode_files`, `verify_files`, `scan_encoded`, `web_pipeline`).  Every
correctness gate runs outside the timed sections and records into a
`Ledger`; a failed gate never stops the run, it counts in `failed`.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import inputs as inp_mod
from perfbench.inputs import Inputs, Query

TARGET_BYTES = 64 << 20      # encode partition target, both encode workloads
MIN_REPS = 6                 # encode+verify reps per run, at least
MAX_REPS = 20                # bounds a run whose every encode fails
FLAGSHIP_KW = dict(quality_min=0.5, lang="en", near_dedup=True, threshold=0.9,
                   resume=False)


class Ledger:
    """Operations attempted and failed; the first failures, described."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, attempted: int, failed: int, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 20:
            self.notes.append(f"{what} ({failed}/{attempted} failed)")

    def check(self, ok: bool, what: str) -> None:
        self.record(1, 0 if ok else 1, what)


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def fresh_dir(d: Path) -> Path:
    shutil.rmtree(d, ignore_errors=True)
    return d


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _n_partitions(paths: list[str]) -> int:
    from nem_mms_ray.pipelines.encode import plan_partitions

    return len(plan_partitions(paths, TARGET_BYTES))


def corrupt_payload(enc_dir: Path) -> None:
    """Flip one byte in the middle of the largest payload of the first
    encoded partition (the benchmark's own self-test of its gates)."""
    f = sorted(enc_dir.glob("part-*.parquet"))[0]
    t = pq.read_table(f)
    payloads = t.column("payload").to_pylist()
    i = max(range(len(payloads)), key=lambda k: len(payloads[k]))
    b = bytearray(payloads[i])
    b[len(b) // 2] ^= 0xFF
    payloads[i] = bytes(b)
    col = t.schema.get_field_index("payload")
    t = t.set_column(col, "payload", pa.array(payloads, pa.large_binary()))
    pq.write_table(t, f, compression="zstd")


# ------------------------------------------------------------ encode/verify
def _encode(paths: list[str], out: Path, ledger: Ledger, corrupt: bool) -> float | None:
    """Timed `encode_files` run to completion; None if it raised."""
    from nem_mms_ray.pipelines.encode import encode_files
    from nem_mms_ray.state.manifest import Manifest

    n = _n_partitions(paths)
    t0 = time.perf_counter()
    try:
        encode_files(paths, fresh_dir(out), target_bytes=TARGET_BYTES).to_pandas()
    except Exception as e:  # noqa: BLE001 - a failed encode is a counted result
        done = Manifest(out).summary()["done"] if out.exists() else 0
        ledger.record(n, max(1, n - done), f"encode raised {type(e).__name__}")
        return None
    wall = time.perf_counter() - t0
    done = Manifest(out).summary()["done"]
    ledger.record(n, n - done, "encode left partitions unfinished")
    if corrupt:
        corrupt_payload(out)
    return wall


def _verify(paths: list[str], out: Path, ledger: Ledger) -> float | None:
    """Timed `verify_files`; every partition must decode bit-identically."""
    from nem_mms_ray.pipelines.decode import verify_files

    n = _n_partitions(paths)
    t0 = time.perf_counter()
    try:
        rows = verify_files(paths, out, target_bytes=TARGET_BYTES).to_pandas()
    except Exception as e:  # noqa: BLE001 - a failed verify is a counted result
        ledger.record(n, n, f"verify raised {type(e).__name__}")
        return None
    wall = time.perf_counter() - t0
    ledger.record(n, n - int(rows["ok"].sum()), "verify mismatch")
    return wall


def _ratios(out: Path, in_paths: list[str]) -> tuple[float, float, dict]:
    from nem_mms_ray.state.manifest import Manifest

    s = Manifest(out).summary()
    return (s["encoded_bytes"] / s["orig_bytes"],
            s["file_bytes"] / _file_bytes(in_paths), s)


# --------------------------------------------------------------------- scans
def scan_dir_for(enc_dir: Path, scan_paths: list[str], work: Path) -> Path:
    """The encoded partitions of `scan_paths` alone: a scan over a directory
    must not mix tables of different schemas."""
    from nem_mms_ray.state.manifest import Manifest

    recs = Manifest(enc_dir).load_all()
    want = {str(p) for p in scan_paths}
    if {r.input_file for r in recs} <= want:
        return enc_dir
    d = fresh_dir(work / "scan")
    d.mkdir(parents=True)
    for r in recs:
        if r.input_file in want:
            shutil.copyfile(r.output_file, d / Path(r.output_file).name)
    return d


def time_scans(scan_dir: Path, queries: list[Query], ledger: Ledger
               ) -> tuple[list[float], list[tuple[int, int] | None]]:
    """Time each range scan to its rows in hand.  Returns the walls and each
    answer (row count, checksum), None for a scan that raised."""
    from nem_mms_ray.pipelines.decode import scan_encoded

    walls, got = [], []
    for q in queries:
        t0 = time.perf_counter()
        try:
            ds = scan_encoded(scan_dir, columns=[q.project],
                              range_filters={q.column: (q.lo, q.hi)})
            tables = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
        except Exception as e:  # noqa: BLE001 - a failed scan is a counted result
            ledger.record(1, 1, f"scan raised {type(e).__name__}")
            got.append(None)
            continue
        walls.append(time.perf_counter() - t0)
        tables = [t for t in tables if t.num_rows]
        got.append((sum(t.num_rows for t in tables),
                    sum(inp_mod.checksum(t.column(q.project)) for t in tables)))
    return walls, got


def check_scans(oracle_paths: list[str], queries: list[Query], got, ledger: Ledger) -> None:
    """Each scan's answer must equal DuckDB's over the original Parquet."""
    for g, want in zip(got, inp_mod.oracle(oracle_paths, queries)):
        if g is not None:
            ledger.check(g == want, "scan disagrees with DuckDB")


def scan_stats(walls: list[float]) -> tuple[float, float, dict]:
    """p50, and the highest percentile with at least ten samples beyond it."""
    xs = sorted(walls)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, {"samples": 0}
    k = max(0, n - 11)
    return (_median(xs) * 1e3, xs[k] * 1e3,
            {"samples": n, "tail_percentile": round(100.0 * (k + 1) / n, 2),
             "beyond_tail": n - k - 1})


# ---------------------------------------------------------------- end-to-end
def measure(inp: Inputs, work: Path, seconds: float, ledger: Ledger,
            corrupt: bool) -> tuple[dict, dict]:
    """`encode_files` then `verify_files` over the input, repeated for
    `seconds` (at least MIN_REPS times); after each rep, the next share of
    the seeded range scans runs over that rep's output, so encode, verify
    and scan samples all spread over the whole run.  Every rep of one seed
    must give identical ratios."""
    enc_mbps, ver_mbps, scan_walls, answers = [], [], [], []
    ratios = None
    chunk = -(-len(inp.queries) // MIN_REPS)
    deadline = time.perf_counter() + seconds
    reps = 0
    while (reps < MIN_REPS or time.perf_counter() < deadline
           or len(answers) < len(inp.queries)) and reps < MAX_REPS:
        out = work / f"enc{reps % 2}"
        reps += 1
        enc = _encode(inp.paths, out, ledger, corrupt)
        if enc is None:
            continue
        codec_ratio, file_ratio, summ = _ratios(out, inp.paths)
        if ratios is None:
            ratios = (codec_ratio, file_ratio)
        else:
            ledger.check((codec_ratio, file_ratio) == ratios,
                         "ratios differ between reps of one seed")
        enc_mbps.append(summ["orig_bytes"] / 1e6 / enc)
        ver = _verify(inp.paths, out, ledger)
        if ver is not None:
            ver_mbps.append(summ["orig_bytes"] / 1e6 / ver)
        todo = inp.queries[len(answers):len(answers) + chunk]
        if todo:
            walls, got = time_scans(scan_dir_for(out, inp.scan_paths, work), todo, ledger)
            scan_walls += walls
            answers += got
    ledger.record(len(inp.queries) - len(answers), len(inp.queries) - len(answers),
                  "scans never ran")
    check_scans(inp.scan_paths, inp.queries[:len(answers)], answers, ledger)
    p50, tail, scan_detail = scan_stats(scan_walls)
    metrics = {
        "encode_mbps": _median(enc_mbps),
        "verify_mbps": _median(ver_mbps),
        "scan_p50_ms": p50,
        "scan_tail_ms": tail,
        "codec_ratio": ratios[0] if ratios else 0.0,
        "file_ratio": ratios[1] if ratios else 0.0,
    }
    detail = {"reps": reps, "encode_mbps_all": enc_mbps, "verify_mbps_all": ver_mbps,
              "scan": scan_detail, "input_rows": inp.rows,
              "input_parquet_bytes": _file_bytes(inp.paths)}
    return metrics, detail


def run_flagship(paths: list[str], out: Path, ledger: Ledger) -> dict | None:
    """One `web_pipeline` run; its encoded output must verify bit-identically
    against its curated checkpoint.  Returns the pipeline's summary."""
    from nem_mms_ray.pipelines.web import web_pipeline

    try:
        summary = web_pipeline(paths, fresh_dir(out), **FLAGSHIP_KW)
    except Exception as e:  # noqa: BLE001 - a failed flagship is a counted result
        ledger.record(1, 1, f"web_pipeline raised {type(e).__name__}")
        return None
    curated = sorted(str(p) for p in (out / "curated").glob("*.parquet"))
    failed = ledger.failed
    ok = _verify(curated, out / "encoded", ledger) is not None
    ledger.check(ok and ledger.failed == failed,
                 "flagship output does not verify against its checkpoint")
    return summary
