"""Benchmark of the nem_mms_ray columnar encode engine.

    python3 perfbench/run.py --workload web_html --seed 1 --seconds 12 --trace 0

`--workload all` runs the workloads one after another, each in its own
process, so a crash in one still lets the others report.  `--trace 0`
measures the end-to-end metrics, `--trace 1` the per-layer ones (see
`metrics.py`).  The run prints its full report (environment, gates, every
metric with its unit, the ungated scan latencies and failed_frac too) as
one JSON line, then, as the last line of stdout,
`{"correct", "attempted", "failed", "metrics"}`.  It exits 0 only when
every correctness gate passed, and 2 when the engine's sources are not
next to the benchmark.

Inputs are generated from `--seed` before Ray starts; a single process
runs a Ray session with as many CPUs as `nproc` reports.  `setup_s` is
measured cold: an untraced run starts SETUP_REPEATS fresh processes one
after another, each of which generates the inputs, starts Ray and runs
the warm-up pass; the wall from its launch to its ready line is one
sample, and the last of them goes on to measure.  `--scale`
shrinks or grows every input (the smoke test uses a tiny scale);
`--corrupt` flips a byte of an encoded payload after every encode, to
show that the gates catch it.  Generated data, Ray's session directory
and the native-kernel build cache live under `.bench_work/` and
`.bench_build/` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.metrics import UNGATED, catalogue, workloads  # noqa: E402

SETUP_REPEATS = 3            # cold set-up processes per untraced run; setup_s is their median
SOCKET_DIR_MAX = 40          # Ray's AF_UNIX socket paths must stay under 108 bytes
READY = "perfbench: set-up done"


def _engine_present() -> bool:
    return (ROOT / "nem_mms_ray" / "__init__.py").is_file()


def _configure_env() -> None:
    """Keep the native-kernel builds and temp files inside the checkout,
    and let Ray workers import the engine and the benchmark."""
    build = ROOT / ".bench_build"
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["NEM_MMS_RAY_BUILD"] = str(build / "tmp" / "nem_mms_ray_build")
    os.environ["TMPDIR"] = str(build / "tmp")
    tempfile.tempdir = None
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def _ray_temp_dir() -> Path:
    """Ray's session directory: inside the checkout, unless that path is
    too long for Ray's Unix socket names."""
    d = ROOT / ".bench_work" / f"r{os.getpid()}"
    if len(str(d)) <= SOCKET_DIR_MAX:
        return d
    return Path(tempfile.mkdtemp(prefix="pbray", dir="/tmp"))


def _inputs(workload: str, work: Path, seed: int, scale: float):
    from perfbench import inputs

    if workload == "tabular_sf":
        return inputs.sf_inputs(work, seed, inputs.SF_SCALE * scale)
    return inputs.web_inputs(work, seed, max(64, int(inputs.WEB_ROWS * scale)))


def run_one(args) -> int:
    """Set up (inputs, Ray, warm-up pass), then, unless this process is a
    set-up sample only (`--role setup`), measure and report."""
    from perfbench import procs, session, workloads as wl
    from perfbench.workloads import Ledger

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ray_tmp = _ray_temp_dir()
    ledger = Ledger()
    metrics: dict[str, float] = {}
    detail: dict = {}
    env: dict = {}
    watch = procs.TreeWatch()
    ray_up = False
    t_start = time.perf_counter()
    try:
        inp = _inputs(args.workload, work, args.seed, args.scale)
        detail["input_gen_s"] = time.perf_counter() - t_start
        session.start(ray_tmp, session.nproc())
        ray_up = True
        worker_native = session.warm_up(inp, work)
        detail["setup_in_process_s"] = time.perf_counter() - t_start
        if args.role != "run":
            print(READY, flush=True)
        if args.role != "setup":
            env = session.environment(worker_native)
            if args.trace:
                from perfbench import traced

                metrics, more = traced.trace_workload(args.workload, inp, work, ledger)
            else:
                watch.start()
                metrics, more = wl.measure(inp, work, args.seconds, ledger, args.corrupt)
                metrics["peak_rss_mb"] = watch.stop() / 1e6
            detail.update(more)
    except Exception as e:  # noqa: BLE001 - the run must still report
        traceback.print_exc()
        ledger.record(1, 1, f"workload raised {type(e).__name__}: {e}")
    finally:
        watch.stop()

    # the result is out (stdout and file) before Ray is torn down
    ok = ledger.failed == 0
    if args.role != "setup":
        report, line = _result(args, metrics, ledger, detail, env, time.perf_counter() - t_start)
        _publish(report, line, args)
        ok = line["correct"]

    if ray_up:
        session.stop()
    procs.reap(watch.seen)
    shutil.rmtree(work, ignore_errors=True)
    shutil.rmtree(ray_tmp, ignore_errors=True)
    return 0 if ok else 1


def _result(args, metrics: dict, ledger, detail: dict, env: dict, run_s: float
            ) -> tuple[dict, dict]:
    """The full report and the contract line.  A measuring process leaves
    setup_s to the process that timed its set-up."""
    names = catalogue(bool(args.trace))
    later = {"setup_s"} if args.role == "measure" else set()
    missing = sorted(set(names) - set(metrics) - later)
    attempted = max(1, ledger.attempted)
    metrics["failed_frac"] = ledger.failed / attempted
    line = {"correct": ledger.failed == 0 and not missing, "attempted": attempted,
            "failed": ledger.failed,
            "metrics": {n: {"value": metrics[n], "unit": u}
                        for n, u in names.items() if n in metrics}}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "corrupt": args.corrupt,
        "why": workloads()[args.workload], **line,
        "ungated": {n: {"value": metrics[n], "unit": u}
                    for n, u in UNGATED.items() if n in metrics},
        "failures": ledger.notes, "missing_metrics": missing,
        "run_s": run_s, "detail": detail, "env": env,
    }
    return report, line


def _publish(report: dict, line: dict, args) -> None:
    """Write the report file and print both lines, flushed."""
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as f:
        json.dump(report, f, indent=1, default=str)
        f.flush()
        os.fsync(f.fileno())
    print(json.dumps(report, default=str))
    print(json.dumps(line))
    sys.stdout.flush()


def _command(args, workload: str, *more: str) -> list[str]:
    """This benchmark, run in a new process on one workload."""
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", str(args.scale),
            *(["--corrupt"] if args.corrupt else []), *more]


def run_cold(args) -> int:
    """An untraced run: SETUP_REPEATS cold set-ups, each in a fresh process
    timed from its launch to its ready line; the last process measures.
    setup_s is the median of the samples."""
    samples: list[float] = []
    out: list[str] = []
    failed = 0
    for i in range(SETUP_REPEATS):
        role = "measure" if i == SETUP_REPEATS - 1 else "setup"
        t0 = time.perf_counter()
        with subprocess.Popen(_command(args, args.workload, "--role", role),
                              stdout=subprocess.PIPE, text=True) as p:
            ready = False
            for raw in p.stdout:
                if not ready and raw.rstrip("\n") == READY:
                    samples.append(time.perf_counter() - t0)
                    ready = True
                elif role == "measure":
                    out.append(raw)
            rc = p.wait()
        if not ready or (role == "setup" and rc != 0):
            failed += 1
            print(f"set-up process {i} failed (exit {rc})", file=sys.stderr)
    docs = [json.loads(x) for x in out if x.startswith("{")]
    if len(docs) < 2:
        print("the measuring process reported nothing", file=sys.stderr)
        return 1
    report, line = docs[-2], docs[-1]
    line["attempted"] += SETUP_REPEATS - 1
    line["failed"] += failed
    if samples:
        line["metrics"]["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
    names = catalogue(False)
    line["metrics"] = {n: line["metrics"][n] for n in names if n in line["metrics"]}
    line["correct"] = line["correct"] and failed == 0 and len(line["metrics"]) == len(names)
    report.update(line)
    report["ungated"]["failed_frac"]["value"] = line["failed"] / line["attempted"]
    report["missing_metrics"] = sorted(set(names) - set(line["metrics"]))
    report["detail"]["setup_s_all"] = samples
    _publish(report, line, args)
    return 0 if line["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process; one that crashes or reports
    nothing counts as one failed operation and the rest still report."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for w in workloads():
        try:
            out = subprocess.run(_command(args, w), stdout=subprocess.PIPE, text=True, timeout=900).stdout
            lines = out.strip().splitlines()
            res = json.loads(lines[-1])
            print(lines[-2])
        except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as e:
            print(f"{w}: no result ({type(e).__name__})", file=sys.stderr)
            attempted += 1
            failed += 1
            correct = False
            continue
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["correct"]
        metrics.update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*workloads(), "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--corrupt", action="store_true")
    # run: set up and measure in this process; setup/measure: one cold
    # set-up sample of an untraced run (and, for measure, the measurement)
    ap.add_argument("--role", choices=["run", "setup", "measure"], default="run",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not _engine_present():
        print(f"nem_mms_ray sources not found under {ROOT}", file=sys.stderr)
        return 2
    _configure_env()
    if args.workload == "all":
        return run_all(args)
    if args.role == "run" and not args.trace:
        return run_cold(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
