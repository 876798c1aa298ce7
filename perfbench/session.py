"""The benchmark's Ray session: start, warm up, describe, stop."""

from __future__ import annotations

import os
import shutil
import subprocess
from pathlib import Path

from perfbench import procs

NATIVE_LOADERS = ("nem_mms_ray.codecs._fsst_native", "nem_mms_ray.ops._langid_native",
                  "nem_mms_ray.ops._setops_native", "nem_mms_ray.ops._webextract_native",
                  "nem_mms_ray.ops._winnow_native")
OBJECT_STORE_BYTES = 256 << 20


def nproc() -> int:
    """What `nproc` prints: the CPUs this process may use, capped by
    OMP_NUM_THREADS."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  timeout=10, check=True).stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return len(os.sched_getaffinity(0))


def native_status() -> dict[str, bool]:
    """Whether each native kernel loaded (False = pure-Python fallback)."""
    import importlib

    return {m.rsplit(".", 1)[1]: importlib.import_module(m).get_lib() is not None
            for m in NATIVE_LOADERS}


def start(temp_dir: Path, num_cpus: int) -> None:
    import ray
    import ray.data

    ray.init(num_cpus=num_cpus, include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=str(temp_dir))
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False


def warm_up(inp, work: Path) -> dict[str, bool]:
    """One untimed pass through every public entry point the workload
    times (encode, verify, scan) on tiny tables, so worker processes,
    imports, native kernels and Ray Data's operators are loaded before the
    first timed call.  Returns the native-kernel status inside a Ray worker."""
    import ray

    from nem_mms_ray.pipelines.decode import scan_encoded, verify_files
    from nem_mms_ray.pipelines.encode import encode_files
    from perfbench.workloads import scan_dir_for

    status = ray.get(ray.remote(num_cpus=1)(_worker_probe).remote())
    out = work / "warm"
    shutil.rmtree(out, ignore_errors=True)
    q = inp.warm_query
    encode_files(inp.warm_paths, out).to_pandas()
    verify_files(inp.warm_paths, out).to_pandas()
    scan_encoded(scan_dir_for(out, inp.warm_paths[:1], work), columns=[q.project],
                 range_filters={q.column: (q.lo, q.hi)}).count()
    shutil.rmtree(out, ignore_errors=True)
    return status


def _worker_probe() -> dict[str, bool]:
    return native_status()


def stop() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    tree = procs.descendants(os.getpid())
    ray.shutdown()
    procs.reap(tree)


def environment(worker_native: dict[str, bool]) -> dict:
    import numpy
    import pyarrow
    import ray

    return {
        "nproc": nproc(),
        "os_cpu_count": os.cpu_count(),
        "ray_num_cpus": int(ray.cluster_resources().get("CPU", 0)),
        "versions": {"ray": ray.__version__, "pyarrow": pyarrow.__version__,
                     "numpy": numpy.__version__},
        "native_local": native_status(),
        "native_worker": worker_native,
    }
