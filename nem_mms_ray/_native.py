"""Build, cache and load the package's C kernels — the one place a
compiler runs.

Each `*_kernel.c` compiles on first use into a shared object under
`$NEM_MMS_RAY_BUILD` (default `<tmpdir>/nem_mms_ray_build`), trying
`-O3 -march=native` and then plain `-O3`.  The object's file name hashes
the C source, the flag sets tried and the CPU feature set, so a build dir
shared by different CPUs never hands one of them a `-march=native` build
for another.  Every worker process reuses the cached object; a cache hit
reads files only and spawns no subprocess.  A missing compiler, an
unusable build dir or a failed load gives `None`, and the kernel's caller
runs its scalar reference instead (identical output, slower).
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib
import logging
import os
import platform
import subprocess
import tempfile
from pathlib import Path
from typing import Callable

logger = logging.getLogger(__name__)

CC = "cc"
FLAG_SETS: tuple[tuple[str, ...], ...] = (("-O3", "-march=native"), ("-O3",))

_LIBS: dict[Path, ctypes.CDLL | None] = {}


def cpu_features() -> str:
    """The CPU's feature flags as the kernel reports them, or the machine
    name where /proc/cpuinfo has none."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith(("flags", "Features")):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def so_path(source: bytes, stem: str, flag_sets=FLAG_SETS,
            features: str | None = None, directory: Path | None = None
            ) -> Path:
    """Where the object built from `source` lives: keyed on the source
    bytes, the flag sets tried and the CPU feature set."""
    h = hashlib.sha256(source)
    h.update(repr(flag_sets).encode())
    h.update((cpu_features() if features is None else features).encode())
    directory = directory or Path(
        os.environ.get("NEM_MMS_RAY_BUILD")
        or Path(tempfile.gettempdir()) / "nem_mms_ray_build")
    return directory / f"{stem}_{h.hexdigest()[:16]}.so"


def _build(src: Path, so: Path) -> None:
    so.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=so.parent)
    os.close(fd)
    try:
        for flags in FLAG_SETS:
            try:
                subprocess.run([CC, *flags, "-shared", "-fPIC", "-o", tmp,
                                str(src)], check=True, capture_output=True,
                               timeout=120)
            except (OSError, subprocess.SubprocessError) as e:
                err = getattr(e, "stderr", None) or e
                continue
            os.replace(tmp, so)  # atomic: readers see no half-written .so
            return
        raise RuntimeError(f"could not compile {src.name}: {err!r}")
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(src: Path, bind: Callable[[ctypes.CDLL], None]) -> ctypes.CDLL | None:
    """The kernel compiled from `src` with `bind` (its ctypes signatures)
    applied, built on the first call and cached per process; None when it
    cannot be built or loaded."""
    if src not in _LIBS:
        try:
            so = so_path(src.read_bytes(), src.stem)
            if not so.exists():
                _build(src, so)
            lib = ctypes.CDLL(str(so))
            bind(lib)
        except Exception:  # noqa: BLE001 - any failure means "no kernel"
            logger.warning("C kernel %s unavailable; running the scalar "
                           "reference", src.name, exc_info=True)
            lib = None
        _LIBS[src] = lib
    return _LIBS[src]


def status() -> dict[str, bool]:
    """{kernel stem: loaded} for every `*_kernel.c` in the package, each
    loaded (built on first use) through its binding module, the
    `_<name>_native.py` beside it.  False means its callers run the
    scalar reference."""
    pkg = Path(__file__).parent
    out = {}
    for src in sorted(pkg.rglob("*_kernel.c")):
        binding = src.with_name(f"_{src.stem.removesuffix('_kernel')}_native")
        module = ".".join(binding.relative_to(pkg.parent).parts)
        out[src.stem] = importlib.import_module(module).get_lib() is not None
    return out
