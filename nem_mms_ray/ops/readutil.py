"""Block-size-targeting parquet reads.

Ray Data's default read splits into ~200 tasks regardless of input
volume; a checkpoint directory of many small files (e.g. the web
pipeline's extract stage writes one file per upstream block) then
becomes hundreds of KB-to-MB-sized blocks, and every downstream
shuffle (`groupby`/`sort`) pays orchestration per block x per
partition instead of per byte — measured on the sf0.1 flagship: the
curate winner-pick Sort spent 9.06s moving 116k rows (~6 MB) of real
work because the upstream read produced 200 tiny blocks.

`read_parquet_sized` makes block count a function of INPUT BYTES
(target ~128 MB/block, the Parquet-row-group convention Ray's own
`DataContext.target_max_block_size` uses), floored at 2x cluster CPUs
so small inputs still fan out.  At 100 TB this is the scale-correct
policy (8 x 10^5 blocks); at bench scale it collapses fixed per-block
overhead that otherwise dominates — and flattens the measured scaling
curve, because fixed overhead is what a bigger cluster cannot
amortize.
"""

from __future__ import annotations

import math
from pathlib import Path

TARGET_BLOCK_BYTES = 128 << 20


def _remote(path: str):
    """(filesystem, path) of a `scheme://` URI; None for a local path."""
    if "://" not in path:
        return None
    from pyarrow import fs

    return fs.FileSystem.from_uri(path)


def _expand(path_or_paths) -> list[str]:
    if isinstance(path_or_paths, (str, Path)):
        remote = _remote(str(path_or_paths))
        if remote is not None:
            from pyarrow import fs

            filesystem, path = remote
            if filesystem.get_file_info(path).type != fs.FileType.Directory:
                return [str(path_or_paths)]
            base = str(path_or_paths).rstrip("/")
            return sorted(f"{base}/{info.base_name}"
                          for info in filesystem.get_file_info(fs.FileSelector(path))
                          if info.base_name.endswith(".parquet"))
        p = Path(path_or_paths)
        if p.is_dir():
            return sorted(str(f) for f in p.glob("*.parquet"))
        return [str(p)]
    return [str(p) for p in path_or_paths]


def _file_bytes(path: str) -> int:
    remote = _remote(path)
    if remote is None:
        return Path(path).stat().st_size
    filesystem, p = remote
    info = filesystem.get_file_info(p)
    if info.size is None:  # missing (or a directory): fail like stat() does
        raise FileNotFoundError(path)
    return info.size


def sized_num_blocks(paths: list[str],
                     target_block_bytes: int = TARGET_BLOCK_BYTES,
                     min_blocks: int | None = None) -> int:
    """ceil(total file bytes / target), floored at 2x cluster CPUs.

    File size (compressed, all columns) is the proxy even under column
    pruning — it errs toward MORE blocks, never fewer, so a pruned read
    can only end up finer-grained than the target, not coarser.  Paths
    may be local or `scheme://` URIs (sized through `pyarrow.fs`)."""
    total = sum(_file_bytes(str(p)) for p in paths)
    if min_blocks is None:
        import ray

        cpus = (int(ray.cluster_resources().get("CPU", 8))
                if ray.is_initialized() else 8)
        min_blocks = 2 * cpus
    return max(min_blocks, math.ceil(total / target_block_bytes))


def read_parquet_sized(path_or_paths, columns: list[str] | None = None,
                       target_block_bytes: int = TARGET_BLOCK_BYTES,
                       min_blocks: int | None = None, **kw):
    """`ray.data.read_parquet` with `override_num_blocks` computed from
    the input's byte volume instead of Ray's fixed ~200-way split."""
    import ray.data as rd

    paths = _expand(path_or_paths)
    n = sized_num_blocks(paths, target_block_bytes, min_blocks)
    remote = [_remote(p) for p in paths]
    if remote and all(remote) and "filesystem" not in kw:
        # Ray resolves every later path against the first path's
        # filesystem, which refuses a second local `file://` URI
        kw["filesystem"] = remote[0][0]
        paths = [p for _, p in remote]
    return rd.read_parquet(paths, columns=columns,
                           override_num_blocks=n, **kw)
