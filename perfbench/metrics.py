"""Metric catalogue of the benchmark: every name, unit and better-direction.

`BENCHMARK.json` at the repository root is the one source of the names,
units, directions, bounds and workload reasons; this module reads it.
Its `end_to_end` metrics are what a user of the engine sees (printed by
an untraced run, `--trace 0`); its `per_layer` metrics come from the
traced run (`--trace 1`).  Every run prints every metric of its
catalogue.  A per-layer metric of a layer the workload never executes is
reported as 0 (no work done), so a layer's number is comparable across
commits of one workload, never across workloads.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
CODECS = ("alp", "bitpack", "delta", "dict", "for", "fsst", "ipc", "plain", "rle")

# Reported by every untraced run, gated by nothing: name -> unit.  Each
# scan is a whole Ray Data job, and on a shared 1-core box its median
# moved 27% (p80: 40%) between seeded runs of one commit, more than any
# bound may allow.  failed_frac reads 0 on a good run, and a gated metric
# must never be 0; attempted/failed carry it.
UNGATED = {"scan_p50_ms": "ms", "scan_tail_ms": "ms", "failed_frac": "ratio"}


def spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def workloads() -> dict[str, str]:
    """name -> one-line reason of every workload."""
    return {w["name"]: w["why"] for w in spec()["workloads"]}


def catalogue(trace: bool) -> dict[str, str]:
    """name -> unit of every metric a run with this trace mode prints."""
    return {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}
