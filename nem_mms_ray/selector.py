"""Codec auto-selection: sketch -> codec plan.

The single dispatch site replacing the reference's five hand-maintained ones
(SURVEY.md §2.7): every registered codec scores itself via `estimate(sketch)`
and the cheapest wins, with a deterministic tie-break on codec name so the
plan is identical across parallelism levels.

Expected outcomes per BASELINE.json:north_star — low-cardinality `lang` →
dict(+bitpack); `warc_ts` → for(+bitpack); `url`/`text` → fsst with dict
fallback at low ndv.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from nem_mms_ray import dtypes
from nem_mms_ray.codecs import REGISTRY
from nem_mms_ray.stats import ColumnSketch


@dataclass
class ColumnPlan:
    """The chosen codec and every candidate's estimated bytes.  For a
    string column planned from a floor sketch (`ColumnSketch.exact` False)
    the dict and rle entries are floor estimates, at or below the exact
    sketch's; the chosen codec is the same either way."""

    column: str
    codec: str
    estimates: dict[str, float] = field(default_factory=dict)


def select_codec(sketch: ColumnSketch) -> ColumnPlan:
    typ = dtypes.type_from_str(sketch.dtype)
    estimates: dict[str, float] = {}
    for name in sorted(REGISTRY):
        codec = REGISTRY[name]
        if not codec.can_encode(typ):
            continue
        est = codec.estimate(sketch)
        if est != float("inf"):
            estimates[name] = float(est)
    # deterministic: smallest estimate, ties broken lexicographically
    best = min(estimates.items(), key=lambda kv: (kv[1], kv[0]))[0]
    return ColumnPlan(column=sketch.column, codec=best, estimates=estimates)


def plan_for_sketches(sketches: dict[str, ColumnSketch]) -> dict[str, ColumnPlan]:
    return {c: select_codec(sk) for c, sk in sketches.items()}

