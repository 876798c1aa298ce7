"""Smoke test of the benchmark itself, at a tiny input scale.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload untraced and traced through the one command, checks
that each prints every catalogued metric with its unit and passes its
gates, that a corrupted encoded payload is caught, and that the command
refuses to run without the engine's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import UNGATED, catalogue, workloads  # noqa: E402
from perfbench.run import SETUP_REPEATS  # noqa: E402

TINY = ["--seed", "7", "--seconds", "1", "--scale", "0.05"]


def _run(*args: str, cwd: Path = ROOT) -> tuple[int, list[dict], str]:
    p = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                       capture_output=True, text=True, timeout=900)
    docs = [json.loads(x) for x in p.stdout.splitlines() if x.startswith("{")]
    return p.returncode, docs, p.stdout


@pytest.fixture(scope="module")
def untraced():
    return _run("--workload", "all", "--trace", "0", *TINY)


def _check_all(rc: int, docs: list[dict], trace: int) -> dict[str, dict]:
    assert rc == 0
    *reports, final = docs
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    assert [r["workload"] for r in reports] == list(workloads())
    for r in reports:
        assert r["correct"], r["failures"]
        assert r["ungated"]["failed_frac"] == {"value": 0.0, "unit": "ratio"}
        assert {n: m["unit"] for n, m in r["metrics"].items()} == catalogue(bool(trace))
        assert r["env"]["ray_num_cpus"] == r["env"]["nproc"] >= 1
        assert set(r["env"]["native_worker"]) == {
            "_fsst_native", "_langid_native", "_setops_native",
            "_webextract_native", "_winnow_native"}
    return {r["workload"]: r for r in reports}


def test_every_end_to_end_metric_with_unit(untraced):
    reports = _check_all(*untraced[:2], trace=0)
    for r in reports.values():
        assert all(v["value"] > 0 for v in r["metrics"].values()), r["metrics"]
        assert {n: m["unit"] for n, m in r["ungated"].items()} == UNGATED
        assert r["ungated"]["scan_tail_ms"]["value"] >= r["ungated"]["scan_p50_ms"]["value"] > 0
        assert r["detail"]["scan"]["beyond_tail"] == 10
        assert len(r["detail"]["setup_s_all"]) == SETUP_REPEATS


def test_every_per_layer_metric_with_unit():
    rc, docs, _ = _run("--workload", "all", "--trace", "1", *TINY)
    reports = _check_all(rc, docs, trace=1)
    for r in reports.values():
        m = r["metrics"]
        assert m["encode.coverage"]["value"] > 0.5
        assert m["encode.partitions"]["value"] >= 1
    assert reports["web_html"]["metrics"]["web.rows_in"]["value"] > 0


def test_corrupted_payload_counts_as_failure(untraced):
    rc, docs, _ = _run("--workload", "web_html", "--trace", "0", "--corrupt", *TINY)
    report, line = docs
    assert rc == 1
    assert not line["correct"] and line["failed"] > 0
    assert report["ungated"]["failed_frac"]["value"] > 0
    # the encode itself is untouched by the corruption: same seed, same ratios
    clean = {r["workload"]: r for r in untraced[1][:-1]}["web_html"]["metrics"]
    for k in ("codec_ratio", "file_ratio"):
        assert line["metrics"][k] == clean[k]


def test_refuses_without_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, _docs, out = _run("--workload", "web_html", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=tmp_path)
    assert rc != 0 and out == ""

