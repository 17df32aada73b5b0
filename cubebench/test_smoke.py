"""Tests of the benchmark itself: ``python3 -m pytest cubebench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_smoke_mode_passes_every_check():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert {(r["workload"], r["trace"]) for r in records} == {
        (w, t) for w in ("braid-v1", "cubical-smoke", "verify-s3") for t in (0, 1)
    }
    assert all(r["attempted"] > 0 and r["failed"] == 0 for r in records)
    # every per-layer metric is measured by some workload
    seen = set()
    for name in ("braid-v1", "cubical-smoke", "verify-s3"):
        rec = json.loads((ROOT / ".bench_out" / f"{name}-seed3-trace1.json").read_text())
        seen |= {k for k, m in rec["metrics"].items() if m["value"]}
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared - {"trace.overhead_s"} <= seen


def test_gates_reject_wrong_outputs(tmp_path):
    braid, cubical, verify = workloads.smoke_workloads(seed=3)
    for wl in (braid, cubical, verify):
        wl.prepare(tmp_path)
        dg = wl.digest(wl.compute(wl.build_input(spans.NullTracer()), spans.NullTracer()))
        assert wl.gate(dg) == [], wl.name
    dg = braid.digest(braid.compute(braid.build_input(spans.NullTracer()), spans.NullTracer()))
    dg["conley"]["conley_cells"] += 1
    assert braid.gate(dg)
    assert cubical.gate({"cell_count": cubical.input_cells, "betti": [cubical.euler + 1], "rounds": 1})
    assert verify.gate({"exit": 0, "lines": ["complex: ok: 80 cells checked"]})
    assert verify.gate({"exit": 2, "lines": []})


def test_cubical_rand_generator_is_seeded():
    anchors = workloads.generate_top_cells(1, d=3, m=30, keep=0.5)
    assert len(anchors) == 13_472
    assert anchors == workloads.generate_top_cells(1, d=3, m=30, keep=0.5)
    assert anchors != workloads.generate_top_cells(2, d=3, m=30, keep=0.5)
    # a single square: 4 vertices, 4 edges, 1 face
    assert workloads.closure_counts([(0, 0)], d=2, m=1) == (9, 1)


def test_stable_bytes_drops_only_the_timing_line():
    a = b'{\n  "betti": [1, 1],\n  "timing_ms": 1.5\n}\n'
    b = b'{\n  "betti": [1, 1],\n  "timing_ms": 22.25\n}\n'
    c = b'{\n  "betti": [1, 0],\n  "timing_ms": 1.5\n}\n'
    assert workloads.stable_bytes(a) == workloads.stable_bytes(b) == b'{\n  "betti": [1, 1],\n}\n'
    assert workloads.stable_bytes(a) != workloads.stable_bytes(c)


def test_self_time_is_duration_minus_children():
    tree = [
        spans.Span("root", 0, None, 0.0, 10.0),
        spans.Span("a", 0, 0, 1.0, 4.0),
        spans.Span("a.x", 0, 1, 2.0, 3.0),
        spans.Span("b", 0, 0, 5.0, 9.0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    assert spans.check_self_times(tree) == []
    tree[3].start = 3.5  # siblings overlapping, as no single thread can, break the sum
    assert spans.check_self_times(tree)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "braid-v3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
