"""Runs the workloads, checks their outputs and reports the metrics; see run.py."""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import cubemorse
import workloads
from spans import NullTracer, Tracer, check_self_times, instrument, pass_layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEADLINE_S = 170.0  # a run must end within 180 s



def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class Settings:
    """How much a run samples: the defaults, or the smoke mode's minimum."""

    def __init__(self, smoke: bool):
        self.setups = 1 if smoke else 3
        self.min_passes = 1 if smoke else 2
        self.min_cli = 2  # two outputs to compare for byte stability
        self.min_traced = 1 if smoke else 2
        self.imports = 1 if smoke else 3


class Run:
    """Counts and samples of one workload run."""

    def __init__(self, wl, started: float):
        self.wl = wl
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference = None  # digest of the first library pass
        self.cli_bytes = None  # first CLI output, timing removed
        self.samples: dict[str, list] = {"setup_s": [], "wall_s": [], "cli": []}

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def check(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += [f"{what}: {p}" for p in problems]
        return not problems

    def compare(self, dg) -> list[str]:
        """Problems of a digest: its gate, and agreement with the first pass."""
        bad = list(self.wl.gate(dg))
        if self.reference is None:
            self.reference = dg
        elif dg != self.reference:
            bad.append("output differs from the first library pass")
        return bad


# -- child processes -----------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], run: Run, tag: str) -> tuple[int, float, float, bytes, bytes]:
    """Run one child to completion: (exit status, wall s, peak RSS MiB, stdout, stderr).

    Peak RSS comes from ``os.wait4`` for this child alone.  A child still
    running at the run's deadline is killed.
    """
    out_path = OUT / f"{run.wl.name}-{tag}.out"
    err_path = OUT / f"{run.wl.name}-{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(1.0, DEADLINE_S - run.elapsed()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    out_path.unlink()
    err_path.unlink()
    return proc.returncode, wall, usage.ru_maxrss / 1024, stdout, stderr


def measure_setup(run: Run) -> None:
    code = (
        "import time\nt0 = time.perf_counter()\nimport cubemorse\n"
        + run.wl.setup_code
        + "print(time.perf_counter() - t0)\n"
    )
    rc, _, _, stdout, stderr = spawn([sys.executable, "-c", code], run, "setup")
    ok = run.check("setup", [] if rc == 0 else [f"exit {rc}: {stderr.decode()[-300:]}"])
    if ok:
        run.samples["setup_s"].append(float(stdout.split()[-1]))


def measure_imports(run: Run) -> dict[str, float]:
    """Cumulative ``-X importtime`` of cubemorse and cubemorse.braid, in s."""
    rc, _, _, _, stderr = spawn(
        [sys.executable, "-X", "importtime", "-c", "import cubemorse"], run, "importtime"
    )
    got = {}
    for line in stderr.decode().splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] in ("cubemorse", "cubemorse.braid"):
            got[parts[2]] = int(parts[1]) / 1e6
    ok = run.check("importtime", [] if rc == 0 and len(got) == 2 else [f"exit {rc}, parsed {got}"])
    return {"cli.import_s": got["cubemorse"], "cli.import_braid_s": got["cubemorse.braid"]} if ok else {}


def run_cli(run: Run) -> None:
    argv = [sys.executable, "-m", "cubemorse.cli", *run.wl.cli_argv()]
    rc, wall, rss, stdout, stderr = spawn(argv, run, "cli")
    bad = []
    if rc != 0:
        bad.append(f"exit {rc}: {stderr.decode()[-300:]}")
    else:
        try:
            dg = run.wl.cli_digest(stdout)
        except (ValueError, KeyError, TypeError) as exc:
            bad.append(f"unreadable output: {exc}")
        else:
            bad += run.compare(dg)
        stable = workloads.stable_bytes(stdout)
        if run.cli_bytes is None:
            run.cli_bytes = stable
        elif stable != run.cli_bytes:
            bad.append("output is not byte-stable across CLI runs")
    run.check("cli", bad)
    run.samples["cli"].append({"wall_s": wall, "rss_mb": rss, "exit": rc})


# -- library passes ---------------------------------------------------------------


def library_pass(run: Run, inp, record: bool = True):
    """One untraced pass; returns the raw result or None when it failed."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        raw = run.wl.compute(inp, NullTracer())
    except Exception as exc:  # noqa: BLE001 - a failed pass is counted, not fatal
        run.check("pass", [f"{type(exc).__name__}: {exc}"])
        return None
    wall = time.perf_counter() - t0
    if run.check("pass", run.compare(run.wl.digest(raw))) and record:
        run.samples["wall_s"].append(wall)
    return raw


def traced_pass(run: Run, tracer) -> dict | None:
    """One traced pass: input, pipeline and replays as sibling spans.

    Returns the pass's replay counts, or None when it failed.
    """
    pid = tracer.begin_pass()
    gc.collect()
    try:
        with tracer.span("input"):
            inp = run.wl.build_input(tracer)
        with instrument(tracer):
            with tracer.span("pipeline"):
                raw = run.wl.compute(inp, tracer)
        bad = run.compare(run.wl.digest(raw))
        counts = run.wl.replays(inp, raw, tracer)
    except Exception as exc:  # noqa: BLE001 - a failed pass is counted, not fatal
        run.check("traced pass", [f"{type(exc).__name__}: {exc}"])
        return None
    counts.update(tracer.counts[pid])
    return counts if run.check("traced pass", bad) else None


def run_untraced(run: Run, seconds: float, cfg: Settings) -> dict:
    for _ in range(cfg.setups):
        measure_setup(run)
    inp = run.wl.build_input(NullTracer())
    library_pass(run, inp, record=False)  # warm-up
    t_end = run.elapsed() + seconds
    while True:
        library_pass(run, inp)
        if len(run.samples["cli"]) < len(run.samples["wall_s"]) or len(run.samples["cli"]) < cfg.min_cli:
            run_cli(run)
        enough = (
            run.elapsed() >= t_end
            and len(run.samples["wall_s"]) >= cfg.min_passes
            and len(run.samples["cli"]) >= cfg.min_cli
        )
        if enough or run.elapsed() > DEADLINE_S / 2:
            break
    cli = run.samples["cli"]
    return {
        "wall_s": _median(run.samples["wall_s"]),
        "cli_wall_s": _median([c["wall_s"] for c in cli if c["exit"] == 0]),
        "setup_s": _median(run.samples["setup_s"]),
        "peak_rss_mb": _median([c["rss_mb"] for c in cli if c["exit"] == 0]),
    }


def run_traced(run: Run, seconds: float, cfg: Settings):
    tracer = Tracer()
    imports = [measure_imports(run) for _ in range(cfg.imports)]
    counts = [traced_pass(run, tracer)]  # warm-up; its grading span gives braid.rss_mb
    inp = run.wl.build_input(NullTracer())
    t_end = run.elapsed() + seconds
    while True:
        library_pass(run, inp)
        counts.append(traced_pass(run, tracer))
        enough = run.elapsed() >= t_end and len(counts) > cfg.min_traced
        if enough or run.elapsed() > DEADLINE_S / 2:
            break
    ok = [c for c in counts if c is not None]
    # counts must repeat exactly from pass to pass
    exact = [k for k, u in declared("per_layer").items() if u == "count"]
    same = all(c.get(k) == ok[0].get(k) for c in ok for k in exact)
    run.check("traced counts", [] if same else ["a count differs between traced passes"])
    run.check("self times", check_self_times(tracer.spans))
    layers = [pass_layers(tracer.spans, pid) for pid in range(1, tracer.pass_id + 1)]
    metrics = {k: _median([lay[k] for lay in layers]) for k in layers[0]} if layers else {}
    metrics.update({k: _median([i[k] for i in imports if i]) for k in ("cli.import_s", "cli.import_braid_s")})
    metrics.update(ok[0] if ok else {})
    grading = [s for s in tracer.spans if s.pass_id == 0 and s.name == "braid.grade_cells"]
    metrics["braid.rss_mb"] = grading[0].rss_mb if grading else 0.0
    metrics["cubical.cells"] = run.wl.input_cells
    metrics["trace.overhead_s"] = metrics.pop("pipeline_s") - _median(run.samples["wall_s"])
    return metrics, tracer


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else float("nan")


# -- results ------------------------------------------------------------------------


def git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(wl, seed: int, seconds: float, trace: bool, cfg: Settings) -> dict:
    run = Run(wl, time.perf_counter())
    info = wl.prepare(OUT)
    tracer = None
    overhead = None
    if trace:
        values, tracer = run_traced(run, seconds, cfg)
        overhead = values["trace.overhead_s"]
        names = declared("per_layer")
    else:
        values = run_untraced(run, seconds, cfg)
        names = declared("end_to_end")
    # A layer the workload never calls reports 0 (0.0 for times).
    metrics = {k: {"value": values.get(k, 0 if u == "count" else 0.0), "unit": u} for k, u in names.items()}
    record = {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        **environment(),
        "input": info,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / max(1, run.attempted),
        "failures": run.failures,
        "trace.overhead_s": overhead,
        "samples": run.samples,
        "metrics": metrics,
    }
    stem = f"{wl.name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()) + "\n")
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="cubebench/run.py")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs through every check")
    args = p.parse_args(argv)
    if Path(cubemorse.__file__).resolve().parent != SRC / "cubemorse":
        print(f"error: imported cubemorse from {cubemorse.__file__}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # The build step of a Python package: byte-compile, so no child pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True)
    if args.smoke:
        records = [
            run_workload(wl, args.seed, 0.0, trace, Settings(smoke=True))
            for wl in workloads.smoke_workloads(args.seed)
            for trace in (False, True)
        ]
        for r in records:
            print(json.dumps({k: r[k] for k in ("workload", "trace", "attempted", "failed", "failures")}))
        return 1 if any(r["failed"] for r in records) else 0
    table = workloads.workloads(args.seed)
    if args.workload not in table:
        p.error(f"--workload must be one of {', '.join(table)}")
    r = run_workload(table[args.workload], args.seed, args.seconds, bool(args.trace), Settings(smoke=False))
    print(json.dumps({k: v for k, v in r.items() if k != "samples"}, sort_keys=True))
    print(json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": r["metrics"],
    }))
    return 0
