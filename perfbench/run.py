"""Run one workload of the layered benchmark and print its metrics.

    python3 perfbench/run.py --workload paper-apps --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` for ``--trace 0``, its per-layer metrics
for ``--trace 1``. The full record, stamped with the commit and the
machine, goes to ``perfbench/out/``; ``compare.py`` reads those records.
Progress and failure reasons go to standard error.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Environment switches of the program's own tracer and profiler. An
#: end-to-end run must measure the program as users run it, so the
#: benchmark refuses to start while either is set.
INSTRUMENT_ENV = ("REPRO_TRACE", "REPRO_PROFILE")
#: prctl option that makes orphaned descendants children of this process.
PR_SET_CHILD_SUBREAPER = 36
#: Seconds a child gets to end after SIGTERM before it is killed.
STOP_GRACE = 10.0


def adopt_orphans() -> None:
    """Become the parent of descendants whose own parent ends first
    (Linux), so :func:`stop_children` finds and waits for them too."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> List[int]:
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = (Path("/proc") / entry / "stat").read_text()
        except OSError:
            continue
        # the parent pid is the second field after the parenthesised name
        if stat.rsplit(")", 1)[1].split()[1] == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended:
    pool workers, multiprocessing's resource tracker, worker daemons and
    any orphan adopted through :func:`adopt_orphans`."""
    for proc in multiprocessing.active_children():
        proc.join(STOP_GRACE)
        if proc.is_alive():
            proc.kill()
            proc.join()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()  # closing its pipe ends it; _stop waits for it
    deadline = time.monotonic() + STOP_GRACE
    while True:
        pids = _child_pids()
        if not pids:
            return
        sig = signal.SIGKILL if time.monotonic() > deadline else signal.SIGTERM
        for pid in pids:
            try:
                os.kill(pid, sig)
                os.waitpid(pid, os.WNOHANG)
            except (ProcessLookupError, ChildProcessError):
                pass
        time.sleep(0.05)


def declared_metrics() -> Dict[str, List[Dict[str, Any]]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def quantile(values: List[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(run) -> Dict[str, float]:
    latencies = run.latencies
    return {
        "setup_s": statistics.median(run.setup),
        "latency_s.p50": quantile(latencies, 50),
        "latency_s.p90": quantile(latencies, 90),
        "throughput_rps": len(latencies) / sum(latencies),
        "peak_rss_mb": peak_rss_mb(),
    }


def stamp() -> Dict[str, Any]:
    """Where a result came from: commit and machine class."""
    commit = "unknown"  # e.g. an exported checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "commit": commit,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def build_result(run, trace: bool,
                 declared: Dict[str, List[Dict[str, Any]]]) -> Dict[str, Any]:
    specs = declared["per_layer" if trace else "end_to_end"]
    values = run.layers if trace else end_to_end(run)
    unknown = sorted(set(values) - {spec["name"] for spec in specs})
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            spec["name"]: {"value": float(values.get(spec["name"], 0.0)),
                           "unit": spec["unit"]}
            for spec in specs
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    instrumented = [name for name in INSTRUMENT_ENV if os.environ.get(name)]
    if instrumented:
        print(f"refusing to run with {', '.join(instrumented)} set: "
              "end-to-end numbers must come from an uninstrumented "
              "program", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    adopt_orphans()
    try:
        run = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()
    for reason in run.problems[:20]:
        print(f"FAILED: {reason}", file=sys.stderr)
    result = build_result(run, bool(args.trace), declared)

    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    OUT.mkdir(exist_ok=True)
    record = {
        "stamp": stamp(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "requests": len(run.latencies), "result": result,
    }
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if run.tracer is not None:
        run.tracer.write(OUT / f"{name}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
