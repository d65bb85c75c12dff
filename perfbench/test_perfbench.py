"""Tests of the benchmark itself: seeded inputs, declared metrics, and
failure detection against the references.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (str(HERE.parent / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import corpus  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from repro.service.job import graph_digest  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def paper_digests(seed):
    requests = corpus.paper_requests(seed, per_tasks=1)
    return [graph_digest(graph_dict) for _, graph_dict in requests]


def stream_digests(seed):
    stream = corpus.GraphStream(seed)
    return [graph_digest(corpus.stream_graph(key))
            for _ in range(4) for key in stream.next_batch()]


def dse_edits(seed):
    return [list(islice(plan.edits(), 20)) for plan in corpus.dse_plans(seed)]


@pytest.mark.parametrize("draw", [paper_digests, stream_digests, dse_edits])
def test_seed_fixes_the_requests(draw):
    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


def test_mimic_draws_are_stratified_by_task_count():
    requests = corpus.paper_requests(7, per_tasks=2)
    counts = {}
    for key, graph_dict in requests:
        if key.startswith("mimic/"):
            tasks = len(graph_dict["tasks"])
            counts[tasks] = counts.get(tasks, 0) + 1
    assert counts == {tasks: 2 for tasks in corpus.MIMIC_TASKS}


def test_stream_repeats_earlier_graphs():
    stream = corpus.GraphStream(3)
    keys = [key for _ in range(20) for key in stream.next_batch()]
    repeats = len(keys) - len(set(keys))
    assert 0.15 < repeats / len(keys) < 0.35


def test_workloads_match_declaration():
    assert sorted(workloads.WORKLOADS) == sorted(
        w["name"] for w in SPEC["workloads"])


def test_undeclared_metric_is_refused():
    run = workloads.Run(layers={"made.up_s": 1.0})
    with pytest.raises(SystemExit):
        bench_run.build_result(run, True, bench_run.declared_metrics())


def small_paper_requests():
    wanted = {"dsp/mp3playback", "dsp/modem", "apps1/BlackScholes"}
    return [r for r in corpus.fixed_corpus() if r[0] in wanted]


def test_paper_apps_emits_declared_metrics():
    declared = bench_run.declared_metrics()
    plain = workloads.paper_apps(1, 0.0, False,
                                 requests=small_paper_requests())
    result = bench_run.build_result(plain, False, declared)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = workloads.paper_apps(1, 0.0, True,
                                  requests=small_paper_requests())
    result = bench_run.build_result(traced, True, declared)
    assert result["correct"], traced.problems
    assert set(traced.layers) <= {m["name"] for m in SPEC["per_layer"]}
    for name in ("expansion.prepare_s", "mcrp.solve_s", "kiter.rounds",
                 "analysis.repetition_s", "trace.overhead_ratio"):
        assert name in traced.layers


def test_corrupted_reference_period_is_a_failure():
    references = corpus.load_references()
    status, period = references["dsp/modem"]
    references["dsp/modem"] = (status, period + Fraction(1, 2))
    run = workloads.paper_apps(1, 0.0, False, references=references,
                               requests=small_paper_requests())
    assert run.failed == workloads.PAPER_PASSES  # one per pass
    assert all("dsp/modem" in reason for reason in run.problems)
    assert bench_run.build_result(
        run, False, bench_run.declared_metrics())["correct"] is False


def test_service_stream_traced_layers():
    run = workloads.service_stream(2, 0.0, True)
    assert run.failed == 0, run.problems
    assert run.attempted == 2 * run.requests >= 2
    for name in ("service.self_s", "cache.get_s", "pool.solve_s",
                 "pool.busy_s", "pool.chunks", "trace.overhead_ratio"):
        assert name in run.layers
    assert set(run.layers) <= {m["name"] for m in SPEC["per_layer"]}


def test_instrumented_environment_is_refused(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_TRACE", "1")
    assert bench_run.main(["--workload", "paper-apps", "--seed", "1",
                           "--seconds", "1"]) == 2
    assert "REPRO_TRACE" in capsys.readouterr().err


def record(cpu, p50):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    metrics["latency_s.p50"]["value"] = p50
    return {"stamp": {"commit": "c", "cpu": cpu, "nproc": 2,
                      "python": "3.11.7", "numpy": "2.0"},
            "workload": "paper-apps", "trace": 0,
            "result": {"metrics": metrics}}


STOP_SCRIPT = """
import subprocess, sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
import run
run.adopt_orphans()
with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
    assert list(pool.map(abs, [-1])) == [1]
subprocess.run(["sh", "-c", "sleep 60 &"], check=True)
run.stop_children()
print(len(run._child_pids()))
"""


def test_stop_children_leaves_no_process():
    """The resource tracker a spawn pool starts and an orphaned
    grandchild are both stopped and waited for."""
    import subprocess

    proc = subprocess.run([sys.executable, "-c", STOP_SCRIPT], cwd=HERE,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_compare_refuses_other_machine_class():
    assert compare.compare([record("A", 1.0)], [record("B", 1.0)], SPEC) == 2


def test_compare_flags_a_regression_beyond_its_bound():
    assert compare.compare([record("A", 1.0)], [record("A", 1.1)], SPEC) == 0
    assert compare.compare([record("A", 1.0)], [record("A", 1.5)], SPEC) == 1
