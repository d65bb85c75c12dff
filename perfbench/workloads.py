"""The four workloads, each a single-process, single-threaded closed loop.

Every request is sent to several instances of the system built the
same way, one after the other:

* in a plain run (``trace=False``) all instances are untraced (two, or
  three passes for paper-apps) and a request's latency is the fastest
  of its walls. The machines this runs on share their cores, and their
  speed drifts by tens of percent over seconds to minutes; the fastest
  of walls taken apart from each other tracks the program rather than
  the neighbours.
* in a traced run the second instance is wrapped in benchmark-side
  spans. The per-layer metrics come from it, and the ratio of the two
  instances' summed walls is the tracing overhead; alternating request
  by request keeps drift of the machine out of that ratio.

A request is one ``throughput_kiter`` call (paper-apps), one
``submit_many`` batch (service-stream, fabric-stream) or one edit plus
solve (dse-sweep). Only the request itself is timed: decoding and input
generation happen between requests, outside the timer.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.consistency import cached_repetition_vector
from repro.distributed import (
    CoordinatorClient,
    CoordinatorServer,
    MemoryJobQueue,
)
from repro.dse import DseSession
from repro.exceptions import DeadlockError, ReproError
from repro.generators import random_connected_sdf
from repro.kperiodic import KIterMachine, throughput_kiter
from repro.kperiodic.solver import annotate_deadlock, finish_min_period
from repro.mcrp.registry import get_engine, solve_mcrp
from repro.service import ThroughputService

from corpus import (
    ROOT,
    GraphStream,
    Request,
    Verdict,
    decode,
    dse_plans,
    load_references,
    paper_requests,
    solve_verdict,
    stream_graph,
)
from tracing import TimedCache, TimedClient, TimedPool, Tracer

#: Set-up is repeated this many times per run and reported as a median;
#: the last two instances built serve the run.
SETUP_REPEATS = 3
#: Passes of a plain paper-apps run; each pass is one instance.
PAPER_PASSES = 3
#: In a plain run the two instances take turns of this many requests
#: (about a second each), so the two walls of a request lie apart. A
#: traced run alternates request by request.
STREAM_BLOCK = 16
DSE_BLOCK = 12
#: Solver processes behind the service and the fabric.
WORKERS = 2
#: Client poll interval of the fabric's service and idle poll of its
#: workers, in seconds.
QUEUE_POLL = 0.02
#: Engines that re-solve seeded draws after the timed phase: never the
#: one under test (paper-apps and dse-sweep run ratio-iteration; the
#: service runs hybrid with a ratio-iteration fallback).
PAPER_REFERENCE_ENGINE = "hybrid"
STREAM_REFERENCE_ENGINE = "karp"
DSE_REFERENCE_ENGINE = "hybrid"
#: dse-sweep edit probes re-solved cold per session, drawn from its
#: first DSE_CHECK_ROUNDS probes (a cold solve of these graphs costs
#: 5-10 probes, so every probe cannot be re-solved). Probes that move a
#: buffer back to the base design are all checked against the base.
DSE_CHECKS = 4
DSE_CHECK_ROUNDS = 20
#: A traced K-Iter solve fails its check when the layer spans leave
#: more than this share of its wall uncovered.
COVERAGE_SLACK = 0.05
#: Fixed warm-up jobs that bring pools and workers up; never in a stream.
WARMUP = [random_connected_sdf(seed, tasks=6) for seed in (1, 2, 3, 4)]
OK_STATUSES = ("OK", "DEADLOCK")


@dataclass
class Run:
    """What one workload run measured."""

    setup: List[float] = field(default_factory=list)
    #: ``walls[i][r]``: wall of request ``r`` on instance ``i``.
    walls: List[List[float]] = field(default_factory=lambda: [[], []])
    attempted: int = 0
    failed: int = 0
    #: Per-layer metrics of a traced run (name → value).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Human-readable reasons for every failed check.
    problems: List[str] = field(default_factory=list)
    tracer: Optional[Tracer] = None

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.problems.append(reason)

    def add(self, *walls: float) -> None:
        """One request's wall on each instance, in instance order."""
        for instance, wall in zip(self.walls, walls):
            instance.append(wall)
        self.attempted += len(walls)

    @property
    def requests(self) -> int:
        return len(self.walls[0])

    def elapsed(self) -> float:
        return sum(map(sum, self.walls))

    @property
    def latencies(self) -> List[float]:
        """Per request, the fastest of its walls (plain runs)."""
        return [min(walls) for walls in zip(*self.walls)]

    def overhead(self) -> float:
        """Traced over untraced wall, minus one (traced runs)."""
        return sum(self.walls[1]) / sum(self.walls[0]) - 1


def _timed(call: Callable[[], object]) -> Tuple[float, object]:
    start = time.perf_counter()
    value = call()
    return time.perf_counter() - start, value


def _build(make: Callable[[], object], close: Callable[[object], None],
           run: Run) -> List[object]:
    """Build SETUP_REPEATS instances, timing each; keep the last two."""
    kept: List[object] = []
    for _ in range(SETUP_REPEATS):
        wall, instance = _timed(make)
        run.setup.append(wall)
        kept.append(instance)
        if len(kept) > 2:
            close(kept.pop(0))
    return kept


# ----------------------------------------------------------------------
# paper-apps
# ----------------------------------------------------------------------
def plain_kiter(graph) -> Verdict:
    try:
        return "OK", throughput_kiter(graph).period
    except DeadlockError:
        return "DEADLOCK", None


def traced_kiter(graph, tracer: Tracer,
                 engine: str = "ratio-iteration") -> Verdict:
    """``throughput_kiter`` spelled out as the public ``KIterMachine``
    protocol, with a span around every call into a layer."""
    info = get_engine(engine)
    with tracer.span("kiter.solve"):
        with tracer.span("analysis.repetition"):
            q = cached_repetition_vector(graph)
        with tracer.span("kiter.absorb"):
            machine = KIterMachine(graph, repetition=q)
        while True:
            with tracer.span("expansion.prepare") as prepare:
                prepared = machine.prepare()
            prepare.attrs["arcs"] = prepared.bi_graph.arc_count
            try:
                with tracer.span("mcrp.solve") as oracle:
                    cycle = solve_mcrp(
                        prepared.bi_graph, info, lower_bound=prepared.lower
                    )
            except DeadlockError as exc:
                with tracer.span("kiter.absorb"):
                    try:
                        machine.absorb_deadlock(
                            annotate_deadlock(prepared, exc))
                    except DeadlockError:
                        return "DEADLOCK", None
                continue
            oracle.attrs["iterations"] = cycle.iterations
            with tracer.span("kiter.absorb"):
                certified = machine.absorb(
                    finish_min_period(prepared, cycle))
            if certified:
                with tracer.span("kiter.finalize"):
                    return "OK", machine.finalize(engine=engine).period


def _paper_setup_once() -> float:
    """A fresh interpreter importing the package and finishing one
    warm-up solve: what a new process pays before its first answer."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from repro.kperiodic import throughput_kiter; "
        "from repro.generators import figure2_graph; "
        "throughput_kiter(figure2_graph()); print('ready', flush=True)"
    )
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or proc.stdout.strip() != "ready":
        raise RuntimeError(f"paper-apps warm-up failed: {proc.stderr}")
    return elapsed


def _solve_request(solve: Callable, graph_dict: dict) -> Tuple[float, Verdict]:
    graph = decode(graph_dict)
    start = time.perf_counter()
    try:
        verdict = solve(graph)
    except ReproError as exc:
        print(f"paper-apps: {graph.name}: {exc}", file=sys.stderr)
        verdict = ("ERROR", None)
    return time.perf_counter() - start, verdict


def paper_apps(seed: int, seconds: float, trace: bool,
               references: Optional[Dict[str, Verdict]] = None,
               requests: Optional[List[Request]] = None) -> Run:
    """Cold ``throughput_kiter`` over Table 1/2 graphs.

    The instances are passes over the same requests, each graph decoded
    afresh. In a traced run each request goes to
    ``throughput_kiter`` and then to :func:`traced_kiter`, and the two
    must return the same λ*. Passes repeat until ``seconds`` of requests
    have run, so a run makes at least one pass on each instance.
    ``references`` and ``requests`` replace the committed verdicts and
    the seeded pass (for the benchmark's own tests).
    """
    run = Run(walls=[[] for _ in range(2 if trace else PAPER_PASSES)])
    run.setup = [_paper_setup_once() for _ in range(SETUP_REPEATS)]
    plain_kiter(decode(WARMUP[0].to_dict()))  # this process's own warm-up
    if requests is None:
        requests = paper_requests(seed)
    answers: List[Tuple[str, Verdict]] = []
    tracer = run.tracer = Tracer() if trace else None
    while not run.requests or run.elapsed() < seconds:
        if tracer is None:
            passes = [[_solve_request(plain_kiter, d) for _, d in requests]
                      for _ in range(PAPER_PASSES)]
            for (key, _), solved in zip(requests, zip(*passes)):
                run.add(*(wall for wall, _ in solved))
                answers += [(key, verdict) for _, verdict in solved]
            continue
        for key, graph_dict in requests:
            wall, verdict = _solve_request(plain_kiter, graph_dict)
            tracer.request = run.requests
            traced_wall, traced = _solve_request(
                lambda graph: traced_kiter(graph, tracer), graph_dict)
            run.add(wall, traced_wall)
            answers.append((key, verdict))
            if traced != verdict:
                run.fail(f"{key}: traced driver returned {traced}, "
                         f"throughput_kiter {verdict}")

    expected = dict(references if references is not None
                    else load_references())
    for key, graph_dict in requests:
        if key not in expected:  # a seeded draw: re-solve it cold
            expected[key] = solve_verdict(
                decode(graph_dict), PAPER_REFERENCE_ENGINE)
    for key, verdict in answers:
        if verdict != expected[key]:
            run.fail(f"{key}: got {verdict}, expected {expected[key]}")
    if tracer is not None:
        _check_coverage(run, tracer)
        run.layers.update(_kiter_layers(tracer, run.requests))
        run.layers["trace.overhead_ratio"] = run.overhead()
    return run


_KITER_LAYERS = ("analysis.repetition", "expansion.prepare", "mcrp.solve",
                 "kiter.absorb", "kiter.finalize")


def _check_coverage(run: Run, tracer: Tracer) -> None:
    """Layer spans must account for each solve's wall within the slack."""
    wall: Dict[int, float] = {}
    covered: Dict[int, float] = {}
    for record in tracer.spans:
        if record.name == "kiter.solve":
            wall[record.request] = record.duration
        elif record.name in _KITER_LAYERS:
            covered[record.request] = (
                covered.get(record.request, 0.0) + record.duration)
    for request, solve_wall in wall.items():
        gap = solve_wall - covered.get(request, 0.0)
        if gap > COVERAGE_SLACK * solve_wall:
            run.fail(f"traced solve {request}: layer spans cover "
                     f"{1 - gap / solve_wall:.1%} of its wall")


def _kiter_layers(tracer: Tracer, requests: int) -> Dict[str, float]:
    total = {name: tracer.totals(name) for name in _KITER_LAYERS}
    solve_wall = tracer.totals("kiter.solve")
    return {
        "analysis.repetition_s": total["analysis.repetition"] / requests,
        "expansion.prepare_s": total["expansion.prepare"] / requests,
        "expansion.arcs": sum(
            s.attrs["arcs"] for s in tracer.spans
            if s.name == "expansion.prepare") / requests,
        "mcrp.solve_s": total["mcrp.solve"] / requests,
        "mcrp.share": total["mcrp.solve"] / solve_wall,
        "mcrp.engine_iterations": sum(
            s.attrs.get("iterations", 0) for s in tracer.spans
            if s.name == "mcrp.solve") / requests,
        "kiter.rounds": tracer.count("expansion.prepare") / requests,
        "kiter.absorb_s": total["kiter.absorb"] / requests,
        "kiter.finalize_s": total["kiter.finalize"] / requests,
        "kiter.driver_s": (solve_wall - sum(total.values())) / requests,
    }


# ----------------------------------------------------------------------
# service-stream and fabric-stream
# ----------------------------------------------------------------------
def _stream_verdict(key: str) -> Verdict:
    return solve_verdict(stream_graph(key), STREAM_REFERENCE_ENGINE)


class _StreamLoop:
    """Batches of a :class:`GraphStream` and every verdict they got."""

    def __init__(self, seed: int) -> None:
        self._stream = GraphStream(seed)
        self.batches: List[List[str]] = []
        #: (batch index, verdict per job) for every submitted batch.
        self.answers: List[Tuple[int, List[Verdict]]] = []

    def submit(self, service: ThroughputService, index: int,
               tracer: Optional[Tracer] = None) -> Tuple[float, list]:
        while len(self.batches) <= index:
            self.batches.append(self._stream.next_batch())
        graphs = [stream_graph(key) for key in self.batches[index]]
        if tracer is None:
            wall, outcomes = _timed(lambda: service.submit_many(graphs))
        else:
            tracer.request = index
            with tracer.span("service.batch"):
                wall, outcomes = _timed(lambda: service.submit_many(graphs))
        self.answers.append((index, [
            (o.status, o.period if o.status == "OK" else None)
            for o in outcomes
        ]))
        return wall, outcomes

    def drive(self, run: Run, first: ThroughputService,
              second: ThroughputService, seconds: float,
              tracer: Optional[Tracer] = None) -> List[list]:
        """The same batches to ``first`` and to ``second`` (traced when a
        tracer is given), taking turns; returns ``second``'s outcomes."""
        block = 1 if tracer is not None else STREAM_BLOCK
        answers = []
        while not run.requests or run.elapsed() < seconds:
            indices = range(run.requests, run.requests + block)
            walls = [self.submit(first, index)[0] for index in indices]
            for index, wall in zip(indices, walls):
                second_wall, outcomes = self.submit(second, index, tracer)
                run.add(wall, second_wall)
                answers.append(outcomes)
        return answers

    def check(self, run: Run) -> None:
        """Every job OK/DEADLOCK and equal to a cold re-solve by another
        engine; a batch with any bad job fails as a whole. The distinct
        graphs are re-solved on a process pool, after the timed phase."""
        keys = sorted({key for batch in self.batches for key in batch})
        with ProcessPoolExecutor(WORKERS, mp_context=get_context("spawn")
                                 ) as pool:
            expected = dict(zip(keys, pool.map(
                _stream_verdict, keys, chunksize=64)))
        for index, verdicts in self.answers:
            bad = [
                (key, verdict)
                for key, verdict in zip(self.batches[index], verdicts)
                if verdict[0] not in OK_STATUSES or verdict != expected[key]
            ]
            if bad:
                run.fail(f"batch {index}: got {bad[:3]}, expected "
                         f"{[expected[key] for key, _ in bad[:3]]}")


def _warm(service: ThroughputService) -> None:
    outcomes = service.submit_many([decode(g.to_dict()) for g in WARMUP])
    if any(o.status != "OK" for o in outcomes):
        raise RuntimeError(f"warm-up failed: {outcomes}")


def _facade_layers(tracer: Tracer, before, after,
                   batches: int) -> Dict[str, float]:
    """Service-layer metrics of the traced facade over the timed phase."""
    jobs = after.jobs - before.jobs
    solves = after.solves - before.solves
    return {
        "service.self_s":
            tracer.self_times().get("service.batch", 0.0) / batches,
        "cache.get_s": tracer.totals("cache.get") / batches,
        "cache.put_s": tracer.totals("cache.put") / batches,
        "service.cache_hit_ratio":
            (after.cache_hits - before.cache_hits) / jobs,
        "service.dedup": (after.batch_dedup - before.batch_dedup) / batches,
        "service.batched_ratio":
            (after.batched - before.batched) / solves if solves else 0.0,
    }


def _plain_service() -> ThroughputService:
    service = ThroughputService(workers=WORKERS)
    _warm(service)
    return service


def service_stream(seed: int, seconds: float, trace: bool) -> Run:
    """``ThroughputService(workers=2)`` fed seeded 16-graph batches."""
    run = Run()
    loop = _StreamLoop(seed)
    services = _build(_plain_service, ThroughputService.close, run)
    try:
        if trace:
            services[0].close()
            _traced_service(run, loop, services[1], seconds)
        else:
            loop.drive(run, services[0], services[1], seconds)
    finally:
        for service in services:
            service.close()
    loop.check(run)
    return run


def _traced_service(run: Run, loop: _StreamLoop, plain: ThroughputService,
                    seconds: float) -> None:
    tracer = run.tracer = Tracer()
    pool = TimedPool(tracer, WORKERS)
    traced = ThroughputService(pool=pool, cache=TimedCache(tracer))
    try:
        _warm(traced)
        tracer.spans.clear()
        before, pool0 = traced.stats(), pool.stats.as_dict()
        pool.busy = 0.0
        loop.drive(run, plain, traced, seconds, tracer)
        after, pool1 = traced.stats(), pool.stats.as_dict()
    finally:
        traced.close()
        pool.shutdown()
    batches = run.requests
    solve = tracer.totals("pool.solve") / batches
    faults = sum(pool1[k] - pool0[k]
                 for k in ("crashes", "timeouts", "recycles"))
    run.layers.update(_facade_layers(tracer, before, after, batches))
    run.layers.update({
        "pool.solve_s": solve,
        "pool.busy_s": pool.busy / batches,
        "pool.wait_s": solve - pool.busy / batches / WORKERS,
        "pool.chunks": (pool1["chunks"] - pool0["chunks"]) / batches,
        "pool.faults": faults / batches,
        "trace.overhead_ratio": run.overhead(),
    })


class _Fabric:
    """An in-process coordinator, two ``repro worker`` processes and a
    service whose cache misses go through the coordinator."""

    def __init__(self, make_service: Callable[[str], ThroughputService]):
        self.server = CoordinatorServer(
            queue=MemoryJobQueue(visibility_timeout=60)).start()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        self.workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--coordinator", self.server.url, "--id", f"bench-w{i}",
                 "--poll", str(QUEUE_POLL), "--chunk-size", "2"],
                env=env, cwd=str(ROOT),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            for i in range(WORKERS)
        ]
        try:
            deadline = time.monotonic() + 120
            while len(self.coordinator_stats()["workers"]) < WORKERS:
                if time.monotonic() > deadline or any(
                        w.poll() is not None for w in self.workers):
                    raise RuntimeError("fabric workers did not come up")
                time.sleep(0.01)
            self.service = make_service(self.server.url)
            _warm(self.service)
        except BaseException:
            self.close()
            raise

    def coordinator_stats(self) -> dict:
        return self.server.coordinator.stats()

    def close(self) -> None:
        for proc in self.workers:
            proc.terminate()
        for proc in self.workers:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.server.shutdown()


def _plain_fabric() -> _Fabric:
    return _Fabric(lambda url: ThroughputService(
        queue=CoordinatorClient(url), queue_poll=QUEUE_POLL))


def fabric_stream(seed: int, seconds: float, trace: bool) -> Run:
    """The service-stream batches through coordinator + 2 workers."""
    run = Run()
    loop = _StreamLoop(seed)
    fabrics = _build(_plain_fabric, _Fabric.close, run)
    try:
        if trace:
            fabrics.pop(0).close()
            _traced_fabric(run, loop, fabrics[0].service, seconds)
        else:
            loop.drive(run, fabrics[0].service, fabrics[1].service, seconds)
    finally:
        for fabric in fabrics:
            fabric.close()
    loop.check(run)
    return run


def _traced_fabric(run: Run, loop: _StreamLoop, plain: ThroughputService,
                   seconds: float) -> None:
    tracer = run.tracer = Tracer()
    fabric = _Fabric(lambda url: ThroughputService(
        queue=TimedClient(tracer, url), cache=TimedCache(tracer),
        queue_poll=QUEUE_POLL))
    try:
        tracer.spans.clear()
        traced = fabric.service
        redelivered = fabric.coordinator_stats()["queue"]["redeliveries"]
        before = traced.stats()
        answers = loop.drive(run, plain, traced, seconds, tracer)
        after = traced.stats()
        redelivered = (fabric.coordinator_stats()["queue"]["redeliveries"]
                       - redelivered)
    finally:
        fabric.close()
    batches = run.requests
    waits = [
        wall - max((o.wall_time for o in outcomes if not o.cache_hit),
                   default=0.0)
        for wall, outcomes in zip(run.walls[1], answers)
    ]
    run.layers.update(_facade_layers(tracer, before, after, batches))
    run.layers.update({
        "fabric.submit_s": tracer.totals("fabric.submit") / batches,
        "fabric.fetch_s": tracer.totals("fabric.fetch") / batches,
        "fabric.polls": tracer.count("fabric.fetch") / batches,
        "fabric.wait_s": sum(waits) / batches,
        "fabric.redeliveries": redelivered / batches,
        "trace.overhead_ratio": run.overhead(),
    })


# ----------------------------------------------------------------------
# dse-sweep
# ----------------------------------------------------------------------
def _session_verdict(session: DseSession) -> Verdict:
    try:
        return "OK", session.solve().period
    except DeadlockError:
        return "DEADLOCK", None


class _Sweep:
    """One session per plan, probed round-robin with the plans' edits.

    The graphs of the probes numbered in ``keep`` are retained for the
    cold re-solves after the timed phase.
    """

    def __init__(self, plans, keep=frozenset()) -> None:
        self.plans = plans
        self.keep = keep
        self.sessions: List[DseSession] = []
        self.base_verdicts: List[Verdict] = []
        for plan in plans:
            session = DseSession(decode(plan.base))
            self.base_verdicts.append(_session_verdict(session))
            self.sessions.append(session)
        self._edits = [plan.edits() for plan in plans]
        self.verdicts: List[Verdict] = []
        self.kept: Dict[int, object] = {}

    def probe(self, tracer: Optional[Tracer] = None) -> float:
        number = len(self.verdicts)
        session = self.sessions[number % len(self.sessions)]
        name, capacity = next(self._edits[number % len(self.sessions)])
        start = time.perf_counter()
        if tracer is None:
            session.set_capacities({name: capacity})
            verdict = _session_verdict(session)
        else:
            tracer.request = number
            with tracer.span("dse.probe"):
                with tracer.span("dse.apply"):
                    session.set_capacities({name: capacity})
                with tracer.span("dse.solve"):
                    verdict = _session_verdict(session)
        wall = time.perf_counter() - start
        self.verdicts.append(verdict)
        if number in self.keep:
            self.kept[number] = session.graph
        return wall

    def counters(self) -> Dict[str, int]:
        total: Dict[str, int] = {}
        for session in self.sessions:
            stats = session.stats()
            warm = stats["warm_starts"]
            for key, value in (
                ("warm_hits", warm.get("hit", 0)),
                ("warm_all", sum(warm.values())),
                ("invalidated", stats["invalidated_blocks"]),
                ("rounds_saved", stats["rounds_saved"]),
                ("block_hits", stats["cache"]["hits"]),
                ("block_misses", stats["cache"]["misses"]),
            ):
                total[key] = total.get(key, 0) + value
        return total


def _checked_probes(seed: int, sessions: int) -> frozenset:
    """Seeded probe numbers whose answers are re-solved cold."""
    rng = random.Random(f"{seed}/checks")
    return frozenset(
        round_ * sessions + session
        for session in range(sessions)
        for round_ in rng.sample(range(0, DSE_CHECK_ROUNDS, 2), DSE_CHECKS)
    )


def dse_sweep(seed: int, seconds: float, trace: bool) -> Run:
    """Seeded single-buffer capacity edits on golden synthetic graphs."""
    run = Run()
    plans = dse_plans(seed)
    keep = _checked_probes(seed, len(plans))
    sweeps = _build(lambda: _Sweep(plans, keep), lambda sweep: None, run)
    if trace:
        sweeps[1] = _Sweep(plans)
        tracer = run.tracer = Tracer()
        before = sweeps[1].counters()
    else:
        tracer = None
    block = 1 if trace else DSE_BLOCK
    while not run.requests or run.elapsed() < seconds:
        walls = [sweeps[0].probe() for _ in range(block)]
        for wall in walls:
            run.add(wall, sweeps[1].probe(tracer))
    for number, (a, b) in enumerate(zip(*(s.verdicts for s in sweeps))):
        if a != b:
            run.fail(f"probe {number}: the two sessions returned "
                     f"{a} and {b}")
    _check_sweep(run, sweeps[0])
    if trace:
        _dse_layers(run, before, sweeps[1].counters())
    return run


def _check_sweep(run: Run, sweep: _Sweep) -> None:
    """Base designs and the kept probes against cold solves; every probe
    back at the base design against the base's verdict."""
    for plan, verdict in zip(sweep.plans, sweep.base_verdicts):
        expected = solve_verdict(decode(plan.base), DSE_REFERENCE_ENGINE)
        if verdict != expected:
            run.fail(f"{plan.name} base: got {verdict}, "
                     f"expected {expected}")
    for number, graph in sorted(sweep.kept.items()):
        expected = solve_verdict(
            decode(graph.to_dict()), DSE_REFERENCE_ENGINE)
        if sweep.verdicts[number] != expected:
            run.fail(f"probe {number}: got {sweep.verdicts[number]}, "
                     f"expected {expected}")
    sessions = len(sweep.plans)
    for number, verdict in enumerate(sweep.verdicts):
        session, round_ = number % sessions, number // sessions
        if verdict[0] not in OK_STATUSES:
            run.fail(f"probe {number}: status {verdict[0]}")
        elif round_ % 2 and verdict != sweep.base_verdicts[session]:
            run.fail(f"probe {number} (back at the base design): got "
                     f"{verdict}, expected {sweep.base_verdicts[session]}")


def _dse_layers(run: Run, before: Dict[str, int],
                after: Dict[str, int]) -> None:
    tracer = run.tracer
    probes = run.requests
    delta = {key: after[key] - before[key] for key in after}
    lookups = delta["block_hits"] + delta["block_misses"]
    run.layers.update({
        "dse.apply_s": tracer.totals("dse.apply") / probes,
        "dse.solve_s": tracer.totals("dse.solve") / probes,
        "dse.warm_hit_ratio":
            delta["warm_hits"] / delta["warm_all"] if delta["warm_all"]
            else 0.0,
        "dse.invalidated_blocks": delta["invalidated"] / probes,
        "dse.rounds_saved": delta["rounds_saved"] / probes,
        "expansion.block_hit_ratio":
            delta["block_hits"] / lookups if lookups else 0.0,
        "trace.overhead_ratio": run.overhead(),
    })


WORKLOADS: Dict[str, Callable[[int, float, bool], Run]] = {
    "paper-apps": paper_apps,
    "service-stream": service_stream,
    "dse-sweep": dse_sweep,
    "fabric-stream": fabric_stream,
}
