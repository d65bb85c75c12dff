"""Lockstep K-Iter over a fleet of payloads via the batched MCRP kernels.

:func:`solve_fleet_payloads` is the chunk-level sibling of
:func:`repro.kperiodic.kiter.solve_kiter_payload`: plain dicts in, plain
dicts out, same outcome schema — but instead of solving one payload at a
time it drives one :class:`~repro.kperiodic.kiter.KIterMachine` per
payload in lockstep. Each lockstep round calls ``prepare()`` on every
unfinished machine, stacks the prepared constraint graphs and answers
them all with **one** :func:`repro.mcrp.batched.batched_solve_mcrp`
pass, then feeds every per-graph result back through ``absorb()``.
Machines certify (Theorem 4) at different rounds; finished ones simply
drop out of the next stack.

Exactness and parity are inherited, not re-proven: every per-graph λ*
coming out of the batched kernel is bit-identical to the per-graph
engine's (see :mod:`repro.mcrp.batched`), and the K-Iter control flow —
warm starts, deadlock escalation, optimality tests, round/budget caps,
engine fallback — is the *same* :class:`KIterMachine` code path the
sequential driver runs. A payload the fleet cannot take (``"batched":
False``, an engine without a batched oracle) and any payload
hitting a :class:`~repro.exceptions.SolverError` mid-fleet (certification
failure → the per-graph fallback-engine chain must run) is answered by
``solve_kiter_payload`` itself, so the two entry points agree on every
input by construction.

Every outcome dict gains a ``"batched"`` key: ``True`` when at least one
round of that payload's solve went through the batched kernel.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.exceptions import (
    BudgetExceededError,
    DeadlockError,
    ReproError,
    SolverError,
)
from repro.kperiodic.kiter import (
    KIterMachine,
    payload_config_error,
    solve_kiter_payload,
)
from repro.kperiodic.solver import annotate_deadlock, finish_min_period
from repro.mcrp.batched import (
    BATCHED_ORACLES,
    batched_solve_mcrp,
)
from repro.mcrp.registry import get_engine
from repro.obs.metrics import REGISTRY as _REGISTRY
from repro.obs.slowlog import observe_solve as _observe_solve
from repro.obs.trace import emit_event as _emit_event
from repro.obs.trace import span as _span

_FLEET_JOBS = _REGISTRY.counter("repro_fleet_jobs_total")
_FLEET_BATCHED = _FLEET_JOBS.labels(mode="batched")
_FLEET_DELEGATED = _FLEET_JOBS.labels(mode="delegated")
_FLEET_FAILED = _FLEET_JOBS.labels(mode="failed")
# Jobs the fleet finishes itself count as solver jobs too — delegated
# payloads are counted inside solve_kiter_payload instead, so the
# repro_solver_* families cover every route exactly once.
_SOLVER_JOBS = _REGISTRY.counter("repro_solver_jobs_total")
_SOLVER_SECONDS = _REGISTRY.histogram("repro_solver_seconds")


def _emit_job_event(payload: Mapping[str, Any],
                    outcome: Dict[str, Any]) -> None:
    """Per-job trace event for fleet-completed payloads.

    Fleet jobs interleave inside the lockstep loop, so their lifetimes
    cannot nest as context managers; each completion is recorded as one
    event adopting the payload's propagated trace context (the same
    place :func:`~repro.kperiodic.kiter.solve_kiter_payload` parents
    its ``job.solve`` span).
    """
    trace_ctx = payload.get("trace") or {}
    if not trace_ctx.get("trace_id"):
        return
    _emit_event(
        "job.solve",
        trace_id=str(trace_ctx["trace_id"]),
        parent_id=trace_ctx.get("parent_id"),
        dur=float(outcome.get("wall_time", 0.0)),
        digest=str(payload.get("digest", ""))[:12],
        engine=outcome.get("engine_used", ""),
        status=outcome.get("status", ""),
        batched=outcome.get("batched", False),
    )


class _FleetJob:
    """One payload's machine plus its bookkeeping inside the fleet."""

    __slots__ = ("index", "payload", "graph", "engine", "machine",
                 "batched_any")

    def __init__(self, index: int, payload: Mapping[str, Any], graph,
                 engine: str) -> None:
        self.index = index
        self.payload = payload
        self.graph = graph
        self.engine = engine
        self.machine: Optional[KIterMachine] = None
        self.batched_any = False


def fleet_eligible(payload: Mapping[str, Any]) -> bool:
    """Can this payload ride the batched lockstep path?

    Requires the payload to opt in (``"batched"`` defaults to True), a
    primary engine with a batched oracle. Everything else —
    including unknown engines, which must run the per-graph fallback
    chain — goes through :func:`solve_kiter_payload` unchanged.
    """
    if not payload.get("batched", True):
        return False
    engine = payload.get("engine", "ratio-iteration")
    if engine not in BATCHED_ORACLES:
        return False
    try:
        return get_engine(engine).batched
    except SolverError:
        return False


def solve_fleet_payloads(
    payloads: Sequence[Mapping[str, Any]],
    graphs: Optional[Sequence[Any]] = None,
) -> List[Dict[str, Any]]:
    """Solve a chunk of K-Iter payloads, batching rounds across graphs.

    ``graphs`` optionally injects already-deserialized
    :class:`~repro.model.graph.CsdfGraph` objects aligned with
    ``payloads`` (entries may be ``None``); otherwise each payload's
    ``"graph"`` dict is decoded once here. Returns one outcome dict per
    payload, in order, with the :func:`solve_kiter_payload` schema plus
    a ``"batched"`` flag.
    """
    from repro.model.graph import CsdfGraph

    payloads = list(payloads)
    outcomes: List[Optional[Dict[str, Any]]] = [None] * len(payloads)
    if not payloads:
        return []
    # Hoisted per-chunk accounting: one clock origin and one getpid()
    # for the whole chunk instead of per payload.
    started = time.perf_counter()
    pid = os.getpid()

    def per_graph(job: _FleetJob) -> None:
        _FLEET_DELEGATED.inc()
        outcome = solve_kiter_payload(job.payload, graph=job.graph)
        outcome["batched"] = False
        outcomes[job.index] = outcome

    def failed(job: _FleetJob, status: str, exc: BaseException) -> None:
        _FLEET_FAILED.inc()
        outcomes[job.index] = {
            "status": status, "error": str(exc),
            "engine_used": job.engine, "fallback": False,
            "wall_time": time.perf_counter() - started,
            "worker_pid": pid, "batched": job.batched_any,
        }
        _SOLVER_JOBS.labels(status=status).inc()
        _SOLVER_SECONDS.observe(outcomes[job.index]["wall_time"])
        _observe_solve(outcomes[job.index]["wall_time"], job.payload,
                       outcomes[job.index])
        _emit_job_event(job.payload, outcomes[job.index])

    # Route, validate and group by primary engine (one batched kernel
    # call serves one engine's stack).
    groups: Dict[str, List[_FleetJob]] = {}
    for index, payload in enumerate(payloads):
        graph = graphs[index] if graphs is not None else None
        engine = payload.get("engine", "ratio-iteration")
        job = _FleetJob(index, payload, graph, engine)
        if not fleet_eligible(payload):
            per_graph(job)
            continue
        config_error = payload_config_error(payload)
        if config_error is not None:
            # Same engine-independent fast failure as the per-graph
            # entry point (wall_time 0.0 included).
            outcomes[index] = {**config_error, "batched": False}
            continue
        if job.graph is None:
            job.graph = CsdfGraph.from_dict(payload["graph"])
        try:
            job.machine = KIterMachine(
                job.graph,
                max_rounds=payload.get("max_rounds", 100_000),
                time_budget=payload.get("time_budget"),
                initial_k=payload.get("initial_k"),
                update_policy=payload.get("update_policy", "lcm"),
                warm_start=payload.get("warm_start", True),
            )
        except SolverError:
            per_graph(job)
            continue
        except ReproError as exc:
            failed(job, "ERROR", exc)
            continue
        groups.setdefault(engine, []).append(job)

    for engine, jobs in groups.items():
        _run_group(engine, jobs, per_graph, failed, outcomes,
                   started, pid)

    return outcomes  # type: ignore[return-value]


def _run_group(
    engine: str,
    jobs: List[_FleetJob],
    per_graph,
    failed,
    outcomes: List[Optional[Dict[str, Any]]],
    started: float,
    pid: int,
) -> None:
    """Advance one engine's machines in lockstep until all terminate."""
    pending = jobs
    fleet_round = 0
    while pending:
        batch = []
        for job in pending:
            try:
                prepared = job.machine.prepare()
            except SolverError:
                # Round cap / certification-shaped failure: the payload
                # semantics are the per-graph fallback-engine chain.
                per_graph(job)
            except BudgetExceededError as exc:
                failed(job, "TIMEOUT", exc)
            except ReproError as exc:
                failed(job, "ERROR", exc)
            else:
                batch.append((job, prepared))
        if not batch:
            break
        with _span("fleet.round", profile=True, engine=engine,
                   fleet=len(batch), round=fleet_round):
            results = batched_solve_mcrp(
                [prepared.bi_graph for _, prepared in batch],
                engine=engine,
                lower_bounds=[prepared.lower for _, prepared in batch],
            )
        fleet_round += 1
        pending = []
        for (job, prepared), out in zip(batch, results):
            if out is None:  # skipped/aborted member — defensive
                per_graph(job)
                continue
            job.batched_any = job.batched_any or out.batched
            try:
                if out.error is not None:
                    if isinstance(out.error, DeadlockError):
                        # Escalate K along the infeasible circuit and
                        # keep the machine in the fleet (may re-raise
                        # when the circuit is a genuine deadlock).
                        job.machine.absorb_deadlock(
                            annotate_deadlock(prepared, out.error)
                        )
                        pending.append(job)
                        continue
                    raise out.error
                result = finish_min_period(prepared, out.result)
                if job.machine.absorb(result):
                    final = job.machine.finalize(engine=job.engine)
                    _FLEET_BATCHED.inc()
                    outcomes[job.index] = {
                        "status": "OK",
                        "period": [final.period.numerator,
                                   final.period.denominator],
                        "K": dict(final.K),
                        "rounds": final.iteration_count,
                        "engine_iterations": final.engine_iteration_count,
                        "critical_tasks": sorted(final.critical_tasks),
                        "engine_used": job.engine, "fallback": False,
                        "wall_time": time.perf_counter() - started,
                        "worker_pid": pid, "batched": job.batched_any,
                    }
                    _SOLVER_JOBS.labels(status="OK").inc()
                    _SOLVER_SECONDS.observe(
                        outcomes[job.index]["wall_time"])
                    _observe_solve(outcomes[job.index]["wall_time"],
                                   job.payload, outcomes[job.index])
                    _emit_job_event(job.payload, outcomes[job.index])
                else:
                    pending.append(job)
            except SolverError:
                per_graph(job)
            except DeadlockError as exc:
                failed(job, "DEADLOCK", exc)
            except BudgetExceededError as exc:
                failed(job, "TIMEOUT", exc)
            except ReproError as exc:
                failed(job, "ERROR", exc)
