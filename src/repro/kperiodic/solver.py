"""Minimum period of a K-periodic schedule (Theorem 2 + MCRP).

For a fixed periodicity vector K the minimum feasible period of a
K-periodic schedule of ``G`` equals ``λ*/lcm(K)``, where ``λ*`` is the
maximum cycle ratio of the bi-valued constraint graph of the expansion
``G̃`` (paper §3.1–3.3). The solver returns the exact period, a critical
circuit (needed by the optimality test), and a concrete feasible schedule
built from the longest-path potentials at ``λ*``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.analysis.consistency import repetition_vector
from repro.exceptions import DeadlockError, SolverError
from repro.kperiodic.expansion import (
    ExpandedNodeSpace,
    ExpansionBlockCache,
    compile_expansion,
    expanded_repetition_vector,
    validate_periodicity,
)
from repro.kperiodic.schedule import KPeriodicSchedule
from repro.mcrp.bellman import ordered_passes
from repro.mcrp.graph import BiValuedGraph, CycleResult
from repro.mcrp.registry import get_engine, solve_mcrp
from repro.obs.metrics import REGISTRY as _REGISTRY
from repro.utils.rational import lcm_list

_ENGINE_ITERATIONS = _REGISTRY.counter("repro_engine_iterations_total")


@dataclass
class KPeriodicResult:
    """Outcome of a fixed-K minimum-period computation.

    Attributes
    ----------
    omega:
        Normalized minimum period ``Ω_G = λ*/lcm(K)`` (0 when the
        constraint graph is acyclic, i.e. the throughput is unbounded).
    omega_expanded:
        ``Ω_G̃ = λ*`` before normalization.
    critical_tasks:
        Tasks traversed by the critical circuit (input of Theorem 4).
    critical_nodes:
        The circuit's ``(task, expanded phase)`` labels, in order.
    schedule:
        A feasible K-periodic schedule achieving ``omega`` (``None`` when
        ``build_schedule=False`` was requested or Ω = 0).
    graph_nodes / graph_arcs:
        Size of the bi-valued constraint graph (for the tables/ablations).
    """

    K: Dict[str, int]
    omega: Fraction
    omega_expanded: Fraction
    critical_tasks: Set[str] = field(default_factory=set)
    critical_nodes: List[Tuple[str, int]] = field(default_factory=list)
    schedule: Optional[KPeriodicSchedule] = None
    graph_nodes: int = 0
    graph_arcs: int = 0
    engine_iterations: int = 0

    @property
    def throughput(self) -> Optional[Fraction]:
        """``1/Ω_G``; ``None`` encodes unbounded throughput."""
        if self.omega == 0:
            return None
        return Fraction(1, 1) / self.omega


@dataclass
class PreparedMinPeriod:
    """The engine-independent half of a fixed-K solve.

    :func:`prepare_min_period` builds the bi-valued constraint graph and
    the certified warm-start bound; any MCRP engine — per-graph
    :func:`~repro.mcrp.registry.solve_mcrp` or the batched fleet kernel
    (:func:`repro.mcrp.batched.batched_solve_mcrp`) — may then produce
    the :class:`~repro.mcrp.graph.CycleResult` that
    :func:`finish_min_period` packages. Splitting the solve this way is
    what lets the fleet driver run many K-Iter instances in lockstep
    with *one* stacked MCRP solve per round while sharing every line of
    the per-graph control flow.
    """

    graph: object
    K: Dict[str, int]
    repetition: Dict[str, int]
    lcm_k: int
    bi_graph: BiValuedGraph
    space: ExpandedNodeSpace
    lower: Fraction


def prepare_min_period(
    graph,
    K: Mapping[str, int],
    *,
    repetition: Optional[Dict[str, int]] = None,
    warm_start: Optional[Fraction] = None,
    expansion_cache: Optional[ExpansionBlockCache] = None,
) -> PreparedMinPeriod:
    """Build the constraint graph and warm-start bound for a fixed K."""
    K = validate_periodicity(graph, K)
    if repetition is None:
        repetition = repetition_vector(graph)
    lcm_k = lcm_list(K.values())

    # Assembled-graph memo: a warm worker replays the same deterministic
    # K sequence on every repeat solve of a graph, so the frozen compiled
    # form is reused outright — the block cache inside compile_expansion
    # only pays off within one escalation run.
    built = None
    k_key = None
    if expansion_cache is not None:
        k_key = tuple(sorted(K.items()))
        built = expansion_cache.compiled_for(graph, k_key)
    if built is None:
        built = compile_expansion(
            graph, K, expanded_repetition_vector(repetition, K),
            cache=expansion_cache,
        )
        if k_key is not None:
            expansion_cache.store_compiled(graph, k_key, built)
    bi_graph, space = built
    # Warm start: the serialization self-loop of task t is a real cycle of
    # the constraint graph with exact ratio lcm(K)·q_t·Σ_p d(t_p), so the
    # max over tasks is a certified lower bound on λ* (huge head start —
    # utilization usually lands within a few jumps of the answer).
    utilization = max(
        (repetition[t.name] * t.iteration_duration for t in graph.tasks()),
        default=0,
    )
    # Back the bound off by 1/2 so the utilization cycle itself is still a
    # *strictly* positive cycle at the starting λ — the engine then jumps
    # onto it immediately instead of converging without a certificate.
    lower = Fraction(utilization * lcm_k) - Fraction(1, 2)
    if warm_start is not None:
        # Same 1/2 backoff: when the seed *is* λ* (round i's circuit is
        # still critical at round i+1's scale), the critical cycle stays
        # strictly positive at the start and is certified in one jump.
        lower = max(lower, Fraction(warm_start) - Fraction(1, 2))
    return PreparedMinPeriod(
        graph=graph, K=dict(K), repetition=dict(repetition), lcm_k=lcm_k,
        bi_graph=bi_graph, space=space, lower=lower,
    )


def annotate_deadlock(
    prepared: PreparedMinPeriod, exc: DeadlockError
) -> DeadlockError:
    """Attach task names of the infeasible circuit for K escalation."""
    if exc.cycle_nodes and exc.critical_tasks is None:
        exc.critical_tasks = {
            prepared.bi_graph.labels[n][0] for n in exc.cycle_nodes
        }
    return exc


def finish_min_period(
    prepared: PreparedMinPeriod,
    result: CycleResult,
    *,
    build_schedule: bool = False,
) -> KPeriodicResult:
    """Package an engine's :class:`CycleResult` as a fixed-K outcome."""
    bi_graph = prepared.bi_graph
    lcm_k = prepared.lcm_k
    if result.is_acyclic:
        omega_expanded = Fraction(0)
        critical_nodes: List[Tuple[str, int]] = []
    else:
        omega_expanded = result.ratio
        critical_nodes = [bi_graph.labels[n] for n in result.cycle_nodes]

    omega = omega_expanded / lcm_k
    out = KPeriodicResult(
        K=dict(prepared.K),
        omega=omega,
        omega_expanded=omega_expanded,
        critical_tasks={task for task, _phase in critical_nodes},
        critical_nodes=critical_nodes,
        graph_nodes=bi_graph.node_count,
        graph_arcs=bi_graph.arc_count,
        engine_iterations=result.iterations,
    )
    if build_schedule and omega > 0:
        # The dense (task, phase) → node map is only materialized when
        # a schedule actually needs it.
        out.schedule = _extract_schedule(
            prepared.graph, prepared.K, prepared.repetition, bi_graph,
            prepared.space.node_index(), omega_expanded, lcm_k,
        )
    return out


def solve_prepared_min_period(
    prepared: PreparedMinPeriod, engine: str = "ratio-iteration"
) -> KPeriodicResult:
    """Run one per-graph engine solve over an already prepared instance."""
    info = get_engine(engine)
    try:
        result = solve_mcrp(
            prepared.bi_graph, info, lower_bound=prepared.lower
        )
    except DeadlockError as exc:
        raise annotate_deadlock(prepared, exc)
    _ENGINE_ITERATIONS.labels(engine=engine).inc(result.iterations)
    return finish_min_period(prepared, result)


def min_period_for_k(
    graph,
    K: Mapping[str, int],
    *,
    engine: str = "ratio-iteration",
    build_schedule: bool = True,
    repetition: Optional[Dict[str, int]] = None,
    warm_start: Optional[Fraction] = None,
    expansion_cache: Optional[ExpansionBlockCache] = None,
) -> KPeriodicResult:
    """Exact minimum period of a K-periodic schedule of ``graph``.

    Parameters
    ----------
    graph:
        A consistent CSDFG.
    K:
        Periodicity vector (positive integer per task). ``K ≡ 1`` gives
        the 1-periodic method of [Bodin et al. 2013]; ``K = q`` gives the
        exact throughput directly (at exponential-size cost).
    engine:
        Registered MCRP engine name (see
        :func:`repro.mcrp.registry.engine_names`): ``"ratio-iteration"``
        (exact, default), ``"hybrid"`` (float prefilter + exact
        certification — the fast path on large graphs), ``"howard"``,
        ``"lawler"``, ``"karp"``, ``"bellman"``, or any engine
        registered by the embedding application.
    build_schedule:
        Also extract start times (longest-path potentials at λ*).
    warm_start:
        A seed for the engine's ascending λ search in the *expanded*
        scale (``λ = Ω·lcm(K)``), typically the certified ``λ*`` of the
        previous K-Iter round. Used only when it beats the utilization
        bound. Exactness never depends on it: an overshooting seed is
        detected by the engines (no positive cycle from an uncertified
        start) and the search restarts, and the SCC champion used for
        pruning is replaced by the first component's certified ratio
        before any probe relies on it.
    expansion_cache:
        Optional :class:`~repro.kperiodic.expansion.ExpansionBlockCache`
        for the constraint-graph compile
        (:func:`repro.kperiodic.expansion.compile_expansion`, which
        builds the graph of ``G̃`` straight from ``(G, K)``, exactly at
        any magnitude) — K-Iter passes the graph's cache so rounds
        recompute only the blocks whose tasks escalated.

    Raises
    ------
    SolverError
        If ``engine`` names no registered engine.
    DeadlockError
        If no feasible period exists (the graph deadlocks).
    InconsistentGraphError
        If the graph has no repetition vector.
    """
    info = get_engine(engine)
    prepared = prepare_min_period(
        graph, K, repetition=repetition, warm_start=warm_start,
        expansion_cache=expansion_cache,
    )
    try:
        # The registry solve runs per strongly connected component
        # with champion pruning when the engine supports it (acyclic
        # regions cost nothing, components that cannot beat the best
        # ratio are rejected by one oracle probe); the utilization bound
        # seeds the champion, and warm-starts engines that take bounds.
        result: CycleResult = solve_mcrp(
            prepared.bi_graph, info, lower_bound=prepared.lower
        )
    except DeadlockError as exc:
        # Annotate the infeasible circuit with task names so K-Iter can
        # escalate K along it (a small-K infeasibility is not necessarily
        # a graph deadlock — see exceptions.DeadlockError).
        raise annotate_deadlock(prepared, exc)
    _ENGINE_ITERATIONS.labels(engine=engine).inc(result.iterations)
    return finish_min_period(prepared, result, build_schedule=build_schedule)


def _extract_schedule(
    graph,
    K: Dict[str, int],
    repetition: Dict[str, int],
    bi_graph: BiValuedGraph,
    node_index: Dict[Tuple[str, int], int],
    omega_expanded: Fraction,
    lcm_k: int,
) -> KPeriodicSchedule:
    """Start times from exact longest-path potentials at ``λ = Ω_G̃``.

    At λ*, the weights ``w(e) = L(e) − λ*·H(e)`` admit no positive cycle,
    so the longest-path fixpoint from an all-zero source exists; it is the
    earliest K-periodic schedule for that period.
    """
    dist = longest_path_potentials(bi_graph, omega_expanded)
    return KPeriodicSchedule.from_potentials(
        graph, K, repetition, node_index, omega_expanded / lcm_k, dist
    )


def longest_path_potentials(
    bi_graph: BiValuedGraph,
    omega_expanded: Fraction,
) -> List[Fraction]:
    """Exact longest paths from an implicit zero source at ``λ = a/b``.

    The scheduling pass after λ* certification: with the compiled scale
    ``D``, the weight of arc ``i`` is ``(b·L'_i − a·H'_i) / (b·D)`` —
    the common positive denominator is factored out of the relaxation
    and restored once at the end, so no ``Fraction`` is ever constructed
    in a hot loop. The integer relaxation is the oracle's ordered pass
    (:func:`repro.mcrp.bellman.ordered_passes`) run to its fixpoint.

    Raises :class:`SolverError` when a positive cycle survives at the
    given λ — i.e. the caller passed an uncertified (too small) ratio.
    """
    compiled = bi_graph.compile()
    a, b = omega_expanded.numerator, omega_expanded.denominator
    weights = compiled.parametric_weights(a, b)
    dist = relax_potentials(compiled, weights)
    denom = b * compiled.scale
    return [Fraction(d, denom) for d in dist]


def relax_potentials(
    compiled,
    weights: List[int],
    seed: Optional[List[int]] = None,
) -> List[int]:
    """Least fixpoint of ``dist[v] ≥ dist[u] + w(u→v)`` at or above ``seed``.

    ``seed`` defaults to all zeros. Runs :func:`ordered_passes` to its
    quiet pass; a pass that still improves after ``backward + 1`` of
    them proves a positive cycle, which raises :class:`SolverError`.
    """
    dist: List[int] = [0] * compiled.node_count if seed is None else list(seed)
    limit = compiled.relaxation_order()[1] + 1
    pred = [-1] * compiled.node_count
    for passes, _last in enumerate(
        ordered_passes(compiled, weights, dist, pred), 1
    ):
        if passes > limit:
            raise SolverError("positive cycle at certified λ*: engine bug")
    return dist
