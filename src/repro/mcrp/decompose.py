"""SCC decomposition for the MCRP: solve per component, prune by champion.

Cycles live inside strongly connected components, so

    λ*(G) = max over SCCs C of λ*(C)

and the critical circuit of the argmax component certifies the global
value. Decomposition pays twice:

* the positive-cycle oracle stops wasting relaxations pumping distances
  through the acyclic regions between components;
* once some component certified a champion ratio λ̂, every further
  component is first *probed* with one oracle call at λ̂ — no positive
  cycle there means it cannot beat the champion (and any deadlock
  circuit, which stays positive at every λ ≥ 0 when λ̂ > 0, would have
  shown up in the probe) — so the full engine only runs where it
  matters.

The probe-skip is sound only for λ̂ > 0: at λ̂ = 0 a zero-cost
negative-transit deadlock cycle is invisible, so such components are
always solved fully.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as _np

from repro.exceptions import DeadlockError
from repro.mcrp.bellman import ScaledGraph, find_positive_cycle
from repro.mcrp.graph import BiValuedGraph, CycleResult, FrozenBiValuedGraph
from repro.mcrp.ratio_iteration import max_cycle_ratio

#: Below this arc count the numpy subgraph slice costs more in array
#: round-trips than the plain Python copy it replaces.
_MIN_SLICE_ARCS = 256


def strongly_connected_node_sets(graph: BiValuedGraph) -> List[List[int]]:
    """Tarjan SCCs over the compiled CSR arc arrays (iterative), largest first.

    The sweep never touches Python adjacency *objects*: children are read
    straight from the compiled ``indptr``/``csr_arcs``/``dst`` arrays,
    which the graph's other consumers (oracle, potentials) share.
    """
    compiled = graph.compile()
    n = compiled.node_count
    indptr = compiled.indptr
    csr_arcs = compiled.csr_arcs
    arc_dst = compiled.dst
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    components: List[List[int]] = []
    counter = [0]
    for root in range(n):
        if index[root] != -1:
            continue
        work: List[Tuple[int, int]] = [(root, indptr[root])]
        while work:
            node, pos = work[-1]
            if pos == indptr[node]:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            end = indptr[node + 1]
            advanced = False
            while pos < end:
                child = arc_dst[csr_arcs[pos]]
                pos += 1
                if index[child] == -1:
                    work[-1] = (node, pos)
                    work.append((child, indptr[child]))
                    advanced = True
                    break
                if on_stack[child]:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    components.sort(key=len, reverse=True)
    return components


def _subgraph(
    graph: BiValuedGraph, nodes: List[int]
) -> Tuple[BiValuedGraph, List[int], List[int]]:
    """Induced subgraph + (local→global node map, local→global arc map)."""
    compiled = graph.compile()
    sliced = _subgraph_compiled(compiled, graph, nodes)
    if sliced is not None:
        return sliced
    indptr = compiled.indptr
    csr_arcs = compiled.csr_arcs
    arc_dst = compiled.dst
    local_of = {g: l for l, g in enumerate(nodes)}
    sub = BiValuedGraph(len(nodes), labels=[graph.labels[g] for g in nodes])
    arc_map: List[int] = []
    srcs: List[int] = []
    dsts: List[int] = []
    costs = []
    transits = []
    for g_node in nodes:
        src_local = local_of[g_node]
        for pos in range(indptr[g_node], indptr[g_node + 1]):
            arc = csr_arcs[pos]
            dst_local = local_of.get(arc_dst[arc])
            if dst_local is not None:
                srcs.append(src_local)
                dsts.append(dst_local)
                costs.append(graph.arc_cost[arc])
                transits.append(graph.arc_transit[arc])
                arc_map.append(arc)
    sub.extend_arcs(srcs, dsts, costs, transits)
    return sub, nodes, arc_map


def _subgraph_compiled(compiled, graph, nodes):
    """Fraction-free subgraph slice over the compiled int64 mirrors.

    Slices the parent's scaled integer arrays directly into a
    :meth:`~repro.mcrp.compiled.CompiledGraph.from_int64_arrays`-built
    compiled form wrapped in a
    :class:`~repro.mcrp.graph.FrozenBiValuedGraph` — no per-arc
    ``Fraction`` round trip, which on one-big-SCC constraint graphs
    (the typical shape: serialization loops connect every task's
    phases) used to re-materialize nearly every arc. The parent's scale
    is kept (possibly non-minimal for the component — cycle ratios are
    invariant under common scaling). Arc order matches the Python
    path: concatenated CSR out-slices in ``nodes`` order. Returns
    ``None`` when the int64 mirrors are unavailable or the graph
    is too small to pay for the array round-trips.
    """
    if (
        compiled.arc_count < _MIN_SLICE_ARCS
        or not compiled.ensure_numpy()
        or compiled.np_cost is None
    ):
        return None
    node_arr = _np.asarray(nodes, dtype=_np.int64)
    local = _np.full(compiled.node_count, -1, dtype=_np.int64)
    local[node_arr] = _np.arange(node_arr.shape[0], dtype=_np.int64)
    indptr = compiled.np_indptr
    csr = compiled.np_csr_arcs
    candidates = _np.concatenate(
        [csr[indptr[g]:indptr[g + 1]] for g in nodes]
    ) if nodes else _np.empty(0, dtype=_np.int64)
    arcs = candidates[local[compiled.np_dst[candidates]] >= 0]
    sub_compiled = compiled.from_int64_arrays(
        node_count=node_arr.shape[0],
        labels=[graph.labels[g] for g in nodes],
        src=local[compiled.np_src[arcs]],
        dst=local[compiled.np_dst[arcs]],
        scale=compiled.scale,
        cost=compiled.np_cost[arcs],
        transit=compiled.np_transit[arcs],
    )
    return FrozenBiValuedGraph(sub_compiled), list(nodes), arcs.tolist()


def max_cycle_ratio_sccs(
    graph: BiValuedGraph,
    *,
    engine: Union[Callable[..., CycleResult], "EngineInfo"] = max_cycle_ratio,
    lower_bound: Optional[Fraction] = None,
    seed_lower_bound: Optional[bool] = None,
) -> CycleResult:
    """λ* by per-SCC solving with champion pruning.

    Same contract as :func:`repro.mcrp.max_cycle_ratio`; node/arc ids of
    the returned circuit refer to the *input* graph. ``engine`` may be a
    bare solve callable or a registry :class:`EngineInfo` — with an
    info, the per-component dispatch reads the engine's capabilities
    directly (today: whether to warm-start it with the champion).
    ``lower_bound`` (certified) seeds the champion used for probe
    pruning — which is sound for every engine — and, when
    ``seed_lower_bound`` resolves true (explicitly, from the info's
    ``supports_lower_bound`` capability, or by default for bare
    callables), also warm-starts each component's engine call.
    """
    from repro.mcrp.registry import EngineInfo

    if isinstance(engine, EngineInfo):
        if seed_lower_bound is None:
            seed_lower_bound = engine.supports_lower_bound
        engine = engine.solve
    elif seed_lower_bound is None:
        seed_lower_bound = True
    components = [
        c for c in strongly_connected_node_sets(graph)
        if len(c) > 1 or _has_self_arc(graph, c[0])
    ]
    if not components:
        return CycleResult(ratio=None)

    best: Optional[CycleResult] = None
    champion: Optional[Fraction] = lower_bound
    iterations = 0

    def solve_component(nodes: List[int]) -> None:
        nonlocal best, champion, iterations
        sub, node_map, arc_map = _subgraph(graph, nodes)
        try:
            if seed_lower_bound:
                result = engine(sub, lower_bound=champion)
            else:
                result = engine(sub)
        except DeadlockError as exc:
            if exc.cycle_nodes is not None:
                exc.cycle_nodes = [node_map[v] for v in exc.cycle_nodes]
            raise
        iterations += result.iterations
        if result.ratio is None:
            return
        if best is None or result.ratio > best.ratio:
            best = CycleResult(
                ratio=result.ratio,
                cycle_arcs=[arc_map[a] for a in result.cycle_arcs],
                cycle_nodes=[node_map[v] for v in result.cycle_nodes],
            )
            champion = result.ratio

    # The largest component usually holds the answer: solve it directly.
    solve_component(components[0])
    remaining = components[1:]
    component_of: Dict[int, int] = {}
    for idx, nodes in enumerate(components):
        for v in nodes:
            component_of[v] = idx

    while remaining:
        if champion is None or champion <= 0:
            # no pruning possible (rare: zero/absent champion)
            solve_component(remaining.pop(0))
            continue
        # One probe over the *union* of all remaining components: no
        # positive cycle at the champion means none can beat it (and no
        # deadlock hides there either, since deadlock cycles stay
        # positive at every λ > 0).
        union_nodes = [v for nodes in remaining for v in nodes]
        sub, node_map, _arc_map = _subgraph(graph, union_nodes)
        scaled = ScaledGraph(sub)
        probe = find_positive_cycle(
            scaled, champion.numerator, champion.denominator
        )
        iterations += 1
        if probe is None:
            break
        hit = component_of[node_map[sub.arc_src[probe[0]]]]
        remaining = [
            nodes for nodes in remaining
            if component_of[nodes[0]] != hit
        ]
        solve_component(components[hit])

    if best is None:
        # components existed but none yielded a ratio above the seed —
        # only possible when a lower_bound seed pruned everything; the
        # seed is certified, yet we owe the caller a circuit: re-solve
        # the largest component without pruning.
        sub, node_map, arc_map = _subgraph(graph, components[0])
        result = engine(sub)
        if result.ratio is None:  # pragma: no cover - component has cycles
            return CycleResult(ratio=None, iterations=iterations)
        return CycleResult(
            ratio=result.ratio,
            cycle_arcs=[arc_map[a] for a in result.cycle_arcs],
            cycle_nodes=[node_map[v] for v in result.cycle_nodes],
            iterations=iterations + result.iterations,
        )
    final = best
    final.iterations = iterations
    return final


def _has_self_arc(graph: BiValuedGraph, node: int) -> bool:
    return any(graph.arc_dst[a] == node for a in graph.out_arcs(node))
