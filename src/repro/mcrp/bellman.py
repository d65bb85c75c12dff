"""Positive-cycle detection for parametrized arc weights ``L − λ·H``.

This is the inner oracle of every ratio engine: for a candidate ratio λ,
the maximum cycle ratio exceeds λ iff the graph has a cycle of positive
weight under ``w(e) = L(e) − λ·H(e)``.

All arithmetic is **exact**: the compiled graph scales the
Fraction-valued ``(L, H)`` pairs to integers once by the lcm ``D`` of
their denominators, and a rational candidate ``λ = a/b`` turns the
weight test into the integer test ``b·L' − a·H' > 0``.

Both finders compute longest paths from an implicit super-source (all
distances start at 0), prove absence by reaching a fixpoint, and return
only a cycle of the predecessor graph whose weight is verified positive:

* the **ordered** finder (64 nodes and up) runs Gauss–Seidel passes in
  the compiled relaxation order, a topological order of the ``H ≤ 0``
  arcs. A K-expansion's zero-token chains are then forward arcs, so
  the pass count follows the backward arcs a path crosses, not its
  depth. Wide, shallow orders relax one numpy step per level;
* the **queue** finder (SPFA) is the small-graph path, the fallback
  when the ordered passes exceed their budget, and the oracle of the
  ``bellman`` registry engine: the slow-but-transparent baseline every
  fast path is validated against.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as _np

from repro.mcrp.graph import BiValuedGraph, CycleResult
from repro.mcrp.registry import register_engine


class ScaledGraph:
    """Integer-scaled view of a :class:`BiValuedGraph`.

    ``cost[i] = L_i·D`` and ``transit[i] = H_i·D`` where ``D`` is the lcm of
    all L/H denominators; cycle ratios are unchanged by the common scaling.
    Since the compiled-core refactor this is a thin adapter over
    ``graph.compile()`` — construction is O(1) after the first compile of
    the same graph.
    """

    def __init__(self, graph: BiValuedGraph):
        compiled = graph.compile()
        self.graph = graph
        self.compiled = compiled
        self.node_count = compiled.node_count
        self.scale = compiled.scale
        self.cost: List[int] = compiled.cost
        self.transit: List[int] = compiled.transit
        self.arc_src = compiled.src
        self.arc_dst = compiled.dst
        self.out_arcs = compiled.out_arcs

    def cycle_ratio(self, arc_indices: List[int]) -> Tuple[int, int]:
        """``(Σ cost, Σ transit)`` of a cycle, in scaled integers.

        The exact ratio is ``Fraction(Σ cost, Σ transit)`` — the scale
        cancels.
        """
        total_cost = sum(self.cost[i] for i in arc_indices)
        total_transit = sum(self.transit[i] for i in arc_indices)
        return total_cost, total_transit


def find_positive_cycle(
    scaled: ScaledGraph,
    lam_num: int,
    lam_den: int,
) -> Optional[List[int]]:
    """A cycle with ``Σ(L − λH) > 0`` at ``λ = lam_num/lam_den``, or None.

    Returns the cycle as a list of arc indices (an elementary cycle).
    ``lam_den`` must be positive.
    """
    if lam_den <= 0:
        raise ValueError("lam_den must be positive")
    weights = scaled.compiled.parametric_weights(lam_num, lam_den)
    return find_positive_weight_cycle(scaled, weights)


def find_positive_weight_cycle(
    scaled: ScaledGraph,
    weights: List[int],
) -> Optional[List[int]]:
    """An elementary cycle of positive total ``weights``-value, or None.

    From 64 nodes up this runs the ordered longest-path passes
    (:func:`_find_cycle_ordered`); below, and whenever those passes run
    out of budget, the queue-based relaxation. Both only return
    *verified* positive cycles and both prove absence by reaching a
    fixpoint, so the dispatch cannot affect correctness.
    """
    if scaled.node_count >= 64:
        return _find_cycle_ordered(scaled, weights)
    return _find_positive_weight_cycle_python(scaled, weights)


#: Improving passes allowed past the existence proof for the positive
#: cycle to reach the predecessor pointers before the queue engine
#: takes over.
_EXTRACTION_PASSES = 8


def ordered_passes(compiled, weights: List[int], dist: List[int], pred):
    """Gauss–Seidel longest-path passes in the compiled relaxation order.

    Each pass pulls every node once from its in-arcs, level by level in
    :meth:`~repro.mcrp.compiled.CompiledGraph.relaxation_order`, raising
    ``dist`` in place and recording the winning arc in ``pred`` (-1:
    none yet). It yields the last node it improved and stops after a
    pass with no improvement: ``dist`` is then the least fixpoint at or
    above its start. After pass ``k``, ``dist[v]`` is at least every
    path value into ``v`` that crosses at most ``k − 1`` backward arcs,
    so without a positive cycle at most ``backward + 1`` passes improve.
    Wide, shallow orders run one numpy step per level while every value
    provably fits int64; otherwise Python ints relax arc by arc, exactly
    at any magnitude.

    A 4-node chain closed by one ``H > 0`` back arc, at a λ where the
    cycle weighs 0: one improving pass, then the fixpoint.

    >>> from repro.mcrp.graph import BiValuedGraph
    >>> g = BiValuedGraph(4)
    >>> for v in range(3):
    ...     _ = g.add_arc(v, v + 1, 2, 0)
    >>> _ = g.add_arc(3, 0, 1, 1)
    >>> compiled = g.compile()
    >>> compiled.relaxation_order()
    ([(0, (3,)), (1, (0,)), (2, (1,)), (3, (2,))], 1, None)
    >>> dist, pred = [0] * 4, [-1] * 4
    >>> list(ordered_passes(compiled, [2, 2, 2, 1 - 7], dist, pred))
    [3]
    >>> dist
    [0, 2, 4, 6]
    """
    rows, _backward, plan = compiled.relaxation_order()
    if plan is not None:
        settled = yield from _level_passes(plan, weights, dist, pred)
        if settled:
            return
        rows = []  # past int64: the same order, arc by arc
        for _a0, _a1, _srcs, ids, starts, sizes, nodes, _pos in plan[1]:
            arcs = ids.tolist()
            rows += [
                (v, arcs[lo:lo + size]) for v, lo, size in
                zip(nodes.tolist(), starts.tolist(), sizes.tolist())
            ]
    src = compiled.src
    while True:
        last = -1
        for v, arcs in rows:
            best = dist[v]
            won = -1
            for arc in arcs:
                candidate = dist[src[arc]] + weights[arc]
                if candidate > best:
                    best = candidate
                    won = arc
            if won >= 0:
                dist[v] = best
                pred[v] = won
                last = v
        if last < 0:
            return
        yield last


def _level_passes(plan, weights, dist, pred):
    """:func:`ordered_passes` with one numpy step per level.

    A level's nodes read each other's values from before the step, so
    its own arcs count as backward, as ``relaxation_order`` counts them.
    After ``k`` passes every value is a walk of at most ``k·n`` arcs
    from the start, which bounds the passes that stay inside int64.
    Returns True at a fixpoint, False when that bound (or an input
    beyond int64) leaves the rest to the Python passes.
    """
    perm, levels = plan
    try:
        w = _np.array(weights, dtype=_np.int64)[perm]
        d = _np.array(dist, dtype=_np.int64)
    except OverflowError:
        return False
    reach = len(dist) * max(int(w.max()), -int(w.min()), 1)
    room = (1 << 62) - max(int(d.max()), -int(d.min()))
    p = _np.array(pred, dtype=_np.int64)
    for _pass in range(max(room, 0) // reach):
        last = -1
        for a0, a1, srcs, arcs, starts, sizes, nodes, positions in levels:
            cand = d[srcs] + w[a0:a1]
            best = _np.maximum.reduceat(cand, starts)
            up = best > d[nodes]
            if up.any():
                hit = _np.where(
                    cand == _np.repeat(best, sizes), positions, a1 - a0
                )
                touched = nodes[up]
                d[touched] = best[up]
                p[touched] = arcs[_np.minimum.reduceat(hit, starts)[up]]
                last = int(touched[-1])
        dist[:] = d.tolist()
        if last < 0:
            return True
        pred[:] = p.tolist()
        yield last
    return False


def _find_cycle_ordered(
    scaled: ScaledGraph,
    weights: List[int],
    max_passes: Optional[int] = None,
) -> Optional[List[int]]:
    """Positive-cycle oracle on :func:`ordered_passes` from all zeros.

    A pass with no improvement proves there is no positive cycle. After
    each improving pass the predecessor chain of its last improved node
    is walked once; a closed chain is returned if its weight is strictly
    positive. An improving pass past ``backward + 1`` proves a positive
    cycle exists; if ``_EXTRACTION_PASSES`` more passes (or the given
    ``max_passes`` in all) do not surface it, the queue engine answers
    from the same weights, so correctness never rests on this loop.
    """
    compiled = scaled.compiled
    if max_passes is None:
        max_passes = compiled.relaxation_order()[1] + 2 + _EXTRACTION_PASSES
    n = compiled.node_count
    dist = [0] * n
    pred = [-1] * n
    for passes, last in enumerate(
        ordered_passes(compiled, weights, dist, pred), 1
    ):
        cycle = _extract_pred_cycle(scaled, pred, last, weights)
        if cycle is not None:
            return cycle
        if passes >= max_passes:
            return _find_positive_weight_cycle_python(scaled, weights)
    return None


def _find_positive_weight_cycle_python(
    scaled: ScaledGraph,
    weights: List[int],
) -> Optional[List[int]]:
    """Exact queue-based engine (reference implementation).

    Queue-based longest-path relaxation from an all-zero start. Soundness
    of the two halves:

    * *absence*: without a positive cycle the relaxation quiesces (each
      round raises distances toward the finite max-walk fixpoint), so an
      emptied queue proves there is none;
    * *presence*: a predecessor-graph cycle always has total weight ≥ 0
      (each arc satisfies ``dist[dst] ≤ dist[src] + w`` once ``src`` may
      have been re-relaxed), so any extracted cycle is *verified* before
      being returned; while a positive cycle pumps the distances its arcs
      become the latest predecessors of its nodes, so repeated extraction
      attempts (triggered by walk-length overflow ``plen > n`` or by a
      relaxation budget no positive-cycle-free run can exhaust) find it.

    Extraction attempts that surface a zero-weight predecessor cycle or a
    broken chain are simply dropped and the search continues — they prove
    nothing either way.
    """
    n = scaled.node_count
    if n == 0:
        return None
    dist = [0] * n
    pred_arc = [-1] * n
    plen = [0] * n  # arcs in the walk realizing dist[v]
    in_queue = [True] * n
    queue = deque(range(n))
    arc_dst = scaled.arc_dst
    out_arcs = scaled.out_arcs

    relaxations = 0
    # Without a positive cycle, queue-based BF performs at most ~n·m
    # relaxations; exceeding this certifies a positive cycle exists and
    # switches the loop into extraction mode unconditionally.
    m = max(1, len(weights))
    budget = 2 * n * m + 64
    attempts = 0
    max_attempts = 10 * n + 1000

    while queue:
        u = queue.popleft()
        in_queue[u] = False
        du = dist[u]
        pu = plen[u]
        for arc in out_arcs[u]:
            w = weights[arc]
            v = arc_dst[arc]
            candidate = du + w
            if candidate > dist[v]:
                dist[v] = candidate
                pred_arc[v] = arc
                plen[v] = pu + 1
                relaxations += 1
                if plen[v] > n or relaxations > budget:
                    cycle = _extract_pred_cycle(scaled, pred_arc, v, weights)
                    if cycle is not None:
                        return cycle
                    plen[v] = 0
                    attempts += 1
                    if attempts > max_attempts:  # pragma: no cover
                        raise RuntimeError(
                            "positive cycle certified but not extracted; "
                            "please report this graph"
                        )
                if not in_queue[v]:
                    in_queue[v] = True
                    queue.append(v)
    return None


def _extract_pred_cycle(
    scaled: ScaledGraph,
    pred_arc: List[int],
    start: int,
    weights: List[int],
) -> Optional[List[int]]:
    """A *strictly positive* cycle from the predecessor graph, or None.

    Walks the chain from ``start``; a repeat closes a candidate cycle,
    whose weight is verified (predecessor cycles are ≥ 0 but can be 0).
    """
    seen_at = {}
    chain_nodes: List[int] = []
    chain_arcs: List[int] = []
    node = start
    while node not in seen_at:
        seen_at[node] = len(chain_nodes)
        chain_nodes.append(node)
        arc = pred_arc[node]
        if arc < 0:
            return None  # chain reached an un-relaxed node: no cycle here
        chain_arcs.append(arc)
        node = scaled.arc_src[arc]
    first = seen_at[node]
    cycle_arcs = chain_arcs[first:]
    cycle_arcs.reverse()  # forward (source -> dest) order
    if sum(weights[a] for a in cycle_arcs) <= 0:
        return None
    return cycle_arcs


def certify_zero_ratio(scaled: ScaledGraph) -> Optional[List[int]]:
    """Certificate handling for a converged ratio ``λ* ≤ 0`` (costs ≥ 0).

    Precondition: the graph has no positive cycle at λ = 0, i.e. every
    cycle has zero total cost. Then exactly one of three cases holds:

    * some cycle has positive transit → it is critical with ratio 0
      (returned);
    * some cycle has negative transit → no positive period satisfies the
      constraints (:class:`~repro.exceptions.DeadlockError`);
    * every cycle is vacuous (``L = 0, H = 0``) or the graph is acyclic →
      no binding period constraint (``None`` returned).
    """
    from repro.exceptions import DeadlockError, SolverError

    # Deadlock first: a zero-cost negative-transit cycle forbids every
    # positive period even when other cycles would certify ratio 0.
    negative = find_positive_weight_cycle(
        scaled, [-t for t in scaled.transit]
    )
    if negative is not None:
        raise DeadlockError(
            "zero-cost cycle with negative transit: "
            "no positive period exists (deadlock)",
            cycle_nodes=[scaled.arc_src[a] for a in negative],
        )
    positive = find_positive_weight_cycle(scaled, list(scaled.transit))
    if positive is not None:
        cost, transit = scaled.cycle_ratio(positive)
        if cost > 0:  # pragma: no cover - contradicts the precondition
            raise SolverError("positive-cost cycle survived the λ=0 pass")
        return positive
    return None


# ----------------------------------------------------------------------
def _python_oracle(
    scaled: ScaledGraph, lam_num: int, lam_den: int
) -> Optional[List[int]]:
    """Positive-cycle oracle pinned to the reference Python relaxation."""
    weights = scaled.compiled.parametric_weights(lam_num, lam_den)
    return _find_positive_weight_cycle_python(scaled, weights)


@register_engine(
    "bellman",
    supports_lower_bound=True,
    summary="ascending iteration on the pure-Python Bellman-Ford oracle "
            "(reference baseline, no vectorized fast paths)",
)
def max_cycle_ratio_bellman(
    graph: BiValuedGraph,
    *,
    lower_bound: Optional[Fraction] = None,
) -> CycleResult:
    """Exact λ* via ratio iteration over the queue-based Python oracle.

    Identical contract (and results) to
    :func:`repro.mcrp.max_cycle_ratio`; only the oracle implementation
    differs — this engine never touches the ordered passes, which
    makes it the ground truth the fast paths are validated against,
    and a sane choice on tiny graphs where set-up dominates.
    """
    from repro.mcrp.ratio_iteration import max_cycle_ratio

    return max_cycle_ratio(
        graph, lower_bound=lower_bound, oracle=_python_oracle
    )
