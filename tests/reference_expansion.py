"""Independent reference for the K-expansion compile (test oracle only).

The product path (:func:`repro.kperiodic.expansion.compile_expansion`)
never materializes the expansion ``G̃`` and never builds a per-arc
``Fraction``. This module does both, the slow and obvious way:

* :func:`expand_graph` materializes ``G̃`` as a real
  :class:`~repro.model.graph.CsdfGraph` (paper §3.2: every duration,
  production and consumption vector duplicated ``K_t`` times);
* :func:`reference_constraint_graph` enumerates Theorem 2's useful
  pairs of every buffer of that materialized graph with the pure-Python
  :func:`~repro.analysis.precedence.useful_pairs` loop (no numpy sweep
  code shared with the product) and emits one exact ``Fraction`` arc per
  pair, merging parallel arcs through a dict that keeps the minimal
  ``H`` per node pair at the position of its first occurrence.

The parity suites compare the product's compiled arrays, node layout
and certified λ* against this module bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

from repro.analysis.consistency import repetition_vector
from repro.analysis.precedence import useful_pairs
from repro.kperiodic.expansion import (
    expanded_repetition_vector,
    validate_periodicity,
)
from repro.mcrp.graph import BiValuedGraph
from repro.mcrp.registry import solve_mcrp
from repro.model.buffer import Buffer
from repro.model.graph import CsdfGraph
from repro.model.task import Task
from repro.utils.rational import lcm_list

NodeKey = Tuple[str, int]


def duplicate(vector, times: int) -> tuple:
    """The paper's ``[v]^P`` vector-duplication operator."""
    return tuple(vector) * times


def expand_graph(graph: CsdfGraph, K: Mapping[str, int]) -> CsdfGraph:
    """Build ``G̃`` for periodicity vector ``K``.

    >>> from repro.model import csdf
    >>> g = csdf({"A": [1, 2]}, [("A", "A", [1, 0], [0, 1], 1)])
    >>> expand_graph(g, {"A": 2}).task("A").durations
    (1, 2, 1, 2)
    """
    K = validate_periodicity(graph, K)
    expanded = CsdfGraph(f"{graph.name}~K")
    for t in graph.tasks():
        expanded.add_task(Task(t.name, duplicate(t.durations, K[t.name])))
    for b in graph.buffers():
        expanded.add_buffer(
            Buffer(
                name=b.name,
                source=b.source,
                target=b.target,
                production=duplicate(b.production, K[b.source]),
                consumption=duplicate(b.consumption, K[b.target]),
                initial_tokens=b.initial_tokens,
                serialization=b.serialization,
            )
        )
    return expanded


def reference_constraint_graph(
    graph: CsdfGraph,
    repetition: Optional[Dict[str, int]] = None,
    *,
    serialize: bool = True,
    merge_parallel: bool = True,
) -> Tuple[BiValuedGraph, Dict[NodeKey, int]]:
    """Theorem 2's bi-valued graph of ``graph``, one Fraction per arc."""
    work = graph.with_serialization_loops() if serialize else graph
    if repetition is None:
        repetition = repetition_vector(work)

    node_index: Dict[NodeKey, int] = {}
    base_of: Dict[str, int] = {}
    for t in work.tasks():
        base_of[t.name] = len(node_index)
        for p in range(1, t.phase_count + 1):
            node_index[(t.name, p)] = len(node_index)
    bi_graph = BiValuedGraph(len(node_index), labels=list(node_index))

    # Only buffers sharing a task pair can emit parallel arcs (phase
    # pairs are unique within one buffer).
    pair_count: Dict[Tuple[str, str], int] = {}
    for b in work.buffers():
        key = (b.source, b.target)
        pair_count[key] = pair_count.get(key, 0) + 1

    best: Dict[Tuple[int, int], int] = {}
    for b in work.buffers():
        denom = repetition[b.source] * b.total_production
        src_base = base_of[b.source]
        dst_base = base_of[b.target]
        durations = work.task(b.source).durations
        merge = merge_parallel and pair_count[(b.source, b.target)] > 1
        for p, pp, beta in useful_pairs(b):  # 1-based phases
            src = src_base + p - 1
            dst = dst_base + pp - 1
            height = Fraction(-beta, denom)
            existing = best.get((src, dst)) if merge else None
            if existing is None:
                arc = bi_graph.add_arc(src, dst, durations[p - 1], height)
                if merge:
                    best[(src, dst)] = arc
            elif height < bi_graph.arc_transit[existing]:
                # Same L (= d(t_p)); smaller H is the tighter constraint.
                bi_graph.arc_transit[existing] = height
    bi_graph.invalidate()
    return bi_graph, node_index


def reference_expansion(
    graph: CsdfGraph, K: Mapping[str, int], repetition=None
) -> Tuple[BiValuedGraph, Dict[NodeKey, int]]:
    """The constraint graph of the materialized expansion ``G̃``."""
    q = repetition if repetition is not None else repetition_vector(graph)
    return reference_constraint_graph(
        expand_graph(graph, K), expanded_repetition_vector(q, K)
    )


def reference_min_period(
    graph: CsdfGraph, K: Mapping[str, int], engine: str = "ratio-iteration"
) -> Fraction:
    """``Ω_G = λ*/lcm(K)`` solved on the reference graph (0 if acyclic)."""
    bi_graph, _ = reference_expansion(graph, K)
    ratio = solve_mcrp(bi_graph, engine).ratio
    if ratio is None:
        return Fraction(0)
    return ratio / lcm_list(K.values())
