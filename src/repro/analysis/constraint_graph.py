"""Build the bi-valued MCRP graph from Theorem 2's constraints.

Nodes are the first executions ``⟨t_p, 1⟩`` of every phase of every task;
each useful constraint contributes an arc ``⟨t_p,1⟩ → ⟨t'_{p'},1⟩`` valued

    ``(L, H) = (d(t_p), −β_b(p,p') / (q_t·i_b))``.

The minimum feasible period is the maximum cycle ratio of this graph
(paper §3.3), and a critical circuit certifies it.

Parallel arcs between the same node pair (several useful pairs of the same
buffer, or several buffers between the same tasks) all share the same cost
``L = d(t_p)``; only the largest ``Ω``-coefficient binds, so they merge
into the arc with minimal ``H``. This typically shrinks K-expanded
constraint graphs dramatically (see the A3 ablation bench).

The graph of ``G`` is the ``K ≡ 1`` case of the K-expansion compile, so
:func:`build_constraint_graph` is a thin call to
:func:`repro.kperiodic.expansion.compile_expansion`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.analysis.consistency import repetition_vector
from repro.mcrp.graph import FrozenBiValuedGraph
from repro.model.graph import CsdfGraph

NodeKey = Tuple[str, int]  # (task name, 1-based phase)


def build_constraint_graph(
    graph: CsdfGraph,
    repetition: Optional[Dict[str, int]] = None,
    *,
    serialize: bool = True,
    merge_parallel: bool = True,
) -> Tuple[FrozenBiValuedGraph, Dict[NodeKey, int]]:
    """The bi-valued graph of Theorem 2 for ``graph``.

    Parameters
    ----------
    graph:
        A consistent CSDFG.
    repetition:
        Its repetition vector; computed when omitted.
    serialize:
        Add the implicit all-ones self-loop buffers that forbid
        auto-concurrency before generating constraints (the paper's
        schedules assume serialized tasks — Figure 5 contains the
        corresponding ``A1→A2`` arcs).
    merge_parallel:
        Keep only the dominant arc between each node pair.

    Returns
    -------
    (bi-valued graph, node index) where the graph is read-only and the
    node index maps ``(task, phase)`` to the dense node id.
    """
    from repro.kperiodic.expansion import compile_expansion

    if repetition is None:
        repetition = repetition_vector(graph)
    bi_graph, space = compile_expansion(
        graph,
        {t.name: 1 for t in graph.tasks()},
        repetition,
        serialize=serialize,
        merge_parallel=merge_parallel,
    )
    return bi_graph, space.node_index()
