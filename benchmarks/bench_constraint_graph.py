"""Ablation A3: constraint-graph construction and parallel-arc merging.

Measures Theorem 2 constraint generation (the vectorized α/β sweep) and
quantifies how much the dominant-arc merge shrinks graphs with parallel
buffers (bounded-buffer graphs double every channel, so they profit
most). Also times the K-expansion itself.
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.analysis import build_constraint_graph, repetition_vector
from repro.bench.reporting import format_table
from repro.buffers import bound_all_buffers
from repro.buffers.capacity import minimal_buffer_capacity
from repro.generators.csdf_apps import echo, jpeg2000, pdetect
from repro.generators.paper import figure2_graph
from repro.kperiodic.expansion import expanded_repetition_vector
from tests.reference_expansion import expand_graph

INSTANCES = {
    "figure2": figure2_graph,
    "jpeg2000": jpeg2000,
    "pdetect": pdetect,
    "echo": echo,
}


@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_build_constraint_graph(benchmark, instance):
    graph = INSTANCES[instance]()
    bi, _ = benchmark(lambda: build_constraint_graph(graph))
    assert bi.node_count == graph.total_phase_count()


@pytest.mark.parametrize("instance", ["figure2", "jpeg2000"])
def test_build_expanded_constraint_graph(benchmark, instance):
    graph = INSTANCES[instance]()
    q = repetition_vector(graph)
    K = {t: min(4, q[t]) if q[t] % min(4, q[t]) == 0 else 1 for t in q}
    expanded = expand_graph(graph, K)
    q_tilde = expanded_repetition_vector(q, K)
    bi, _ = benchmark(
        lambda: build_constraint_graph(expanded, q_tilde)
    )
    assert bi.arc_count > 0


def test_merge_parallel_shrinks_bounded_graphs(benchmark):
    rows = []
    for name in ("jpeg2000", "pdetect"):
        graph = INSTANCES[name]()
        bounded = bound_all_buffers(
            graph,
            {
                b.name: 4 * minimal_buffer_capacity(b)
                for b in graph.buffers() if not b.is_self_loop()
            },
        )
        merged, _ = build_constraint_graph(bounded, merge_parallel=True)
        raw, _ = build_constraint_graph(bounded, merge_parallel=False)
        assert merged.arc_count <= raw.arc_count
        rows.append(
            [name, str(raw.arc_count), str(merged.arc_count),
             f"{100 * (1 - merged.arc_count / raw.arc_count):.1f}%"]
        )
    table = format_table(
        ["Instance (bounded)", "arcs (raw)", "arcs (merged)", "saved"],
        rows,
        title="Ablation A3 — parallel-arc merging",
    )
    write_artifact("ablation_constraint_graph.txt", table)
    print("\n" + table)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_merging_does_not_change_period(benchmark):
    from repro.mcrp import max_cycle_ratio

    graph = figure2_graph()
    merged, _ = build_constraint_graph(graph, merge_parallel=True)
    raw, _ = build_constraint_graph(graph, merge_parallel=False)
    assert max_cycle_ratio(merged).ratio == max_cycle_ratio(raw).ratio
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
