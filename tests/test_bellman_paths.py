"""Equivalence tests: ordered longest-path oracle vs. queue-based finder.

The two positive-cycle engines must agree on *existence* for every
input (the concrete cycle may differ — both are verified before being
returned). Hypothesis drives random graphs and weights through both;
targeted cases cover orders with leftover nodes, the hand-off to the
queue engine, and weights beyond int64.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.mcrp.bellman as bellman_mod
from repro.mcrp.bellman import (
    ScaledGraph,
    _find_cycle_ordered,
    _find_positive_weight_cycle_python,
    find_positive_weight_cycle,
)
from repro.mcrp.graph import BiValuedGraph


def random_instance(seed: int, n_lo=2, n_hi=40, transits=(-3, 9)):
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    g = BiValuedGraph(n)
    for _ in range(rng.randint(n, 4 * n)):
        g.add_arc(rng.randrange(n), rng.randrange(n),
                  rng.randint(0, 9), Fraction(rng.randint(*transits)))
    scaled = ScaledGraph(g)
    weights = [
        rng.randint(-20, 20) for _ in range(g.arc_count)
    ]
    return scaled, weights


def cycle_weight(cycle, weights):
    return sum(weights[a] for a in cycle)


def assert_closed_positive(scaled, cycle, weights):
    for a, b in zip(cycle, cycle[1:]):
        assert scaled.arc_dst[a] == scaled.arc_src[b]
    assert scaled.arc_dst[cycle[-1]] == scaled.arc_src[cycle[0]]
    assert cycle_weight(cycle, weights) > 0


def assert_same_existence(scaled, weights):
    python_cycle = _find_positive_weight_cycle_python(scaled, weights)
    ordered = _find_cycle_ordered(scaled, weights)
    if python_cycle is None:
        assert ordered is None
    else:
        assert ordered is not None
        assert_closed_positive(scaled, ordered, weights)
        assert_closed_positive(scaled, python_cycle, weights)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10**9))
def test_engines_agree_on_existence(seed):
    scaled, weights = random_instance(seed)
    assert_same_existence(scaled, weights)


@pytest.mark.parametrize("seed", range(20))
def test_returned_cycles_are_closed(seed):
    scaled, weights = random_instance(seed, n_lo=64, n_hi=100)
    cycle = find_positive_weight_cycle(scaled, weights)
    if cycle is None:
        return
    assert_closed_positive(scaled, cycle, weights)


@pytest.mark.parametrize("seed", range(12))
def test_orders_with_leftover_nodes_agree(seed):
    # every transit ≤ 0: the H ≤ 0 subgraph is the whole (cyclic)
    # graph, so Kahn's levels place few nodes and the rest share one
    # last level, in index order
    scaled, weights = random_instance(seed, n_lo=10, n_hi=40,
                                      transits=(-9, 0))
    rows, backward, plan = scaled.compiled.relaxation_order()
    assert backward >= 1 and (rows or plan)
    assert_same_existence(scaled, weights)
    assert_same_existence(scaled, [w - 15 for w in weights])


def test_leftover_nodes_follow_in_index_order():
    # 0 → 1 → 2 → 1 is an H ≤ 0 cycle behind node 0; node 3 hangs off it
    g = BiValuedGraph(4)
    g.add_arc(0, 1, 1, 0)
    g.add_arc(1, 2, 1, 0)
    g.add_arc(2, 1, 1, -1)
    g.add_arc(2, 3, 1, 0)
    rows, backward, _plan = g.compile().relaxation_order()
    assert [v for v, _arcs in rows] == [1, 2, 3]
    # nodes 1, 2, 3 share the last level: only 0 → 1 is forward
    assert backward == 3
    scaled = ScaledGraph(g)
    cycle = _find_cycle_ordered(scaled, [1, 1, 1, 1])
    assert sorted(cycle) == [1, 2]


def test_pass_budget_hands_off_to_queue_engine(monkeypatch):
    # a 70-node ring closed by its one H > 0 arc, whose negative weight
    # keeps node 0 unimproved in the first pass: the predecessor chain
    # closes only in the second pass, so a budget of 1 hands off
    n = 70
    g = BiValuedGraph(n)
    for i in range(n):
        g.add_arc(i, (i + 1) % n, 1, 1 if i == n - 1 else 0)
    scaled = ScaledGraph(g)
    weights = [1] * (n - 1) + [-10]
    handed = []

    def queue(scaled_, weights_):
        handed.append(weights_)
        return _find_positive_weight_cycle_python(scaled_, weights_)

    monkeypatch.setattr(
        bellman_mod, "_find_positive_weight_cycle_python", queue
    )
    cycle = _find_cycle_ordered(scaled, weights, max_passes=1)
    assert handed == [weights]
    assert sorted(cycle) == list(range(n))
    assert_closed_positive(scaled, cycle, weights)
    # the default budget closes it in the ordered passes themselves
    handed.clear()
    assert sorted(_find_cycle_ordered(scaled, weights)) == list(range(n))
    assert handed == []


def test_ordered_pass_answers_beyond_int64(monkeypatch):
    g = BiValuedGraph(70)
    for i in range(70):
        g.add_arc(i, (i + 1) % 70, 1, 1 if i == 69 else 0)
    scaled = ScaledGraph(g)
    huge = [1 << 80] * g.arc_count

    def no_queue(*_args):  # pragma: no cover - the assertion
        raise AssertionError("handed off to the queue engine")

    monkeypatch.setattr(
        bellman_mod, "_find_positive_weight_cycle_python", no_queue
    )
    cycle = find_positive_weight_cycle(scaled, huge)
    assert cycle_weight(cycle, huge) == 70 << 80
    huge[-1] = -(70 << 80)  # the ring now weighs -(1 << 80)
    assert find_positive_weight_cycle(scaled, huge) is None


def wide_graph(seed, width=12):
    """Two layers of ``width`` nodes, all joined by zero-transit arcs and
    closed by ``H > 0`` arcs: two levels of ≥ 64 in-arcs each, so the
    relaxation order carries the vectorized plan."""
    rng = random.Random(seed)
    g = BiValuedGraph(2 * width)
    for u in range(width):
        for v in range(width, 2 * width):
            g.add_arc(u, v, rng.randint(0, 9), 0)
    for _ in range(width):
        g.add_arc(rng.randrange(width, 2 * width), rng.randrange(width),
                  rng.randint(0, 9), 1)
    weights = [rng.randint(-20, 5) for _ in range(g.arc_count)]
    weights[-width:] = [rng.randint(-60, -10) for _ in range(width)]
    return g, weights


@pytest.mark.parametrize("seed", range(10))
def test_vectorized_and_python_passes_agree(seed, monkeypatch):
    from repro.exceptions import SolverError
    from repro.kperiodic.solver import relax_potentials
    import repro.mcrp.compiled as compiled_mod

    g, weights = wide_graph(seed)
    vector = ScaledGraph(g)
    assert vector.compiled.relaxation_order()[2] is not None
    monkeypatch.setattr(compiled_mod, "VECTOR_ARCS_PER_LEVEL", 10 ** 9)
    python = ScaledGraph(wide_graph(seed)[0])
    assert python.compiled.relaxation_order()[2] is None
    for shift in (0, 15, 40):
        w = [x + shift for x in weights]
        reference = _find_positive_weight_cycle_python(vector, w)
        for scaled in (vector, python):
            found = _find_cycle_ordered(scaled, w)
            assert (found is None) == (reference is None)
            if found is not None:
                assert_closed_positive(scaled, found, w)
        if reference is None:
            assert relax_potentials(vector.compiled, w) == relax_potentials(
                python.compiled, w
            )
        else:
            with pytest.raises(SolverError):
                relax_potentials(vector.compiled, w)


@pytest.mark.parametrize("magnitude", [1 << 51, 1 << 70],
                         ids=["near-int64", "beyond-int64"])
def test_vectorized_plan_leaves_int64_to_python_passes(magnitude):
    # near int64 the vectorized pass stops after the passes it can
    # prove safe; beyond it, it never starts: the Python passes answer
    g, weights = wide_graph(3)
    scaled = ScaledGraph(g)
    assert scaled.compiled.relaxation_order()[2] is not None
    huge = [w * magnitude for w in weights]
    assert _find_cycle_ordered(scaled, huge) is None
    huge[-1] = 60 * magnitude
    cycle = _find_cycle_ordered(scaled, huge)
    assert_closed_positive(scaled, cycle, huge)


def test_vectorized_plan_keeps_long_path_sums_exact():
    # ten levels of nine nodes, consecutive levels fully joined: every
    # weight fits int64 but the nine-arc paths sum past it, so the
    # vectorized pass must leave the sums to the Python passes
    from repro.kperiodic.solver import relax_potentials

    width, depth, big = 9, 10, 1 << 60
    g = BiValuedGraph(width * depth)
    for level in range(depth - 1):
        for u in range(width):
            for v in range(width):
                g.add_arc(level * width + u, (level + 1) * width + v, 1, 0)
    compiled = g.compile()
    assert compiled.relaxation_order()[2] is not None
    weights = [big] * g.arc_count
    expected = [(node // width) * big for node in range(g.node_count)]
    assert relax_potentials(compiled, weights) == expected
    assert max(expected) > (1 << 63)
    assert _find_cycle_ordered(ScaledGraph(g), weights) is None


def test_empty_graph():
    g = BiValuedGraph(0)
    scaled = ScaledGraph(g)
    assert find_positive_weight_cycle(scaled, []) is None


def test_h263_oracle_settles_in_few_ordered_passes(monkeypatch):
    # h263's certified expansion is one serialized chain of 4,754 nodes
    # with 5 arcs of H > 0: every oracle call settles in a few ordered
    # passes (far below the hand-off budget), where one Jacobi sweep per
    # chain level needed thousands
    from repro.generators import h263_decoder
    from repro.kperiodic import throughput_kiter

    calls = []
    passes = bellman_mod.ordered_passes
    ordered = bellman_mod._find_cycle_ordered

    def counted_passes(*args):
        for last in passes(*args):
            calls[-1][1] += 1
            yield last

    def counted_oracle(scaled, weights, max_passes=None):
        calls.append([scaled.node_count, 0])
        return ordered(scaled, weights, max_passes)

    monkeypatch.setattr(bellman_mod, "ordered_passes", counted_passes)
    monkeypatch.setattr(bellman_mod, "_find_cycle_ordered", counted_oracle)
    result = throughput_kiter(h263_decoder())
    assert result.period == 1365646
    assert result.K["iq"] == result.K["idct"] == 2376
    assert max(nodes for nodes, _passes in calls) >= 4754
    assert all(count <= 4 for _nodes, count in calls)
