"""Unit tests for the K-expansion G → G̃ (paper §3.2, Theorem 3's setup)."""

import pytest

from repro.analysis import repetition_vector
from repro.exceptions import ModelError
from repro.generators.paper import figure2_graph
from repro.kperiodic import expanded_repetition_vector
from repro.model import csdf, sdf

from tests.reference_expansion import expand_graph


class TestExpandGraph:
    def test_duration_duplication(self):
        g = csdf({"A": [1, 2]}, [("A", "A", [1, 1], [1, 1], 2)])
        e = expand_graph(g, {"A": 3})
        assert e.task("A").durations == (1, 2, 1, 2, 1, 2)

    def test_rate_duplication_per_endpoint(self):
        g = csdf(
            {"A": [1], "B": [1, 1]},
            [("A", "B", [4], [1, 3], 5)],
        )
        e = expand_graph(g, {"A": 3, "B": 2})
        b = e.buffer("A_B_0")
        assert b.production == (4, 4, 4)
        assert b.consumption == (1, 3, 1, 3)
        assert b.initial_tokens == 5

    def test_unit_k_is_identity(self):
        g = figure2_graph()
        e = expand_graph(g, {t.name: 1 for t in g.tasks()})
        for t in g.tasks():
            assert e.task(t.name).durations == t.durations
        for b in g.buffers():
            eb = e.buffer(b.name)
            assert eb.production == b.production
            assert eb.consumption == b.consumption

    def test_expansion_totals_scale(self):
        g = figure2_graph()
        K = {"A": 2, "B": 1, "C": 3, "D": 1}
        e = expand_graph(g, K)
        for b in g.buffers():
            eb = e.buffer(b.name)
            assert eb.total_production == K[b.source] * b.total_production
            assert eb.total_consumption == K[b.target] * b.total_consumption

    def test_expanded_graph_is_consistent(self):
        g = figure2_graph()
        K = {"A": 3, "B": 2, "C": 2, "D": 1}
        e = expand_graph(g, K)
        assert repetition_vector(e)  # raises if inconsistent

    def test_missing_task_rejected(self):
        g = sdf({"A": 1}, [])
        with pytest.raises(ModelError):
            expand_graph(g, {})

    def test_non_positive_k_rejected(self):
        g = sdf({"A": 1}, [])
        with pytest.raises(ModelError):
            expand_graph(g, {"A": 0})


class TestExpandedRepetition:
    def test_paper_formula(self):
        # q̃_t = q_t · lcm(K) / K_t
        q = {"A": 3, "B": 4, "C": 6, "D": 1}
        K = {"A": 2, "B": 1, "C": 3, "D": 1}
        q_tilde = expanded_repetition_vector(q, K)
        assert q_tilde == {"A": 9, "B": 24, "C": 12, "D": 6}

    def test_unit_k_identity(self):
        q = {"A": 3, "B": 4}
        assert expanded_repetition_vector(q, {"A": 1, "B": 1}) == q

    def test_q_as_k_gives_constant(self):
        q = {"A": 3, "B": 4, "C": 6}
        q_tilde = expanded_repetition_vector(q, q)
        assert set(q_tilde.values()) == {12}  # lcm(3,4,6)

    def test_balance_preserved(self):
        g = figure2_graph()
        q = repetition_vector(g)
        K = {"A": 3, "B": 2, "C": 1, "D": 1}
        q_tilde = expanded_repetition_vector(q, K)
        e = expand_graph(g, K)
        for b in e.buffers():
            assert (
                q_tilde[b.source] * b.total_production
                == q_tilde[b.target] * b.total_consumption
            )
