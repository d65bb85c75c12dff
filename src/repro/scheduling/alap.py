"""ALAP schedules from the certified potentials, via the reversed graph.

At the certified ``λ*`` every feasible K-periodic start vector solves
the difference-constraint system ``S[dst] − S[src] ≥ w(e)`` with
``w(e) = L(e) − λ*·H(e)`` over the bi-valued constraint graph. ASAP is
the *least* solution ≥ 0 (:func:`repro.kperiodic.solver.
longest_path_potentials`). ALAP is the *greatest* solution under a cap
vector, computed by the same ordered relaxation run on the **reversed**
graph: with ``f = −S``, the constraint becomes ``f[src] ≥ f[dst] + w``,
i.e. a longest-path fixpoint along reversed arcs seeded at ``−cap``.

Choosing the caps is where the scheduling content lives. A pure
makespan horizon (``T = max(ASAP + tail)``) yields latest starts for a
*deadline* ``T`` — but when the horizon is attained off the critical
circuit, the circuit itself inherits positive slack and the mobility
invariant "slack = 0 on a critical cycle" breaks. We therefore anchor:

* every node is capped at the horizon ``T`` (so ALAP ≥ ASAP holds
  everywhere — each cap dominates the node's ASAP value by the
  definition of ``T``), and
* the certified critical-circuit nodes are capped at their **ASAP**
  values exactly.

The critical circuit has cycle weight 0 at ``λ*``, so the ASAP values
along it already satisfy its arcs with equality; capping there is
consistent (the relaxation returns the cap itself) and pins the
circuit's slack to 0, which is the paper's notion of criticality:
instances on the throughput-limiting circuit have no freedom.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

from repro.exceptions import SolverError
from repro.mcrp.graph import BiValuedGraph
from repro.scheduling.registry import (
    ScheduleContext,
    register_policy,
    reject_unknown_options,
)


def reverse_bi_graph(bi: BiValuedGraph) -> BiValuedGraph:
    """The arc-reversed bi-valued graph (same nodes, labels, values)."""
    rev = BiValuedGraph(bi.node_count, labels=list(bi.labels))
    rev.extend_arcs(
        list(bi.arc_dst), list(bi.arc_src),
        list(bi.arc_cost), list(bi.arc_transit),
    )
    return rev


def _relax_reversed(
    bi: BiValuedGraph,
    omega_expanded: Fraction,
    seeds: Optional[Sequence[Fraction]],
) -> List[Fraction]:
    """Least fixpoint of ``g[x] = max(seed_x, max_{x→y} g[y] + w(e))``.

    Runs the solver's exact ordered relaxation on the reversed compiled
    graph; seeds are converted to the compiled integer scale (they must
    land on it — all inputs here are ratios of potentials, which do).
    """
    from repro.kperiodic.solver import relax_potentials

    rev = reverse_bi_graph(bi)
    compiled = rev.compile()
    a, b = omega_expanded.numerator, omega_expanded.denominator
    weights = compiled.parametric_weights(a, b)
    denom = b * compiled.scale
    seed_int: Optional[List[int]] = None
    if seeds is not None:
        seed_int = []
        for s in seeds:
            scaled = s * denom
            if scaled.denominator != 1:
                raise SolverError(
                    f"ALAP seed {s} does not land on the compiled "
                    f"scale 1/{denom}"
                )
            seed_int.append(scaled.numerator)
    dist = relax_potentials(compiled, weights, seed=seed_int)
    return [Fraction(d, denom) for d in dist]


def reverse_longest_walks(
    bi: BiValuedGraph, omega_expanded: Fraction
) -> List[Fraction]:
    """Longest walk value leaving each node at ``λ*`` (non-negative).

    ``tail[v] = max(0, max over walks from v of Σ w(e))`` — the node's
    downstream critical path. ``ASAP[v] + tail[v]`` bounds how late any
    work seeded at ``v`` can reach, which defines the ALAP horizon, and
    the critical-path list-scheduling priority ranks by ``tail`` alone.
    """
    return _relax_reversed(bi, omega_expanded, None)


def latest_path_potentials(
    bi: BiValuedGraph,
    omega_expanded: Fraction,
    caps: Sequence[Fraction],
) -> List[Fraction]:
    """Greatest solution of the constraint system with ``S ≤ caps``.

    ``S = −g`` where ``g`` is the reversed-graph least fixpoint seeded
    at ``−caps``; raises :class:`~repro.exceptions.SolverError` if a
    positive cycle survives (an uncertified λ was passed).
    """
    g = _relax_reversed(bi, omega_expanded, [-c for c in caps])
    return [-v for v in g]


def alap_potentials(ctx: ScheduleContext) -> List[Fraction]:
    """Critical-circuit-anchored latest starts for a context (cached
    via :meth:`ScheduleContext.alap_potentials`)."""
    asap = ctx.asap_potentials()
    tail = ctx.reverse_potentials()
    horizon = max(
        (a + t for a, t in zip(asap, tail)), default=Fraction(0)
    )
    caps = [horizon] * ctx.bi_graph.node_count
    for node in ctx.critical_node_ids():
        caps[node] = asap[node]
    return latest_path_potentials(ctx.bi_graph, ctx.omega_expanded, caps)


@register_policy(
    "alap",
    summary="latest starts at λ* (reversed-graph potentials, "
            "critical circuit anchored at ASAP)",
)
def build_alap(ctx: ScheduleContext, *, binding=None, **options):
    """ALAP start vector; the mobility window's upper edge."""
    reject_unknown_options("alap", options)
    starts = ctx.alap_potentials()
    asap = ctx.asap_potentials()
    zero_slack = sum(1 for a, l in zip(asap, starts) if a == l)
    horizon = max(
        (s + t for s, t in zip(asap, ctx.reverse_potentials())),
        default=Fraction(0),
    )
    return starts, {
        "horizon": horizon,
        "zero_slack_instances": zero_slack,
        "instances": len(starts),
    }
