"""Theorem 2: precedence constraints of a feasible periodic schedule.

For a buffer ``b = (t, t')`` and a phase pair ``(p, p')`` the paper defines

* ``Q_b(p,p') = Oa⟨t'_{p'},1⟩ − Ia⟨t_p,1⟩ − M0(b) + in_b(p)``
* ``gcd_b = gcd(i_b, o_b)``
* ``α_b(p,p') = ⌈ Q_b(p,p') − min(in_b(p), out_b(p')) ⌉^{gcd_b}``
* ``β_b(p,p')  = ⌊ Q_b(p,p') − 1 ⌋^{gcd_b}``

where ``⌈x⌉^γ``/``⌊x⌋^γ`` round to multiples of γ. A pair is *useful* when
``α ≤ β``; each useful pair yields the linear constraint

    ``S⟨t'_{p'},1⟩ − S⟨t_p,1⟩ ≥ d(t_p) + Ω · β_b(p,p') / (q_t · i_b)``

on the first start times of a periodic schedule of period Ω (Theorem 2).

Sanity anchors (hand-checked, also enforced by the unit tests):

* an all-ones self-loop with one token yields the phase-chaining
  constraints ``S⟨t_{p+1}⟩ ≥ S⟨t_p⟩ + d(t_p)`` (β = 0) plus a wrap-around
  constraint with ``β = −i_b`` giving the utilization bound
  ``Ω ≥ q_t · Σ_p d(t_p)``;
* on the Figure 1 buffer, ``⟨t'_2,1⟩`` becomes executable exactly at the
  completion of ``⟨t_1,2⟩``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Tuple

import numpy as _np

from repro.model.buffer import Buffer
from repro.model.graph import CsdfGraph
from repro.utils.rational import (
    ceil_to_multiple,
    exact_int_array,
    floor_to_multiple,
)

#: Row-block budget of the vectorized O(ϕ·ϕ') useful-pair sweeps, in
#: int64 matrix cells: each candidate block materializes at most
#: ``PAIR_SWEEP_BLOCK_CELLS`` cells per intermediate (8 Mi cells ≈ 64 MiB
#: for the ``q``/``min-rate``/``β`` matrices each), bounding peak memory
#: on K-expanded buffers whose full candidate matrix would not fit.
#: Shared with the (G, K) expansion sweep in
#: :func:`expanded_useful_pair_arrays`.
PAIR_SWEEP_BLOCK_CELLS = 8 * 1024 * 1024


def _sweep_bound(buffer: Buffer, k_src: int, k_dst: int) -> int:
    """A bound on every ``|Q|``, ``|α|`` and ``|β|`` of the sweep.

    Each is at most the two expanded totals plus the marking plus one
    rounding step (≤ either total), so twice the totals plus ``|M0|``
    bounds them; past :data:`~repro.utils.rational.INT64_GUARD` the
    sweep runs on Python-int object arrays and stays exact.
    """
    return (
        2 * (k_src * buffer.total_production + k_dst * buffer.total_consumption)
        + abs(buffer.initial_tokens)
    )


@dataclass(frozen=True)
class PrecedenceConstraint:
    """One useful Theorem 2 constraint.

    The constraint reads ``S(target) − S(source) ≥ duration + Ω·omega_coeff``
    where *source* is the first execution of producer phase ``p`` and
    *target* the first execution of consumer phase ``p'``.

    ``omega_coeff`` is the exact fraction ``β/(q_t·i_b)``; in the bi-valued
    MCRP graph the arc carries ``(L, H) = (duration, −omega_coeff)``.
    """

    buffer_name: str
    source_task: str
    source_phase: int
    target_task: str
    target_phase: int
    duration: int
    beta: int
    omega_coeff: Fraction

    @property
    def height(self) -> Fraction:
        """The MCRP transit value ``H = −β/(q_t·i_b)``."""
        return -self.omega_coeff


def token_balance(buffer: Buffer, p: int, n: int, p_prime: int, n_prime: int) -> int:
    """``M0(b) + Ia⟨t_p,n⟩ − Oa⟨t'_{p'},n'⟩`` — the executability margin.

    ``⟨t'_{p'},n'⟩`` can be done at the completion of ``⟨t_p,n⟩`` iff this is
    non-negative (§3.1 of the paper).
    """
    return (
        buffer.initial_tokens
        + buffer.produced_upto(p, n)
        - buffer.consumed_upto(p_prime, n_prime)
    )


def q_value(buffer: Buffer, p: int, p_prime: int) -> int:
    """``Q_b(p,p')`` as defined above."""
    return (
        buffer.consumed_upto(p_prime, 1)
        - buffer.produced_upto(p, 1)
        - buffer.initial_tokens
        + buffer.production[p - 1]
    )


def constraint_window(buffer: Buffer, p: int, p_prime: int) -> Tuple[int, int]:
    """``(α_b(p,p'), β_b(p,p'))`` for one phase pair.

    The pair contributes a constraint iff ``α ≤ β``.
    """
    q = q_value(buffer, p, p_prime)
    gcd_b = buffer.rate_gcd
    in_p = buffer.production[p - 1]
    out_p = buffer.consumption[p_prime - 1]
    alpha = ceil_to_multiple(q - min(in_p, out_p), gcd_b)
    beta = floor_to_multiple(q - 1, gcd_b)
    return alpha, beta


def useful_pairs(buffer: Buffer) -> Iterator[Tuple[int, int, int]]:
    """Yield ``(p, p', β)`` for every useful pair of the buffer.

    This is the set ``Y(b)`` of the paper, enumerated lazily: the number of
    candidate pairs is ``ϕ(t)·ϕ(t')`` which grows quadratically under
    K-expansion, so callers stream rather than materialize.
    """
    phi_p = len(buffer.production)
    phi_c = len(buffer.consumption)
    m0 = buffer.initial_tokens
    gcd_b = buffer.rate_gcd
    # Prefix sums once; the inner loop then runs on plain ints.
    produced_prefix = [0] * (phi_p + 1)
    for i, r in enumerate(buffer.production, start=1):
        produced_prefix[i] = produced_prefix[i - 1] + r
    consumed_prefix = [0] * (phi_c + 1)
    for i, r in enumerate(buffer.consumption, start=1):
        consumed_prefix[i] = consumed_prefix[i - 1] + r
    for p in range(1, phi_p + 1):
        in_p = buffer.production[p - 1]
        base = in_p - produced_prefix[p] - m0
        for p_prime in range(1, phi_c + 1):
            q = consumed_prefix[p_prime] + base
            out_p = buffer.consumption[p_prime - 1]
            alpha = ceil_to_multiple(q - min(in_p, out_p), gcd_b)
            beta = floor_to_multiple(q - 1, gcd_b)
            if alpha <= beta:
                yield p, p_prime, beta


def useful_pair_arrays(buffer: Buffer):
    """Vectorized ``Y(b)``: arrays ``(p0, pp0, beta)`` with 0-based phases.

    Semantically identical to :func:`useful_pairs` (a unit test pins the
    equivalence) but evaluates the α ≤ β filter with numpy, which is what
    makes K-expanded constraint generation tractable on the Table 2
    graphs. Phases are int64; ``beta`` is int64, or a Python-int object
    array when the buffer's magnitudes leave int64.

    Large producers are processed in row blocks to bound peak memory at
    ``block × ϕ(consumer)`` matrix cells.
    """
    bound = _sweep_bound(buffer, 1, 1)
    production = exact_int_array(buffer.production, bound)
    consumption = exact_int_array(buffer.consumption, bound)
    return _pair_sweep(
        production,
        consumption,
        _np.cumsum(production),
        _np.cumsum(consumption),
        buffer.initial_tokens,
        buffer.rate_gcd,
    )


def _pair_sweep(production, consumption, prod_prefix, cons_prefix, m0, g):
    """Row-blocked Theorem 2 α ≤ β sweep over prepared rate arrays.

    The shared core of :func:`useful_pair_arrays` (base or materialized
    expanded buffers) and :func:`expanded_useful_pair_arrays` (tiled
    arrays synthesized from the base buffer): results are row-major in
    the producer phase regardless of the block size, which is what the
    parity contract with the materialized expansion relies on.
    """
    base = production - prod_prefix - m0  # in(p) − Σ_{α≤p} in(α) − M0
    phi_p = production.shape[0]
    block = max(
        1, min(phi_p, PAIR_SWEEP_BLOCK_CELLS // max(1, cons_prefix.shape[0]))
    )
    out_p: List = []
    out_pp: List = []
    out_beta: List = []
    for lo in range(0, phi_p, block):
        hi = min(phi_p, lo + block)
        q_mat = cons_prefix[None, :] + base[lo:hi, None]
        min_rate = _np.minimum(production[lo:hi, None], consumption[None, :])
        alpha = -((-(q_mat - min_rate)) // g) * g
        beta = ((q_mat - 1) // g) * g
        rows, cols = _np.nonzero(alpha <= beta)
        out_p.append(rows + lo)
        out_pp.append(cols)
        out_beta.append(beta[rows, cols])
    return (
        _np.concatenate(out_p) if out_p else _np.empty(0, dtype=_np.int64),
        _np.concatenate(out_pp) if out_pp else _np.empty(0, dtype=_np.int64),
        _np.concatenate(out_beta) if out_beta else _np.empty(0, dtype=_np.int64),
    )


def expanded_useful_pair_arrays(buffer: Buffer, k_src: int, k_dst: int):
    """``Y(b̃)`` of the K-expanded buffer, straight from the base buffer.

    Returns the same ``(p0, pp0, beta)`` arrays
    :func:`useful_pair_arrays` would return on the materialized
    expansion (production duplicated ``k_src`` times, consumption
    ``k_dst`` times — §3.2's ``[v]^P`` operator), without building the
    expanded :class:`~repro.model.buffer.Buffer`. The trick is that the
    expanded prefix sums are **affine in the tile index**:

        ``prefix̃[j·ϕ + p] = j·total + prefix[p]``

    so one ``np.tile`` + broadcast add reproduces them from the base
    cumsum, and the expanded rounding gcd is
    ``gcd(k_src·i_b, k_dst·o_b)`` arithmetically. A unit test pins the
    equivalence pairwise against the materialized path.

    Magnitudes past int64 switch the rate arrays (hence ``beta``) to
    Python-int object arrays; the phase arrays are always int64.
    """
    from math import gcd

    bound = _sweep_bound(buffer, k_src, k_dst)
    production = exact_int_array(buffer.production, bound)
    consumption = exact_int_array(buffer.consumption, bound)
    if (
        k_src == k_dst
        and production.shape == consumption.shape
        and not (production != 1).any()
        and not (consumption != 1).any()
    ):
        # All-ones loop (every serialization self-loop): closed form.
        # With unit rates the expanded gcd is ñ = k·ϕ and the α ≤ β
        # interval is the single point q − 1 = P' − P − M0, so each
        # producer phase P has exactly one useful pair — the phase the
        # M0-th-next token enables: P' = (P + M0) mod ñ, with
        # β = P' − P − M0 (the unique multiple of ñ in the window).
        # Replaces the Θ(ñ²) sweep by Θ(ñ); pinned against the generic
        # sweep by the unit tests.
        n = k_src * production.shape[0]
        p = _np.arange(n, dtype=_np.int64)
        pp = (p + buffer.initial_tokens % n) % n
        return p, pp, exact_int_array(pp - p, bound) - buffer.initial_tokens
    i_b = buffer.total_production
    o_b = buffer.total_consumption
    prod_prefix = _np.tile(_np.cumsum(production), k_src) + i_b * _np.repeat(
        _np.arange(k_src, dtype=production.dtype), production.shape[0]
    )
    cons_prefix = _np.tile(_np.cumsum(consumption), k_dst) + o_b * _np.repeat(
        _np.arange(k_dst, dtype=consumption.dtype), consumption.shape[0]
    )
    return _pair_sweep(
        _np.tile(production, k_src),
        _np.tile(consumption, k_dst),
        prod_prefix,
        cons_prefix,
        buffer.initial_tokens,
        gcd(k_src * i_b, k_dst * o_b),
    )


def buffer_constraints(
    graph: CsdfGraph,
    buffer: Buffer,
    repetition: Dict[str, int],
) -> List[PrecedenceConstraint]:
    """All useful Theorem 2 constraints of one buffer.

    ``repetition`` must be the repetition vector of the graph the buffer
    belongs to (the denominator of the Ω coefficient is ``q_t·i_b`` with
    ``t`` the producer).
    """
    producer = graph.task(buffer.source)
    q_t = repetition[buffer.source]
    denom = q_t * buffer.total_production
    constraints = []
    for p, p_prime, beta in useful_pairs(buffer):
        constraints.append(
            PrecedenceConstraint(
                buffer_name=buffer.name,
                source_task=buffer.source,
                source_phase=p,
                target_task=buffer.target,
                target_phase=p_prime,
                duration=producer.duration(p),
                beta=beta,
                omega_coeff=Fraction(beta, denom),
            )
        )
    return constraints


def graph_constraints(
    graph: CsdfGraph,
    repetition: Dict[str, int],
) -> List[PrecedenceConstraint]:
    """Theorem 2 constraints of every buffer of the graph."""
    constraints: List[PrecedenceConstraint] = []
    for b in graph.buffers():
        constraints.extend(buffer_constraints(graph, b, repetition))
    return constraints
