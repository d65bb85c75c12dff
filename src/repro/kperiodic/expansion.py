"""The K-expansion ``G → G̃`` (paper §3.2), compiled straight from ``(G, K)``.

For a periodicity vector ``K``, every task ``t`` of ``G̃`` has
``ϕ̃(t) = K_t·ϕ(t)`` phases obtained by duplicating its duration vector
``K_t`` times; every buffer duplicates its production (resp. consumption)
vector ``K_t`` (resp. ``K_{t'}``) times; markings are unchanged. A
1-periodic schedule of ``G̃`` *is* a K-periodic schedule of ``G``, with
periods related by ``Ω_G = Ω_G̃ / lcm(K)`` (Theorem 3).

:func:`compile_expansion` never materializes ``G̃``: Theorem 2's useful
pairs of every expanded buffer are computed with numpy straight from the
*base* buffer plus ``(K_src, K_dst)`` (the expanded prefix sums are
affine in the tile index — see
:func:`repro.analysis.precedence.expanded_useful_pair_arrays`), emitted
as ``(src, dst, cost, β)`` arc blocks with one shared per-buffer
denominator ``q̃_t·ĩ_b``, and assembled arithmetically into a
:class:`~repro.mcrp.compiled.CompiledGraph` — zero per-arc ``Fraction``
allocation; Fractions materialize lazily through the
:class:`~repro.mcrp.graph.FrozenBiValuedGraph` views only for
certification and back-mapping. The arithmetic runs on int64 arrays and
switches to Python-int object arrays wherever a value could leave int64,
so the result is exact at any magnitude. Blocks are cached per
``(buffer name, K_src, K_dst)`` (:class:`ExpansionBlockCache`), so a
K-Iter round whose escalation leaves a task's K unchanged reuses that
task's blocks, and service-pool workers reuse them across jobs sharing a
graph.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from collections import OrderedDict
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as _np

from repro.analysis.precedence import expanded_useful_pair_arrays
from repro.exceptions import ModelError, ReproError
from repro.mcrp.compiled import CompiledGraph
from repro.mcrp.graph import FrozenBiValuedGraph
from repro.model.graph import CsdfGraph
from repro.obs.metrics import REGISTRY as _REGISTRY
from repro.utils.rational import exact_int_array, lcm_list

# Pre-bound registry cells: the block cache is consulted once per
# buffer per K-Iter round, so each event costs one attribute load and
# an integer add on top of the existing int counters.
_BLOCK_EVENTS = _REGISTRY.counter("repro_expansion_block_cache_total")
_BLOCK_HIT = _BLOCK_EVENTS.labels(event="hit")
_BLOCK_MISS = _BLOCK_EVENTS.labels(event="miss")
_BLOCK_EVICTION = _BLOCK_EVENTS.labels(event="eviction")
_COMPILED_EVENTS = _REGISTRY.counter("repro_expansion_compiled_total")
_COMPILED_HIT = _COMPILED_EVENTS.labels(event="hit")
_COMPILED_MISS = _COMPILED_EVENTS.labels(event="miss")

def validate_periodicity(graph: CsdfGraph, K: Mapping[str, int]) -> Dict[str, int]:
    """Check that ``K`` maps every task to a positive integer."""
    result: Dict[str, int] = {}
    for t in graph.tasks():
        k = K.get(t.name)
        if k is None:
            raise ModelError(f"periodicity vector misses task {t.name!r}")
        if not isinstance(k, int) or k < 1:
            raise ModelError(
                f"periodicity K[{t.name!r}] must be a positive integer, got {k!r}"
            )
        result[t.name] = k
    return result


def expanded_repetition_vector(
    repetition: Mapping[str, int],
    K: Mapping[str, int],
) -> Dict[str, int]:
    """The paper's ``q̃_t = q_t · lcm(K) / K_t`` repetition vector of ``G̃``.

    Theorem 2's constraint denominators — and therefore the period
    normalization of Theorem 3 — assume exactly this (possibly non-minimal)
    repetition vector, so it is computed directly rather than re-derived
    from ``G̃``.
    """
    lcm_k = lcm_list(K.values())
    q_tilde: Dict[str, int] = {}
    for t, q_t in repetition.items():
        k_t = K[t]
        scaled = q_t * lcm_k
        if scaled % k_t != 0:  # pragma: no cover - lcm(K) is divisible by K_t
            raise ModelError(f"q̃ not integral for task {t!r}")
        q_tilde[t] = scaled // k_t
    return q_tilde


# ----------------------------------------------------------------------
# (G, K) → CompiledGraph
# ----------------------------------------------------------------------
class ArcBlock:
    """One buffer's K-expanded constraint arcs, in buffer-local phases.

    ``src_phase``/``dst_phase`` are 0-based phases of the *expanded*
    producer/consumer (``P ∈ 0..K_src·ϕ−1``), ``cost`` the producer
    phase durations ``d(t_P)`` and ``beta`` Theorem 2's β — the phases
    int64, ``cost``/``beta`` int64 or, past int64, Python-int object
    arrays — frozen read-only so cache sharing across rounds/jobs is
    safe. The per-buffer denominator ``q̃_t·ĩ_b`` is *not* part of the block: it
    depends on ``lcm(K)`` and is recomputed at assembly each round,
    which is exactly what makes the block reusable whenever
    ``(K_src, K_dst)`` did not change.
    """

    __slots__ = ("src_phase", "dst_phase", "cost", "beta")

    def __init__(self, src_phase, dst_phase, cost, beta):
        for arr in (src_phase, dst_phase, cost, beta):
            arr.setflags(write=False)
        self.src_phase = src_phase
        self.dst_phase = dst_phase
        self.cost = cost
        self.beta = beta

    @property
    def arc_count(self) -> int:
        return int(self.src_phase.shape[0])

    @property
    def cells(self) -> int:
        """Array cells held (the cache's size accounting unit)."""
        return 4 * self.arc_count


class ExpansionBlockCache:
    """LRU cache of :class:`ArcBlock`\\ s keyed ``(buffer, K_src, K_dst)``.

    The reuse contract: an entry is valid for every future round/job on
    the **same** :class:`~repro.model.graph.CsdfGraph` object (buffers
    are immutable and graphs append-only, so a buffer name pins its
    content) as long as the producer's and consumer's K entries match
    the key — everything else (``lcm(K)``, the other tasks' K, node
    offsets, denominators) is applied at assembly time. Under K-Iter's
    lcm update policy K only ever grows along critical circuits, so a
    round typically re-derives blocks for the few escalated tasks and
    hits the cache for the rest.

    Bounded by total array cells (LRU eviction), not entry count, since
    block sizes vary by orders of magnitude across K.
    """

    def __init__(self, max_cells: int = 16_000_000):
        self.max_cells = max_cells
        self._blocks: "OrderedDict[Tuple[str, int, int], ArcBlock]" = (
            OrderedDict()
        )
        self._cells = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # The serialization-loop copy of the bound graph (plus its
        # parallel-pair flag), revalidated by task/buffer counts: every
        # K-Iter round re-derives the same copy otherwise, and under
        # warm service traffic that rebuild dominates small compiles.
        self._serialized: Optional[Tuple[Tuple[int, int], object, bool]] = None
        # Fully assembled compiled constraint graphs keyed by the K
        # vector (task-name sorted). K-Iter's escalation sequence is
        # deterministic per graph, so a warm worker re-assembles the
        # same few (bi_graph, space) pairs for every repeat solve; the
        # frozen compiled form is immutable and safe to share. Small
        # LRU — entries are per-K and graphs see a handful of rounds.
        self.max_compiled = 32
        self._compiled: "OrderedDict[Tuple[Tuple[str, int], ...], Tuple[object, object]]" = (
            OrderedDict()
        )
        self._compiled_counts: Optional[Tuple[int, int]] = None
        self.compiled_hits = 0
        self.compiled_misses = 0

    def compiled_for(self, graph, k_key) -> Optional[Tuple[object, object]]:
        """The assembled ``(bi_graph, space)`` for this K, if cached."""
        if self._compiled_counts != (graph.task_count, graph.buffer_count):
            self.compiled_misses += 1
            _COMPILED_MISS.inc()
            return None
        built = self._compiled.get(k_key)
        if built is None:
            self.compiled_misses += 1
            _COMPILED_MISS.inc()
            return None
        self._compiled.move_to_end(k_key)
        self.compiled_hits += 1
        _COMPILED_HIT.inc()
        return built

    def store_compiled(self, graph, k_key, built) -> None:
        counts = (graph.task_count, graph.buffer_count)
        if self._compiled_counts != counts:
            self._compiled.clear()
            self._compiled_counts = counts
        self._compiled[k_key] = built
        while len(self._compiled) > self.max_compiled:
            self._compiled.popitem(last=False)

    def serialized_for(self, graph) -> Optional[Tuple[object, bool]]:
        """The cached ``with_serialization_loops()`` copy, if still valid."""
        entry = self._serialized
        if entry is not None and entry[0] == (
            graph.task_count, graph.buffer_count
        ):
            return entry[1], entry[2]
        return None

    def store_serialized(self, graph, work, shared_pairs: bool) -> None:
        self._serialized = (
            (graph.task_count, graph.buffer_count), work, shared_pairs
        )

    def get(self, name: str, k_src: int, k_dst: int) -> Optional[ArcBlock]:
        block = self._blocks.get((name, k_src, k_dst))
        if block is None:
            self.misses += 1
            _BLOCK_MISS.inc()
            return None
        self._blocks.move_to_end((name, k_src, k_dst))
        self.hits += 1
        _BLOCK_HIT.inc()
        return block

    def put(self, name: str, k_src: int, k_dst: int, block: ArcBlock) -> None:
        key = (name, k_src, k_dst)
        old = self._blocks.pop(key, None)
        if old is not None:  # pragma: no cover - put-after-get misses this
            self._cells -= old.cells
        self._blocks[key] = block
        self._cells += block.cells
        while self._cells > self.max_cells and len(self._blocks) > 1:
            _, evicted = self._blocks.popitem(last=False)
            self._cells -= evicted.cells
            self.evictions += 1
            _BLOCK_EVICTION.inc()

    def clear(self) -> None:
        self._blocks.clear()
        self._cells = 0

    def invalidate_buffer(self, name: str) -> int:
        """Drop every cached block of buffer ``name`` (any ``K`` pair).

        The targeted edit surface of :class:`repro.dse.DseSession`: an
        edit to one buffer's content (rates, marking, or — through the
        bounded-buffer transformation — capacity) stales exactly the
        blocks keyed ``(name, *, *)``; everything else remains valid
        because a block depends only on its own buffer plus
        ``(K_src, K_dst)``. The assembled memos are *not* touched here —
        they aggregate every buffer, so the caller drops them once per
        edit batch via :meth:`invalidate_assembled`. Returns the number
        of blocks dropped (the ``session.*`` invalidation metric).
        """
        stale = [key for key in self._blocks if key[0] == name]
        for key in stale:
            block = self._blocks.pop(key)
            self._cells -= block.cells
        return len(stale)

    def invalidate_assembled(self) -> None:
        """Drop the assembled-graph memo and the serialization copy.

        Both are aggregates of the whole graph (and validated only by
        task/buffer *counts*), so any content edit stales them even
        when the counts are unchanged. Per-buffer blocks survive — the
        reuse they carry is the point of selective invalidation.
        """
        self._compiled.clear()
        self._compiled_counts = None
        self._serialized = None

    def invalidate_compiled(self) -> None:
        """Drop only the assembled-K memo, keeping the serialized copy."""
        self._compiled.clear()
        self._compiled_counts = None

    def patch_serialized(self, graph, *, tasks=None, buffers=None) -> bool:
        """Swap edited tasks/buffers into the serialization-loop memo.

        A *content* edit (rates, marking, durations — same topology)
        leaves the serialization copy structurally identical: only the
        edited objects differ, and ``shared_pairs`` is a pure topology
        property. Rebuilding the memoized work graph with the
        replacements swapped in (one shared-reference pass) is much
        cheaper than re-deriving ``with_serialization_loops()`` from
        scratch on the next compile — the steady-state win of
        :class:`repro.dse.DseSession` edits. On any failure the memo is
        dropped (never left stale): returns ``False`` and the next
        compile rebuilds cold.
        """
        entry = self._serialized
        if entry is None:
            return False
        counts, work, shared_pairs = entry
        if counts != (graph.task_count, graph.buffer_count):
            self._serialized = None
            return False
        from repro.transforms.surgery import rebuild_graph

        try:
            new_work = rebuild_graph(
                work, tasks=tasks or None, buffers=buffers or None)
        except ReproError:
            self._serialized = None
            return False
        self._serialized = (counts, new_work, shared_pairs)
        return True

    def __len__(self) -> int:
        return len(self._blocks)

    def stats(self) -> Dict[str, int]:
        return {
            "blocks": len(self._blocks),
            "cells": self._cells,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: Per-graph block caches: keyed by the graph *object* (weakly — a
#: collected graph drops its blocks), so K-Iter rounds on one graph and
#: service-pool jobs reusing a worker's parsed graph share one cache.
_GRAPH_CACHES: "weakref.WeakKeyDictionary[CsdfGraph, ExpansionBlockCache]" = (
    weakref.WeakKeyDictionary()
)


def expansion_cache_for(graph: CsdfGraph) -> ExpansionBlockCache:
    """The block cache bound to ``graph`` (created on first use)."""
    cache = _GRAPH_CACHES.get(graph)
    if cache is None:
        cache = ExpansionBlockCache()
        _GRAPH_CACHES[graph] = cache
    return cache


class _ExpandedLabels(Sequence):
    """Lazy ``(task, expanded phase)`` labels of an expanded node space.

    Semantically the list ``[(t, p) for t in tasks for p in phases]``,
    computed on access instead (labels are only read for critical
    circuits and deadlock certificates — a handful of nodes out of
    ``Σ K_t·ϕ(t)``).
    """

    __slots__ = ("_space",)

    def __init__(self, space: "ExpandedNodeSpace"):
        self._space = space

    def __len__(self) -> int:
        return self._space.node_count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._space.label(i) for i in range(len(self))[index]]
        if index < 0:
            index += len(self)
        return self._space.label(index)

    def __iter__(self):
        for name, start, count in self._space.spans():
            for p in range(1, count + 1):
                yield (name, p)


class ExpandedNodeSpace:
    """Node layout of the K-expanded constraint graph (task-major).

    Task ``t`` owns the contiguous node range
    ``[offset(t), offset(t) + K_t·ϕ(t))`` in task insertion order, and
    node ``offset(t) + P`` is the first execution ``⟨t_{P+1}, 1⟩`` of
    expanded phase ``P+1``.
    """

    __slots__ = ("_names", "_starts", "_offsets", "node_count")

    def __init__(self, phase_counts: Sequence[Tuple[str, int]]):
        self._names: List[str] = []
        self._starts: List[int] = []
        self._offsets: Dict[str, int] = {}
        total = 0
        for name, count in phase_counts:
            self._names.append(name)
            self._starts.append(total)
            self._offsets[name] = total
            total += count
        self.node_count = total

    def offset(self, task: str) -> int:
        return self._offsets[task]

    def spans(self):
        """Yield ``(task, start, phase count)`` per task in layout order."""
        for i, name in enumerate(self._names):
            start = self._starts[i]
            end = (
                self._starts[i + 1]
                if i + 1 < len(self._starts)
                else self.node_count
            )
            yield name, start, end - start

    def label(self, node: int) -> Tuple[str, int]:
        if not 0 <= node < self.node_count:
            raise IndexError(node)
        i = bisect_right(self._starts, node) - 1
        return (self._names[i], node - self._starts[i] + 1)

    @property
    def labels(self) -> Sequence[Hashable]:
        return _ExpandedLabels(self)

    def node_index(self) -> Dict[Tuple[str, int], int]:
        """The dense ``(task, expanded phase) → node id`` dict.

        Materialized on demand (schedule extraction needs the full map;
        nothing else does).
        """
        return {
            (name, p): start + p - 1
            for name, start, count in self.spans()
            for p in range(1, count + 1)
        }


def merge_parallel_candidates(srcs, dsts, costs, betas, denoms, node_count):
    """Vectorized min-``H`` dedupe of candidate arcs, first-occurrence order.

    Inputs are parallel arrays describing candidate arcs whose transit
    is the exact rational ``H = −β/den`` (``den > 0`` per arc — the
    Theorem 2 denominator ``q_t·i_b`` of the emitting buffer). Among
    candidates sharing ``(src, dst)`` only the minimal ``H`` (the
    binding constraint) survives; the survivors keep the order in which
    their node pair first appeared in the input, and the kept cost is
    the group's shared ``L = d(t_p)`` (all candidates of a node pair
    come from the same producer phase).

    The exact cross-denominator comparison rescales every β to the lcm
    of the distinct denominators (one ``np.lexsort`` groups the pairs,
    one ``minimum.reduceat`` picks each group's minimum rescaled ``H``);
    when the rescaled values could leave int64 they are computed on
    Python-int object arrays instead. Returns ``(srcs, dsts, costs,
    betas, denoms)`` — the output β/den pairs represent the same
    rationals, possibly unreduced.
    """
    if srcs.shape[0] == 0:
        return srcs, dsts, costs, betas, denoms
    common = lcm_list(int(d) for d in _np.unique(denoms))
    max_factor = common // int(denoms.min())
    bound = max(common, int(abs(betas).max()) * max_factor)
    denoms = exact_int_array(denoms, bound)
    betas = exact_int_array(betas, bound)
    # H·common = −β·(common/den): minimize H ⇔ minimize the rescaled value.
    scaled_h = -(betas * (common // denoms))
    key = srcs * _np.int64(node_count) + dsts
    order = _np.lexsort((key,))  # stable: ties keep input order
    key_sorted = key[order]
    group_starts = _np.flatnonzero(
        _np.concatenate(([True], key_sorted[1:] != key_sorted[:-1]))
    )
    min_h = _np.minimum.reduceat(scaled_h[order], group_starts)
    # Stable sort ⇒ the first element of each group slice carries the
    # smallest original index: that is the node pair's first occurrence.
    firsts = order[group_starts]
    emit = _np.argsort(firsts, kind="stable")
    firsts = firsts[emit]
    return (
        srcs[firsts],
        dsts[firsts],
        costs[firsts],
        -min_h[emit],
        _np.full(firsts.shape[0], common, dtype=denoms.dtype),
    )


def compile_expansion(
    graph: CsdfGraph,
    K: Mapping[str, int],
    repetition: Mapping[str, int],
    *,
    cache: Optional[ExpansionBlockCache] = None,
    serialize: bool = True,
    merge_parallel: bool = True,
) -> Tuple[FrozenBiValuedGraph, ExpandedNodeSpace]:
    """Compile the constraint graph of ``G̃`` directly from ``(G, K)``.

    Builds the constraint graph of Theorem 2 for the K-expansion without
    materializing ``G̃`` or any per-arc ``Fraction``:

    1. per buffer, the expanded useful pairs come from the affine-tile
       sweep (cached in ``cache`` under ``(buffer, K_src, K_dst)``);
    2. blocks are offset into the task-major node space and concatenated
       as ``(src, dst, cost, β)`` arrays with one shared denominator
       ``q̃_t·ĩ_b`` per buffer;
    3. parallel arcs (several buffers between the same two tasks) merge
       through one vectorized lexsort pass
       (:func:`merge_parallel_candidates`), keeping the minimal ``H``
       per node pair;
    4. the global scale is the lcm of the per-arc *reduced* denominators
       ``den/gcd(β, den)`` (what ``Fraction`` normalization would have
       produced), and the scaled integer arrays feed
       :meth:`~repro.mcrp.compiled.CompiledGraph.from_int64_arrays`.

    ``repetition`` must be the expanded repetition vector ``q̃`` (see
    :func:`expanded_repetition_vector`). ``serialize`` adds the all-ones
    self-loops that forbid auto-concurrency; ``merge_parallel`` keeps
    only the dominant arc between each node pair.

    Every step runs on int64 arrays while its values provably stay
    below ``2**62`` and switches the affected arrays to Python-int
    object arrays otherwise, so the result is exact at any magnitude
    and the function always returns ``(graph, node space)``.
    """
    K = validate_periodicity(graph, K)
    work = None
    shared_pairs: Optional[bool] = None
    if serialize and cache is not None:
        hit = cache.serialized_for(graph)
        if hit is not None:
            work, shared_pairs = hit
    if work is None:
        work = graph.with_serialization_loops() if serialize else graph

    space = ExpandedNodeSpace(
        [(t.name, K[t.name] * t.phase_count) for t in work.tasks()]
    )

    if shared_pairs is None:
        pair_count: Dict[Tuple[str, str], int] = {}
        for b in work.buffers():
            key = (b.source, b.target)
            pair_count[key] = pair_count.get(key, 0) + 1
        shared_pairs = any(count > 1 for count in pair_count.values())
        if serialize and cache is not None:
            cache.store_serialized(graph, work, shared_pairs)

    parts_src: List = []
    parts_dst: List = []
    parts_cost: List = []
    parts_beta: List = []
    den_vals: List[int] = []
    den_lens: List[int] = []
    for b in work.buffers():
        k_src = K[b.source]
        k_dst = K[b.target]
        block = cache.get(b.name, k_src, k_dst) if cache is not None else None
        if block is None:
            p, pp, beta = expanded_useful_pair_arrays(b, k_src, k_dst)
            durations = exact_int_array(work.task(b.source).durations)
            block = ArcBlock(p, pp, _np.tile(durations, k_src)[p], beta)
            if cache is not None:
                cache.put(b.name, k_src, k_dst, block)
        parts_src.append(block.src_phase + space.offset(b.source))
        parts_dst.append(block.dst_phase + space.offset(b.target))
        parts_cost.append(block.cost)
        parts_beta.append(block.beta)
        den_vals.append(repetition[b.source] * k_src * b.total_production)
        den_lens.append(block.arc_count)

    if parts_src:
        srcs = _np.concatenate(parts_src)
        dsts = _np.concatenate(parts_dst)
        costs = _np.concatenate(parts_cost)
        betas = _np.concatenate(parts_beta)
        # One repeat instead of one np.full per buffer: the per-buffer
        # denominator q̃_t·ĩ_b is constant across a block's arcs.
        denoms = _np.repeat(exact_int_array(den_vals), den_lens)
    else:
        srcs = dsts = costs = betas = _np.empty(0, dtype=_np.int64)
        denoms = _np.empty(0, dtype=_np.int64)

    if merge_parallel and shared_pairs and srcs.shape[0]:
        srcs, dsts, costs, betas, denoms = merge_parallel_candidates(
            srcs, dsts, costs, betas, denoms, space.node_count
        )

    # Global scale = lcm of the reduced per-arc denominators — exactly
    # the lcm of Fraction(−β, den).denominator, computed without
    # constructing a single Fraction.
    if srcs.shape[0]:
        g = _np.gcd(betas, denoms)  # gcd(|β|, den); β=0 ⇒ den ⇒ reduced 1
        reduced_den = denoms // g
        beta_red = betas // g  # exact: g divides β
        scale = lcm_list(int(d) for d in _np.unique(reduced_den))
        max_factor = scale // int(reduced_den.min())
        bound = max(
            scale,
            scale * int(abs(costs).max()),
            max_factor * int(abs(beta_red).max()),
        )
        transit_scaled = -(
            exact_int_array(beta_red, bound)
            * (scale // exact_int_array(reduced_den, bound))
        )
        cost_scaled = exact_int_array(costs, bound) * scale
    else:
        scale = 1
        transit_scaled = cost_scaled = _np.empty(0, dtype=_np.int64)

    compiled = CompiledGraph.from_int64_arrays(
        node_count=space.node_count,
        labels=space.labels,
        src=srcs,
        dst=dsts,
        scale=scale,
        cost=cost_scaled,
        transit=transit_scaled,
    )
    return FrozenBiValuedGraph(compiled), space
