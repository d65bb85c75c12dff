"""Frozen arc-array (CSR) form of a bi-valued graph: the solver core.

Every MCRP engine ultimately loops over arcs, so the hot-path data
layout matters more than the algorithm's constant factor. A
:class:`CompiledGraph` freezes a :class:`~repro.mcrp.graph.BiValuedGraph`
into struct-of-arrays form, computed **once** and shared by every
oracle call, engine, SCC sweep and longest-path pass on that graph:

* ``src``/``dst`` — dense arc endpoint lists plus ``indptr``/``csr_arcs``
  (CSR by source: the out-arcs of ``v`` are
  ``csr_arcs[indptr[v]:indptr[v+1]]``);
* ``cost``/``transit`` — the exact ``(L, H)`` values scaled to integers
  by the lcm ``scale`` of all denominators (cycle ratios are invariant
  under common scaling; Python ints make overflow impossible);
* an **integer fast path**: when the scaled values fit ``int64``,
  numpy mirrors ``np_cost``/``np_transit`` let the Karp table and the
  fleet kernel form the parametric weights ``b·L − a·H`` vectorized;
* **float shadow weights** ``cost_float``/``transit_float`` computed
  once for the float prefilter engines (Howard, hybrid);
* the destination-sorted segment structure of the vectorized Karp
  table and the fleet kernel (previously re-``argsort``-ed per call);
* the **relaxation order** of the positive-cycle oracle and the
  longest-path potentials (:meth:`CompiledGraph.relaxation_order`).

Compilation is cached on the source graph (see
:meth:`BiValuedGraph.compile`) and invalidated by mutation, so the
typical solve pipeline — build constraint graph, probe, decompose,
iterate — compiles exactly once per graph.
"""

from __future__ import annotations

from array import array
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as _np

_INT64_MAX = (1 << 63) - 1
#: In-arcs per level from which one vectorized step per level beats
#: relaxing arc by arc in Python (see ``relaxation_order``).
VECTOR_ARCS_PER_LEVEL = 64


class CompiledGraph:
    """Immutable arc-array view of a bi-valued graph.

    Instances are produced by :func:`compile_graph` (usually via
    ``BiValuedGraph.compile()``); treat every attribute as read-only.

    Examples
    --------
    >>> from fractions import Fraction
    >>> from repro.mcrp.graph import BiValuedGraph
    >>> g = BiValuedGraph(2)
    >>> _ = g.add_arc(0, 1, 3, Fraction(1, 2))
    >>> _ = g.add_arc(1, 0, 1, Fraction(1, 2))
    >>> c = g.compile()
    >>> c.scale, c.cost, c.transit
    (2, [6, 2], [1, 1])
    >>> c.integral
    False
    >>> list(c.out_arcs_of(0))
    [0]
    """

    __slots__ = (
        "node_count", "arc_count", "labels",
        "src", "dst", "indptr", "csr_arcs", "out_arcs",
        "scale", "cost", "transit", "integral", "has_negative_cost",
        "max_abs_cost", "max_abs_transit",
        "cost_float", "transit_float",
        "_numpy_built",
        "np_src", "np_dst", "np_cost", "np_transit",
        "np_cost_float", "np_transit_float",
        "np_indptr", "np_csr_arcs",
        "src_unique", "src_seg_starts", "src_seg_sizes",
        "dst_order", "src_sorted", "arc_ids_sorted",
        "dst_unique", "seg_starts", "seg_sizes",
        "_relax_order",
    )

    def __init__(
        self,
        node_count: int,
        labels: Sequence[Hashable],
        src: List[int],
        dst: List[int],
        scale: int,
        cost: List[int],
        transit: List[int],
        out_arcs: Sequence[Sequence[int]],
    ):
        self.node_count = node_count
        self.arc_count = len(src)
        self.labels = labels
        self.src = src
        self.dst = dst
        self.scale = scale
        self.cost = cost
        self.transit = transit
        self.integral = scale == 1
        self.has_negative_cost = any(c < 0 for c in cost)
        self.max_abs_cost = max((abs(c) for c in cost), default=0)
        self.max_abs_transit = max((abs(t) for t in transit), default=0)
        inv = 1.0 / scale
        self.cost_float = [c * inv for c in cost]
        self.transit_float = [t * inv for t in transit]

        # CSR by source + plain adjacency lists (the pure-python inner
        # loops index lists faster than typed arrays); the caller hands
        # us the adjacency it already maintains — freeze, don't rebuild.
        self.out_arcs: Tuple[List[int], ...] = tuple(
            list(arcs) for arcs in out_arcs
        )
        indptr = array("q", [0] * (node_count + 1))
        csr = array("q", [0] * self.arc_count)
        pos = 0
        for v, arcs in enumerate(self.out_arcs):
            indptr[v + 1] = indptr[v] + len(arcs)
            for arc in arcs:
                csr[pos] = arc
                pos += 1
        self.indptr = indptr
        self.csr_arcs = csr

        # numpy mirrors are built lazily (ensure_numpy): the vectorized
        # consumers only engage above ~64 nodes, and plenty of compiled
        # graphs (early K-Iter rounds, converters) never get there.
        self._numpy_built = False
        self.np_src = self.np_dst = self.np_cost = self.np_transit = None
        self.np_cost_float = self.np_transit_float = None
        self.np_indptr = self.np_csr_arcs = None
        self.src_unique = self.src_seg_starts = self.src_seg_sizes = None
        self.dst_order = self.src_sorted = self.arc_ids_sorted = None
        self.dst_unique = self.seg_starts = self.seg_sizes = None
        self._relax_order = None

    # ------------------------------------------------------------------
    def ensure_numpy(self) -> bool:
        """Build (once) the numpy mirrors and sorted segment structures.

        Returns False when the graph has no arcs;
        ``np_cost``/``np_transit`` additionally stay ``None`` when
        the scaled weights overflow ``int64`` (the integer fast path is
        then soundly disabled while the float/topology mirrors remain).
        """
        if self._numpy_built:
            return self.np_src is not None
        self._numpy_built = True
        if not self.arc_count:
            return False
        self.np_src = _np.array(self.src, dtype=_np.int64)
        self.np_dst = _np.array(self.dst, dtype=_np.int64)
        if (
            self.max_abs_cost < _INT64_MAX
            and self.max_abs_transit < _INT64_MAX
        ):
            self.np_cost = _np.array(self.cost, dtype=_np.int64)
            self.np_transit = _np.array(self.transit, dtype=_np.int64)
        self.np_cost_float = _np.array(self.cost_float, dtype=_np.float64)
        self.np_transit_float = _np.array(
            self.transit_float, dtype=_np.float64
        )
        # CSR mirrors + nonempty source segments (for vectorized
        # per-source reductions, e.g. Howard policy improvement)
        self.np_indptr = _np.frombuffer(self.indptr, dtype=_np.int64).copy()
        self.np_csr_arcs = _np.frombuffer(
            self.csr_arcs, dtype=_np.int64
        ).copy()
        degrees = _np.diff(self.np_indptr)
        nonempty = degrees > 0
        self.src_unique = _np.nonzero(nonempty)[0]
        self.src_seg_starts = self.np_indptr[:-1][nonempty]
        self.src_seg_sizes = degrees[nonempty]
        order = _np.argsort(self.np_dst, kind="stable")
        self.dst_order = order
        self.src_sorted = self.np_src[order]
        self.arc_ids_sorted = _np.arange(
            self.arc_count, dtype=_np.int64
        )[order]
        dst_sorted = self.np_dst[order]
        self.dst_unique, self.seg_starts = _np.unique(
            dst_sorted, return_index=True
        )
        self.seg_sizes = _np.diff(
            _np.append(self.seg_starts, self.arc_count)
        )
        return True

    def relaxation_order(self):
        """``(rows, backward, plan)``: the Gauss–Seidel schedule, built once.

        Nodes are levelled by Kahn's algorithm over the arcs with
        ``transit ≤ 0``; nodes on (or behind) an ``H ≤ 0`` cycle share
        one last level. ``rows`` lists ``(node, in-arcs)`` for every
        node with in-arcs, by level, then index. ``backward`` counts the
        arcs whose source level is not below their destination's. Every
        cycle has one, and an elementary path crosses each at most once,
        which bounds the passes of
        :func:`repro.mcrp.bellman.ordered_passes`. Any order is sound;
        this one makes the long zero-token chains of a K-expansion
        forward arcs. When the levels average at least
        :data:`VECTOR_ARCS_PER_LEVEL` in-arcs, ``plan`` holds the arrays
        of the level-vectorized pass instead of ``rows`` (None).
        """
        if self._relax_order is None:
            self._relax_order = ([], 0, None)
            if self.ensure_numpy():
                self._relax_order = self._build_relaxation_order()
        return self._relax_order

    def _build_relaxation_order(self):
        n, m = self.node_count, self.arc_count
        src, dst = self.np_src, self.np_dst
        nonpos = _np.fromiter(map((0).__ge__, self.transit), bool, m)
        nonpos_src, nonpos_dst = src[nonpos], dst[nonpos]
        indegree = _np.bincount(nonpos_dst, minlength=n).tolist()
        succ = nonpos_dst[_np.argsort(nonpos_src, kind="stable")].tolist()
        ptr = [0] + _np.cumsum(_np.bincount(nonpos_src, minlength=n)).tolist()
        level = [0] * n
        ready = [v for v in range(n) if not indegree[v]]
        for u in ready:  # grows while it is walked: Kahn's queue
            below = level[u] + 1
            for v in succ[ptr[u]:ptr[u + 1]]:
                if level[v] < below:
                    level[v] = below
                indegree[v] -= 1
                if not indegree[v]:
                    ready.append(v)
        lv = _np.array(level, dtype=_np.int64)
        depth = int(lv.max()) + 1
        lv[_np.array(indegree) > 0] = depth
        levels = depth + (len(ready) < n)
        dst_level = lv[dst]
        backward = int((lv[src] >= dst_level).sum())
        perm = _np.lexsort((dst, dst_level))
        dst = dst[perm]
        seg = _np.flatnonzero(_np.diff(dst, prepend=-1))
        if m < VECTOR_ARCS_PER_LEVEL * levels:
            # tuples of ints leave the collector's lists, so a big order
            # does not make full collections more frequent
            arcs, bounds = tuple(perm.tolist()), _np.append(seg, m).tolist()
            rows = [
                (v, arcs[lo:hi])
                for v, lo, hi in zip(dst[seg].tolist(), bounds, bounds[1:])
            ]
            return rows, backward, None
        # the vectorized pass: per level, its arc range in ``perm``
        # order, the arcs' sources and ids, and the start, size and
        # node of each destination segment
        arc_bounds = _np.searchsorted(dst_level[perm], _np.arange(levels + 1))
        seg_bounds = _np.searchsorted(seg, arc_bounds).tolist()
        plan = []
        for i, (a0, a1) in enumerate(zip(arc_bounds[:-1], arc_bounds[1:])):
            if a0 == a1:
                continue
            starts = seg[seg_bounds[i]:seg_bounds[i + 1]] - a0
            plan.append((
                int(a0), int(a1), src[perm[a0:a1]], perm[a0:a1],
                starts, _np.diff(starts, append=a1 - a0), dst[a0 + starts],
                _np.arange(a1 - a0),
            ))
        return None, backward, (perm, plan)

    # ------------------------------------------------------------------
    def out_arcs_of(self, node: int) -> List[int]:
        """Arc indices leaving ``node`` (CSR slice)."""
        return self.out_arcs[node]

    def parametric_weights(self, lam_num: int, lam_den: int) -> List[int]:
        """Exact integer weights ``lam_den·L' − lam_num·H'`` per arc.

        A cycle is positive under these weights iff its ratio exceeds
        ``lam_num/lam_den`` (the common factor ``lam_den·scale`` is
        positive and cancels).
        """
        cost, transit = self.cost, self.transit
        return [
            lam_den * cost[i] - lam_num * transit[i]
            for i in range(self.arc_count)
        ]

    def parametric_weight_bound(self, lam_num: int, lam_den: int) -> int:
        """Upper bound on ``|parametric_weights(...)|`` without forming them."""
        return (
            lam_den * self.max_abs_cost
            + abs(lam_num) * self.max_abs_transit
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledGraph(nodes={self.node_count}, arcs={self.arc_count}, "
            f"scale={self.scale}, integral={self.integral})"
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_int64_arrays(
        cls,
        node_count: int,
        labels: Sequence[Hashable],
        src,
        dst,
        scale: int,
        cost,
        transit,
    ) -> "CompiledGraph":
        """Assemble a compiled graph directly from numpy arc arrays.

        The arithmetic constructor of the K-expansion compile (and the
        SCC subgraph slicer): ``cost``/``transit`` are already the
        integer-scaled values for the given ``scale``, so no
        ``Fraction`` is ever created and the per-arc Python loop of
        ``__init__`` is replaced by vectorized CSR construction (stable
        argsort by source — per-node arc order is ascending arc index,
        exactly what incremental ``add_arc`` would have produced).

        ``src``/``dst`` are int64; ``cost``/``transit`` are int64 or,
        above int64, Python-int object arrays — then ``np_cost`` and
        ``np_transit`` stay unset, exactly as :func:`compile_graph`
        leaves them for big Fractions. ``labels`` may be any sequence
        (including a lazy view); it is stored as given, not copied.
        """
        src = _np.ascontiguousarray(src, dtype=_np.int64)
        dst = _np.ascontiguousarray(dst, dtype=_np.int64)
        if cost.dtype != object:
            cost = _np.ascontiguousarray(cost, dtype=_np.int64)
        if transit.dtype != object:
            transit = _np.ascontiguousarray(transit, dtype=_np.int64)
        m = int(src.shape[0])

        self = cls.__new__(cls)
        self.node_count = node_count
        self.arc_count = m
        self.labels = labels
        self.src = src.tolist()
        self.dst = dst.tolist()
        self.scale = scale
        self.cost = cost.tolist()
        self.transit = transit.tolist()
        self.integral = scale == 1
        self.has_negative_cost = bool(m) and bool((cost < 0).any())
        self.max_abs_cost = int(_np.abs(cost).max()) if m else 0
        self.max_abs_transit = int(_np.abs(transit).max()) if m else 0
        inv = 1.0 / scale
        if cost.dtype == object or transit.dtype == object:
            # Python int × float, exactly as ``__init__`` computes it.
            self.cost_float = [c * inv for c in self.cost]
            self.transit_float = [t * inv for t in self.transit]
        else:
            self.cost_float = (cost * inv).tolist()
            self.transit_float = (transit * inv).tolist()

        order = _np.argsort(src, kind="stable")
        counts = _np.bincount(src, minlength=node_count) if m else (
            _np.zeros(node_count, dtype=_np.int64)
        )
        indptr_np = _np.zeros(node_count + 1, dtype=_np.int64)
        _np.cumsum(counts, out=indptr_np[1:])
        indptr = array("q")
        indptr.frombytes(indptr_np.astype(_np.int64).tobytes())
        csr = array("q")
        csr.frombytes(order.astype(_np.int64).tobytes())
        self.indptr = indptr
        self.csr_arcs = csr
        order_list = order.tolist()
        indptr_list = indptr_np.tolist()
        self.out_arcs = tuple(
            order_list[indptr_list[v]:indptr_list[v + 1]]
            for v in range(node_count)
        )

        self._numpy_built = False
        self.np_src = self.np_dst = self.np_cost = self.np_transit = None
        self.np_cost_float = self.np_transit_float = None
        self.np_indptr = self.np_csr_arcs = None
        self.src_unique = self.src_seg_starts = self.src_seg_sizes = None
        self.dst_order = self.src_sorted = self.arc_ids_sorted = None
        self.dst_unique = self.seg_starts = self.seg_sizes = None
        self._relax_order = None
        return self


def compile_graph(graph) -> CompiledGraph:
    """Freeze ``graph`` (a :class:`BiValuedGraph`) into arc arrays.

    Prefer ``graph.compile()``, which caches the result until the graph
    is mutated.
    """
    from repro.utils.rational import lcm_list

    denominators = [c.denominator for c in graph.arc_cost]
    denominators += [h.denominator for h in graph.arc_transit]
    scale = lcm_list(denominators) if denominators else 1
    cost = [int(c * scale) for c in graph.arc_cost]
    transit = [int(h * scale) for h in graph.arc_transit]
    return CompiledGraph(
        node_count=graph.node_count,
        labels=list(graph.labels),
        src=list(graph.arc_src),
        dst=list(graph.arc_dst),
        scale=scale,
        cost=cost,
        transit=transit,
        out_arcs=graph._out,
    )
