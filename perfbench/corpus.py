"""Seeded inputs of the four workloads and their correctness references.

The seed decides every random draw and every order; the program under
test only ever receives the generated graphs. Input generation is never
timed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.buffers.capacity import bound_all_buffers, minimal_buffer_capacity
from repro.exceptions import DeadlockError
from repro.generators import (
    actual_dsp_graphs,
    csdf_applications,
    mimic_dsp,
    random_connected_sdf,
    synthetic,
)
from repro.io import load_graph
from repro.kperiodic import throughput_kiter
from repro.model.graph import CsdfGraph

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
GOLDEN = ROOT / "tests" / "data"

#: A request is ``(key, graph dict)``; the key names the reference entry.
Request = Tuple[str, dict]
#: ``("OK", period)`` or ``("DEADLOCK", None)`` — what a request must return.
Verdict = Tuple[str, Optional[Fraction]]

#: MimicDSP draws per paper-apps pass, stratified by task count
#: (``mimic_dsp`` draws 3–25 tasks). The latency percentiles sit inside
#: the MimicDSP body, and solve time follows the task count closely, so
#: a fixed number of draws per count halves their spread across seeds
#: compared with unstratified draws.
MIMIC_TASKS = range(3, 26)
MIMIC_PER_TASKS = 20
#: Graphs per service/fabric request, and the share of positions that
#: repeat an earlier graph of the stream (the result cache's read path).
BATCH = 16
REPEAT_SHARE = 0.25
STREAM_TASKS = (3, 12)
#: The golden graphs each dse-sweep session is built on.
DSE_GRAPHS = ("golden_synthetic1", "golden_synthetic2", "golden_synthetic3")
#: Capacities are multiples of each buffer's structural minimum. The base
#: design sits at 16x; a probe moves one buffer to 12x or 24x (a shrink
#: or a growth) and the next probe of that session moves it back, the
#: shape of a local sizing search. Deeper shrinks or accumulated edits
#: change λ* or deadlock for some seeds, and a session keeps the larger K
#: such a solve certifies, so a seed-dependent share of the run would
#: pay for a bigger expansion.
DSE_BASE = 16
DSE_FACTORS = (12, 24)


def decode(graph_dict: dict) -> CsdfGraph:
    """A fresh graph object, so per-object caches start cold."""
    return CsdfGraph.from_dict(graph_dict)


# ----------------------------------------------------------------------
# paper-apps
# ----------------------------------------------------------------------
def fixed_corpus() -> List[Request]:
    """Table 1's ActualDSP graphs and Table 2's application block."""
    corpus = [(f"dsp/{g.name}", g.to_dict()) for g in actual_dsp_graphs()]
    for scale in (1, 2):
        corpus += [
            (f"apps{scale}/{name}", make().to_dict())
            for name, make in csdf_applications(scale)
        ]
    corpus += [
        (f"synthetic/graph{i}", getattr(synthetic, f"graph{i}")(1).to_dict())
        for i in range(1, 6)
    ]
    return corpus


def paper_requests(seed: int,
                   per_tasks: int = MIMIC_PER_TASKS) -> List[Request]:
    """One paper-apps pass: the fixed corpus plus ``per_tasks`` seeded
    MimicDSP draws of every task count, in seeded order."""
    rng = random.Random(seed)
    wanted = {tasks: per_tasks for tasks in MIMIC_TASKS}
    draws = []
    while any(wanted.values()):
        draw = rng.randrange(1, 2 ** 31)
        graph = mimic_dsp(draw)
        tasks = graph.task_count
        if wanted.get(tasks):
            wanted[tasks] -= 1
            draws.append((f"mimic/{draw}", graph.to_dict()))
    requests = fixed_corpus() + draws
    rng.shuffle(requests)
    return requests


def load_references() -> Dict[str, Verdict]:
    """The committed verdicts of the fixed corpus."""
    raw = json.loads(REFERENCES.read_text())
    return {
        key: (entry["status"],
              Fraction(*entry["period"]) if entry.get("period") else None)
        for key, entry in raw.items()
    }


def solve_verdict(graph: CsdfGraph, engine: str) -> Verdict:
    """Cold K-Iter verdict of ``graph`` with ``engine``."""
    try:
        return "OK", throughput_kiter(graph, engine=engine).period
    except DeadlockError:
        return "DEADLOCK", None


# ----------------------------------------------------------------------
# service-stream and fabric-stream
# ----------------------------------------------------------------------
class GraphStream:
    """Seeded batches of small random SDF graphs, some of them repeats.

    Each position is, with probability :data:`REPEAT_SHARE`, an earlier
    graph of the stream (drawn uniformly), else a fresh
    ``random_connected_sdf`` draw with 3–12 tasks. A batch is a list of
    keys; :func:`stream_graph` builds the graph a key names, so a run
    holds no graph longer than one request.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self.unique: List[str] = []

    def next_batch(self) -> List[str]:
        batch = []
        for _ in range(BATCH):
            if self.unique and self._rng.random() < REPEAT_SHARE:
                batch.append(self._rng.choice(self.unique))
                continue
            key = (f"sdf/{self._rng.randrange(1, 2 ** 31)}"
                   f"/{self._rng.randint(*STREAM_TASKS)}")
            self.unique.append(key)
            batch.append(key)
        return batch


def stream_graph(key: str) -> CsdfGraph:
    """The graph a :class:`GraphStream` key names (a fresh object)."""
    _, draw, tasks = key.split("/")
    return random_connected_sdf(int(draw), tasks=int(tasks))


# ----------------------------------------------------------------------
# dse-sweep
# ----------------------------------------------------------------------
class DsePlan:
    """One golden synthetic graph and its seeded capacity-edit sequence."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        graph = load_graph(GOLDEN / f"{name}.json")
        self.floors = {
            b.name: minimal_buffer_capacity(b)
            for b in graph.buffers() if not b.is_self_loop()
        }
        self.base_caps = {n: DSE_BASE * f for n, f in self.floors.items()}
        self.base = bound_all_buffers(graph, self.base_caps).to_dict()
        self._names = sorted(self.floors)
        self._seed = f"{seed}/{name}"

    def edits(self) -> Iterator[Tuple[str, int]]:
        """Endless ``(buffer, capacity)`` edits: a seeded buffer moves to
        a seeded multiple of its minimum (a shrink or a growth), then
        back to the base design."""
        rng = random.Random(self._seed)
        while True:
            name = rng.choice(self._names)
            yield name, rng.choice(DSE_FACTORS) * self.floors[name]
            yield name, self.base_caps[name]


def dse_plans(seed: int) -> List[DsePlan]:
    return [DsePlan(name, seed) for name in DSE_GRAPHS]
