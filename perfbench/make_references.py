"""Regenerate ``references.json``: the verdicts of paper-apps' fixed corpus.

    python3 perfbench/make_references.py

Each graph is solved cold by two registered engines; the file is written
only if both give the same exact period (or both report DEADLOCK) and,
for graphs of the golden corpus, that period is the one
``tests/data/golden_index.json`` records.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from fractions import Fraction  # noqa: E402

from corpus import (  # noqa: E402
    GOLDEN, REFERENCES, decode, fixed_corpus, solve_verdict,
)
from repro.io import load_graph  # noqa: E402
from repro.service.job import graph_digest  # noqa: E402

ENGINES = ("ratio-iteration", "hybrid")


def golden_verdicts():
    """Graph digest → verdict of every golden-corpus graph."""
    index = json.loads((GOLDEN / "golden_index.json").read_text())
    return {
        graph_digest(load_graph(GOLDEN / entry["file"])):
            ("OK", Fraction(*entry["period"]))
        for entry in index
    }


def main() -> int:
    golden = golden_verdicts()
    references = {}
    for key, graph_dict in fixed_corpus():
        verdicts = [solve_verdict(decode(graph_dict), e) for e in ENGINES]
        known = golden.get(graph_digest(graph_dict))
        if known is not None:
            verdicts.append(known)
        if len(set(verdicts)) != 1:
            sources = ENGINES + ("golden_index.json",)
            print(f"{key}: references disagree: "
                  f"{dict(zip(sources, verdicts))}", file=sys.stderr)
            return 1
        status, period = verdicts[0]
        references[key] = {
            "status": status,
            "period": [period.numerator, period.denominator]
            if period is not None else None,
        }
        print(f"{key}: {status} {period}")
    rows = [f" {json.dumps(key)}: {json.dumps(entry)}"
            for key, entry in references.items()]
    REFERENCES.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
