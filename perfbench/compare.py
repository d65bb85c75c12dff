"""Compare saved benchmark records of two versions of the program.

    python3 perfbench/compare.py --base perfbench/out/A*.json --new B*.json

Each side is one or more records written by ``run.py``, all of one
workload and trace mode. For every metric the medians of the two sides
are compared. An end-to-end metric that got worse by more than its bound
in ``BENCHMARK.json`` is flagged, and the exit code is then 1. Records
from different machine classes are refused with exit code 2, because
their numbers cannot be compared. The machine class is the CPU model,
the CPU count and the Python and numpy versions.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent


def machine_class(record: Dict[str, Any]) -> tuple:
    stamp = record["stamp"]
    return (stamp["cpu"], stamp["nproc"], stamp["python"], stamp["numpy"])


def medians(records: List[Dict[str, Any]]) -> Dict[str, float]:
    names = records[0]["result"]["metrics"]
    return {
        name: statistics.median(
            r["result"]["metrics"][name]["value"] for r in records)
        for name in names
    }


def compare(base: List[Dict[str, Any]], new: List[Dict[str, Any]],
            spec: Dict[str, Any]) -> int:
    classes = {machine_class(r) for r in base + new}
    if len(classes) != 1:
        print(f"refusing to compare across machine classes: {classes}",
              file=sys.stderr)
        return 2
    kinds = {(r["workload"], r["trace"]) for r in base + new}
    if len(kinds) != 1:
        print(f"refusing to compare different workloads or trace modes: "
              f"{kinds}", file=sys.stderr)
        return 2
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old, now = medians(base), medians(new)
    regressed = False
    for name, before in old.items():
        after = now[name]
        rule = rules[name]
        change = (after - before) / before if before else 0.0
        worse = change if rule["better"] == "lower" else -change
        bound = rule.get("bound")
        flag = ""
        if bound is not None and worse > bound:
            flag = f"  WORSE than bound {bound:.0%}"
            regressed = True
        print(f"{name:28} {before:12.6g} -> {after:12.6g} "
              f"({change:+.1%}){flag}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, type=Path)
    parser.add_argument("--new", nargs="+", required=True, type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = [json.loads(path.read_text()) for path in args.base]
    new = [json.loads(path.read_text()) for path in args.new]
    return compare(base, new, spec)


if __name__ == "__main__":
    sys.exit(main())
