"""Compare two benchmark result files, metric by metric.

    python3 benchmarks/compare.py OLD.json NEW.json

Each file is what `run.py --out` writes: one workload's record, or the
combined record of `--workload all`. End-to-end metrics are judged against
the bounds in BENCHMARK.json: a metric that got worse by more than its bound
is marked WORSE and makes the exit code 1, as is a workload or metric that is
in OLD but missing from NEW, and a record whose output checks failed.
Per-layer metrics have no bound and are listed with their change only.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def records(path):
    """{(workload, trace): record} from a single or combined result file."""
    data = json.loads(Path(path).read_text())
    if "workloads" not in data:
        return {(data["workload"], data["trace"]): data}
    return {(w, r["trace"]): r for w, parts in data["workloads"].items() for r in parts.values()}


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old, new = records(argv[0]), records(argv[1])
    worse = 0
    print(f"{'workload':12s} {'metric':32s} {'old':>12s} {'new':>12s} {'change':>8s}  unit")
    for key in sorted(old.keys() - new.keys()):
        print(f"{key[0]:12s} trace={key[1]} missing from NEW: WORSE")
        worse += 1
    for key in sorted(old.keys() & new.keys()):
        for name, a in old[key]["metrics"].items():
            b = new[key]["metrics"].get(name)
            if b is None:
                print(f"{key[0]:12s} {name:32s} missing from NEW: WORSE")
                worse += 1
                continue
            a, b = a["value"], b["value"]
            change = (b - a) / a if a else 0.0
            m = declared.get(name, {})
            verdict = ""
            if "bound" in m:
                loss = -change if m["better"] == "higher" else change
                if loss > m["bound"]:
                    verdict = f"WORSE (bound {m['bound']:.0%})"
                    worse += 1
            print(f"{key[0]:12s} {name:32s} {a:12.6g} {b:12.6g} {change:+8.1%}  "
                  f"{m.get('unit', '')} {verdict}")
        if not (old[key]["correct"] and new[key]["correct"]):
            print(f"{key[0]:12s} output checks failed: old {old[key]['failed']}, new {new[key]['failed']}")
            worse += 1
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
