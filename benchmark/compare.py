#!/usr/bin/env python3
"""Compare two isbench results files metric by metric.

    python3 benchmark/compare.py BASE.json NEW.json [--symmetric]

Each file is what `benchmark/run.sh` writes ({"runs": [record, ...]}) or a
single record from `isbench --out`; every record carries the end-to-end
metrics of its untraced runs. For every workload and every end-to-end
metric of BENCHMARK.json, NEW's median is checked against BASE's with that
metric's bound:

  ok          the median moved by no more than the bound
  worse       NEW is worse than BASE by more than the bound
  better      NEW is better than BASE by more than the bound
  unresolved  either side's quartile spread, (q3 - q1) / median, exceeds
              the bound, so a move of that size cannot be told from noise

The exit code is 1 when any metric is worse (or, with --symmetric, differs
in either direction: two runs of the same code must agree), or when a
workload or metric is missing from either file; otherwise 0.
"""
import json
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(path):
    with open(path) as f:
        data = json.load(f)
    runs = data["runs"] if "runs" in data else [data]
    return {r["workload"]["name"]: r for r in runs}


def spread(m):
    return (m["q3"] - m["q1"]) / m["median"] if m["median"] else float("inf")


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    symmetric = "--symmetric" in argv[1:]
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    base, new = load_records(args[0]), load_records(args[1])
    failed = False
    print(f"{'workload':18s} {'metric':24s} {'base':>12s} {'new':>12s} "
          f"{'change':>8s} {'bound':>6s}  status")
    for workload in (w["name"] for w in bench["workloads"]):
        if workload not in base or workload not in new:
            print(f"{workload:18s} missing from "
                  f"{args[0] if workload not in base else args[1]}")
            failed = True
            continue
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b = base[workload]["e2e"].get(name)
            n = new[workload]["e2e"].get(name)
            if b is None or n is None or b["median"] is None or n["median"] is None:
                print(f"{workload:18s} {name:24s} missing")
                failed = True
                continue
            change = (n["median"] - b["median"]) / b["median"]
            worse = change if metric["better"] == "lower" else -change
            if max(spread(b), spread(n)) > bound:
                status = "unresolved"
            elif worse > bound:
                status = "worse"
                failed = True
            elif worse < -bound:
                status = "better"
                failed = failed or symmetric
            else:
                status = "ok"
            print(f"{workload:18s} {name:24s} {b['median']:12.6g} "
                  f"{n['median']:12.6g} {change:+8.2%} {bound:6.2f}  {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
