"""Checks bench records (docs/PERF.md, *Bench records*) for CI.

Usage: python3 .github/check_bench_records.py BENCH_a.json [BENCH_b.json ...]

Each file must load as JSON, carry the five keys of the record, hold at
least one row, and record no check with "passed": false. Exits 1 when any
file does not. Standard library only.
"""
import json
import sys

KEYS = {"bench", "host", "config", "rows", "checks"}


def problems(path):
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, ValueError) as e:
        return [f"cannot load: {e}"]
    if not isinstance(record, dict):
        return ["not a JSON object"]
    found = []
    missing = KEYS - record.keys()
    if missing:
        found.append(f"missing keys {sorted(missing)}")
    if not record.get("rows"):
        found.append("no rows")
    failed = [c.get("name") for c in record.get("checks") or []
              if c.get("passed") is False]
    if failed:
        found.append(f"failed checks {failed}")
    return found


def main(paths):
    if not paths:
        print("no bench records given")
        return 1
    bad = 0
    for path in paths:
        found = problems(path)
        bad += bool(found)
        print(f"{path}: {'; '.join(found) if found else 'ok'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
