#!/usr/bin/env python3
"""Checks that regenerated BENCH_*.json records keep every deterministic field.

Every committed BENCH_*.json is compared with the working-tree copy the
`experiments` subcommands just rewrote, field by field. The only fields
skipped are those that differ between identical seeded runs: host wall
clock, throughput, and counters that depend on thread timing. Numbers are
compared as the exact text the record holds.

Usage (from the repository root, after the `experiments` runs):

    python3 .github/scripts/bench_fields.py

It checks every BENCH_*.json committed at HEAD. Exits 1 and lists each
difference when any deterministic field changed.
"""

import json
import subprocess
import sys

# Fields that vary between identical runs, per record. `points[].x` names
# field x of every element of the `points` list.
VOLATILE = {
    "BENCH_fleet.json": {"points[].host_wall_seconds"},
    "BENCH_chaos.json": {
        "host_wall_seconds",
        "total_resumed",
        "degraded_pool_incarnations",
    },
    "BENCH_lifetime.json": {"points[].host_wall_seconds"},
    "BENCH_redteam.json": {"points[].host_wall_seconds"},
    "BENCH_obs.json": {"merge_events_per_sec", "points[].host_wall_seconds"},
    "BENCH_dispatch.json": {"host_wall_seconds"},
    "BENCH_serving.json": {
        "sustained_qps",
        "lookup_p50_us",
        "lookup_p95_us",
        "lookup_p99_us",
        "stale_read_probes",
        "host_wall_seconds",
    },
}


def load(text):
    # Keep numbers as their text, so 1.0 and 1.00 differ like the bytes do.
    return json.loads(text, parse_float=str, parse_int=str)


def compare(field, shown, committed, current, skip, out):
    """Appends every difference under `field` to `out`. `field` names list
    elements `[]` to match VOLATILE; `shown` carries their indices."""
    if isinstance(committed, dict) and isinstance(current, dict):
        for key in sorted(committed.keys() | current.keys()):
            sub = f"{field}.{key}" if field else key
            sub_shown = f"{shown}.{key}" if shown else key
            if sub in skip:
                continue
            if key not in current:
                out.append(f"{sub_shown}: missing from the regenerated record")
            elif key not in committed:
                out.append(f"{sub_shown}: not in the committed record")
            else:
                compare(sub, sub_shown, committed[key], current[key], skip, out)
    elif isinstance(committed, list) and isinstance(current, list):
        if len(committed) != len(current):
            out.append(f"{shown}: {len(committed)} elements -> {len(current)}")
            return
        for i, (old, new) in enumerate(zip(committed, current)):
            compare(f"{field}[]", f"{shown}[{i}]", old, new, skip, out)
    elif committed != current:
        out.append(f"{shown}: {committed} -> {current}")


def committed_records():
    listing = subprocess.run(
        ["git", "ls-tree", "--name-only", "HEAD"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout.split()
    return sorted(n for n in listing if n.startswith("BENCH_") and n.endswith(".json"))


def main():
    failures = 0
    for name in committed_records():
        committed = subprocess.run(
            ["git", "show", f"HEAD:{name}"],
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        with open(name, encoding="utf-8") as f:
            current = f.read()
        diffs = []
        skip = VOLATILE.get(name, set())
        compare("", "", load(committed), load(current), skip, diffs)
        if diffs:
            failures += 1
            print(f"{name}: {len(diffs)} deterministic field(s) changed")
            for line in diffs:
                print(f"  {line}")
        else:
            print(f"{name}: deterministic fields unchanged")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
