#!/usr/bin/env python3
"""Compares two sets of benchmark runs, or summarizes one for the trajectory.

    python3 bench/perf/compare.py BASE.jsonl CHANGE.jsonl
        For each workload x metric: each side's median and quartiles, the
        change/base ratio, and a verdict against the bound in BENCHMARK.json.
        Exits 1 if any end-to-end metric is worse or unresolved.
    python3 bench/perf/compare.py --row REV SET.jsonl [TRACE.jsonl]
        Prints one trajectory.jsonl row: REV, each workload's end-to-end
        medians and the medians of its traced per-layer metrics.

A set is what `bash bench/perf/run.sh --runs N --out FILE` writes: one JSON
line per run, {"workload", "seed", "trace", "result"}.

Verdicts follow bench/perf/README.md: "better" needs the change to win at
least 9 of 10 same-seed pairs and a median gap larger than the base's
interquartile range; where either side's spread (IQR / median) exceeds the
bound the metric is "unresolved" unless every change run beats every base
run; otherwise a median worse by more than the bound is "worse", and
anything else is "same".
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_set(path):
    """{workload: {metric: {seed: value}}} for the correct runs in `path`."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        if not row["result"]["correct"]:
            sys.exit(f"{path}: {row['workload']} seed {row['seed']} "
                     "failed its checks")
        for name, metric in row["result"]["metrics"].items():
            runs.setdefault(row["workload"], {}).setdefault(name, {})[
                row["seed"]] = metric["value"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(spec, base, change):
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    b1, bmed, b3 = quartiles(list(base.values()))
    c1, cmed, c3 = quartiles(list(change.values()))

    def beats(c, b):
        return c < b if lower else c > b

    seeds = sorted(set(base) & set(change))
    wins = sum(beats(change[s], base[s]) for s in seeds)
    spread = max((b3 - b1) / bmed, (c3 - c1) / cmed)
    if (seeds and wins >= 0.9 * len(seeds) and beats(cmed, bmed)
            and abs(cmed - bmed) > b3 - b1):
        return "better"
    if spread > bound:
        every = (max(change.values()) < min(base.values()) if lower else
                 min(change.values()) > max(base.values()))
        return "better" if every else "unresolved"
    worse_by = (cmed - bmed) / bmed if lower else (bmed - cmed) / bmed
    return "worse" if worse_by > bound else "same"


def compare(base_path, change_path):
    spec = json.loads(BENCHMARK.read_text())
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    base, change = load_set(base_path), load_set(change_path)
    failing = []
    print(f"{'workload':<16} {'metric':<28} {'base median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'ratio':>7}  verdict")
    for workload in sorted(set(base) & set(change)):
        for name in sorted(set(base[workload]) & set(change[workload])):
            b, c = base[workload][name], change[workload][name]
            b1, bmed, b3 = quartiles(list(b.values()))
            c1, cmed, c3 = quartiles(list(c.values()))
            ratio = cmed / bmed if bmed else float("nan")
            result = verdict(bounded[name], b, c) if name in bounded else "-"
            if result in ("worse", "unresolved"):
                failing.append(f"{workload}/{name}")
            print(f"{workload:<16} {name:<28} "
                  f"{f'{bmed:.6g} [{b1:.6g}, {b3:.6g}]':<36} "
                  f"{f'{cmed:.6g} [{c1:.6g}, {c3:.6g}]':<36} "
                  f"{ratio:>7.4f}  {result}  (n={len(b)}/{len(c)})")
    if failing:
        print("worse or unresolved: " + ", ".join(failing))
        return 1
    return 0


def row(rev, set_path, trace_path=None):
    out = {"rev": rev, "workloads": {}}
    for path, key in ((set_path, "end_to_end"), (trace_path, "per_layer")):
        if path is None:
            continue
        for workload, metrics in sorted(load_set(path).items()):
            entry = out["workloads"].setdefault(workload, {})
            entry[key] = {name: statistics.median(values.values())
                          for name, values in sorted(metrics.items())}
            entry.setdefault("runs", len(next(iter(metrics.values()))))
    print(json.dumps(out))
    return 0


def main(argv):
    if len(argv) in (4, 5) and argv[1] == "--row":
        return row(*argv[2:])
    if len(argv) == 3:
        return compare(argv[1], argv[2])
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
