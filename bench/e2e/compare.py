#!/usr/bin/env python3
"""Compare two sets of bench/e2e results.

    python3 bench/e2e/compare.py A/ B/

A and B are directories holding run results (every <workload>.json and
<workload>.traced.json below them, e.g. one subdirectory per seed made
with `run.sh --out=A/s1`). Runs are grouped by workload and by what they
were measured under (traced, smoke, window, threads, nproc, compiler
flags), so smoke runs or runs on another host never pool with full ones.
For each group and metric it prints the median and quartiles of each
side. An end-to-end metric is flagged `regressed` when B's median is
worse than A's by more than its bound in BENCHMARK.json, and
`unresolved` when either side's spread (quartile distance over median)
is wider than the bound, unless every run of B beats every run of A.
Exits 1 when anything regressed.
"""

import json
import pathlib
import statistics
import sys

# The meta fields a group shares; see main.cpp for the full block.
CONDITIONS = ("trace", "smoke", "seconds", "threads", "nproc", "flags")


def load(root):
    """{(workload, conditions): {metric: [values]}} for every result file."""
    runs = {}
    for path in sorted(pathlib.Path(root).rglob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(doc, dict) or not {"meta", "metrics"} <= doc.keys():
            continue
        meta = doc["meta"]
        key = (meta["workload"], tuple(meta.get(c) for c in CONDITIONS))
        for name, metric in doc["metrics"].items():
            runs.setdefault(key, {}).setdefault(name, []).append(
                metric["value"])
    return runs


def label(key):
    workload, conditions = key
    meta = dict(zip(CONDITIONS, conditions))
    tags = [t for t in ("trace", "smoke") if meta[t]]
    return workload + (f" ({', '.join(tags)})" if tags else "")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(metric, a, b):
    bound, lower = metric["bound"], metric["better"] == "lower"
    ma, mb = statistics.median(a), statistics.median(b)
    worse = (mb - ma) / abs(ma) if lower else (ma - mb) / abs(ma)
    if worse > bound:
        return "regressed"
    b_beats_all = max(b) < min(a) if lower else min(b) > max(a)
    if (spread(a) > bound or spread(b) > bound) and not b_beats_all:
        return "unresolved"
    return "ok"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    root = pathlib.Path(__file__).resolve().parents[2]
    bench = json.loads((root / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    side_a, side_b = load(sys.argv[1]), load(sys.argv[2])
    regressed = False
    fmt = "{:<34} {:<26} {:>11} {:>11} {:>11}   {:>11} {:>11} {:>11}   {}"
    print(fmt.format("workload", "metric", "A q1", "A median", "A q3",
                     "B q1", "B median", "B q3", "verdict"))
    for key in sorted(set(side_a) | set(side_b), key=repr):
        a_metrics, b_metrics = side_a.get(key, {}), side_b.get(key, {})
        traced = dict(zip(CONDITIONS, key[1]))["trace"]
        for name in sorted(set(a_metrics) | set(b_metrics)):
            a, b = a_metrics.get(name), b_metrics.get(name)
            if not a or not b:
                side = "A" if not a else "B"
                print(f"{label(key):<34} {name:<26} missing on side {side}")
                continue
            flag = ""
            if not traced and name in end_to_end:
                flag = verdict(end_to_end[name], a, b)
                regressed |= flag == "regressed"
            print(fmt.format(label(key), name,
                             *(f"{v:.5g}" for v in quartiles(a)),
                             *(f"{v:.5g}" for v in quartiles(b)), flag))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
