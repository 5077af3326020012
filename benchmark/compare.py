#!/usr/bin/env python3
"""Compare two benchmark result files, A (parent) and B (change).

    python3 benchmark/compare.py A.json B.json [--layers]

A and B are build-bench/results.json files written by `benchmark/run.py`
(or benchmark/baseline.json, whose sets are pooled). For every (metric,
workload) row it prints each side's median and quartiles, the share of
interleaved pairs (rep i of A against rep i of B) that B wins, and a verdict:

  improved    B wins at least 9/10 of at least ten pairs and the medians
              differ by more than A's own quartile spread
  worse       B's median is worse than A's by more than the metric's bound
  unresolved  A's quartile spread is wider than the bound and not every run
              of B beats every run of A
  no worse    otherwise

End-to-end metrics use the bounds in BENCHMARK.json; --layers adds the
per-layer metrics, which have no bound: their verdict is improved, worse
(B loses at least 9/10 of at least ten pairs by more than A's spread),
changed (the medians differ by more than A's spread) or same.

A workload whose result digest differs between A and B gets a loud
"simulated outputs changed" line: a change to the model is allowed, but every
count-based comparison on that workload compares different simulations.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10  # fewer pairs support no claim of a gain or a loss


def load_workloads(path):
    """workload -> {"digest", "metrics": name -> samples}; pools the sets of
    a baseline file."""
    doc = json.loads(Path(path).read_text())
    out = {}
    for results in doc.get("sets", [doc]):
        for workload, data in results["workloads"].items():
            entry = out.setdefault(workload, {"digest": data.get("digest"),
                                              "metrics": {}})
            for group in ("end_to_end", "per_layer"):
                for name, summary in data.get(group, {}).items():
                    samples = entry["metrics"].setdefault(name, [])
                    samples.extend(summary["samples"])
    return out


def quartiles(values):
    """(q1, median, q3); a single sample is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def compare_row(a, b, better, bound):
    """(verdict, win share) for samples a (parent) and b (change)."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    spread = q3 - q1
    gain = sign * (med_b - med_a)
    enough = len(pairs) >= MIN_PAIRS
    if bound is not None and -gain > bound * abs(med_a):
        return "worse", win_share
    if enough and win_share >= 0.9 and gain > spread:
        return "improved", win_share
    if bound is None:
        if enough and win_share <= 0.1 and -gain > spread:
            return "worse", win_share
        return ("changed" if abs(gain) > spread else "same"), win_share
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if med_a and spread / abs(med_a) > bound and not all_better:
        return "unresolved", win_share
    return "no worse", win_share


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--layers", action="store_true",
                        help="also compare the per-layer metrics")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = [(m, m["bound"]) for m in spec["end_to_end"]]
    if args.layers:
        rows += [(m, None) for m in spec["per_layer"]]
    a, b = load_workloads(args.a), load_workloads(args.b)

    worse = 0
    print(f"{'workload':<17} {'metric':<40} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B wins':>7}  verdict")
    for workload in sorted(set(a) & set(b)):
        if a[workload]["digest"] != b[workload]["digest"]:
            print(f"!!! {workload}: SIMULATED OUTPUTS CHANGED (digest "
                  f"{a[workload]['digest']} -> {b[workload]['digest']})")
        for metric, bound in rows:
            xs = a[workload]["metrics"].get(metric["name"])
            ys = b[workload]["metrics"].get(metric["name"])
            if not xs or not ys:
                continue
            verdict, win_share = compare_row(xs, ys, metric["better"], bound)
            worse += verdict == "worse"
            side_a, side_b = (f"{q[1]:.6g} [{q[0]:.4g}, {q[2]:.4g}]"
                              for q in (quartiles(xs), quartiles(ys)))
            print(f"{workload:<17} {metric['name']:<40} {side_a:>34} "
                  f"{side_b:>34} {win_share:>7.0%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
