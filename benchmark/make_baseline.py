#!/usr/bin/env python3
"""Re-measure benchmark/baseline.json on this machine (about 25 minutes).

    python3 benchmark/make_baseline.py

Runs two full sets of `run.py` (seed 2011), then ten timed runs per workload
(`--trace 0`, seeds 1-10, BENCHMARK.json's run length), and records each
end-to-end metric's spread over the ten runs (quartile distance / median),
the median cell wall times that set run.py's timeouts, and the machine.
"""

import json
import shutil
import statistics
import subprocess
import sys

import run

TIMED_SEEDS = range(1, 11)


def spread(values):
    """Quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sets = []
    for i in range(2):
        run.log(f"full set {i + 1}/2")
        subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py")],
                       check=True, stdout=subprocess.DEVNULL)
        sets.append(json.loads((run.BUILD_DIR / "results.json").read_text()))
        shutil.copy(run.BUILD_DIR / "results.json",
                    run.BUILD_DIR / f"baseline_set{i + 1}.json")

    timed = {}
    for workload in run.WORKLOADS:
        values = {}
        for seed in TIMED_SEEDS:
            run.log(f"timed run {workload} seed {seed}")
            proc = subprocess.run(
                [sys.executable, str(run.BENCH_DIR / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False}
            if proc.returncode != 0 or not result["correct"]:
                run.log(proc.stderr[-3000:])
                sys.exit(f"make_baseline: {workload} seed {seed} failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        timed[workload] = {
            name: {"spread": spread(v), "median": statistics.median(v),
                   "values": v}
            for name, v in values.items()}

    cell_wall = {}
    for workload in run.WORKLOADS:
        for mode in ("plain", "traced"):
            walls = [s["workloads"][workload]["cell_wall_s"][mode]
                     for s in sets]
            cell_wall[f"{workload}:{mode}"] = statistics.median(walls)
    baseline = {
        "machine": run.machine_info(),
        "timed_runs": {"run_seconds": spec["run_seconds"],
                       "seeds": list(TIMED_SEEDS), "workloads": timed},
        "cell_wall_s": cell_wall,
        "sets": sets,
    }
    out = run.BENCH_DIR / "baseline.json"
    out.write_text(json.dumps(baseline, indent=1) + "\n")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, metrics in timed.items():
        for name, data in metrics.items():
            bound = bounds[name]
            print(f"{workload:<17} {name:<12} spread {data['spread']:.4f}  "
                  f"bound {bound}  ({data['spread'] / bound:.2f} of bound)")


if __name__ == "__main__":
    main()
