#!/usr/bin/env python3
"""Drop wall-clock-dependent gauges from metrics JSON files in place.

The self.* profile timers and process.peak_rss_bytes depend on the host,
not on the simulation, so two runs of the same simulation only byte-diff
once they are gone. Handles a single registry ({"metrics": [...]}) and a
bench's combined export ({"runs": [{"metrics": {...}}, ...]}).

Usage: scripts/normalize_metrics.py METRICS_JSON...
"""
import json
import sys


def keep(metric):
    name = metric.get("name", "")
    return not name.startswith("self.") and name != "process.peak_rss_bytes"


def scrub(container):
    if isinstance(container, dict) and isinstance(container.get("metrics"), list):
        container["metrics"] = [m for m in container["metrics"] if keep(m)]


def main(paths):
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        scrub(doc)
        for run in doc.get("runs", []):
            scrub(run.get("metrics", {}))
        with open(path, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main(sys.argv[1:])
