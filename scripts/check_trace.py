#!/usr/bin/env python3
"""Validate Chrome traces and decision-audit streams from the obs layer.

For trace files (anything not ending in .audit.jsonl), checks:
  * the file parses as JSON and has a `traceEvents` array;
  * every event carries the required fields for its phase
    ('X' complete events need ts+dur, 'i' instants need ts+s, 'M' metadata
    needs args.name);
  * timestamps and durations are non-negative integers and, per (pid, tid)
    track, 'X'/'i' event start times are monotonically non-decreasing in
    file order (the exporter sorts by sim time);
  * optionally (--require NAME[:MINCOUNT]), that at least MINCOUNT events
    with that name are present.

Files ending in .audit.jsonl are validated against the AuditLog schema
documented in docs/OBSERVABILITY.md instead: one object per line with
strictly increasing integer `seq`, non-decreasing non-negative `t`, a
known `kind` with its required args keys, an object `args`, and (when
present) a `candidates` array of objects. --require matches kinds there.
An `rm_preempt_dispatch` record must also add up: `dispatched` equals its
dispatched rows, and `considered` equals the dispatched and `app_gone`
rows, plus the `victims` of its `vacating_cap` rows (one per node, each
naming its `node` and at least one victim), plus `quota_filled`.

With --summary the files are not validated. Instead the script prints,
from Python's json module, what `ckpt-report` prints for the same files:
per audit stream the record count, candidate rows, time span and records
per kind; per Chrome trace the non-metadata events per category. The
layout is ckpt-report's, byte for byte, so CI diffs the two to
cross-check ckpt-report's streaming parser against an independent one.

Exit code 0 on success; 1 with a diagnostic on the first violation.
"""

import argparse
import collections
import json
import sys

REQUIRED_BY_PHASE = {
    "X": ("name", "ts", "dur", "pid", "tid"),
    "i": ("name", "ts", "s", "pid", "tid"),
    "M": ("name", "pid", "tid", "args"),
}

# Audit-record kinds and the args keys each one must carry (a subset of
# what the emitters write; see docs/OBSERVABILITY.md for the full schema).
AUDIT_KINDS = {
    "preempt_scan": ("task", "job", "priority", "demand_cpus", "outcome",
                     "chosen_node"),
    "restore_decision": ("task", "job", "image_node", "chosen_node",
                         "remote", "restore_policy"),
    "capacity_fallback": ("task", "job", "image_node", "reason"),
    "rm_preempt_dispatch": ("considered", "dispatched", "quota_filled"),
    "am_decision": ("task", "job", "node", "unsaved_progress_s", "action",
                    "policy"),
}


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_events(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: cannot parse: {e}")
    if isinstance(doc, list):  # bare-array variant of the format
        return doc
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: missing traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: traceEvents is not an array")
    return events


def check_events(path, events):
    last_ts = collections.defaultdict(lambda: -1)
    counts = collections.Counter()
    for i, ev in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(f"{where}: not an object")
        phase = ev.get("ph")
        if phase not in REQUIRED_BY_PHASE:
            fail(f"{where}: unknown phase {phase!r}")
        for field in REQUIRED_BY_PHASE[phase]:
            if field not in ev:
                fail(f"{where}: phase {phase!r} missing field {field!r}")
        if phase == "M":
            if ev.get("name") != "thread_name":
                fail(f"{where}: unexpected metadata record {ev.get('name')!r}")
            continue
        ts = ev["ts"]
        if not isinstance(ts, int) or ts < 0:
            fail(f"{where}: ts must be a non-negative integer, got {ts!r}")
        if phase == "X":
            dur = ev["dur"]
            if not isinstance(dur, int) or dur < 0:
                fail(f"{where}: dur must be a non-negative integer, got {dur!r}")
        track = (ev["pid"], ev["tid"])
        if ts < last_ts[track]:
            fail(f"{where}: ts {ts} goes backwards on track {track} "
                 f"(previous {last_ts[track]})")
        last_ts[track] = ts
        counts[ev["name"]] += 1
    return counts


def check_dispatch(where, args, candidates):
    """An rm_preempt_dispatch record accounts for every ranked victim once:
    dispatched, app gone, passed over at a node's vacating cap, or left
    after the quota filled."""
    dispatched = app_gone = capped = 0
    capped_nodes = set()
    for row in candidates:
        action, reason = row.get("action"), row.get("reason")
        if (action, reason) == ("dispatched", "selected"):
            dispatched += 1
        elif (action, reason) == ("skipped", "app_gone"):
            app_gone += 1
        elif (action, reason) == ("skipped", "vacating_cap"):
            node, victims = row.get("node"), row.get("victims")
            if not is_number(node):
                fail(f"{where}: vacating_cap row without a node: {row}")
            if not is_number(victims) or victims < 1:
                fail(f"{where}: vacating_cap row needs victims >= 1: {row}")
            if node in capped_nodes:
                fail(f"{where}: node {node} has two vacating_cap rows")
            capped_nodes.add(node)
            capped += victims
        else:
            fail(f"{where}: unexpected dispatch row {action!r}/{reason!r}")
    if args["dispatched"] != dispatched:
        fail(f"{where}: dispatched {args['dispatched']} but {dispatched} "
             f"dispatched rows")
    accounted = dispatched + app_gone + capped + args["quota_filled"]
    if args["considered"] != accounted:
        fail(f"{where}: considered {args['considered']} != {dispatched} "
             f"dispatched + {app_gone} app_gone + {capped} capped + "
             f"{args['quota_filled']} quota_filled")


def check_audit(path, requirements):
    counts = collections.Counter()
    last_seq = -1
    last_t = -1
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{where}: cannot parse: {e}")
            if not isinstance(rec, dict):
                fail(f"{where}: not an object")
            seq = rec.get("seq")
            if not isinstance(seq, int) or seq < 0:
                fail(f"{where}: seq must be a non-negative integer, "
                     f"got {seq!r}")
            if seq <= last_seq:
                fail(f"{where}: seq {seq} not strictly increasing "
                     f"(previous {last_seq})")
            last_seq = seq
            t = rec.get("t")
            if not isinstance(t, (int, float)) or t < 0:
                fail(f"{where}: t must be a non-negative number, got {t!r}")
            if t < last_t:
                fail(f"{where}: t {t} goes backwards (previous {last_t})")
            last_t = t
            kind = rec.get("kind")
            if kind not in AUDIT_KINDS:
                fail(f"{where}: unknown kind {kind!r}")
            args = rec.get("args")
            if not isinstance(args, dict):
                fail(f"{where}: args must be an object, got {type(args)}")
            for key in AUDIT_KINDS[kind]:
                if key not in args:
                    fail(f"{where}: kind {kind!r} missing args key {key!r}")
            candidates = rec.get("candidates", [])
            if not isinstance(candidates, list) or any(
                    not isinstance(c, dict) for c in candidates):
                fail(f"{where}: candidates must be an array of objects")
            if kind == "rm_preempt_dispatch":
                check_dispatch(where, args, candidates)
            counts[kind] += 1
    for name, min_count in requirements:
        if counts[name] < min_count:
            fail(f"{path}: expected >= {min_count} {name!r} records, "
                 f"found {counts[name]}")
    total = sum(counts.values())
    by_kind = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"check_trace: OK: {path}: {total} audit records ({by_kind})")


# --- --summary: ckpt-report's audit/trace sections, from Python's json ------


def utf8(text):
    # ckpt-report encodes lone \ud800-style escapes as 3-byte UTF-8 too.
    return text.encode("utf-8", "surrogatepass")


def render_table(rows):
    """metrics/report.cc's RenderTable: byte-width columns, two-space gaps,
    a dashed rule under the header."""
    widths = [0] * max(len(row) for row in rows)
    for row in rows:
        for c, cell in enumerate(row):
            widths[c] = max(widths[c], len(utf8(cell)))
    lines = []
    for r, row in enumerate(rows):
        line = "  "
        for c, cell in enumerate(row):
            line += cell
            if c + 1 < len(row):
                line += " " * (widths[c] - len(utf8(cell)) + 2)
        lines.append(line)
        if r == 0:
            lines.append("  " + "-" * (sum(widths) + 2 * len(widths)))
    return "".join(line + "\n" for line in lines)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def field(obj, key, want, fallback):
    """json::Value::NumberOr/StringOr: the member if it has the type."""
    value = obj.get(key)
    if want == "number":
        return value if is_number(value) else fallback
    return value if isinstance(value, str) else fallback


def table_section(counts, header):
    if not counts:
        return ""
    rows = [header] + [[k, str(v)] for k, v in
                       sorted(counts.items(), key=lambda kv: utf8(kv[0]))]
    return render_table(rows)


def jsonl_objects(path):
    # Lines end at "\n" only, as in ckpt-report; a stray "\r" is JSON
    # whitespace, not a line break.
    with open(path, "r", encoding="utf-8", errors="surrogatepass",
              newline="\n") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: bad record: {e}")
            if not isinstance(obj, dict):
                fail(f"{path}:{lineno}: bad record: not a JSON object")
            yield obj


def audit_summary(path):
    records = candidates = 0
    first_t = last_t = 0
    kinds = collections.Counter()
    for rec in jsonl_objects(path):
        t = field(rec, "t", "number", 0)
        if records == 0:
            first_t = t
        last_t = t
        records += 1
        cands = rec.get("candidates")
        candidates += len(cands) if isinstance(cands, list) else 0
        kinds[field(rec, "kind", "string", "?")] += 1
    return (f"\n=== audit: {path} ===\n"
            f"  {records} records ({candidates} candidate rows), "
            f"t=[{float(first_t):.0f}, {float(last_t):.0f}]\n" +
            table_section(kinds, ["kind", "records"]))


def trace_summary(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail(f"{path}: not a JSON object")
    events = doc.get("traceEvents")
    events = [e for e in events if isinstance(e, dict)] \
        if isinstance(events, list) else []
    categories = collections.Counter(
        field(e, "cat", "string", "?") for e in events
        if field(e, "ph", "string", "") != "M")
    return (f"\n=== trace: {path} ===\n"
            f"  {sum(categories.values())} events\n" +
            table_section(categories, ["category", "events"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", nargs="+",
                        help="trace JSON or *.audit.jsonl file(s)")
    parser.add_argument(
        "--require", action="append", default=[], metavar="NAME[:MINCOUNT]",
        help="require at least MINCOUNT (default 1) events named NAME")
    parser.add_argument(
        "--summary", action="store_true",
        help="print ckpt-report's audit/trace summaries instead of checking")
    args = parser.parse_args()

    if args.summary:
        for path in args.trace:
            text = audit_summary(path) if path.endswith(".audit.jsonl") \
                else trace_summary(path)
            sys.stdout.buffer.write(utf8(text))
        return

    requirements = []
    for spec in args.require:
        name, _, count = spec.partition(":")
        requirements.append((name, int(count) if count else 1))

    for path in args.trace:
        if path.endswith(".audit.jsonl"):
            check_audit(path, requirements)
            continue
        events = load_events(path)
        counts = check_events(path, events)
        for name, min_count in requirements:
            if counts[name] < min_count:
                fail(f"{path}: expected >= {min_count} {name!r} events, "
                     f"found {counts[name]}")
        spans = sum(1 for e in events if e.get("ph") == "X")
        instants = sum(1 for e in events if e.get("ph") == "i")
        print(f"check_trace: OK: {path}: {len(events)} events "
              f"({spans} spans, {instants} instants)")


if __name__ == "__main__":
    main()
