#!/usr/bin/env python3
"""Validate ldla's telemetry exports: trace_<run>.json reports written by
src/util/trace.cpp and metrics_<run>.json dumps written by
src/util/metrics.cpp.

The metrics registry has one renderer (metrics::render_json), so there is
one metrics check: validate_metrics_json() takes a metrics dump as it is,
and a trace report's "metrics" member, which embeds the same object. Its
"counters" map a `*_total` name to {"help": str, "value": int >= 0}; a
trace report must additionally list every phase counter there
(TRACE_COUNTERS). Beyond the counters: the `ldla-metrics-v1` schema
envelope, quantile ordering p50 <= p90 <= p99 <= p999, and cumulative
bucket counts whose last entry equals `count`.

Trace reports: the metadata / metrics / phases / traceEvents schema, the
phase-name vocabulary, and the invariant Perfetto rendering relies on:
within each thread lane the "X" complete events form a laminar family —
every pair of spans is either disjoint or properly nested, never partially
overlapping (RAII spans cannot interleave).

Usage:
    scripts/validate_telemetry.py FILE [FILE ...] [--require a,b]
    scripts/validate_telemetry.py --run BENCH_BINARY [--require a,b] [-- args]

FILE is a trace_*.json report or a metrics_*.json dump. With --run, the
bench binary executes in a temporary directory with LDLA_SMOKE=1, tracing
on (LDLA_TRACE=1) and LDLA_TRACE_DIR / LDLA_METRICS_DUMP_DIR pointing at
that directory; it must write at least one trace report and one metrics
dump, and every file it wrote is validated. This is the ctest / CI entry
point: it proves the whole chain (instrumentation -> registry -> renderer
and session writer) emits loadable, self-consistent files.

--require NAMES (comma-separated) additionally demands that each named
metric is present with a non-trivial value in every validated metrics dump:
a counter or gauge `value` > 0, or a histogram `count` > 0 — the gate that
residency/prefetch/pool instrumentation actually fired.

Exit status: 0 = valid, 1 = validation failure, 2 = usage/setup error.
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys
import tempfile

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
QUANTILES = ["p50", "p90", "p99", "p999"]

PHASES = ["pack_a", "pack_b", "kernel", "epilogue", "mirror", "io",
          "task_run", "task_wait", "barrier"]
METADATA_KEYS = {"run", "clock", "session_ns", "tsc_hz", "core_hz",
                 "scalar_peak_triples_per_sec", "cpu", "events_dropped"}
CPU_KEYS = {"brand", "logical_cores", "l1d", "l2", "l3", "line"}
# The registry counters behind trace::PhaseCounters (the counter table in
# src/util/trace.cpp); steals and failed_steals have a pool and a nest row.
TRACE_COUNTERS = {
    "ldla_pack_bytes_total", "ldla_pack_slivers_total",
    "ldla_pack_slivers_reused_total", "ldla_kernel_calls_total",
    "ldla_kernel_words_total", "ldla_tiles_emitted_total",
    "ldla_epilogue_rows_total", "ldla_pool_tasks_total",
    "ldla_pool_steals_total", "ldla_nest_steals_total",
    "ldla_pool_failed_steals_total", "ldla_nest_failed_steals_total",
    "ldla_pool_parks_total", "ldla_pool_barrier_waits_total",
    "ldla_sparse_ll_tiles_total", "ldla_sparse_ld_tiles_total",
    "ldla_sparse_intersections_total", "ldla_shard_io_bytes_total",
    "ldla_stream_prefetch_issued_total", "ldla_stream_prefetch_hits_total",
    "ldla_stream_prefetch_stalls_total"}
EVENT_KEYS = {"name", "cat", "ph", "ts", "dur", "pid", "tid"}


def check_counters(path, counters, errors, required=()):
    """The counter check: `counters` maps a valid `*_total` metric name
    to {"help": non-empty str, "value": int >= 0}, and lists every name in
    `required`."""
    if not isinstance(counters, dict):
        errors.append(f"{path}: missing 'counters' object")
        return
    missing = set(required) - counters.keys()
    if missing:
        errors.append(f"{path}: counters missing {sorted(missing)}")
    for name, body in sorted(counters.items()):
        if not NAME_RE.match(name) or not name.endswith("_total"):
            errors.append(f"{path}: counters.{name}: counter name must be "
                          "a valid metric name ending in _total")
        if not isinstance(body, dict):
            errors.append(f"{path}: counters.{name} must be an object")
            continue
        value = body.get("value")
        if not (isinstance(value, int) and value >= 0):
            errors.append(f"{path}: counters.{name}.value must be a "
                          "non-negative integer")
        if not body.get("help"):
            errors.append(f"{path}: counters.{name} missing help")


# --- metrics JSON ------------------------------------------------------------

def validate_metrics_json(path, data, required_counters=()):
    errors = []
    if data.get("schema") != "ldla-metrics-v1":
        errors.append(f"{path}: schema must be 'ldla-metrics-v1', got "
                      f"{data.get('schema')!r}")
    if not isinstance(data.get("enabled"), bool):
        errors.append(f"{path}: 'enabled' must be a boolean")
    check_counters(path, data.get("counters"), errors, required_counters)
    for section in ("gauges", "histograms"):
        if not isinstance(data.get(section), dict):
            errors.append(f"{path}: missing '{section}' object")
            return errors
    for name, body in sorted(data["gauges"].items()):
        if not isinstance(body.get("value"), (int, float)):
            errors.append(f"{path}: gauges.{name}.value must be numeric")
        if not body.get("help"):
            errors.append(f"{path}: gauges.{name} missing help")
    # "infos" is optional (builds predating the info-gauge exporter omit
    # it); when present each entry carries a label name and a string (or
    # null = never set) value.
    infos = data.get("infos", {})
    if not isinstance(infos, dict):
        errors.append(f"{path}: 'infos' must be an object")
    else:
        for name, body in sorted(infos.items()):
            if not body.get("help"):
                errors.append(f"{path}: infos.{name} missing help")
            if not isinstance(body.get("label"), str) or not body["label"]:
                errors.append(f"{path}: infos.{name} missing label")
            if not (body.get("value") is None
                    or isinstance(body["value"], str)):
                errors.append(f"{path}: infos.{name}.value must be a string "
                              "or null")
    for name, body in sorted(data["histograms"].items()):
        validate_json_histogram(path, name, body, errors)
    return errors


def validate_json_histogram(path, name, body, errors):
    where = f"{path}: histograms.{name}"
    count = body.get("count")
    if not (isinstance(count, int) and count >= 0):
        errors.append(f"{where}: count must be a non-negative integer")
        return
    if not isinstance(body.get("sum_seconds"), (int, float)):
        errors.append(f"{where}: missing sum_seconds")
    qs = []
    for q in QUANTILES:
        v = body.get(q)
        if not isinstance(v, (int, float)) or v < 0:
            errors.append(f"{where}: {q} must be a non-negative number")
            return
        qs.append(v)
    if qs != sorted(qs):
        errors.append(f"{where}: quantiles not ordered "
                      f"(p50 <= p90 <= p99 <= p999): {qs}")
    buckets = body.get("buckets")
    if not isinstance(buckets, list):
        errors.append(f"{where}: missing buckets array")
        return
    prev_upper, prev_count = -1.0, 0
    for i, entry in enumerate(buckets):
        if (not isinstance(entry, list) or len(entry) != 2
                or not isinstance(entry[0], (int, float))
                or not isinstance(entry[1], int)):
            errors.append(f"{where}: buckets[{i}] must be "
                          "[upper_seconds, cumulative_count]")
            return
        upper, cum = entry
        if upper <= prev_upper:
            errors.append(f"{where}: bucket uppers not increasing at [{i}]")
        if cum < prev_count:
            errors.append(f"{where}: cumulative counts decrease at [{i}]")
        prev_upper, prev_count = upper, cum
    if count > 0 and (not buckets or buckets[-1][1] != count):
        errors.append(f"{where}: last cumulative bucket != count ({count})")
    if count == 0 and buckets:
        errors.append(f"{where}: empty histogram with non-empty buckets")


def check_required(path, data, required, errors):
    """Every required metric must appear in the metrics dump with a
    non-trivial (> 0) value (counters/gauges) or count (histograms)."""
    for name in required:
        value = None
        for section, key in (("counters", "value"), ("gauges", "value"),
                             ("histograms", "count")):
            body = data.get(section, {}).get(name)
            if isinstance(body, dict):
                value = body.get(key)
        if value is None:
            errors.append(f"{path}: required metric '{name}' is absent")
        elif not isinstance(value, (int, float)) or value <= 0:
            errors.append(f"{path}: required metric '{name}' is trivial "
                          f"({value}); its instrumentation never fired")


# --- trace reports -----------------------------------------------------------

def check_laminar(events, errors, path):
    """Per-tid: sorted spans must nest or be disjoint (child ends within
    its innermost enclosing parent)."""
    by_tid = {}
    for ev in events:
        by_tid.setdefault(ev["tid"], []).append(ev)
    for tid, evs in sorted(by_tid.items()):
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # end times of enclosing spans
        for ev in evs:
            end = ev["ts"] + ev["dur"]
            # Float µs timestamps: allow 1ns of rounding slop.
            while stack and stack[-1] <= ev["ts"] + 1e-3:
                stack.pop()
            if stack and end > stack[-1] + 1e-3:
                errors.append(
                    f"{path}: tid {tid}: span '{ev['name']}' at "
                    f"ts={ev['ts']} dur={ev['dur']} partially overlaps its "
                    f"enclosing span (parent ends at {stack[-1]})")
            stack.append(end)


def validate_trace(path, data):
    """Return a list of error strings (empty = valid)."""
    errors = []
    meta = data.get("metadata")
    if not isinstance(meta, dict):
        errors.append(f"{path}: missing metadata object")
    else:
        missing = METADATA_KEYS - meta.keys()
        if missing:
            errors.append(f"{path}: metadata missing keys {sorted(missing)}")
        if not isinstance(meta.get("run"), str) or not meta.get("run"):
            errors.append(f"{path}: metadata.run must be a non-empty string")
        for key in ("tsc_hz", "core_hz"):
            if not (isinstance(meta.get(key), (int, float))
                    and meta.get(key, 0) > 0):
                errors.append(f"{path}: metadata.{key} must be > 0")
        cpu = meta.get("cpu")
        if not isinstance(cpu, dict) or CPU_KEYS - cpu.keys():
            errors.append(f"{path}: metadata.cpu missing keys")
        dropped = meta.get("events_dropped", 0)
        if dropped:
            print(f"{path}: warning: {dropped} event(s) dropped "
                  "(ring buffer full — trace is truncated, not invalid)",
                  file=sys.stderr)

    metrics = data.get("metrics")
    if not isinstance(metrics, dict):
        errors.append(f"{path}: missing metrics object")
    else:
        errors += validate_metrics_json(f"{path}: metrics", metrics,
                                        TRACE_COUNTERS)

    phases = data.get("phases")
    if not isinstance(phases, list):
        errors.append(f"{path}: missing phases array")
    else:
        names = [p.get("phase") for p in phases if isinstance(p, dict)]
        if names != PHASES:
            errors.append(f"{path}: phases must list {PHASES} in order, "
                          f"got {names}")
        for p in phases:
            v = p.get("self_ns")
            if not (isinstance(v, int) and v >= 0):
                errors.append(f"{path}: phases[{p.get('phase')}].self_ns "
                              "must be a non-negative integer")

    events = data.get("traceEvents")
    if not isinstance(events, list):
        errors.append(f"{path}: missing traceEvents array")
    else:
        for i, ev in enumerate(events):
            if not isinstance(ev, dict) or EVENT_KEYS - ev.keys():
                errors.append(f"{path}: traceEvents[{i}] missing keys")
                continue
            if ev["ph"] != "X":
                errors.append(f"{path}: traceEvents[{i}].ph must be 'X'")
            if ev["name"] not in PHASES:
                errors.append(f"{path}: traceEvents[{i}].name "
                              f"'{ev['name']}' is not a known phase")
            if not (isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
                    and isinstance(ev["dur"], (int, float))
                    and ev["dur"] >= 0):
                errors.append(f"{path}: traceEvents[{i}] ts/dur must be "
                              "non-negative numbers")
        if not errors:
            check_laminar(events, errors, path)

    return errors


def validate_path(path, required=()):
    """Dispatch on the JSON kind: a trace report (it has traceEvents) or a
    metrics dump."""
    if not path.endswith(".json"):
        return [f"{path}: expected a .json file"]
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: cannot parse: {e}"]
    if not isinstance(data, dict):
        return [f"{path}: top level must be an object"]
    if "traceEvents" in data:
        return validate_trace(path, data)
    errors = validate_metrics_json(path, data)
    if required and not errors:
        check_required(path, data, required, errors)
    return errors


def validate_all(paths, required=()):
    failures = 0
    for path in paths:
        errors = validate_path(path, required)
        for e in errors:
            print(e, file=sys.stderr)
        failures += bool(errors)
        if not errors:
            print(f"ok: {os.path.basename(path)}")
    return 1 if failures else 0


def run_and_validate(binary, extra_args, required):
    """Execute `binary` in smoke mode with tracing on and a temp dump dir;
    validate every trace report and metrics dump it writes."""
    binary = os.path.abspath(binary)
    if not os.access(binary, os.X_OK):
        print(f"error: {binary} is not executable", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="ldla_telemetry_") as tmp:
        env = dict(os.environ)
        env.update({"LDLA_SMOKE": "1", "LDLA_TRACE": "1",
                    "LDLA_TRACE_DIR": tmp, "LDLA_METRICS_DUMP_DIR": tmp,
                    "LDLA_BENCH_JSON_DIR": tmp})
        proc = subprocess.run([binary] + extra_args, env=env, cwd=tmp,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            print(proc.stdout)
            print(f"error: {binary} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        traces = sorted(glob.glob(os.path.join(tmp, "trace_*.json")))
        dumps = sorted(glob.glob(os.path.join(tmp, "metrics_*.json")))
        if not traces or not dumps:
            print(proc.stdout)
            print(f"error: {binary} wrote {len(traces)} trace_*.json and "
                  f"{len(dumps)} metrics_*.json files; it must write both "
                  "(built with LDLA_TRACE=OFF?)", file=sys.stderr)
            return 1
        return validate_all(traces + dumps, required)


def main():
    parser = argparse.ArgumentParser(
        description="Validate ldla trace reports and metrics dumps.")
    parser.add_argument("paths", nargs="*",
                        help="trace_*.json / metrics_*.json files")
    parser.add_argument("--run", metavar="BINARY",
                        help="run this bench in a temp dir with tracing and "
                             "metrics dumping on, then validate its output")
    parser.add_argument("--require", metavar="NAMES", default="",
                        help="comma-separated metric names that must be "
                             "present and non-trivial in every metrics dump")
    args, extra = parser.parse_known_args()
    if extra and extra[0] == "--":
        extra = extra[1:]
    required = tuple(n for n in args.require.split(",") if n)

    if args.run:
        if args.paths:
            parser.error("--run and file paths are mutually exclusive")
        return run_and_validate(args.run, extra, required)
    if not args.paths:
        parser.error("give files to validate, or --run BINARY")
    return validate_all(args.paths, required)


if __name__ == "__main__":
    sys.exit(main())
