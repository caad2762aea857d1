#!/usr/bin/env python3
"""Validate ldla's telemetry exports: trace_<run>.json reports written by
src/util/trace.cpp and metrics_<run>.prom / metrics_<run>.json dumps written
by src/util/metrics.cpp.

Counters have one store (the metrics registry), so they have one check:
the "counters" object of a trace report and of a metrics JSON dump both map
a Prometheus-valid `*_total` name to {"help": str, "value": int >= 0}, and
check_counters() validates both. A trace report must additionally list
every phase counter (TRACE_COUNTERS).

Trace reports: the metadata / counters / phases / traceEvents schema, the
phase-name vocabulary, and the invariant Perfetto rendering relies on:
within each thread lane the "X" complete events form a laminar family —
every pair of spans is either disjoint or properly nested, never partially
overlapping (RAII spans cannot interleave).

Prometheus text (exposition format 0.0.4): every metric carries a # HELP
and a # TYPE line before its samples, names are Prometheus-valid, counters
end in `_total`, histogram buckets are cumulative (non-decreasing in le
order), the `+Inf` bucket equals `_count`, and `_sum`/`_count` are present.
Metrics JSON: the `ldla-metrics-v1` schema envelope, quantile ordering
p50 <= p90 <= p99 <= p999, and cumulative bucket counts whose last entry
equals `count`.

Usage:
    scripts/validate_telemetry.py FILE [FILE ...]
    scripts/validate_telemetry.py --run BENCH_BINARY [--require a,b] [-- args]

FILE is a trace_*.json report, a metrics_*.json dump or a metrics_*.prom
dump. With --run, the bench binary executes in a temporary directory with
LDLA_SMOKE=1, tracing on (LDLA_TRACE=1) and LDLA_TRACE_DIR /
LDLA_METRICS_DUMP_DIR pointing at that directory; it must write at least
one trace report and one metrics dump, and every file it wrote is
validated. This is the ctest / CI entry point: it proves the whole chain
(instrumentation -> registry -> exporters and session writer) emits
loadable, self-consistent files.

--require NAMES (comma-separated) additionally demands that each named
metric is present with a non-trivial (> 0) value in every validated .prom
file — the gate that residency/prefetch/pool instrumentation actually
fired.

Exit status: 0 = valid, 1 = validation failure, 2 = usage/setup error.
"""

import argparse
import glob
import json
import math
import os
import re
import subprocess
import sys
import tempfile

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
# One optional label pair: histogram buckets carry le="..."; info gauges
# (ldla_kernel_variant etc.) carry their single identifying label.
SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<label>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<lvalue>[^"]*)"\})?'
    r' (?P<value>\S+)$')
QUANTILES = ["p50", "p90", "p99", "p999"]

PHASES = ["pack_a", "pack_b", "kernel", "epilogue", "mirror", "io",
          "task_run", "task_wait", "barrier"]
METADATA_KEYS = {"run", "clock", "session_ns", "tsc_hz", "core_hz",
                 "scalar_peak_triples_per_sec", "cpu", "perf",
                 "events_dropped"}
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
    "ldla_sparse_intersections_total",
    "ldla_sparse_dense_fallback_tiles_total", "ldla_shard_io_bytes_total",
    "ldla_stream_prefetch_issued_total", "ldla_stream_prefetch_hits_total",
    "ldla_stream_prefetch_stalls_total"}
EVENT_KEYS = {"name", "cat", "ph", "ts", "dur", "pid", "tid"}


def check_counters(path, counters, errors, required=()):
    """The shared counter check: `counters` maps a Prometheus-valid
    `*_total` name to {"help": non-empty str, "value": int >= 0}, and lists
    every name in `required`."""
    if not isinstance(counters, dict):
        errors.append(f"{path}: missing 'counters' object")
        return
    missing = set(required) - counters.keys()
    if missing:
        errors.append(f"{path}: counters missing {sorted(missing)}")
    for name, body in sorted(counters.items()):
        if not NAME_RE.match(name) or not name.endswith("_total"):
            errors.append(f"{path}: counters.{name}: counter name must be "
                          "Prometheus-valid and end in _total")
        if not isinstance(body, dict):
            errors.append(f"{path}: counters.{name} must be an object")
            continue
        value = body.get("value")
        if not (isinstance(value, int) and value >= 0):
            errors.append(f"{path}: counters.{name}.value must be a "
                          "non-negative integer")
        if not body.get("help"):
            errors.append(f"{path}: counters.{name} missing help")


# --- Prometheus text ---------------------------------------------------------

def parse_number(text):
    if text == "+Inf":
        return math.inf
    try:
        return float(text)
    except ValueError:
        return None


def parse_prom(path, errors):
    """Parse into {family: {"type": str, "help": str, "samples": [...]}}
    where histogram samples keep (le, value) pairs in file order."""
    families = {}
    current = None
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        errors.append(f"{path}: cannot read: {e}")
        return families
    for i, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[3]:
                errors.append(f"{path}:{i}: HELP line without text")
                continue
            current = families.setdefault(
                parts[2], {"type": None, "help": None, "samples": []})
            current["help"] = parts[3]
        elif line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in ("counter", "gauge",
                                                   "histogram"):
                errors.append(f"{path}:{i}: malformed TYPE line: {line}")
                continue
            fam = families.setdefault(
                parts[2], {"type": None, "help": None, "samples": []})
            fam["type"] = parts[3]
        elif line.startswith("#"):
            continue
        else:
            m = SAMPLE_RE.match(line)
            if m is None:
                errors.append(f"{path}:{i}: unparseable sample: {line}")
                continue
            value = parse_number(m.group("value"))
            if value is None:
                errors.append(f"{path}:{i}: non-numeric value: {line}")
                continue
            le = m.group("lvalue") if m.group("label") == "le" else None
            families.setdefault(
                family_of(m.group("name")),
                {"type": None, "help": None, "samples": []})["samples"].append(
                    (m.group("name"), le, value, m.group("label")))
    return families


def family_of(sample_name):
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            return sample_name[: -len(suffix)]
    return sample_name


def validate_prom(path):
    errors = []
    families = parse_prom(path, errors)
    if not families and not errors:
        errors.append(f"{path}: no metric families found")
    for name, fam in sorted(families.items()):
        where = f"{path}: {name}"
        if not NAME_RE.match(name):
            errors.append(f"{where}: invalid metric name")
        if fam["type"] is None:
            errors.append(f"{where}: missing # TYPE line")
            continue
        if fam["help"] is None:
            errors.append(f"{where}: missing # HELP line")
        if not fam["samples"]:
            errors.append(f"{where}: no samples")
            continue
        if fam["type"] == "counter":
            if not name.endswith("_total"):
                errors.append(f"{where}: counter name must end in _total")
            for sample_name, le, value, label in fam["samples"]:
                if sample_name != name or label is not None:
                    errors.append(f"{where}: unexpected counter sample "
                                  f"{sample_name}")
                elif value < 0:
                    errors.append(f"{where}: negative counter value {value}")
        elif fam["type"] == "gauge":
            for sample_name, le, value, label in fam["samples"]:
                if sample_name != name:
                    errors.append(f"{where}: unexpected gauge sample "
                                  f"{sample_name}")
                elif label == "le":
                    errors.append(f"{where}: gauge sample with an le label")
                elif label is not None and value != 1:
                    # Info-style gauge: the label carries the payload, the
                    # sample value is pinned to 1 by convention.
                    errors.append(f"{where}: info gauge value must be 1, "
                                  f"got {value}")
        else:
            validate_prom_histogram(name, fam, errors, path)
    return errors


def validate_prom_histogram(name, fam, errors, path):
    where = f"{path}: {name}"
    buckets, total, sum_seconds = [], None, None
    for sample_name, le, value, label in fam["samples"]:
        if sample_name == name + "_bucket":
            upper = parse_number(le) if le is not None else None
            if upper is None:
                errors.append(f"{where}: bucket without a numeric le")
            else:
                buckets.append((upper, value))
        elif sample_name == name + "_count":
            total = value
        elif sample_name == name + "_sum":
            sum_seconds = value
        else:
            errors.append(f"{where}: unexpected sample {sample_name}")
    if total is None or sum_seconds is None:
        errors.append(f"{where}: histogram missing _sum/_count")
        return
    if not buckets or buckets[-1][0] != math.inf:
        errors.append(f"{where}: histogram must end with a +Inf bucket")
        return
    if buckets[-1][1] != total:
        errors.append(f"{where}: +Inf bucket {buckets[-1][1]} != _count "
                      f"{total}")
    uppers = [b[0] for b in buckets]
    counts = [b[1] for b in buckets]
    if uppers != sorted(uppers) or len(set(uppers)) != len(uppers):
        errors.append(f"{where}: bucket le values not strictly increasing")
    if counts != sorted(counts):
        errors.append(f"{where}: cumulative bucket counts decrease")
    if total > 0 and sum_seconds < 0:
        errors.append(f"{where}: negative _sum")


# --- metrics JSON ------------------------------------------------------------

def validate_metrics_json(path, data):
    errors = []
    if data.get("schema") != "ldla-metrics-v1":
        errors.append(f"{path}: schema must be 'ldla-metrics-v1', got "
                      f"{data.get('schema')!r}")
    if not isinstance(data.get("enabled"), bool):
        errors.append(f"{path}: 'enabled' must be a boolean")
    check_counters(path, data.get("counters"), errors)
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


def check_required(path, required, errors):
    """Every required metric must appear in the .prom file with a
    non-trivial (> 0) scalar value (counters/gauges) or count
    (histograms)."""
    families = parse_prom(path, errors)
    for name in required:
        fam = families.get(name)
        if fam is None:
            errors.append(f"{path}: required metric '{name}' is absent")
            continue
        value = None
        for sample_name, le, v, label in fam["samples"]:
            if sample_name == name or sample_name == name + "_count":
                value = v
        if value is None:
            errors.append(f"{path}: required metric '{name}' has no value "
                          "sample")
        elif value <= 0:
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
        perf = meta.get("perf")
        if (not isinstance(perf, dict)
                or not isinstance(perf.get("available"), bool)
                or not isinstance(perf.get("status"), str)):
            errors.append(f"{path}: metadata.perf needs bool 'available' "
                          "and string 'status'")
        dropped = meta.get("events_dropped", 0)
        if dropped:
            print(f"{path}: warning: {dropped} event(s) dropped "
                  "(ring buffer full — trace is truncated, not invalid)",
                  file=sys.stderr)

    check_counters(path, data.get("counters"), errors, TRACE_COUNTERS)

    phases = data.get("phases")
    if not isinstance(phases, list):
        errors.append(f"{path}: missing phases array")
    else:
        names = [p.get("phase") for p in phases if isinstance(p, dict)]
        if names != PHASES:
            errors.append(f"{path}: phases must list {PHASES} in order, "
                          f"got {names}")
        for p in phases:
            for key in ("self_ns", "cycles", "instructions", "llc_loads",
                        "llc_misses"):
                v = p.get(key)
                if not (isinstance(v, int) and v >= 0):
                    errors.append(f"{path}: phases[{p.get('phase')}].{key} "
                                  f"must be a non-negative integer")

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
    """Dispatch on the file kind: .prom text, or JSON that is either a trace
    report (it has traceEvents) or a metrics dump."""
    if path.endswith(".prom"):
        errors = validate_prom(path)
        if required and not errors:
            check_required(path, required, errors)
        return errors
    if not path.endswith(".json"):
        return [f"{path}: expected a .prom or .json file"]
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: cannot parse: {e}"]
    if not isinstance(data, dict):
        return [f"{path}: top level must be an object"]
    if "traceEvents" in data:
        return validate_trace(path, data)
    return validate_metrics_json(path, data)


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
        dumps = sorted(glob.glob(os.path.join(tmp, "metrics_*.prom"))
                       + glob.glob(os.path.join(tmp, "metrics_*.json")))
        if not traces or not dumps:
            print(proc.stdout)
            print(f"error: {binary} wrote {len(traces)} trace_*.json and "
                  f"{len(dumps)} metrics_* files; it must write both "
                  "(built with LDLA_TRACE=OFF?)", file=sys.stderr)
            return 1
        return validate_all(traces + dumps, required)


def main():
    parser = argparse.ArgumentParser(
        description="Validate ldla trace reports and metrics dumps.")
    parser.add_argument("paths", nargs="*",
                        help="trace_*.json / metrics_*.{prom,json} files")
    parser.add_argument("--run", metavar="BINARY",
                        help="run this bench in a temp dir with tracing and "
                             "metrics dumping on, then validate its output")
    parser.add_argument("--require", metavar="NAMES", default="",
                        help="comma-separated metric names that must be "
                             "present and non-trivial in every .prom file")
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
