#!/usr/bin/env python3
"""End-to-end LD benchmark for ldla (see NOTES.md).

Run from the root of a checkout:

    python3 e2ebench/run.py --workload dense-matrix --seed 1 --seconds 25 --trace 0

Steps: build the benchmark package (e2ebench/CMakeLists.txt, which builds
the library from the checkout's sources) into .bench_build/e2ebench; write
the workload's seeded inputs into .bench_work/<workload> and fsync them;
run the measured process on them; check that the output checksum matches
the one recorded by earlier runs on the same input (by digest) in this
checkout; delete the
inputs and outputs and fsync; print a fingerprint line and, last, the
result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the spans to .bench_out/). Exit status 0 means a result was
printed; anything else means the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("vcf-to-tiles", "dense-matrix", "rare-band", "omega-sweep")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "ldla_e2ebench")
CHECKSUMS = os.path.join(ROOT, ".bench_build", "e2ebench-checksums.json")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def fsync_dir(path):
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def build():
    """Configure once, then build incrementally. Tool output goes to stderr
    so the result stays the last line of stdout."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)


def last_json_lines(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError("measured process printed no result")
    return json.loads(lines[-2]), json.loads(lines[-1])


def input_digest(work):
    """Digest of every generated input file: equal seeds must give equal
    inputs, and the output checksum is keyed by it."""
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(os.listdir(work)):
        h.update(name.encode())
        with open(os.path.join(work, name), "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def check_checksum(workload, digest, fingerprint, result):
    """Outputs of one input must be bit-identical from run to run: compare
    this run's checksum with the first correct run's in this checkout."""
    key = f"{workload}:{digest}"
    checksum = fingerprint["fingerprint"]["checksum"]
    try:
        with open(CHECKSUMS) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    if key in seen and seen[key] != checksum:
        log(f"checksum {checksum} differs from {seen[key]} of an earlier "
            f"run on the same input")
        result["correct"] = False
        result["failed"] = result["attempted"]
    elif key not in seen and result["correct"]:
        seen[key] = checksum
        tmp = CHECKSUMS + ".tmp"
        with open(tmp, "w") as f:
            json.dump(seen, f, indent=1, sort_keys=True)
        os.replace(tmp, CHECKSUMS)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--corrupt-output", action="store_true",
                    help="self-test hook: damage every job's output")
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    work = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", work]
    # The library reads LDLA_THREADS, LDLA_AFFINITY, LDLA_TUNE_CACHE and
    # LDLA_TRACE_DIR from the environment; the benchmark measures the
    # defaults, whatever the caller's shell exports.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LDLA_")}
    try:
        subprocess.run([BINARY, "gen"] + common, check=True, env=env,
                       timeout=RUN_TIMEOUT_S)
        digest = input_digest(work)
        cmd = [BINARY, "run"] + common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--spans-out",
            os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")]
        if args.corrupt_output:
            cmd.append("--corrupt-output")
        proc = subprocess.run(cmd, check=True, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
        fingerprint, result = last_json_lines(proc.stdout)
    except (OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"run failed: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        fsync_dir(os.path.dirname(work))

    fingerprint["fingerprint"]["input_digest"] = digest
    check_checksum(args.workload, digest, fingerprint, result)
    print(json.dumps(fingerprint))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
