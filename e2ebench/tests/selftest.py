#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark (about 3 minutes).

Run from the repository root:

    python3 e2ebench/tests/selftest.py

It checks that
  * BENCHMARK.json and every printed metric follow the name and unit
    grammar, and each run prints exactly the metrics BENCHMARK.json lists;
  * every workload runs with zero failed operations;
  * deterministic counts (LD pairs, store and tile bytes, sparse column
    fraction, ω windows) and the output checksum repeat exactly across two
    runs of one seed;
  * a corrupted output is reported as failed operations;
  * in a directory holding only BENCHMARK.json and the benchmark, the
    benchmark exits non-zero without printing a result.
Exit status 0 means every check passed.
"""

import json
import os
import re
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join("e2ebench", "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 7
SECONDS = "1"

# Per-layer counts that depend only on the seed, per workload.
DETERMINISTIC = {
    "vcf-to-tiles": ["ld.pairs", "shard_store.write_mib",
                     "tile_store.payload_mib", "shard_store.budget_mib"],
    "dense-matrix": ["ld.pairs", "gemm.sparse_col_frac", "gemm.pack_mib"],
    "rare-band": ["ld.pairs", "gemm.sparse_col_frac", "gemm.pack_mib"],
    "omega-sweep": ["ld.pairs", "sweep_scan.windows", "gemm.pack_mib"],
}

failures = []


def expect(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL: {what}", flush=True)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", SECONDS, "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(proc, what):
    expect(proc.returncode == 0, f"{what}: exit {proc.returncode}\n"
                                 f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return None, None
    fingerprint = json.loads(lines[-2])["fingerprint"]
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: result keys {sorted(result)}")
    return fingerprint, result


def check_metrics(result, spec, what):
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    expect(got == want, f"{what}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(want))}")
    for name, m in result["metrics"].items():
        expect(NAME.match(name) is not None, f"{what}: bad name {name}")
        expect(isinstance(m["value"], (int, float)),
               f"{what}: {name} is not a number")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    expect(len(names) == len(set(names)), "BENCHMARK.json: duplicate names")
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(NAME.match(m["name"]) is not None, f"bad name {m['name']}")
        expect(UNIT.match(m["unit"]) is not None, f"bad unit {m['unit']}")

    for w in [w["name"] for w in spec["workloads"]]:
        print(f"-- {w}", flush=True)
        fp0, r0 = result_of(run(w, 0), f"{w} end-to-end")
        if r0:
            check_metrics(r0, spec["end_to_end"], f"{w} end-to-end")
            expect(r0["correct"] and r0["failed"] == 0 and r0["attempted"] >= 1,
                   f"{w} end-to-end: {r0['attempted']} attempted, "
                   f"{r0['failed']} failed")

        traced = [result_of(run(w, 1), f"{w} traced #{i}") for i in (1, 2)]
        for fp, r in traced:
            if r:
                check_metrics(r, spec["per_layer"], f"{w} traced")
                expect(r["correct"] and r["failed"] == 0,
                       f"{w} traced: {r['failed']} failed")
                expect(r["metrics"][f"{w}.covered_frac"]["value"] > 0,
                       f"{w} traced: covered_frac is 0")
        (fp1, r1), (fp2, r2) = traced
        if r1 and r2:
            for name in DETERMINISTIC[w]:
                a = r1["metrics"][name]["value"]
                b = r2["metrics"][name]["value"]
                expect(a == b and a > 0, f"{w}: {name} {a} vs {b}")
            expect(fp0 is None or fp0["checksum"] == fp1["checksum"]
                   == fp2["checksum"], f"{w}: checksum changed between runs")
            expect(fp0 is None or fp0["lds"] == fp1["lds"] == fp2["lds"],
                   f"{w}: LD count changed between runs")
            expect(fp0 is None or fp0["input_digest"] == fp1["input_digest"]
                   == fp2["input_digest"], f"{w}: one seed gave two inputs")

        _, rc = result_of(run(w, 0, "--corrupt-output"), f"{w} corrupted")
        if rc:
            expect(not rc["correct"] and rc["attempted"] >= 1
                   and rc["failed"] == rc["attempted"],
                   f"{w} corrupted: {rc['failed']} of {rc['attempted']} "
                   "reported failed")

    print("-- bare directory", flush=True)
    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("dense-matrix", 0, cwd=bare)
        expect(proc.returncode != 0, "bare directory: exit status 0")
        expect('"correct"' not in proc.stdout,
               "bare directory: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("OK" if not failures else f"{len(failures)} check(s) failed")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
