#!/usr/bin/env python3
"""Smoke-check the clang thread-safety annotation gate.

Two halves, both required:

  1. Positive: every file in CURATED below compiles warning-clean with
     `-Wthread-safety -Werror=thread-safety` (syntax-only, no codegen).
     These are the translation units whose locking contracts carry
     LDLA_GUARDED_BY / LDLA_REQUIRES annotations (util/annotations.hpp);
     a warning here means a guarded member is being touched outside its
     lock.

  2. Negative control: a snippet that reads a guarded member without the
     lock MUST produce a thread-safety diagnostic. If it does not, the
     gate is wired wrong (annotations compiled out, flag dropped, wrong
     compiler) and a "clean" positive half proves nothing — so that is a
     hard failure, not a pass.

Exit status: 0 = gate verified, 1 = violations or broken gate,
77 = no clang++ on PATH (ctest SKIP_RETURN_CODE — the `thread-safety`
CMake preset and CI run the real thing).

Usage: python3 scripts/check_annotations.py [--root R] [--clang PATH]
"""

from __future__ import annotations

import argparse
import pathlib
import shutil
import subprocess
import sys
import tempfile

# Translation units / headers whose annotations the gate must hold for.
# Headers are compiled as standalone c++ sources (they are self-contained).
CURATED = [
    "src/util/sync.hpp",
    "src/util/work_steal.hpp",
    "src/util/thread_pool.hpp",
    "src/util/thread_pool.cpp",
    "src/util/trace.cpp",
    "bench/bench_common.hpp",
]

NEGATIVE_CONTROL = r"""
#include "util/annotations.hpp"
#include "util/sync.hpp"

struct Account {
  ldla::Mutex mu;
  int balance LDLA_GUARDED_BY(mu) = 0;
};

int read_without_lock(Account& a) {
  return a.balance;  // must trip -Wthread-safety
}
"""

CLANG_CANDIDATES = (
    "clang++", "clang++-19", "clang++-18", "clang++-17", "clang++-16",
    "clang++-15", "clang++-14",
)


def find_clang(explicit: str | None) -> str | None:
    for cand in ([explicit] if explicit else []) + list(CLANG_CANDIDATES):
        if cand and shutil.which(cand):
            return cand
    return None


def compile_flags(root: pathlib.Path) -> list[str]:
    return [
        "-fsyntax-only", "-x", "c++", "-std=c++20",
        f"-I{root / 'src'}", f"-I{root / 'bench'}",
        # The one instrumentation gate: exposes both the LDLA_TRACE_* and
        # the LDLA_METRICS_ONLY(...) blocks to the analysis.
        "-DLDLA_TRACE_ENABLED=1",
        "-Wthread-safety", "-Werror=thread-safety",
    ]


def run_clang(clang: str, flags: list[str], target: str) -> tuple[int, str]:
    proc = subprocess.run([clang, *flags, target],
                          capture_output=True, text=True)
    return proc.returncode, proc.stderr


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None)
    ap.add_argument("--clang", default=None,
                    help="clang++ binary (default: probe PATH)")
    args = ap.parse_args()

    root = (pathlib.Path(args.root).resolve() if args.root
            else pathlib.Path(__file__).resolve().parent.parent)

    clang = find_clang(args.clang)
    if clang is None:
        print("check_annotations: SKIP (no clang++ on PATH; the "
              "thread-safety preset / CI job runs the full analysis)",
              file=sys.stderr)
        return 77

    flags = compile_flags(root)
    failures = 0

    # Negative control first: prove the gate can fire at all.
    with tempfile.NamedTemporaryFile("w", suffix=".cpp", delete=False) as f:
        f.write(NEGATIVE_CONTROL)
        control = f.name
    try:
        rc, err = run_clang(clang, flags, control)
        if rc == 0 or "thread-safety" not in err:
            print("check_annotations: BROKEN GATE — the negative control "
                  "compiled without a -Wthread-safety diagnostic:\n" + err,
                  file=sys.stderr)
            return 1
    finally:
        pathlib.Path(control).unlink(missing_ok=True)
    print(f"check_annotations: negative control trips the gate ({clang})")

    for rel in CURATED:
        path = root / rel
        if not path.is_file():
            print(f"check_annotations: {rel}: missing (update CURATED)",
                  file=sys.stderr)
            failures += 1
            continue
        rc, err = run_clang(clang, flags, str(path))
        if rc != 0:
            print(f"check_annotations: {rel}: FAIL\n{err}", file=sys.stderr)
            failures += 1
        else:
            print(f"check_annotations: {rel}: clean")

    if failures:
        print(f"check_annotations: {failures} file(s) failed", file=sys.stderr)
        return 1
    print(f"check_annotations: gate verified on {len(CURATED)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
