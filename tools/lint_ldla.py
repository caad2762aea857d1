#!/usr/bin/env python3
"""Repo-invariant lint for ldla, with two interchangeable engines.

Rules that clang-tidy cannot express, enforced as a CI/ctest gate:

  1. intrinsics-confinement — x86 SIMD intrinsics may appear only in the
     runtime-dispatched ISA translation units (kernels_{avx2,avx512,swar}.cpp,
     popcount_{sse,avx2,avx512}.cpp) plus the annotated peak-calibration
     allowlist. Everything else must stay portable so the CPUID dispatch
     remains the single point of ISA selection.

  2. no-naked-allocation — `new`, `delete`, `malloc`, `free`,
     `aligned_alloc`, `posix_memalign` are banned in src/ outside
     util/aligned_buffer.*: every heap block flows through the RAII aligned
     buffer so alignment and ownership are uniform (and ASan sees one choke
     point).

  3. public-api-guards — every public API entry point in the manifest below
     must validate its inputs: LDLA_EXPECT for in-memory APIs, ParseError
     for stream parsers. The manifest doubles as a freshness check — a
     renamed or deleted entry fails the lint (with a nearest-match
     suggestion) until the manifest is updated.

  4. perf-event-confinement — perf_event_open and its kernel ABI surface
     (perf_event_attr, PERF_COUNT_*, <linux/perf_event.h>) may appear only
     in src/util/perf_counters.{hpp,cpp}, so graceful degradation when the
     syscall is unavailable (containers, perf_event_paranoid) is decided in
     exactly one place.

  5. atomics-confinement — raw std::atomic / std::memory_order /
     atomic_thread_fence may appear only in the files whose orderings are
     gated by tests/litmus (work_steal.hpp, thread_pool.{hpp,cpp},
     trace.cpp). Everything else synchronizes through those abstractions or
     through util/sync.hpp, so every lock-free protocol in the library is
     covered by the litmus/TSan sweep.

  6. lock-annotation-freshness — raw std::mutex / std::condition_variable
     are banned outside util/sync.hpp (use the capability-annotated
     ldla::Mutex so clang -Wthread-safety can see the lock), and every
     ldla::Mutex member must be referenced by at least one LDLA_GUARDED_BY /
     LDLA_REQUIRES / LDLA_EXCLUDES annotation in its file — an unannotated
     mutex is invisible to the analysis and therefore unchecked.

  7. thread-confinement — std::thread / std::jthread construction and
     pthread_create may appear only in util/thread_pool.*: library code
     parallelizes through the pool (which joins every worker in its
     destructor), never through ad-hoc threads that can leak past their
     scope. (std::thread::hardware_concurrency() is a query, not a spawn,
     and stays allowed everywhere.)

  8. mmap-confinement — mmap/munmap/madvise/mincore/pread and
     <sys/mman.h> may appear only in src/io/shard_store.cpp: the shard
     store owns the out-of-core mapping lifecycle, so fd hygiene, mapping
     bounds, and residency probing are auditable in one translation unit
     and every other layer consumes shards through its typed API. The one
     exception is the allocation choke point, src/util/aligned_buffer.cpp,
     which may include <sys/mman.h> and call madvise (the huge-page hint
     on large buffers) but none of the mapping or I/O calls.

  9. proc-confinement — "/proc/..." path literals may appear only in
     src/util/metrics.cpp (the health sampler), src/util/cpu_info.cpp
     (topology probing), and src/util/perf_counters.cpp
     (perf_event_paranoid): parsing kernel text interfaces is brittle, so
     every procfs read lives behind one of those three audited probes.
     This rule scans RAW source text (the shared strip pass blanks string
     literals, which is exactly where the paths live).

Engines:

  * ast  — libclang (python clang.cindex) over compile_commands.json: the
    rules run on real cursors/tokens, so comments, strings and macro tricks
    cannot fool them, and rule 3 resolves the actual definitions.
  * text — regex over comment/string-stripped sources; no dependencies
    beyond the standard library. The original engine, kept verdict-
    compatible so both engines agree on a clean tree.
  * auto — ast when python-clang + libclang + a compile database are all
    present, otherwise text (with a note). This is what the ctest gate
    runs, so developer machines without libclang still lint.
  * both — run the two engines and fail on any verdict mismatch for rules
    1-4 (the compatibility contract) in addition to the findings.

Usage:  python3 tools/lint_ldla.py [--root R] [--engine auto|ast|text|both]
                                   [--compdb PATH] [--github]
Exit status 0 = clean, 1 = findings, 2 = usage/config error,
77 = requested engine unavailable (ctest SKIP_RETURN_CODE).
"""

from __future__ import annotations

import argparse
import difflib
import glob as globmod
import json
import os
import pathlib
import re
import shlex
import sys
from typing import Iterable

# --- rule 1: intrinsics confinement -----------------------------------------

INTRINSIC_RE = re.compile(
    r"(_mm\d*_\w+|__m(?:128|256|512)\w*|#\s*include\s*<\w*intrin\.h>)"
)
# AST spellings: call/decl-ref names and type names, checked separately.
INTRINSIC_NAME_RE = re.compile(r"^_mm\d*_\w+$")
INTRINSIC_TYPE_RE = re.compile(r"__m(?:128|256|512)\w*")
INTRINSIC_HEADER_RE = re.compile(r"\w*intrin\.h$")

INTRINSIC_ALLOWED = {
    "src/core/gemm/kernels_avx2.cpp",
    "src/core/gemm/kernels_avx512.cpp",
    "src/core/gemm/kernels_swar.cpp",
    "src/core/popcount_sse.cpp",
    "src/core/popcount_avx2.cpp",
    "src/core/popcount_avx512.cpp",
    # The micro-kernel generator: header-only templates whose AVX2/AVX512
    # bodies are ifdef-guarded and instantiated only by the kernel TUs
    # above — the intrinsics live here so the per-arch TUs stay thin
    # explicit-instantiation lists.
    "src/core/gemm/kernel_gen.hpp",
    # Peak calibration measures the machine's raw popcount throughput with
    # its own unrolled intrinsic loop (DESIGN.md §5); it is ifdef-guarded
    # and never dispatched, so it is exempt from the kernel-TU rule.
    "src/util/peak.cpp",
    # Timer uses <x86intrin.h> for __rdtscp (serialized TSC reads) — a
    # timing primitive, not SIMD; nothing here depends on ISA dispatch.
    "src/util/timer.cpp",
}

# --- rule 2: allocation choke point ------------------------------------------

ALLOC_RE = re.compile(
    r"(\bnew\b|\bdelete\b|\bmalloc\s*\(|\bfree\s*\(|\baligned_alloc\s*\(|"
    r"\bposix_memalign\s*\(|\bcalloc\s*\(|\brealloc\s*\()"
)
ALLOC_FUNCTIONS = {
    "malloc", "free", "aligned_alloc", "posix_memalign", "calloc", "realloc",
}

# `Foo(const Foo&) = delete;` / `= default;` are declarations, not heap
# traffic — blank them before the allocation scan.
DELETED_MEMBER_RE = re.compile(r"=\s*(?:delete|default)\b")

ALLOC_ALLOWED = {
    "src/util/aligned_buffer.hpp",
    "src/util/aligned_buffer.cpp",
}

# --- rule 4: perf_event_open confinement --------------------------------------

PERF_EVENT_RE = re.compile(
    r"(\bperf_event_open\b|\bperf_event_attr\b|\bPERF_COUNT_\w+|"
    r"#\s*include\s*<linux/perf_event\.h>)"
)
PERF_EVENT_NAMES_RE = re.compile(
    r"^(perf_event_open|perf_event_attr|PERF_COUNT_\w+)$"
)

PERF_EVENT_ALLOWED = {
    "src/util/perf_counters.cpp",
    # The header declares the counter-group API (event kinds, readings);
    # naming the ABI surface in declarations/doc-comments is part of its
    # job, and it still funnels every syscall into the one .cpp.
    "src/util/perf_counters.hpp",
}

# --- rule 5: atomics confinement ----------------------------------------------

ATOMIC_RE = re.compile(
    r"(\bstd::atomic\w*\b|\bstd::memory_order\w*\b|\batomic_thread_fence\b|"
    r"#\s*include\s*<atomic>)"
)
ATOMIC_NAME_RE = re.compile(r"^(memory_order\w*|atomic_thread_fence)$")

ATOMICS_ALLOWED = {
    # The Chase–Lev deque: every ordering here is gated by tests/litmus.
    "src/util/work_steal.hpp",
    # Pool bookkeeping (pending-task counter, submission claims) documented
    # against the deque protocol and stress-tested under TSan.
    "src/util/thread_pool.hpp",
    "src/util/thread_pool.cpp",
    # Per-thread span slots (phase self-time, perf deltas, session event
    # buffers) and the session flags; its counters live in the registry.
    "src/util/trace.cpp",
    # The one counter store: striped relaxed counters (the trace phase
    # counters included), the registry enable flag, and log-linear
    # histogram buckets — scrape-side aggregation is mutex-guarded, the hot
    # path is write-only relaxed increments.
    "src/util/metrics.hpp",
    "src/util/metrics.cpp",
}

# --- rule 6: lock-annotation freshness ----------------------------------------

RAW_SYNC_RE = re.compile(
    r"(\bstd::mutex\b|\bstd::condition_variable\w*\b|\bstd::lock_guard\b|"
    r"\bstd::unique_lock\b|\bstd::scoped_lock\b)"
)
RAW_SYNC_ALLOWED = {
    # The one place allowed to touch the native primitives: the capability-
    # annotated wrappers themselves.
    "src/util/sync.hpp",
}
# Text engine: mutex *members* follow the member naming convention
# (trailing '_' or 'g_' prefix for globals); locals are exempt because
# GUARDED_BY cannot attach to them. The AST engine checks real FIELD_DECLs
# instead of relying on the convention.
MUTEX_MEMBER_RE = re.compile(r"(?:^|[\s])Mutex\s+([A-Za-z_]\w*)\s*;")
ANNOTATION_REF_RES = (
    "LDLA_GUARDED_BY", "LDLA_PT_GUARDED_BY", "LDLA_REQUIRES",
    "LDLA_EXCLUDES", "LDLA_ACQUIRE", "LDLA_RELEASE", "LDLA_ASSERT_CAPABILITY",
)

# --- rule 7: thread confinement -----------------------------------------------

# Negative lookahead: `std::thread::hardware_concurrency()` is a query of
# the qualifier, not a construction.
THREAD_RE = re.compile(
    r"(\bstd::jthread\b|\bstd::thread\b(?!\s*::)|\bpthread_create\b)"
)
THREAD_ALLOWED = {
    "src/util/thread_pool.hpp",
    "src/util/thread_pool.cpp",
    # The metrics health sampler owns one long-lived background thread with
    # an explicit start/stop lifecycle (joined under its control mutex) —
    # a daemon, not ad-hoc parallelism, so the pool is the wrong home.
    "src/util/metrics.cpp",
}

# --- rule 8: mmap confinement --------------------------------------------------

MMAP_RE = re.compile(
    r"(\bmmap\s*\(|\bmunmap\s*\(|\bmadvise\s*\(|\bmincore\s*\(|"
    r"\bpread\s*\(|#\s*include\s*<sys/mman\.h>)"
)
MMAP_NAMES_RE = re.compile(r"^(mmap|munmap|madvise|mincore|pread)$")

MMAP_ALLOWED = {
    # The shard store owns the mapping lifecycle end to end: open/mmap,
    # madvise prefetch hints, mincore residency probes, munmap on close.
    "src/io/shard_store.cpp",
}

# The allocation choke point may include <sys/mman.h> and advise huge pages
# on large buffers — madvise only, never a mapping or I/O call.
MADVISE_ALLOWED = {
    "src/util/aligned_buffer.cpp",
}
MADVISE_OK_RE = re.compile(r"^(madvise\s*\(|#\s*include\s*<sys/mman\.h>)$")


def mmap_scan(rel: str, code: str, findings: list["Finding"]) -> None:
    """Rule 8 on stripped text, with the madvise-only exception."""
    if rel in MMAP_ALLOWED:
        return
    for lineno, line in enumerate(code.splitlines(), 1):
        for m in MMAP_RE.finditer(line):
            if rel in MADVISE_ALLOWED and MADVISE_OK_RE.match(m.group(0)):
                continue
            findings.append(Finding(
                rel, lineno, "mmap-confinement",
                f"'{m.group(0).strip()}' outside io/shard_store.cpp "
                "(the store owns the mapping lifecycle)"))
            break

# --- rule 9: procfs confinement -------------------------------------------------

# Scans RAW text (not the stripped pass): the leading quote pins the match
# to string literals, which is where procfs paths live; prose mentions of
# /proc in comments stay legal.
PROC_RE = re.compile(r'"/proc/')

PROC_ALLOWED = {
    # The health sampler parses /proc/self/{statm,stat,io} on its tick.
    "src/util/metrics.cpp",
    # Topology/cache probing.
    "src/util/cpu_info.cpp",
    # Reads /proc/sys/kernel/perf_event_paranoid to predict EACCES.
    "src/util/perf_counters.cpp",
}

# --- rule 3: public API guard manifest ---------------------------------------

# file -> list of (function_name, guard_kind); guard_kind is "expect" for
# LDLA_EXPECT-guarded APIs or "parse" for stream parsers that validate by
# throwing ParseError.
PUBLIC_API = {
    "src/core/bit_matrix.cpp": [
        ("BitMatrix::set", "expect"),
        ("BitMatrix::get", "expect"),
        ("BitMatrix::derived_count", "expect"),
        ("BitMatrix::gather_rows", "expect"),
    ],
    "src/core/bit_transpose.cpp": [("transpose_bits", "expect")],
    "src/core/gemm/macro.cpp": [
        ("gemm_count", "expect"),
        ("gemm_count_packed", "expect"),
        ("gemm_count_fused", "expect"),
        ("syrk_count_fused", "expect"),
    ],
    "src/core/gemm/syrk.cpp": [
        ("syrk_count", "expect"),
        ("syrk_count_packed", "expect"),
    ],
    "src/core/gemm/packing.cpp": [("pack_panel", "expect")],
    "src/core/gemm/config.cpp": [("resolve_plan", "expect")],
    "src/core/gemm/dispatch.cpp": [
        ("kernel_for_plan", "expect"),
        ("kernel_info", "expect"),
    ],
    "src/core/gemm/sparse.cpp": [("build_sparse_columns", "expect")],
    "src/core/gemm/packed_bit_matrix.cpp": [
        ("PackedBitMatrix::PackedBitMatrix", "expect"),
        ("expect_packed_matches", "expect"),
        ("unpack_packed", "expect"),
    ],
    "src/core/ld.cpp": [
        ("ld_scan", "expect"),
        ("ld_cross_scan", "expect"),
        ("ld_stat_scan", "expect"),
        ("ld_cross_stat_scan", "expect"),
        ("ld_scan_parallel", "expect"),
        ("ld_cross_scan_parallel", "expect"),
    ],
    "src/core/band.cpp": [("ld_band_scan", "expect")],
    "src/core/ld_blocks.cpp": [("find_ld_blocks", "expect")],
    "src/core/missing.cpp": [("ld_scan_missing", "expect")],
    "src/core/tanimoto.cpp": [("tanimoto_top_k", "expect")],
    "src/core/genotype_ld.cpp": [("extract_dosage_planes", "expect")],
    "src/core/higher_order.cpp": [("third_order_d", "expect")],
    "src/omega/omega_stat.cpp": [
        ("omega_at_split", "expect"),
        ("window_r2", "expect"),
    ],
    "src/omega/sweep_scan.cpp": [("omega_scan", "expect")],
    "src/util/partition.cpp": [
        ("split_uniform", "expect"),
        ("split_triangle_rows", "expect"),
    ],
    "src/util/thread_pool.cpp": [("ThreadPool::parallel_for", "expect")],
    "src/util/trace.cpp": [("start_session", "expect")],
    "src/sim/maf_spectrum.cpp": [
        ("sample_maf_spectrum", "expect"),
        ("simulate_maf_spectrum", "expect"),
    ],
    "src/io/ms_format.cpp": [("parse_ms", "parse")],
    "src/io/vcf_lite.cpp": [("parse_vcf", "parse")],
    "src/io/ldm_binary.cpp": [("read_ldm", "parse")],
    "src/io/shard_store.cpp": [
        ("write_shard_store", "expect"),
        ("open_shard_store", "parse"),
        ("ShardStore::verify_shard_popcounts", "expect"),
    ],
    "src/core/ld_stream.cpp": [
        ("ld_matrix_stream", "expect"),
        ("ld_cross_stream", "expect"),
    ],
    "src/util/metrics.cpp": [
        ("Sampler::start", "expect"),
        ("dump_prometheus", "expect"),
        ("dump_json", "expect"),
    ],
}

GUARD_TOKENS = {
    "expect": ("LDLA_EXPECT",),
    "parse": ("ParseError", "LDLA_EXPECT"),
}


class Finding:
    """One lint violation; formats identically from either engine."""

    def __init__(self, file: str, line: int | None, rule: str, message: str):
        self.file = file
        self.line = line
        self.rule = rule
        self.message = message

    def key(self) -> tuple:
        return (self.file, self.line if self.line is not None else 0,
                self.rule, self.message)

    def __str__(self) -> str:
        where = f"{self.file}:{self.line}" if self.line is not None else self.file
        return f"{where}: [{self.rule}] {self.message}"

    def github(self) -> str:
        line = f",line={self.line}" if self.line is not None else ""
        return (f"::error file={self.file}{line},title=lint_ldla "
                f"[{self.rule}]::{self.message}")


def suggest(name: str, candidates: Iterable[str]) -> str:
    close = difflib.get_close_matches(name, sorted(set(candidates)), n=1,
                                      cutoff=0.6)
    return f"; closest match: '{close[0]}'" if close else ""


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def function_body(code: str, name: str) -> str | None:
    """Extract the brace-balanced body of the first definition of `name`.

    Matches `name(` where the line is a definition (ends with `{` before the
    next `;`). Good enough for this codebase's clang-format style.
    """
    simple = name.split("::")[-1]
    pattern = re.compile(
        r"(?:^|[\s\*&])" + re.escape(name) + r"\s*\(" if "::" in name
        else r"(?:^|[\s\*&])" + re.escape(simple) + r"\s*\("
    )
    for m in pattern.finditer(code):
        # Find the opening brace of the definition, bailing if a ';' comes
        # first (declaration, not definition).
        depth = 0
        i = m.end() - 1
        while i < len(code):
            c = code[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif c == ";" and depth == 0:
                break
            elif c == "{" and depth == 0:
                # Collect the brace-balanced body.
                j, braces = i, 0
                while j < len(code):
                    if code[j] == "{":
                        braces += 1
                    elif code[j] == "}":
                        braces -= 1
                        if braces == 0:
                            return code[i : j + 1]
                    j += 1
                return code[i:]
            i += 1
    return None


CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
QUALIFIED_CALL_RE = re.compile(r"\b(\w+::\w+)\s*\(")


def guarded_via_helper(code: str, body: str, tokens: tuple[str, ...]) -> bool:
    """Entry points may delegate validation to a file-local helper (e.g.
    `validate(g, positions, params)`); accept one level of indirection."""
    for callee in {m.group(1) for m in CALL_RE.finditer(body)}:
        helper = function_body(code, callee)
        if helper is not None and any(t in helper for t in tokens):
            return True
    return False


def proc_scan(rel: str, raw: str, findings: list["Finding"]) -> None:
    """Rule 9 on RAW (unstripped) text — shared verbatim by both engines,
    so their verdicts agree by construction."""
    if rel in PROC_ALLOWED:
        return
    for lineno, line in enumerate(raw.splitlines(), 1):
        if PROC_RE.search(line):
            findings.append(Finding(
                rel, lineno, "proc-confinement",
                "procfs path literal outside the audited probes "
                "(util/metrics, util/cpu_info, util/perf_counters)"))


def project_sources(root: pathlib.Path,
                    subdirs: tuple[str, ...]) -> list[pathlib.Path]:
    out: list[pathlib.Path] = []
    for sub in subdirs:
        d = root / sub
        if d.is_dir():
            out.extend(p for p in d.rglob("*")
                       if p.suffix in {".cpp", ".hpp", ".h"})
    return sorted(out)


# =============================================================================
# Text engine (regex over stripped sources; zero dependencies).
# =============================================================================


class TextEngine:
    name = "text"

    def __init__(self, root: pathlib.Path):
        self.root = root

    def run(self) -> list[Finding]:
        findings: list[Finding] = []
        findings += self._confinement_rules()
        findings += self._public_api_rule()
        return findings

    def _scan_pattern(self, rel: str, code: str, regex: re.Pattern,
                      allowed: set[str], rule: str, where: str,
                      findings: list[Finding],
                      preprocess=None) -> None:
        if rel in allowed:
            return
        for lineno, line in enumerate(code.splitlines(), 1):
            m = regex.search(preprocess(line) if preprocess else line)
            if m:
                findings.append(Finding(
                    rel, lineno, rule,
                    f"'{m.group(0).strip()}' outside {where}"))

    def _confinement_rules(self) -> list[Finding]:
        findings: list[Finding] = []
        # Rules 1/2/4 keep their original src/-only scope; the concurrency
        # rules (5/6/7) also cover bench/, whose harness shares the
        # library's locking discipline.
        for path in project_sources(self.root, ("src",)):
            rel = path.relative_to(self.root).as_posix()
            code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
            self._scan_pattern(rel, code, INTRINSIC_RE, INTRINSIC_ALLOWED,
                               "intrinsics-confinement",
                               "the ISA kernel TUs", findings)
            self._scan_pattern(rel, code, ALLOC_RE, ALLOC_ALLOWED,
                               "no-naked-allocation",
                               "util/aligned_buffer", findings,
                               preprocess=lambda l: DELETED_MEMBER_RE.sub("", l))
            self._scan_pattern(rel, code, PERF_EVENT_RE, PERF_EVENT_ALLOWED,
                               "perf-event-confinement",
                               "util/perf_counters", findings)
            mmap_scan(rel, code, findings)
        for path in project_sources(self.root, ("src", "bench")):
            rel = path.relative_to(self.root).as_posix()
            raw = path.read_text(encoding="utf-8")
            code = strip_comments_and_strings(raw)
            proc_scan(rel, raw, findings)
            self._scan_pattern(rel, code, ATOMIC_RE, ATOMICS_ALLOWED,
                               "atomics-confinement",
                               "the litmus-gated concurrency files", findings)
            self._scan_pattern(rel, code, RAW_SYNC_RE, RAW_SYNC_ALLOWED,
                               "lock-annotation-freshness",
                               "util/sync.hpp (use the annotated "
                               "ldla::Mutex)", findings)
            self._scan_pattern(rel, code, THREAD_RE, THREAD_ALLOWED,
                               "thread-confinement",
                               "util/thread_pool (library code "
                               "parallelizes through the pool)", findings)
            findings += self._mutex_coverage(rel, code)
        return findings

    def _mutex_coverage(self, rel: str, code: str) -> list[Finding]:
        findings: list[Finding] = []
        for m in MUTEX_MEMBER_RE.finditer(code):
            name = m.group(1)
            # Member naming convention: trailing '_' (class members) or
            # 'g_' prefix (file-scope globals). Function-local mutexes are
            # exempt — GUARDED_BY cannot attach to a local.
            if not (name.endswith("_") or name.startswith("g_")):
                continue
            covered = any(
                re.search(macro + r"\s*\(\s*" + re.escape(name) + r"\s*[),.]",
                          code)
                for macro in ANNOTATION_REF_RES)
            if not covered:
                lineno = code.count("\n", 0, m.start()) + 1
                findings.append(Finding(
                    rel, lineno, "lock-annotation-freshness",
                    f"Mutex '{name}' is referenced by no LDLA_GUARDED_BY / "
                    "LDLA_REQUIRES / LDLA_EXCLUDES annotation, so "
                    "-Wthread-safety cannot check it"))
        return findings

    def _public_api_rule(self) -> list[Finding]:
        findings: list[Finding] = []
        for rel, entries in sorted(PUBLIC_API.items()):
            path = self.root / rel
            if not path.is_file():
                candidates = [p.relative_to(self.root).as_posix()
                              for p in project_sources(self.root, ("src",))]
                findings.append(Finding(
                    rel, None, "public-api-guards",
                    "manifest file missing (update PUBLIC_API in "
                    f"tools/lint_ldla.py{suggest(rel, candidates)})"))
                continue
            code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
            for name, kind in entries:
                body = function_body(code, name)
                if body is None:
                    candidates = (
                        {m.group(1) for m in CALL_RE.finditer(code)} |
                        {m.group(1) for m in QUALIFIED_CALL_RE.finditer(code)})
                    findings.append(Finding(
                        rel, None, "public-api-guards",
                        f"entry point '{name}' not found (update PUBLIC_API "
                        f"in tools/lint_ldla.py{suggest(name, candidates)})"))
                    continue
                tokens = GUARD_TOKENS[kind]
                if not any(t in body for t in tokens) and not \
                        guarded_via_helper(code, body, tokens):
                    findings.append(Finding(
                        rel, None, "public-api-guards",
                        f"'{name}' has no {' / '.join(tokens)} guard "
                        "(directly or via a same-file helper)"))
        return findings


# =============================================================================
# AST engine (libclang over compile_commands.json).
# =============================================================================


class EngineUnavailable(RuntimeError):
    pass


LIBCLANG_GLOBS = (
    "/usr/lib/llvm-*/lib/libclang.so*",
    "/usr/lib/x86_64-linux-gnu/libclang-*.so*",
    "/usr/lib/*/libclang*.so*",
    "/usr/lib/libclang*.so*",
)


def make_index(ci):
    """Create a clang Index, probing common libclang locations if the
    default loader fails. Once cindex has latched a library path it cannot
    be retargeted, so the probe order matters more than completeness."""
    candidates = [None]
    for pat in LIBCLANG_GLOBS:
        candidates.extend(sorted(globmod.glob(pat), reverse=True))
    last: Exception | None = None
    for cand in candidates:
        try:
            if cand is not None:
                ci.Config.set_library_file(cand)
            return ci.Index.create()
        except Exception as e:  # LibclangError or Config-already-loaded
            last = e
            if getattr(ci.Config, "loaded", False):
                break
    raise EngineUnavailable(f"libclang is not loadable ({last})")


def find_compdb(root: pathlib.Path, arg: str | None) -> pathlib.Path:
    if arg:
        p = pathlib.Path(arg)
        if not p.is_file():
            raise EngineUnavailable(f"no compile database at {p}")
        return p
    candidates = [root / "compile_commands.json"]
    candidates += sorted(root.glob("build/*/compile_commands.json"),
                         key=lambda p: p.stat().st_mtime, reverse=True)
    for p in candidates:
        if p.is_file():
            return p
    raise EngineUnavailable(
        "no compile_commands.json (configure any preset first)")


class AstEngine:
    name = "ast"

    def __init__(self, root: pathlib.Path, compdb: str | None):
        try:
            import clang.cindex as ci  # noqa: import guarded by design
        except ImportError as e:
            raise EngineUnavailable(
                f"python clang bindings unavailable ({e}); "
                "apt install python3-clang") from e
        self.ci = ci
        self.root = root
        self.compdb = find_compdb(root, compdb)
        self.index = make_index(ci)
        self.findings: dict[tuple, Finding] = {}
        self.seen_files: set[str] = set()
        # rel -> {definition name -> [cursor, ...]}, for rule 3.
        self.defs: dict[str, dict[str, list]] = {}
        # rel -> identifiers referenced inside LDLA_* annotation macros.
        self.annotation_refs: dict[str, set[str]] = {}
        # Deferred mutex fields: (rel, line, field name).
        self.mutex_fields: list[tuple[str, int, str]] = []

    # -- helpers ------------------------------------------------------------

    def _rel(self, location) -> str | None:
        """Project-relative path for a cursor location, None if external."""
        if location is None or location.file is None:
            return None
        path = pathlib.Path(os.path.realpath(location.file.name))
        try:
            rel = path.relative_to(self.root).as_posix()
        except ValueError:
            return None
        if rel.startswith("src/") or rel.startswith("bench/"):
            return rel
        return None

    def _add(self, rel: str, line: int | None, rule: str, message: str):
        f = Finding(rel, line, rule, message)
        self.findings[f.key()] = f

    def _tokens(self, cursor) -> list[str]:
        try:
            return [t.spelling for t in cursor.get_tokens()]
        except Exception:
            return []

    # -- compile database ---------------------------------------------------

    def _commands(self) -> list[tuple[pathlib.Path, list[str]]]:
        try:
            entries = json.loads(self.compdb.read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            raise EngineUnavailable(f"unreadable compile database: {e}") from e
        out = []
        for e in entries:
            directory = pathlib.Path(e.get("directory", "."))
            src = pathlib.Path(e["file"])
            if not src.is_absolute():
                src = directory / src
            src = pathlib.Path(os.path.realpath(src))
            try:
                rel = src.relative_to(self.root).as_posix()
            except ValueError:
                continue
            if not (rel.startswith("src/") or rel.startswith("bench/")):
                continue
            if "arguments" in e:
                argv = list(e["arguments"])
            else:
                argv = shlex.split(e["command"])
            args = self._clean_args(argv, src)
            out.append((src, args))
        if not out:
            raise EngineUnavailable(
                f"{self.compdb} holds no src/ or bench/ entries")
        return out

    @staticmethod
    def _clean_args(argv: list[str], src: pathlib.Path) -> list[str]:
        """Keep include paths/defines/standard flags; drop compiler, output,
        dependency bookkeeping and the input file itself."""
        args: list[str] = []
        skip_next = False
        for a in argv[1:]:
            if skip_next:
                skip_next = False
                continue
            if a in {"-o", "-MF", "-MT", "-MQ"}:
                skip_next = True
                continue
            if a in {"-c", "-MD", "-MMD"} or a == str(src) or \
                    a.endswith(src.name):
                continue
            args.append(a)
        return args

    # -- the walk -----------------------------------------------------------

    def run(self) -> list[Finding]:
        ci = self.ci
        parse_opts = ci.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD
        for src, args in self._commands():
            try:
                tu = self.index.parse(str(src), args=args, options=parse_opts)
            except ci.TranslationUnitLoadError as e:
                raise EngineUnavailable(f"cannot parse {src}: {e}") from e
            fatal = [d for d in tu.diagnostics if d.severity >= 4]
            if fatal:
                raise EngineUnavailable(
                    f"{src}: {fatal[0].spelling} (compile database stale?)")
            self._walk(tu.cursor)
        self._check_mutex_coverage()
        self._check_public_api()
        self._proc_scan_all()
        self._text_fallback_for_unseen()
        return list(self.findings.values())

    def _proc_scan_all(self) -> None:
        """Rule 9 runs on raw text for every file regardless of AST
        coverage: string literals are opaque to the cursor walk."""
        for path in project_sources(self.root, ("src", "bench")):
            rel = path.relative_to(self.root).as_posix()
            tmp: list[Finding] = []
            proc_scan(rel, path.read_text(encoding="utf-8"), tmp)
            for f in tmp:
                self.findings[f.key()] = f

    def _walk(self, cursor) -> None:
        for child in cursor.get_children():
            rel = self._rel(child.location)
            if rel is None:
                continue  # prune: external subtrees contribute nothing
            self.seen_files.add(rel)
            self._visit(child, rel)
            self._walk(child)

    def _visit(self, c, rel: str) -> None:
        ci = self.ci
        kind = c.kind
        line = c.location.line

        if kind == ci.CursorKind.INCLUSION_DIRECTIVE:
            name = c.spelling or ""
            if INTRINSIC_HEADER_RE.search(name) and \
                    rel not in INTRINSIC_ALLOWED:
                self._add(rel, line, "intrinsics-confinement",
                          f"'#include <{name}>' outside the ISA kernel TUs")
            if name == "linux/perf_event.h" and rel not in PERF_EVENT_ALLOWED:
                self._add(rel, line, "perf-event-confinement",
                          f"'#include <{name}>' outside util/perf_counters")
            if name == "atomic" and rel not in ATOMICS_ALLOWED:
                self._add(rel, line, "atomics-confinement",
                          "'#include <atomic>' outside the litmus-gated "
                          "concurrency files")
            if name == "sys/mman.h" and \
                    rel not in MMAP_ALLOWED | MADVISE_ALLOWED:
                self._add(rel, line, "mmap-confinement",
                          f"'#include <{name}>' outside io/shard_store.cpp "
                          "(the store owns the mapping lifecycle)")
            return

        if kind == ci.CursorKind.MACRO_INSTANTIATION:
            if c.spelling in ANNOTATION_REF_RES:
                refs = self.annotation_refs.setdefault(rel, set())
                refs.update(t for t in self._tokens(c)
                            if re.match(r"^[A-Za-z_]\w*$", t))
            return

        spelling = c.spelling or ""
        type_spelling = ""
        try:
            if c.type is not None:
                type_spelling = c.type.spelling or ""
        except Exception:
            pass

        # Rule 1: intrinsics as calls/refs or vector types.
        if rel not in INTRINSIC_ALLOWED:
            if kind in (ci.CursorKind.CALL_EXPR, ci.CursorKind.DECL_REF_EXPR) \
                    and INTRINSIC_NAME_RE.match(spelling):
                self._add(rel, line, "intrinsics-confinement",
                          f"'{spelling}' outside the ISA kernel TUs")
            elif INTRINSIC_TYPE_RE.search(type_spelling) and kind in (
                    ci.CursorKind.VAR_DECL, ci.CursorKind.FIELD_DECL,
                    ci.CursorKind.PARM_DECL):
                self._add(rel, line, "intrinsics-confinement",
                          f"'{type_spelling}' outside the ISA kernel TUs")

        # Rule 2: real new/delete expressions and allocator calls.
        if rel not in ALLOC_ALLOWED:
            if kind == ci.CursorKind.CXX_NEW_EXPR:
                self._add(rel, line, "no-naked-allocation",
                          "'new' outside util/aligned_buffer")
            elif kind == ci.CursorKind.CXX_DELETE_EXPR:
                self._add(rel, line, "no-naked-allocation",
                          "'delete' outside util/aligned_buffer")
            elif kind == ci.CursorKind.CALL_EXPR and \
                    spelling in ALLOC_FUNCTIONS:
                self._add(rel, line, "no-naked-allocation",
                          f"'{spelling}' outside util/aligned_buffer")

        # Rule 4: perf_event ABI surface.
        if rel not in PERF_EVENT_ALLOWED and \
                PERF_EVENT_NAMES_RE.match(spelling):
            self._add(rel, line, "perf-event-confinement",
                      f"'{spelling}' outside util/perf_counters")

        # Rule 8: mapping syscalls stay inside the shard store.
        if rel not in MMAP_ALLOWED and kind in (
                ci.CursorKind.CALL_EXPR, ci.CursorKind.DECL_REF_EXPR) and \
                MMAP_NAMES_RE.match(spelling) and \
                not (rel in MADVISE_ALLOWED and spelling == "madvise"):
            self._add(rel, line, "mmap-confinement",
                      f"'{spelling}' outside io/shard_store.cpp "
                      "(the store owns the mapping lifecycle)")

        # Rule 5: atomics.
        if rel not in ATOMICS_ALLOWED:
            if "std::atomic" in type_spelling and kind in (
                    ci.CursorKind.VAR_DECL, ci.CursorKind.FIELD_DECL,
                    ci.CursorKind.PARM_DECL):
                self._add(rel, line, "atomics-confinement",
                          f"'{type_spelling}' outside the litmus-gated "
                          "concurrency files")
            elif kind in (ci.CursorKind.DECL_REF_EXPR,
                          ci.CursorKind.CALL_EXPR) and \
                    ATOMIC_NAME_RE.match(spelling):
                self._add(rel, line, "atomics-confinement",
                          f"'{spelling}' outside the litmus-gated "
                          "concurrency files")

        # Rule 6: raw native sync primitives; annotated-mutex fields are
        # recorded for the post-walk coverage check.
        if rel not in RAW_SYNC_ALLOWED and kind in (
                ci.CursorKind.VAR_DECL, ci.CursorKind.FIELD_DECL):
            if re.search(r"\bstd::(mutex|condition_variable\w*|lock_guard|"
                         r"unique_lock|scoped_lock)\b", type_spelling):
                self._add(rel, line, "lock-annotation-freshness",
                          f"'{type_spelling}' outside util/sync.hpp "
                          "(use the annotated ldla::Mutex)")
        if kind == ci.CursorKind.FIELD_DECL and \
                re.search(r"(^|::)Mutex$", type_spelling):
            self.mutex_fields.append((rel, line, spelling))

        # Rule 7: thread construction.
        if rel not in THREAD_ALLOWED:
            if kind in (ci.CursorKind.VAR_DECL, ci.CursorKind.FIELD_DECL) and \
                    re.search(r"\bstd::j?thread\b", type_spelling):
                self._add(rel, line, "thread-confinement",
                          f"'{type_spelling}' outside util/thread_pool "
                          "(library code parallelizes through the pool)")
            elif kind == ci.CursorKind.CALL_EXPR and \
                    spelling == "pthread_create":
                self._add(rel, line, "thread-confinement",
                          "'pthread_create' outside util/thread_pool "
                          "(library code parallelizes through the pool)")

        # Rule 3 inventory: every function definition in a manifest file.
        if kind in (ci.CursorKind.FUNCTION_DECL, ci.CursorKind.CXX_METHOD,
                    ci.CursorKind.CONSTRUCTOR,
                    ci.CursorKind.FUNCTION_TEMPLATE) and c.is_definition():
            name = spelling
            parent = c.semantic_parent
            if parent is not None and parent.kind in (
                    ci.CursorKind.CLASS_DECL, ci.CursorKind.STRUCT_DECL,
                    ci.CursorKind.CLASS_TEMPLATE):
                name = f"{parent.spelling}::{spelling}"
            self.defs.setdefault(rel, {}).setdefault(name, []).append(c)

    # -- post-walk checks ---------------------------------------------------

    def _check_mutex_coverage(self) -> None:
        for rel, line, name in self.mutex_fields:
            refs = self.annotation_refs.get(rel, set())
            if name not in refs:
                self._add(rel, line, "lock-annotation-freshness",
                          f"Mutex '{name}' is referenced by no "
                          "LDLA_GUARDED_BY / LDLA_REQUIRES / LDLA_EXCLUDES "
                          "annotation, so -Wthread-safety cannot check it")

    def _body_has_guard(self, cursor, tokens: tuple[str, ...]) -> bool:
        toks = set(self._tokens(cursor))
        return any(t in toks for t in tokens)

    def _callees(self, cursor) -> set[str]:
        ci = self.ci
        out: set[str] = set()

        def rec(c):
            for ch in c.get_children():
                if ch.kind == ci.CursorKind.CALL_EXPR:
                    ref = ch.referenced
                    out.add((ref.spelling if ref is not None else None)
                            or ch.spelling or "")
                rec(ch)

        rec(cursor)
        return out - {""}

    def _check_public_api(self) -> None:
        for rel, entries in sorted(PUBLIC_API.items()):
            if not (self.root / rel).is_file():
                self._add(rel, None, "public-api-guards",
                          "manifest file missing (update PUBLIC_API in "
                          f"tools/lint_ldla.py{suggest(rel, self.defs)})")
                continue
            file_defs = self.defs.get(rel, {})
            for name, kind in entries:
                overloads = file_defs.get(name)
                if not overloads:
                    self._add(rel, None, "public-api-guards",
                              f"entry point '{name}' not found (update "
                              "PUBLIC_API in tools/lint_ldla.py"
                              f"{suggest(name, file_defs)})")
                    continue
                tokens = GUARD_TOKENS[kind]
                ok = False
                for cursor in overloads:
                    if self._body_has_guard(cursor, tokens):
                        ok = True
                        break
                    # One level of indirection through a same-file helper.
                    for callee in self._callees(cursor):
                        for helper in file_defs.get(callee, []):
                            if self._body_has_guard(helper, tokens):
                                ok = True
                                break
                        # Anonymous-namespace helpers register unqualified.
                        if not ok and "::" in callee:
                            short = callee.split("::")[-1]
                            for helper in file_defs.get(short, []):
                                if self._body_has_guard(helper, tokens):
                                    ok = True
                                    break
                        if ok:
                            break
                    if ok:
                        break
                if not ok:
                    self._add(rel, None, "public-api-guards",
                              f"'{name}' has no {' / '.join(tokens)} guard "
                              "(directly or via a same-file helper)")

    def _text_fallback_for_unseen(self) -> None:
        """Headers no TU includes never reach the AST walk; scan them with
        the text engine so a dead-but-committed file cannot hide findings."""
        text = TextEngine(self.root)
        for path in project_sources(self.root, ("src", "bench")):
            rel = path.relative_to(self.root).as_posix()
            if rel in self.seen_files:
                continue
            code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
            tmp: list[Finding] = []
            text._scan_pattern(rel, code, INTRINSIC_RE, INTRINSIC_ALLOWED,
                               "intrinsics-confinement",
                               "the ISA kernel TUs", tmp)
            text._scan_pattern(rel, code, ALLOC_RE, ALLOC_ALLOWED,
                               "no-naked-allocation", "util/aligned_buffer",
                               tmp,
                               preprocess=lambda l: DELETED_MEMBER_RE.sub("", l))
            text._scan_pattern(rel, code, PERF_EVENT_RE, PERF_EVENT_ALLOWED,
                               "perf-event-confinement",
                               "util/perf_counters", tmp)
            mmap_scan(rel, code, tmp)
            text._scan_pattern(rel, code, ATOMIC_RE, ATOMICS_ALLOWED,
                               "atomics-confinement",
                               "the litmus-gated concurrency files", tmp)
            text._scan_pattern(rel, code, RAW_SYNC_RE, RAW_SYNC_ALLOWED,
                               "lock-annotation-freshness",
                               "util/sync.hpp (use the annotated "
                               "ldla::Mutex)", tmp)
            text._scan_pattern(rel, code, THREAD_RE, THREAD_ALLOWED,
                               "thread-confinement",
                               "util/thread_pool (library code "
                               "parallelizes through the pool)", tmp)
            tmp += text._mutex_coverage(rel, code)
            for f in tmp:
                self.findings[f.key()] = f


# =============================================================================
# Driver.
# =============================================================================


def build_engine(engine: str, root: pathlib.Path, compdb: str | None):
    if engine == "text":
        return TextEngine(root)
    if engine == "ast":
        return AstEngine(root, compdb)
    # auto
    try:
        return AstEngine(root, compdb)
    except EngineUnavailable as e:
        print(f"lint_ldla: ast engine unavailable ({e}); "
              "falling back to the text engine", file=sys.stderr)
        return TextEngine(root)


def report(findings: list[Finding], engine_name: str, github: bool,
           extra: str = "") -> int:
    findings = sorted(findings, key=Finding.key)
    for f in findings:
        print(f)
        if github:
            print(f.github())
    if findings:
        print(f"lint_ldla: {len(findings)} finding(s) [engine={engine_name}]",
              file=sys.stderr)
        return 1
    print(f"lint_ldla: clean [engine={engine_name}] "
          f"({sum(len(v) for v in PUBLIC_API.values())} guarded entry "
          f"points{extra})")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None,
                    help="repository root (default: parent of this script)")
    ap.add_argument("--engine",
                    choices=["auto", "ast", "text", "both"],
                    default=os.environ.get("LINT_LDLA_ENGINE", "auto"),
                    help="auto = ast when libclang+compdb exist, else text")
    ap.add_argument("--compdb", default=None,
                    help="compile_commands.json for the ast engine "
                         "(default: newest under <root>/build/*/)")
    ap.add_argument("--github", action="store_true",
                    help="also emit GitHub ::error annotations")
    args = ap.parse_args()

    root = (pathlib.Path(args.root).resolve() if args.root
            else pathlib.Path(__file__).resolve().parent.parent)
    if not (root / "src").is_dir():
        print(f"lint_ldla: no src/ under {root}", file=sys.stderr)
        return 2

    if args.engine == "both":
        # Compatibility gate: the engines must agree on rules 1-4 verdicts.
        try:
            ast_engine = AstEngine(root, args.compdb)
        except EngineUnavailable as e:
            print(f"lint_ldla: SKIP --engine both ({e})", file=sys.stderr)
            return 77
        ast_findings = ast_engine.run()
        text_findings = TextEngine(root).run()
        compat_rules = {"intrinsics-confinement", "no-naked-allocation",
                        "public-api-guards", "perf-event-confinement",
                        "mmap-confinement", "proc-confinement"}

        def verdicts(fs):
            return {(f.file, f.rule) for f in fs if f.rule in compat_rules}

        mismatch = verdicts(ast_findings) ^ verdicts(text_findings)
        rc = report(ast_findings, "ast+text", args.github)
        if mismatch:
            for file, rule in sorted(mismatch):
                print(f"lint_ldla: engine disagreement on {file} [{rule}]",
                      file=sys.stderr)
            return 1
        return rc

    try:
        engine = build_engine(args.engine, root, args.compdb)
    except EngineUnavailable as e:
        # Explicitly requested ast engine but it cannot run here: signal
        # "skipped" (ctest SKIP_RETURN_CODE), not failure.
        print(f"lint_ldla: SKIP --engine ast ({e})", file=sys.stderr)
        return 77

    try:
        findings = engine.run()
    except EngineUnavailable as e:
        print(f"lint_ldla: SKIP ({e})", file=sys.stderr)
        return 77
    return report(findings, engine.name, args.github)


if __name__ == "__main__":
    sys.exit(main())
