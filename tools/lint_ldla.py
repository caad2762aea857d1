#!/usr/bin/env python3
"""Repo-invariant lint for ldla.

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

  (Rule 4, perf-event confinement, retired with the hardware-counter
  layer it confined; the other rules keep their numbers.)

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
     destructor), never through ad-hoc threads or background daemons that
     can leak past their scope. (std::thread::hardware_concurrency() is a query, not a spawn,
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
     src/util/cpu_info.cpp (topology probing): parsing kernel text
     interfaces is brittle, so every procfs read lives behind that one
     audited probe. This rule scans RAW source text (the shared strip pass blanks string
     literals, which is exactly where the paths live).

The rules run as regular expressions over comment- and string-stripped
sources (rule 9 over raw text), with no dependencies beyond the standard
library, so every preset's ctest and the CI lint job run the same check.

Usage:  python3 tools/lint_ldla.py [--root R] [--github]
Exit status 0 = clean, 1 = findings, 2 = usage/config error.
"""

from __future__ import annotations

import argparse
import difflib
import pathlib
import re
import sys
from typing import Iterable

# --- rule 1: intrinsics confinement -----------------------------------------

INTRINSIC_RE = re.compile(
    r"(_mm\d*_\w+|__m(?:128|256|512)\w*|#\s*include\s*<\w*intrin\.h>)"
)

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

# `Foo(const Foo&) = delete;` / `= default;` are declarations, not heap
# traffic — blank them before the allocation scan.
DELETED_MEMBER_RE = re.compile(r"=\s*(?:delete|default)\b")

ALLOC_ALLOWED = {
    "src/util/aligned_buffer.hpp",
    "src/util/aligned_buffer.cpp",
}

# --- rule 5: atomics confinement ----------------------------------------------

ATOMIC_RE = re.compile(
    r"(\bstd::atomic\w*\b|\bstd::memory_order\w*\b|\batomic_thread_fence\b|"
    r"#\s*include\s*<atomic>)"
)

ATOMICS_ALLOWED = {
    # The Chase–Lev deque: every ordering here is gated by tests/litmus.
    "src/util/work_steal.hpp",
    # Pool bookkeeping (pending-task counter, submission claims) documented
    # against the deque protocol and stress-tested under TSan.
    "src/util/thread_pool.hpp",
    "src/util/thread_pool.cpp",
    # Per-thread span slots (phase self-time, session event buffers) and
    # the session flags; its counters live in the registry.
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
# Mutex *members* follow the member naming convention (trailing '_' or
# 'g_' prefix for globals); locals are exempt because GUARDED_BY cannot
# attach to them.
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
}

# --- rule 8: mmap confinement --------------------------------------------------

MMAP_RE = re.compile(
    r"(\bmmap\s*\(|\bmunmap\s*\(|\bmadvise\s*\(|\bmincore\s*\(|"
    r"\bpread\s*\(|#\s*include\s*<sys/mman\.h>)"
)

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
    # Topology/cache probing.
    "src/util/cpu_info.cpp",
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
    "src/core/bit_transpose.cpp": [
        ("transpose_bits", "expect"),
        ("transpose_bits_into", "expect"),
        ("transpose_groups_into", "expect"),
    ],
    "src/core/gemm/macro.cpp": [
        ("gemm_count_fused", "expect"),
        ("syrk_count_fused", "expect"),
    ],
    "src/core/gemm/syrk.cpp": [("syrk_count_packed", "expect")],
    "src/core/gemm/packing.cpp": [("pack_panel", "expect")],
    "src/core/gemm/config.cpp": [("resolve_plan", "expect")],
    "src/core/gemm/dispatch.cpp": [
        ("kernel_for_plan", "expect"),
        ("kernel_info", "expect"),
    ],
    "src/core/gemm/sparse.cpp": [
        ("classify_sparse_columns", "expect"),
        ("extract_sparse_lists", "expect"),
        ("build_sparse_columns", "expect"),
    ],
    "src/core/gemm/packed_bit_matrix.cpp": [
        ("PackedBitMatrix::PackedBitMatrix", "expect"),
        ("expect_packed_matches", "expect"),
        ("unpack_packed", "expect"),
        ("sample_major_from_slivers", "expect"),
    ],
    "src/core/ld.cpp": [
        ("LdOperand::LdOperand", "expect"),
        ("ld_cross_matrix", "expect"),
        ("ld_stat_scan", "expect"),
        ("ld_cross_stat_scan", "expect"),
    ],
    "src/core/band.cpp": [("ld_band_scan", "expect")],
    "src/core/ld_blocks.cpp": [("find_ld_blocks", "expect")],
    "src/core/missing.cpp": [("LdOperand::LdOperand", "expect")],
    "src/core/tanimoto.cpp": [
        ("tanimoto_cross_matrix", "expect"),
        ("tanimoto_top_k", "expect"),
    ],
    "src/core/fsm.cpp": [("fsm_t_matrix", "expect")],
    "src/core/genotype_ld.cpp": [
        ("extract_dosage_planes", "expect"),
        ("LdOperand::LdOperand", "expect"),
    ],
    "src/core/higher_order.cpp": [("third_order_d", "expect")],
    "src/omega/omega_stat.cpp": [("omega_at_split", "expect")],
    "src/omega/sweep_scan.cpp": [("omega_scan", "expect")],
    "src/util/partition.cpp": [
        ("split_uniform", "expect"),
        ("split_triangle_rows", "expect"),
    ],
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
    "src/util/metrics.cpp": [("dump_json", "expect")],
}

GUARD_TOKENS = {
    "expect": ("LDLA_EXPECT",),
    "parse": ("ParseError", "LDLA_EXPECT"),
}


class Finding:
    """One lint violation."""

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


def _in_number(text: str, i: int) -> bool:
    """True when the quote at text[i] sits inside a numeric literal: the
    token it continues starts with a digit (u8'x' and L'x' do not)."""
    j = i
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "'_."):
        j -= 1
    return j < i and text[j].isdigit() and i + 1 < len(text) and \
        text[i + 1].isalnum()


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
        elif c == "'" and _in_number(text, i):
            out.append(c)  # digit separator (0x7FF4'0000), not a literal
            i += 1
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
    """Rule 9 on RAW (unstripped) text."""
    if rel in PROC_ALLOWED:
        return
    for lineno, line in enumerate(raw.splitlines(), 1):
        if PROC_RE.search(line):
            findings.append(Finding(
                rel, lineno, "proc-confinement",
                "procfs path literal outside the audited probe "
                "(util/cpu_info)"))


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
# Rules (regex over stripped sources; zero dependencies).
# =============================================================================


class Linter:
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
        # Rules 1/2/8 keep their original src/-only scope; the concurrency
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
# Driver.
# =============================================================================


def report(findings: list[Finding], github: bool) -> int:
    findings = sorted(findings, key=Finding.key)
    for f in findings:
        print(f)
        if github:
            print(f.github())
    if findings:
        print(f"lint_ldla: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"lint_ldla: clean "
          f"({sum(len(v) for v in PUBLIC_API.values())} guarded entry "
          f"points)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None,
                    help="repository root (default: parent of this script)")
    ap.add_argument("--github", action="store_true",
                    help="also emit GitHub ::error annotations")
    args = ap.parse_args()

    root = (pathlib.Path(args.root).resolve() if args.root
            else pathlib.Path(__file__).resolve().parent.parent)
    if not (root / "src").is_dir():
        print(f"lint_ldla: no src/ under {root}", file=sys.stderr)
        return 2

    return report(Linter(root).run(), args.github)


if __name__ == "__main__":
    sys.exit(main())
