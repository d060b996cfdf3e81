#!/usr/bin/env python3
"""Dependency-free custom linter for the Sturgeon repository.

Registered as a ctest test (`lint.sturgeon`) so `ctest` fails on any
violation. Checks are deliberately conservative -- every rule is either
mechanical (pragma once, include order) or bans a call that has a strictly
better replacement in this codebase (Rng over std::rand, log.h over printf,
containers/smart pointers over raw new/delete).

Rules:
  SL001  header file missing `#pragma once`
  SL002  banned call: std::rand/srand (use util/rng.h), printf/puts to
         stdout (use util/log.h or fprintf/snprintf with explicit streams)
  SL003  raw `new` / `delete` expression (use containers or smart pointers)
  SL004  include-order hygiene: within a contiguous include block, <...>
         includes must precede "..." includes, and each group must be
         alphabetically sorted
  SL005  TODO/FIXME without an issue reference (write `TODO(#123): ...`)
  SL006  `using namespace` at file scope in a header
  SL007  determinism: wall-clock/entropy sources and implementation-
         defined hashes banned in src/ (std::random_device, time(),
         clock(), std::chrono::system_clock, std::hash); use an
         injectable clock, util/rng.h derive_seed streams or stable_hash
  SL008  determinism: std::unordered_map/unordered_set in exporter /
         recorder / report / search files in src/ where iteration order
         can reach output (bit-identity hazard); use std::map or sort a
         snapshot, or waive with `// lint: unordered-ok(<reason>)`
  SL009  every mutex member in src/ must state what it guards: raw
         std::mutex/std::shared_mutex members are rejected (use the
         annotated sturgeon::Mutex from
         util/thread_annotations.h), and each annotated mutex must have
         at least one STURGEON_GUARDED_BY(<mutex>) field in the same
         file or an explicit `// lint: unguarded(<reason>)` waiver on
         (or directly above) its declaration

Run locally:  python3 tools/lint.py [--root .] [--list-rules] [--self-test]
Exit status:  0 clean, 1 violations found, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SOURCE_DIRS = ("src", "tests", "bench", "examples", "tools")
HEADER_SUFFIXES = {".h", ".hpp"}
CXX_SUFFIXES = {".h", ".hpp", ".cc", ".cpp", ".cxx"}

BANNED_CALLS = (
    # (regex on comment/string-stripped code, message)
    (re.compile(r"\bstd::rand\b|\bsrand\s*\("),
     "std::rand/srand banned: use util/rng.h (seedable, reproducible)"),
    (re.compile(r"(?<![\w:])(?:std::)?printf\s*\(|(?<![\w:])puts\s*\("),
     "printf/puts banned: use util/log.h (or fprintf/snprintf with an "
     "explicit stream)"),
)

RAW_NEW_RE = re.compile(r"(?<![\w_])new\s+[A-Za-z_:<]")
RAW_DELETE_RE = re.compile(r"(?<![\w_])delete(\s*\[\s*\])?\s+[A-Za-z_:*(]")
TODO_RE = re.compile(r"\b(TODO|FIXME)\b(?!\(#\d+\))")
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\s+[\w:]+\s*;")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(<[^>]+>|"[^"]+")')

# SL007: entropy / wall-clock sources that break bit-identical replay.
# `time(`/`clock(` must not be part of a longer identifier or a member
# call (epoch_time(), ctx.clock() stay legal).
NONDETERMINISM_RES = (
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device banned in src/: seeds must flow from util/rng.h "
     "derive_seed so runs replay bit-identically"),
    (re.compile(r"(?<![\w.:])(?:std::)?time\s*\("),
     "time() banned in src/: wall-clock must come from an injectable "
     "clock (telemetry::Tracer::Clock pattern)"),
    (re.compile(r"(?<![\w.:])(?:std::)?clock\s*\("),
     "clock() banned in src/: wall-clock must come from an injectable "
     "clock (telemetry::Tracer::Clock pattern)"),
    (re.compile(r"\bstd::chrono::system_clock\b"),
     "std::chrono::system_clock banned in src/: use steady_clock behind "
     "an injectable clock; wall-clock timestamps break bit-identity"),
    (re.compile(r"\bstd::hash\b"),
     "std::hash banned in src/: its values are implementation-defined, so "
     "a seed or digest built on it changes with the standard library; "
     "use util/rng.h stable_hash"),
)

# SL008 applies where iteration order plausibly reaches program output.
ORDER_SENSITIVE_FILE_RE = re.compile(r"(export|recorder|report|search)")
UNORDERED_RE = re.compile(r"\bstd::unordered_(map|set)\b")
UNORDERED_WAIVER_RE = re.compile(r"lint:\s*unordered-ok\([^)]+\)")

# SL009: one declaration regex catches raw std mutexes (rejected) and
# annotated sturgeon wrappers (must guard something or carry a waiver).
# `\s+\w+\s*;` keeps MutexLock/CondVar locals and parameters out.
MUTEX_MEMBER_RE = re.compile(
    r"\b(?P<type>std::mutex|std::shared_mutex|std::recursive_mutex|"
    r"(?:sturgeon::)?(?:Shared)?Mutex)\s+(?P<name>[A-Za-z_]\w*)\s*;")
GUARDED_BY_RE_TEMPLATE = \
    r"STURGEON(?:_PT)?_GUARDED_BY\(\s*(?:&?\s*)?{name}\s*\)"
UNGUARDED_WAIVER_RE = re.compile(r"lint:\s*unguarded\([^)]+\)")

# Files exempt from SL009: the annotation layer itself wraps the raw std
# types by definition.
SL009_EXEMPT = {Path("src/util/thread_annotations.h")}


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line breaks.

    A lexer-lite pass: good enough for banned-token scans without false
    positives from documentation or log messages.
    """
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":  # line comment
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":  # block comment
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c in "\"'":  # string / char literal
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.violations: list[tuple[Path, int, str, str]] = []

    def report(self, path: Path, line: int, rule: str, msg: str) -> None:
        self.violations.append((path.relative_to(self.root), line, rule, msg))

    # -- rules ------------------------------------------------------------

    def check_pragma_once(self, path: Path, text: str) -> None:
        if path.suffix not in HEADER_SUFFIXES:
            return
        for lineno, line in enumerate(text.splitlines(), 1):
            if line.strip() == "#pragma once":
                return
        self.report(path, 1, "SL001", "header is missing `#pragma once`")

    def check_banned_calls(self, path: Path, stripped: str) -> None:
        for lineno, line in enumerate(stripped.splitlines(), 1):
            for pattern, msg in BANNED_CALLS:
                if pattern.search(line):
                    self.report(path, lineno, "SL002", msg)
            if RAW_NEW_RE.search(line) or RAW_DELETE_RE.search(line):
                self.report(
                    path, lineno, "SL003",
                    "raw new/delete banned: use containers or smart pointers")

    def check_include_order(self, path: Path, text: str) -> None:
        lines = text.splitlines()
        block: list[tuple[int, str]] = []  # (lineno, include spec)
        for lineno, line in enumerate(lines + [""], 1):
            m = INCLUDE_RE.match(line)
            if m:
                block.append((lineno, m.group(1)))
                continue
            if block:
                self._check_include_block(path, block)
                block = []

    def _check_include_block(self, path: Path,
                             block: list[tuple[int, str]]) -> None:
        # Within one contiguous block: system includes first, then project
        # includes, each group sorted. Blocks are separated by blank lines,
        # so the conventional own-header / system / project grouping is
        # expressible and only intra-block disorder is flagged.
        seen_quoted = False
        prev_system: str | None = None
        prev_quoted: str | None = None
        for lineno, spec in block:
            if spec.startswith("<"):
                if seen_quoted:
                    self.report(
                        path, lineno, "SL004",
                        f"system include {spec} after project includes in "
                        "the same block (separate groups with a blank line)")
                elif prev_system is not None and spec < prev_system:
                    self.report(
                        path, lineno, "SL004",
                        f"system include {spec} not sorted (after "
                        f"{prev_system})")
                prev_system = spec if prev_system is None \
                    else max(prev_system, spec)
            else:
                seen_quoted = True
                if prev_quoted is not None and spec < prev_quoted:
                    self.report(
                        path, lineno, "SL004",
                        f"project include {spec} not sorted (after "
                        f"{prev_quoted})")
                prev_quoted = spec if prev_quoted is None \
                    else max(prev_quoted, spec)

    def check_todo_hygiene(self, path: Path, text: str) -> None:
        for lineno, line in enumerate(text.splitlines(), 1):
            if TODO_RE.search(line):
                self.report(
                    path, lineno, "SL005",
                    "TODO/FIXME without an issue reference: write "
                    "`TODO(#123): ...`")

    def check_using_namespace(self, path: Path, stripped: str) -> None:
        if path.suffix not in HEADER_SUFFIXES:
            return
        for lineno, line in enumerate(stripped.splitlines(), 1):
            if USING_NAMESPACE_RE.match(line):
                self.report(
                    path, lineno, "SL006",
                    "`using namespace` in a header leaks into every "
                    "includer")

    # -- determinism & concurrency rules (lint v2) ------------------------

    @staticmethod
    def _in_src(rel: Path) -> bool:
        return rel.parts[:1] == ("src",)

    @staticmethod
    def _waived(pattern: re.Pattern, lines: list[str], lineno: int) -> bool:
        """Waiver comment on the flagged line or the line directly above."""
        here = lines[lineno - 1] if lineno - 1 < len(lines) else ""
        above = lines[lineno - 2] if lineno >= 2 else ""
        return bool(pattern.search(here) or pattern.search(above))

    def check_nondeterminism(self, path: Path, rel: Path,
                             stripped: str) -> None:
        if not self._in_src(rel):
            return
        for lineno, line in enumerate(stripped.splitlines(), 1):
            for pattern, msg in NONDETERMINISM_RES:
                if pattern.search(line):
                    self.report(path, lineno, "SL007", msg)

    def check_unordered_output(self, path: Path, rel: Path, stripped: str,
                               original_lines: list[str]) -> None:
        if not self._in_src(rel):
            return
        if not ORDER_SENSITIVE_FILE_RE.search(path.name):
            return
        for lineno, line in enumerate(stripped.splitlines(), 1):
            if UNORDERED_RE.search(line) and not self._waived(
                    UNORDERED_WAIVER_RE, original_lines, lineno):
                self.report(
                    path, lineno, "SL008",
                    "unordered container in an order-sensitive file: "
                    "iteration order may reach output (bit-identity "
                    "hazard); use std::map / a sorted snapshot, or waive "
                    "with `// lint: unordered-ok(<reason>)`")

    def check_mutex_guards(self, path: Path, rel: Path, stripped: str,
                           original_lines: list[str]) -> None:
        if not self._in_src(rel) or rel in SL009_EXEMPT:
            return
        for lineno, line in enumerate(stripped.splitlines(), 1):
            for m in MUTEX_MEMBER_RE.finditer(line):
                name, mtype = m.group("name"), m.group("type")
                waived = self._waived(UNGUARDED_WAIVER_RE, original_lines,
                                      lineno)
                if mtype.startswith("std::"):
                    if not waived:
                        self.report(
                            path, lineno, "SL009",
                            f"raw {mtype} member `{name}`: use the "
                            "annotated sturgeon::Mutex from "
                            "util/thread_annotations.h so the analyze "
                            "build can check the lock discipline")
                    continue
                if waived:
                    continue
                guard_re = re.compile(
                    GUARDED_BY_RE_TEMPLATE.format(name=re.escape(name)))
                if not guard_re.search(stripped):
                    self.report(
                        path, lineno, "SL009",
                        f"mutex `{name}` guards no field: annotate what it "
                        f"protects with STURGEON_GUARDED_BY({name}) or "
                        "waive with `// lint: unguarded(<reason>)`")

    # -- driver -----------------------------------------------------------

    def lint_file(self, path: Path) -> None:
        if path == Path(__file__).resolve():
            return  # the rule docs here would trip the TODO check
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            self.report(path, 1, "SL000", f"unreadable: {e}")
            return
        if path.suffix in CXX_SUFFIXES:
            rel = path.relative_to(self.root)
            original_lines = text.splitlines()
            stripped = strip_comments_and_strings(text)
            self.check_pragma_once(path, text)
            self.check_banned_calls(path, stripped)
            self.check_include_order(path, text)
            self.check_using_namespace(path, stripped)
            self.check_nondeterminism(path, rel, stripped)
            self.check_unordered_output(path, rel, stripped, original_lines)
            self.check_mutex_guards(path, rel, stripped, original_lines)
        self.check_todo_hygiene(path, text)

    def run(self) -> int:
        files: list[Path] = []
        for d in SOURCE_DIRS:
            base = self.root / d
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*")):
                if path.suffix in CXX_SUFFIXES | {".py"} and path.is_file():
                    files.append(path)
        for path in files:
            self.lint_file(path)
        if self.violations:
            for path, line, rule, msg in self.violations:
                print(f"{path}:{line}: [{rule}] {msg}")
            print(f"\nlint.py: {len(self.violations)} violation(s) in "
                  f"{len(files)} files")
            return 1
        print(f"lint.py: OK ({len(files)} files clean)")
        return 0


# -- self-test fixtures ---------------------------------------------------
#
# Each fixture is (relative path, file content, expected rule ids). The
# self-test materializes them in a temp tree, runs the Linter, and checks
# that exactly the expected rules fire on exactly these files -- both the
# positive (violation detected) and negative (clean code, waiver paths
# honored) directions for every rule, with full coverage for the
# determinism/concurrency rules SL007-SL009.
SELF_TEST_FIXTURES: list[tuple[str, str, list[str]]] = [
    # legacy rules: one positive + one negative anchor each
    ("src/f/missing_pragma.h", "int bad_header();\n", ["SL001"]),
    ("src/f/banned_calls.cpp",
     '#pragma GCC diagnostic ignored "-w"\n'
     "void f() { printf(\"x\"); }\n"
     "int g() { return std::rand(); }\n",
     ["SL002", "SL002"]),
    ("src/f/raw_new.cpp", "int* f() { return new int(3); }\n", ["SL003"]),
    ("src/f/include_order.cpp",
     "#include <vector>\n#include <atomic>\n", ["SL004"]),
    ("src/f/todo.cpp", "// T" "ODO: no issue ref\n", ["SL005"]),
    ("src/f/using_ns.h",
     "#pragma once\nusing namespace std;\n", ["SL006"]),
    ("src/f/clean.cpp",
     "#include <atomic>\n#include <vector>\n\n"
     "#include \"util/rng.h\"\n"
     "int f() { return 0; }\n", []),
    # SL007: every banned source fires; lookalikes and tests/ stay legal
    ("src/f/wallclock.cpp",
     "#include <chrono>\n"
     "unsigned f() { std::random_device rd; return rd(); }\n"
     "long g() { return time(nullptr); }\n"
     "long h() { return std::clock(); }\n"
     "auto i() { return std::chrono::system_clock::now(); }\n",
     ["SL007", "SL007", "SL007", "SL007"]),
    ("src/f/wallclock_ok.cpp",
     "#include <chrono>\n"
     "#include <functional>\n"
     "struct Ctx { std::function<long()> clock_; };\n"
     "long epoch_time(int t) { return t; }\n"
     "auto f() { return std::chrono::steady_clock::now(); }\n"
     "long g(Ctx& c) { return c.clock_() + epoch_time(1); }\n",
     []),
    ("tests/f/wallclock_in_test.cpp",
     "long f() { return time(nullptr); }\n", []),
    # SL007: std::hash fires in src/; stable_hash and the unordered
    # containers (whose default hasher it is, left to SL008) stay legal
    ("src/f/name_seed.cpp",
     "#include <functional>\n"
     "#include <string>\n"
     "auto f(const std::string& s) { return std::hash<std::string>{}(s); }\n",
     ["SL007"]),
    ("src/f/name_seed_ok.cpp",
     "#include <string>\n"
     "#include <unordered_map>\n\n"
     "#include \"util/rng.h\"\n"
     "std::unordered_map<std::string, int> g_index;\n"
     "auto f(const std::string& s) { return sturgeon::stable_hash(s); }\n",
     []),
    # SL008: order-sensitive file names flag unordered containers; the
    # waiver comment and order-insensitive files stay clean
    ("src/f/rollup_export.cpp",
     "#include <unordered_map>\n"
     "std::unordered_map<int, int> g_rows;\n", ["SL008"]),
    ("src/f/result_report.cpp",
     "#include <unordered_set>\n"
     "// lint: unordered-ok(drained into a std::set before printing)\n"
     "std::unordered_set<int> g_seen;\n", []),
    ("src/f/plain_model.cpp",
     "#include <unordered_map>\n"
     "std::unordered_map<int, int> g_weights;\n", []),
    # SL009: raw std mutexes rejected; annotated mutexes must guard a
    # field or carry the unguarded() waiver (same line or line above)
    ("src/f/raw_mutex.cpp",
     "#include <mutex>\n"
     "struct S { std::mutex mu_; int x = 0; };\n", ["SL009"]),
    ("src/f/unguarded_mutex.cpp",
     "#include \"util/thread_annotations.h\"\n"
     "struct S { sturgeon::Mutex mu_; int x = 0; };\n", ["SL009"]),
    ("src/f/guarded_mutex.cpp",
     "#include \"util/thread_annotations.h\"\n"
     "struct S {\n"
     "  sturgeon::Mutex mu_;\n"
     "  int x STURGEON_GUARDED_BY(mu_) = 0;\n"
     "};\n", []),
    ("src/f/shared_guarded_mutex.cpp",
     "#include \"util/thread_annotations.h\"\n"
     "struct S {\n"
     "  sturgeon::SharedMutex mu_;\n"
     "  int x STURGEON_GUARDED_BY(mu_) = 0;\n"
     "};\n", []),
    ("src/f/waived_mutex.cpp",
     "#include \"util/thread_annotations.h\"\n"
     "struct S {\n"
     "  sturgeon::Mutex mu_;  // lint: unguarded(guards stderr, no fields)\n"
     "};\n"
     "// lint: unguarded(protects an external resource)\n"
     "struct T { sturgeon::Mutex mu_; };\n", []),
    ("src/f/mutex_locals_ok.cpp",
     "#include \"util/thread_annotations.h\"\n"
     "struct S {\n"
     "  sturgeon::Mutex mu_;\n"
     "  int x STURGEON_GUARDED_BY(mu_) = 0;\n"
     "  int get() { sturgeon::MutexLock lock(mu_); return x; }\n"
     "};\n", []),
]


def run_self_test() -> int:
    import shutil
    import tempfile

    tmp = Path(tempfile.mkdtemp(prefix="sturgeon_lint_selftest_"))
    try:
        for relpath, content, _ in SELF_TEST_FIXTURES:
            dest = tmp / relpath
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text(content, encoding="utf-8")
        linter = Linter(tmp)
        for relpath, _, _ in SELF_TEST_FIXTURES:
            linter.lint_file(tmp / relpath)
        got: dict[str, list[str]] = {}
        for path, _, rule, _ in linter.violations:
            got.setdefault(str(path), []).append(rule)
        failures = []
        for relpath, _, expected in SELF_TEST_FIXTURES:
            actual = sorted(got.pop(relpath, []))
            if actual != sorted(expected):
                failures.append(
                    f"{relpath}: expected {sorted(expected)}, got {actual}")
        for relpath, rules in got.items():
            failures.append(f"{relpath}: unexpected findings {rules}")
        if failures:
            print("lint.py --self-test FAILED:")
            for f in failures:
                print(f"  {f}")
            return 1
        print(f"lint.py --self-test: OK "
              f"({len(SELF_TEST_FIXTURES)} fixtures)")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="run the linter's own fixture suite and exit")
    args = parser.parse_args()
    if args.list_rules:
        print(__doc__)
        return 0
    if args.self_test:
        return run_self_test()
    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"lint.py: no such directory: {root}", file=sys.stderr)
        return 2
    return Linter(root).run()


if __name__ == "__main__":
    sys.exit(main())
