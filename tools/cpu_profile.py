#!/usr/bin/env python3
"""Sampling CPU profiler for any program built from this repository.

    python3 tools/cpu_profile.py [--through NAME]... [--top N] \\
        -- PROGRAM [ARGS...]
    python3 tools/cpu_profile.py --self-test

It needs no perf, gdb or debugger privileges, only `cc`, `nm` and
`readelf`. It builds tools/cpu_profile.c into an LD_PRELOAD library and
runs PROGRAM under it. The library gives each thread its own CPU-time
timer (timer_create on the thread's CPU clock, aimed at that thread),
samples the thread's stack with backtrace() on every SIGPROF, one per
millisecond of the thread's CPU time (the kernel's tick may make that
coarser), and at exit writes the raw stacks and a copy of
/proc/self/maps. The
stacks are then symbolized with `nm` (function symbols, demangled) and
`readelf` (load segments, to turn a runtime address into an ELF
address), and the report prints, per function, its self share (samples
whose innermost frame it is) and its inclusive share (samples with it
anywhere on the stack), and per thread, its share of the samples, so a
change to how work spreads over threads shows its balance (a process's
main thread is listed as `main`).

--through NAME keeps only the samples whose stack has a frame whose
name contains NAME (repeat it to keep the samples through any of them);
the shares are then shares of those samples. Point PROGRAM at a binary,
not at a script that builds one: every process the command starts is
sampled and summed.

Example, the repository benchmark's fleet workload (perfbench builds its
binary with `python3 perfbench/run.py ...` first). The two frames select
the episode's samples: the engine thread runs FleetEpisode::run, and
the pool's workers step nodes through a tail call, so ClusterNode::step
is the outermost named frame on their stacks.

    python3 tools/cpu_profile.py --top 60 --through FleetEpisode::run \\
        --through ClusterNode::step -- .bench_build/perfbench \\
        --workload diurnal-10k --seed 601 --seconds 12 --trace 0 \\
        --out-dir /tmp/prof-out

Stacks are cut at 128 frames. Inlined functions are charged to the
function they were inlined into. Every thread the program starts gets
its timer from a wrapped pthread_create, so its stacks end in
cpu_profile_thread_start. Because each thread has its own timer, the
samples per CPU-second do not depend on how many threads burn CPU at
once, and sample totals of runs with different concurrency compare
(on a 4-vCPU VM the kernel's 250 Hz tick caps the rate at 250 samples
per CPU-second). --self-test profiles small programs it builds: one
with a known hot function, one whose two threads split the work 9:1,
and one with four busy threads, run as is and pinned to one CPU, whose
samples per CPU-second must agree within 10%.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import os
import resource
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

TOOLS = Path(__file__).resolve().parent
SOURCE = TOOLS / "cpu_profile.c"
MAGIC = 0x32666F7270757063  # "cpuprof2"


def build_library(out_dir: Path) -> Path:
    """Compile the sampler into `out_dir`; returns the library path."""
    lib = out_dir / "libcpu_profile.so"
    cmd = ["cc", "-O2", "-fPIC", "-shared", "-Wall", "-Wextra", "-o",
           str(lib), str(SOURCE)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"cpu_profile: building the sampler failed:\n"
                         f"{proc.stderr}")
    return lib


def run_profiled(cmd: list[str], lib: Path, prefix: Path,
                 cpus: set[int] | None = None) -> tuple[int, float]:
    """Run `cmd` with the sampler preloaded, on the CPUs `cpus` if given
    (as `taskset -c` would); returns its exit status and the CPU seconds
    its processes used."""
    env = dict(os.environ)
    env["LD_PRELOAD"] = " ".join(
        p for p in (str(lib), env.get("LD_PRELOAD", "")) if p)
    env["CPU_PROFILE_OUT"] = str(prefix)
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    status = subprocess.call(cmd, env=env, preexec_fn=pin)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (after.ru_utime + after.ru_stime -
             before.ru_utime - before.ru_stime)
    return status, cpu_s


# -- raw samples -------------------------------------------------------

def read_stacks(path: Path) -> tuple[int, int,
                                     list[tuple[int, tuple[int, ...]]]]:
    """(interval in us, dropped samples, (thread id, stack innermost
    first) per sample)."""
    data = path.read_bytes()
    words = struct.unpack(f"<{len(data) // 8}Q", data[: len(data) // 8 * 8])
    if len(words) < 3 or words[0] != MAGIC:
        raise ValueError(f"{path}: not a cpu_profile stacks file of this "
                         "version")
    stacks = []
    i = 3
    while i < len(words):
        depth = words[i]
        if depth == 0:  # a reservation that found no room
            i += 1
            continue
        stacks.append((words[i + 1], tuple(words[i + 2:i + 2 + depth])))
        i += 2 + depth
    return words[1], words[2], stacks


class Mapping:
    def __init__(self, start: int, end: int, offset: int, path: str):
        self.start, self.end, self.offset, self.path = start, end, offset, path


def read_maps(path: Path) -> list[Mapping]:
    maps = []
    for line in path.read_text().splitlines():
        parts = line.split(None, 5)
        if len(parts) < 5:
            continue
        lo, hi = (int(x, 16) for x in parts[0].split("-"))
        name = parts[5].strip() if len(parts) == 6 else ""
        maps.append(Mapping(lo, hi, int(parts[2], 16), name))
    maps.sort(key=lambda m: m.start)
    return maps


# -- symbols -----------------------------------------------------------

class ElfSymbols:
    """Function symbols and load segments of one ELF file."""

    def __init__(self, path: str):
        self.loads: list[tuple[int, int, int]] = []  # (offset, vaddr, size)
        out = subprocess.run(["readelf", "-lW", path], capture_output=True,
                             text=True).stdout
        for line in out.splitlines():
            f = line.split()
            if f and f[0] == "LOAD" and len(f) >= 6:
                self.loads.append((int(f[1], 16), int(f[2], 16),
                                   int(f[5], 16)))
        self.addrs: list[int] = []
        self.ends: list[int] = []
        self.names: list[str] = []
        for dynamic in (False, True):
            cmd = ["nm", "-C", "-n", "-S", "--defined-only"]
            if dynamic:
                cmd.append("-D")
            out = subprocess.run(cmd + [path], capture_output=True,
                                 text=True).stdout
            self._parse_nm(out)
            if self.addrs:
                break

    def _parse_nm(self, out: str) -> None:
        rows = []
        for line in out.splitlines():
            f = line.split(None, 3)
            if len(f) == 4 and f[2] in "tTwWiI" and len(f[2]) == 1:
                addr, size, name = int(f[0], 16), int(f[1], 16), f[3]
            elif len(f) >= 3 and f[1] in "tTwWiI" and len(f[1]) == 1:
                addr, size, name = int(f[0], 16), 0, " ".join(f[2:])
            else:
                continue
            rows.append((addr, size, name))
        rows.sort()
        for addr, size, name in rows:
            if self.addrs and self.addrs[-1] == addr:
                continue  # aliases: keep the first name
            self.addrs.append(addr)
            self.ends.append(addr + size if size else 0)
            self.names.append(name)

    def vaddr(self, file_offset: int) -> int | None:
        for off, vaddr, size in self.loads:
            if off <= file_offset < off + size:
                return file_offset - off + vaddr
        return None

    def lookup(self, vaddr: int) -> str | None:
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        if i < 0 or (self.ends[i] and vaddr >= self.ends[i]):
            return None
        return self.names[i]


def short_name(name: str) -> str:
    """Drop a demangled name's parameter list and trailing qualifiers."""
    s = name.strip().split("@", 1)[0]  # symbol version, e.g. @@GLIBC_2.34
    for suffix in (" const", " &", " &&", " volatile"):
        while s.endswith(suffix):
            s = s[: -len(suffix)]
    if not s.endswith(")"):
        return s
    depth = 0
    for i in range(len(s) - 1, -1, -1):
        if s[i] == ")":
            depth += 1
        elif s[i] == "(":
            depth -= 1
            if depth == 0:
                head = s[:i]
                return head if head and not head.endswith("::") else s
    return s


class Symbolizer:
    def __init__(self, maps: list[Mapping], cache: dict[str, ElfSymbols]):
        self.maps = maps
        self.starts = [m.start for m in maps]
        self.cache = cache
        self.memo: dict[int, str] = {}

    def name(self, addr: int) -> str:
        hit = self.memo.get(addr)
        if hit is not None:
            return hit
        self.memo[addr] = result = self._resolve(addr)
        return result

    def _resolve(self, addr: int) -> str:
        i = bisect.bisect_right(self.starts, addr) - 1
        if i < 0 or addr >= self.maps[i].end:
            return f"[unmapped 0x{addr:x}]"
        m = self.maps[i]
        if not m.path.startswith("/"):
            return m.path or "[anonymous]"
        base = os.path.basename(m.path)
        elf = self.cache.get(m.path)
        if elf is None:
            elf = self.cache[m.path] = ElfSymbols(m.path)
        vaddr = elf.vaddr(addr - m.start + m.offset)
        sym = elf.lookup(vaddr) if vaddr is not None else None
        return short_name(sym) if sym else f"[{base}]"


# -- report ------------------------------------------------------------

class Sample(NamedTuple):
    thread: int        # the sampled thread's id
    frames: list[str]  # symbolized, innermost first


class Profile(NamedTuple):
    samples: list[Sample]
    interval_us: int
    dropped: int
    main_threads: set[int]  # each process's main thread id (its pid)


def load_profile(prefix: Path) -> Profile:
    """Symbolized samples of every process, the sampling interval and
    the dropped count."""
    cache: dict[str, ElfSymbols] = {}
    samples: list[Sample] = []
    main_threads: set[int] = set()
    interval = dropped = 0
    for path in sorted(prefix.parent.glob(prefix.name + ".*.stacks")):
        maps_path = path.with_suffix(".maps")
        if not maps_path.is_file():
            continue
        interval, lost, raw = read_stacks(path)
        dropped += lost
        main_threads.add(int(path.name.split(".")[-2]))
        sym = Symbolizer(read_maps(maps_path), cache)
        for thread, frames in raw:
            # Every frame but the interrupted pc is a return address;
            # look up the call instruction before it.
            samples.append(Sample(thread, [sym.name(a if k == 0 else a - 1)
                                           for k, a in enumerate(frames)]))
    return Profile(samples, interval, dropped, main_threads)


def shares(samples: list[Sample]) -> tuple[collections.Counter,
                                           collections.Counter]:
    self_n: collections.Counter = collections.Counter()
    incl_n: collections.Counter = collections.Counter()
    for s in samples:
        self_n[s.frames[0]] += 1
        incl_n.update(set(s.frames))
    return self_n, incl_n


def through(samples: list[Sample], names: list[str]) -> list[Sample]:
    return [s for s in samples
            if any(n in f for f in s.frames for n in names)]


def report(profile: Profile, cpu_s: float, names: list[str],
           top: int) -> None:
    samples = profile.samples
    total = len(samples)
    hz = 1e6 / profile.interval_us if profile.interval_us else 0
    print(f"cpu_profile: {total} samples over {cpu_s:.2f} CPU-s "
          f"({hz:.0f} Hz asked)"
          f"{f', {profile.dropped} dropped' if profile.dropped else ''}")
    if names:
        samples = through(samples, names)
        pct = 100.0 * len(samples) / total if total else 0.0
        print(f"{len(samples)} of {total} samples ({pct:.1f}%) through "
              + " or ".join(repr(n) for n in names))
    n = len(samples)
    if n == 0:
        return
    print(f"\nper-thread share of these {n} samples:"
          f"\n{'share%':>7} {'samples':>8}  thread")
    threads = collections.Counter(s.thread for s in samples)
    for thread, count in threads.most_common():
        label = "main" if thread in profile.main_threads else str(thread)
        print(f"{100.0 * count / n:7.2f} {count:8d}  {label}")
    self_n, incl_n = shares(samples)
    for title, counts in (("inclusive", incl_n), ("self", self_n)):
        print(f"\ntop {top} by {title} share of these {n} samples:"
              f"\n{'self%':>7} {'incl%':>7} {'samples':>8}  function")
        for name, _ in counts.most_common(top):
            print(f"{100.0 * self_n[name] / n:7.2f} "
                  f"{100.0 * incl_n[name] / n:7.2f} {counts[name]:8d}  "
                  f"{name[:140]}")


# -- self-test ---------------------------------------------------------

SELF_TEST_PROGRAM = r"""
#include <stdint.h>
#include <stdlib.h>

volatile uint64_t sink;

__attribute__((noinline)) uint64_t spin(uint64_t n, uint64_t x) {
  for (uint64_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + i;
    __asm__ volatile("" : "+r"(x));
  }
  return x;
}

__attribute__((noinline)) uint64_t hot_function(uint64_t n) {
  uint64_t x = 1;
  for (uint64_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + i;
    __asm__ volatile("" : "+r"(x));
  }
  return x;
}

__attribute__((noinline)) uint64_t cold_caller(uint64_t n) {
  return spin(n, 7);
}

__attribute__((noinline)) uint64_t driver(uint64_t n) {
  return hot_function(9 * n) + cold_caller(n);
}

int main(int argc, char** argv) {
  sink = driver(argc > 1 ? strtoull(argv[1], 0, 10) : 30000000ull);
  return 0;
}
"""

# Two threads: the main thread does 9 parts of the work, a second one 1.
SELF_TEST_THREADS_PROGRAM = r"""
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>

volatile uint64_t sink;
static uint64_t parts;

__attribute__((noinline)) uint64_t spin(uint64_t n, uint64_t x) {
  for (uint64_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + i;
    __asm__ volatile("" : "+r"(x));
  }
  return x;
}

static void* helper(void* arg) {
  (void)arg;
  sink = spin(parts, 3);
  return 0;
}

int main(int argc, char** argv) {
  parts = argc > 1 ? strtoull(argv[1], 0, 10) : 30000000ull;
  pthread_t t;
  if (pthread_create(&t, 0, helper, 0) != 0) return 1;
  sink = spin(9 * parts, 5);
  pthread_join(t, 0);
  return 0;
}
"""


# Four threads (the main one and three it starts) do equal work, 4 parts
# each.
SELF_TEST_BUSY_PROGRAM = r"""
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>

volatile uint64_t sink;
static uint64_t parts;

__attribute__((noinline)) uint64_t spin(uint64_t n, uint64_t x) {
  for (uint64_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + i;
    __asm__ volatile("" : "+r"(x));
  }
  return x;
}

static void* worker(void* arg) {
  sink = spin(4 * parts, (uint64_t)(uintptr_t)arg);
  return 0;
}

int main(int argc, char** argv) {
  parts = argc > 1 ? strtoull(argv[1], 0, 10) : 30000000ull;
  pthread_t t[3];
  for (int i = 0; i < 3; ++i) {
    if (pthread_create(&t[i], 0, worker, (void*)(uintptr_t)(i + 1)) != 0) {
      return 1;
    }
  }
  sink = spin(4 * parts, 5);
  for (int i = 0; i < 3; ++i) pthread_join(t[i], 0);
  return 0;
}
"""


def self_test() -> int:
    failures: list[str] = []

    def need(ok: bool, msg: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {msg}")
        if not ok:
            failures.append(msg)

    work = Path(tempfile.mkdtemp(prefix="cpu_profile_selftest."))
    try:
        lib = build_library(work)

        def profile(name: str, source: str,
                    cpus: set[int] | None = None) -> tuple[Profile, float]:
            prog, src = work / name, work / f"{name}.c"
            if not prog.exists():
                src.write_text(source)
                subprocess.run(["cc", "-O1", "-fno-inline", "-pthread",
                                "-o", str(prog), str(src)], check=True)
            prefix = work / f"{name}{'.pinned' if cpus else ''}.prof"
            status, cpu_s = run_profiled([str(prog), "40000000"], lib,
                                         prefix, cpus)
            need(status == 0, f"{name}: profiled program exits 0 "
                 f"(got {status})")
            result = load_profile(prefix)
            report(result, cpu_s, [], 6)
            n = len(result.samples)
            need(n >= 50, f"{name}: at least 50 samples (got {n})")
            return result, cpu_s

        stacks = profile("hot", SELF_TEST_PROGRAM)[0].samples
        n = len(stacks)
        if n == 0:
            return 1
        self_n, incl_n = shares(stacks)
        hot = self_n["hot_function"] / n
        cold = self_n["spin"] / n
        # hot_function does 9 parts of the work, spin 1 part.
        need(0.75 <= hot <= 0.97, f"hot_function self share {hot:.3f} "
             "in [0.75, 0.97]")
        need(0.03 <= cold <= 0.25, f"spin self share {cold:.3f} in "
             "[0.03, 0.25]")
        for name in ("driver", "main"):
            share = incl_n[name] / n
            need(share >= 0.95, f"{name} inclusive share {share:.3f} "
                 ">= 0.95 (stacks unwind through the signal frame)")
        cold_stacks = through(stacks, ["cold_caller"])
        c_self, c_incl = shares(cold_stacks)
        m = len(cold_stacks)
        need(m > 0 and abs(m / n - cold) < 0.02,
             f"--through cold_caller keeps the spin samples ({m} of {n})")
        need(m > 0 and c_incl["hot_function"] == 0
             and c_self["spin"] / m >= 0.95,
             "samples through cold_caller are spin's, none hot_function's")

        threaded = profile("threads", SELF_TEST_THREADS_PROGRAM)[0]
        n = len(threaded.samples)
        counts = collections.Counter(s.thread for s in threaded.samples)
        need(len(counts) == 2, f"samples come from 2 threads (got "
             f"{len(counts)})")
        main_n = sum(c for t, c in counts.items()
                     if t in threaded.main_threads)
        helper_n = n - main_n
        # The main thread does 9 parts of the work, the helper 1 part.
        need(n > 0 and 0.75 <= main_n / n <= 0.97,
             f"main thread share {main_n / max(n, 1):.3f} in [0.75, 0.97]")
        need(n > 0 and 0.03 <= helper_n / n <= 0.25,
             f"helper thread share {helper_n / max(n, 1):.3f} in "
             "[0.03, 0.25]")

        # Per-thread timers: four busy threads at once are sampled at the
        # rate of the same work pinned to one CPU.
        rates = []
        for cpus in (None, {0}):
            busy, cpu_s = profile("busy", SELF_TEST_BUSY_PROGRAM, cpus)
            threads = len({s.thread for s in busy.samples})
            need(threads == 4, f"busy{' pinned' if cpus else ''}: samples "
                 f"come from 4 threads (got {threads})")
            rates.append(len(busy.samples) / max(cpu_s, 1e-9))
        ratio = rates[0] / max(rates[1], 1e-9)
        need(0.9 <= ratio <= 1.1,
             f"samples per CPU-s with 4 busy threads {rates[0]:.0f} within "
             f"10% of pinned to one CPU {rates[1]:.0f} (ratio {ratio:.3f})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"cpu_profile self-test: {'FAILED' if failures else 'passed'}")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--through", action="append", default=[],
                    metavar="NAME",
                    help="keep only stacks with a frame containing NAME")
    ap.add_argument("--top", type=int, default=25,
                    help="functions per table (default 25)")
    ap.add_argument("--self-test", action="store_true",
                    help="profile a built-in program and check the shares")
    ap.add_argument("cmd", nargs=argparse.REMAINDER,
                    help="-- PROGRAM [ARGS...]")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.error("no program to profile (put it after --)")
    work = Path(tempfile.mkdtemp(prefix="cpu_profile."))
    try:
        lib = build_library(work)
        prefix = work / "prof"
        status, cpu_s = run_profiled(cmd, lib, prefix)
        result = load_profile(prefix)
        if not result.samples:
            print("cpu_profile: no samples were written", file=sys.stderr)
            return status or 1
        report(result, cpu_s, args.through, args.top)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if status != 0:
        print(f"cpu_profile: the program exited with {status}",
              file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
