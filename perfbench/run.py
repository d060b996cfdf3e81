#!/usr/bin/env python3
"""Sturgeon repository benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload pairs|lockstep-chaos|diurnal-10k \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The script builds perfbench/ (the library
from src/ plus the harness in perfbench/src) with CMake into the
directory named by $CARGO_TARGET_DIR (default .bench_build), runs the
perfbench binary, checks its outputs and prints the metrics. The last
line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

--trace 0 reports the end-to-end metrics (every decide() is timed by the
benchmark's Policy decorator, but no spans are kept); --trace 1 is a
separate run of the same workload and seed that keeps spans in memory,
writes them out as JSONL at the end, replays the determinism variants
and probes each layer, and reports the per-layer metrics. BENCHMARK.json
at the repository root lists every metric, its unit and its bound.

An operation is one LS query the simulated fleet completed; all of a
run's operations count as failed when any correctness check fails.
Exit status: 0 with a result line; non-zero without one when the
program cannot be built or run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("pairs", "lockstep-chaos", "diurnal-10k")

# (name, unit) in report order; BENCHMARK.json carries the same lists.
END_TO_END = (
    ("node_epochs_per_cpu_s", "node-epochs/s"),
    ("decide_us_mean", "us"),
    ("decide_us_p99", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("qos_rate", "fraction"),
    ("be_throughput", "normalized"),
    ("peak_power_ratio", "ratio"),
)

# Layer groups that do no work in a workload's run. Their per-layer
# metrics are still printed: counts read zero, costs come from probing
# the layer's public functions at the workload's shape.
IDLE_LAYERS = {
    "pairs": ("cluster.assign", "cluster.heartbeat", "cluster.dead",
              "comms.", "fleet.", "fault."),
    "lockstep-chaos": ("fleet.",),
    "diurnal-10k": ("comms.", "fault."),
}


def fail_setup(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# -- build ------------------------------------------------------------

def build(root: Path) -> Path:
    """Configure (once) and build perfbench; returns the binary path."""
    if not (root / "src").is_dir() or not (root / "perfbench").is_dir():
        fail_setup(f"{root} is not a Sturgeon source checkout (no src/)")
    if shutil.which("cmake") is None:
        fail_setup("cmake not found")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    with open(log, "a", encoding="utf-8") as out:
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT):
                fail_setup(f"cmake configure failed (see {log})")
        jobs = str(min(os.cpu_count() or 1, 4))
        if subprocess.call(["cmake", "--build", str(build_dir), "-j", jobs],
                           stdout=out, stderr=subprocess.STDOUT):
            fail_setup(f"build failed (see {log})")
    binary = build_dir / "perfbench"
    if not binary.is_file():
        fail_setup(f"no perfbench binary in {build_dir}")
    return binary


# -- one run ------------------------------------------------------------

def run_binary(binary: Path, workload: str, seed: int, seconds: float,
               trace: bool, out_dir: Path,
               tiny: bool = False) -> tuple[dict, float]:
    """Run perfbench; returns (raw result, peak RSS of the child in MB)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", str(out_dir)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, preexec_fn=no_core)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    lines = stdout.decode("utf-8").strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed no result")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def no_core() -> None:
    """An aborting child must not leave a core file in the checkout."""
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


def defect_probe(binary: Path, seed: int) -> str:
    """Run lockstep-chaos with chaos_demo's actuator burst (left out of
    the measured workload because it aborts the node runtime)."""
    proc = subprocess.run(
        [str(binary), "--workload", "lockstep-chaos", "--seed", str(seed),
         "--defect-probe"], capture_output=True, text=True, preexec_fn=no_core)
    if proc.returncode == 0:
        return f"not reproduced on seed {seed}"
    cause = [ln for ln in proc.stderr.splitlines() if "CHECK failed" in ln]
    return (f"REPRODUCED on seed {seed} (exit {proc.returncode}): "
            f"{cause[-1].split(': ', 1)[-1] if cause else 'no message'}")


# -- correctness --------------------------------------------------------

def trace_stats(root: Path, mode: str | None, path: str) -> str | None:
    """Run the repository's JSONL validator; None when it passes."""
    tool = root / "tools" / "trace_stats.py"
    cmd = [sys.executable, str(tool)] + ([mode] if mode else []) + [path]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        return (f"trace_stats.py {mode or ''} {path}: "
                f"{proc.stderr.strip() or proc.stdout.strip()}")
    return None


def check(raw: dict, root: Path) -> list[str]:
    """Every correctness check on one raw result; returns the failures."""
    bad: list[str] = []
    st = raw.get("stats") or {}
    shape = raw["shape"]
    pairs = raw["workload"] == "pairs"

    def need(ok: bool, msg: str) -> None:
        if not ok:
            bad.append(msg)

    # Coordinator contract: caps never oversubscribe the budget.
    need(st.get("max_cap_sum_ratio", 2.0) <= 1.0 + 1e-9,
         f"max cap-sum ratio {st.get('max_cap_sum_ratio')} > 1")
    # Coverage: every node-epoch is stepped or skipped, exactly once.
    expected = shape["nodes"] * shape["epochs"]
    covered = st.get("stepped_node_epochs", -1) + st.get(
        "skipped_node_epochs", -1)
    need(covered == expected,
         f"stepped + skipped = {covered} != nodes x epochs = {expected}")
    if not pairs:
        need(st.get("engine_skipped_node_epochs") ==
             st.get("skipped_node_epochs"),
             "engine skipped count != sum of per-node skipped epochs")
        need(st.get("nodes") == shape["nodes"]
             and st.get("epochs") == shape["epochs"],
             "fleet result size differs from the workload shape")
    # Churn conservation and the grant ledger identity.
    need(st.get("jobs_placed", 0) == st.get("jobs_completed", 0) +
         st.get("jobs_active_at_end", 0),
         "jobs_placed != jobs_completed + jobs_active_at_end")
    need(st.get("grants_sent", 0) == st.get("grants_delivered", 0) +
         st.get("grants_dropped", 0) + st.get("grants_in_flight", 0),
         "grants_sent != delivered + dropped + in_flight")
    # The decorator saw every epoch of every pairs node.
    if pairs and st.get("decorator_seen_completed", -1) >= 0:
        need(st.get("decorator_seen_completed") == st.get("ls_completed"),
             "decorator-observed LS queries != node-counted LS queries")
    need(0.0 < st.get("qos_rate", 0.0) <= 1.0, "qos_rate outside (0, 1]")
    need(st.get("be_throughput", 0.0) > 0.0, "no BE throughput")
    need(st.get("ls_completed", 0) > 0, "no LS query completed")

    # Determinism: same seed, same digest -- across the measured
    # episodes, and across traced / thread-count / undecorated variants.
    digests = [e["digest"] for e in raw.get("episodes", [])]
    digests += [v["digest"] for v in raw.get("variants", [])]
    need(len(digests) >= 2, "fewer than two digests to compare")
    need(len(set(digests)) == 1, f"simulation digests differ: {digests}")
    for e in raw.get("episodes", []):
        need(e["node_epochs"] == expected, "episode node-epochs != shape")

    if raw.get("trace"):
        files = raw.get("files", {})
        need(bool(files.get("spans")), "no span JSONL written")
        if files.get("spans"):
            err = trace_stats(root, None, files["spans"])
            need(err is None, str(err))
        if not pairs:
            need(bool(files.get("rollup")), "no fleet roll-up written")
            if files.get("rollup"):
                err = trace_stats(root, "--fleet", files["rollup"])
                need(err is None, str(err))
    return bad


# -- metrics ------------------------------------------------------------

def end_to_end(raw: dict, rss_mb: float) -> dict:
    """Host times: node-epochs per CPU-second of the stepping phase (all
    threads of the process) and the thread CPU time of one decide(); the
    wall-clock figures are printed beside them, unbounded."""
    rates = [e["node_epochs"] / e["cpu_s"] for e in raw["episodes"]]
    st = raw["stats"]
    values = {
        "node_epochs_per_cpu_s": statistics.median(rates),
        "decide_us_mean": raw["decide_us"]["mean"],
        "decide_us_p99": raw["decide_us"]["p99"],
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": rss_mb,
        "qos_rate": st["qos_rate"],
        "be_throughput": st["be_throughput"],
        "peak_power_ratio": st["peak_power_ratio"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def context(root: Path, raw: dict, seed: int) -> dict:
    commit = "unknown (no git metadata in this checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": h.hexdigest()[:16],
        "build_type": raw["build"]["build_type"],
        "compiler": "g++ " + raw["build"]["compiler"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": raw["workload"],
        "seed": seed,
    }


def report(root: Path, binary: Path, args) -> int:
    out_dir = binary.parent / "out" / (
        f"{args.workload}-seed{args.seed}-trace{int(args.trace)}")
    raw, rss_mb = run_binary(binary, args.workload, args.seed, args.seconds,
                             args.trace, out_dir, tiny=args.tiny)
    failures = check(raw, root)
    correct = not failures
    if args.trace:
        metrics = raw["layers"]
        operations = int(raw["stats"]["ls_completed"])
    else:
        metrics = end_to_end(raw, rss_mb)
        operations = int(raw["stats"]["ls_completed"]) * len(raw["episodes"])

    ctx = context(root, raw, args.seed)
    tag = ", ".join(f"{k}={v}" for k, v in ctx.items())
    print(f"perfbench: {tag}")
    idle = IDLE_LAYERS[args.workload] if args.trace else ()
    for name, m in metrics.items():
        note = ""
        if any(name.startswith(p) for p in idle):
            note = "  [layer idle in this workload]"
        print(f"  {name:<32} {m['value']:>16.6g} {m['unit']:<14}{note}")
    st = raw["stats"]
    print(f"  (power_overshoot_frac {st['power_overshoot_frac']:.6g}, "
          f"LS queries missing QoS {int(st['ls_violations'])} of "
          f"{int(st['ls_completed'])} per episode)")
    if not args.trace:
        d = raw["decide_us"]
        wall = statistics.median(e["node_epochs"] / e["run_s"]
                                 for e in raw["episodes"])
        print(f"  (decide() samples {int(d['samples'])}, CPU p50 "
              f"{d['p50']:.1f} us, wall-clock p50/p99 "
              f"{d['wall_p50']:.1f}/{d['wall_p99']:.1f} us; "
              f"wall-clock {wall:.6g} node-epochs/s; episodes "
              f"{len(raw['episodes'])}, setups {len(raw['setup_s'])})")
    else:
        print(f"  (calls in the run: {json.dumps(raw['calls'])})")
    if args.trace and args.workload == "lockstep-chaos" and not args.tiny:
        print("  known defect, actuator-burst probe: "
              f"{defect_probe(binary, args.seed)}")
    for f in failures:
        print(f"  CHECK FAILED: {f}")
    (out_dir / "report.json").write_text(json.dumps(
        {"context": ctx, "metrics": metrics, "failures": failures,
         "raw": raw}, indent=1))
    print(json.dumps({"context": ctx}))
    print(json.dumps({
        "correct": correct,
        "attempted": operations,
        "failed": 0 if correct else operations,
        "metrics": metrics,
    }))
    return 0


# -- self-test ------------------------------------------------------------

def self_test(root: Path, binary: Path) -> int:
    """Tiny sizes of every workload must print every metric with its
    unit and pass every check; tampered results must fail them."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"  [{'pass' if ok else 'FAIL'}] {what}")
        if not ok:
            problems.append(what)

    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json names the three workloads")
    expect(e2e_units == dict(END_TO_END),
           "BENCHMARK.json end-to-end metrics match the harness")
    with tempfile.TemporaryDirectory(dir=binary.parent) as tmp:
        good = {}
        for w in WORKLOADS:
            for trace in (False, True):
                raw, rss = run_binary(binary, w, 7, 0.2, trace,
                                      Path(tmp) / f"{w}-{int(trace)}",
                                      tiny=True)
                fails = check(raw, root)
                expect(not fails, f"{w} trace={int(trace)} passes every "
                       f"check {fails if fails else ''}")
                metrics = raw["layers"] if trace else end_to_end(raw, rss)
                units = layer_units if trace else e2e_units
                got = {k: v["unit"] for k, v in metrics.items()}
                expect(got == units, f"{w} trace={int(trace)} prints every "
                       "named metric with its unit")
                expect(all(isinstance(v["value"], (int, float))
                           for v in metrics.values()),
                       f"{w} trace={int(trace)} metric values are numbers")
                good[(w, trace)] = raw

        def tampered(key, edit, what):
            raw = json.loads(json.dumps(good[key]))
            edit(raw)
            expect(bool(check(raw, root)), f"tampered {what} fails the check")

        def flip_digest(raw):
            d = raw["episodes"][-1]["digest"]
            raw["episodes"][-1]["digest"] = ("0" if d[0] != "0" else "1") + d[1:]

        tampered(("pairs", False), flip_digest, "episode digest")
        tampered(("lockstep-chaos", True),
                 lambda r: r["variants"][2].update(digest="0" * 16),
                 "thread-variant digest")
        tampered(("diurnal-10k", False),
                 lambda r: r["stats"].update(
                     jobs_completed=r["stats"]["jobs_completed"] + 1),
                 "job conservation")
        tampered(("lockstep-chaos", False),
                 lambda r: r["stats"].update(max_cap_sum_ratio=1.01),
                 "cap-sum ratio")
        tampered(("lockstep-chaos", False),
                 lambda r: r["stats"].update(
                     grants_delivered=r["stats"]["grants_delivered"] - 1),
                 "grant ledger")
        tampered(("diurnal-10k", False),
                 lambda r: r["stats"].update(
                     skipped_node_epochs=r["stats"]["skipped_node_epochs"] + 1),
                 "stepped + skipped coverage")

        # A span that outlives its parent must fail trace_stats.py.
        raw = json.loads(json.dumps(good[("pairs", True)]))
        spans = Path(raw["files"]["spans"])
        lines = spans.read_text().splitlines()
        for i, line in enumerate(lines):
            obj = json.loads(line)
            if obj.get("name") == "policy.decide":
                obj["dur_us"] += 10**9
                lines[i] = json.dumps(obj)
                break
        spans.write_text("\n".join(lines) + "\n")
        expect(bool(check(raw, root)), "tampered span JSONL fails the check")

        # A fleet roll-up whose node lines no longer add up must fail
        # trace_stats.py --fleet.
        raw = json.loads(json.dumps(good[("diurnal-10k", True)]))
        rollup = Path(raw["files"]["rollup"])
        lines = rollup.read_text().splitlines()
        first = json.loads(lines[0])
        first["skipped_epochs"] += 1
        lines[0] = json.dumps(first)
        rollup.write_text("\n".join(lines) + "\n")
        expect(bool(check(raw, root)), "tampered fleet roll-up fails the check")

    # Informational: the program defect that keeps chaos_demo's actuator
    # burst out of lockstep-chaos (seed 2 reproduced it when the
    # benchmark was defined). Not a harness check.
    print(f"  [info] known defect, actuator-burst probe: "
          f"{defect_probe(binary, 2)}")
    print(f"perfbench self-test: {'OK' if not problems else 'FAILED'}")
    return 0 if not problems else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (not a benchmark result)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    root = BENCH_DIR.parent
    binary = build(root)
    if args.self_test:
        return self_test(root, binary)
    if args.workload is None:
        parser.error("--workload is required")
    args.trace = bool(args.trace)
    try:
        return report(root, binary, args)
    except (RuntimeError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
