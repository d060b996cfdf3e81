#!/usr/bin/env python3
"""Compare perfbench results of a parent commit and a change.

    python3 tools/bench_diff.py --parent P1.json ... --change C1.json ... \
        [--claim METRIC]
    python3 tools/bench_diff.py --self-test

Each file is a report.json that `python3 perfbench/run.py --workload W
--seed S --trace T` writes under .bench_build/out/W-seedS-traceT/ (copy
it away after each run: the next run of the same workload, seed and
trace mode overwrites it). Give the same number of parent and change
reports, all of one workload, seed and trace mode; parent i and change i
form pair i.

Checks, each of which makes the exit status non-zero:
  - every report passed perfbench's correctness checks;
  - every episode (or, traced, every variant) of every report has the
    same simulation digest;
  - the simulation's statistics (the report's raw "stats", which hold the
    simulated end-to-end metrics qos_rate, be_throughput and
    peak_power_ratio) are identical in every report;
  - untraced (--trace 0): no host metric's change median is worse than
    the parent's median by more than its BENCHMARK.json bound, unless
    the metric is unresolved;
  - traced (--trace 1): every per-layer metric whose BENCHMARK.json unit
    is "count" or "calls/decide" has one value in every report, and so
    does the report's raw "calls". Timing layers are printed without a
    verdict.

For each end-to-end metric it prints both sides' median and quartiles,
the relative change of the median, how many pairs the change won (ties
count for neither side) and the bound. A host metric is "unresolved"
when the parent's interquartile range, relative to its median, exceeds
the bound -- unless every change run is better than every parent run.

--claim METRIC applies the rule for claiming a gain to an untraced
end-to-end metric: the change wins at least nine tenths of the pairs
and the medians differ, in the better direction, by more than the
parent's interquartile range. The exit status is non-zero when the
claim is not met.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import tempfile
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Per-layer units that count work, so a bit-identical change repeats them.
DETERMINISTIC_UNITS = ("count", "calls/decide")


class InputError(Exception):
    """Reports that cannot be compared at all."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def digests(report: dict) -> list[str]:
    raw = report["raw"]
    return ([e["digest"] for e in raw.get("episodes", [])] +
            [v["digest"] for v in raw.get("variants", [])])


def compare(parent: list[dict], change: list[dict], spec: dict,
            claim: str | None = None) -> tuple[list[str], bool]:
    """Returns the printed lines and whether every check passed."""
    if not parent or len(parent) != len(change):
        raise InputError(f"need N parent and N change reports, got "
                         f"{len(parent)} and {len(change)}")
    reports = parent + change
    shapes = {(r["raw"]["workload"], r["raw"]["seed"]) for r in reports}
    if len(shapes) != 1:
        raise InputError(f"reports differ in workload or seed: "
                         f"{sorted(shapes)}")
    modes = {bool(r["raw"].get("trace")) for r in reports}
    if len(modes) != 1:
        raise InputError("reports mix --trace 0 and --trace 1 runs")
    traced = modes.pop()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    if claim is not None and (traced or claim not in bounds):
        raise InputError(f"--claim {claim}: not an end-to-end metric of "
                         "--trace 0 reports")

    workload, seed = shapes.pop()
    lines = [f"bench_diff: workload {workload}, seed {seed}, "
             f"trace {int(traced)}, {len(parent)} pairs"]
    ok = True

    def fail(msg: str) -> None:
        nonlocal ok
        ok = False
        lines.append(f"  FAILED: {msg}")

    for side, group in (("parent", parent), ("change", change)):
        for i, r in enumerate(group):
            if r.get("failures"):
                fail(f"{side} report {i + 1} failed perfbench checks: "
                     f"{r['failures']}")
    seen = sorted({d for r in reports for d in digests(r)})
    runs = sum(len(digests(r)) for r in reports)
    if len(seen) == 1:
        lines.append(f"  simulation digest {seen[0]} in all {runs} runs")
    else:
        fail(f"simulation digests differ: {seen}")
    stats0 = parent[0]["raw"]["stats"]
    for side, group in (("parent", parent), ("change", change)):
        for i, r in enumerate(group):
            st = r["raw"]["stats"]
            for key in sorted(set(stats0) | set(st)):
                if st.get(key) != stats0.get(key):
                    fail(f"simulated statistic {key}: parent report 1 has "
                         f"{stats0.get(key)!r}, {side} report {i + 1} "
                         f"has {st.get(key)!r}")

    if traced:
        layer_rows(parent, change, spec, lines, fail)
        lines.append(f"bench_diff: {'OK' if ok else 'FAILED'}")
        return lines, ok

    lines.append(f"  {'metric':<22} {'parent median [q1, q3]':>32} "
                 f"{'change median [q1, q3]':>32} {'change':>8} "
                 f"{'wins':>6} {'bound':>6}  verdict")
    for name, m in bounds.items():
        if not all(name in r["metrics"] for r in reports):
            fail(f"{name} missing from a report")
            continue
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        sign = 1.0 if m["better"] == "higher" else -1.0
        p1, pm, p3 = quartiles(p)
        c1, cm, c3 = quartiles(c)
        wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        rel = (cm - pm) / abs(pm) if pm else 0.0
        if name in stats0:
            verdict = "identical" if len(set(p + c)) == 1 else "DIFFERS"
        elif (p3 - p1) > m["bound"] * abs(pm) and not \
                min(sign * x for x in c) > max(sign * x for x in p):
            verdict = "unresolved (parent IQR > bound)"
        elif -sign * rel > m["bound"]:
            verdict = "WORSE than bound"
            fail(f"{name}: change median {cm:.6g} is {abs(rel):.1%} worse "
                 f"than the parent's {pm:.6g} (bound {m['bound']:.0%})")
        elif sign * rel > 0:
            verdict = "better"
        elif rel == 0:
            verdict = "same"
        else:
            verdict = "worse, within bound"
        lines.append(f"  {name:<22} {pm:>11.5g} [{p1:>8.5g}, {p3:>8.5g}] "
                     f"{cm:>11.5g} [{c1:>8.5g}, {c3:>8.5g}] {rel:>+8.1%} "
                     f"{wins:>3}/{len(p):<2} {m['bound']:>6.1%}  {verdict}")
        if name == claim:
            gap = sign * (cm - pm)
            need = -(-9 * len(p) // 10)  # nine tenths, rounded up
            met = wins >= need and gap > p3 - p1
            lines.append(f"  claim {name}: change wins {wins}/{len(p)} "
                         f"(need {need}), median gap {gap:.6g} vs parent "
                         f"IQR {p3 - p1:.6g}: {'met' if met else 'NOT met'}")
            if not met:
                ok = False
    lines.append(f"bench_diff: {'OK' if ok else 'FAILED'}")
    return lines, ok


def layer_rows(parent: list[dict], change: list[dict], spec: dict,
               lines: list[str], fail) -> None:
    """Per-layer rows of traced reports: work counts and the run's call
    counts must repeat exactly; timings are printed without a verdict."""
    reports = parent + change
    lines.append(f"  {'layer':<32} {'unit':<14} {'parent median':>14} "
                 f"{'change median':>14} {'change':>8}  verdict")
    for m in spec["per_layer"]:
        name = m["name"]
        if not all(name in r["metrics"] for r in reports):
            fail(f"{name} missing from a report")
            continue
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pm, cm = statistics.median(p), statistics.median(c)
        rel = (cm - pm) / abs(pm) if pm else 0.0
        verdict = ""
        if m["unit"] in DETERMINISTIC_UNITS:
            verdict = "identical" if len(set(p + c)) == 1 else "DIFFERS"
            if verdict == "DIFFERS":
                fail(f"{name}: work count differs: parent {p}, change {c}")
        lines.append(f"  {name:<32} {m['unit']:<14} {pm:>14.6g} "
                     f"{cm:>14.6g} {rel:>+8.1%}  {verdict}".rstrip())
    calls0 = parent[0]["raw"]["calls"]
    for side, group in (("parent", parent), ("change", change)):
        for i, r in enumerate(group):
            if r["raw"]["calls"] != calls0:
                fail(f"calls in the run: parent report 1 has {calls0}, "
                     f"{side} report {i + 1} has {r['raw']['calls']}")
    lines.append(f"  calls in the run: {json.dumps(calls0)}")


def load(paths: list[str]) -> list[dict]:
    out = []
    for p in paths:
        try:
            out.append(json.loads(Path(p).read_text()))
        except (OSError, ValueError) as e:
            raise InputError(f"{p}: {e}") from e
    return out


def run(parent: list[str], change: list[str], claim: str | None) -> int:
    try:
        spec = json.loads(BENCHMARK.read_text())
        lines, ok = compare(load(parent), load(change), spec, claim)
    except (InputError, OSError, ValueError, KeyError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0 if ok else 1


# -- self-test ------------------------------------------------------------

def synthetic(spec: dict, host: dict[str, float], digest: str = "ab" * 8,
              qos: float = 0.97) -> dict:
    """A trace-0 report with the given host metric values."""
    stats = {"ls_completed": 1000, "qos_rate": qos, "be_throughput": 0.5,
             "peak_power_ratio": 0.9}
    metrics = {}
    for m in spec["end_to_end"]:
        value = stats.get(m["name"], host.get(m["name"], 1.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"context": {}, "metrics": metrics, "failures": [],
            "raw": {"workload": "pairs", "seed": 5, "trace": False,
                    "episodes": [{"digest": digest}] * 3, "stats": stats}}


def synthetic_traced(spec: dict, timing: float = 1.0,
                     count: float = 42.0) -> dict:
    """A trace-1 report: every count layer reads `count`, every other
    layer `timing`."""
    stats = {"ls_completed": 1000, "qos_rate": 0.97, "be_throughput": 0.5,
             "peak_power_ratio": 0.9}
    metrics = {m["name"]: {"value": count if m["unit"] in
                           DETERMINISTIC_UNITS else timing,
                           "unit": m["unit"]}
               for m in spec["per_layer"]}
    return {"context": {}, "metrics": metrics, "failures": [],
            "raw": {"workload": "pairs", "seed": 5, "trace": True,
                    "variants": [{"name": "traced", "digest": "ab" * 8}],
                    "stats": stats, "layers": metrics,
                    "calls": {"node_steps": 4320, "decides": 4320}}}


def self_test() -> int:
    spec = json.loads(BENCHMARK.read_text())
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"  [{'pass' if ok else 'FAIL'}] {what}")
        if not ok:
            problems.append(what)

    def rate(values: list[float]) -> list[dict]:
        return [synthetic(spec, {"node_epochs_per_cpu_s": v})
                for v in values]

    def verdict(lines: list[str], name: str) -> str:
        row = next(ln for ln in lines if ln.split()[:1] == [name])
        return row.split("  ")[-1].strip()

    base = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 99.5, 101.5, 98.5, 100.0]
    faster = [v * 1.5 for v in base]
    faster[3] = 90.0  # the change loses one pair of ten
    lines, ok = compare(rate(base), rate(faster), spec,
                        "node_epochs_per_cpu_s")
    expect(ok, "identical digests and a faster change pass")
    expect(verdict(lines, "node_epochs_per_cpu_s") == "better",
           "a faster change reads 'better'")
    expect(any("wins 9/10" in ln and ln.endswith(": met") for ln in lines),
           "9 of 10 wins with a wide gap meets the claim")
    expect(verdict(lines, "qos_rate") == "identical",
           "an equal simulated metric reads 'identical'")

    faster[4] = 90.0  # a second loss
    lines, ok = compare(rate(base), rate(faster), spec,
                        "node_epochs_per_cpu_s")
    expect(not ok and any("NOT met" in ln for ln in lines),
           "8 of 10 wins does not meet the claim")

    slower = [v * 0.7 for v in base]
    lines, ok = compare(rate(base), rate(slower), spec)
    expect(not ok and verdict(lines, "node_epochs_per_cpu_s") ==
           "WORSE than bound", "a 30% slowdown past a 25% bound fails")

    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 80.0]
    lines, ok = compare(rate(noisy), rate([v * 0.8 for v in noisy]), spec)
    expect(ok and verdict(lines, "node_epochs_per_cpu_s").startswith(
        "unresolved"), "a parent IQR wider than the bound is unresolved")
    lines, ok = compare(rate(noisy), rate([1000.0] * 10), spec)
    expect(verdict(lines, "node_epochs_per_cpu_s") == "better",
           "every change run better than every parent run resolves noise")

    flipped = rate(base)
    flipped[7]["raw"]["episodes"] = [{"digest": "cd" * 8}]
    expect(not compare(rate(base), flipped, spec)[1],
           "one differing episode digest fails")
    moved = [synthetic(spec, {}, qos=0.96)] + rate(base[1:])
    lines, ok = compare(rate(base), moved, spec)
    expect(not ok and verdict(lines, "qos_rate") == "DIFFERS",
           "a changed simulated metric fails")
    failed = rate(base)
    failed[0]["failures"] = ["max cap-sum ratio 1.01 > 1"]
    expect(not compare(failed, rate(base), spec)[1],
           "a report that failed perfbench's checks fails")

    for what, p, c in (("unequal counts", rate(base), rate(base[:9])),
                       ("mixed seeds", rate(base), rate(base))):
        if what == "mixed seeds":
            c[0]["raw"]["seed"] = 6
        try:
            compare(p, c, spec)
            expect(False, f"{what} are rejected")
        except InputError:
            expect(True, f"{what} are rejected")

    # Traced reports: counts repeat exactly, timings carry no verdict.
    traced_p = [synthetic_traced(spec, timing=t) for t in (1.0, 1.1, 0.9)]
    traced_c = [synthetic_traced(spec, timing=t) for t in (2.0, 0.5, 1.3)]
    lines, ok = compare(traced_p, traced_c, spec)
    expect(ok, "traced reports with equal counts and new timings pass")
    expect(verdict(lines, "sim.ls_queries") == "identical" and
           verdict(lines, "core.model_calls_per_decide") == "identical",
           "equal count and calls/decide layers read 'identical'")
    expect(verdict(lines, "core.predict_ns").endswith("%"),
           "a timing layer is printed without a verdict")
    one_off = [synthetic_traced(spec) for _ in range(3)]
    one_off[2]["metrics"]["core.searches"]["value"] = 43.0
    lines, ok = compare(traced_p, one_off, spec)
    expect(not ok and verdict(lines, "core.searches") == "DIFFERS",
           "one differing per-layer count fails")
    calls = [synthetic_traced(spec) for _ in range(3)]
    calls[1]["raw"]["calls"]["decides"] = 4319
    expect(not compare(traced_p, calls, spec)[1],
           "a differing call count in the run fails")
    for what, p, c, claim in (
            ("mixed trace modes", rate(base[:3]), traced_c, None),
            ("claims on traced reports", traced_p, traced_c,
             "node_epochs_per_cpu_s")):
        try:
            compare(p, c, spec, claim)
            expect(False, f"{what} are rejected")
        except InputError:
            expect(True, f"{what} are rejected")

    # The command line: files in, exit status out (its output discarded).
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        paths = {}
        for side, group in (("p", rate(base)), ("c", rate(faster))):
            paths[side] = []
            for i, r in enumerate(group):
                path = Path(tmp) / f"{side}{i}.json"
                path.write_text(json.dumps(r))
                paths[side].append(str(path))
        status = (run(paths["p"], paths["c"], None),
                  run(paths["p"], paths["c"], "node_epochs_per_cpu_s"),
                  run(paths["p"], [str(Path(tmp) / "absent.json")] * 10,
                      None))
    expect(status[0] == 0, "the command line exits 0 on a clean comparison")
    expect(status[1] == 1, "the command line exits 1 on an unmet claim")
    expect(status[2] == 2, "the command line exits 2 on an unreadable report")
    print(f"bench_diff self-test: {'OK' if not problems else 'FAILED'}")
    return 0 if not problems else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--claim", metavar="METRIC")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        parser.error("--parent and --change are required")
    return run(args.parent, args.change, args.claim)


if __name__ == "__main__":
    sys.exit(main())
