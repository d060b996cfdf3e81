#!/usr/bin/env python3
"""Validate a Sturgeon JSONL span trace and print per-phase statistics.

Dependency-free (stdlib json only) so it can run inside ctest on any CI
leg. Checks the contract between the trace and the end-of-run summary:

  - every line is a JSON object of type "span" or "run_summary";
  - span ids are unique and non-zero; parent ids reference a span in the
    file (or 0 for roots);
  - durations are non-negative and every child span lies within its
    parent's [start, start+dur] window;
  - the final line is a single "run_summary" whose span_count and
    per-phase {count, total_us} reconcile with the span lines.

With --cluster the file is instead a cluster roll-up written by
cluster::write_cluster_jsonl: one "run_summary" line per node followed by
one cluster line. Checks:

  - node ids are unique and cover 0..N-1 exactly, with the cluster line
    last and its "nodes" field equal to N;
  - the cluster line's span_count and per-phase {count, total_us} equal
    the sums over the node lines;
  - every node ran the same number of epochs as the cluster;
  - metric ranges are sane (rates in [0, 1], watts and throughput
    non-negative);
  - fault/recovery accounting is coherent: per-node down/hung/safe-mode
    epoch counts fit inside the run, counters are non-negative and zero
    whenever faults_injected is zero, the cluster's dead_node_epochs and
    recovery fields are present, and caps never oversubscribed the
    budget (max_cap_sum_ratio <= 1 + tolerance);
  - comms accounting is coherent (all counters are zero when the run did
    not route traffic through the message channel): per-node lease
    renewals/expiries/autonomy epochs are non-negative with
    autonomy_epochs bounded by the run and last_autonomy_epoch in
    [-1, epochs); the cluster line carries the exact per-node lease
    sums; the grant ledger identity grants_sent == grants_delivered +
    grants_dropped + grants_in_flight holds; and grants are a subset of
    channel traffic (grants_sent <= comms_sent, grants_dropped <=
    comms_dropped, lease_renewals <= grants_sent).

With --fleet the file is a fleet roll-up written by
fleet::write_fleet_jsonl: the cluster roll-up above followed by one
"fleet_summary" line. The cluster checks run with one relaxation -- a
node under quiescence skipping steps fewer epochs than the run, so the
lockstep rule becomes node epochs + skipped_epochs == cluster epochs --
plus the engine and churn contracts:

  - per-node skipped_epochs and wakes are non-negative, and the cluster
    line carries their exact sums;
  - the fleet_summary's nodes/epochs/skipped_epochs/wakes match the
    cluster line, and skipped_fraction == skipped / (nodes * epochs);
  - churn conservation: jobs_submitted == jobs_placed + jobs_rejected +
    jobs_queued_at_end and jobs_placed == jobs_completed +
    jobs_active_at_end, with every counter non-negative and the queue
    peak at least the end-of-run queue depth;
  - "counters", the roll-up of the nodes' counters, is an object whose
    keys are "fleet."-prefixed names in name order and whose values are
    non-negative integers.

Usage: trace_stats.py [--cluster | --fleet] TRACE.jsonl
Exits non-zero with a message on the first violated invariant.
"""
import json
import sys


def fail(msg):
    print(f"trace_stats: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def percentile(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    idx = q * (len(sorted_vals) - 1)
    lo = int(idx)
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = idx - lo
    return sorted_vals[lo] * (1.0 - frac) + sorted_vals[hi] * frac


def read_jsonl(path):
    objs = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                fail(f"line {lineno}: blank line")
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"line {lineno}: invalid JSON: {e}")
            if not isinstance(obj, dict):
                fail(f"line {lineno}: not a JSON object")
            objs.append((lineno, obj))
    return objs


def check_rate(obj, key, where):
    v = obj.get(key)
    if not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
        fail(f"{where}: {key} {v!r} not a rate in [0, 1]")


def check_nonneg(obj, key, where):
    v = obj.get(key)
    if not isinstance(v, (int, float)) or v < 0:
        fail(f"{where}: {key} {v!r} not a non-negative number")


def validate_cluster(lines, fleet=False):
    """Validate cluster::write_cluster_jsonl roll-up lines.

    With fleet=True the lockstep epoch rule is relaxed to
    node epochs + skipped_epochs == cluster epochs, and the per-node
    skipped_epochs/wakes counters are checked and summed against the
    cluster line. Returns the parsed cluster-line object.
    """
    node_lines = []
    cluster = None
    for lineno, obj in lines:
        if obj.get("type") != "run_summary":
            fail(f"line {lineno}: cluster file holds only run_summary "
                 f"lines, got {obj.get('type')!r}")
        if obj.get("cluster") is True:
            if cluster is not None:
                fail(f"line {lineno}: second cluster line")
            cluster = (lineno, obj)
        else:
            if cluster is not None:
                fail(f"line {lineno}: node line after the cluster line")
            node_lines.append((lineno, obj))

    if cluster is None:
        fail("no cluster roll-up line")
    if not node_lines:
        fail("no node lines")
    _, c = cluster

    ids = [obj.get("node") for _, obj in node_lines]
    if sorted(ids) != list(range(len(node_lines))):
        fail(f"node ids {ids} do not cover 0..{len(node_lines) - 1} "
             f"exactly once")
    if c.get("nodes") != len(node_lines):
        fail(f"cluster nodes {c.get('nodes')} != {len(node_lines)} "
             f"node lines")

    # span_count and per-phase totals reconcile against the node sums.
    span_sum = 0
    phase_sums = {}
    skipped_sum = 0
    wakes_sum = 0
    renewals_sum = 0
    expiries_sum = 0
    autonomy_sum = 0
    run_epochs = c.get("epochs", 0)
    for lineno, obj in node_lines:
        where = f"node {obj['node']}"
        if not isinstance(obj.get("span_count"), int):
            fail(f"{where}: missing span_count")
        span_sum += obj["span_count"]
        phases = obj.get("phases")
        if not isinstance(phases, dict):
            fail(f"{where}: missing phases object")
        for name, info in phases.items():
            agg = phase_sums.setdefault(name, {"count": 0, "total_us": 0})
            agg["count"] += info.get("count", 0)
            agg["total_us"] += info.get("total_us", 0)
        if fleet:
            check_nonneg(obj, "skipped_epochs", where)
            check_nonneg(obj, "wakes", where)
            skipped_sum += obj["skipped_epochs"]
            wakes_sum += obj["wakes"]
            covered = obj.get("epochs", 0) + obj["skipped_epochs"]
            if covered != c.get("epochs"):
                fail(f"{where}: epochs {obj.get('epochs')} + skipped "
                     f"{obj['skipped_epochs']} != cluster epochs "
                     f"{c.get('epochs')} (stepped + skipped must cover "
                     f"the run)")
        elif obj.get("epochs") != c.get("epochs"):
            fail(f"{where}: epochs {obj.get('epochs')} != cluster "
                 f"epochs {c.get('epochs')} (lockstep broken)")
        check_rate(obj, "qos_guarantee_rate", where)
        check_nonneg(obj, "be_throughput_norm", where)
        check_nonneg(obj, "budget_w", where)
        check_nonneg(obj, "mean_cap_w", where)
        check_nonneg(obj, "max_power_ratio", where)
        check_nonneg(obj, "throttled_epochs", where)
        for key in ("epochs_down", "epochs_hung", "safe_mode_epochs",
                    "watchdog_trips", "faults_injected", "sensor_rejected",
                    "actuator_retries", "actuator_gave_up"):
            check_nonneg(obj, key, where)
        epochs = obj.get("epochs", 0)
        for key in ("epochs_down", "epochs_hung", "safe_mode_epochs"):
            if obj[key] > epochs:
                fail(f"{where}: {key} {obj[key]} exceeds epochs {epochs}")
        if obj["faults_injected"] == 0:
            for key in ("epochs_down", "epochs_hung"):
                if obj[key] != 0:
                    fail(f"{where}: {key} {obj[key]} nonzero with zero "
                         f"faults_injected")
        # Lease accounting (all zero when comms is disabled). A node is
        # asked for its effective cap at most once per run epoch, so
        # autonomous node-epochs are bounded by the run even under
        # quiescence skipping (where per-node stepped epochs are fewer).
        for key in ("lease_renewals", "lease_expiries", "autonomy_epochs"):
            check_nonneg(obj, key, where)
        renewals_sum += obj["lease_renewals"]
        expiries_sum += obj["lease_expiries"]
        autonomy_sum += obj["autonomy_epochs"]
        if obj["autonomy_epochs"] > run_epochs:
            fail(f"{where}: autonomy_epochs {obj['autonomy_epochs']} "
                 f"exceeds run epochs {run_epochs}")
        last = obj.get("last_autonomy_epoch")
        if not isinstance(last, int) or not -1 <= last < max(run_epochs, 1):
            fail(f"{where}: last_autonomy_epoch {last!r} not in "
                 f"[-1, {run_epochs})")
        if (last == -1) != (obj["autonomy_epochs"] == 0):
            fail(f"{where}: last_autonomy_epoch {last} inconsistent with "
                 f"autonomy_epochs {obj['autonomy_epochs']}")

    if c.get("span_count") != span_sum:
        fail(f"cluster span_count {c.get('span_count')} != node sum "
             f"{span_sum}")
    cphases = c.get("phases")
    if not isinstance(cphases, dict):
        fail("cluster line missing phases object")
    if set(cphases) != set(phase_sums):
        fail(f"cluster phases {sorted(cphases)} != merged node phases "
             f"{sorted(phase_sums)}")
    for name, info in cphases.items():
        agg = phase_sums[name]
        if info.get("count") != agg["count"]:
            fail(f"cluster phase {name}: count {info.get('count')} != "
                 f"node sum {agg['count']}")
        if info.get("total_us") != agg["total_us"]:
            fail(f"cluster phase {name}: total_us {info.get('total_us')} "
                 f"!= node sum {agg['total_us']}")

    if fleet:
        if c.get("skipped_epochs") != skipped_sum:
            fail(f"cluster skipped_epochs {c.get('skipped_epochs')} != "
                 f"node sum {skipped_sum}")
        if c.get("wakes") != wakes_sum:
            fail(f"cluster wakes {c.get('wakes')} != node sum {wakes_sum}")

    if not isinstance(c.get("epochs"), int) or c["epochs"] <= 0:
        fail(f"cluster epochs {c.get('epochs')!r} not a positive integer")
    if not c.get("coordinator"):
        fail("cluster line missing coordinator")
    check_rate(c, "fleet_qos_guarantee_rate", "cluster")
    check_rate(c, "overshoot_fraction", "cluster")
    check_nonneg(c, "aggregate_be_throughput", "cluster")
    check_nonneg(c, "power_budget_w", "cluster")
    check_nonneg(c, "max_power_ratio", "cluster")
    check_nonneg(c, "mean_power_w", "cluster")
    check_nonneg(c, "max_cap_sum_ratio", "cluster")
    check_nonneg(c, "dead_node_epochs", "cluster")
    check_nonneg(c, "recovery_episodes", "cluster")
    check_nonneg(c, "mttr_p95_epochs", "cluster")
    if c["max_cap_sum_ratio"] > 1.0 + 1e-6:
        fail(f"cluster max_cap_sum_ratio {c['max_cap_sum_ratio']} "
             f"oversubscribes the budget")

    # Comms channel + grant-ledger accounting. Every counter must be
    # present (zero when the run did not use the message channel).
    for key in ("comms_sent", "comms_dropped", "comms_delayed",
                "comms_duplicated", "grants_sent", "grants_delivered",
                "grants_dropped", "grants_in_flight", "lease_renewals",
                "lease_expiries", "autonomy_epochs"):
        check_nonneg(c, key, "cluster")
    if c["grants_sent"] != (c["grants_delivered"] + c["grants_dropped"]
                            + c["grants_in_flight"]):
        fail(f"cluster grant identity broken: grants_sent "
             f"{c['grants_sent']} != delivered {c['grants_delivered']} + "
             f"dropped {c['grants_dropped']} + in_flight "
             f"{c['grants_in_flight']}")
    if c["grants_sent"] > c["comms_sent"]:
        fail(f"cluster grants_sent {c['grants_sent']} exceeds comms_sent "
             f"{c['comms_sent']} (grants are a subset of all traffic)")
    if c["grants_dropped"] > c["comms_dropped"]:
        fail(f"cluster grants_dropped {c['grants_dropped']} exceeds "
             f"comms_dropped {c['comms_dropped']}")
    if c["lease_renewals"] > c["grants_delivered"]:
        fail(f"cluster lease_renewals {c['lease_renewals']} exceeds "
             f"grants_delivered {c['grants_delivered']} (every adoption "
             f"needs a delivered grant with a fresh seq)")
    for key, want in (("lease_renewals", renewals_sum),
                      ("lease_expiries", expiries_sum),
                      ("autonomy_epochs", autonomy_sum)):
        if c[key] != want:
            fail(f"cluster {key} {c[key]} != node sum {want}")
    if c["dead_node_epochs"] > len(node_lines) * c["epochs"]:
        fail(f"cluster dead_node_epochs {c['dead_node_epochs']} exceeds "
             f"{len(node_lines)} nodes x {c['epochs']} epochs")

    print(f"trace_stats: OK: cluster of {len(node_lines)} nodes, "
          f"{c['epochs']} epochs, {span_sum} spans, "
          f"coordinator {c['coordinator']}, "
          f"dead_node_epochs {c['dead_node_epochs']}, "
          f"recovery_episodes {c['recovery_episodes']} "
          f"(mttr_p95 {c['mttr_p95_epochs']})")
    if c["comms_sent"]:
        print(f"trace_stats: comms: {c['comms_sent']} msgs "
              f"({c['comms_dropped']} dropped, {c['comms_delayed']} "
              f"delayed, {c['comms_duplicated']} duplicated), grants "
              f"{c['grants_sent']} = {c['grants_delivered']} delivered + "
              f"{c['grants_dropped']} dropped + {c['grants_in_flight']} "
              f"in flight, leases: {c['lease_renewals']} renewals / "
              f"{c['lease_expiries']} expiries / {c['autonomy_epochs']} "
              f"autonomous node-epochs")
    print(f"{'node':>4} {'policy':<34} {'epochs':>7} {'qos_rate':>9} "
          f"{'be_thr':>7} {'mean_cap_w':>11} {'throttled':>9} "
          f"{'faults':>7} {'down':>5} {'safe':>5}")
    for _, obj in sorted(node_lines, key=lambda x: x[1]["node"]):
        print(f"{obj['node']:>4} {obj.get('policy', '?')[:34]:<34} "
              f"{obj['epochs']:>7} {obj['qos_guarantee_rate']:>9.4f} "
              f"{obj['be_throughput_norm']:>7.3f} "
              f"{obj['mean_cap_w']:>11.1f} {obj['throttled_epochs']:>9} "
              f"{obj['faults_injected']:>7} {obj['epochs_down']:>5} "
              f"{obj['safe_mode_epochs']:>5}")
    return c


def validate_fleet(path):
    """Validate a fleet::write_fleet_jsonl roll-up file."""
    lines = read_jsonl(path)
    if not lines or lines[-1][1].get("type") != "fleet_summary":
        fail("last line is not a fleet_summary")
    lineno, f = lines[-1]
    c = validate_cluster(lines[:-1], fleet=True)

    where = f"fleet_summary (line {lineno})"
    for key in ("nodes", "epochs", "skipped_epochs", "wakes"):
        if f.get(key) != c.get(key):
            fail(f"{where}: {key} {f.get(key)} != cluster line "
                 f"{c.get(key)}")
    for key in ("events_processed", "event_queue_peak", "cap_revisions",
                "rebalances", "jobs_submitted", "jobs_placed",
                "jobs_completed", "jobs_migrated", "jobs_rejected",
                "job_queue_peak", "jobs_active_at_end",
                "jobs_queued_at_end", "mean_job_completion_epochs",
                "skipped_fraction"):
        check_nonneg(f, key, where)

    counters = f.get("counters")
    if not isinstance(counters, dict):
        fail(f"{where}: counters {counters!r} not an object")
    names = list(counters)
    if names != sorted(names):
        fail(f"{where}: counters not in name order")
    for name, value in counters.items():
        if not name.startswith("fleet."):
            fail(f"{where}: counter {name!r} is not a fleet.* roll-up")
        # bool is an int subclass in Python; JSON true/false is no count.
        if (not isinstance(value, int) or isinstance(value, bool)
                or value < 0):
            fail(f"{where}: counter {name} {value!r} not a non-negative "
                 f"integer")

    want_frac = f["skipped_epochs"] / (f["nodes"] * f["epochs"])
    if abs(f["skipped_fraction"] - want_frac) > 1e-9:
        fail(f"{where}: skipped_fraction {f['skipped_fraction']} != "
             f"skipped / (nodes * epochs) = {want_frac}")

    # Churn conservation: every submitted job is placed, rejected or
    # still queued; every placed job completed or is still running.
    if f["jobs_submitted"] != (f["jobs_placed"] + f["jobs_rejected"]
                               + f["jobs_queued_at_end"]):
        fail(f"{where}: jobs_submitted {f['jobs_submitted']} != placed "
             f"{f['jobs_placed']} + rejected {f['jobs_rejected']} + "
             f"queued_at_end {f['jobs_queued_at_end']}")
    if f["jobs_placed"] != f["jobs_completed"] + f["jobs_active_at_end"]:
        fail(f"{where}: jobs_placed {f['jobs_placed']} != completed "
             f"{f['jobs_completed']} + active_at_end "
             f"{f['jobs_active_at_end']}")
    if f["job_queue_peak"] < f["jobs_queued_at_end"]:
        fail(f"{where}: job_queue_peak {f['job_queue_peak']} < "
             f"jobs_queued_at_end {f['jobs_queued_at_end']}")
    if f["jobs_completed"] == 0 and f["mean_job_completion_epochs"] != 0:
        fail(f"{where}: mean_job_completion_epochs "
             f"{f['mean_job_completion_epochs']} nonzero with zero "
             f"completions")

    print(f"trace_stats: OK: fleet_summary: "
          f"{f['skipped_epochs']} skipped node-epochs "
          f"({f['skipped_fraction']:.1%}), {f['wakes']} wakes, "
          f"{f['events_processed']} events, "
          f"{f['rebalances']} rebalances / {f['cap_revisions']} delta "
          f"revisions, jobs {f['jobs_submitted']} submitted / "
          f"{f['jobs_completed']} completed / {f['jobs_migrated']} "
          f"migrated / {f['jobs_rejected']} rejected, "
          f"{len(counters)} fleet counters")
    return 0


def main():
    args = sys.argv[1:]
    cluster_mode = "--cluster" in args
    fleet_mode = "--fleet" in args
    args = [a for a in args if a not in ("--cluster", "--fleet")]
    if len(args) != 1 or (cluster_mode and fleet_mode):
        fail("usage: trace_stats.py [--cluster | --fleet] TRACE.jsonl")
    if fleet_mode:
        return validate_fleet(args[0])
    if cluster_mode:
        validate_cluster(read_jsonl(args[0]))
        return 0
    path = args[0]

    spans = {}
    summary = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                fail(f"line {lineno}: blank line")
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"line {lineno}: invalid JSON: {e}")
            if not isinstance(obj, dict):
                fail(f"line {lineno}: not a JSON object")
            kind = obj.get("type")
            if kind == "span":
                if summary is not None:
                    fail(f"line {lineno}: span after run_summary")
                for key in ("id", "parent", "name", "start_us", "dur_us"):
                    if key not in obj:
                        fail(f"line {lineno}: span missing '{key}'")
                sid = obj["id"]
                if not isinstance(sid, int) or sid <= 0:
                    fail(f"line {lineno}: bad span id {sid!r}")
                if sid in spans:
                    fail(f"line {lineno}: duplicate span id {sid}")
                if obj["dur_us"] < 0:
                    fail(f"line {lineno}: span {sid} negative duration")
                if "attrs" in obj and not isinstance(obj["attrs"], dict):
                    fail(f"line {lineno}: span {sid} attrs not an object")
                spans[sid] = obj
            elif kind == "run_summary":
                if summary is not None:
                    fail(f"line {lineno}: second run_summary")
                summary = obj
            else:
                fail(f"line {lineno}: unknown type {kind!r}")

    if summary is None:
        fail("no run_summary line")

    # Parent links and temporal containment.
    for sid, s in spans.items():
        pid = s["parent"]
        if pid == 0:
            continue
        if pid not in spans:
            fail(f"span {sid}: parent {pid} not in trace")
        p = spans[pid]
        if s["start_us"] < p["start_us"]:
            fail(f"span {sid} starts before its parent {pid}")
        if s["start_us"] + s["dur_us"] > p["start_us"] + p["dur_us"]:
            fail(f"span {sid} ends after its parent {pid}")

    # Reconciliation with the summary.
    if summary.get("span_count") != len(spans):
        fail(f"run_summary span_count {summary.get('span_count')} != "
             f"{len(spans)} span lines")
    by_phase = {}
    for s in spans.values():
        by_phase.setdefault(s["name"], []).append(s["dur_us"])
    phases = summary.get("phases")
    if not isinstance(phases, dict):
        fail("run_summary missing phases object")
    if set(phases) != set(by_phase):
        fail(f"run_summary phases {sorted(phases)} != trace phases "
             f"{sorted(by_phase)}")
    for name, info in phases.items():
        durs = by_phase[name]
        if info.get("count") != len(durs):
            fail(f"phase {name}: summary count {info.get('count')} != "
                 f"{len(durs)}")
        if info.get("total_us") != sum(durs):
            fail(f"phase {name}: summary total_us {info.get('total_us')} != "
                 f"{sum(durs)}")

    roots = sum(1 for s in spans.values() if s["parent"] == 0)
    print(f"trace_stats: OK: {len(spans)} spans, {roots} roots, "
          f"{len(by_phase)} phases")
    print(f"{'phase':<28} {'count':>7} {'p50_us':>9} {'p95_us':>9} "
          f"{'p99_us':>9} {'max_us':>9}")
    for name in sorted(by_phase):
        durs = sorted(by_phase[name])
        print(f"{name:<28} {len(durs):>7} "
              f"{percentile(durs, 0.50):>9.1f} "
              f"{percentile(durs, 0.95):>9.1f} "
              f"{percentile(durs, 0.99):>9.1f} "
              f"{durs[-1]:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
