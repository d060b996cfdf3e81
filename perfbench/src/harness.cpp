#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "exp/model_registry.h"
#include "probes.h"
#include "telemetry/export.h"
#include "util/rng.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using namespace sturgeon;

namespace {

/// Full set-ups (training from an empty model registry plus
/// construction) per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Measured episodes per untraced run, at least: two of the same seed
/// are also the repeat-determinism check.
constexpr std::size_t kMinEpisodes = 2;
/// Length of the defect probe's fleet run (the burst lands at 1/4).
constexpr int kDefectProbeEpochs = 100;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t ns_since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

/// Linear-interpolated quantile (tools/trace_stats.py's definition).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

std::vector<double> to_us(const std::vector<std::int64_t>& ns) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (const std::int64_t v : ns) out.push_back(static_cast<double>(v) / 1e3);
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  out += telemetry::json_escape(s);
  out += '"';
  return out;
}

/// Insertion-ordered JSON object.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, perfbench::num(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += quoted(fields_[i].first) + ":" + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) {
    if (out.size() > 1) out += ",";
    out += item;
  }
  return out + "]";
}

std::string stats_json(const Stats& stats) {
  JsonObject o;
  for (const auto& [key, value] : stats) o.num(key, value);
  return o.dump();
}

double stat(const Stats& stats, const std::string& key) {
  for (const auto& [k, v] : stats) {
    if (k == key) return v;
  }
  return 0.0;
}

std::string episode_json(const EpisodeResult& e) {
  JsonObject o;
  o.num("run_s", e.run_s)
      .num("cpu_s", e.cpu_s)
      .num("node_epochs", static_cast<double>(e.node_epochs))
      .str("digest", hex(e.digest))
      .num("decides", static_cast<double>(e.decides));
  return o.dump();
}

/// Destroy an episode and hand its freed memory back to the OS, so the
/// process's peak RSS reflects one set-up or one episode rather than
/// allocator slack left in per-thread arenas by the previous one.
void release(std::unique_ptr<Episode>& episode) {
  episode.reset();
  malloc_trim(0);
}

/// Untraced run: repeated set-ups, then episodes until `seconds` of
/// stepping time are measured.
void measure(Workload& w, const RunArgs& args, JsonObject& out) {
  const WorkloadShape& shape = w.shape();
  const EpisodeOptions options{true, false, shape.threads};
  const int repeats = shape.tiny ? 1 : kSetupRepeats;

  std::vector<double> setup_s;
  std::unique_ptr<Episode> episode;
  for (int r = 0; r < repeats; ++r) {
    release(episode);
    const Clock::time_point t0 = Clock::now();
    w.train();
    episode = w.build(options);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  std::vector<std::string> episodes;
  std::vector<double> decide_us, decide_wall_us;
  Stats stats;
  double measured_s = 0.0;
  while (episodes.size() < kMinEpisodes || measured_s < args.seconds) {
    if (!episode) episode = w.build(options);
    EpisodeResult r = episode->run();
    release(episode);
    measured_s += r.run_s;
    if (episodes.empty()) stats = r.stats;
    const std::vector<double> us = to_us(r.decide_ns);
    decide_us.insert(decide_us.end(), us.begin(), us.end());
    const std::vector<double> wall = to_us(r.decide_wall_ns);
    decide_wall_us.insert(decide_wall_us.end(), wall.begin(), wall.end());
    episodes.push_back(episode_json(r));
    std::cerr << "perfbench: episode " << episodes.size() << ": "
              << r.node_epochs << " node-epochs in " << r.run_s << " s\n";
  }

  std::vector<std::string> setups;
  for (const double s : setup_s) setups.push_back(num(s));
  JsonObject decide;
  double decide_sum = 0.0;
  for (const double us : decide_us) decide_sum += us;
  decide.num("mean", decide_us.empty()
                         ? 0.0
                         : decide_sum / static_cast<double>(decide_us.size()))
      .num("p50", quantile(decide_us, 0.50))
      .num("p99", quantile(decide_us, 0.99))
      .num("wall_p50", quantile(decide_wall_us, 0.50))
      .num("wall_p99", quantile(decide_wall_us, 0.99))
      .num("samples", static_cast<double>(decide_us.size()));
  out.raw("setup_s", json_array(setups))
      .raw("episodes", json_array(episodes))
      .raw("decide_us", decide.dump())
      .raw("stats", stats_json(stats));
}

// -- traced run ---------------------------------------------------------

class SpanWriter {
 public:
  explicit SpanWriter(Clock::time_point origin) : origin_(origin) {}

  std::uint64_t add(const std::string& name, std::uint64_t parent,
                    std::int64_t start_ns, std::int64_t end_ns,
                    std::vector<std::pair<std::string, telemetry::AttrValue>>
                        attrs = {}) {
    telemetry::SpanRecord s;
    s.id = ++next_id_;
    s.parent = parent;
    s.name = name;
    s.start_us = start_ns / 1000;
    s.dur_us = end_ns / 1000 - s.start_us;
    s.attrs = std::move(attrs);
    spans_.push_back(std::move(s));
    return next_id_;
  }
  std::uint64_t add(const std::string& name, std::uint64_t parent,
                    Clock::time_point start, Clock::time_point end) {
    return add(name, parent, ns_since(origin_, start), ns_since(origin_, end));
  }

  bool write(const std::string& path) const {
    std::ofstream os(path);
    telemetry::write_trace_jsonl(spans_, os);
    os.flush();
    return os.good();
  }

 private:
  Clock::time_point origin_;
  std::uint64_t next_id_ = 0;
  std::vector<telemetry::SpanRecord> spans_;
};

/// Node-step spans of a pairs episode with their decide children;
/// fills per-epoch step and self (step minus decide) times.
void add_pair_spans(const EpisodeResult& e, std::uint64_t episode_id,
                    SpanWriter& spans, StepProbe& steps) {
  for (std::size_t i = 0; i < e.step_spans.size(); ++i) {
    const auto& decides = e.decide_spans[i];
    std::size_t d = 0;
    for (const StepSpan& s : e.step_spans[i]) {
      const std::int64_t node = static_cast<std::int64_t>(i);
      const std::uint64_t step_id =
          spans.add("node.step", episode_id, s.start_ns, s.end_ns,
                    {{"node", node}, {"t", std::int64_t{s.t}}});
      std::int64_t decide_ns = 0;
      for (; d < decides.size() && decides[d].t == s.t; ++d) {
        spans.add("policy.decide", step_id, decides[d].start_ns,
                  decides[d].end_ns,
                  {{"node", node}, {"t", std::int64_t{s.t}}});
        decide_ns += decides[d].end_ns - decides[d].start_ns;
      }
      steps.step_ns.push_back(s.end_ns - s.start_ns);
      steps.self_ns.push_back(s.end_ns - s.start_ns - decide_ns);
    }
  }
}

void add_fleet_spans(const EpisodeResult& e, std::uint64_t episode_id,
                     SpanWriter& spans) {
  for (std::size_t i = 0; i < e.decide_spans.size(); ++i) {
    for (const DecideSpan& d : e.decide_spans[i]) {
      spans.add("policy.decide", episode_id, d.start_ns, d.end_ns,
                {{"node", static_cast<std::int64_t>(i)},
                 {"seq", static_cast<std::int64_t>(d.seq)}});
    }
  }
}

std::string variant_json(const std::string& name, const EpisodeResult& e) {
  JsonObject o;
  o.str("name", name)
      .str("digest", hex(e.digest))
      .num("run_s", e.run_s)
      .num("cpu_s", e.cpu_s);
  return o.dump();
}

void traced(Workload& w, const RunArgs& args, JsonObject& out,
            Clock::time_point origin) {
  const WorkloadShape& shape = w.shape();
  const bool pairs = shape.kind == Kind::kPairs;
  SpanWriter spans(origin);

  // Set-up, spanned: training, then construction.
  const Clock::time_point t0 = Clock::now();
  w.train();
  const Clock::time_point t1 = Clock::now();
  std::unique_ptr<Episode> episode = w.build({true, false, shape.threads});
  const Clock::time_point t2 = Clock::now();
  const std::uint64_t setup_id = spans.add("setup", 0, t0, t2);
  spans.add("exp.warm_models", setup_id, t0, t1);
  spans.add("cluster.build", setup_id, t1, t2);

  // Untraced reference, then the traced episode of the same seed.
  const EpisodeResult reference = episode->run();
  ProbeShape probe;
  probe.reports = episode->reports();
  probe.idle_w = episode->idle_w();
  probe.budget_w = episode->budget_w();
  episode.reset();

  episode = w.build({true, true, shape.threads});
  const EpisodeResult traced = episode->run();
  const std::string rollup_path = args.out_dir + "/rollup.jsonl";
  const bool rollup = episode->write_rollup(rollup_path);
  episode.reset();

  // Determinism variants: 1 and 4 worker threads, and no decorator.
  std::vector<std::string> variants = {variant_json("untraced", reference),
                                       variant_json("traced", traced)};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    if (threads == shape.threads) continue;
    variants.push_back(variant_json("threads=" + std::to_string(threads),
                                    w.build({true, false, threads})->run()));
  }
  variants.push_back(variant_json(
      "undecorated", w.build({false, false, shape.threads})->run()));

  const std::uint64_t episode_id =
      spans.add("episode", 0, traced.run_start_ns, traced.run_end_ns,
                {{"workload", shape.name}});
  StepProbe steps;
  if (pairs) {
    add_pair_spans(traced, episode_id, spans, steps);
  } else {
    add_fleet_spans(traced, episode_id, spans);
    steps = probe_node_step(w.probe_spec(), derive_seed(args.seed, 0),
                            shape.epochs, w.probe_cap_fraction());
  }
  const std::string spans_path = args.out_dir + "/spans.jsonl";
  const bool spans_ok = spans.write(spans_path);

  // Per-layer probes at the workload's shape.
  const fleet::FleetConfig& fc = w.fleet_config();
  probe.coordinator = fc.cluster.coordinator;
  probe.coordinator_config = fc.cluster.coordinator_config;
  probe.comms = fc.cluster.comms;  // reliable unless the workload is lossy
  probe.seed = args.seed;
  probe.queue_depth = std::max<std::size_t>(
      1, static_cast<std::size_t>(stat(traced.stats, "event_queue_peak")));
  probe.delta = fc.delta;
  const cluster::NodeSpec spec = w.probe_spec();
  const auto predictor = exp::predictor_for(spec.ls, spec.be, w.trainer());

  const Stats& st = traced.stats;
  const double grants_sent = stat(st, "grants_sent");
  // Share of the untraced node-epochs per CPU-second the tracing costs.
  const double overhead = reference.cpu_s > 0.0 && traced.cpu_s > 0.0
                              ? 1.0 - reference.cpu_s / traced.cpu_s
                              : 0.0;
  const std::vector<std::tuple<std::string, double, std::string>> layers = {
      {"cluster.node_step_us.p50", quantile(to_us(steps.step_ns), 0.50), "us"},
      {"cluster.node_step_us.p99", quantile(to_us(steps.step_ns), 0.99), "us"},
      {"cluster.node_step_self_us.p50", quantile(to_us(steps.self_ns), 0.50),
       "us"},
      {"sim.ls_queries", stat(st, "ls_completed"), "count"},
      {"isolation.partition_changes", stat(st, "partition_changes"), "count"},
      {"core.searches", stat(st, "searches"), "count"},
      {"core.balancer_actions", stat(st, "balancer_actions"), "count"},
      {"core.model_calls_per_decide",
       traced.decides > 0 ? static_cast<double>(traced.model_calls) /
                                static_cast<double>(traced.decides)
                          : 0.0,
       "calls/decide"},
      {"core.predict_ns",
       probe_predict_ns(*predictor, 0.5 * spec.ls.peak_qps), "ns"},
      {"cluster.assign_us", probe_assign_us(probe), "us"},
      {"cluster.heartbeat_us", probe_heartbeat_us(probe), "us"},
      {"cluster.dead_node_epochs", stat(st, "dead_node_epochs"), "count"},
      {"cluster.throttled_epochs", stat(st, "throttled_epochs"), "count"},
      {"cluster.power_overshoot_frac", stat(st, "power_overshoot_frac"),
       "fraction"},
      {"comms.epoch_us", probe_comms_epoch_us(probe), "us"},
      {"comms.sent", stat(st, "comms_sent"), "count"},
      {"comms.dropped", stat(st, "comms_dropped"), "count"},
      {"comms.grant_delivery_ratio",
       grants_sent > 0.0 ? stat(st, "grants_delivered") / grants_sent : 0.0,
       "fraction"},
      {"comms.lease_expiries", stat(st, "lease_expiries"), "count"},
      {"comms.autonomy_epochs", stat(st, "autonomy_epochs"), "count"},
      {"fleet.skipped_fraction", stat(st, "skipped_fraction"), "fraction"},
      {"fleet.stepped_node_epochs", stat(st, "stepped_node_epochs"), "count"},
      {"fleet.events_processed", stat(st, "events_processed"), "count"},
      {"fleet.wakes", stat(st, "wakes"), "count"},
      {"fleet.cap_revisions", stat(st, "cap_revisions"), "count"},
      {"fleet.rebalances", stat(st, "rebalances"), "count"},
      {"fleet.event_queue_peak", stat(st, "event_queue_peak"), "count"},
      {"fleet.event_queue_ns", probe_event_queue_ns(probe), "ns"},
      {"fleet.delta_revise_ns", probe_delta_revise_ns(probe), "ns"},
      {"fleet.jobs_completed", stat(st, "jobs_completed"), "count"},
      {"fleet.jobs_migrated", stat(st, "jobs_migrated"), "count"},
      {"fault.injected", stat(st, "faults_injected"), "count"},
      {"fault.sensor_rejected", stat(st, "sensor_rejected"), "count"},
      {"fault.actuator_retries", stat(st, "actuator_retries"), "count"},
      {"fault.watchdog_trips", stat(st, "watchdog_trips"), "count"},
      {"exp.train_s", seconds_between(t0, t1), "s"},
      {"cluster.build_s", seconds_between(t1, t2), "s"},
      {"bench.trace_overhead_frac", overhead, "fraction"},
      {"bench.node_epochs_per_wall_s",
       static_cast<double>(reference.node_epochs) / reference.run_s,
       "node-epochs/s"},
  };
  JsonObject layer_json;
  for (const auto& [name, value, unit] : layers) {
    JsonObject m;
    m.num("value", value).str("unit", unit);
    layer_json.raw(name, m.dump());
  }

  // How often the run itself called each probed function.
  const bool lockstep = !fc.quiescence.enabled;
  JsonObject calls;
  calls.num("node_steps", stat(st, "stepped_node_epochs"))
      .num("decides", static_cast<double>(traced.decides))
      .num("model_invocations", static_cast<double>(traced.model_calls))
      .num("assign", pairs ? 0.0
                           : (lockstep ? shape.epochs : stat(st, "rebalances")))
      .num("heartbeat_update", pairs ? 0.0 : shape.epochs)
      .num("comms_epochs", fc.cluster.comms.enabled ? shape.epochs : 0.0)
      .num("event_queue_pops", stat(st, "events_processed"))
      .num("delta_revise", stat(st, "cap_revisions"));

  JsonObject files;
  files.str("spans", spans_ok ? spans_path : "")
      .str("rollup", rollup ? rollup_path : "");
  out.raw("stats", stats_json(st))
      .raw("variants", json_array(variants))
      .raw("layers", layer_json.dump())
      .raw("calls", calls.dump())
      .raw("files", files.dump());
}

}  // namespace

int run_benchmark(const RunArgs& args) {
  WorkloadShape shape;
  if (!make_shape(args.workload, args.tiny, shape)) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const Clock::time_point origin = Clock::now();
  if (args.defect_probe) {
    if (shape.kind != Kind::kLockstepChaos) {
      std::cerr << "perfbench: --defect-probe needs lockstep-chaos\n";
      return 2;
    }
    // The fleet under chaos_demo's full schedule, actuator burst
    // included, long enough for the burst and its aftermath. A node
    // runtime that rejects the partition a failed apply leaves behind
    // aborts here; surviving prints one line.
    shape.actuator_burst = true;
    shape.epochs = kDefectProbeEpochs;
    Workload w(shape, args.seed, origin);
    w.train();
    w.build({true, false, shape.threads})->run();
    std::cout << "{\"defect_probe\":\"survived\"}" << std::endl;
    return 0;
  }
  Workload w(shape, args.seed, origin);

  JsonObject out;
  JsonObject shape_json;
  shape_json.num("nodes", shape.nodes)
      .num("epochs", shape.epochs)
      .num("threads", static_cast<double>(shape.threads))
      .raw("tiny", shape.tiny ? "true" : "false");
  JsonObject build;
  build.str("build_type", PERFBENCH_BUILD_TYPE).str("compiler", __VERSION__);
  out.str("workload", shape.name)
      .num("seed", static_cast<double>(args.seed))
      .raw("trace", args.trace ? "true" : "false")
      .raw("shape", shape_json.dump())
      .raw("build", build.dump());
  if (args.trace) {
    traced(w, args, out, origin);
  } else {
    measure(w, args, out);
  }
  std::cout << out.dump() << std::endl;
  return 0;
}

}  // namespace perfbench
