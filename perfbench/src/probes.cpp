#include "probes.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "comms/fabric.h"
#include "fleet/event_queue.h"
#include "telemetry/context.h"
#include "util/rng.h"

namespace perfbench {

using namespace sturgeon;

namespace {

constexpr double kMinProbeSeconds = 0.15;
constexpr int kMinBatches = 9;
constexpr int kMaxBatches = 2000;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  return v[mid];
}

/// Repeat `batch` (which performs `calls` calls) until both the batch
/// count and the elapsed time reach their floors; median ns per call.
double per_call_ns(const std::function<std::uint64_t()>& batch) {
  std::vector<double> samples;
  const Clock::time_point begin = Clock::now();
  while (static_cast<int>(samples.size()) < kMaxBatches) {
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t calls = batch();
    const Clock::time_point t1 = Clock::now();
    if (calls > 0) {
      samples.push_back(
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()) /
          static_cast<double>(calls));
    }
    const double elapsed = std::chrono::duration<double>(t1 - begin).count();
    if (static_cast<int>(samples.size()) >= kMinBatches &&
        elapsed >= kMinProbeSeconds) {
      break;
    }
  }
  return median(std::move(samples));
}

std::vector<double> initial_caps(const ProbeShape& shape) {
  auto coordinator =
      cluster::make_coordinator(shape.coordinator, shape.coordinator_config);
  return coordinator->assign(shape.budget_w, shape.reports);
}

}  // namespace

double probe_assign_us(const ProbeShape& shape) {
  auto coordinator =
      cluster::make_coordinator(shape.coordinator, shape.coordinator_config);
  const std::vector<cluster::NodeReport>& reports = shape.reports;
  return per_call_ns([&] {
           const auto caps = coordinator->assign(shape.budget_w, reports);
           return caps.empty() ? 0 : 1;
         }) /
         1e3;
}

double probe_heartbeat_us(const ProbeShape& shape) {
  const std::size_t n = shape.reports.size();
  cluster::HeartbeatTracker tracker(n);
  std::vector<cluster::NodeReport> reports = shape.reports;
  std::vector<int> last_steps(n, -1);
  int t = 0;
  return per_call_ns([&] {
           std::fill(last_steps.begin(), last_steps.end(), t - 1);
           tracker.update(t, last_steps, reports);
           ++t;
           return 1;
         }) /
         1e3;
}

double probe_comms_epoch_us(const ProbeShape& shape) {
  comms::CommsConfig config = shape.comms;
  config.enabled = true;
  comms::CommsFabric fabric(config, derive_seed(shape.seed, comms::kCommsStream),
                            shape.budget_w, shape.reports, shape.idle_w);
  const std::vector<double> caps = initial_caps(shape);
  const std::vector<bool> dead(shape.reports.size(), false);
  int t = 0;
  return per_call_ns([&] {
           fabric.collect(t);
           fabric.send_grants(caps, dead, t);
           fabric.effective_caps(t);
           for (std::size_t i = 0; i < shape.reports.size(); ++i) {
             fabric.send_report(static_cast<int>(i), shape.reports[i], t, t);
           }
           ++t;
           return 1;
         }) /
         1e3;
}

double probe_event_queue_ns(const ProbeShape& shape) {
  fleet::EventQueue queue;
  Rng rng(shape.seed);
  const int nodes = std::max<int>(1, static_cast<int>(shape.reports.size()));
  for (std::size_t i = 0; i < shape.queue_depth; ++i) {
    queue.push(fleet::EventKind::kWake, rng.uniform_int(0, 127),
               static_cast<int>(i % static_cast<std::size_t>(nodes)));
  }
  constexpr int kOps = 1000;
  return per_call_ns([&] {
    for (int k = 0; k < kOps; ++k) {
      const fleet::FleetEvent e = queue.pop();
      queue.push(e.kind, e.time + 1 + rng.uniform_int(0, 63),
                 e.node);
    }
    return static_cast<std::uint64_t>(kOps);
  });
}

double probe_delta_revise_ns(const ProbeShape& shape) {
  const std::size_t n = shape.reports.size();
  fleet::DeltaCoordinator delta(shape.delta, shape.budget_w, n);
  delta.rebase(initial_caps(shape));
  const std::size_t calls = std::max<std::size_t>(n, 1000);
  std::size_t i = 0;
  return per_call_ns([&] {
    for (std::size_t k = 0; k < calls; ++k) {
      delta.revise(i, shape.reports[i]);
      i = (i + 1) % n;
    }
    return static_cast<std::uint64_t>(calls);
  });
}

double probe_predict_ns(const core::Predictor& predictor, double qps_real) {
  const MachineSpec& m = predictor.machine();
  Rng rng(0x9e3779b97f4a7c15ULL);
  std::vector<Partition> configs;
  for (int k = 0; k < 64; ++k) {
    Partition p;
    p.ls.cores = rng.uniform_int(1, m.num_cores - 1);
    p.ls.freq_level = rng.uniform_int(0, m.max_freq_level());
    p.ls.llc_ways = rng.uniform_int(1, m.llc_ways - 1);
    p.be = Allocation::complement(
        m, p.ls, rng.uniform_int(0, m.max_freq_level()));
    configs.push_back(p);
  }
  double sink = 0.0;
  const double ns = per_call_ns([&] {
    const std::uint64_t before = predictor.model_invocations();
    for (const Partition& p : configs) {
      sink += predictor.ls_qos_ok(qps_real, p.ls) ? 1.0 : 0.0;
      sink += predictor.total_power_w(qps_real, p);
      sink += predictor.be_throughput(p.be);
    }
    return predictor.model_invocations() - before;
  });
  return sink == -1.0 ? 0.0 : ns;  // keeps the calls observable
}

StepProbe probe_node_step(cluster::NodeSpec spec, std::uint64_t seed,
                          int epochs, double cap_fraction) {
  auto ctx = telemetry::TelemetryContext::make(spec.server.machine);
  cluster::ClusterNode node(0, std::move(spec), seed, std::move(ctx));
  if (cap_fraction < 1.0) node.set_power_cap(cap_fraction * node.budget_w());
  auto* timed = dynamic_cast<TimedPolicy*>(&node.policy());
  StepProbe out;
  for (int t = 0; t < epochs; ++t) {
    if (timed != nullptr) timed->set_epoch(t);
    const Clock::time_point s = Clock::now();
    node.step(t);
    const Clock::time_point e = Clock::now();
    out.step_ns.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(e - s).count());
  }
  std::map<int, std::int64_t> decide_ns;
  if (timed != nullptr) {
    for (const DecideSpan& d : timed->spans()) decide_ns[d.t] += d.end_ns - d.start_ns;
  }
  for (int t = 0; t < epochs; ++t) {
    const auto it = decide_ns.find(t);
    out.self_ns.push_back(out.step_ns[static_cast<std::size_t>(t)] -
                          (it == decide_ns.end() ? 0 : it->second));
  }
  return out;
}

}  // namespace perfbench
