// Per-interval trace recording for time-series experiments (paper Fig 11)
// and offline analysis. Rows capture what a datacenter telemetry system
// would log each second: load, latency, power, allocation, throughput.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "sim/server.h"
#include "util/types.h"

namespace sturgeon::telemetry {

struct TraceRow {
  int t_s = 0;
  double load_fraction = 0.0;
  double qps = 0.0;
  double p95_ms = 0.0;
  double power_w = 0.0;
  double be_throughput_norm = 0.0;
  Partition partition;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(const MachineSpec& machine) : machine_(machine) {}

  void record(int t_s, const sim::ServerTelemetry& sample,
              const Partition& partition);

  const std::vector<TraceRow>& rows() const { return rows_; }
  bool empty() const { return rows_.empty(); }

  /// Dump as CSV (header + one row per interval). The header is
  /// append-only, so the retired cache_hits/cache_misses/cache_fills
  /// columns stay and read 0.
  void write_csv(std::ostream& os) const;

  /// Compact fixed-interval summary for console output: every
  /// `stride` seconds, one line with the paper's Fig 11 quantities.
  void write_summary(std::ostream& os, int stride) const;

 private:
  MachineSpec machine_;
  std::vector<TraceRow> rows_;
};

}  // namespace sturgeon::telemetry
