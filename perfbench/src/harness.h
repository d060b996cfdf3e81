// One benchmark run of one workload: set-up, the measured episodes and
// (traced runs) the determinism variants and per-layer probes. The
// result is one raw JSON object on stdout; perfbench/run.py checks it
// and turns it into the reported metrics.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;       ///< self-test sizes
  /// Run lockstep-chaos with chaos_demo's actuator burst instead of
  /// measuring (see Workload); prints one line if the fleet survives.
  bool defect_probe = false;
  std::string out_dir = ".";  ///< traced runs write their JSONL here
};

/// Returns the process exit code (0 = ran; the checks are run.py's).
int run_benchmark(const RunArgs& args);

}  // namespace perfbench
