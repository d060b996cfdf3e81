// perfbench: the Sturgeon repository benchmark binary.
//
//   perfbench --workload pairs|lockstep-chaos|diurnal-10k --seed N
//             --seconds S --trace 0|1 [--tiny] [--out-dir DIR]
//   perfbench --workload lockstep-chaos --seed N --defect-probe
//
// Prints one raw JSON result line on stdout (progress goes to stderr);
// perfbench/run.py builds this binary, checks that result and reports
// the metrics. --tiny shrinks every workload for the harness self-test.
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.h"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--out-dir DIR]\n"
               "       perfbench --workload lockstep-chaos --seed N "
               "--defect-probe\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--tiny") {
        args.tiny = true;
        continue;
      }
      if (flag == "--defect-probe") {
        args.defect_probe = true;
        continue;
      }
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (args.workload.empty()) return usage();
  try {
    return perfbench::run_benchmark(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
