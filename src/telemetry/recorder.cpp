#include "telemetry/recorder.h"

#include <stdexcept>

#include "util/table.h"

namespace sturgeon::telemetry {

void TraceRecorder::record(int t_s, const sim::ServerTelemetry& sample,
                           const Partition& partition) {
  TraceRow row;
  row.t_s = t_s;
  row.load_fraction = sample.load_fraction;
  row.qps = sample.qps_real;
  row.p95_ms = sample.ls.p95_ms;
  row.power_w = sample.power_w;
  row.be_throughput_norm = sample.be_throughput_norm;
  row.partition = partition;
  rows_.push_back(row);
}

void TraceRecorder::write_csv(std::ostream& os) const {
  CsvWriter csv(os, {"t_s", "load", "qps", "p95_ms", "power_w", "be_thr_norm",
                     "ls_cores", "ls_freq_ghz", "ls_ways", "be_cores",
                     "be_freq_ghz", "be_ways", "cache_hits", "cache_misses",
                     "cache_fills"});
  for (const auto& r : rows_) {
    csv.write_row(std::vector<double>{
        static_cast<double>(r.t_s), r.load_fraction, r.qps, r.p95_ms,
        r.power_w, r.be_throughput_norm,
        static_cast<double>(r.partition.ls.cores),
        machine_.freq_at(r.partition.ls.freq_level),
        static_cast<double>(r.partition.ls.llc_ways),
        static_cast<double>(r.partition.be.cores),
        r.partition.be.cores > 0
            ? machine_.freq_at(r.partition.be.freq_level)
            : 0.0,
        static_cast<double>(r.partition.be.llc_ways), 0.0, 0.0, 0.0});
  }
}

void TraceRecorder::write_summary(std::ostream& os, int stride) const {
  if (stride < 1) throw std::invalid_argument("write_summary: bad stride");
  TablePrinter table({"t(s)", "load", "p95(ms)", "power(W)", "BE thr",
                      "config <C,F,L; C,F,L>"});
  for (std::size_t i = 0; i < rows_.size();
       i += static_cast<std::size_t>(stride)) {
    const auto& r = rows_[i];
    table.add_row({std::to_string(r.t_s), TablePrinter::fmt(r.load_fraction, 2),
                   TablePrinter::fmt(r.p95_ms, 2),
                   TablePrinter::fmt(r.power_w, 1),
                   TablePrinter::fmt(r.be_throughput_norm, 3),
                   r.partition.to_string(machine_)});
  }
  table.print(os);
}

}  // namespace sturgeon::telemetry
