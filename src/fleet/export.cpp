#include "fleet/export.h"

#include <cstdint>
#include <fstream>
#include <string_view>

#include "cluster/export.h"
#include "telemetry/export.h"

namespace sturgeon::fleet {

namespace {

std::string num(double v) {
  return telemetry::attr_to_json(telemetry::AttrValue(v));
}

}  // namespace

void write_fleet_jsonl(const FleetResult& result, std::ostream& os) {
  cluster::write_cluster_jsonl(result.cluster, os);
  os << "{\"type\":\"fleet_summary\",\"nodes\":" << result.cluster.nodes
     << ",\"epochs\":" << result.cluster.epochs
     << ",\"skipped_epochs\":" << result.total_skipped_epochs
     << ",\"wakes\":" << result.total_wakes
     << ",\"skipped_fraction\":" << num(result.skipped_fraction)
     << ",\"events_processed\":" << result.events_processed
     << ",\"event_queue_peak\":" << result.event_queue_peak
     << ",\"cap_revisions\":" << result.cap_revisions
     << ",\"rebalances\":" << result.rebalances
     << ",\"jobs_submitted\":" << result.jobs_submitted
     << ",\"jobs_placed\":" << result.jobs_placed
     << ",\"jobs_completed\":" << result.jobs_completed
     << ",\"jobs_migrated\":" << result.jobs_migrated
     << ",\"jobs_rejected\":" << result.jobs_rejected
     << ",\"job_queue_peak\":" << result.job_queue_peak
     << ",\"jobs_active_at_end\":" << result.jobs_active_at_end
     << ",\"jobs_queued_at_end\":" << result.jobs_queued_at_end
     << ",\"mean_job_completion_epochs\":"
     << num(result.mean_job_completion_epochs);
  // The roll-up of every node's counters, in name order.
  os << ",\"counters\":{";
  const char* sep = "";
  if (result.cluster.telemetry != nullptr) {
    result.cluster.telemetry->metrics().for_each_counter(
        [&os, &sep](std::string_view name, std::uint64_t value) {
          if (!name.starts_with("fleet.")) return;
          os << sep << '"' << telemetry::json_escape(name) << "\":" << value;
          sep = ",";
        });
  }
  os << "}}\n";
}

bool write_fleet_jsonl(const FleetResult& result, const std::string& path) {
  const auto count_error = [&result] {
    if (result.cluster.telemetry != nullptr) {
      result.cluster.telemetry->metrics()
          .counter("telemetry.export.errors")
          .inc();
    }
  };
  std::ofstream os(path);
  if (!os) {
    count_error();
    return false;
  }
  write_fleet_jsonl(result, os);
  os.flush();
  if (!os.good()) {
    count_error();
    return false;
  }
  return true;
}

}  // namespace sturgeon::fleet
