// Fixed-partition policy: applies one configuration and never moves.
// Used by the motivation experiments (Figs 2 and 3 evaluate fixed
// configurations), by tests, and as the "no management" strawman.
#pragma once

#include <sstream>

#include "core/policy.h"

namespace sturgeon::baselines {

class StaticPolicy : public core::Policy {
 public:
  explicit StaticPolicy(Partition partition, std::string label = "Static")
      : partition_(partition), label_(std::move(label)) {}

  std::string name() const override { return label_; }
  std::string describe() const override {
    std::ostringstream os;
    os << label_ << "(ls=C" << partition_.ls.cores << "/F"
       << partition_.ls.freq_level << "/L" << partition_.ls.llc_ways
       << ", be=C" << partition_.be.cores << "/F" << partition_.be.freq_level
       << "/L" << partition_.be.llc_ways << ")";
    return os.str();
  }
  void reset() override { clear_decision(); }
  using core::Policy::decide;
  Partition decide(const sim::ServerTelemetry& /*sample*/,
                   const Partition& /*current*/) override {
    begin_decision();
    last_decision_.partition = partition_;
    last_decision_.action = core::Action::kStatic;
    return partition_;
  }

 private:
  Partition partition_;
  std::string label_;
};

}  // namespace sturgeon::baselines
