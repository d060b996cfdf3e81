// Domain invariant helpers built on the STURGEON_CHECK contract macros.
//
// Three value classes cross nearly every layer boundary in the runtime:
// resource configurations <C1,F1,L1;C2,F2,L2>, power budgets, and model
// outputs. Each helper CHECK-fails with full context when the value is
// malformed, so a bad handoff aborts at the boundary that produced it
// rather than being silently "enforced" downstream.
#pragma once

#include "util/types.h"

namespace sturgeon {

/// CHECK that `p` is expressible on `m`: per-slice bounds hold and core /
/// way totals fit the machine. With `allow_empty_be` (the default) a BE
/// slice with zero cores is accepted -- it models the controller's initial
/// all-to-LS allocation -- but the LS slice must always be well-formed.
/// `where` names the calling boundary in the failure message.
void ValidateConfig(const MachineSpec& m, const Partition& p,
                    const char* where, bool allow_empty_be = true);

/// CHECK that a power budget is finite and strictly positive.
void ValidatePowerBudget(double budget_w, const char* where);

/// CHECK that a model prediction is finite (and, unless `allow_negative`,
/// non-negative: power and throughput predictions must never be < 0).
/// Returns `value` so call sites can validate inline:
///   return ValidateModelOutput(model->predict(row), "ls_power");
double ValidateModelOutput(double value, const char* what,
                           bool allow_negative = false);

}  // namespace sturgeon
