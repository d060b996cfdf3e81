// Span-based tracing of the control loop.
//
// Each controller epoch opens a root "epoch" span; the phases inside it
// (observe, decide, search, candidate_eval, balance, enforce) open child
// spans carrying structured attributes -- the chosen <C,F,L> slices,
// predicted vs. observed QoS/power, model calls. Spans are RAII
// handles: they time themselves from construction to end()/destruction
// and parent under whichever span was innermost when they started.
//
// The clock is injectable (microsecond monotonic by default) so tests
// and golden files are deterministic. When a MetricsRegistry is bound,
// every finished span also feeds the "phase.<name>.duration_us"
// histogram, which is what ties the JSONL trace to the end-of-run
// summary: per-phase span counts and the histogram counts must agree.
//
// A disabled tracer hands out inert spans whose every operation is a
// no-op branch, so instrumented code needs no `if (tracing)` guards.
// Span creation is intended for the control-loop thread; the tracer
// itself serializes finish() under a mutex.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/thread_annotations.h"

namespace sturgeon::telemetry {

class MetricsRegistry;
class Histogram;

/// Structured span attribute: integer, floating point, or string.
using AttrValue = std::variant<std::int64_t, double, std::string>;

/// A finished span as exported to JSONL.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root (no parent)
  std::string name;
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
  std::vector<std::pair<std::string, AttrValue>> attrs;
};

class Tracer;

/// RAII span handle. Move-only; ends at destruction (idempotent). A
/// default-constructed or disabled-tracer span is inert.
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  Span& attr(std::string_view key, std::int64_t v);
  Span& attr(std::string_view key, int v) {
    return attr(key, static_cast<std::int64_t>(v));
  }
  Span& attr(std::string_view key, std::uint64_t v) {
    return attr(key, static_cast<std::int64_t>(v));
  }
  Span& attr(std::string_view key, bool v) {
    return attr(key, static_cast<std::int64_t>(v ? 1 : 0));
  }
  Span& attr(std::string_view key, double v);
  Span& attr(std::string_view key, std::string_view v);
  Span& attr(std::string_view key, const char* v) {
    return attr(key, std::string_view(v));
  }

  /// Close the span now (record duration, publish). No-op when inert or
  /// already ended.
  void end();

  bool active() const { return tracer_ != nullptr; }

 private:
  friend class Tracer;
  Span(Tracer* tracer, SpanRecord rec)
      : tracer_(tracer), rec_(std::move(rec)) {}

  Tracer* tracer_ = nullptr;
  SpanRecord rec_;
};

class Tracer {
 public:
  /// Microsecond timestamp source; monotonic steady clock when empty.
  using Clock = std::function<std::int64_t()>;

  explicit Tracer(bool enabled = true, Clock clock = {});

  bool enabled() const { return enabled_; }

  /// Open a span parented under the innermost open span (root if none).
  Span start_span(std::string_view name) STURGEON_EXCLUDES(mu_);

  /// Feed finished span durations into `registry`'s
  /// "phase.<name>.duration_us" histograms. Pass nullptr to unbind.
  void bind_registry(MetricsRegistry* registry) STURGEON_EXCLUDES(mu_);

  /// Finished spans, in finish order (children precede parents).
  /// Do not call while spans may finish concurrently. Analysis waived:
  /// the export path reads the vector lock-free by borrowing a reference,
  /// and its single-threaded-at-export contract is a caller obligation
  /// the capability model cannot express (taking mu_ here could not
  /// outlive the return anyway).
  const std::vector<SpanRecord>& finished() const
      STURGEON_NO_THREAD_SAFETY_ANALYSIS {
    return finished_;
  }
  std::size_t finished_count() const STURGEON_EXCLUDES(mu_);

  /// Drop finished spans (long benches); open spans are unaffected.
  void clear() STURGEON_EXCLUDES(mu_);

 private:
  friend class Span;
  void finish(SpanRecord&& rec) STURGEON_EXCLUDES(mu_);
  std::int64_t now_us() const;

  bool enabled_;   ///< immutable after construction
  Clock clock_;    ///< immutable after construction
  mutable Mutex mu_;
  std::vector<std::uint64_t> open_ STURGEON_GUARDED_BY(mu_);  ///< innermost last
  std::vector<SpanRecord> finished_ STURGEON_GUARDED_BY(mu_);
  std::uint64_t next_id_ STURGEON_GUARDED_BY(mu_) = 1;
  MetricsRegistry* registry_ STURGEON_GUARDED_BY(mu_) = nullptr;
  /// span name -> bound histogram memo
  std::vector<std::pair<std::string, Histogram*>> phase_hist_
      STURGEON_GUARDED_BY(mu_);
};

}  // namespace sturgeon::telemetry
