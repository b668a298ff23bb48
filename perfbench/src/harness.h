// Shared machinery of the end-to-end benchmark: wall-clock helpers, the
// in-memory span recorder for traced runs, output checks, per-pass
// records and the per-layer accumulator filled from RunReports.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "nemsim/spice/diagnostics.h"

namespace perfbench {

namespace spice = nemsim::spice;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1] (0.5 = median).
double quantile(std::vector<double> v, double q);

/// Spans around the benchmark's own calls into the library layers.
///
/// A null Tracer* (untraced passes use none) records nothing and reads no
/// clock.  Spans stay in memory and are written once, as Chrome
/// trace-event JSON, when the run ends.  Thread-safe: every thread keeps
/// its own open-span stack, so a span's parent is the innermost span
/// open on the same thread.
class Tracer {
 public:
  struct Record {
    std::string name;
    std::uint64_t item = 0;  ///< all spans of one work item share this id
    double start_us = 0.0;   ///< since the tracer was created
    double end_us = 0.0;
    long parent = -1;        ///< index into records(), -1 for a root span
    unsigned tid = 0;
  };

  class Span {
   public:
    Span(Tracer* tracer, const char* name, std::uint64_t item);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    long index_ = -1;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::vector<Record> records() const;
  /// Sum of the durations (seconds) of every span named `name` that
  /// started at or after `since_us`.
  double total_s(const std::string& name, double since_us = 0.0) const;
  /// Number of spans named `name`.
  std::size_t count(const std::string& name) const;
  double now_us() const;

  /// Writes {"traceEvents": [...], "otherData": {...}} with one complete
  /// ("X") event per span; `provenance_json` is an object literal.
  bool write_chrome_trace(const std::string& path,
                          const std::string& provenance_json) const;

 private:
  long open(const char* name, std::uint64_t item);
  void close(long index);

  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

/// Output checks: every failed check counts against `failed`.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log

  void check(bool ok, const std::string& what);
  /// |value - ref| <= rel_tol * |ref|.
  void near(double value, double ref, double rel_tol, const std::string& what);
};

/// One timed pass of a workload.
struct PassRecord {
  double wall_s = 0.0;    ///< the whole pass, setup included
  double setup_s = 0.0;   ///< build/lint/analyze/compile calls of the pass
  std::vector<double> item_ms;  ///< host time of each item of the pass
};

/// Counter totals of one traced pass, read from the RunReports the
/// workload attached to its analyses.
struct LayerCounts {
  spice::NewtonStats newton;
  std::size_t solves = 0;  ///< Newton solves (iteration-histogram total)
  std::size_t accepted_steps = 0;
  std::size_t lte_rejects = 0;
  std::size_t newton_failures = 0;
  std::size_t dc_points = 0;  ///< standalone DC sweep points
  double solve_s = 0.0;       ///< phase.op + phase.stepping wall-clock
  double sim_ns = 0.0;        ///< simulated transient time

  /// Adds one analysis's report (reports are reset by the caller).
  void add(const spice::RunReport& report);
};

}  // namespace perfbench
