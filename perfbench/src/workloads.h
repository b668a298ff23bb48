// The benchmark's workloads, all built from the paper's circuits through
// the public core / spice / variation / linalg APIs with shipped
// defaults (default NewtonOptions, default analysis options).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "harness.h"
#include "replay.h"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  std::size_t threads = 1;  ///< worker threads offered to the workload
  std::size_t trials = 24;  ///< Monte-Carlo trials per pass (sram_mc_snm)
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One pass over every item of the workload.  `tracer` and `counts`
  /// are non-null only in traced passes: spans are recorded around each
  /// library call and a RunReport is attached to each analysis.
  virtual PassRecord run_pass(Tracer* tracer, LayerCounts* counts,
                              Checks& checks) = 0;
  /// Only the set-up calls of one pass (for repeated set-up timing).
  virtual double setup_only() = 0;
  /// Checks made once per run against other library entry points.
  virtual void run_once_checks(Checks& checks) { (void)checks; }
  /// Unit costs from a trajectory replay of one representative instance,
  /// and the engine/LU busy time of one pass given its traced counts.
  virtual ReplayResult replay(const LayerCounts& pass_counts) = 0;
  /// Worker threads the workload actually asks the library for.
  virtual std::size_t threads() const { return 1; }
  /// Simulated transient seconds per pass (0 when the workload has none).
  virtual double sim_seconds_per_pass() const { return 0.0; }
  /// Standalone DC sweep points per pass (0 when the workload has none).
  virtual std::size_t dc_points_per_pass() const { return 0; }
};

std::unique_ptr<Workload> make_sram_column_read(const RunConfig& config);
std::unique_ptr<Workload> make_sram_mc_snm(const RunConfig& config);

/// Deterministic 64-bit mixer for deriving workload inputs from a seed.
inline std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
