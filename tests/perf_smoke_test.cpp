// Tier-2 perf smoke on the structural SRAM column: a read must reuse its
// sparse symbolic factorization and run on the kernel lanes, and the
// lane path must beat per-device virtual stamps on full sparse assembly.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>

#include "nemsim/core/sram.h"
#include "nemsim/spice/diagnostics.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/kernels.h"
#include "nemsim/spice/op.h"

namespace nemsim {
namespace {

TEST(PerfSmoke, ColumnReadReusesTheSymbolicFactorization) {
  // One read of the 16-cell hybrid column (the perfbench configuration)
  // runs thousands of sparse Newton solves.  Fresh pivot orders must pass
  // their own refactor test, so the symbolic analysis runs for the
  // operating point and the transient's first solve, not once per
  // rejected refactor.  Counted, so independent of host speed.
  core::SramColumnConfig config;
  config.cell.kind = core::SramKind::kHybrid;
  config.n_cells = 16;
  config.active_cell = 5;
  spice::RunReport report;
  core::measure_column_read_latency_structural(config, 0.1, &report);
  EXPECT_LE(report.newton.factorizations, 4);
  EXPECT_GE(report.newton.factorization_reuses, 1000);
}

TEST(PerfSmoke, ColumnReadRunsOnKernelLanes) {
  // With default options every nonlinear evaluation of a column read runs
  // in a kernel lane: no device of the column is left to the per-device
  // virtual path, and the nonlinear lanes' eval counts add up to the
  // engine's nonlinear-eval total.  Counted, so independent of host speed.
  core::SramColumnConfig config;
  config.cell.kind = core::SramKind::kHybrid;
  config.n_cells = 16;
  config.active_cell = 5;

  // The column's buckets, from its own plan (built by one assembly).
  core::SramColumn col = core::build_sram_column(config);
  spice::MnaSystem system(col.ckt());
  linalg::Matrix j;
  linalg::Vector f, scale;
  system.assemble(system.initial_guess(), j, f, scale,
                  spice::AnalysisMode::kDcOperatingPoint, 0.0, 0.0, 0.0, 1.0);
  const spice::KernelPlan* plan = system.kernel_plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->leftover_nonlinear.empty());
  std::set<std::string> nonlinear_buckets;
  for (const spice::KernelLane& lane : plan->lanes) {
    if (!lane.linear) nonlinear_buckets.insert(lane.bucket);
  }
  EXPECT_EQ(nonlinear_buckets, (std::set<std::string>{"mosfet", "nemfet"}));

  spice::RunReport report;
  core::measure_column_read_latency_structural(config, 0.1, &report);
  std::int64_t lane_evals = 0;
  for (const auto& [bucket, evals] : report.newton.kernel_lane_evals) {
    if (nonlinear_buckets.count(bucket) != 0) {
      lane_evals += static_cast<std::int64_t>(evals);
    }
  }
  EXPECT_GT(report.newton.nonlinear_evals, 0);
  EXPECT_EQ(lane_evals, report.newton.nonlinear_evals);
}

TEST(PerfSmoke, KernelStampThroughputOnStructuralColumn) {
  // The lane path must beat the virtual-dispatch path on full sparse
  // assembly of the 64-cell structural column — the workload whose
  // per-J-write CsrMatrix::slot searches it exists to eliminate.  This
  // is a direct A/B of the same assembly on the same system at the same
  // iterate, so the ratio is meaningful in any build type.
  core::SramColumnConfig config;
  config.n_cells = 64;
  core::SramColumn col = core::build_sram_column(config);
  spice::MnaSystem system(col.ckt());
  core::nodeset_column_state(system, col);
  const spice::OpResult op = spice::operating_point(system);
  const linalg::Vector& x = op.raw();

  linalg::CsrMatrix jac = system.make_sparse_jacobian();
  linalg::Vector residual, scale;
  const double dt = 1e-12;
  auto assemble_batch = [&](std::size_t reps) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < reps; ++i) {
      EXPECT_TRUE(system.assemble_sparse(x, jac, residual, scale,
                                         spice::AnalysisMode::kTransient,
                                         /*time=*/dt, dt, /*gmin=*/0.0,
                                         /*source_factor=*/1.0));
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };

  constexpr std::size_t kReps = 40;
  constexpr int kBatches = 3;
  // Warm-up both paths (lanes: resolve the CSR slots; virtual: faults in
  // the pattern), then take each path's best batch.
  system.configure_kernels(false);
  assemble_batch(2);
  double virtual_s = 1e300;
  for (int b = 0; b < kBatches; ++b) {
    virtual_s = std::min(virtual_s, assemble_batch(kReps));
  }
  system.configure_kernels(true);
  assemble_batch(2);
  double kernel_s = 1e300;
  for (int b = 0; b < kBatches; ++b) {
    kernel_s = std::min(kernel_s, assemble_batch(kReps));
  }

  const double speedup = virtual_s / kernel_s;
  RecordProperty("kernel_stamp_speedup", std::to_string(speedup));
  EXPECT_GE(speedup, 1.3) << "virtual " << virtual_s << " s vs kernels "
                          << kernel_s << " s over " << kReps
                          << " assemblies";
}

}  // namespace
}  // namespace nemsim
