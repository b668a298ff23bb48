#include "replay.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "harness.h"
#include "nemsim/linalg/lu.h"
#include "nemsim/linalg/sparse_lu.h"

namespace perfbench {

namespace {

using nemsim::linalg::CsrMatrix;
using nemsim::linalg::LuDecomposition;
using nemsim::linalg::Matrix;
using nemsim::linalg::SparseLuFactorization;
using nemsim::linalg::Vector;
using nemsim::spice::AnalysisMode;
using nemsim::spice::MnaSystem;
using nemsim::spice::NewtonOptions;
using nemsim::spice::Waveform;

template <typename F>
double time_us(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0) * 1e6;
}

/// Column of `wave` holding each unknown of `system`, in unknown order.
std::vector<std::size_t> unknown_columns(const MnaSystem& system,
                                         const Waveform& wave) {
  std::vector<std::size_t> cols(system.num_unknowns());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    cols[i] = wave.signal_index(system.unknown_info(i).name);
  }
  return cols;
}

constexpr int kRepeats = 3;
constexpr std::size_t kFactorEvery = 10;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Times one state's assembly + LU work and keeps per-call samples.
class StateReplayer {
 public:
  StateReplayer(MnaSystem& system, const NewtonOptions& newton)
      : system_(system),
        gmin_(newton.gmin_final),
        sparse_(system.num_unknowns() >= newton.sparse_threshold) {
    if (sparse_) rebuild_skeleton();
  }

  /// Replays one state.  Assembly and LU calls leave no state behind, so
  /// each is repeated and the fastest repeat kept: a host stall during one
  /// call must not inflate the unit cost.
  void run(const Vector& x, AnalysisMode mode, double time, double dt) {
    const std::size_t n = system_.num_unknowns();
    // A sparse full factorization is timed where the refactor rejects its
    // pivots and on every kFactorEvery-th state: the first, cold analysis
    // is no measure of the ones the solver repeats.
    const bool sample_factor = states_ % kFactorEvery == 0;
    Vector f(n), scale(n), rhs(n);
    double t_baseline = kInf, t_assemble = kInf, t_residual = kInf,
           t_factor = kInf, t_refactor = kInf, t_solve = kInf;
    std::optional<LuDecomposition> dense_lu;
    Matrix jacobian;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      if (sparse_) {
        bool grew = true;
        while (grew) {
          const double tb = time_us([&] {
            grew = !system_.assemble_linear_jacobian(x, csr_, baseline_,
                                                     mode, time, dt);
          });
          const double ta =
              grew ? 0.0 : time_us([&] {
                grew = !system_.assemble_sparse(x, csr_, f, scale, mode, time,
                                                dt, gmin_, 1.0, &baseline_);
              });
          if (grew) {
            rebuild_skeleton();
          } else {
            t_baseline = std::min(t_baseline, tb);
            t_assemble = std::min(t_assemble, ta);
          }
        }
        if (!lu_.analyzed()) lu_.factor(csr_);  // cold first analysis
        bool ok = true;
        t_refactor =
            std::min(t_refactor, time_us([&] { ok = lu_.refactor(csr_); }));
        if (!ok || sample_factor) {
          t_factor = std::min(t_factor, time_us([&] { lu_.factor(csr_); }));
        }
        for (std::size_t i = 0; i < n; ++i) rhs[i] = -f[i];
        t_solve = std::min(t_solve, time_us([&] { lu_.solve_in_place(rhs); }));
      } else {
        t_assemble = std::min(t_assemble, time_us([&] {
          system_.assemble(x, jacobian, f, scale, mode, time, dt, gmin_, 1.0);
        }));
        t_factor =
            std::min(t_factor, time_us([&] { dense_lu.emplace(jacobian); }));
        for (std::size_t i = 0; i < n; ++i) rhs[i] = -f[i];
        t_solve =
            std::min(t_solve, time_us([&] { dense_lu->solve_in_place(rhs); }));
      }
      t_residual = std::min(t_residual, time_us([&] {
        system_.assemble_residual(x, f, scale, mode, time, dt, gmin_, 1.0);
      }));
    }
    assemble_.push_back(t_assemble);
    residual_.push_back(t_residual);
    solve_.push_back(t_solve);
    if (t_factor < kInf) factor_.push_back(t_factor);
    if (sparse_) {
      baseline_times_.push_back(t_baseline);
      refactor_.push_back(t_refactor);
      fill_nnz_ = static_cast<double>(lu_.fill_nonzeros());
    } else {
      fill_nnz_ = static_cast<double>(n * n);
    }
    ++states_;
  }

  void record_accept(double us) { accept_.push_back(us); }

  UnitCosts costs(std::size_t states) const {
    const auto fastest = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
    };
    UnitCosts c;
    c.sparse = sparse_;
    c.unknowns = system_.num_unknowns();
    c.states = states;
    c.assemble_us = fastest(assemble_);
    c.residual_us = fastest(residual_);
    c.linear_baseline_us = fastest(baseline_times_);
    c.accept_us = fastest(accept_);
    c.factor_us = fastest(factor_);
    // Dense Newton re-runs the full LU every iteration.
    c.refactor_us = sparse_ ? fastest(refactor_) : c.factor_us;
    c.solve_us = fastest(solve_);
    c.fill_nnz = fill_nnz_;
    return c;
  }

 private:
  void rebuild_skeleton() {
    csr_ = system_.make_sparse_jacobian();
    lu_ = SparseLuFactorization();
  }

  MnaSystem& system_;
  double gmin_;
  bool sparse_;
  CsrMatrix csr_;
  std::vector<double> baseline_;
  SparseLuFactorization lu_;
  double fill_nnz_ = 0.0;
  std::size_t states_ = 0;
  std::vector<double> assemble_, residual_, baseline_times_, factor_,
      refactor_, solve_, accept_;
};

Vector state_at(const Waveform& wave, const std::vector<std::size_t>& cols,
                std::size_t k) {
  Vector x(cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) x[i] = wave.sample(cols[i], k);
  return x;
}

}  // namespace

UnitCosts replay_transient(MnaSystem& system, const Waveform& wave,
                           const NewtonOptions& newton) {
  const std::vector<std::size_t> cols = unknown_columns(system, wave);
  const std::vector<double>& t = wave.times();
  StateReplayer replayer(system, newton);
  system.reset_devices();
  system.accept(state_at(wave, cols, 0), AnalysisMode::kDcOperatingPoint,
                0.0, 0.0);
  for (std::size_t k = 1; k < t.size(); ++k) {
    const double dt = t[k] - t[k - 1];
    const Vector x = state_at(wave, cols, k);
    double us = time_us([&] { system.begin_step(t[k], dt); });
    replayer.run(x, AnalysisMode::kTransient, t[k], dt);
    us += time_us(
        [&] { system.accept(x, AnalysisMode::kTransient, t[k], dt); });
    replayer.record_accept(us);
  }
  return replayer.costs(t.size() - 1);
}

UnitCosts replay_dc_sweep(MnaSystem& system, const Waveform& wave,
                          const std::function<void(double)>& set_param,
                          const NewtonOptions& newton) {
  const std::vector<std::size_t> cols = unknown_columns(system, wave);
  const std::vector<double>& axis = wave.times();
  StateReplayer replayer(system, newton);
  system.reset_devices();
  for (std::size_t k = 0; k < axis.size(); ++k) {
    set_param(axis[k]);
    const Vector x = state_at(wave, cols, k);
    replayer.run(x, AnalysisMode::kDcOperatingPoint, 0.0, 0.0);
    replayer.record_accept(time_us([&] {
      system.accept(x, AnalysisMode::kDcOperatingPoint, 0.0, 0.0);
    }));
  }
  return replayer.costs(axis.size());
}

ReplayResult best_of_pairs(const std::function<ReplayPair()>& pair,
                           const LayerCounts& pass_counts) {
  constexpr int kReplayPairs = 3;
  ReplayResult r;
  double best_busy = kInf;
  r.run_solve_s = kInf;
  r.run_wall_s = kInf;
  for (int i = 0; i < kReplayPairs; ++i) {
    const ReplayPair p = pair();
    const Busy busy = busy_time(p.unit, p.counts);
    if (busy.engine_s + busy.lu_s < best_busy) {
      best_busy = busy.engine_s + busy.lu_s;
      r.unit = p.unit;
      r.run_busy = busy;
    }
    r.run_solve_s = std::min(r.run_solve_s, p.counts.solve_s);
    r.run_wall_s = std::min(r.run_wall_s, p.wall_s);
  }
  r.busy = busy_time(r.unit, pass_counts);
  return r;
}

Busy busy_time(const UnitCosts& unit, const LayerCounts& counts) {
  const spice::NewtonStats& n = counts.newton;
  const double accepts =
      static_cast<double>(counts.accepted_steps + counts.dc_points);
  Busy b;
  b.engine_s =
      1e-6 * (static_cast<double>(n.assembles) * unit.assemble_us +
              static_cast<double>(n.residual_assembles) * unit.residual_us +
              (unit.sparse ? static_cast<double>(counts.solves) *
                                 unit.linear_baseline_us
                           : 0.0) +
              accepts * unit.accept_us);
  b.lu_s = 1e-6 * (static_cast<double>(n.factorizations) * unit.factor_us +
                   static_cast<double>(n.factorization_reuses) *
                       unit.refactor_us +
                   static_cast<double>(n.total_iterations) * unit.solve_us);
  return b;
}

}  // namespace perfbench
