// Unit costs of the engine and LU layers, timed from outside by replaying
// a recorded trajectory through the public MnaSystem / linalg calls.
//
// A replay walks the accepted states of a real run and, at each one,
// calls begin_step -> assemble -> LU (re)factor + solve -> accept, timing
// each call.  Replaying at the initial guess instead would not be
// representative: device evaluation cost depends on the operating state
// (NEMFET contact, MOSFET region), so only the states a run actually
// visits give the costs that run paid.
#pragma once

#include <functional>

#include "harness.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/newton.h"
#include "nemsim/spice/waveform.h"

namespace perfbench {

namespace spice = nemsim::spice;

/// Host time of the fastest call of each replayed layer entry point over
/// all replayed states.  A busy time built from these is a lower bound on
/// the time the run spent in those calls: host contention only ever
/// slows a call down, and on a shared host it moves a run's time by more
/// than the remainder (Newton control, LTE, waveform recording) that
/// busy time is compared with.
struct UnitCosts {
  bool sparse = false;         ///< the path NewtonOptions picks for this n
  std::size_t unknowns = 0;
  std::size_t states = 0;      ///< replayed states
  double assemble_us = 0.0;    ///< full residual + Jacobian assembly
  double residual_us = 0.0;    ///< residual-only assembly
  double linear_baseline_us = 0.0;  ///< linear-device Jacobian (sparse only)
  double accept_us = 0.0;      ///< begin_step + accept of one state
  double factor_us = 0.0;      ///< full factorization (dense LU, or sparse
                               ///< symbolic + numeric)
  double refactor_us = 0.0;    ///< per-iteration refactor (sparse numeric
                               ///< only; dense re-runs the full LU)
  double solve_us = 0.0;       ///< triangular solves for one right-hand side
  double fill_nnz = 0.0;       ///< nonzeros of L+U (n^2 when dense)
};

/// Busy time of the engine and LU layers: counts times unit costs.
struct Busy {
  double engine_s = 0.0;  ///< assembly + linear baseline + step accept
  double lu_s = 0.0;      ///< factorizations + refactors + solves
};
Busy busy_time(const UnitCosts& unit, const LayerCounts& counts);

/// What a workload's replay reports.  The replayed run(s) are timed right
/// before their replay, so their solve time and busy time see the same
/// host speed and can be compared directly.
struct ReplayResult {
  UnitCosts unit;            ///< the representative instance
  Busy busy;                 ///< one pass: its counts x unit costs
  Busy run_busy;             ///< the replayed run(s): counts x unit costs
  double run_solve_s = 0.0;  ///< their phase.op + phase.stepping time
  double run_wall_s = 0.0;   ///< wall time of their analysis calls
};

/// One reference run of a representative instance, timed and counted,
/// followed by the replay of its trajectory.
struct ReplayPair {
  UnitCosts unit;
  LayerCounts counts;      ///< the reference run's RunReport counts
  double wall_s = 0.0;     ///< wall time of its analysis call
};

/// Runs `pair` kReplayPairs times and keeps the fastest reference run and
/// the replay with the least busy time.  Host speed drifts by tens of
/// percent within seconds on a shared machine; the fastest samples of
/// each side are the ones taken at the least contended speed.
/// `pass_counts` scales the chosen unit costs to one pass.
ReplayResult best_of_pairs(const std::function<ReplayPair()>& pair,
                           const LayerCounts& pass_counts);

/// Replays the transient `wave` (every unknown recorded) on `system`.
/// Commits device state along the way, so `system` must not be reused
/// for a measured run without a reset.
UnitCosts replay_transient(spice::MnaSystem& system,
                           const spice::Waveform& wave,
                           const spice::NewtonOptions& newton);

/// Replays the DC sweep `wave` (axis = swept value) on `system`;
/// `set_param` re-applies each swept value before its state is replayed.
UnitCosts replay_dc_sweep(spice::MnaSystem& system,
                          const spice::Waveform& wave,
                          const std::function<void(double)>& set_param,
                          const spice::NewtonOptions& newton);

}  // namespace perfbench
