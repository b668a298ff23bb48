// sram_mc_snm: Monte-Carlo read SNM of the hybrid 6T cell under 6 %
// sigma_Vth/mu_Vth, through compile() + variation::monte_carlo_batch.
// Per trial: two dense 19-unknown half-cell testbenches, each a 121-point
// DC sweep, then the butterfly SNM.  Thousands of tiny operating points:
// per-point overhead, overlays and dense LU do the work; transient and
// sparse LU do none.  The only workload offered more than one thread.
#include <cmath>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "nemsim/core/sram.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/compile.h"
#include "nemsim/spice/dcsweep.h"
#include "nemsim/spice/engine.h"
#include "nemsim/util/error.h"
#include "nemsim/util/rng.h"
#include "nemsim/variation/montecarlo.h"
#include "references.h"
#include "workloads.h"

namespace perfbench {

namespace {

using nemsim::core::SramCell;
using nemsim::spice::Circuit;
using nemsim::spice::CompiledCircuit;

constexpr std::size_t kPoints = 121;
constexpr double kSigma = 0.06;

nemsim::core::SramConfig hybrid_cell() {
  nemsim::core::SramConfig config;
  config.kind = nemsim::core::SramKind::kHybrid;
  return config;
}

/// One half-cell butterfly testbench in the read condition (wordline
/// high, bitlines at vdd) with storage node QL or QR driven by "Vsweep".
Circuit make_half_cell(bool drive_ql) {
  const nemsim::core::SramConfig config = hybrid_cell();
  nemsim::core::SramBenchMode mode;
  mode.drive_bitlines = true;
  mode.wordline = config.vdd;
  SramCell cell = nemsim::core::build_sram_cell(config, mode);
  Circuit ckt = std::move(cell.ckt());
  ckt.add<nemsim::devices::VoltageSource>(
      "Vsweep", ckt.find_node(drive_ql ? SramCell::kQl : SramCell::kQr),
      ckt.gnd(), nemsim::devices::SourceWave::dc(0.0));
  return ckt;
}

const char* sensed_signal(bool drive_ql) {
  return drive_ql ? "v(Xcell.qr)" : "v(Xcell.ql)";
}

CompiledCircuit build_and_compile(bool drive_ql, Tracer* tracer,
                                  std::uint64_t item) {
  Circuit ckt = [&] {
    Tracer::Span span(tracer, "core.build", item);
    return make_half_cell(drive_ql);
  }();
  Tracer::Span span(tracer, "spice.compile", item);
  nemsim::spice::CompileOptions options;
  options.newton = hybrid_cell().newton;
  return nemsim::spice::compile(std::move(ckt), options);
}

/// Overlay patch that gives `to` the threshold shifts currently installed
/// in `from` (both testbenches register their devices in the same order).
/// Throws when either bank lacks a threshold column or the two differ in
/// length: the reverse testbench would then miss part of the draw.
nemsim::spice::ParamPatch copy_vth_columns(nemsim::spice::ParamBank& from,
                                           nemsim::spice::ParamBank& to) {
  nemsim::spice::ParamPatch patch;
  for (const char* name : {"mos.vth_shift", "nems.vth_shift"}) {
    const std::size_t src = from.find_column(name);
    const std::size_t dst = to.find_column(name);
    if (src == nemsim::spice::ParamBank::npos ||
        dst == nemsim::spice::ParamBank::npos ||
        from.column_values(src).size() != to.column_values(dst).size()) {
      throw nemsim::InvalidArgument(
          std::string("copy_vth_columns: half-cell banks disagree on ") +
          name);
    }
    const std::vector<double>& values = from.column_values(src);
    for (std::size_t row = 0; row < values.size(); ++row) {
      patch.push_back({{static_cast<std::uint32_t>(dst),
                        static_cast<std::uint32_t>(row)},
                       values[row]});
    }
  }
  return patch;
}

class SramMcSnm final : public Workload {
 public:
  explicit SramMcSnm(const RunConfig& config)
      : seed_(config.seed),
        trials_(config.trials),
        threads_(config.threads),
        points_(nemsim::spice::linspace(0.0, hybrid_cell().vdd, kPoints)) {}

  PassRecord run_pass(Tracer* tracer, LayerCounts* counts,
                      Checks& checks) override {
    PassRecord pass;
    const auto t_pass = Clock::now();
    const std::uint64_t setup_item = ++item_id_;
    CompiledCircuit fwd = [&] {
      Tracer::Span span(tracer, "mc.setup", setup_item);
      CompiledCircuit cc = build_and_compile(true, tracer, setup_item);
      workers_.clear();
      worker(tracer, setup_item);  // the calling thread's reverse testbench
      return cc;
    }();
    pass.setup_s = seconds_since(t_pass);

    nemsim::variation::MonteCarloOptions options;
    options.trials = trials_;
    options.seed = seed_;
    options.sigma_fraction = kSigma;
    options.num_threads = threads_;
    const std::uint64_t first_item = item_id_ + 1;
    item_id_ += trials_;
    nemsim::variation::MonteCarloResult result;
    try {
      result = nemsim::variation::monte_carlo_batch(
          fwd,
          [&](CompiledCircuit& cc) {
            return trial(cc, tracer, counts != nullptr, first_item);
          },
          options);
    } catch (const nemsim::Error& e) {
      checks.check(false, std::string("monte_carlo_batch: ") + e.what());
    }
    for (const auto& [id, w] : workers_) {
      (void)id;
      pass.item_ms.insert(pass.item_ms.end(), w->item_ms.begin(),
                          w->item_ms.end());
      if (counts) {
        counts->add(w->report);
      }
    }
    check_samples(result, checks);
    if (result.failures == 0 && !result.samples.empty()) {
      first_sample_ = result.samples.front();
    }
    pass.wall_s = seconds_since(t_pass);
    return pass;
  }

  double setup_only() override {
    const auto t0 = Clock::now();
    CompiledCircuit fwd = build_and_compile(true, nullptr, 0);
    CompiledCircuit rev = build_and_compile(false, nullptr, 0);
    return seconds_since(t0);
  }

  void run_once_checks(Checks& checks) override {
    // Trial 0 of the batch (forward overlay from monte_carlo_batch, copied
    // into the reverse testbench) must match the same draw applied to
    // freshly built circuits on both sides.
    try {
      checks.check(first_sample_.has_value(), "no trial-0 SNM recorded");
      if (first_sample_) {
        checks.near(*first_sample_, rebuilt_trial0_snm(), kDcTol,
                    "trial 0 SNM vs rebuilt circuits");
      }
    } catch (const nemsim::Error& e) {
      checks.check(false, std::string("rebuilt trial 0: ") + e.what());
    }
    // Without variation, the trial metric on the compiled testbenches must
    // match the library's own butterfly, and that the pinned nominal SNM.
    try {
      const double library =
          nemsim::core::measure_butterfly(hybrid_cell(), kPoints).snm;
      CompiledCircuit fwd = build_and_compile(true, nullptr, 0);
      workers_.clear();
      const double ours = trial(fwd, nullptr, false, 0);
      checks.near(ours, library, kDcTol, "nominal SNM vs measure_butterfly");
      checks.near(library, kNominalSnm, kDcTol, "nominal SNM");
    } catch (const nemsim::Error& e) {
      checks.check(false, std::string("nominal SNM: ") + e.what());
    }
  }

  ReplayResult replay(const LayerCounts& pass_counts) override {
    // Representative instance: the forward half-cell sweep of trial 0; the
    // reverse testbench has the same size and device mix.
    return best_of_pairs(
        [&] {
          CompiledCircuit fwd = build_and_compile(true, nullptr, 0);
          nemsim::Rng stream = nemsim::Rng(seed_).child(0);
          fwd.set_overlay(nemsim::variation::vth_variation_patch(
              fwd.circuit(), kSigma, stream));
          auto& vsweep =
              fwd.circuit().find<nemsim::devices::VoltageSource>("Vsweep");
          const auto set = [&](double v) { vsweep.set_dc(v); };
          nemsim::spice::DcSweepOptions options;
          nemsim::spice::RunReport report;
          options.report = &report;
          ReplayPair p;
          const auto t0 = Clock::now();
          const nemsim::spice::Waveform wave =
              fwd.run_dc_sweep(set, points_, options);
          p.wall_s = seconds_since(t0);
          p.counts.add(report);
          p.unit =
              replay_dc_sweep(fwd.system(), wave, set, hybrid_cell().newton);
          return p;
        },
        pass_counts);
  }

  std::size_t threads() const override { return threads_; }
  std::size_t dc_points_per_pass() const override {
    return 2 * trials_ * kPoints;
  }

 private:
  /// Per-thread state: a reverse testbench compiled by and for one
  /// thread, its RunReports and its trial timings.
  struct Worker {
    explicit Worker(CompiledCircuit r) : rev(std::move(r)) {}
    CompiledCircuit rev;
    nemsim::spice::RunReport report;  ///< accumulates over the pass
    std::vector<double> item_ms;
  };

  Worker& worker(Tracer* tracer, std::uint64_t item) {
    const std::thread::id id = std::this_thread::get_id();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = workers_.find(id);
      if (it != workers_.end()) return *it->second;
    }
    auto w =
        std::make_unique<Worker>(build_and_compile(false, tracer, item));
    std::lock_guard<std::mutex> lock(mutex_);
    return *workers_.emplace(id, std::move(w)).first->second;
  }

  /// Trial 0's SNM the uncompiled way: both half-cells built afresh, the
  /// draw applied to the devices with apply_vth_variation, plain dc_sweep.
  double rebuilt_trial0_snm() const {
    std::vector<double> curves[2];
    for (int side = 0; side < 2; ++side) {
      const bool drive_ql = side == 0;
      Circuit ckt = make_half_cell(drive_ql);
      nemsim::Rng stream = nemsim::Rng(seed_).child(0);
      nemsim::variation::apply_vth_variation(ckt, kSigma, stream);
      nemsim::spice::MnaSystem system(ckt);
      auto& vsweep = ckt.find<nemsim::devices::VoltageSource>("Vsweep");
      nemsim::spice::DcSweepOptions options;
      options.newton = hybrid_cell().newton;
      const nemsim::spice::Waveform wave = nemsim::spice::dc_sweep(
          system, [&](double v) { vsweep.set_dc(v); }, points_, options);
      curves[side] = wave.series(sensed_signal(drive_ql));
    }
    return nemsim::core::extract_snm(points_, curves[0], curves[1]);
  }

  /// The trial metric.  It touches only the compiled forward testbench it
  /// is handed and state owned by the calling thread, so a Monte-Carlo
  /// runner may call it from several threads at once.
  double trial(CompiledCircuit& fwd, Tracer* tracer, bool traced,
               std::uint64_t first_item) {
    const auto t0 = Clock::now();
    Worker& w = worker(tracer, first_item);
    const std::uint64_t item = first_item + w.item_ms.size();
    Tracer::Span trial_span(tracer, "mc.trial", item);
    {
      Tracer::Span span(tracer, "spice.set_overlay", item);
      w.rev.set_overlay(copy_vth_columns(fwd.params(), w.rev.params()));
    }
    std::vector<double> curves[2];
    CompiledCircuit* sides[2] = {&fwd, &w.rev};
    for (int side = 0; side < 2; ++side) {
      CompiledCircuit& cc = *sides[side];
      auto& vsweep =
          cc.circuit().find<nemsim::devices::VoltageSource>("Vsweep");
      nemsim::spice::DcSweepOptions options;
      if (traced) options.report = &w.report;
      const nemsim::spice::Waveform wave = [&] {
        Tracer::Span span(tracer, "spice.run_dc_sweep", item);
        return cc.run_dc_sweep([&](double v) { vsweep.set_dc(v); }, points_,
                               options);
      }();
      Tracer::Span span(tracer, "measure.extract", item);
      curves[side] = wave.series(sensed_signal(side == 0));
    }
    double snm = 0.0;
    {
      Tracer::Span span(tracer, "measure.extract", item);
      snm = nemsim::core::extract_snm(points_, curves[0], curves[1]);
    }
    w.item_ms.push_back(seconds_since(t0) * 1e3);
    return snm;
  }

  void check_samples(const nemsim::variation::MonteCarloResult& result,
                     Checks& checks) const {
    checks.check(result.failures == 0,
                 std::to_string(result.failures) + " trials threw");
    for (std::size_t i = 0; i < result.samples.size(); ++i) {
      checks.check(result.samples[i] > 0.0,
                   "trial " + std::to_string(i) + ": SNM not positive");
    }
    const std::size_t n = result.samples.size();
    if (n < 2) {
      checks.check(false, "fewer than two SNM samples");
      return;
    }
    // Five standard errors of the sample mean and sample sigma, plus the
    // DC tolerance on each sample.
    const SnmRef& ref = kSnmRef;
    const double nn = static_cast<double>(n);
    const double mean_tol =
        5.0 * ref.sigma_v / std::sqrt(nn) + kDcTol * ref.mean_v;
    const double sigma_tol = 5.0 * ref.sigma_v / std::sqrt(2.0 * (nn - 1.0)) +
                             kDcTol * ref.mean_v;
    checks.near(result.stats.mean(), ref.mean_v, mean_tol / ref.mean_v,
                "SNM mean");
    checks.near(result.stats.stddev(), ref.sigma_v, sigma_tol / ref.sigma_v,
                "SNM sigma");
  }

  std::uint64_t seed_;
  std::size_t trials_;
  std::size_t threads_;
  std::vector<double> points_;
  std::uint64_t item_id_ = 0;
  std::optional<double> first_sample_;  ///< trial 0's SNM, last pass
  std::mutex mutex_;  // guards workers_
  std::map<std::thread::id, std::unique_ptr<Worker>> workers_;
};

}  // namespace

std::unique_ptr<Workload> make_sram_mc_snm(const RunConfig& config) {
  return std::make_unique<SramMcSnm>(config);
}

}  // namespace perfbench
