// sram_column_read: one read of the structural hybrid SRAM column at one
// thread -- core::build_sram_column, then lint -> analyze -> compile, then
// the read transient.  One large sparse system in which the idle NEMFETs
// dominate assembly and the sparse LU carries the fill.
//
// The column is built directly, not exported and re-parsed: the exported
// hybrid bitcell does not seed its beams from the stored value, so a
// parsed hybrid column settles at vdd/2.
#include <string>

#include "nemsim/core/sram.h"
#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/analyze.h"
#include "nemsim/spice/compile.h"
#include "nemsim/spice/lint.h"
#include "nemsim/spice/measure.h"
#include "nemsim/tech/cards.h"
#include "nemsim/util/error.h"
#include "references.h"
#include "workloads.h"

namespace perfbench {

namespace {

using nemsim::core::SramColumn;
using nemsim::core::SramColumnConfig;
using nemsim::devices::MosPolarity;
using nemsim::devices::Mosfet;
using nemsim::devices::SourceWave;
using nemsim::devices::VoltageSource;
using nemsim::spice::Circuit;
using nemsim::spice::CompiledCircuit;
using nemsim::spice::Waveform;

// The read bench of core::measure_column_read_latency_structural: bitline
// precharge switched off at 0.2 ns, wordline rising at 0.4 ns, 3 ns run,
// latency to a 0.1 V bitline differential.
constexpr double kPrechargeOff = 0.2e-9;
constexpr double kWordlineRise = 0.4e-9;
constexpr double kTstop = 3e-9;
constexpr double kSenseMargin = 0.1;
/// Column height: 64 idle NEMFETs, n = 168 unknowns, ~2.5 s per read.
constexpr std::size_t kCells = 16;

void dress_read_bench(Circuit& ckt, double vdd, double l) {
  auto pc = ckt.node("pc");
  ckt.add<Mosfet>("Mpcl", ckt.find_node("bl"), pc, ckt.find_node("vdd"),
                  MosPolarity::kPmos, nemsim::tech::pmos_90nm(), 1e-6, l);
  ckt.add<Mosfet>("Mpcr", ckt.find_node("blb"), pc, ckt.find_node("vdd"),
                  MosPolarity::kPmos, nemsim::tech::pmos_90nm(), 1e-6, l);
  ckt.add<VoltageSource>(
      "Vpc", pc, ckt.gnd(),
      SourceWave::pulse(0.0, vdd, kPrechargeOff, 20e-12, 20e-12, 1.0));
  ckt.find<VoltageSource>("Vwl").set_wave(
      SourceWave::pulse(0.0, vdd, kWordlineRise, 20e-12, 20e-12, 1.0));
}

/// Time from the wordline's 50 % crossing until the reference bitline
/// leads the read bitline by the sense margin.
double sense_latency(const Waveform& wave, double vdd, bool stored_one) {
  const std::string read_bl = stored_one ? "v(blb)" : "v(bl)";
  const std::string ref_bl = stored_one ? "v(bl)" : "v(blb)";
  const double t_wl = nemsim::spice::cross_time(wave, "v(wl)", 0.5 * vdd,
                                                nemsim::spice::Edge::kRising);
  const std::size_t s_read = wave.signal_index(read_bl);
  const std::size_t s_ref = wave.signal_index(ref_bl);
  const auto& ts = wave.times();
  for (std::size_t k = 1; k < ts.size(); ++k) {
    if (ts[k] < t_wl) continue;
    const double diff = wave.sample(s_ref, k) - wave.sample(s_read, k);
    if (diff >= kSenseMargin) {
      const double d0 =
          wave.sample(s_ref, k - 1) - wave.sample(s_read, k - 1);
      const double frac = (kSenseMargin - d0) / (diff - d0);
      return ts[k - 1] + frac * (ts[k] - ts[k - 1]) - t_wl;
    }
  }
  throw nemsim::MeasurementError("column read: sense margin never reached");
}

class SramColumnRead final : public Workload {
 public:
  explicit SramColumnRead(const RunConfig& config) {
    // The seed picks the accessed row and the value it stores; every idle
    // cell stores the opposite value (the worst case for a read).
    const std::uint64_t s = mix64(config.seed);
    config_.cell.kind = nemsim::core::SramKind::kHybrid;
    config_.n_cells = kCells;
    config_.active_cell = s % kCells;
    config_.cell.stored_one = ((s >> 32) & 1) != 0;
  }

  PassRecord run_pass(Tracer* tracer, LayerCounts* counts,
                      Checks& checks) override {
    PassRecord pass;
    const std::uint64_t item = ++item_id_;
    Tracer::Span item_span(tracer, "column.read", item);
    const auto t_pass = Clock::now();
    try {
      CompiledCircuit cc = set_up(tracer, item, checks);
      pass.setup_s = seconds_since(t_pass);
      const auto t_read = Clock::now();
      nemsim::spice::RunReport report;
      const Waveform wave = [&] {
        Tracer::Span span(tracer, "spice.run_transient", item);
        return cc.run_transient(read_options(counts ? &report : nullptr));
      }();
      const double latency = [&] {
        Tracer::Span span(tracer, "measure.extract", item);
        return sense_latency(wave, config_.cell.vdd, config_.cell.stored_one);
      }();
      pass.item_ms.push_back(seconds_since(t_read) * 1e3);
      if (counts) {
        counts->add(report);
        counts->sim_ns += kTstop * 1e9;
      }
      check_latency(latency, checks);
      last_latency_ = latency;
    } catch (const nemsim::Error& e) {
      checks.check(false, std::string("column read: ") + e.what());
    }
    pass.wall_s = seconds_since(t_pass);
    return pass;
  }

  double setup_only() override {
    Checks unused;
    const auto t0 = Clock::now();
    CompiledCircuit cc = set_up(nullptr, 0, unused);
    return seconds_since(t0);
  }

  void run_once_checks(Checks& checks) override {
    // The benchmark's compiled read must agree with the library's own
    // structural column read on the same configuration.
    try {
      const double library =
          nemsim::core::measure_column_read_latency_structural(config_,
                                                               kSenseMargin);
      checks.near(last_latency_, library, kDcTol,
                  "column read vs measure_column_read_latency_structural");
    } catch (const nemsim::Error& e) {
      checks.check(false, std::string("column cross-check: ") + e.what());
    }
  }

  ReplayResult replay(const LayerCounts& pass_counts) override {
    return best_of_pairs(
        [&] {
          Checks unused;
          CompiledCircuit cc = set_up(nullptr, 0, unused);
          nemsim::spice::RunReport report;
          ReplayPair p;
          const auto t0 = Clock::now();
          const Waveform wave = cc.run_transient(read_options(&report));
          p.wall_s = seconds_since(t0);
          p.counts.add(report);
          p.unit = replay_transient(cc.system(), wave, config_.cell.newton);
          return p;
        },
        pass_counts);
  }

  double sim_seconds_per_pass() const override { return kTstop; }

 private:
  /// Circuit build, lint, analyze and compile, each in its own span, then
  /// the stored-state nodesets on the compiled system.
  CompiledCircuit set_up(Tracer* tracer, std::uint64_t item, Checks& checks) {
    SramColumn col = [&] {
      Tracer::Span span(tracer, "core.build", item);
      SramColumn c = nemsim::core::build_sram_column(config_);
      dress_read_bench(c.ckt(), config_.cell.vdd, config_.cell.l);
      return c;
    }();
    {
      Tracer::Span span(tracer, "spice.lint", item);
      const auto report = nemsim::lint::lint_circuit(col.ckt());
      checks.check(!report.has_errors(), "column lint reports errors");
    }
    {
      Tracer::Span span(tracer, "spice.analyze", item);
      const auto report = nemsim::analyze::analyze_circuit(col.ckt());
      checks.check(!report.findings.has_errors(),
                   "column analyze reports errors");
    }
    nemsim::spice::CompileOptions options;
    options.newton = config_.cell.newton;
    options.lint = nemsim::lint::LintMode::kOff;     // ran above
    options.analyze = nemsim::lint::LintMode::kOff;  // ran above
    CompiledCircuit cc = [&] {
      Tracer::Span span(tracer, "spice.compile", item);
      return nemsim::spice::compile(std::move(col.ckt()), options);
    }();
    nemsim::core::nodeset_column_state(cc.system(), col);
    Circuit& ckt = cc.circuit();
    cc.system().set_nodeset(ckt.find_node("bl"), config_.cell.vdd);
    cc.system().set_nodeset(ckt.find_node("blb"), config_.cell.vdd);
    return cc;
  }

  static nemsim::spice::TransientOptions read_options(
      nemsim::spice::RunReport* report = nullptr) {
    nemsim::spice::TransientOptions options;
    options.tstop = kTstop;
    options.dt_initial = 1e-13;
    options.report = report;
    return options;
  }

  void check_latency(double latency, Checks& checks) const {
    checks.near(latency, kColumnReadLatency, kTransientTol,
                "column read latency");
  }

  SramColumnConfig config_;
  std::uint64_t item_id_ = 0;
  double last_latency_ = 0.0;  ///< latency of the last successful read
};

}  // namespace

std::unique_ptr<Workload> make_sram_column_read(const RunConfig& config) {
  return std::make_unique<SramColumnRead>(config);
}

}  // namespace perfbench
