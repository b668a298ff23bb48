// Chunked warm-start dc_sweep_parallel: bitwise independent of the
// worker count, and on the same curve as cold per-point solves.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/devices/passives.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/dcsweep.h"
#include "nemsim/spice/diagnostics.h"
#include "nemsim/spice/engine.h"
#include "nemsim/tech/cards.h"

namespace nemsim {
namespace {

using devices::Capacitor;
using devices::Mosfet;
using devices::MosPolarity;
using devices::SourceWave;
using devices::VoltageSource;
using spice::Circuit;

/// A CMOS inverter driving a load cap; Vin is the swept source.
Circuit make_inverter() {
  Circuit ckt;
  spice::NodeId vdd = ckt.node("vdd");
  spice::NodeId in = ckt.node("in");
  spice::NodeId out = ckt.node("out");
  ckt.add<VoltageSource>("Vdd", vdd, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<VoltageSource>(
      "Vin", in, ckt.gnd(),
      SourceWave::pulse(0.0, 1.2, 0.3e-9, 30e-12, 30e-12, 0.6e-9));
  ckt.add<Mosfet>("MP", out, in, vdd, MosPolarity::kPmos, tech::pmos_90nm(),
                  0.4e-6, 1e-7);
  ckt.add<Mosfet>("MN", out, in, ckt.gnd(), MosPolarity::kNmos,
                  tech::nmos_90nm(), 0.2e-6, 1e-7);
  ckt.add<Capacitor>("CL", out, ckt.gnd(), 5e-15);
  return ckt;
}

void set_vin(Circuit& ckt, double v) {
  ckt.find<VoltageSource>("Vin").set_wave(SourceWave::dc(v));
}

TEST(DcSweepChunked, ThreadCountIndependent) {
  auto make = []() { return make_inverter(); };
  const std::vector<double> points = spice::linspace(0.0, 1.2, 13);

  spice::DcSweepOptions options;
  options.parallel_chunk = 5;  // 3 chunks: 5 + 5 + 3 points
  const spice::Waveform w1 =
      spice::dc_sweep_parallel(make, set_vin, points, options, 1);
  const spice::Waveform w4 =
      spice::dc_sweep_parallel(make, set_vin, points, options, 4);

  ASSERT_EQ(w1.num_samples(), points.size());
  ASSERT_EQ(w4.num_samples(), points.size());
  for (std::size_t k = 0; k < points.size(); ++k) {
    for (std::size_t s = 0; s < w1.num_signals(); ++s) {
      EXPECT_DOUBLE_EQ(w1.sample(s, k), w4.sample(s, k))
          << w1.signal_names()[s] << " point " << k;
    }
  }
}

TEST(DcSweepChunked, WarmStartMatchesColdWithinTolerance) {
  // The inverter VTC has a unique solution per input, so warm-started
  // chunks must land on the same curve as cold per-point solves.
  auto make = []() { return make_inverter(); };
  const std::vector<double> points = spice::linspace(0.0, 1.2, 13);

  spice::DcSweepOptions cold;
  const spice::Waveform wc =
      spice::dc_sweep_parallel(make, set_vin, points, cold, 2);
  spice::DcSweepOptions warm;
  warm.parallel_chunk = 4;
  const spice::Waveform ww =
      spice::dc_sweep_parallel(make, set_vin, points, warm, 2);

  for (std::size_t k = 0; k < points.size(); ++k) {
    EXPECT_NEAR(wc.sample(wc.signal_index("v(out)"), k),
                ww.sample(ww.signal_index("v(out)"), k), 1e-6)
        << "point " << k;
  }
}

TEST(DcSweepGates, LintSeesTheSweepPeak) {
  // A NEMFET gate swept from 0 V past pull-in: linted at the source's
  // pre-sweep 0 V, the largest supply sits below V_PI and the beam
  // reads as stuck.  The gates check the largest-magnitude point instead.
  const devices::NemsParams card = tech::nems_90nm();
  auto make = [&]() {
    Circuit ckt;
    spice::NodeId d = ckt.node("d");
    spice::NodeId g = ckt.node("g");
    ckt.add<VoltageSource>("Vd", d, ckt.gnd(), SourceWave::dc(0.05));
    ckt.add<VoltageSource>("Vin", g, ckt.gnd(), SourceWave::dc(0.0));
    ckt.add<devices::Nemfet>("X1", d, g, ckt.gnd(), devices::NemsPolarity::kN,
                             card, 1e-6);
    return ckt;
  };
  const std::vector<double> points{0.0, 1.3 * card.analytic_pull_in_voltage()};
  auto stuck = [](const spice::RunReport& r) {
    return std::count_if(r.lint_findings.begin(), r.lint_findings.end(),
                         [](const lint::LintFinding& f) {
                           return f.rule == "pull-in-above-rail";
                         });
  };

  spice::RunReport parallel_report;
  spice::DcSweepOptions options;
  options.report = &parallel_report;
  spice::dc_sweep_parallel(make, set_vin, points, options, 1);
  EXPECT_EQ(stuck(parallel_report), 0);

  Circuit ckt = make();
  spice::MnaSystem system(ckt);
  spice::RunReport sequential_report;
  options.report = &sequential_report;
  spice::dc_sweep(system, [&](double v) { set_vin(ckt, v); }, points,
                  options);
  EXPECT_EQ(stuck(sequential_report), 0);
}

}  // namespace
}  // namespace nemsim
