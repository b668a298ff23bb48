// NEMFET electromechanical model tests: pull-in/pull-out physics,
// hysteresis, Table 1 calibration, and transient switching.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "nemsim/devices/ekv.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/devices/passives.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/dcsweep.h"
#include "nemsim/spice/diagnostics.h"
#include "nemsim/spice/measure.h"
#include "nemsim/spice/op.h"
#include "nemsim/spice/transient.h"
#include "nemsim/tech/cards.h"
#include "nemsim/tech/characterize.h"
#include "nemsim/util/units.h"

namespace nemsim {
namespace {

using namespace nemsim::literals;
namespace ekv = devices::ekv;
using devices::Nemfet;
using devices::NemsParams;
using devices::NemsPolarity;
using devices::SourceWave;
using devices::VoltageSource;
using spice::Circuit;
using spice::MnaSystem;

// ------------------------------------------------------- analytic checks

TEST(NemsParams, PullInNearHalfVolt) {
  const NemsParams p = tech::nems_90nm();
  EXPECT_GT(p.analytic_pull_in_voltage(), 0.3);
  EXPECT_LT(p.analytic_pull_in_voltage(), 0.6);
}

TEST(NemsParams, PullOutBelowPullIn) {
  const NemsParams p = tech::nems_90nm();
  EXPECT_LT(p.analytic_pull_out_voltage(), p.analytic_pull_in_voltage());
  EXPECT_GT(p.analytic_pull_out_voltage(), 0.0);
}

TEST(NemfetModel, ForceIncreasesWithVoltageAndDisplacement) {
  const NemsParams p = tech::nems_90nm();
  Nemfet x("X", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
           NemsPolarity::kN, p, 1.0_um);
  const double f1 = x.electrostatic_force(0.3, 0.0);
  const double f2 = x.electrostatic_force(0.6, 0.0);
  EXPECT_NEAR(f2 / f1, 4.0, 1e-9);  // F ~ V^2
  const double f3 = x.electrostatic_force(0.3, 1.0_nm);
  EXPECT_GT(f3, f1);  // closing the gap raises the force
}

TEST(NemfetModel, ContactForceOnlyNearStop) {
  const NemsParams p = tech::nems_90nm();
  Nemfet x("X", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
           NemsPolarity::kN, p, 1.0_um);
  EXPECT_LT(x.contact_force(0.0), 1e-15);
  EXPECT_GT(x.contact_force(p.gap0 + 0.1_nm), 1e-7);
}

TEST(NemfetModel, ChannelOffWhenUpOnWhenDown) {
  const NemsParams p = tech::nems_90nm();
  Nemfet x("X", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
           NemsPolarity::kN, p, 1.0_um);
  const double i_up = x.drain_current(1.2, 1.2, 0.0);
  const double i_down = x.drain_current(1.2, 1.2, p.gap0);
  EXPECT_GT(i_down / i_up, 1e5);
}

TEST(NemfetModel, GateCapRisesAsGapCloses) {
  const NemsParams p = tech::nems_90nm();
  Nemfet x("X", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
           NemsPolarity::kN, p, 1.0_um);
  EXPECT_GT(x.gate_capacitance(p.gap0), 3.0 * x.gate_capacitance(0.0));
}

// ------------------------------------------- static equilibrium (DC beam)

/// Beam cards in the style of the fuzz generator: the 90 nm card plus
/// variants that move the gap, stiffness, area, gate stack and the
/// softplus widths, so every memo key field changes somewhere.
std::vector<NemsParams> beam_cards() {
  std::vector<NemsParams> cards;
  const NemsParams base = tech::nems_90nm();
  cards.push_back(base);
  NemsParams wide_gap = base;
  wide_gap.gap0 = 3e-9;
  wide_gap.spring_k = 5.0;
  cards.push_back(wide_gap);
  NemsParams big_plate = base;
  big_plate.area = 3e-14;
  big_plate.spring_k = 14.0;
  big_plate.contact_k = 5e4;
  cards.push_back(big_plate);
  NemsParams high_k = base;
  high_k.tox = 2e-9;
  high_k.eps_ox = 7.0;
  high_k.gap_softness = 3e-11;
  high_k.contact_softness = 3e-11;
  cards.push_back(high_k);
  NemsParams narrow_gap = base;
  narrow_gap.gap0 = 1.5e-9;
  narrow_gap.spring_k = 11.0;
  cards.push_back(narrow_gap);
  return cards;
}

/// The plain scan + bisection the static equilibrium was defined by:
/// residual k x + Fc(x) - Fe(|v|, x) evaluated directly at all 257 grid
/// points, 80 bisection steps per bracketed stable root, the root
/// closest to the beam's position kept.  The memoized helper must match
/// it bit for bit.
Nemfet::StaticEq reference_static_equilibrium(const Nemfet& dev,
                                              double v_abs) {
  const NemsParams& p = dev.params();
  const double sw = dev.width() / p.w_ref;
  const double k = p.spring_k * sw;
  const double x_state = dev.position();
  auto residual = [&](double x) {
    return k * x + dev.contact_force(x) - dev.electrostatic_force(v_abs, x);
  };
  double x_hi = p.gap0;
  for (int i = 0; i < 200 && residual(x_hi) <= 0.0; ++i) {
    x_hi += 0.05 * p.gap0;
  }
  constexpr int kScanPoints = 256;
  std::vector<double> roots;
  double x_prev = 0.0;
  double r_prev = residual(0.0);
  if (r_prev == 0.0) roots.push_back(0.0);
  for (int i = 1; i <= kScanPoints; ++i) {
    const double xx = x_hi * static_cast<double>(i) / kScanPoints;
    const double rr = residual(xx);
    if (r_prev < 0.0 && rr >= 0.0) {
      double lo = x_prev, hi = xx;
      for (int it = 0; it < 80; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (residual(mid) < 0.0) lo = mid; else hi = mid;
      }
      roots.push_back(0.5 * (lo + hi));
    }
    x_prev = xx;
    r_prev = rr;
  }
  Nemfet::StaticEq eq{0.0, 0.0};
  if (roots.empty()) return eq;
  eq.x = roots.front();
  for (double root : roots) {
    if (std::abs(root - x_state) < std::abs(eq.x - x_state)) eq.x = root;
  }
  const double d = dev.air_gap(eq.x) + p.tox / p.eps_ox;
  const double fe = dev.electrostatic_force(v_abs, eq.x);
  const double dga = -ekv::sigmoid((p.gap0 - eq.x) / p.gap_softness);
  const double dfe = -2.0 * fe / d * dga;
  const double dfc =
      p.contact_k * sw * ekv::sigmoid((eq.x - p.gap0) / p.contact_softness);
  const double a = p.area * sw;
  const double dfe_dv = phys::kEps0 * a * v_abs / (d * d);
  eq.dx_dv = dfe_dv / std::max(k + dfc - dfe, 1e-3 * k);
  return eq;
}

/// One device per (card, width, branch) — the branch memory is the
/// position the beam starts at: up (0) or in contact (gap0).
std::deque<Nemfet> equilibrium_devices() {
  std::deque<Nemfet> devs;
  for (const NemsParams& p : beam_cards()) {
    for (double w : {2.4e-7, 1e-6}) {
      for (bool closed : {false, true}) {
        Nemfet& d = devs.emplace_back("X", spice::NodeId{1}, spice::NodeId{2},
                                      spice::NodeId{0}, NemsPolarity::kN, p,
                                      w);
        if (closed) d.set_initially_closed();
      }
    }
  }
  return devs;
}

/// |v| from 0 through 3x pull-in, plus both analytic fold voltages.  The
/// top of the range presses the beam past the stop, so the scan bound
/// walks beyond gap0 and the memo sees several bounds per geometry.
std::vector<double> actuation_points(const NemsParams& p) {
  const double vpi = p.analytic_pull_in_voltage();
  std::vector<double> v = spice::linspace(0.0, 3.0 * vpi, 46);
  v.push_back(vpi);
  v.push_back(p.analytic_pull_out_voltage());
  return v;
}

void expect_same_equilibrium(const Nemfet::StaticEq& got,
                             const Nemfet::StaticEq& want, double v_abs) {
  EXPECT_EQ(got.x, want.x) << "|v| = " << v_abs;
  EXPECT_EQ(got.dx_dv, want.dx_dv) << "|v| = " << v_abs;
}

TEST(NemfetStaticEquilibrium, BitwiseEqualToPlainScan) {
  const std::deque<Nemfet> devs = equilibrium_devices();
  ASSERT_EQ(devs.size(), 20u);
  // Device-major: each geometry's walked bounds fill the memo in turn.
  for (const Nemfet& dev : devs) {
    // A root past the stop means the residual at gap0 was negative, so
    // the upper scan bound walked.
    const double v_top = 3.0 * dev.params().analytic_pull_in_voltage();
    EXPECT_GT(dev.static_equilibrium(v_top).x, dev.params().gap0);
    for (double v : actuation_points(dev.params())) {
      expect_same_equilibrium(dev.static_equilibrium(v),
                              reference_static_equilibrium(dev, v), v);
    }
  }
  // Bias-major: consecutive calls cycle through all 10 geometries (more
  // than the memo's 8 ways), so entries are evicted and rebuilt.
  for (std::size_t i = 0; i < actuation_points(devs[0].params()).size(); ++i) {
    for (const Nemfet& dev : devs) {
      const double v = actuation_points(dev.params())[i];
      expect_same_equilibrium(dev.static_equilibrium(v),
                              reference_static_equilibrium(dev, v), v);
    }
  }
}

TEST(NemfetStaticEquilibrium, BranchMemorySelectsUpOrContactRoot) {
  for (const NemsParams& p : beam_cards()) {
    Nemfet up("X", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
              NemsPolarity::kN, p, 1e-6);
    Nemfet down("X", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
                NemsPolarity::kN, p, 1e-6);
    down.set_initially_closed();
    // Just below pull-in both branches are stable (the model's release
    // voltage sits well under 0.9 V_PI on every card).
    const double v = 0.9 * p.analytic_pull_in_voltage();
    EXPECT_LT(up.static_equilibrium(v).x, 0.5 * p.gap0);
    EXPECT_GT(down.static_equilibrium(v).x, 0.5 * p.gap0);
  }
}

TEST(NemfetStaticEquilibrium, ThreadsSeeTheSingleThreadResults) {
  const std::deque<Nemfet> devs = equilibrium_devices();
  auto run = [&](std::size_t first, std::size_t last) {
    std::vector<Nemfet::StaticEq> out;
    for (int pass = 0; pass < 3; ++pass) {
      for (std::size_t i = first; i < last; ++i) {
        for (double v : actuation_points(devs[i].params())) {
          out.push_back(devs[i].static_equilibrium(v));
        }
      }
    }
    return out;
  };
  const std::size_t half = devs.size() / 2;
  const std::vector<Nemfet::StaticEq> want_a = run(0, half);
  const std::vector<Nemfet::StaticEq> want_b = run(half, devs.size());
  std::vector<Nemfet::StaticEq> got_a, got_b;
  std::thread ta([&] { got_a = run(0, half); });
  std::thread tb([&] { got_b = run(half, devs.size()); });
  ta.join();
  tb.join();
  auto expect_same = [](const std::vector<Nemfet::StaticEq>& got,
                        const std::vector<Nemfet::StaticEq>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].x, want[i].x) << "call " << i;
      EXPECT_EQ(got[i].dx_dv, want[i].dx_dv) << "call " << i;
    }
  };
  expect_same(got_a, want_a);
  expect_same(got_b, want_b);
}

// ------------------------------------------------- DC sweep / hysteresis

/// Pull-in and pull-out voltages of one NEMFET from a DC up/down sweep
/// of the gate: the midpoints of the steps where the beam crosses half
/// the gap.  Also counts the sweeps' "pull-in-above-rail" lint findings.
struct Folds {
  double pull_in = -1.0;
  double pull_out = -1.0;
  std::size_t stuck_beam_findings = 0;
};

Folds hysteresis_folds(const NemsParams& p) {
  Circuit ckt;
  spice::NodeId d = ckt.node("d");
  spice::NodeId g = ckt.node("g");
  ckt.add<VoltageSource>("Vd", d, ckt.gnd(), SourceWave::dc(0.05));
  auto& vg = ckt.add<VoltageSource>("Vg", g, ckt.gnd(), SourceWave::dc(0.0));
  ckt.add<Nemfet>("X1", d, g, ckt.gnd(), NemsPolarity::kN, p, 1e-6);
  MnaSystem system(ckt);
  // Warn-mode lint (the default) checks the circuit at the sweep's
  // largest gate voltage, above V_PI, so the beam is not stuck.
  spice::RunReport report;
  spice::DcSweepOptions options;
  options.report = &report;
  auto set_gate = [&](double v) { vg.set_dc(v); };
  const double vmax = 1.3 * p.analytic_pull_in_voltage();
  const std::vector<double> up = spice::linspace(0.0, vmax, 801);
  const std::vector<double> down = spice::linspace(vmax, 0.0, 801);
  const std::vector<double> x_up =
      spice::dc_sweep(system, set_gate, up, options).series("X1.x");
  const std::vector<double> x_down =
      spice::dc_sweep(system, set_gate, down, options).series("X1.x");
  Folds f;
  f.stuck_beam_findings = static_cast<std::size_t>(std::count_if(
      report.lint_findings.begin(), report.lint_findings.end(),
      [](const lint::LintFinding& lf) {
        return lf.rule == "pull-in-above-rail";
      }));
  for (std::size_t i = 1; i < up.size() && f.pull_in < 0.0; ++i) {
    if (x_up[i] > 0.5 * p.gap0) f.pull_in = 0.5 * (up[i - 1] + up[i]);
  }
  for (std::size_t i = 1; i < down.size() && f.pull_out < 0.0; ++i) {
    if (x_down[i] < 0.5 * p.gap0) f.pull_out = 0.5 * (down[i - 1] + down[i]);
  }
  return f;
}

TEST(NemfetCharacterize, HysteresisSweepMatchesAnalyticFolds) {
  for (const NemsParams& p : beam_cards()) {
    const double vpi = p.analytic_pull_in_voltage();
    const double vpo = p.analytic_pull_out_voltage();
    const Folds f = hysteresis_folds(p);
    SCOPED_TRACE("gap0 " + std::to_string(p.gap0) + " k " +
                 std::to_string(p.spring_k));
    EXPECT_EQ(f.stuck_beam_findings, 0u);
    // Pull-in happens with the beam a third of the way down, far from
    // the soft stop, so the parallel-plate limit holds to the sweep's
    // resolution (0.16 % of V_PI per step).
    EXPECT_NEAR(f.pull_in, vpi, 0.01 * vpi);
    // Pull-out: the softplus stop holds the beam a few softness widths
    // short of the oxide, so the residual air gap weakens the holding
    // force and release comes above the ideal-contact limit.
    ASSERT_GT(f.pull_out, vpo);
    EXPECT_LT(f.pull_out, f.pull_in);
    // The sweep releases where the model says it does, to one sweep step
    // (measured within 0.4 of one): the near-contact minimum of the
    // equilibrium curve, which the analyzer's never-releases and
    // hysteresis-latched verdicts are built on.
    Circuit probe_ckt;
    const Nemfet& probe = probe_ckt.add<Nemfet>(
        "X1", probe_ckt.node("d"), probe_ckt.node("g"), probe_ckt.gnd(),
        NemsPolarity::kN, p, 1e-6);
    EXPECT_NEAR(f.pull_out, probe.release_voltage(), 1.3 * vpi / 800);
    // That stand-off scales with the stop and gap softness: halving both
    // halves the excess over the analytic pull-out (measured 0.49-0.51),
    // i.e. the model converges to the closed form as the stop hardens.
    NemsParams sharp = p;
    sharp.contact_softness *= 0.5;
    sharp.gap_softness *= 0.5;
    const Folds fs = hysteresis_folds(sharp);
    EXPECT_NEAR(fs.pull_in, vpi, 0.01 * vpi);
    ASSERT_GT(fs.pull_out, vpo);
    const double excess_ratio = (fs.pull_out - vpo) / (f.pull_out - vpo);
    EXPECT_GT(excess_ratio, 0.4);
    EXPECT_LT(excess_ratio, 0.6);
  }
}

TEST(NemfetCharacterize, Table1Calibration) {
  tech::NemsIV iv = tech::characterize_nemfet(tech::nems_90nm(), 1.0_um, 1.2);
  EXPECT_NEAR(iv.iv.ion, 330e-6, 0.10 * 330e-6);   // 330 uA/um +- 10 %
  EXPECT_NEAR(iv.iv.ioff, 110e-12, 0.25 * 110e-12);  // 110 pA/um +- 25 %
}

TEST(NemfetCharacterize, SteepSwitchingNearPullIn) {
  tech::NemsIV iv = tech::characterize_nemfet(tech::nems_90nm(), 1.0_um, 1.2);
  // The mechanical snap gives a far-sub-thermionic effective swing.
  EXPECT_LT(iv.iv.swing_mv_dec, 10.0);
}

TEST(NemfetCharacterize, HysteresisWindowMatchesAnalytics) {
  const NemsParams p = tech::nems_90nm();
  tech::NemsIV iv = tech::characterize_nemfet(p, 1.0_um, 1.2);
  EXPECT_NEAR(iv.pull_in_v, p.analytic_pull_in_voltage(),
              0.15 * p.analytic_pull_in_voltage());
  EXPECT_LT(iv.pull_out_v, iv.pull_in_v);
}

TEST(NemfetCharacterize, OnOffRatioBeatsCmosBy500x) {
  tech::NemsIV nems = tech::characterize_nemfet(tech::nems_90nm(), 1.0_um, 1.2);
  tech::DeviceIV cmos = tech::characterize_mosfet(
      tech::nmos_90nm(), devices::MosPolarity::kNmos, 1.0_um, 0.1_um, 1.2);
  const double nems_ratio = nems.iv.ion / nems.iv.ioff;
  const double cmos_ratio = cmos.ion / cmos.ioff;
  EXPECT_GT(nems_ratio / cmos_ratio, 100.0);
}

// ------------------------------------------------------ DC operating point

TEST(NemfetOp, BeamStaysUpBelowPullIn) {
  Circuit ckt;
  spice::NodeId d = ckt.node("d");
  spice::NodeId g = ckt.node("g");
  ckt.add<VoltageSource>("Vd", d, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<VoltageSource>("Vg", g, ckt.gnd(), SourceWave::dc(0.2));
  auto& x = ckt.add<Nemfet>("X1", d, g, ckt.gnd(), NemsPolarity::kN,
                            tech::nems_90nm(), 1.0_um);
  MnaSystem system(ckt);
  spice::OpResult op = spice::operating_point(system);
  const double pos = op.x(x.unknown_x());
  EXPECT_LT(pos, 0.5 * tech::nems_90nm().gap0);
  EXPECT_GT(pos, 0.0);  // but slightly deflected
}

TEST(NemfetOp, BeamPullsInAboveVpi) {
  Circuit ckt;
  spice::NodeId d = ckt.node("d");
  spice::NodeId g = ckt.node("g");
  ckt.add<VoltageSource>("Vd", d, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<VoltageSource>("Vg", g, ckt.gnd(), SourceWave::dc(1.2));
  auto& x = ckt.add<Nemfet>("X1", d, g, ckt.gnd(), NemsPolarity::kN,
                            tech::nems_90nm(), 1.0_um);
  MnaSystem system(ckt);
  spice::OpResult op = spice::operating_point(system);
  EXPECT_GT(op.x(x.unknown_x()), 0.9 * tech::nems_90nm().gap0);
  // Velocity row pins v = 0 in DC.
  EXPECT_NEAR(op.x(x.unknown_v()), 0.0, 1e-9);
}

// ------------------------------------------------------------- transient

TEST(NemfetTransient, PullInTransitTensOfPicoseconds) {
  Circuit ckt;
  spice::NodeId d = ckt.node("d");
  spice::NodeId g = ckt.node("g");
  ckt.add<VoltageSource>("Vd", d, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<VoltageSource>(
      "Vg", g, ckt.gnd(),
      SourceWave::pulse(0.0, 1.2, 0.1_ns, 5.0_ps, 5.0_ps, 2.0_ns));
  auto& x = ckt.add<Nemfet>("X1", d, g, ckt.gnd(), NemsPolarity::kN,
                            tech::nems_90nm(), 1.0_um);
  MnaSystem system(ckt);
  spice::TransientOptions options;
  options.tstop = 1.0_ns;
  spice::Waveform wave = spice::transient(system, options);

  const std::string xsig = "X1.x";
  const double gap = tech::nems_90nm().gap0;
  // Beam starts up...
  EXPECT_LT(wave.at(xsig, 0.05_ns), 0.2 * gap);
  // ... and is in contact well before 1 ns.
  EXPECT_GT(spice::final_value(wave, xsig), 0.9 * gap);
  const double t_contact =
      spice::cross_time(wave, xsig, 0.9 * gap, spice::Edge::kRising);
  const double transit = t_contact - 0.1_ns;
  EXPECT_LT(transit, 0.3_ns);
  EXPECT_GT(transit, 1.0_ps);
  (void)x;
}

TEST(NemfetTransient, ReleasesWhenGateDrops) {
  Circuit ckt;
  spice::NodeId d = ckt.node("d");
  spice::NodeId g = ckt.node("g");
  ckt.add<VoltageSource>("Vd", d, ckt.gnd(), SourceWave::dc(1.2));
  // High long enough to pull in, then 0 for the rest.
  ckt.add<VoltageSource>(
      "Vg", g, ckt.gnd(),
      SourceWave::pulse(1.2, 0.0, 0.5_ns, 5.0_ps, 5.0_ps, 3.0_ns));
  ckt.add<Nemfet>("X1", d, g, ckt.gnd(), NemsPolarity::kN, tech::nems_90nm(),
                  1.0_um);
  MnaSystem system(ckt);
  spice::TransientOptions options;
  options.tstop = 3.0_ns;
  spice::Waveform wave = spice::transient(system, options);
  const double gap = tech::nems_90nm().gap0;
  EXPECT_GT(wave.at("X1.x", 0.4_ns), 0.9 * gap);  // pulled in while high
  EXPECT_LT(spice::final_value(wave, "X1.x"), 0.3 * gap);  // released
}

TEST(NemfetTransient, PmosPolarityPullsInWithNegativeGate) {
  Circuit ckt;
  spice::NodeId d = ckt.node("d");
  spice::NodeId g = ckt.node("g");
  spice::NodeId s = ckt.node("s");
  ckt.add<VoltageSource>("Vs", s, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<VoltageSource>("Vd", d, ckt.gnd(), SourceWave::dc(0.0));
  ckt.add<VoltageSource>("Vg", g, ckt.gnd(), SourceWave::dc(0.0));
  auto& x = ckt.add<Nemfet>("X1", d, g, s, NemsPolarity::kP,
                            tech::nems_90nm(), 1.0_um);
  MnaSystem system(ckt);
  spice::OpResult op = spice::operating_point(system);
  // Vgs = -1.2 on a P device: |vgs| far above pull-in.
  EXPECT_GT(op.x(x.unknown_x()), 0.9 * tech::nems_90nm().gap0);
  // And it conducts: current flows from source (1.2 V) to drain.
  EXPECT_GT(std::abs(op.value("i(Vd)")), 1e-5);
}

TEST(NemfetOp, InitialPositionSelectsBranchInHysteresisWindow) {
  const NemsParams p = tech::nems_90nm();
  const double v_mid =
      0.5 * (p.analytic_pull_out_voltage() + p.analytic_pull_in_voltage());
  auto solve_with_start = [&](bool closed) {
    Circuit ckt;
    spice::NodeId d = ckt.node("d");
    spice::NodeId g = ckt.node("g");
    ckt.add<VoltageSource>("Vd", d, ckt.gnd(), SourceWave::dc(0.05));
    ckt.add<VoltageSource>("Vg", g, ckt.gnd(), SourceWave::dc(v_mid));
    auto& x = ckt.add<Nemfet>("X1", d, g, ckt.gnd(), NemsPolarity::kN, p,
                              1.0_um);
    if (closed) x.set_initially_closed();
    MnaSystem system(ckt);
    spice::OpResult op = spice::operating_point(system);
    return op.x(x.unknown_x());
  };
  EXPECT_LT(solve_with_start(false), 0.5 * p.gap0);
  // At mid-window bias the contact root sits slightly above the (soft)
  // stop, a little short of the full gap.
  EXPECT_GT(solve_with_start(true), 0.8 * p.gap0);
}

}  // namespace
}  // namespace nemsim
