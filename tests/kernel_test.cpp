// Type-bucketed kernel lanes, the engine's assembly path: plan
// construction, scatter-map correctness against the unknown table,
// pattern-epoch tracking of the CSR slot tables, and the lane arithmetic
// against the per-device virtual stamps (MnaSystem::configure_kernels
// (false)) — solve-level on a hybrid inverter, assembly-level on the
// differential checker's generated circuits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "nemsim/check/checker.h"
#include "nemsim/check/generator.h"
#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/devices/passives.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/kernels.h"
#include "nemsim/spice/op.h"
#include "nemsim/spice/transient.h"
#include "nemsim/tech/cards.h"
#include "nemsim/util/rng.h"

namespace nemsim {
namespace {

using devices::Capacitor;
using devices::Mosfet;
using devices::MosPolarity;
using devices::Nemfet;
using devices::NemsPolarity;
using devices::Resistor;
using devices::SourceWave;
using devices::VoltageSource;
using spice::AnalysisMode;
using spice::Circuit;
using spice::KernelLane;
using spice::KernelPlan;
using spice::MnaSystem;
using spice::kKernelAbsent;

/// Hybrid inverter: every nonlinear device family plus passives and a
/// source — one lane per concrete type, no leftovers.
Circuit make_hybrid_inverter() {
  Circuit ckt;
  spice::NodeId vdd = ckt.node("vdd");
  spice::NodeId in = ckt.node("in");
  spice::NodeId out = ckt.node("out");
  ckt.add<VoltageSource>("Vdd", vdd, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<VoltageSource>(
      "Vin", in, ckt.gnd(),
      SourceWave::pulse(0.0, 1.2, 0.2e-9, 50e-12, 50e-12, 1.5e-9, 4e-9));
  ckt.add<Mosfet>("MP", out, in, vdd, MosPolarity::kPmos, tech::pmos_90nm(),
                  0.4e-6, 1e-7);
  ckt.add<Nemfet>("XN", out, in, ckt.gnd(), NemsPolarity::kN,
                  tech::nems_90nm(), 1e-6);
  ckt.add<Capacitor>("Cl", out, ckt.gnd(), 2e-15);
  ckt.add<Resistor>("Rl", out, ckt.gnd(), 1e9);
  return ckt;
}

const KernelLane* find_lane(const KernelPlan& plan, const std::string& bucket) {
  for (const KernelLane& lane : plan.lanes) {
    if (lane.bucket == bucket) return &lane;
  }
  return nullptr;
}

/// Runs one dense assembly at the initial guess: the first lane pass
/// builds the kernel plan.
const KernelPlan& built_plan(const MnaSystem& system) {
  linalg::Matrix j;
  linalg::Vector f, scale;
  system.assemble(system.initial_guess(), j, f, scale,
                  AnalysisMode::kDcOperatingPoint, 0.0, 0.0, 0.0, 1.0);
  EXPECT_NE(system.kernel_plan(), nullptr);
  return *system.kernel_plan();
}

void expect_identical(const spice::Waveform& a, const spice::Waveform& b) {
  ASSERT_EQ(a.num_samples(), b.num_samples());
  ASSERT_EQ(a.num_signals(), b.num_signals());
  for (std::size_t k = 0; k < a.num_samples(); ++k) {
    ASSERT_EQ(a.times()[k], b.times()[k]) << "sample " << k;
    for (std::size_t s = 0; s < a.num_signals(); ++s) {
      ASSERT_EQ(a.sample(s, k), b.sample(s, k))
          << a.signal_names()[s] << " sample " << k;
    }
  }
}

// ---------------------------------------------------------- lane building

TEST(KernelPlan, BucketsEveryInTreeDeviceType) {
  Circuit ckt = make_hybrid_inverter();
  MnaSystem system(ckt);
  // Lanes are on by default, but set-up builds no plan: pattern recording
  // stamps virtually, and the first real assembly builds it.
  EXPECT_TRUE(system.kernels_enabled());
  (void)system.make_sparse_jacobian();
  EXPECT_EQ(system.kernel_plan(), nullptr);
  const KernelPlan& plan = built_plan(system);

  // Every in-tree device type has a descriptor: nothing falls through to
  // the per-device virtual path.
  EXPECT_TRUE(plan.leftover_linear.empty());
  EXPECT_TRUE(plan.leftover_nonlinear.empty());

  const KernelLane* vsource = find_lane(plan, "vsource");
  ASSERT_NE(vsource, nullptr);
  EXPECT_EQ(vsource->devices.size(), 2u);
  EXPECT_TRUE(vsource->linear);

  const KernelLane* mosfet = find_lane(plan, "mosfet");
  ASSERT_NE(mosfet, nullptr);
  EXPECT_EQ(mosfet->devices.size(), 1u);
  EXPECT_FALSE(mosfet->linear);

  const KernelLane* nemfet = find_lane(plan, "nemfet");
  ASSERT_NE(nemfet, nullptr);
  EXPECT_EQ(nemfet->roles, 5);

  EXPECT_NE(find_lane(plan, "capacitor"), nullptr);
  EXPECT_NE(find_lane(plan, "resistor"), nullptr);

  // Lane membership covers the whole device list exactly once.
  std::size_t lane_devices = 0;
  for (const KernelLane& lane : plan.lanes) lane_devices += lane.devices.size();
  EXPECT_EQ(lane_devices, 6u);
}

TEST(KernelPlan, ScatterMapMatchesUnknownTable) {
  // Divider: V1 drives "in"; R1 in-out, R2 out-gnd.  Known unknown
  // bindings make the rows and dense slot offsets directly checkable.
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  spice::NodeId out = ckt.node("out");
  ckt.add<VoltageSource>("V1", in, ckt.gnd(), SourceWave::dc(1.0));
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Resistor>("R2", out, ckt.gnd(), 2e3);
  MnaSystem system(ckt);
  const KernelPlan& plan = built_plan(system);
  const std::size_t n = system.num_unknowns();

  const std::size_t u_in = system.unknown_of(in).index;
  const std::size_t u_out = system.unknown_of(out).index;

  const KernelLane* lane = find_lane(plan, "resistor");
  ASSERT_NE(lane, nullptr);
  ASSERT_EQ(lane->devices.size(), 2u);
  ASSERT_EQ(lane->roles, 2);

  // Device order within a lane is circuit registration order.
  EXPECT_EQ(lane->devices[0]->name(), "R1");
  EXPECT_EQ(lane->devices[1]->name(), "R2");

  // R1 rows: role 0 = in, role 1 = out.
  EXPECT_EQ(lane->rows[0], u_in);
  EXPECT_EQ(lane->rows[1], u_out);
  // R2 rows: role 0 = out, role 1 = ground (absent).
  EXPECT_EQ(lane->rows[2], u_out);
  EXPECT_EQ(lane->rows[3], kKernelAbsent);

  // Dense slots are row-major offsets; cells touching ground are absent.
  const std::size_t rr = 4;  // roles * roles
  EXPECT_EQ(lane->dense_slots[0 * rr + 0], u_in * n + u_in);
  EXPECT_EQ(lane->dense_slots[0 * rr + 1], u_in * n + u_out);
  EXPECT_EQ(lane->dense_slots[0 * rr + 2], u_out * n + u_in);
  EXPECT_EQ(lane->dense_slots[0 * rr + 3], u_out * n + u_out);
  EXPECT_EQ(lane->dense_slots[1 * rr + 0], u_out * n + u_out);
  EXPECT_EQ(lane->dense_slots[1 * rr + 1], kKernelAbsent);
  EXPECT_EQ(lane->dense_slots[1 * rr + 2], kKernelAbsent);
  EXPECT_EQ(lane->dense_slots[1 * rr + 3], kKernelAbsent);
}

/// Descriptor-less nonlinear load (a per-device virtual-path leftover):
/// i(a -> gnd) = g·v(a) + k·max(0, v(ctl) - 0.5)².  The (a, ctl) Jacobian
/// cell is stamped only once v(ctl) exceeds 0.5 V, so the cold-start
/// symbolic passes miss it and the first solve grows the pattern.
class LateCouplingLoad : public spice::Device {
 public:
  LateCouplingLoad(std::string name, spice::NodeId a, spice::NodeId ctl,
                   double g, double k)
      : Device(std::move(name)), a_(a), ctl_(ctl), g_(g), k_(k) {}

  void stamp(spice::StampContext& ctx) const override {
    const double s = std::max(0.0, ctx.v(ctl_) - 0.5);
    ctx.add_f(a_, g_ * ctx.v(a_) + k_ * s * s);
    ctx.add_J(a_, a_, g_);
    if (s > 0.0) ctx.add_J(a_, ctl_, 2.0 * k_ * s);
  }

 private:
  spice::NodeId a_, ctl_;
  double g_, k_;
};

TEST(KernelPlan, SparseSlotsTrackThePatternEpoch) {
  // Vc drives c through R1 into a; Vctl drives ctl; the late-coupling
  // load sits at a.  No device couples a and ctl structurally.
  Circuit ckt;
  spice::NodeId c = ckt.node("c");
  spice::NodeId a = ckt.node("a");
  spice::NodeId ctl = ckt.node("ctl");
  ckt.add<VoltageSource>("Vc", c, ckt.gnd(), SourceWave::dc(1.0));
  ckt.add<VoltageSource>("Vctl", ctl, ckt.gnd(), SourceWave::dc(1.0));
  ckt.add<Resistor>("R1", c, a, 1e3);
  ckt.add<LateCouplingLoad>("Xload", a, ctl, 1e-3, 2e-3);
  MnaSystem system(ckt);

  // Pattern first, as compile() does: still no plan.
  (void)system.make_sparse_jacobian();
  ASSERT_EQ(system.kernel_plan(), nullptr);
  const std::uint64_t epoch_before = system.jacobian_pattern_epoch();

  spice::OpOptions opts;
  opts.newton.solver = spice::JacobianSolver::kSparse;
  opts.lint = lint::LintMode::kOff;  // a and ctl dangle on purpose
  const spice::OpResult op = spice::operating_point(system, opts);

  // The first solve built the plan, the load stayed a nonlinear
  // leftover, and its (a, ctl) stamp grew the pattern...
  const KernelPlan* plan = system.kernel_plan();
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->leftover_nonlinear.size(), 1u);
  const std::uint64_t epoch = system.jacobian_pattern_epoch();
  EXPECT_GT(epoch, epoch_before);
  // ...after which the lanes re-resolved their slots against the grown
  // pattern: every resolved slot is the CSR slot of its declared cell.
  EXPECT_EQ(plan->sparse_epoch, epoch);
  const linalg::CsrMatrix csr = system.make_sparse_jacobian();
  EXPECT_NE(csr.slot(system.unknown_of(a).index,
                     system.unknown_of(ctl).index),
            linalg::CsrMatrix::npos);
  for (const KernelLane& lane : plan->lanes) {
    for (std::size_t cell = 0; cell < lane.rowcol.size(); ++cell) {
      const auto& [row, col] = lane.rowcol[cell];
      if (row == kKernelAbsent) {
        EXPECT_EQ(lane.sparse_slots[cell], kKernelAbsent);
      } else {
        EXPECT_EQ(lane.sparse_slots[cell], csr.slot(row, col));
      }
    }
  }

  // (1 - va)/1k = 1e-3·va + 2e-3·0.25  =>  va = 0.25 V.
  EXPECT_NEAR(op.v(a), 0.25, 1e-9);
}

// -------------------------------------------------- engine-level switch

TEST(KernelContract, TogglingLeavesNoStateBehind) {
  // Runs on one system with the lanes switched off then on (and on then
  // off) must reproduce fresh single-path runs bitwise: the switch and
  // the lazily built plan carry no state into the other path.
  auto run = [](MnaSystem& system, bool lanes) {
    system.configure_kernels(lanes);
    spice::TransientOptions o;
    o.tstop = 1.5e-9;
    o.dt_initial = 1e-13;
    return spice::transient(system, o);
  };
  auto fresh = [&](bool lanes) {
    Circuit ckt = make_hybrid_inverter();
    MnaSystem system(ckt);
    return run(system, lanes);
  };
  const spice::Waveform fresh_on = fresh(true);
  const spice::Waveform fresh_off = fresh(false);
  for (bool first : {true, false}) {
    Circuit ckt = make_hybrid_inverter();
    MnaSystem system(ckt);
    run(system, first);
    expect_identical(run(system, !first), first ? fresh_off : fresh_on);
  }
}

// ------------------------------------------- lanes vs the virtual path

TEST(KernelContract, OperatingPointMatchesVirtualPath) {
  for (spice::JacobianSolver solver :
       {spice::JacobianSolver::kDense, spice::JacobianSolver::kSparse}) {
    spice::OpOptions opts;
    opts.newton.solver = solver;

    Circuit base_ckt = make_hybrid_inverter();
    MnaSystem base_system(base_ckt);
    base_system.configure_kernels(false);
    const spice::OpResult base = spice::operating_point(base_system, opts);

    Circuit kern_ckt = make_hybrid_inverter();
    MnaSystem kern_system(kern_ckt);
    const spice::OpResult fast = spice::operating_point(kern_system, opts);

    ASSERT_EQ(base.raw().size(), fast.raw().size());
    for (std::size_t i = 0; i < base.raw().size(); ++i) {
      EXPECT_NEAR(base.raw()[i], fast.raw()[i],
                  1e-6 + 1e-6 * std::abs(base.raw()[i]))
          << "unknown " << i << " solver " << static_cast<int>(solver);
    }
  }
}

TEST(KernelContract, TransientMatchesVirtualPathAndCountsLanes) {
  auto run = [](bool lanes, spice::NewtonStats* stats) {
    Circuit ckt = make_hybrid_inverter();
    MnaSystem system(ckt);
    system.configure_kernels(lanes);
    spice::TransientOptions o;
    o.tstop = 1.5e-9;
    o.dt_initial = 1e-13;
    o.newton_stats = stats;
    return spice::transient(system, o);
  };
  spice::NewtonStats base_stats, kern_stats;
  const spice::Waveform base = run(false, &base_stats);
  const spice::Waveform fast = run(true, &kern_stats);
  for (double t : {0.1e-9, 0.3e-9, 0.6e-9, 1.0e-9, 1.5e-9}) {
    EXPECT_NEAR(base.at("v(out)", t), fast.at("v(out)", t), 5e-3)
        << "t = " << t;
  }

  // Per-bucket counters: the lanes run evaluated every lane; the
  // virtual-path run reports none.
  EXPECT_TRUE(base_stats.kernel_lane_evals.empty());
  ASSERT_FALSE(kern_stats.kernel_lane_evals.empty());
  for (const char* bucket : {"mosfet", "nemfet", "capacitor", "vsource"}) {
    const auto it = std::find_if(
        kern_stats.kernel_lane_evals.begin(), kern_stats.kernel_lane_evals.end(),
        [&](const auto& e) { return e.first == bucket; });
    ASSERT_NE(it, kern_stats.kernel_lane_evals.end()) << bucket;
    EXPECT_GT(it->second, 0u) << bucket;
  }
}

/// One assembly's outputs, the Jacobian densified whatever the sink.
struct Assembly {
  linalg::Matrix j;
  linalg::Vector f, scale;
};

Assembly assemble_dense(const MnaSystem& system, const linalg::Vector& x,
                        AnalysisMode mode, double dt) {
  Assembly out;
  system.assemble(x, out.j, out.f, out.scale, mode, dt, dt, 0.0, 1.0);
  return out;
}

Assembly assemble_sparse(const MnaSystem& system, const linalg::Vector& x,
                         AnalysisMode mode, double dt) {
  Assembly out;
  linalg::CsrMatrix csr = system.make_sparse_jacobian();
  while (!system.assemble_sparse(x, csr, out.f, out.scale, mode, dt, dt, 0.0,
                                 1.0)) {
    csr = system.make_sparse_jacobian();
  }
  out.j = csr.to_dense();
  return out;
}

/// Largest |lanes - virtual| over its tolerance (<= 1 passes) across f,
/// the residual scale and J, with the worst entry named in `where`.
/// Residual rows are judged against their scale (the sum of |terms|, the
/// magnitude summation-order rounding works on); Jacobian entries
/// against the larger of the two values.
double worst_ratio(const Assembly& lanes, const Assembly& ref, double reltol,
                   std::string& where) {
  double worst = 0.0;
  auto judge = [&](double got, double want, double scale,
                   const std::string& what) {
    if (got == want) return;
    const double tol =
        reltol * std::max({std::abs(got), std::abs(want), scale});
    const double ratio = std::abs(got - want) / tol;
    if (!(ratio <= worst)) {  // NaN-safe: a NaN always becomes the worst
      worst = std::isnan(ratio) ? 1e300 : ratio;
      where = what + ": lanes " + std::to_string(got) + " vs virtual " +
              std::to_string(want);
    }
  };
  const std::size_t n = ref.f.size();
  for (std::size_t i = 0; i < n; ++i) {
    judge(lanes.f[i], ref.f[i], ref.scale[i], "f[" + std::to_string(i) + "]");
    judge(lanes.scale[i], ref.scale[i], 0.0,
          "scale[" + std::to_string(i) + "]");
    for (std::size_t k = 0; k < n; ++k) {
      judge(lanes.j(i, k), ref.j(i, k), 0.0,
            "J(" + std::to_string(i) + "," + std::to_string(k) + ")");
    }
  }
  return worst;
}

TEST(KernelContract, GeneratedDecksAssembleLikeTheVirtualPath) {
  // Per-device check of the two arithmetics (Device::stamp vs
  // kernel_eval) on the differential checker's generated circuits: J, f
  // and the residual scale at the cold iterate and a perturbed one, in
  // OP mode, in transient mode on the backward-Euler restart, and in
  // transient mode on committed trapezoidal history — each through the
  // dense and the sparse sink — lanes against configure_kernels(false).
  // The two paths sum the same terms in a different order (lanes in
  // bucket order, virtual in circuit order), so the bound is the
  // checker's OP reltol, far above the rounding and far below any
  // mis-stamped term.
  const check::CheckOptions contract;
  const double dt = 1e-11;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    check::GeneratedInfo info;
    Circuit ckt = check::generate_circuit(seed, {}, &info);
    MnaSystem system(ckt);

    const linalg::Vector cold = system.initial_guess();
    Rng rng(seed);
    auto perturb = [&](const linalg::Vector& x) {
      linalg::Vector out = x;
      for (std::size_t i = 0; i < out.size(); ++i) {
        const spice::UnknownInfo& u = system.unknown_info(i);
        switch (u.kind) {
          case spice::UnknownKind::kNodeVoltage:
            out[i] = rng.uniform(-0.1, info.vdd + 0.1);
            break;
          case spice::UnknownKind::kBranchCurrent:
            out[i] = rng.uniform(-1e-4, 1e-4);
            break;
          case spice::UnknownKind::kInternal:
            out[i] = x[i] * (1.0 + rng.uniform(-0.05, 0.05)) +
                     rng.uniform(-1e3, 1e3) * u.abstol;
            break;
        }
      }
      return out;
    };
    const linalg::Vector warm = perturb(cold);

    auto compare = [&](const linalg::Vector& x, AnalysisMode mode,
                       const std::string& label) {
      for (bool sparse : {false, true}) {
        auto assemble = sparse ? assemble_sparse : assemble_dense;
        system.configure_kernels(false);
        const Assembly ref = assemble(system, x, mode, dt);
        system.configure_kernels(true);
        const Assembly lanes = assemble(system, x, mode, dt);
        std::string where;
        const double ratio =
            worst_ratio(lanes, ref, contract.op_reltol, where);
        EXPECT_LE(ratio, 1.0)
            << "seed " << seed << " " << label
            << (sparse ? " sparse: " : " dense: ") << where;
      }
    };
    compare(cold, AnalysisMode::kDcOperatingPoint, "op cold");
    // Not vacuous: every generated device ran in a lane.
    ASSERT_NE(system.kernel_plan(), nullptr);
    EXPECT_TRUE(system.kernel_plan()->leftover_linear.empty());
    EXPECT_TRUE(system.kernel_plan()->leftover_nonlinear.empty());
    compare(warm, AnalysisMode::kDcOperatingPoint, "op perturbed");
    system.accept(cold, AnalysisMode::kDcOperatingPoint, 0.0, 0.0);
    compare(cold, AnalysisMode::kTransient, "tran cold");
    compare(warm, AnalysisMode::kTransient, "tran perturbed");
    system.accept(warm, AnalysisMode::kTransient, dt, dt);
    compare(perturb(warm), AnalysisMode::kTransient, "tran trapezoidal");
  }
}

}  // namespace
}  // namespace nemsim
