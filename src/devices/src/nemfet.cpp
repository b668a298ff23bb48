#include "nemsim/devices/nemfet.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "nemsim/devices/ekv.h"
#include <sstream>

#include "nemsim/spice/ac.h"
#include "nemsim/util/error.h"
#include "nemsim/util/units.h"

namespace nemsim::devices {

using ekv::sigmoid;
using ekv::softplus;

double NemsParams::analytic_pull_in_voltage() const {
  const double d = electrostatic_gap();
  return std::sqrt(8.0 * spring_k * d * d * d /
                   (27.0 * phys::kEps0 * area));
}

double NemsParams::analytic_pull_out_voltage() const {
  // At contact the remaining electrostatic gap is tox/eps_ox; release
  // happens when Fe there can no longer hold the stretched spring.
  const double d_contact = tox / eps_ox;
  const double fe_per_v2 = 0.5 * phys::kEps0 * area / (d_contact * d_contact);
  return std::sqrt(spring_k * gap0 / fe_per_v2);
}

Nemfet::Nemfet(std::string name, spice::NodeId drain, spice::NodeId gate,
               spice::NodeId source, NemsPolarity polarity, NemsParams params,
               double width)
    : Device(std::move(name)), d_(drain), g_(gate), s_(source),
      polarity_(polarity), params_(params), w_(width) {
  require(width > 0.0, "Nemfet: width must be positive");
  require(params_.gap0 > 0.0 && params_.tox > 0.0,
          "Nemfet: geometry must be positive");
  require(params_.spring_k > 0.0 && params_.mass > 0.0 &&
              params_.damping >= 0.0,
          "Nemfet: mechanical parameters must be positive");
  cg_gap_.set_capacitance(gate_capacitance(0.0));
  cgd_ov_.set_capacitance(params_.cov * w_.get());
  cgs_ov_.set_capacitance(params_.cov * w_.get());
  cdb_.set_capacitance(params_.cj * w_.get());
  csb_.set_capacitance(params_.cj * w_.get());
}

void Nemfet::bind_params(spice::ParamBank& bank) {
  vth_shift_.bind(bank, "nems.vth_shift", name());
  w_.bind(bank, "nems.w", name());
}

void Nemfet::on_params_changed() {
  cg_gap_.set_capacitance(gate_capacitance(x_state_));
  cgd_ov_.set_capacitance(params_.cov * w_.get());
  cgs_ov_.set_capacitance(params_.cov * w_.get());
  cdb_.set_capacitance(params_.cj * w_.get());
  csb_.set_capacitance(params_.cj * w_.get());
}

void Nemfet::set_width(double width) {
  require(width > 0.0, "Nemfet: width must be positive");
  w_.set(width);
  cg_gap_.set_capacitance(gate_capacitance(x_state_));
  cgd_ov_.set_capacitance(params_.cov * w_.get());
  cgs_ov_.set_capacitance(params_.cov * w_.get());
  cdb_.set_capacitance(params_.cj * w_.get());
  csb_.set_capacitance(params_.cj * w_.get());
}

double Nemfet::air_gap(double x) const {
  // Smooth max(gap0 - x, 0): the beam cannot penetrate the oxide; the
  // softplus keeps the Jacobian continuous through contact.
  const double wg = params_.gap_softness;
  return wg * softplus((params_.gap0 - x) / wg);
}

double Nemfet::electrostatic_force(double v_beam, double x) const {
  const double d = air_gap(x) + params_.tox / params_.eps_ox;
  const double a = params_.area * sw();
  return 0.5 * phys::kEps0 * a * v_beam * v_beam / (d * d);
}

double Nemfet::contact_force(double x) const {
  const double wc = params_.contact_softness;
  return params_.contact_k * sw() * wc *
         softplus((x - params_.gap0) / wc);
}

double Nemfet::gate_capacitance(double x) const {
  const double d = air_gap(x) + params_.tox / params_.eps_ox;
  return phys::kEps0 * params_.area * sw() / d;
}

Nemfet::ChannelEval Nemfet::eval_channel(double vgs, double vds,
                                         double x) const {
  // Gate-coupling divider: alpha = C_ox / C_stack(x) >= 1.
  const double t_eq = params_.tox / params_.eps_ox;
  const double ga = air_gap(x);
  const double alpha = (t_eq + ga) / t_eq;
  const double dga_dx = -sigmoid((params_.gap0 - x) / params_.gap_softness);
  const double dalpha_dx = dga_dx / t_eq;

  ekv::ChannelBias bias{vgs, vds};
  ekv::ChannelParams cp;
  cp.vth = params_.vth_ch + vth_shift_.get() +
           params_.dvth_per_alpha * (alpha - 1.0);
  cp.n = params_.n_ch * alpha;
  cp.kp = params_.kp;
  cp.w_over_l = w_.get() / params_.l_ch;
  cp.lambda = params_.lambda;
  cp.eta = params_.eta_dibl;
  cp.vt = phys::thermal_voltage(params_.temp);
  const ekv::ChannelResult r = ekv::evaluate(bias, cp);

  ChannelEval out;
  const double gfloor = params_.goff * w_.get();
  out.id = r.id + gfloor * vds;
  out.gm = r.gm;
  out.gds = r.gds + gfloor;
  const double dvth_dx = params_.dvth_per_alpha * dalpha_dx;
  const double dn_dx = params_.n_ch * dalpha_dx;
  out.did_dx = r.did_dvth * dvth_dx + r.did_dn * dn_dx;
  return out;
}

void Nemfet::channel_gradients(double vgs, double vds, double x, double& id,
                               double& gm, double& gds,
                               double& did_dx) const {
  require(vds >= 0.0, "channel_gradients: canonical polarity requires vds >= 0");
  const ChannelEval e = eval_channel(vgs, vds, x);
  id = e.id;
  gm = e.gm;
  gds = e.gds;
  did_dx = e.did_dx;
}

double Nemfet::drain_current(double vgs, double vds, double x) const {
  if (vds < 0.0) {
    return -eval_channel(vgs - vds, -vds, x).id;
  }
  return eval_channel(vgs, vds, x).id;
}

namespace {

constexpr int kScanPoints = 256;

/// Every input that fixes the scan grid and its bias-independent terms.
struct ScanKey {
  double k;      ///< spring_k * sw
  double ck;     ///< contact_k * sw
  double wc;     ///< contact_softness
  double gap0;
  double wg;     ///< gap_softness
  double t_eq;   ///< tox / eps_ox
  double x_hi;   ///< walked upper scan bound
};

/// Bias-independent terms on the grid x_i = x_hi * i / kScanPoints:
/// c1 = k x_i + Fc(x_i) and dd = d(x_i)^2, so the residual there is
/// c1 - Fe_num / dd with the same operations (and bits) as the direct one.
struct ScanTable {
  ScanKey key;
  double c1[kScanPoints + 1];
  double dd[kScanPoints + 1];
};

/// Small round-robin memo shared by every NEMFET on a thread (~33 KB):
/// a cell or column reuses a handful of geometries and walked bounds, so
/// a few ways cover it without per-device storage.  The key holds every
/// input, so parameter changes need no invalidation.
struct ScanMemo {
  static constexpr int kWays = 8;
  ScanTable tables[kWays]{};
  int filled = 0;
  int next = 0;
};

/// Allocated on a thread's first NEMFET DC evaluation, so pool threads
/// that never evaluate one carry no table.
ScanMemo& scan_memo() {
  thread_local std::unique_ptr<ScanMemo> memo;
  if (!memo) memo = std::make_unique<ScanMemo>();
  return *memo;
}

}  // namespace

Nemfet::StaticEq Nemfet::static_equilibrium(double v_abs) const {
  const double k = params_.spring_k * sw();
  auto residual = [&](double x) {
    return k * x + contact_force(x) - electrostatic_force(v_abs, x);
  };
  auto residual_slope = [&](double x) {
    const double d = air_gap(x) + params_.tox / params_.eps_ox;
    const double fe = electrostatic_force(v_abs, x);
    const double dga = -sigmoid((params_.gap0 - x) / params_.gap_softness);
    const double dfe = -2.0 * fe / d * dga;
    const double dfc = params_.contact_k * sw() *
                       sigmoid((x - params_.gap0) / params_.contact_softness);
    return k + dfc - dfe;
  };

  // Upper scan bound: walk past the contact stop until the stiff stop
  // spring dominates and the residual is positive.
  double x_hi = params_.gap0;
  for (int i = 0; i < 200 && residual(x_hi) <= 0.0; ++i) {
    x_hi += 0.05 * params_.gap0;
  }

  const ScanKey key{k,
                    params_.contact_k * sw(),
                    params_.contact_softness,
                    params_.gap0,
                    params_.gap_softness,
                    params_.tox / params_.eps_ox,
                    x_hi};
  ScanMemo& memo = scan_memo();
  const ScanTable* table = nullptr;
  for (int w = 0; w < memo.filled; ++w) {
    if (std::memcmp(&memo.tables[w].key, &key, sizeof key) == 0) {
      table = &memo.tables[w];
      break;
    }
  }
  if (table == nullptr) {
    ScanTable& t = memo.tables[memo.next];
    memo.next = (memo.next + 1) % ScanMemo::kWays;
    if (memo.filled < ScanMemo::kWays) ++memo.filled;
    t.key = key;
    for (int i = 0; i <= kScanPoints; ++i) {
      const double xx = x_hi * static_cast<double>(i) / kScanPoints;
      t.c1[i] = k * xx + contact_force(xx);
      const double d = air_gap(xx) + key.t_eq;
      t.dd[i] = d * d;
    }
    table = &t;
  }
  const double fe_num =
      0.5 * phys::kEps0 * (params_.area * sw()) * v_abs * v_abs;

  // Scan for stable roots: residual sign changes from - to +.  Branch
  // memory keeps the root closest to the position the beam occupies
  // (first one on ties).
  bool found = false;
  double best = 0.0;
  auto take_root = [&](double root) {
    if (!found || std::abs(root - x_state_) < std::abs(best - x_state_)) {
      best = root;
    }
    found = true;
  };
  double x_prev = 0.0;
  double r_prev = table->c1[0] - fe_num / table->dd[0];
  if (r_prev == 0.0) take_root(0.0);  // exactly unbiased
  for (int i = 1; i <= kScanPoints; ++i) {
    const double xx = x_hi * static_cast<double>(i) / kScanPoints;
    const double rr = table->c1[i] - fe_num / table->dd[i];
    if (r_prev < 0.0 && rr >= 0.0) {
      // Bisection refinement of the bracketed stable root.  Once the
      // midpoint equals an end, every later step would leave the bracket
      // unchanged, so stopping there gives the same root.
      double lo = x_prev, hi = xx;
      for (int it = 0; it < 80; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (mid == lo || mid == hi) break;
        if (residual(mid) < 0.0) lo = mid; else hi = mid;
      }
      take_root(0.5 * (lo + hi));
    }
    x_prev = xx;
    r_prev = rr;
  }

  StaticEq eq;
  if (!found) {
    // v_abs == 0 and no deflection: the trivial equilibrium.
    eq.x = 0.0;
    eq.dx_dv = 0.0;
    return eq;
  }
  eq.x = best;
  // Implicit-function derivative dx/d|v| = (dFe/d|v|) / r'(x); r' > 0 on
  // a stable branch, clamped away from the fold singularity.
  const double d = air_gap(eq.x) + params_.tox / params_.eps_ox;
  const double a = params_.area * sw();
  const double dfe_dv = phys::kEps0 * a * v_abs / (d * d);
  const double slope = std::max(residual_slope(eq.x), 1e-3 * k);
  eq.dx_dv = dfe_dv / slope;
  return eq;
}

double Nemfet::release_voltage() const {
  // Every force scales with sw(), so the curve is evaluated at w_ref,
  // where it depends on the card alone.  A circuit's NEMFETs mostly share
  // one card, so a one-entry per-thread memo runs the scan once for them.
  struct Key {
    double gap0, spring_k, area, contact_k, wc, wg, t_eq;
  };
  const Key key{params_.gap0,
                params_.spring_k,
                params_.area,
                params_.contact_k,
                params_.contact_softness,
                params_.gap_softness,
                params_.tox / params_.eps_ox};
  thread_local Key memo_key{};
  thread_local double memo_v = -1.0;
  if (memo_v >= 0.0 && std::memcmp(&memo_key, &key, sizeof key) == 0) {
    return memo_v;
  }

  // Squared equilibrium voltage at displacement x (k x + Fc = Fe).
  auto v2 = [&](double x) {
    const double d = air_gap(x) + key.t_eq;
    const double contact =
        key.contact_k * key.wc * softplus((x - key.gap0) / key.wc);
    return (key.spring_k * x + contact) * d * d /
           (0.5 * phys::kEps0 * key.area);
  };
  // Scan well past the stop, where the contact spring dominates: walk up
  // the open branch to the pull-in fold, then down to the first minimum.
  constexpr int kPoints = 256;
  const double x_hi = key.gap0 + 40.0 * key.wc;
  auto x_at = [&](int i) { return x_hi * static_cast<double>(i) / kPoints; };
  double f[kPoints + 1];
  for (int i = 0; i <= kPoints; ++i) f[i] = v2(x_at(i));
  int i = 1;
  while (i < kPoints && f[i + 1] >= f[i]) ++i;
  while (i < kPoints && f[i + 1] <= f[i]) ++i;

  // Golden-section refinement inside the neighbouring grid cells.
  constexpr double kInvPhi = 0.6180339887498949;
  double a = x_at(i - 1), b = x_at(std::min(i + 1, kPoints));
  double c = b - kInvPhi * (b - a), d = a + kInvPhi * (b - a);
  double fc = v2(c), fd = v2(d);
  for (int it = 0; it < 80 && c < d; ++it) {
    if (fc <= fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - kInvPhi * (b - a);
      fc = v2(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + kInvPhi * (b - a);
      fd = v2(d);
    }
  }
  memo_key = key;
  memo_v = std::sqrt(std::min({f[i], fc, fd}));
  return memo_v;
}

void Nemfet::setup(spice::SetupContext& ctx) {
  // Displacement: meters; velocity: meters/second.  Row units: the x-row
  // is the kinematic equation (m/s in transient, m/s in DC where it pins
  // v = 0 ... volts-free), the v-row is the force balance (newtons).
  ux_ = ctx.add_internal(name() + ".x", /*abstol=*/1e-13,
                         /*row_abstol=*/1e-4,
                         /*max_newton_step=*/params_.gap0 * 0.25,
                         /*initial_guess=*/initial_position_);
  uv_ = ctx.add_internal(name() + ".v", /*abstol=*/1e-6,
                         /*row_abstol=*/1e-15 * std::max(1.0, sw()),
                         /*max_newton_step=*/0.0,
                         /*initial_guess=*/0.0);
}

void Nemfet::stamp(spice::StampContext& ctx) const {
  const double sign = polarity_ == NemsPolarity::kN ? 1.0 : -1.0;
  const double x = ctx.x(ux_);
  const double vel = ctx.x(uv_);

  // ---- Channel current (canonical polarity with source/drain swap) ----
  spice::NodeId nd = d_;
  spice::NodeId ns = s_;
  double vds = sign * (ctx.v(nd) - ctx.v(ns));
  if (vds < 0.0) {
    std::swap(nd, ns);
    vds = -vds;
  }
  const double vgs = sign * (ctx.v(g_) - ctx.v(ns));
  const ChannelEval ch = eval_channel(vgs, vds, x);

  ctx.add_f(nd, sign * ch.id);
  ctx.add_f(ns, -sign * ch.id);
  ctx.add_J(nd, g_, ch.gm);
  ctx.add_J(nd, nd, ch.gds);
  ctx.add_J(nd, ns, -(ch.gm + ch.gds));
  ctx.add_J(ns, g_, -ch.gm);
  ctx.add_J(ns, nd, -ch.gds);
  ctx.add_J(ns, ns, ch.gm + ch.gds);
  ctx.add_J(nd, ux_, sign * ch.did_dx);
  ctx.add_J(ns, ux_, -sign * ch.did_dx);

  // ---- Mechanics (actuation voltage = beam-to-source) ----
  const double vgf = sign * (ctx.v(g_) - ctx.v(ns));

  if (ctx.mode() == spice::AnalysisMode::kDcOperatingPoint) {
    // Velocity is zero in statics.
    ctx.add_f(ux_, vel);
    ctx.add_J(ux_, uv_, 1.0);

    // Pin x to the stable static-equilibrium branch (see the helper's
    // comment: raw Newton cannot cross the pull-in fold).  Row:
    //   x - x_dc(|vgf|) = 0.
    const StaticEq eq = static_equilibrium(std::abs(vgf));
    const double dsign = sign * (vgf >= 0.0 ? 1.0 : -1.0);
    ctx.add_f(uv_, x - eq.x);
    ctx.add_J(uv_, ux_, 1.0);
    ctx.add_J(uv_, g_, -eq.dx_dv * dsign);
    ctx.add_J(uv_, ns, eq.dx_dv * dsign);
  } else {
    const double d_el = air_gap(x) + params_.tox / params_.eps_ox;
    const double a = params_.area * sw();
    const double fe = 0.5 * phys::kEps0 * a * vgf * vgf / (d_el * d_el);
    const double dga_dx = -sigmoid((params_.gap0 - x) / params_.gap_softness);
    const double dfe_dx = -2.0 * fe / d_el * dga_dx;
    const double dfe_dvgf = phys::kEps0 * a * vgf / (d_el * d_el);

    const double k = params_.spring_k * sw();
    const double fc = contact_force(x);
    const double dfc_dx =
        params_.contact_k * sw() *
        sigmoid((x - params_.gap0) / params_.contact_softness);

    // Backward Euler on the beam ODE (numerically damped: no spurious
    // contact bounce from trapezoidal ringing).
    const double dt = ctx.dt();
    // Kinematics: (x - x0)/dt - v = 0.
    ctx.add_f(ux_, (x - x_state_) / dt - vel);
    ctx.add_J(ux_, ux_, 1.0 / dt);
    ctx.add_J(ux_, uv_, -1.0);

    // Momentum: m (v - v0)/dt + c v + k x + Fc - Fe = 0.
    const double m = params_.mass * sw();
    const double c = params_.damping * sw();
    ctx.add_f(uv_, m * (vel - v_state_) / dt + c * vel + k * x + fc - fe);
    ctx.add_J(uv_, uv_, m / dt + c);
    ctx.add_J(uv_, ux_, k + dfc_dx - dfe_dx);
    ctx.add_J(uv_, g_, -dfe_dvgf * sign);
    ctx.add_J(uv_, ns, dfe_dvgf * sign);
  }

  // ---- Capacitances ----
  cg_gap_.stamp(ctx, g_, s_);
  cgs_ov_.stamp(ctx, g_, s_);
  cgd_ov_.stamp(ctx, g_, d_);
  cdb_.stamp(ctx, d_, spice::kGround);
  csb_.stamp(ctx, s_, spice::kGround);
}

void Nemfet::kernel_descriptor(const spice::KernelLayout& layout,
                               spice::KernelDescriptor& out) const {
  out.supported = true;
  out.bucket = "nemfet";
  out.batch = &spice::kernel_batch_eval<Nemfet>;
  out.roles = 5;
  out.role_unknowns = {layout.of(d_), layout.of(g_), layout.of(s_),
                       spice::KernelLayout::of(ux_),
                       spice::KernelLayout::of(uv_)};
  // Channel rows (drain/source under the symmetric swap) couple to all
  // three terminals and the beam position; the gate row only carries the
  // companion caps; the mechanical rows couple to themselves and to the
  // actuation terminals.
  for (int e : {0, 2}) {
    for (int v : {0, 1, 2, 3}) out.add_j(e, v);
  }
  out.add_j(1, 0);
  out.add_j(1, 1);
  out.add_j(1, 2);
  out.add_j(3, 3);
  out.add_j(3, 4);
  out.add_j(4, 0);
  out.add_j(4, 1);
  out.add_j(4, 2);
  out.add_j(4, 3);
  out.add_j(4, 4);
}

void Nemfet::kernel_eval(const spice::KernelSink& kk) const {
  const double sign = polarity_ == NemsPolarity::kN ? 1.0 : -1.0;
  const double x = kk.xr(3);
  const double vel = kk.xr(4);

  // Channel current, mirroring stamp() with roles 0 = d, 1 = g, 2 = s.
  int nd = 0, ns = 2;
  double vds = sign * (kk.xr(nd) - kk.xr(ns));
  if (vds < 0.0) {
    std::swap(nd, ns);
    vds = -vds;
  }
  const double vgs = sign * (kk.xr(1) - kk.xr(ns));
  const ChannelEval ch = eval_channel(vgs, vds, x);

  kk.f(nd, sign * ch.id);
  kk.f(ns, -sign * ch.id);
  kk.J(nd, 1, ch.gm);
  kk.J(nd, nd, ch.gds);
  kk.J(nd, ns, -(ch.gm + ch.gds));
  kk.J(ns, 1, -ch.gm);
  kk.J(ns, nd, -ch.gds);
  kk.J(ns, ns, ch.gm + ch.gds);
  kk.J(nd, 3, sign * ch.did_dx);
  kk.J(ns, 3, -sign * ch.did_dx);

  const double vgf = sign * (kk.xr(1) - kk.xr(ns));

  if (kk.dc()) {
    kk.f(3, vel);
    kk.J(3, 4, 1.0);

    const StaticEq eq = static_equilibrium(std::abs(vgf));
    const double dsign = sign * (vgf >= 0.0 ? 1.0 : -1.0);
    kk.f(4, x - eq.x);
    kk.J(4, 3, 1.0);
    kk.J(4, 1, -eq.dx_dv * dsign);
    kk.J(4, ns, eq.dx_dv * dsign);
  } else {
    const double d_el = air_gap(x) + params_.tox / params_.eps_ox;
    const double a = params_.area * sw();
    const double fe = 0.5 * phys::kEps0 * a * vgf * vgf / (d_el * d_el);
    const double dga_dx = -sigmoid((params_.gap0 - x) / params_.gap_softness);
    const double dfe_dx = -2.0 * fe / d_el * dga_dx;
    const double dfe_dvgf = phys::kEps0 * a * vgf / (d_el * d_el);

    const double k = params_.spring_k * sw();
    const double fc = contact_force(x);
    const double dfc_dx =
        params_.contact_k * sw() *
        sigmoid((x - params_.gap0) / params_.contact_softness);

    const double dt = kk.dt();
    kk.f(3, (x - x_state_) / dt - vel);
    kk.J(3, 3, 1.0 / dt);
    kk.J(3, 4, -1.0);

    const double m = params_.mass * sw();
    const double c = params_.damping * sw();
    kk.f(4, m * (vel - v_state_) / dt + c * vel + k * x + fc - fe);
    kk.J(4, 4, m / dt + c);
    kk.J(4, 3, k + dfc_dx - dfe_dx);
    kk.J(4, 1, -dfe_dvgf * sign);
    kk.J(4, ns, dfe_dvgf * sign);
  }

  cg_gap_.kernel_stamp(kk, 1, 2);
  cgs_ov_.kernel_stamp(kk, 1, 2);
  cgd_ov_.kernel_stamp(kk, 1, 0);
  cdb_.kernel_stamp(kk, 0, -1);
  csb_.kernel_stamp(kk, 2, -1);
}

void Nemfet::begin_step(double time, double dt) {
  (void)time;
  (void)dt;
  // History (x_state_, v_state_) is the accepted state; nothing else to
  // capture, and repeated calls with shrinking dt are naturally safe.
}

void Nemfet::accept_step(const spice::AcceptContext& ctx) {
  x_state_ = ctx.x(ux_);
  v_state_ = ctx.x(uv_);
  // Quasi-static update of the moving-plate capacitor.
  cg_gap_.set_capacitance(gate_capacitance(x_state_));
  cg_gap_.accept(ctx, ctx.v(g_) - ctx.v(s_));
  cgs_ov_.accept(ctx, ctx.v(g_) - ctx.v(s_));
  cgd_ov_.accept(ctx, ctx.v(g_) - ctx.v(d_));
  cdb_.accept(ctx, ctx.v(d_));
  csb_.accept(ctx, ctx.v(s_));
}

void Nemfet::reset_state() {
  x_state_ = initial_position_;
  v_state_ = 0.0;
  cg_gap_.reset();
  cg_gap_.set_capacitance(gate_capacitance(x_state_));
  cgs_ov_.reset();
  cgd_ov_.reset();
  cdb_.reset();
  csb_.reset();
}

void Nemfet::notify_discontinuity() {
  cg_gap_.discontinuity();
  cgs_ov_.discontinuity();
  cgd_ov_.discontinuity();
  cdb_.discontinuity();
  csb_.discontinuity();
}

void Nemfet::stamp_ac(spice::AcStampContext& ctx) const {
  const double sign = polarity_ == NemsPolarity::kN ? 1.0 : -1.0;
  const double x = ctx.x(ux_);

  // ---- Channel small-signal (same swap rules as the transient stamp) --
  spice::NodeId nd = d_;
  spice::NodeId ns = s_;
  double vds = sign * (ctx.v(nd) - ctx.v(ns));
  if (vds < 0.0) {
    std::swap(nd, ns);
    vds = -vds;
  }
  const double vgs = sign * (ctx.v(g_) - ctx.v(ns));
  const ChannelEval ch = eval_channel(vgs, vds, x);

  ctx.add_G(nd, g_, ch.gm);
  ctx.add_G(nd, nd, ch.gds);
  ctx.add_G(nd, ns, -(ch.gm + ch.gds));
  ctx.add_G(ns, g_, -ch.gm);
  ctx.add_G(ns, nd, -ch.gds);
  ctx.add_G(ns, ns, ch.gm + ch.gds);
  ctx.add_G(nd, ux_, sign * ch.did_dx);
  ctx.add_G(ns, ux_, -sign * ch.did_dx);

  // ---- Mechanics: x' - v = 0 and m v' + c v + k x + Fc - Fe = 0 -------
  const double vgf = sign * (ctx.v(g_) - ctx.v(ns));
  const double d_el = air_gap(x) + params_.tox / params_.eps_ox;
  const double a = params_.area * sw();
  const double fe = 0.5 * phys::kEps0 * a * vgf * vgf / (d_el * d_el);
  const double dga_dx = -sigmoid((params_.gap0 - x) / params_.gap_softness);
  const double dfe_dx = -2.0 * fe / d_el * dga_dx;
  const double dfe_dvgf = phys::kEps0 * a * vgf / (d_el * d_el);
  const double k = params_.spring_k * sw();
  const double dfc_dx = params_.contact_k * sw() *
                        sigmoid((x - params_.gap0) / params_.contact_softness);

  ctx.add_C(ux_, ux_, 1.0);
  ctx.add_G(ux_, uv_, -1.0);

  ctx.add_C(uv_, uv_, params_.mass * sw());
  ctx.add_G(uv_, uv_, params_.damping * sw());
  ctx.add_G(uv_, ux_, k + dfc_dx - dfe_dx);
  ctx.add_G(uv_, g_, -dfe_dvgf * sign);
  ctx.add_G(uv_, ns, dfe_dvgf * sign);

  // ---- Capacitances at the bias position ------------------------------
  ctx.stamp_capacitance(g_, s_, gate_capacitance(x) + params_.cov * w_.get());
  ctx.stamp_capacitance(g_, d_, params_.cov * w_.get());
  ctx.stamp_capacitance(d_, spice::kGround, params_.cj * w_.get());
  ctx.stamp_capacitance(s_, spice::kGround, params_.cj * w_.get());
}

spice::DeviceTopology Nemfet::topology() const {
  using EdgeKind = spice::DeviceTopology::EdgeKind;
  spice::DeviceTopology topo;
  topo.element_letter = 'X';
  const std::size_t d = topo.add_terminal("drain", d_);
  const std::size_t g = topo.add_terminal("gate", g_);
  const std::size_t s = topo.add_terminal("source", s_);
  const std::size_t b = topo.add_terminal("bulk", spice::kGround);
  // The tunneling/Brownian floor (goff) keeps the channel conductive
  // even with the beam up, so drain-source is a real DC path.  The
  // magnitude is the representative on-state conductance ~ KP W/L.
  topo.add_edge(EdgeKind::kConductive, d, s).magnitude =
      params_.kp * w_.get() / params_.l_ch;
  topo.add_edge(EdgeKind::kCapacitive, g, s).magnitude =  // stack + overlap
      gate_capacitance(x_state_) + params_.cov * w_.get();
  topo.add_edge(EdgeKind::kCapacitive, g, d).magnitude =  // overlap
      params_.cov * w_.get();
  topo.add_edge(EdgeKind::kCapacitive, d, b).magnitude = params_.cj * w_.get();
  topo.add_edge(EdgeKind::kCapacitive, s, b).magnitude = params_.cj * w_.get();
  return topo;
}

void Nemfet::interval_transfer(const analyze::IntervalSet& nodes,
                               std::vector<analyze::NodeClaim>& out) const {
  // Like the MOSFET channel: passive drain-source path (EKV + goff
  // floor), gate couples only through the beam capacitances.
  out.push_back({d_, nodes.at(s_), analyze::NodeClaim::Kind::kNeighbor});
  out.push_back({s_, nodes.at(d_), analyze::NodeClaim::Kind::kNeighbor});
}

void Nemfet::interval_check(const analyze::IntervalSet& nodes,
                            std::vector<analyze::RegionVerdict>& out) const {
  // Actuation magnitude |vgf| = |v(gate) - v(source)| with the canonical
  // source picked by the drain/source swap.  Which terminal ends up as
  // source depends on the solution, so bound over both pairings: the
  // true |vgf| can never exceed the larger upper bound nor fall below
  // the smaller lower bound.
  const analyze::Interval agd = (nodes.at(g_) - nodes.at(d_)).abs();
  const analyze::Interval ags = (nodes.at(g_) - nodes.at(s_)).abs();
  const double v_abs_hi = std::max(agd.hi, ags.hi);
  const double v_abs_lo = std::min(agd.lo, ags.lo);

  // Pull-in comes a third of the way down, where the parallel-plate
  // analytics hold; release comes at the soft stop, so it is the model's
  // own.  10 % guard bands keep the verdicts sound against the residual
  // modeling gap and the DC equilibrium scan's grid near the folds.
  const double vpi = params_.analytic_pull_in_voltage();
  const double vrel = release_voltage();
  const double pull_in_floor = 0.9 * vpi;
  const double hold_ceiling = 1.1 * vrel;
  const bool open0 = initial_position_ < 0.5 * params_.gap0;
  const double half_gap = 0.5 * params_.gap0;
  const double inf = std::numeric_limits<double>::infinity();

  if (open0 && std::isfinite(v_abs_hi) && v_abs_hi < pull_in_floor) {
    std::ostringstream msg;
    msg << "actuation |v(gate)-v(source)| is confined to [" << v_abs_lo
        << ", " << v_abs_hi << "] V, always below 0.9 * V_PI = "
        << pull_in_floor << " V (analytic pull-in " << vpi
        << " V) with the beam starting open: the beam can never pull in "
        << "and the channel stays on its deeply-off branch — raise the "
        << "gate swing or soften the spring";
    out.push_back({name(), "nemfet-never-actuates", msg.str(),
                   lint::LintSeverity::kWarning, name() + ".x",
                   analyze::Interval{-inf, half_gap}});
  } else if (v_abs_lo > 1.1 * (open0 ? std::max(vpi, vrel) : vrel)) {
    std::ostringstream msg;
    msg << "actuation |v(gate)-v(source)| never falls below " << v_abs_lo
        << " V, above 1.1 * " << (open0 ? "max(V_PI, V_REL)" : "V_REL")
        << " = " << 1.1 * (open0 ? std::max(vpi, vrel) : vrel)
        << " V (model release " << vrel << " V): the beam "
        << (open0 ? "pulls in at the first solve and " : "")
        << "can never release — the device is a closed switch, not a "
        << "switch";
    out.push_back({name(), "nemfet-never-releases", msg.str(),
                   lint::LintSeverity::kWarning, name() + ".x",
                   analyze::Interval{half_gap, inf}});
  }

  if (std::isfinite(v_abs_hi) && v_abs_lo > hold_ceiling &&
      v_abs_hi < pull_in_floor) {
    std::ostringstream msg;
    msg << "actuation |v(gate)-v(source)| stays inside the hysteresis "
        << "window (1.1 * V_REL, 0.9 * V_PI) = (" << hold_ceiling << ", "
        << pull_in_floor << ") V: both beam branches remain stable, so "
        << "the device latches whichever branch it started on ("
        << (open0 ? "open" : "closed")
        << ") and no input in this deck can toggle it";
    out.push_back({name(), "nemfet-hysteresis-latched", msg.str(),
                   lint::LintSeverity::kHint, "", {}});
  }
}

void Nemfet::self_check(const lint::DeviceCheckContext& ctx,
                        std::vector<lint::LintFinding>& out) const {
  // Positivity is enforced at construction; these are the constructible-
  // but-out-of-NEMS-range values (paper regime: nm gaps, N/m springs,
  // attogram beams).
  if (params_.gap0 > 1e-6) {
    std::ostringstream msg;
    msg << "rest air gap GAP0 = " << params_.gap0
        << " m exceeds 1 um; NEMS gaps are nanometers — a unit suffix "
        << "was likely dropped";
    out.push_back({lint::LintSeverity::kWarning, "nonphysical-parameter", "",
                   msg.str()});
  }
  if (params_.spring_k > 1e5) {
    std::ostringstream msg;
    msg << "beam stiffness K = " << params_.spring_k
        << " N/m exceeds 100 kN/m; suspended-beam stiffness is of order "
        << "1..100 N/m";
    out.push_back({lint::LintSeverity::kWarning, "nonphysical-parameter", "",
                   msg.str()});
  }
  if (params_.mass > 1e-12) {
    std::ostringstream msg;
    msg << "beam mass M = " << params_.mass
        << " kg exceeds 1 ng; NEMS beams weigh atto- to femtograms";
    out.push_back({lint::LintSeverity::kWarning, "nonphysical-parameter", "",
                   msg.str()});
  }
  if (params_.temp <= 0.0) {
    std::ostringstream msg;
    msg << "temperature " << params_.temp << " K is non-positive; the "
        << "thermal voltage is undefined";
    out.push_back({lint::LintSeverity::kWarning, "nonphysical-parameter", "",
                   msg.str()});
  }
  const double vpi = params_.analytic_pull_in_voltage();
  if (ctx.supply_rail > 0.0 && vpi > ctx.supply_rail) {
    std::ostringstream msg;
    msg << "analytic pull-in voltage " << vpi
        << " V exceeds the largest supply magnitude " << ctx.supply_rail
        << " V: the beam can never actuate and the device is stuck in "
        << "the off branch";
    out.push_back({lint::LintSeverity::kWarning, "pull-in-above-rail", "",
                   msg.str()});
  }
}

std::string Nemfet::netlist_line(
    const std::function<std::string(spice::NodeId)>& node_namer) const {
  std::ostringstream os;
  os << name() << " " << node_namer(d_) << " " << node_namer(g_) << " "
     << node_namer(s_) << " "
     << (polarity_ == NemsPolarity::kN ? "NEMFET_N" : "NEMFET_P")
     << " W=" << w_.get() << " GAP0=" << params_.gap0 << " K=" << params_.spring_k
     << " M=" << params_.mass << " VPI="
     << params_.analytic_pull_in_voltage();
  return os.str();
}

}  // namespace nemsim::devices
