// nemsim-perfbench: end-to-end benchmark of the hybrid NEMS-CMOS paper
// workloads.  Normally driven by perfbench/run.py, which builds this
// binary; by hand:
//
//   nemsim-perfbench --workload sram_column_read --seed 7 --seconds 20 --trace 0
//
// --trace 0 runs as many passes back to back as fit in --seconds (at least
// one) and prints the end-to-end metrics.  --trace 1 alternates untraced
// and traced passes (spans around every library call, RunReports
// attached), then replays recorded trajectories for the engine/LU unit
// costs, and prints the per-layer metrics.  The last stdout line is always
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "nemsim/spice/newton.h"
#include "nemsim/util/error.h"
#include "nemsim/util/logging.h"
#include "workloads.h"

#ifndef NEMSIM_PERFBENCH_BUILD_TYPE
#define NEMSIM_PERFBENCH_BUILD_TYPE ""
#endif

namespace {

using namespace perfbench;

/// Extra set-up-only repetitions after each pass, on top of the pass's own
/// set-up: at least kMinSetupRepeats, and more until kSetupSeconds have
/// been spent.  setup_s is the fastest of all of them: a set-up lasts
/// milliseconds, so any one sample is at the mercy of a host stall, while
/// the fastest of hundreds spread over the run is not.
constexpr int kMinSetupRepeats = 2;
constexpr int kMaxSetupRepeats = 200;
constexpr double kSetupSeconds = 0.1;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  RunConfig config;
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
  std::string trace_out;
};

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return 1;
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

/// Peak resident set of this process image, from VmHWM.  getrusage's
/// ru_maxrss is not used: it survives exec, so it would report the peak
/// of whatever process launched this one when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != v.size() || v.empty() || v[0] == '-') {
    throw nemsim::InvalidArgument(flag + ": expected a whole number, got '" +
                                  v + "'");
  }
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  a.config.threads = nproc();
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw nemsim::InvalidArgument(flag + ": missing value");
    }
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, v);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_uint(flag, v));
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_uint(flag, v);
      if (t > 1) throw nemsim::InvalidArgument("--trace: expected 0 or 1");
      a.trace = t == 1;
      have_trace = true;
    } else if (flag == "--trials") {
      a.config.trials = parse_uint(flag, v);
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else if (flag == "--git-dirty") {
      a.git_dirty = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      throw nemsim::InvalidArgument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    throw nemsim::InvalidArgument(
        "usage: nemsim-perfbench --workload NAME --seed N --seconds S "
        "--trace 0|1 [--trials N] "
        "[--git-sha SHA] [--git-dirty 0|1] [--trace-out PATH]");
  }
  if (a.seconds < 1 || a.config.trials < 2) {
    throw nemsim::InvalidArgument("--seconds must be >= 1, --trials >= 2");
  }
  a.config.seed = a.seed;
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "sram_column_read") return make_sram_column_read(a.config);
  if (a.workload == "sram_mc_snm") return make_sram_mc_snm(a.config);
  throw nemsim::InvalidArgument("unknown workload " + a.workload);
}

std::string provenance_json(const Args& a, const Workload& w) {
  const nemsim::spice::NewtonOptions newton;
  std::ostringstream os;
  os << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
     << ", \"seconds\": " << a.seconds
     << ", \"git_sha\": \"" << a.git_sha << "\", \"git_dirty\": \""
     << a.git_dirty << "\", \"build_type\": \"" << NEMSIM_PERFBENCH_BUILD_TYPE
     << "\", \"nproc\": " << nproc() << ", \"threads\": " << w.threads()
     << ", \"trials\": " << a.config.trials
     << ", \"newton\": {\"kernels\": "
     << (newton.kernels ? "true" : "false")
     << ", \"bypass\": " << (newton.bypass ? "true" : "false")
     << ", \"jacobian_reuse\": " << (newton.jacobian_reuse ? "true" : "false")
     << ", \"solver\": \"auto\", \"sparse_threshold\": "
     << newton.sparse_threshold << "}}";
  return os.str();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything measured in one traced pass.
struct TracedPass {
  PassRecord record;
  LayerCounts counts;
  double since_us = 0.0;  ///< tracer clock at the start of the pass
};

std::vector<Metric> end_to_end_metrics(const std::vector<PassRecord>& passes,
                                       const std::vector<double>& setups) {
  std::vector<double> wall, items;
  for (const PassRecord& p : passes) {
    wall.push_back(p.wall_s);
    items.insert(items.end(), p.item_ms.begin(), p.item_ms.end());
  }
  // The slowest pass, not the median one: the shared host runs in fast
  // and slow periods whose mix drifts from one run to the next, so the
  // median pass moves with the mix, while nearly every run holds a pass
  // spent wholly in the (predominant) slow periods.  item_p90_ms sits
  // there for the same reason.
  return {
      {"wall_max_s", *std::max_element(wall.begin(), wall.end()), "s"},
      {"setup_s", *std::min_element(setups.begin(), setups.end()), "s"},
      {"item_p90_ms", quantile(items, 0.9), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer_metrics(const Workload& w, const Tracer& tracer,
                                      const std::vector<TracedPass>& traced,
                                      double untraced_wall_s,
                                      double untraced_cpu_util,
                                      const ReplayResult& replay) {
  // Span totals per traced pass, medians across passes.
  auto per_pass = [&](const std::string& name) {
    std::vector<double> v;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      const double since = traced[i].since_us;
      const double until = i + 1 < traced.size()
                               ? traced[i + 1].since_us
                               : tracer.now_us();
      // Spans of later passes start after `until`; subtract them out.
      v.push_back(tracer.total_s(name, since) - tracer.total_s(name, until));
    }
    return median(v);
  };
  std::vector<double> traced_wall;
  for (const TracedPass& t : traced) traced_wall.push_back(t.record.wall_s);
  const LayerCounts& c = traced.back().counts;  // counts repeat exactly
  const nemsim::spice::NewtonStats& n = c.newton;
  const double overlays =
      static_cast<double>(tracer.count("spice.set_overlay"));
  const bool has_trials = tracer.count("mc.trial") > 0;

  const UnitCosts& uc = replay.unit;
  const double engine_busy_s = replay.busy.engine_s;
  const double lu_busy_s = replay.busy.lu_s;
  // Share of solve time the replayed layers account for, measured on the
  // replayed run(s).  Busy time is a lower bound (fastest calls), so
  // newton.self_s is an upper bound on the rest of the solve time.
  const double run_busy_s = replay.run_busy.engine_s + replay.run_busy.lu_s;
  const double busy_share =
      replay.run_solve_s > 0 ? run_busy_s / replay.run_solve_s : 0.0;
  const double tran_attempts =
      static_cast<double>(c.accepted_steps + c.lte_rejects + c.newton_failures);
  const double dc_points = static_cast<double>(c.dc_points);
  const double sweep_s = per_pass("spice.run_dc_sweep");
  const double point_us = dc_points > 0 ? 1e6 * sweep_s / dc_points : 0.0;
  // Point time minus its replayed assembly + LU cost, on the replayed
  // sweep (one state per point).
  const double point_overhead_us =
      dc_points > 0 && uc.states > 0
          ? 1e6 * (replay.run_wall_s - run_busy_s) /
                static_cast<double>(uc.states)
          : 0.0;

  return {
      {"core.build_ms", 1e3 * per_pass("core.build"), "ms"},
      {"lint.ms", 1e3 * per_pass("spice.lint"), "ms"},
      {"analyze.ms", 1e3 * per_pass("spice.analyze"), "ms"},
      {"compile.ms", 1e3 * per_pass("spice.compile"), "ms"},
      {"overlay.us",
       overlays > 0 ? 1e6 * tracer.total_s("spice.set_overlay") / overlays
                    : 0.0,
       "us"},
      {"engine.assemble_us", uc.assemble_us, "us"},
      {"engine.linear_baseline_us", uc.sparse ? uc.linear_baseline_us : 0.0,
       "us"},
      {"engine.accept_us", uc.accept_us, "us"},
      {"engine.assembles", static_cast<double>(n.assembles), "count"},
      {"engine.residual_assembles", static_cast<double>(n.residual_assembles),
       "count"},
      {"engine.device_evals", static_cast<double>(n.nonlinear_evals), "count"},
      {"engine.busy_s", engine_busy_s, "s"},
      {"lu.factor_us", uc.factor_us, "us"},
      {"lu.refactor_us", uc.refactor_us, "us"},
      {"lu.solve_us", uc.solve_us, "us"},
      {"lu.fill_nnz", uc.fill_nnz, "count"},
      {"lu.symbolic_factors", static_cast<double>(n.factorizations), "count"},
      {"lu.numeric_refactors", static_cast<double>(n.factorization_reuses),
       "count"},
      {"lu.busy_s", lu_busy_s, "s"},
      {"newton.iterations", static_cast<double>(n.total_iterations), "count"},
      {"newton.iters_per_solve",
       c.solves > 0 ? static_cast<double>(n.total_iterations) /
                          static_cast<double>(c.solves)
                    : 0.0,
       "ratio"},
      {"newton.gmin_steps", static_cast<double>(n.gmin_steps), "count"},
      {"newton.source_steps", static_cast<double>(n.source_steps), "count"},
      {"newton.self_s", c.solve_s * (1.0 - busy_share), "s"},
      {"tran.accepted_steps", static_cast<double>(c.accepted_steps), "count"},
      {"tran.lte_rejects", static_cast<double>(c.lte_rejects), "count"},
      {"tran.newton_failures", static_cast<double>(c.newton_failures),
       "count"},
      {"tran.accept_ratio",
       tran_attempts > 0
           ? static_cast<double>(c.accepted_steps) / tran_attempts
           : 0.0,
       "ratio"},
      {"tran.steps_per_sim_ns",
       c.sim_ns > 0 ? static_cast<double>(c.accepted_steps) / c.sim_ns : 0.0,
       "1/ns"},
      {"tran.sim_ns_per_s", w.sim_seconds_per_pass() * 1e9 / untraced_wall_s,
       "ns/s"},
      {"dc.points", dc_points, "count"},
      {"dc.point_us", point_us, "us"},
      {"dc.point_overhead_us", point_overhead_us, "us"},
      {"dc.points_per_s",
       static_cast<double>(w.dc_points_per_pass()) / untraced_wall_s, "1/s"},
      {"mc.overlay_ms", 1e3 * per_pass("spice.set_overlay"), "ms"},
      {"mc.sweep_ms", 1e3 * sweep_s, "ms"},
      {"mc.extract_ms", has_trials ? 1e3 * per_pass("measure.extract") : 0.0,
       "ms"},
      {"parallel.cpu_util", untraced_cpu_util, "ratio"},
      {"trace.overhead_frac", median(traced_wall) / untraced_wall_s - 1.0,
       "ratio"},
  };
}

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(12);
  os << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << checks.attempted
     << ", \"failed\": " << checks.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << v
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run(const Args& a) {
  const std::string build_type = NEMSIM_PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::cerr << "nemsim-perfbench: built as '" << build_type
              << "', not Release; refusing to time it\n";
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(a);
  const std::string provenance = provenance_json(a, *w);
  std::cout << "provenance " << provenance << "\n";

  Checks checks;
  std::vector<PassRecord> untraced;
  std::vector<TracedPass> traced;
  std::vector<double> setups;
  Tracer tracer;
  double untraced_cpu_s = 0.0;
  std::vector<double> cycles;  // wall time of each loop iteration
  const auto t0 = Clock::now();
  do {
    const auto t_cycle = Clock::now();
    const double cpu0 = cpu_seconds();
    untraced.push_back(w->run_pass(nullptr, nullptr, checks));
    const double cpu_s = cpu_seconds() - cpu0;
    untraced_cpu_s += cpu_s;
    setups.push_back(untraced.back().setup_s);
    std::cout << "pass " << untraced.size() << ": wall "
              << untraced.back().wall_s << " s, cpu " << cpu_s << " s, setup "
              << untraced.back().setup_s << " s\n";
    const auto t_setup = Clock::now();
    for (int i = 0; i < kMaxSetupRepeats; ++i) {
      if (i >= kMinSetupRepeats && seconds_since(t_setup) > kSetupSeconds) {
        break;
      }
      setups.push_back(w->setup_only());
    }
    if (a.trace) {
      TracedPass t;
      t.since_us = tracer.now_us();
      t.record = w->run_pass(&tracer, &t.counts, checks);
      std::cout << "traced pass " << traced.size() + 1 << ": wall "
                << t.record.wall_s << " s\n";
      traced.push_back(std::move(t));
    }
    cycles.push_back(seconds_since(t_cycle));
    // Stop before a pass that would overrun the run, but run at least one.
  } while (seconds_since(t0) + median(cycles) <= a.seconds);
  w->run_once_checks(checks);

  std::vector<double> untraced_wall;
  std::size_t items = 0;
  for (const PassRecord& p : untraced) {
    untraced_wall.push_back(p.wall_s);
    items += p.item_ms.size();
  }
  const double wall_total =
      std::accumulate(untraced_wall.begin(), untraced_wall.end(), 0.0);
  std::cout << untraced.size() << " untraced passes, " << items
            << " items, " << setups.size() << " set-ups timed\n";

  std::vector<Metric> metrics;
  if (a.trace) {
    const ReplayResult replay = w->replay(traced.back().counts);
    std::cout << "replay: representative n = " << replay.unit.unknowns
              << (replay.unit.sparse ? " (sparse), " : " (dense), ")
              << replay.unit.states << " states\n";
    metrics = per_layer_metrics(
        *w, tracer, traced, median(untraced_wall),
        untraced_cpu_s / (wall_total * static_cast<double>(w->threads())),
        replay);
    const double busy_s = replay.run_busy.engine_s + replay.run_busy.lu_s;
    std::cout << "replayed busy " << busy_s << " s vs measured solve "
              << replay.run_solve_s << " s on the replayed run(s)"
              << (busy_s <= replay.run_solve_s
                      ? ""
                      : "  ** busy exceeds solve time **")
              << "\n";
    if (!a.trace_out.empty()) {
      if (tracer.write_chrome_trace(a.trace_out, provenance)) {
        std::cout << "trace written to " << a.trace_out << "\n";
      } else {
        std::cerr << "could not write " << a.trace_out << "\n";
      }
    }
  } else {
    metrics = end_to_end_metrics(untraced, setups);
    std::vector<double> items;
    for (const PassRecord& p : untraced) {
      items.insert(items.end(), p.item_ms.begin(), p.item_ms.end());
    }
    std::cout << "median pass " << median(untraced_wall) << " s, item p50 "
              << median(items) << " ms\n";
    // Workload-specific throughput, for the log (the tracked metrics are
    // the ones every workload has).
    const double wall = median(untraced_wall);
    if (w->sim_seconds_per_pass() > 0) {
      std::cout << "sim_ns_per_s " << w->sim_seconds_per_pass() * 1e9 / wall
                << "\n";
    }
    if (w->dc_points_per_pass() > 0) {
      std::cout << "points_per_s "
                << static_cast<double>(w->dc_points_per_pass()) / wall << "\n";
    }
  }
  const std::size_t attempted = std::max<std::size_t>(checks.attempted, 1);
  std::cout << "error_rate "
            << static_cast<double>(checks.failed) /
                   static_cast<double>(attempted)
            << " (" << checks.failed << " of " << checks.attempted
            << " checks failed)\n";
  for (const std::string& f : checks.failures) {
    std::cout << "FAILED: " << f << "\n";
  }
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << std::setprecision(8)
              << m.value << " " << m.unit << "\n";
  }
  print_result(checks, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Library warnings (failed trials, lint findings) stay off stdout,
    // whose last line is the machine-readable result.
    nemsim::set_log_level(nemsim::LogLevel::kError);
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "nemsim-perfbench: " << e.what() << "\n";
    return 2;
  }
}
