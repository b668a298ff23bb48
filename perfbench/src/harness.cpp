#include "harness.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <iomanip>
#include <sstream>
#include <thread>

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ------------------------------------------------------------- Tracer

namespace {

/// Per-thread stack of open spans (indices into one Tracer's records).
thread_local std::vector<long> t_open_spans;

unsigned thread_tag() {
  return static_cast<unsigned>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

long Tracer::open(const char* name, std::uint64_t item) {
  Record r;
  r.name = name;
  r.item = item;
  r.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  r.tid = thread_tag();
  std::lock_guard<std::mutex> lock(mutex_);
  r.start_us = now_us();
  records_.push_back(std::move(r));
  const long index = static_cast<long>(records_.size() - 1);
  t_open_spans.push_back(index);
  return index;
}

void Tracer::close(long index) {
  const double end = now_us();
  if (!t_open_spans.empty()) t_open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  records_[static_cast<std::size_t>(index)].end_us = end;
}

Tracer::Span::Span(Tracer* tracer, const char* name, std::uint64_t item)
    : tracer_(tracer) {
  if (tracer_) index_ = tracer_->open(name, item);
}

Tracer::Span::~Span() {
  if (tracer_) tracer_->close(index_);
}

std::vector<Tracer::Record> Tracer::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

double Tracer::total_s(const std::string& name, double since_us) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double us = 0.0;
  for (const Record& r : records_) {
    if (r.name == name && r.start_us >= since_us) us += r.end_us - r.start_us;
  }
  return us * 1e-6;
}

std::size_t Tracer::count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const Record& r : records_) {
    if (r.name == name) ++n;
  }
  return n;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::string& provenance_json) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::vector<Record> recs = records();
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    os << "  {\"name\": \"" << json_escape(r.name)
       << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
       << r.tid << ", \"ts\": " << r.start_us
       << ", \"dur\": " << (r.end_us - r.start_us)
       << ", \"args\": {\"item\": " << r.item << ", \"span\": " << i
       << ", \"parent\": " << r.parent << "}}"
       << (i + 1 < recs.size() ? ",\n" : "\n");
  }
  os << "],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": " << provenance_json
     << "}\n";
  return static_cast<bool>(os);
}

// ------------------------------------------------------------- Checks

void Checks::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 64) failures.push_back(what);
  }
}

void Checks::near(double value, double ref, double rel_tol,
                  const std::string& what) {
  const bool ok = std::isfinite(value) &&
                  std::abs(value - ref) <= rel_tol * std::abs(ref);
  std::ostringstream os;
  os << std::setprecision(10) << what << ": got " << value << ", reference "
     << ref << " +/- " << rel_tol * 100.0 << " %";
  check(ok, os.str());
}

// -------------------------------------------------------- LayerCounts

void LayerCounts::add(const spice::RunReport& report) {
  newton.merge(report.newton);
  for (std::uint64_t n : report.newton_iteration_histogram) solves += n;
  accepted_steps += report.accepted_steps;
  lte_rejects += report.lte_reject_count;
  newton_failures += report.newton_failures;
  if (report.analysis == "dc_sweep") dc_points += report.points;
  const double op_s = report.metrics.get("phase.op").seconds;
  const double step_s = report.metrics.get("phase.stepping").seconds;
  solve_s += op_s + step_s;
}

}  // namespace perfbench
