//===- e2e.h - shared pieces of the end-to-end benchmark ----------------------===//
//
// Part of the DCIR reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options, seeded inputs, sample statistics, result rows and spans
/// shared by the workloads of bench/e2e (see README.md there).
/// Everything here is the benchmark's own code: it measures the library
/// from outside, through its public functions.
///
//===----------------------------------------------------------------------===//

#ifndef DCIR_BENCH_E2E_E2E_H
#define DCIR_BENCH_E2E_E2E_H

#include "obs/Trace.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  /// The measured window: run_seconds of BENCHMARK.json, 1 in smoke runs.
  double Seconds = 1.0;
  bool Trace = false;
  /// Few kernels, one setup, short windows: a quick end-to-end check.
  bool Smoke = false;
  /// Where out/<workload>.json and the Chrome trace go.
  std::string OutDir = ".";
  /// Scratch space for the reference builds (inside the build tree).
  std::string WorkDir = ".";
  std::string Commit = "unknown";
  int Nproc = 1;
  /// min(4, Nproc): the one thread budget every workload uses.
  int Threads = 1;
};

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double nowSec() { return static_cast<double>(nowNs()) * 1e-9; }
inline std::int64_t toNs(double Seconds) {
  return static_cast<std::int64_t>(Seconds * 1e9);
}

/// splitmix64: every seeded choice of the benchmark (kernel order, inputs,
/// request sequences) comes from one of these.
class Rng {
public:
  explicit Rng(std::uint64_t Seed) : S(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next() {
    std::uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  std::uint64_t below(std::uint64_t N) { return N ? next() % N : 0; }
  template <typename It> void shuffle(It First, It Last) {
    using std::swap;
    for (auto N = Last - First; N > 1; --N)
      swap(First[N - 1], First[below(static_cast<std::uint64_t>(N))]);
  }

private:
  std::uint64_t S;
};

/// Linear-interpolated quantile \p Q in [0, 1]; 0 for no samples.
double quantile(std::vector<double> V, double Q);
double geomean(const std::vector<double> &V);
/// |A - B| <= Tol * max(|A|, |B|, 1e-300) — the reference-check rule.
bool relClose(double A, double B, double Tol = 1e-9);

/// Latency histogram with 0.2%-wide logarithmic buckets and rank
/// interpolation inside a bucket: constant memory for the millions of
/// requests the serving workloads send, quantiles within 0.2%.
class LogHist {
public:
  LogHist();
  void add(double Ns);
  double quantile(double Q) const;
  std::uint64_t count() const { return N; }

private:
  std::vector<std::uint64_t> Buckets;
  std::uint64_t N = 0;
};

/// One printed metric. \p Note carries a base or sample count ("n=319").
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
  std::string Note;
};

/// What one workload run produces.
struct Result {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  /// Harness self-checks that failed (drift guard, coverage, counters);
  /// any entry makes the run incorrect even with Failed == 0.
  std::vector<std::string> GuardFailures;
  /// End-to-end (untraced run) or per-layer (traced run) metrics: the
  /// JSON line carries exactly these.
  std::vector<Metric> Metrics;
  /// Further rows for the human output and out/<workload>.json only
  /// (per-kernel and per-pass rows, p99 with sample counts, ...).
  std::vector<Metric> Extra;

  /// Counts one checked operation; \p Why is reported for the first few
  /// failures.
  void check(bool Ok, const std::string &Why);
  void guard(bool Ok, const std::string &Why) {
    if (!Ok)
      GuardFailures.push_back(Why);
  }
  void add(std::string Name, double Value, std::string Unit,
           std::string Note = std::string()) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit),
                       std::move(Note)});
  }
  void extra(std::string Name, double Value, std::string Unit,
             std::string Note = std::string()) {
    Extra.push_back({std::move(Name), Value, std::move(Unit),
                     std::move(Note)});
  }
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// Traced runs record into the library's own tracer (obs::Tracer), which
/// also holds the library's spans (compile:<entry>, passes, jit.*,
/// invoke:<entry>, ...) nested inside the benchmark's. Tracing is switched
/// on per traced unit and stays off once this many events are held, which
/// bounds the memory of runs that send millions of requests.
constexpr std::size_t kTraceEventCap = 200000;

/// Switches the tracer on for the next unit when \p Want and the cap
/// allows it; returns whether it is on.
bool traceUnit(bool Want);

/// A span of the benchmark's own, named `<layer>.<what> #<request id>`;
/// the layer is the src/ module the timed call enters, or `bench`. The
/// parent is the enclosing span. Costs one relaxed load when tracing is
/// off.
class Span {
public:
  Span(const char *Name, std::uint64_t Req) {
    if (dcir::obs::Tracer::instance().enabled())
      S.emplace(std::string(Name) + " #" + std::to_string(Req), "e2e");
  }

private:
  std::optional<dcir::obs::Span> S;
};

/// Self time per src/ layer, in ms, of the Chrome trace-event JSON
/// \p TraceJson (as obs::Tracer::json() writes it).
std::map<std::string, double> layerSelfMs(const std::string &TraceJson);

} // namespace e2e

#endif // DCIR_BENCH_E2E_E2E_H
