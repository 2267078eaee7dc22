//===- e2e.cpp - statistics, result rows and spans of bench/e2e ---------------===//

#include "e2e.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace e2e {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(std::max(X, 1e-300));
  return std::exp(LogSum / static_cast<double>(V.size()));
}

bool relClose(double A, double B, double Tol) {
  if (!std::isfinite(A) || !std::isfinite(B))
    return false;
  return std::fabs(A - B) <=
         Tol * std::max({std::fabs(A), std::fabs(B), 1e-300});
}

//===----------------------------------------------------------------------===//
// LogHist
//===----------------------------------------------------------------------===//

namespace {
constexpr double kBucketGrowth = 1.002;
const double kLogGrowth = std::log(kBucketGrowth);
// 1 ns .. ~1e11 ns (100 s) at 0.2% per bucket.
constexpr std::size_t kBuckets = 12700;

double bucketLow(std::size_t I) {
  return std::exp(static_cast<double>(I) * kLogGrowth);
}
} // namespace

LogHist::LogHist() : Buckets(kBuckets, 0) {}

void LogHist::add(double Ns) {
  double L = Ns > 1.0 ? std::log(Ns) / kLogGrowth : 0.0;
  std::size_t I = std::min(static_cast<std::size_t>(L), kBuckets - 1);
  ++Buckets[I];
  ++N;
}

double LogHist::quantile(double Q) const {
  if (N == 0)
    return 0.0;
  double Rank = Q * static_cast<double>(N - 1);
  std::uint64_t Seen = 0;
  for (std::size_t I = 0; I < kBuckets; ++I) {
    if (!Buckets[I])
      continue;
    if (static_cast<double>(Seen + Buckets[I]) > Rank) {
      // Spread the bucket's samples evenly across its width.
      double Frac = (Rank - static_cast<double>(Seen) + 0.5) /
                    static_cast<double>(Buckets[I]);
      return bucketLow(I) + (bucketLow(I + 1) - bucketLow(I)) * Frac;
    }
    Seen += Buckets[I];
  }
  return bucketLow(kBuckets - 1);
}

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

void Result::check(bool Ok, const std::string &Why) {
  ++Attempted;
  if (Ok)
    return;
  if (++Failed <= 5)
    std::fprintf(stderr, "e2e: check failed: %s\n", Why.c_str());
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

bool traceUnit(bool Want) {
  dcir::obs::Tracer &T = dcir::obs::Tracer::instance();
  T.setEnabled(Want && T.eventCount() < kTraceEventCap);
  return T.enabled();
}

namespace {

/// The src/ layer of a span: the benchmark's spans and most of the
/// library's are named `<layer>.<what>`; the rest map by prefix.
std::string layerOf(const std::string &Name) {
  static const std::map<std::string, std::string> Library = {
      {"convert", "conversion"}, {"translate", "conversion"},
      {"optimize", "sdfgopt"},   {"native", "exec"},
      {"jit", "exec"},           {"compile", "api"},
      {"invoke", "api"},         {"specialize", "api"},
      {"tune", "api"},           {"queue-wait", "api"},
      {"verify", "analysis"},    {"guard", "analysis"}};
  std::string Prefix = Name.substr(0, Name.find_first_of(".:"));
  auto It = Library.find(Prefix);
  return It == Library.end() ? Prefix : It->second;
}

/// The value of "Key": in one event line of obs::Tracer::json(), without
/// quotes.
std::string field(const std::string &Line, const std::string &Key) {
  std::size_t At = Line.find("\"" + Key + "\":");
  if (At == std::string::npos)
    return std::string();
  At += Key.size() + 3;
  if (Line[At] == '"')
    return Line.substr(At + 1, Line.find('"', At + 1) - At - 1);
  return Line.substr(At, Line.find_first_of(",}", At) - At);
}

} // namespace

std::map<std::string, double> layerSelfMs(const std::string &TraceJson) {
  struct Open {
    std::string Layer;
    double BeginUs, ChildUs;
  };
  // json() orders each thread's events by time, so B/E pairs nest.
  std::map<std::string, std::vector<Open>> Stacks; // Per thread id.
  std::map<std::string, double> Out;
  std::istringstream In(TraceJson);
  for (std::string Line; std::getline(In, Line);) {
    const std::string Phase = field(Line, "ph");
    std::vector<Open> &Stack = Stacks[field(Line, "tid")];
    const double Us = std::atof(field(Line, "ts").c_str());
    if (Phase == "B") {
      // Optimizer passes are spans of their own; they belong to the layer
      // whose pipeline runs them.
      std::string Layer = field(Line, "cat") == "pass" && !Stack.empty()
                              ? Stack.back().Layer
                              : layerOf(field(Line, "name"));
      Stack.push_back({std::move(Layer), Us, 0.0});
    } else if (Phase == "E" && !Stack.empty()) {
      const Open O = Stack.back();
      Stack.pop_back();
      Out[O.Layer] += (Us - O.BeginUs - O.ChildUs) * 1e-3;
      if (!Stack.empty())
        Stack.back().ChildUs += Us - O.BeginUs;
    }
  }
  return Out;
}

} // namespace e2e
