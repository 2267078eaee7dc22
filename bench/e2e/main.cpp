//===- main.cpp - bench/e2e entry point: one workload per process ---------===//
//
// Part of the DCIR reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// dcir_e2e --workload NAME [--seed N] [--trace 0|1] [--smoke]
///          [--out DIR] [--work DIR] [--commit SHA]
/// dcir_e2e --list
///
/// Runs one workload for a window of E2E_RUN_SECONDS (run_seconds in
/// BENCHMARK.json, read when the build is configured; one second with
/// --smoke) and prints `workload metric value unit` lines, then
/// one JSON object as the last line of stdout:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
/// and writes the same plus every extra row and a meta block to
/// DIR/<workload>.json (traced runs: DIR/<workload>.traced.json and the
/// Chrome trace DIR/<workload>.trace.json). Exits 1 when any output
/// disagrees with its reference or a harness guard fails, 2 on bad usage.
/// bench/e2e/run.sh builds this binary and sets up its environment.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "exec/JitCache.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <sched.h>

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: dcir_e2e --workload NAME [--seed N] [--trace 0|1] "
               "[--smoke] [--out DIR] [--work DIR] [--commit SHA]\n"
               "workloads:");
  for (const std::string &W : e2e::workloadNames())
    std::fprintf(stderr, " %s", W.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

/// Accepts both `--flag value` and `--flag=value`.
bool flag(int Argc, char **Argv, int &I, const char *Name, std::string &Out) {
  std::size_t N = std::strlen(Name);
  if (std::strncmp(Argv[I], Name, N) != 0)
    return false;
  if (Argv[I][N] == '=') {
    Out = Argv[I] + N + 1;
    return true;
  }
  if (Argv[I][N] != '\0')
    return false;
  if (I + 1 >= Argc)
    usage();
  Out = Argv[++I];
  return true;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

std::string metricsJson(const std::vector<e2e::Metric> &Ms, bool WithNotes) {
  std::string Out = "{";
  for (std::size_t I = 0; I < Ms.size(); ++I) {
    Out += (I ? ", " : "") + jsonString(Ms[I].Name) + ": {\"value\": " +
           jsonNumber(Ms[I].Value) + ", \"unit\": " + jsonString(Ms[I].Unit);
    if (WithNotes && !Ms[I].Note.empty())
      Out += ", \"note\": " + jsonString(Ms[I].Note);
    Out += "}";
  }
  return Out + "}";
}

} // namespace

int main(int Argc, char **Argv) {
  e2e::Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string V;
    if (flag(Argc, Argv, I, "--workload", V))
      O.Workload = V;
    else if (flag(Argc, Argv, I, "--seed", V))
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (flag(Argc, Argv, I, "--trace", V))
      O.Trace = V == "1";
    else if (flag(Argc, Argv, I, "--out", V))
      O.OutDir = V;
    else if (flag(Argc, Argv, I, "--work", V))
      O.WorkDir = V;
    else if (flag(Argc, Argv, I, "--commit", V))
      O.Commit = V;
    else if (std::strcmp(Argv[I], "--smoke") == 0)
      O.Smoke = true;
    else if (std::strcmp(Argv[I], "--list") == 0) {
      for (const std::string &W : e2e::workloadNames())
        std::printf("%s\n", W.c_str());
      return 0;
    } else
      usage();
  }
  const std::vector<std::string> &Names = e2e::workloadNames();
  if (std::find(Names.begin(), Names.end(), O.Workload) == Names.end())
    usage();
  O.Seconds = O.Smoke ? 1 : E2E_RUN_SECONDS;
  cpu_set_t Set;
  O.Nproc = sched_getaffinity(0, sizeof(Set), &Set) == 0 ? CPU_COUNT(&Set) : 1;
  O.Threads = std::max(1, std::min(4, O.Nproc));
  std::error_code EC;
  std::filesystem::create_directories(O.OutDir, EC);

  e2e::Result R = e2e::runWorkload(O);
  const bool Correct = R.Failed == 0 && R.GuardFailures.empty();
  for (const std::string &G : R.GuardFailures)
    std::fprintf(stderr, "e2e: %s: %s\n", O.Workload.c_str(), G.c_str());

  auto Print = [&](const e2e::Metric &M) {
    std::printf("%s %s %.6g %s%s%s\n", O.Workload.c_str(), M.Name.c_str(),
                M.Value, M.Unit.c_str(), M.Note.empty() ? "" : "  # ",
                M.Note.c_str());
  };
  for (const e2e::Metric &M : R.Metrics)
    Print(M);
  for (const e2e::Metric &M : R.Extra)
    Print(M);
  std::printf("%s failed_ratio %.6g failed/attempted  # %llu of %llu\n",
              O.Workload.c_str(),
              R.Attempted ? static_cast<double>(R.Failed) /
                                static_cast<double>(R.Attempted)
                          : 0.0,
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));

  const dcir::exec::JitCache &Cache = dcir::exec::JitCache::shared();
  std::string Meta =
      "{\"workload\": " + jsonString(O.Workload) +
      ", \"seed\": " + std::to_string(O.Seed) +
      ", \"seconds\": " + jsonNumber(O.Seconds) +
      ", \"trace\": " + (O.Trace ? "true" : "false") +
      ", \"smoke\": " + (O.Smoke ? "true" : "false") +
      ", \"commit\": " + jsonString(O.Commit) +
      ", \"compiler\": " + jsonString(Cache.compiler()) +
      ", \"flag_tier\": " + jsonString(Cache.openmp() ? "openmp" : "serial") +
      ", \"flags\": " + jsonString(Cache.flags()) +
      ", \"nproc\": " + std::to_string(O.Nproc) +
      ", \"threads\": " + std::to_string(O.Threads) + "}";
  std::string Line = "{\"correct\": " +
                     std::string(Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": " + metricsJson(R.Metrics, false) + "}";
  std::string Path =
      O.OutDir + "/" + O.Workload + (O.Trace ? ".traced.json" : ".json");
  std::ofstream Out(Path);
  Out << "{\"meta\": " << Meta << ",\n\"correct\": "
      << (Correct ? "true" : "false") << ", \"attempted\": " << R.Attempted
      << ", \"failed\": " << R.Failed
      << ",\n\"metrics\": " << metricsJson(R.Metrics, true)
      << ",\n\"extra\": " << metricsJson(R.Extra, true) << "}\n";
  if (!Out.good())
    std::fprintf(stderr, "e2e: cannot write %s\n", Path.c_str());
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
