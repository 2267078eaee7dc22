//===- Workloads.cpp - the workloads of bench/e2e -----------------------------===//

#include "Workloads.h"

#include "Chain.h"
#include "Reference.h"

#include "api/Api.h"
#include "exec/JitCache.h"
#include "pipeline/Pipeline.h"
#include "pipeline/PolybenchRegistry.h"
#include "pipeline/WorkloadDefines.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>

#include <sys/resource.h>
#include <unistd.h>

using namespace dcir;

namespace e2e {
namespace {

using ProgramPtr = std::shared_ptr<const api::Program>;

/// The closed-form serving kernel: y += a*x, returns sum(y). Integer
/// inputs keep every result exact, so each request checks against
/// Sy0 + k*a*Sx after its k-th call.
const char *const kSaxpySrc = R"(
#define N 32
double saxpy(double a, double x[32], double y[32]) {
  double acc = 0.0;
  for (int i = 0; i < N; i++)
    y[i] = a * x[i] + y[i];
  for (int i = 0; i < N; i++)
    acc += y[i];
  return acc;
}
)";

/// The symbolic gemm of fig6's specialization section: every shape keys
/// its own variant.
const char *const kGemmSymSrc = R"(
void kernel_gemm_sym(int ni, int nj, int nk, double *A, double *B,
                     double *C) {
  for (int i = 0; i < ni; i++) {
    for (int j = 0; j < nj; j++)
      C[i * nj + j] *= 1.2;
    for (int k = 0; k < nk; k++)
      for (int j = 0; j < nj; j++)
        C[i * nj + j] += 1.5 * A[i * nk + k] * B[k * nj + j];
  }
}
)";

std::string num(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

pipeline::CompileOptions nativeOptions(const Options &O, bool Parallel) {
  pipeline::CompileOptions C;
  C.Engine = exec::EngineKind::Native;
  C.Parallelism = Parallel ? pipeline::ParallelismMode::Auto
                           : pipeline::ParallelismMode::Off;
  C.NumThreads = O.Threads;
  return C;
}

/// The Fig. 6 kernels at \p Scale x MINI (smoke: three of them).
std::vector<Kernel> corpus(const Options &O, int Scale) {
  std::vector<Kernel> Ks;
  for (const pipeline::PolybenchKernel &K : pipeline::polybenchKernels()) {
    std::string Name = K.Name;
    if (O.Smoke && Name != "gemm" && Name != "atax" && Name != "jacobi-1d")
      continue;
    Ks.push_back({Name, K.Entry,
                  pipeline::prepareWorkload(pipeline::loadWorkload(K.File),
                                            Scale, {})});
  }
  return Ks;
}

std::map<std::string, double> reference(const Options &O,
                                        const std::vector<Kernel> &Ks,
                                        int Scale, Result &R) {
  std::string Err;
  std::map<std::string, double> Ref = referenceResults(
      Ks, O.WorkDir + "/ref-x" + std::to_string(Scale), Err);
  R.guard(!Ref.empty(), "reference: " + Err);
  return Ref;
}

/// \p Src with every identifier \p From renamed to \p To.
std::string renameEntry(const std::string &Src, const std::string &From,
                        const std::string &To) {
  auto Ident = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  };
  std::string Out;
  std::size_t Pos = 0;
  for (std::size_t At; (At = Src.find(From, Pos)) != std::string::npos;) {
    bool Whole = (At == 0 || !Ident(Src[At - 1])) &&
                 (At + From.size() == Src.size() ||
                  !Ident(Src[At + From.size()]));
    Out += Src.substr(Pos, At - Pos) + (Whole ? To : From);
    Pos = At + From.size();
  }
  return Out + Src.substr(Pos);
}

/// Where the JIT cache keeps the artifact of generated \p Source, without
/// the .so / .cpp extension.
std::string artifactBase(const std::string &Source) {
  const exec::JitCache &C = exec::JitCache::shared();
  return C.root() + "/" + C.keyFor(Source);
}

/// Whether the engine compiled exactly \p Source: its artifact is in the
/// cache. \p Source is emitted with codegenOptions(), so this also checks
/// that mirror against the options the engine derived.
bool artifactExists(const std::string &Source) {
  return access((artifactBase(Source) + ".so").c_str(), F_OK) == 0;
}

/// Deletes the cached artifact of generated \p Source, so the uniquely
/// named cold compiles do not pile up in the persistent cache. False when
/// there was none to delete.
bool removeArtifact(const std::string &Source) {
  const std::string Base = artifactBase(Source);
  const bool So = std::remove((Base + ".so").c_str()) == 0;
  const bool Cpp = std::remove((Base + ".cpp").c_str()) == 0;
  return So && Cpp;
}

ProgramPtr compile(const Kernel &K, const pipeline::CompileOptions &Opts,
                   Result &R) {
  api::Compiler C;
  ProgramPtr P = C.options(Opts).compile(K.Source, K.Entry);
  std::string Why = P ? P->nativePrepareError() : C.diagnostics();
  R.check(P && Why.empty(), "compile " + K.Entry + ": " + Why);
  return P && Why.empty() ? P : nullptr;
}

/// setup_s: the median time of a full set-up (compiling every Program the
/// workload serves; for serve-shapes also sighting its shapes). The
/// workload sets up once before its window; untraced runs then repeat the
/// set-up, result discarded, at evenly spaced points of the window, which
/// pauses meanwhile. The host's speed shifts in phases of seconds, and
/// set-ups spread over the run keep the median from following the one
/// second before the window.
class SetupTimer {
public:
  /// \p Setup performs one set-up and keeps its result when its argument
  /// is true (the first one), else discards it.
  SetupTimer(const Options &O, std::function<void(bool)> Setup)
      : Setup(std::move(Setup)), Window(O.Seconds),
        Reps(O.Trace || O.Smoke ? 1 : 11) {}

  /// The first set-up, whose result the workload serves.
  void first() {
    run();
    Start = nowSec();
  }
  /// Called between measured units: runs a repetition when one is due and
  /// returns its seconds, by which the caller extends its window.
  double poll() {
    const int Done = static_cast<int>(Times.size());
    if (Done >= Reps || nowSec() < Start + Window * Done / Reps)
      return 0;
    return run();
  }
  /// Runs any repetitions the window did not reach and adds setup_s.
  void report(Result &R) {
    while (static_cast<int>(Times.size()) < Reps)
      run();
    R.add("setup_s", quantile(Times, 0.5), "s",
          "median of " + std::to_string(Times.size()));
  }

private:
  double run() {
    const double T0 = nowSec();
    Setup(Times.empty());
    Times.push_back(nowSec() - T0);
    return Times.back();
  }

  std::function<void(bool)> Setup;
  double Window, Start = 0;
  int Reps;
  std::vector<double> Times;
};

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// The end-to-end rows every workload reports. p10 is gated and p50/p90
/// are only printed: on a shared host whose CPU speed shifts by 10-20% in
/// phases of seconds, the lower decile follows the quiet phases and holds
/// a few percent between runs, where the median wanders by ten.
/// Throughput is the upper quartile of per-slice rates (a slice is a
/// round, a sweep, a compile, a block or a quarter second) for the same
/// reason.
void addEndToEnd(Result &R, SetupTimer &Setup, double P10Ms, double P50Ms,
                 double P90Ms, std::uint64_t N,
                 const std::vector<double> &SliceRates) {
  const std::string Base = "n=" + std::to_string(N);
  Setup.report(R);
  R.add("peak_rss_mb", peakRssMb(), "MB");
  R.add("p10_ms", P10Ms, "ms", Base);
  R.add("throughput_per_s", quantile(SliceRates, 0.75), "1/s",
        "upper quartile of " + std::to_string(SliceRates.size()) + " slices");
  R.extra("p50_ms", P50Ms, "ms", Base + ", not gated");
  R.extra("p90_ms", P90Ms, "ms", Base + ", not gated");
}

/// Geomean over kernels of each kernel's \p Q quantile, in ms: every
/// kernel weighs the same, however long it runs.
double geoQuantileMs(const std::vector<std::vector<double>> &PerKernel,
                     double Q) {
  std::vector<double> V;
  for (const std::vector<double> &S : PerKernel)
    V.push_back(quantile(S, Q));
  return geomean(V) * 1e3;
}

std::uint64_t sampleCount(const std::vector<std::vector<double>> &PerKernel) {
  std::uint64_t N = 0;
  for (const std::vector<double> &S : PerKernel)
    N += S.size();
  return N;
}

/// Units in traced runs are fixed counts (so counters repeat exactly for
/// a seed), sized to fill about the window at the rates measured when the
/// benchmark was introduced.
int tracedUnits(const Options &O, double PerSecond) {
  return 2 * std::max(1,
                      static_cast<int>(std::ceil(O.Seconds * PerSecond / 2)));
}

//===----------------------------------------------------------------------===//
// Requests and the traced-run bookkeeping
//===----------------------------------------------------------------------===//

/// Per-invocation split of the api and exec layers.
struct ServeStats {
  LogHist Bind;     // newInvocation + every bind.
  LogHist Dispatch; // invoke wall minus InvocationResult::Seconds.
  LogHist Kernel;   // InvocationResult::Seconds.
};

/// Everything a run accumulates for the per-layer metrics. Untraced runs
/// carry one too; only its request counter is used then.
struct TraceRun {
  std::uint64_t Req = 0;
  /// Summed over every chained compile.
  unsigned Chains = 0;
  ChainTimes Sum;
  unsigned HostCompiles = 0;
  double HostSeconds = 0;
  /// Summed over the workload's program set, one chain each.
  unsigned MlirRewrites = 0, SdfgNodes = 0, OptRewrites = 0, Maps = 0,
           ParallelMaps = 0, Atomics = 0;
  double SourceBytes = 0;
  std::map<std::string, double> PassSeconds;
  ServeStats Serve;
  exec::JitCache::Stats CacheStart = exec::JitCache::shared().stats();
  api::ProgramStats VariantsStart, VariantsEnd;
  /// Unit wall time of untraced [0] and traced [1] units.
  double UnitSum[2] = {0, 0}, UnitCount[2] = {0, 0};

  void addUnit(bool Traced, double Wall) {
    UnitSum[Traced] += Wall;
    UnitCount[Traced] += 1;
  }
  void addHost(double Seconds) {
    if (Seconds > 0) {
      ++HostCompiles;
      HostSeconds += Seconds;
    }
  }
  void addTimes(const ChainResult &C) {
    ++Chains;
    Sum.Parse += C.T.Parse;
    Sum.Passes += C.T.Passes;
    Sum.Convert += C.T.Convert;
    Sum.Translate += C.T.Translate;
    Sum.Optimize += C.T.Optimize;
    Sum.Verify += C.T.Verify;
    Sum.Emit += C.T.Emit;
    Sum.Prepare += C.T.Prepare;
    Sum.Host += C.T.Host;
    addHost(C.T.Host);
    for (const opt::PassStats &PS : C.Report.Passes.Passes)
      PassSeconds[PS.Name] += PS.Seconds;
  }
  void addStructure(const ChainResult &C) {
    MlirRewrites += C.MlirRewrites;
    SdfgNodes += C.SdfgNodes;
    OptRewrites += C.Report.Passes.totalRewrites();
    Maps += C.Report.LoopsConvertedToMaps;
    ParallelMaps += C.Info.ParallelMapsEmitted;
    Atomics += C.Info.AtomicUpdates;
    SourceBytes += static_cast<double>(C.Source.size());
  }
};

/// One request: newInvocation + \p Bind + invoke, with a span per layer
/// while tracing is on. \p WallNs receives the request's wall time.
template <typename BindFnT>
api::InvocationResult request(const api::Program &P, BindFnT Bind,
                              std::uint64_t Req, ServeStats *S,
                              std::int64_t &WallNs) {
  Span Root("bench.request", Req);
  std::int64_t T0 = nowNs();
  api::Invocation I;
  {
    Span B("api.bind", Req);
    I = P.newInvocation();
    Bind(I);
  }
  std::int64_t T1 = nowNs();
  api::InvocationResult Res;
  {
    Span V("api.invoke", Req);
    Res = P.invoke(I);
  }
  std::int64_t T2 = nowNs();
  if (S) {
    S->Bind.add(static_cast<double>(T1 - T0));
    S->Dispatch.add(static_cast<double>(T2 - T1) - Res.Seconds * 1e9);
    S->Kernel.add(Res.Seconds * 1e9);
  }
  WallNs = T2 - T0;
  return Res;
}

bool servedNatively(const api::InvocationResult &Res) {
  return Res.Ok && Res.EngineUsed == exec::EngineKind::Native;
}

/// Invokes a self-contained kernel once and checks its return value;
/// returns whether it matched. \p WallSec and \p KernelSec receive the
/// request's and the kernel's seconds.
bool invokeChecked(const api::Program &P, double Expected, Result &R,
                   std::uint64_t Req, ServeStats *S, double &WallSec,
                   double &KernelSec) {
  std::int64_t Wall = 0;
  api::InvocationResult Res =
      request(P, [](api::Invocation &) {}, Req, S, Wall);
  WallSec = static_cast<double>(Wall) * 1e-9;
  KernelSec = Res.Seconds;
  const bool Ok = servedNatively(Res) && relClose(Res.ReturnValue, Expected);
  R.check(Ok, P.entry() + " returned " + num(Res.ReturnValue) +
                  ", expected " + num(Expected) +
                  (Res.Error.empty() ? "" : ": " + Res.Error));
  return Ok;
}

/// The compile half of every traced run, traced: each program compiled
/// through api::Compiler and through the chain, alternately, at least
/// three times each and 30 compiles a side in all. Drift guards: the
/// chain's codegen output must equal the Program's byte for byte, and the
/// JIT cache must hold an artifact for exactly that source (so the
/// mirrored codegen options are the ones the engine used). The fastest
/// chain's layer times must cover at least 90% of the fastest
/// Compiler::compile. One extra chained compile under a fresh entry name
/// measures the host compiler.
void tracedCompiles(const std::vector<Kernel> &Ks,
                    const pipeline::CompileOptions &Opts,
                    const std::map<std::string, double> &Ref, TraceRun &T,
                    Result &R) {
  traceUnit(true);
  const codegen::CodegenOptions CgOpts = codegenOptions(Opts);
  const int Reps = std::max<int>(3, 30 / static_cast<int>(Ks.size()));
  double ChainSum = 0, CompileSum = 0;
  for (const Kernel &K : Ks) {
    std::vector<double> ChainT, CompileT;
    for (int Rep = 0; Rep < Reps; ++Rep) {
      double T0 = nowSec();
      ProgramPtr P = compile(K, Opts, R);
      CompileT.push_back(nowSec() - T0);
      ChainResult C = compileChain(K.Source, K.Entry, Opts, ++T.Req);
      R.check(C.Ok, C.Error);
      if (!P || !C.Ok)
        return;
      T.addTimes(C);
      ChainT.push_back(C.T.compileSum());
      if (Rep > 0)
        continue;
      T.addStructure(C);
      DiagnosticEngine D;
      const std::string Program = codegen::emitCpp(*P->graph(), D, CgOpts);
      R.guard(C.Source == Program, "drift: chained codegen of " + K.Entry +
                                       " differs from the Program's");
      R.guard(artifactExists(Program),
              "drift: the JIT cache holds no artifact for " + K.Entry +
                  "'s source under the mirrored codegen options");
      if (auto It = Ref.find(K.Entry); It != Ref.end()) {
        exec::EngineRun Run = runChain(C);
        R.check(Run.Ok && relClose(Run.ReturnValue, It->second),
                "chained " + K.Entry + " returned " + num(Run.ReturnValue));
      }
    }
    ChainSum += quantile(ChainT, 0);
    CompileSum += quantile(CompileT, 0);
  }
  double Coverage = CompileSum > 0 ? ChainSum / CompileSum : 0;
  R.extra("trace.compile_coverage_pct", 100 * Coverage, "%",
          "chain layers / Compiler::compile");
  R.guard(Coverage >= 0.9, "compile layers cover only " +
                               num(100 * Coverage) +
                               "% of Compiler::compile");

  std::string Fresh = Ks.front().Entry + "_probe" + std::to_string(getpid()) +
                      "_" + std::to_string(nowNs());
  ChainResult C = compileChain(
      renameEntry(Ks.front().Source, Ks.front().Entry, Fresh), Fresh, Opts,
      ++T.Req);
  traceUnit(false);
  R.check(C.Ok && C.T.Host > 0, "cold probe compile: " + C.Error);
  T.addTimes(C);
  if (C.Ok)
    R.guard(removeArtifact(C.Source),
            "drift: no JIT artifact to remove for " + Fresh);
}

/// The interpreter's work and data-movement counters over the MINI corpus
/// for all five pipelines (the paper's PAPI stand-in).
void interpCounts(const Options &O, Result &R) {
  std::vector<Kernel> Ks = corpus(O, 1);
  std::map<std::string, double> Ref = reference(O, Ks, 1, R);
  const std::pair<pipeline::PipelineKind, const char *> Pipes[] = {
      {pipeline::PipelineKind::GccLike, "gcc"},
      {pipeline::PipelineKind::ClangLike, "clang"},
      {pipeline::PipelineKind::DaceLike, "dace"},
      {pipeline::PipelineKind::MlirLike, "mlir"},
      {pipeline::PipelineKind::Dcir, "dcir"}};
  for (const auto &[Kind, Name] : Pipes) {
    double Work = 0, Moved = 0;
    for (const Kernel &K : Ks) {
      api::Compiler C;
      ProgramPtr P = C.pipeline(Kind).compile(K.Source, K.Entry);
      api::InvocationResult Res = P ? P->invoke() : api::InvocationResult();
      R.check(Res.Ok && relClose(Res.ReturnValue, Ref[K.Entry]),
              std::string(Name) + " interpreter on " + K.Entry + " returned " +
                  num(Res.ReturnValue));
      Work += static_cast<double>(Res.Stats.OpsExecuted +
                                  Res.Stats.TaskletsExecuted);
      Moved += static_cast<double>(Res.Stats.BytesMoved);
    }
    R.add(std::string("interp.work_ops.") + Name, Work, "count");
    R.add(std::string("interp.moved_bytes.") + Name, Moved, "bytes");
  }
}

/// Every per-layer metric, in the order BENCHMARK.json lists them, then
/// the per-pass and self-time rows; writes the Chrome trace.
void addLayerMetrics(const Options &O, const TraceRun &T, Result &R) {
  traceUnit(false);
  const double N = std::max(1u, T.Chains);
  const ChainTimes &S = T.Sum;
  std::string PerChain = "mean of " + std::to_string(T.Chains) + " compiles";
  R.add("frontend.parse_ms", S.Parse / N * 1e3, "ms", PerChain);
  R.add("passes.mlir_ms", S.Passes / N * 1e3, "ms", PerChain);
  R.add("passes.rewrites", T.MlirRewrites, "count");
  R.add("conversion.convert_ms", S.Convert / N * 1e3, "ms", PerChain);
  R.add("conversion.translate_ms", S.Translate / N * 1e3, "ms", PerChain);
  R.add("conversion.sdfg_nodes", T.SdfgNodes, "count");
  R.add("sdfgopt.optimize_ms", S.Optimize / N * 1e3, "ms", PerChain);
  R.add("sdfgopt.rewrites", T.OptRewrites, "count");
  R.add("sdfgopt.maps", T.Maps, "count");
  R.add("analysis.verify_ms", S.Verify / N * 1e3, "ms", PerChain);
  R.add("codegen.emit_ms", S.Emit / N * 1e3, "ms", PerChain);
  R.add("codegen.source_kb", T.SourceBytes / 1024.0, "KB");
  R.add("codegen.parallel_maps", T.ParallelMaps, "count");
  R.add("codegen.atomics", T.Atomics, "count");
  R.add("exec.jit_load_ms", S.jitLoad() / N * 1e3, "ms", PerChain);
  R.add("exec.host_compile_ms",
        T.HostCompiles ? T.HostSeconds / T.HostCompiles * 1e3 : 0.0, "ms",
        "mean of " + std::to_string(T.HostCompiles) + " host compiles");
  const exec::JitCache::Stats End = exec::JitCache::shared().stats();
  const double Hits = static_cast<double>(End.Hits - T.CacheStart.Hits);
  const double Misses = static_cast<double>(End.Misses - T.CacheStart.Misses);
  R.add("exec.host_compiles",
        static_cast<double>(End.CompilerInvocations -
                            T.CacheStart.CompilerInvocations),
        "count");
  R.add("exec.cache_hit_ratio", Hits + Misses > 0 ? Hits / (Hits + Misses) : 0,
        "ratio", "base=" + num(Hits + Misses) + " lookups");
  const ServeStats &Sv = T.Serve;
  std::string PerCall =
      "median of " + std::to_string(Sv.Kernel.count()) + " invocations";
  R.add("api.bind_ns", Sv.Bind.quantile(0.5), "ns", PerCall);
  R.add("api.dispatch_ns", Sv.Dispatch.quantile(0.5), "ns", PerCall);
  R.add("exec.kernel_ns", Sv.Kernel.quantile(0.5), "ns", PerCall);
  interpCounts(O, R);
  const double Plain = T.UnitSum[0] / std::max(1.0, T.UnitCount[0]);
  const double Traced = T.UnitSum[1] / std::max(1.0, T.UnitCount[1]);
  R.add("trace_overhead_pct", Plain > 0 ? 100 * (Traced / Plain - 1) : 0, "%",
        "mean traced unit over mean untraced unit");
  const api::ProgramStats &A = T.VariantsStart, &B = T.VariantsEnd;
  R.add("api.variant_hits",
        static_cast<double>(B.SpecializeHits - A.SpecializeHits), "count");
  R.add("api.variant_builds",
        static_cast<double>(B.SpecializeMisses - A.SpecializeMisses), "count");
  R.add("api.variant_evictions",
        static_cast<double>(B.SpecializeEvictions - A.SpecializeEvictions),
        "count");

  for (const auto &[Pass, Sec] : T.PassSeconds)
    R.extra("sdfgopt.pass." + Pass + "_ms", Sec / N * 1e3, "ms", PerChain);
  const obs::Tracer &Tr = obs::Tracer::instance();
  for (const auto &[Layer, Ms] : layerSelfMs(Tr.json()))
    R.extra("trace.self." + Layer + "_ms", Ms, "ms", "self time, all spans");
  std::string Path = O.OutDir + "/" + O.Workload + ".trace.json";
  R.guard(Tr.writeTo(Path), "cannot write " + Path);
  R.extra("trace.spans", static_cast<double>(Tr.eventCount() / 2), "count",
          "the library's and the benchmark's");
}

//===----------------------------------------------------------------------===//
// polybench-par / polybench-serial
//===----------------------------------------------------------------------===//

Result runPolybench(const Options &O, bool Parallel) {
  Result R;
  std::vector<Kernel> Ks = corpus(O, 8);
  std::map<std::string, double> Ref = reference(O, Ks, 8, R);
  if (Ref.empty())
    return R;
  const pipeline::CompileOptions Opts = nativeOptions(O, Parallel);
  std::vector<ProgramPtr> Progs;
  SetupTimer Setup(O, [&](bool Keep) {
    std::vector<ProgramPtr> Built;
    for (const Kernel &K : Ks)
      Built.push_back(compile(K, Opts, R));
    if (Keep)
      Progs = std::move(Built);
  });
  Setup.first();
  for (const ProgramPtr &P : Progs)
    if (!P)
      return R;

  TraceRun T;
  if (O.Trace)
    tracedCompiles(Ks, Opts, Ref, T, R);
  // Warm-up: the first native invocation of each Program is untimed.
  double Wall = 0, KernelSec = 0;
  for (std::size_t I = 0; I < Ks.size(); ++I)
    invokeChecked(*Progs[I], Ref[Ks[I].Entry], R, 0, nullptr, Wall,
                  KernelSec);

  // Seeded, interleaved rounds: every round runs each kernel once, in a
  // fresh order.
  Rng Rg(O.Seed);
  std::vector<std::size_t> Order(Ks.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::vector<std::vector<double>> Walls(Ks.size()), Kernels(Ks.size());
  std::vector<double> RoundRates;
  const int MinRounds = O.Smoke ? 1 : 11;
  const int TracedRounds = tracedUnits(O, Parallel ? 1.2 : 1.5);
  double Deadline = nowSec() + O.Seconds;
  for (int Round = 0; O.Trace ? Round < TracedRounds
                              : Round < MinRounds || nowSec() < Deadline;
       ++Round) {
    Deadline += Setup.poll();
    const bool Traced = traceUnit(O.Trace && Round % 2 == 1);
    const double RoundStart = nowSec();
    Rg.shuffle(Order.begin(), Order.end());
    for (std::size_t I : Order) {
      invokeChecked(*Progs[I], Ref[Ks[I].Entry], R, ++T.Req,
                    O.Trace ? &T.Serve : nullptr, Wall, KernelSec);
      Walls[I].push_back(Wall);
      Kernels[I].push_back(KernelSec);
      T.addUnit(Traced, Wall);
    }
    RoundRates.push_back(static_cast<double>(Ks.size()) /
                         (nowSec() - RoundStart));
  }

  for (std::size_t I = 0; I < Ks.size(); ++I)
    R.extra((O.Trace ? "exec.kernel." : "kernel.") + Ks[I].Name + "_ms",
            quantile(O.Trace ? Kernels[I] : Walls[I], 0.5) * 1e3, "ms",
            "median of " + std::to_string(Walls[I].size()));
  if (O.Trace)
    addLayerMetrics(O, T, R);
  else
    addEndToEnd(R, Setup, geoQuantileMs(Walls, 0.1),
                geoQuantileMs(Walls, 0.5), geoQuantileMs(Walls, 0.9),
                sampleCount(Walls), RoundRates);
  return R;
}

//===----------------------------------------------------------------------===//
// compile-cold / compile-warm
//===----------------------------------------------------------------------===//

Result runCompile(const Options &O, bool Cold) {
  Result R;
  std::vector<Kernel> Ks = corpus(O, 1);
  std::map<std::string, double> Ref = reference(O, Ks, 1, R);
  if (Ref.empty())
    return R;
  const pipeline::CompileOptions Opts = nativeOptions(O, /*Parallel=*/true);
  const codegen::CodegenOptions CgOpts = codegenOptions(Opts);
  bool SetupOk = true;
  SetupTimer Setup(O, [&](bool) {
    for (const Kernel &K : Ks)
      SetupOk &= compile(K, Opts, R) != nullptr;
  });
  Setup.first();
  if (!SetupOk)
    return R;

  TraceRun T;
  if (O.Trace)
    tracedCompiles(Ks, Opts, Ref, T, R);

  // Cold compiles rename the entry per sweep (and per process, since the
  // artifact cache persists across runs): every one must run the host
  // compiler exactly once. Warm compiles must run it never. Traced sweeps
  // compile through the chain instead of api::Compiler.
  const std::string Nonce = "_c" + std::to_string(getpid()) + "_" +
                            std::to_string(nowNs() % 1000000007);
  Rng Rg(O.Seed);
  std::vector<std::size_t> Order(Ks.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::vector<std::vector<double>> Samples(Ks.size());
  std::vector<double> SliceRates;
  const int TracedSweeps = Cold ? 2 : tracedUnits(O, 3.0);
  const int MinSweeps = Cold && !O.Smoke ? 2 : 1;
  double Deadline = nowSec() + O.Seconds;
  for (int Sweep = 0; O.Trace ? Sweep < TracedSweeps
                              : Sweep < MinSweeps || nowSec() < Deadline;
       ++Sweep) {
    Deadline += Setup.poll();
    const bool Traced = traceUnit(O.Trace && Sweep % 2 == 1);
    const double SweepStart = nowSec();
    Rg.shuffle(Order.begin(), Order.end());
    for (std::size_t I : Order) {
      // A cold compile is a slice of its own, so set-ups may come between.
      if (Cold)
        Deadline += Setup.poll();
      const Kernel &K = Ks[I];
      const std::string Entry =
          Cold ? K.Entry + Nonce + "_" + std::to_string(Sweep) : K.Entry;
      const std::string Src =
          Cold ? renameEntry(K.Source, K.Entry, Entry) : K.Source;
      const std::uint64_t Before =
          exec::JitCache::shared().stats().CompilerInvocations;
      double Wall = 0;
      std::string Source; // Generated C++, for the cold cleanup.
      bool Ok = false;
      if (Traced) {
        double T0 = nowSec();
        ChainResult C = compileChain(Src, Entry, Opts, ++T.Req);
        // The verify and the drift-guard emit are measurement extras.
        Wall = nowSec() - T0 - C.T.Verify - C.T.Emit;
        T.addTimes(C);
        exec::EngineRun Run = C.Ok ? runChain(C) : exec::EngineRun();
        Ok = C.Ok && Run.Ok && relClose(Run.ReturnValue, Ref[K.Entry]);
        Source = C.Source;
      } else {
        double T0 = nowSec();
        api::Compiler Comp;
        ProgramPtr P = Comp.options(Opts).compile(Src, Entry);
        Wall = nowSec() - T0;
        double CallWall = 0, KernelSec = 0;
        Ok = P && P->nativePrepareError().empty() &&
             invokeChecked(*P, Ref[K.Entry], R, 0,
                           O.Trace ? &T.Serve : nullptr, CallWall, KernelSec);
        if (P && Cold) {
          DiagnosticEngine D;
          Source = codegen::emitCpp(*P->graph(), D, CgOpts);
        }
      }
      const std::uint64_t HostCompiles =
          exec::JitCache::shared().stats().CompilerInvocations - Before;
      R.check(Ok && HostCompiles == (Cold ? 1u : 0u),
              "compile of " + Entry + " (" + std::to_string(HostCompiles) +
                  " host compiles)");
      if (Cold && !Source.empty())
        R.guard(removeArtifact(Source),
                "drift: no JIT artifact to remove for " + Entry +
                    " under the mirrored codegen options");
      Samples[I].push_back(Wall);
      T.addUnit(Traced, Wall);
      // A cold compile is long enough to be a slice of its own.
      if (Cold)
        SliceRates.push_back(1.0 / Wall);
    }
    if (!Cold)
      SliceRates.push_back(static_cast<double>(Ks.size()) /
                           (nowSec() - SweepStart));
  }

  if (O.Trace)
    addLayerMetrics(O, T, R);
  else
    addEndToEnd(R, Setup, geoQuantileMs(Samples, 0.1),
                geoQuantileMs(Samples, 0.5), geoQuantileMs(Samples, 0.9),
                sampleCount(Samples), SliceRates);
  return R;
}

//===----------------------------------------------------------------------===//
// serve-fixed
//===----------------------------------------------------------------------===//

Result runServeFixed(const Options &O) {
  Result R;
  const Kernel K{"saxpy", "saxpy", kSaxpySrc};
  const pipeline::CompileOptions Opts = nativeOptions(O, /*Parallel=*/true);
  ProgramPtr P;
  SetupTimer Setup(O, [&](bool Keep) {
    ProgramPtr Built = compile(K, Opts, R);
    if (Keep)
      P = std::move(Built);
  });
  Setup.first();
  if (!P)
    return R;

  TraceRun T;
  if (O.Trace)
    tracedCompiles({K}, Opts, {}, T, R);

  Rng Rg(O.Seed);
  double A = static_cast<double>(1 + Rg.below(4));
  std::vector<double> X, Y0;
  for (int I = 0; I < 32; ++I) {
    X.push_back(static_cast<double>(Rg.below(32)));
    Y0.push_back(static_cast<double>(Rg.below(100)));
  }
  std::vector<double> Y = Y0;
  const double Sx = std::accumulate(X.begin(), X.end(), 0.0);
  const double Sy0 = std::accumulate(Y0.begin(), Y0.end(), 0.0);

  // One closed-loop client. Traced runs send a fixed count, alternating
  // traced and untraced chunks of 1000.
  const std::uint64_t TracedCalls =
      static_cast<std::uint64_t>(tracedUnits(O, 400)) * 1000;
  const std::int64_t SliceNs = 250000000;
  std::vector<double> SliceRates;
  LogHist Latency;
  std::uint64_t Calls = 0, SliceCalls = 0;
  std::int64_t DeadlineNs = nowNs() + toNs(O.Seconds);
  std::int64_t SliceEnd = nowNs() + SliceNs;
  bool Traced = false;
  while (O.Trace ? Calls < TracedCalls : SliceEnd <= DeadlineNs) {
    if (O.Trace && Calls % 1000 == 0)
      Traced = traceUnit((Calls / 1000) % 2 == 1);
    std::int64_t Wall = 0;
    api::InvocationResult Res = request(
        *P,
        [&](api::Invocation &I) {
          I.bind("a", &A, 1);
          I.bind("x", X.data(), X.size());
          I.bind("y", Y.data(), Y.size());
          I.setNumThreads(1);
        },
        ++T.Req, O.Trace ? &T.Serve : nullptr, Wall);
    ++Calls;
    const double Expected = Sy0 + static_cast<double>(Calls) * A * Sx;
    R.check(servedNatively(Res) && Res.ReturnValue == Expected,
            "saxpy call " + std::to_string(Calls) + " returned " +
                num(Res.ReturnValue) + ", expected " + num(Expected));
    Latency.add(static_cast<double>(Wall));
    T.addUnit(Traced, static_cast<double>(Wall));
    ++SliceCalls;
    if (const std::int64_t Now = nowNs(); Now >= SliceEnd) {
      SliceRates.push_back(static_cast<double>(SliceCalls) /
                           (static_cast<double>(Now - SliceEnd + SliceNs) *
                            1e-9));
      SliceCalls = 0;
      DeadlineNs += toNs(Setup.poll());
      SliceEnd = nowNs() + SliceNs;
    }
  }
  // The buffer itself must hold y0 + k*a*x after k calls.
  bool Final = true;
  for (int I = 0; I < 32; ++I)
    Final &= Y[I] == Y0[I] + static_cast<double>(Calls) * A * X[I];
  R.check(Final, "saxpy output buffer after the run");

  if (O.Trace) {
    addLayerMetrics(O, T, R);
    return R;
  }
  addEndToEnd(R, Setup, Latency.quantile(0.1) * 1e-6,
              Latency.quantile(0.5) * 1e-6, Latency.quantile(0.9) * 1e-6,
              Calls, SliceRates);
  R.extra("p99_ms", Latency.quantile(0.99) * 1e-6, "ms",
          "n=" + std::to_string(Calls) + ", not gated");
  return R;
}

//===----------------------------------------------------------------------===//
// serve-shapes
//===----------------------------------------------------------------------===//

struct Shape {
  std::int64_t Ni, Nj, Nk;
  std::vector<double> A, B, C0, Expected, C;
};

/// Fills \p S's inputs (multiples of 1/8, so every product is exact) and
/// its expected output from a plain loop in the kernel's order.
void initShape(Shape &S, Rng &Rg) {
  auto Fill = [&](std::vector<double> &V, std::int64_t N) {
    V.resize(static_cast<std::size_t>(N));
    for (double &X : V)
      X = static_cast<double>(Rg.below(64)) / 8.0;
  };
  Fill(S.A, S.Ni * S.Nk);
  Fill(S.B, S.Nk * S.Nj);
  Fill(S.C0, S.Ni * S.Nj);
  S.Expected = S.C0;
  for (std::int64_t I = 0; I < S.Ni; ++I) {
    for (std::int64_t J = 0; J < S.Nj; ++J)
      S.Expected[I * S.Nj + J] *= 1.2;
    for (std::int64_t K = 0; K < S.Nk; ++K)
      for (std::int64_t J = 0; J < S.Nj; ++J)
        S.Expected[I * S.Nj + J] += 1.5 * S.A[I * S.Nk + K] * S.B[K * S.Nj + J];
  }
  S.C = S.C0;
}

Result runServeShapes(const Options &O) {
  Result R;
  const Kernel K{"gemm_sym", "kernel_gemm_sym", kGemmSymSrc};
  pipeline::CompileOptions Opts = nativeOptions(O, /*Parallel=*/true);
  Opts.Specialize = pipeline::SpecializeMode::Eager;
  Opts.MaxVariants = 8;

  // Twelve (ni, nj, nk) shapes of equal work (ni*nj*nk = 12288): 4 hot
  // ones sharing the inner extent nj = 32, so a hit costs the same
  // whatever the seed, then 8 cold ones. With 8 variant slots, the hot
  // shapes stay resident and the cold ones cycle through the other 4. The
  // seed sets the inputs, the cold cycle's order and every request order.
  const std::int64_t Dims[12][3] = {
      {16, 32, 24}, {24, 32, 16}, {12, 32, 32}, {32, 32, 12},
      {16, 24, 32}, {24, 16, 32}, {32, 24, 16}, {32, 16, 24},
      {8, 48, 32},  {48, 8, 32},  {8, 32, 48},  {48, 32, 8}};
  const std::size_t Hot = 4, ColdN = 8;
  Rng Rg(O.Seed);
  std::vector<Shape> Shapes(12);
  for (std::size_t I = 0; I < Shapes.size(); ++I) {
    Shapes[I].Ni = Dims[I][0];
    Shapes[I].Nj = Dims[I][1];
    Shapes[I].Nk = Dims[I][2];
    initShape(Shapes[I], Rg);
  }
  Rg.shuffle(Shapes.begin() + Hot, Shapes.end());

  TraceRun T;
  std::int64_t Wall = 0;
  auto Call = [&](const api::Program &P, Shape &S, ServeStats *Stats) {
    S.C = S.C0;
    api::InvocationResult Res = request(
        P,
        [&](api::Invocation &I) {
          I.bind("A", S.A.data(), S.A.size());
          I.bind("B", S.B.data(), S.B.size());
          I.bind("C", S.C.data(), S.C.size());
          I.bind("ni", &S.Ni, 1);
          I.bind("nj", &S.Nj, 1);
          I.bind("nk", &S.Nk, 1);
          // Runtime-sized arrays get shape symbols in declaration order.
          I.setSymbol("s_0", S.Ni * S.Nk)
              .setSymbol("s_1", S.Nk * S.Nj)
              .setSymbol("s_2", S.Ni * S.Nj)
              .setNumThreads(1);
        },
        ++T.Req, Stats, Wall);
    bool Same = true;
    for (std::size_t I = 0; I < S.C.size(); ++I)
      Same &= relClose(S.C[I], S.Expected[I]);
    R.check(servedNatively(Res) && Same,
            "gemm_sym " + std::to_string(S.Ni) + "x" + std::to_string(S.Nj) +
                "x" + std::to_string(S.Nk) + " output differs" +
                (Res.Error.empty() ? "" : ": " + Res.Error));
    return Res;
  };

  // Set-up sights all twelve shapes, cold ones first, so the table
  // leaves it in the steady state of the cycle below: the hot four plus
  // the cold shapes of the last four blocks, oldest first.
  ProgramPtr P;
  SetupTimer Setup(O, [&](bool Keep) {
    ProgramPtr Built = compile(K, Opts, R);
    if (!Built)
      return;
    for (std::size_t I = 0; I < ColdN; ++I)
      Call(*Built, Shapes[Hot + I], nullptr);
    for (std::size_t I = 0; I < Hot; ++I)
      Call(*Built, Shapes[I], nullptr);
    if (Keep)
      P = std::move(Built);
  });
  Setup.first();
  if (!P)
    return R;
  if (O.Trace)
    tracedCompiles({K}, Opts, {}, T, R);

  // Blocks of 20 requests: 18 hot (each hot shape at least 4 times) and
  // two for one cold shape, cycling through all eight. The first of the
  // two always misses (its variant was evicted 4 blocks ago) and evicts
  // the oldest cold variant; everything else hits. So each block is 19
  // hits, 1 build and 1 eviction, whatever the seed.
  T.VariantsStart = P->stats();
  LogHist Latency;
  std::vector<double> BuildMs, BlockRates;
  std::uint64_t Calls = 0;
  const int TracedBlocks = tracedUnits(O, 2.8);
  const int MinBlocks = O.Smoke ? 2 : 8;
  double Deadline = nowSec() + O.Seconds;
  int Blocks = 0;
  for (; O.Trace ? Blocks < TracedBlocks
                 : Blocks < MinBlocks || nowSec() < Deadline;
       ++Blocks) {
    Deadline += Setup.poll();
    const bool Traced = traceUnit(O.Trace && Blocks % 2 == 1);
    const double BlockStart = nowSec();
    std::vector<std::size_t> Seq;
    for (std::size_t H = 0; H < Hot; ++H)
      Seq.insert(Seq.end(), 4, H);
    Seq.push_back(Rg.below(Hot));
    Seq.push_back(Rg.below(Hot));
    Rg.shuffle(Seq.begin(), Seq.end());
    const std::size_t Cold = Hot + static_cast<std::size_t>(Blocks) % ColdN;
    std::size_t First = Rg.below(Seq.size() + 1);
    Seq.insert(Seq.begin() + static_cast<std::ptrdiff_t>(First), Cold);
    std::size_t Second = First + 1 + Rg.below(Seq.size() - First);
    Seq.insert(Seq.begin() + static_cast<std::ptrdiff_t>(Second), Cold);
    for (std::size_t Idx : Seq) {
      const std::uint64_t Misses = P->stats().SpecializeMisses;
      api::InvocationResult Res =
          Call(*P, Shapes[Idx], O.Trace ? &T.Serve : nullptr);
      if (P->stats().SpecializeMisses != Misses) {
        BuildMs.push_back(static_cast<double>(Wall) * 1e-6);
        T.addHost(Res.CompileSeconds);
      }
      Latency.add(static_cast<double>(Wall));
      T.addUnit(Traced, static_cast<double>(Wall));
      ++Calls;
    }
    BlockRates.push_back(static_cast<double>(Seq.size()) /
                         (nowSec() - BlockStart));
  }
  T.VariantsEnd = P->stats();
  const api::ProgramStats &S0 = T.VariantsStart, &S1 = T.VariantsEnd;
  const std::uint64_t B = static_cast<std::uint64_t>(Blocks);
  R.guard(S1.SpecializeFallbacks == S0.SpecializeFallbacks,
          "specialization fell back to the generic artifact");
  R.guard(S1.SpecializeMisses - S0.SpecializeMisses == B &&
              S1.SpecializeEvictions - S0.SpecializeEvictions == B &&
              S1.SpecializeHits - S0.SpecializeHits == 19 * B,
          "variant table left its 19-hit/1-build/1-eviction cycle");
  R.extra("api.variant_build_ms", quantile(BuildMs, 0.5), "ms",
          "median of " + std::to_string(BuildMs.size()) + " builds");
  if (O.Trace) {
    addLayerMetrics(O, T, R);
    return R;
  }
  addEndToEnd(R, Setup, Latency.quantile(0.1) * 1e-6,
              Latency.quantile(0.5) * 1e-6, Latency.quantile(0.9) * 1e-6,
              Calls, BlockRates);
  R.extra("p99_ms", Latency.quantile(0.99) * 1e-6, "ms",
          "n=" + std::to_string(Calls) + ", not gated");
  return R;
}

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "polybench-par", "polybench-serial", "compile-cold",
      "compile-warm",  "serve-fixed",      "serve-shapes"};
  return Names;
}

Result runWorkload(const Options &O) {
  if (O.Workload == "polybench-par")
    return runPolybench(O, /*Parallel=*/true);
  if (O.Workload == "polybench-serial")
    return runPolybench(O, /*Parallel=*/false);
  if (O.Workload == "compile-cold")
    return runCompile(O, /*Cold=*/true);
  if (O.Workload == "compile-warm")
    return runCompile(O, /*Cold=*/false);
  if (O.Workload == "serve-fixed")
    return runServeFixed(O);
  if (O.Workload == "serve-shapes")
    return runServeShapes(O);
  Result R;
  R.guard(false, "unknown workload '" + O.Workload + "'");
  return R;
}

} // namespace e2e
