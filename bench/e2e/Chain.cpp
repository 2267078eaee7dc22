//===- Chain.cpp - the DCIR compile, layer by layer, from outside -------------===//

#include "Chain.h"

#include "analysis/Analysis.h"
#include "api/Compiler.h"
#include "conversion/ConvertToSdfg.h"
#include "conversion/TranslateToSDFG.h"
#include "dialects/Dialects.h"
#include "exec/JitCache.h"
#include "frontend/CCodegen.h"
#include "ir/IRContext.h"
#include "ir/Verifier.h"
#include "passes/Pass.h"

using namespace dcir;

namespace e2e {
namespace {

/// Mirror of addDcirMlirPasses in src/api/Compiler.cpp (paper Fig. 4).
void addDcirMlirPasses(passes::PassManager &PM) {
  using namespace passes;
  PM.addPass(createInlinerPass());
  for (int I = 0; I < 2; ++I) {
    PM.addPass(createCanonicalizePass());
    PM.addPass(createCSEPass());
    PM.addPass(createLICMPass());
    PM.addPass(createScalarReplacementPass());
    PM.addPass(createCSEPass());
    PM.addPass(createDCEPass());
  }
}

/// Times one layer call into \p Seconds under a span named \p Name.
template <typename FnT>
auto timed(const char *Name, std::uint64_t Req, double &Seconds, FnT Fn) {
  Span S(Name, Req);
  std::int64_t T0 = nowNs();
  auto R = Fn();
  Seconds = static_cast<double>(nowNs() - T0) * 1e-9;
  return R;
}

unsigned countNodes(const sdfg::SDFG &G) {
  unsigned N = 0;
  for (const auto &S : G.states())
    N += static_cast<unsigned>(S->nodes().size());
  return N;
}

} // namespace

codegen::CodegenOptions codegenOptions(const pipeline::CompileOptions &Opts) {
  codegen::CodegenOptions C;
  C.ParallelMaps = Opts.Parallelism != pipeline::ParallelismMode::Off &&
                   exec::JitCache::shared().openmp();
  if (Opts.MinParallelWork)
    C.MinParallelWork = Opts.MinParallelWork;
  if (Opts.MinInLoopParallelWork)
    C.MinInLoopParallelWork = Opts.MinInLoopParallelWork;
  return C;
}

ChainResult compileChain(const std::string &Src, const std::string &Entry,
                         const pipeline::CompileOptions &Opts,
                         std::uint64_t Req) {
  ChainResult Out;
  DiagnosticEngine Diags;
  auto Fail = [&](const char *Stage) {
    Out.Error = std::string(Stage) + " failed for " + Entry + ":\n" +
                Diags.str();
    return std::move(Out);
  };
  Span Root("bench.compile", Req);

  std::unique_ptr<ir::IRContext> Ctx; // Outlives every module below.
  ir::Operation *Module = timed("frontend.parse", Req, Out.T.Parse, [&] {
    Ctx = std::make_unique<ir::IRContext>();
    registerAllDialects(*Ctx);
    return frontend::compileCToModule(Src, *Ctx, Diags);
  });
  if (!Module)
    return Fail("frontend");

  passes::PassManager PM(/*VerifyEach=*/false);
  addDcirMlirPasses(PM);
  bool PassesOk = timed("passes.mlir", Req, Out.T.Passes, [&] {
    return PM.run(Module, Diags) && ir::verify(Module, Diags);
  });
  Out.MlirRewrites = PM.getReport().totalRewrites();
  if (!PassesOk) {
    ir::Operation::eraseDetached(Module);
    return Fail("passes");
  }

  ir::Operation *SdfgModule =
      timed("conversion.convert", Req, Out.T.Convert, [&] {
        ir::Operation *M = conversion::convertToSdfgDialect(Module, Diags);
        ir::Operation::eraseDetached(Module);
        if (M && !ir::verify(M, Diags)) {
          ir::Operation::eraseDetached(M);
          M = nullptr;
        }
        return M;
      });
  if (!SdfgModule)
    return Fail("conversion");
  Out.Graph = timed("conversion.translate", Req, Out.T.Translate, [&] {
    auto G = conversion::translateToSDFG(SdfgModule, Entry, Diags);
    ir::Operation::eraseDetached(SdfgModule);
    return G;
  });
  if (!Out.Graph)
    return Fail("translation");
  Out.SdfgNodes = countNodes(*Out.Graph);

  bool OptOk = timed("sdfgopt.optimize", Req, Out.T.Optimize, [&] {
    return api::detail::optimizeGraph(*Out.Graph, Opts, Out.Report, Diags) &&
           Out.Graph->validate(Diags);
  });
  if (!OptOk)
    return Fail("optimization");

  timed("analysis.verify", Req, Out.T.Verify,
        [&] { return analysis::analyze(*Out.Graph).Findings.size(); });

  Out.Engine = std::make_unique<exec::NativeJitEngine>();
  exec::EngineConfig Config;
  Config.ParallelMaps = Opts.Parallelism != pipeline::ParallelismMode::Off;
  Config.NumThreads = Opts.NumThreads;
  Config.MinParallelWork = Opts.MinParallelWork;
  Config.MinInLoopParallelWork = Opts.MinInLoopParallelWork;
  Out.Engine->configure(Config);
  // Inside, the library's own spans show the emit, host compile and load.
  std::string Error;
  const bool Prepared = timed("exec.prepare", Req, Out.T.Prepare, [&] {
    return Out.Engine->prepareGraph(*Out.Graph, Error, &Out.T.Host);
  });
  if (!Prepared) {
    Out.Error = "prepare failed for " + Entry + ": " + Error;
    return Out;
  }
  // prepareGraph emits the same source internally; this second emit,
  // whose output feeds the drift guards, stands in for that one's time.
  Out.Source = timed("bench.emit", Req, Out.T.Emit, [&] {
    return codegen::emitCpp(*Out.Graph, Diags, codegenOptions(Opts),
                            &Out.Info);
  });
  if (Out.Source.empty())
    return Fail("codegen");
  Out.Ok = true;
  return Out;
}

exec::EngineRun runChain(ChainResult &C) {
  exec::InvocationRequest Req;
  Req.SnapshotOutputs = false;
  return C.Engine->invokeGraph(*C.Graph, Req);
}

} // namespace e2e
