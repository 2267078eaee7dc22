//===- Chain.h - the DCIR compile, layer by layer, from outside ---------------===//
//
// Part of the DCIR reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// api::Compiler::compile runs frontend -> passes -> conversion ->
/// sdfgopt -> (analysis gate) -> codegen -> exec in one call. The traced
/// runs need each layer's time, so this file makes the same calls one by
/// one and times each from outside. The library's own spans are not used
/// for these metrics: they are part of the system under test (a change
/// may move or drop one), and they carry no structure counts and no
/// analysis time. The pass list is mirrored from src/api/Compiler.cpp;
/// the drift guards (codegen output byte-identical to the Program's, and
/// its artifact present in the JIT cache) catch any divergence.
///
//===----------------------------------------------------------------------===//

#ifndef DCIR_BENCH_E2E_CHAIN_H
#define DCIR_BENCH_E2E_CHAIN_H

#include "e2e.h"

#include "codegen/CppCodegen.h"
#include "exec/NativeJitEngine.h"
#include "pipeline/PipelineTypes.h"
#include "sdfgopt/Passes.h"

#include <memory>
#include <string>

namespace e2e {

/// Seconds per layer of one chained compile.
struct ChainTimes {
  double Parse = 0, Passes = 0, Convert = 0, Translate = 0, Optimize = 0;
  /// analysis::analyze — off by default in Compiler::compile, so it is
  /// timed but left out of compileSum().
  double Verify = 0;
  /// codegen::emitCpp, timed as a second call after prepareGraph (which
  /// emits the same source inside); its output feeds the drift guards.
  double Emit = 0;
  double Prepare = 0; // prepareGraph wall: emit + host compile + load.
  double Host = 0;    // Host-compiler share of Prepare (0 on cache hits).

  /// The layers Compiler::compile runs at default options.
  double compileSum() const {
    return Parse + Passes + Convert + Translate + Optimize + Prepare;
  }
  /// prepareGraph minus emit minus host compile: hashing, cache lookup,
  /// dlopen, symbol resolution and the ABI check.
  double jitLoad() const { return Prepare - Emit - Host; }
};

struct ChainResult {
  bool Ok = false;
  std::string Error;
  std::unique_ptr<dcir::sdfg::SDFG> Graph;
  /// Holds Graph's prepared artifact; declared after Graph so it is
  /// destroyed first.
  std::unique_ptr<dcir::exec::NativeJitEngine> Engine;
  std::string Source; // codegen::emitCpp output for Graph.
  dcir::codegen::CodegenInfo Info;
  dcir::sdfgopt::OptReport Report;
  unsigned MlirRewrites = 0;
  unsigned SdfgNodes = 0; // Nodes of the translated, unoptimized SDFG.
  ChainTimes T;
};

/// The codegen options NativeJitEngine derives from \p Opts for a
/// Program compiled with them (no tuning, demotions or guards).
dcir::codegen::CodegenOptions
codegenOptions(const dcir::pipeline::CompileOptions &Opts);

/// Compiles \p Entry of \p Src through the DCIR pipeline one layer at a
/// time, with one span per layer (request id \p Req) while tracing is on.
ChainResult compileChain(const std::string &Src, const std::string &Entry,
                         const dcir::pipeline::CompileOptions &Opts,
                         std::uint64_t Req);

/// Runs a chained artifact once with engine-allocated buffers.
dcir::exec::EngineRun runChain(ChainResult &C);

} // namespace e2e

#endif // DCIR_BENCH_E2E_CHAIN_H
