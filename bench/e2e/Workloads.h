//===- Workloads.h - the workloads of bench/e2e -------------------------------===//
//
// Part of the DCIR reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload is one closed loop over one kind of unit (a kernel
/// invocation, a compile, a request) and reports the same end-to-end
/// metric names, so every workload can be compared against itself across
/// commits. README.md lists what each one stresses and why it was chosen.
///
//===----------------------------------------------------------------------===//

#ifndef DCIR_BENCH_E2E_WORKLOADS_H
#define DCIR_BENCH_E2E_WORKLOADS_H

#include "e2e.h"

#include <string>
#include <vector>

namespace e2e {

const std::vector<std::string> &workloadNames();

/// Runs workload \p O.Workload: end-to-end metrics when untraced,
/// per-layer metrics (plus a Chrome trace in O.OutDir) when traced.
Result runWorkload(const Options &O);

} // namespace e2e

#endif // DCIR_BENCH_E2E_WORKLOADS_H
