//===- Reference.h - independent results from the host C compiler -------------===//
//
// Part of the DCIR reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The polybench reference: each workload's own C, built by host `gcc -O2
/// -ffp-contract=off` with `#include <math.h>` prepended and run on a
/// thread with a 1 GiB stack (the 8x-MINI arrays are stack locals). No
/// part of the system under test is involved.
///
//===----------------------------------------------------------------------===//

#ifndef DCIR_BENCH_E2E_REFERENCE_H
#define DCIR_BENCH_E2E_REFERENCE_H

#include <map>
#include <string>
#include <vector>

namespace e2e {

/// One self-contained kernel: `double <Entry>()` defined in \p Source.
struct Kernel {
  std::string Name;
  std::string Entry;
  std::string Source;
};

/// Entry -> return value of every kernel in \p Ks. Results are cached in
/// \p Dir under a hash of the sources and the compile command, so the
/// reference is built once per source set. Empty (with \p Err) when the
/// build or the run fails.
std::map<std::string, double> referenceResults(const std::vector<Kernel> &Ks,
                                               const std::string &Dir,
                                               std::string &Err);

} // namespace e2e

#endif // DCIR_BENCH_E2E_REFERENCE_H
