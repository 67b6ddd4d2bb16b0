// The host context every bench JSON carries, and the shared main() for the
// google-benchmark binaries. The stock BENCHMARK_MAIN() is not enough for
// our JSON gates: the library-provided "library_build_type" context key
// describes how *libbenchmark* was built, not this binary — a Release psi
// build linked against a distro debug libbenchmark reports "debug".
// HostContext() names the truth about this binary (psi_build_type), which
// limb-kernel variant the one-time CPU dispatch selected (psi_limb_kernel),
// and the host facts a wall-clock number depends on: the cores the OS
// reports (psi_nproc) and the global pool size (psi_threads, from
// PSI_THREADS). PSI_BENCHMARK_MAIN() stamps it into google-benchmark's
// context, and the scenario benches' emitter (bench_json.h) into theirs.
// tools/check_bench.py refuses debug numbers.

#ifndef PSI_BENCH_BENCH_MAIN_H_
#define PSI_BENCH_BENCH_MAIN_H_

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bigint/limb_kernel.h"
#include "common/thread_pool.h"

namespace psi {
namespace bench {

/// \brief The host context keys, in order, with their string values.
inline std::vector<std::pair<std::string, std::string>> HostContext() {
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  return {
      {"psi_build_type", build_type},
      {"psi_limb_kernel", limb_kernel::VariantName(limb_kernel::ActiveVariant())},
      {"psi_nproc", std::to_string(std::thread::hardware_concurrency())},
      {"psi_threads", std::to_string(ThreadPool::Global().num_threads())},
  };
}

}  // namespace bench
}  // namespace psi

// Expands to main(); the including file must include <benchmark/benchmark.h>
// (this header does not, so the scenario benches need no libbenchmark).
#define PSI_BENCHMARK_MAIN()                                          \
  int main(int argc, char** argv) {                                   \
    for (const auto& [key, value] : psi::bench::HostContext()) {      \
      benchmark::AddCustomContext(key, value);                        \
    }                                                                 \
    benchmark::Initialize(&argc, argv);                               \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    benchmark::RunSpecifiedBenchmarks();                              \
    benchmark::Shutdown();                                            \
    return 0;                                                         \
  }                                                                   \
  static_assert(true, "require a trailing semicolon")

#endif  // PSI_BENCH_BENCH_MAIN_H_
