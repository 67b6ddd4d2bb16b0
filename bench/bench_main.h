// Shared main() for the google-benchmark binaries. The stock
// BENCHMARK_MAIN() is not enough for our JSON gates: the library-provided
// "library_build_type" context key describes how *libbenchmark* was built,
// not this binary — a Release psi build linked against a distro debug
// libbenchmark reports "debug". PSI_BENCHMARK_MAIN() stamps the context
// with the truth about this binary (psi_build_type), which limb-kernel
// variant the one-time CPU dispatch selected (psi_limb_kernel), and the
// host facts a wall-clock number depends on: the cores the OS reports
// (psi_nproc) and the global pool size (psi_threads, from PSI_THREADS). The
// tools/check_bench_*.py gates refuse to accept debug numbers.

#ifndef PSI_BENCH_BENCH_MAIN_H_
#define PSI_BENCH_BENCH_MAIN_H_

#include <benchmark/benchmark.h>

#include <string>
#include <thread>

#include "bigint/limb_kernel.h"
#include "common/thread_pool.h"

namespace psi {
namespace bench {

#ifdef NDEBUG
inline constexpr const char kPsiBuildType[] = "release";
#else
inline constexpr const char kPsiBuildType[] = "debug";
#endif

/// \brief Stamps the host facts a wall-clock number depends on.
inline void AddHostContext() {
  const unsigned nproc = std::thread::hardware_concurrency();
  const size_t threads = ThreadPool::Global().num_threads();
  benchmark::AddCustomContext("psi_nproc", std::to_string(nproc));
  benchmark::AddCustomContext("psi_threads", std::to_string(threads));
}

}  // namespace bench
}  // namespace psi

#define PSI_BENCHMARK_MAIN()                                                 \
  int main(int argc, char** argv) {                                          \
    benchmark::AddCustomContext("psi_build_type", psi::bench::kPsiBuildType); \
    benchmark::AddCustomContext(                                             \
        "psi_limb_kernel",                                                   \
        psi::limb_kernel::VariantName(psi::limb_kernel::ActiveVariant()));   \
    psi::bench::AddHostContext();                                            \
    benchmark::Initialize(&argc, argv);                                      \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;        \
    benchmark::RunSpecifiedBenchmarks();                                     \
    benchmark::Shutdown();                                                   \
    return 0;                                                                \
  }                                                                          \
  static_assert(true, "require a trailing semicolon")

#endif  // PSI_BENCH_BENCH_MAIN_H_
