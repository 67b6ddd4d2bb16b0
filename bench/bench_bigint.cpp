// Fixed-width limb engine benches: every pair BM_Foo / BM_FooHeap measures
// the same operation with the engine attached vs forced onto the heap
// BigUInt path (ScopedHeapOnlyModPow / EngineMode::kHeapOnly). The
// BM_FooPaired rows time the two paths interleaved within one row and
// report the median heap/engine ratio; tools/check_bench.py gates on those
// machine-independent ratios. The BM_MontMulKernelPaired sweep compares the
// two Montgomery multiply kernels width by width, interleaved the same way.
// BENCH_bigint.json is the committed baseline.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <ctime>
#include <optional>
#include <utility>
#include <vector>

#include "bench_main.h"
#include "bench_util.h"
#include "bigint/modular.h"
#include "bigint/montgomery.h"
#include "common/logging.h"
#include "bigint/limb_kernel.h"
#include "crypto/paillier.h"
#include "crypto/rsa.h"
#include "mpc/link_influence_protocol.h"
#include "mpc/propagation_protocol.h"

namespace psi {
namespace {

// ------------------------------------------------------- Montgomery Pow --

BigUInt BenchModulus(Rng* rng, size_t bits) {
  BigUInt m = BigUInt::RandomBits(rng, bits);
  m.SetBit(bits - 1);  // Exactly bits/64 limbs: the engine widths.
  m.SetBit(0);
  return m;
}

void RunMontgomeryPow(benchmark::State& state, EngineMode mode) {
  Rng rng(36);
  const auto bits = static_cast<size_t>(state.range(0));
  BigUInt m = BenchModulus(&rng, bits);
  auto ctx = MontgomeryContext::Create(m, mode).ValueOrDie();
  PSI_CHECK((ctx.fixed_engine() != nullptr) == (mode == EngineMode::kAuto));
  BigUInt base = BigUInt::RandomBelow(&rng, m);
  BigUInt exp = BigUInt::RandomBits(&rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Pow(base, exp));
  }
}

void BM_MontgomeryPow(benchmark::State& state) {
  RunMontgomeryPow(state, EngineMode::kAuto);
}
BENCHMARK(BM_MontgomeryPow)->Arg(512)->Arg(1024)->Arg(2048);

void BM_MontgomeryPowHeap(benchmark::State& state) {
  RunMontgomeryPow(state, EngineMode::kHeapOnly);
}
BENCHMARK(BM_MontgomeryPowHeap)->Arg(512)->Arg(1024)->Arg(2048);

// ---------------------------------------------------------- kernel sweep --

// Thread CPU time in ns; the paired rows below time single calls with it.
double ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

double Median(std::vector<double> v) {
  auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

// Each iteration runs one dependent chain of Montgomery squarings (each
// waits on the last, as in Pow) through each kernel at one width, back to
// back with alternating order. The row reports each kernel's median
// ns_per_mul and the median per-iteration portable/x86 ratio as
// x86_speedup. limb_kernel::MontMul<L>'s choice rests on these rows, and at
// 4 limbs, where they are bimodal across processes, on end-to-end P6 runs
// (docs/PERF.md).
constexpr int kChain = 256;

template <size_t L>
void RunMontMulKernelPaired(benchmark::State& state) {
  Rng rng(37);
  const BigUInt n = BenchModulus(&rng, 64 * L);
  const BigUInt x0 = BigUInt::RandomBelow(&rng, n);
  uint64_t n_limbs[L], x[L];
  for (size_t i = 0; i < L; ++i) {
    n_limbs[i] = n.limb(i);
    x[i] = x0.limb(i);
  }
  uint64_t n0 = n.limb(0);  // -n^-1 mod 2^64 by Newton-Hensel lifting.
  for (int i = 0; i < 6; ++i) n0 *= 2 - n.limb(0) * n0;
  n0 = ~n0 + 1;
  std::vector<double> portable_ns, x86_ns, ratios;
  bool x86_first = false;
  for (auto _ : state) {
    double ns[2];  // [portable, x86]
    for (bool x86 : {x86_first, !x86_first}) {
      const double start = ThreadCpuNs();
      for (int i = 0; i < kChain; ++i) {
#if PSI_LIMB_KERNEL_X86
        if (x86) {
          limb_kernel::MontMulFixedX86<L>(x, x, n_limbs, n0, x);
          continue;
        }
#endif
        limb_kernel::MontMulFixedPortable<L>(x, x, n_limbs, n0, x);
      }
      benchmark::DoNotOptimize(x);
      ns[x86 ? 1 : 0] = (ThreadCpuNs() - start) / kChain;
    }
    portable_ns.push_back(ns[0]);
    x86_ns.push_back(ns[1]);
    ratios.push_back(ns[0] / ns[1]);
    x86_first = !x86_first;
  }
  state.counters["portable_ns_per_mul"] = Median(portable_ns);
  state.counters["x86_ns_per_mul"] = Median(x86_ns);
  state.counters["x86_speedup"] = Median(ratios);
}

void BM_MontMulKernelPaired(benchmark::State& state) {
  if (!limb_kernel::X86KernelsAvailable()) {
    state.SkipWithError("x86 kernels not available on this build or CPU");
    return;
  }
  switch (state.range(0)) {
    case 4:
      return RunMontMulKernelPaired<4>(state);
    case 8:
      return RunMontMulKernelPaired<8>(state);
    default:
      return RunMontMulKernelPaired<16>(state);
  }
}
BENCHMARK(BM_MontMulKernelPaired)->Arg(4)->Arg(8)->Arg(16);

// ------------------------------------------------------------------- RSA --

// Arg is the RSA modulus size; decryption runs two CRT halves of half that
// width (4 limbs each at 512 bits, the P6 per-integer geometry).
void RunRsaDecrypt(benchmark::State& state, bool heap_only) {
  Rng rng(38);
  auto kp = RsaGenerateKeyPair(&rng, static_cast<size_t>(state.range(0)))
                .ValueOrDie();
  const BigUInt c =
      RsaEncrypt(kp.public_key, BigUInt::RandomBelow(&rng, kp.public_key.n))
          .ValueOrDie();
  std::optional<ScopedHeapOnlyModPow> guard;
  if (heap_only) guard.emplace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaDecrypt(kp.private_key, c).ValueOrDie());
  }
}

void BM_RsaDecrypt(benchmark::State& state) {
  RunRsaDecrypt(state, /*heap_only=*/false);
}
BENCHMARK(BM_RsaDecrypt)->Arg(512);

void BM_RsaDecryptHeap(benchmark::State& state) {
  RunRsaDecrypt(state, /*heap_only=*/true);
}
BENCHMARK(BM_RsaDecryptHeap)->Arg(512);

// -------------------------------------------------------------- Paillier --

// Arg is the Paillier key size; the CRT decrypt works over p^2/q^2 of the
// same bit count, so Arg(1024) exercises the 16-limb engine geometry the
// acceptance gate names.
void RunPaillierDecryptCrt(benchmark::State& state, bool heap_only) {
  Rng rng(8);
  auto kp =
      PaillierGenerateKeyPair(&rng, static_cast<size_t>(state.range(0)))
          .ValueOrDie();
  BigUInt c =
      PaillierEncrypt(kp.public_key, BigUInt(123456789), &rng).ValueOrDie();
  if (heap_only) {
    ScopedHeapOnlyModPow guard;
    for (auto _ : state) {
      benchmark::DoNotOptimize(PaillierDecryptCrt(kp.private_key, c).ValueOrDie());
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(PaillierDecryptCrt(kp.private_key, c).ValueOrDie());
    }
  }
}

void BM_PaillierDecryptCrt(benchmark::State& state) {
  RunPaillierDecryptCrt(state, /*heap_only=*/false);
}
BENCHMARK(BM_PaillierDecryptCrt)->Arg(512)->Arg(1024);

void BM_PaillierDecryptCrtHeap(benchmark::State& state) {
  RunPaillierDecryptCrt(state, /*heap_only=*/true);
}
BENCHMARK(BM_PaillierDecryptCrtHeap)->Arg(512)->Arg(1024);

void RunPaillierEncrypt(benchmark::State& state, bool heap_only) {
  Rng rng(8);
  auto kp =
      PaillierGenerateKeyPair(&rng, static_cast<size_t>(state.range(0)))
          .ValueOrDie();
  BigUInt m(123456789);
  if (heap_only) {
    ScopedHeapOnlyModPow guard;
    for (auto _ : state) {
      benchmark::DoNotOptimize(PaillierEncrypt(kp.public_key, m, &rng).ValueOrDie());
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(PaillierEncrypt(kp.public_key, m, &rng).ValueOrDie());
    }
  }
}

void BM_PaillierEncrypt(benchmark::State& state) {
  RunPaillierEncrypt(state, /*heap_only=*/false);
}
BENCHMARK(BM_PaillierEncrypt)->Arg(512)->Arg(1024);

void BM_PaillierEncryptHeap(benchmark::State& state) {
  RunPaillierEncrypt(state, /*heap_only=*/true);
}
BENCHMARK(BM_PaillierEncryptHeap)->Arg(512)->Arg(1024);

// ------------------------------------------------- paired heap speedups --

// Separate BM_Foo / BM_FooHeap rows run seconds apart, so their ratio moves
// with whatever else the host did meanwhile: BM_PaillierDecryptCrt/1024's
// ranged from 1.16x to 3.12x across runs of one binary. Each iteration here
// times one engine call and one heap call back to back (alternating which
// goes first), on the thread's CPU clock, and the row reports the median of
// the per-iteration heap/engine ratios as heap_speedup.

// `op(heap)` runs the operation once on the heap path when `heap` is set,
// else on the engine.
template <typename Op>
void RunPairedSpeedup(benchmark::State& state, Op op) {
  std::vector<double> ratios;
  bool heap_first = false;
  for (auto _ : state) {
    double ns[2];  // [engine, heap]
    for (bool heap : {heap_first, !heap_first}) {
      const double start = ThreadCpuNs();
      op(heap);
      ns[heap ? 1 : 0] = ThreadCpuNs() - start;
    }
    ratios.push_back(ns[1] / ns[0]);
    heap_first = !heap_first;
  }
  state.counters["heap_speedup"] = Median(std::move(ratios));
}

void BM_MontgomeryPowPaired(benchmark::State& state) {
  Rng rng(36);
  const auto bits = static_cast<size_t>(state.range(0));
  const BigUInt m = BenchModulus(&rng, bits);
  const auto engine = MontgomeryContext::Create(m).ValueOrDie();
  const auto heap = MontgomeryContext::Create(m, EngineMode::kHeapOnly)
                        .ValueOrDie();
  const BigUInt base = BigUInt::RandomBelow(&rng, m);
  const BigUInt exp = BigUInt::RandomBits(&rng, bits);
  RunPairedSpeedup(state, [&](bool on_heap) {
    benchmark::DoNotOptimize((on_heap ? heap : engine).Pow(base, exp));
  });
}
BENCHMARK(BM_MontgomeryPowPaired)->Arg(1024);

void BM_PaillierDecryptCrtPaired(benchmark::State& state) {
  Rng rng(8);
  auto kp =
      PaillierGenerateKeyPair(&rng, static_cast<size_t>(state.range(0)))
          .ValueOrDie();
  const BigUInt c =
      PaillierEncrypt(kp.public_key, BigUInt(123456789), &rng).ValueOrDie();
  RunPairedSpeedup(state, [&](bool on_heap) {
    std::optional<ScopedHeapOnlyModPow> guard;
    if (on_heap) guard.emplace();
    benchmark::DoNotOptimize(PaillierDecryptCrt(kp.private_key, c).ValueOrDie());
  });
}
BENCHMARK(BM_PaillierDecryptCrtPaired)->Arg(1024);

void BM_RsaDecryptPaired(benchmark::State& state) {
  Rng rng(38);
  auto kp = RsaGenerateKeyPair(&rng, static_cast<size_t>(state.range(0)))
                .ValueOrDie();
  const BigUInt c =
      RsaEncrypt(kp.public_key, BigUInt::RandomBelow(&rng, kp.public_key.n))
          .ValueOrDie();
  RunPairedSpeedup(state, [&](bool on_heap) {
    std::optional<ScopedHeapOnlyModPow> guard;
    if (on_heap) guard.emplace();
    benchmark::DoNotOptimize(RsaDecrypt(kp.private_key, c).ValueOrDie());
  });
}
BENCHMARK(BM_RsaDecryptPaired)->Arg(512);

// ------------------------------------------------------------ end-to-end --

// Whole-protocol deltas: everything below the drivers (Paillier, RSA,
// masked shares, metered network) rides the engine automatically, so these
// two pairs measure what the limb engine buys a full P4 / P6 run.

void RunProtocol4(benchmark::State& state, bool heap_only) {
  const size_t n = 100;
  Rng rng(9);
  auto graph = ErdosRenyiArcs(&rng, n, 5 * n).ValueOrDie();
  auto truth = GroundTruthInfluence::Uniform(graph, 0.3);
  CascadeParams params;
  params.num_actions = 50;
  auto log = GenerateCascades(&rng, graph, truth, params).ValueOrDie();
  auto logs = ExclusivePartition(&rng, log, 3).ValueOrDie();
  Network net;
  PartyId host = net.RegisterParty("H");
  std::vector<PartyId> providers{net.RegisterParty("P1"),
                                 net.RegisterParty("P2"),
                                 net.RegisterParty("P3")};
  Rng r1(1), r2(2), r3(3), hr(4), secret(5);
  std::vector<Rng*> rngs{&r1, &r2, &r3};
  Protocol4Config cfg;
  std::unique_ptr<ScopedHeapOnlyModPow> guard;
  if (heap_only) guard = std::make_unique<ScopedHeapOnlyModPow>();
  for (auto _ : state) {
    LinkInfluenceProtocol proto(&net, host, providers, cfg);
    benchmark::DoNotOptimize(
        proto.Run(graph, 50, logs, &hr, rngs, &secret).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph.num_arcs()));
}

void BM_Protocol4EndToEnd(benchmark::State& state) {
  RunProtocol4(state, /*heap_only=*/false);
}
BENCHMARK(BM_Protocol4EndToEnd)->Unit(benchmark::kMillisecond);

void BM_Protocol4EndToEndHeap(benchmark::State& state) {
  RunProtocol4(state, /*heap_only=*/true);
}
BENCHMARK(BM_Protocol4EndToEndHeap)->Unit(benchmark::kMillisecond);

void RunProtocol6(benchmark::State& state, bool heap_only) {
  auto world = bench::MakeWorld(/*num_providers=*/3, /*num_users=*/50,
                                /*num_arcs=*/160, /*num_actions=*/20,
                                /*seed=*/97);
  bench::World& w = *world;
  Protocol6Config cfg;
  cfg.rsa_bits = 512;
  cfg.obfuscation_factor = 2.0;
  std::unique_ptr<ScopedHeapOnlyModPow> guard;
  if (heap_only) guard = std::make_unique<ScopedHeapOnlyModPow>();
  for (auto _ : state) {
    PropagationGraphProtocol proto(&w.net, w.host, w.providers, cfg);
    benchmark::DoNotOptimize(proto.Run(*w.graph, 20, w.provider_logs,
                                       w.host_rng.get(), w.RngPtrs())
                                 .ValueOrDie());
  }
}

void BM_Protocol6EndToEnd(benchmark::State& state) {
  RunProtocol6(state, /*heap_only=*/false);
}
BENCHMARK(BM_Protocol6EndToEnd)->Unit(benchmark::kMillisecond);

void BM_Protocol6EndToEndHeap(benchmark::State& state) {
  RunProtocol6(state, /*heap_only=*/true);
}
BENCHMARK(BM_Protocol6EndToEndHeap)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace psi

PSI_BENCHMARK_MAIN();
