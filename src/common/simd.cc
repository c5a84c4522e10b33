#include "common/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace genie {
namespace simd {

namespace detail {

void BitmapIncrementBatchScalar(const BitmapParams& p, const uint32_t* oids,
                                uint32_t n, uint32_t* vals) {
  for (uint32_t i = 0; i < n; ++i) {
    vals[i] = ScalarIncrement(p, oids[i]);
  }
}

void CountIncrementBatchScalar(uint32_t* counts, const uint32_t* oids,
                               uint32_t n) {
  uint32_t i = 0;
  while (i < n) {
    const uint32_t oid = oids[i];
    uint32_t run = 1;
    while (i + run < n && oids[i + run] == oid) ++run;
    std::atomic_ref<uint32_t> slot(counts[oid]);
    slot.fetch_add(run, std::memory_order_relaxed);
    i += run;
  }
}

void BitmapIncrementBatchExclusiveScalar(const BitmapParams& p,
                                         const uint32_t* oids, uint32_t n,
                                         uint32_t* vals) {
  if (IncrementBatchDirectExclusive(p, oids, n, vals)) return;
  for (uint32_t i = 0; i < n; ++i) {
    vals[i] = ScalarIncrementExclusive(p, oids[i]);
  }
}

void CountIncrementBatchExclusiveScalar(uint32_t* counts, const uint32_t* oids,
                                        uint32_t n) {
  for (uint32_t i = 0; i < n; ++i) {
    ++counts[oids[i]];
  }
}

}  // namespace detail

const char* ArchName(Arch arch) {
  switch (arch) {
    case Arch::kScalar: return "scalar";
    case Arch::kAvx2: return "avx2";
    case Arch::kNeon: return "neon";
  }
  return "unknown";
}

Arch BestSupportedArch() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") ? Arch::kAvx2 : Arch::kScalar;
#elif defined(__aarch64__)
  return Arch::kNeon;  // NEON is baseline on aarch64
#else
  return Arch::kScalar;
#endif
}

const Ops& OpsForArch(Arch arch) {
  static const Ops kScalarOps = {
      Arch::kScalar, 1, &detail::BitmapIncrementBatchScalar,
      &detail::CountIncrementBatchScalar,
      &detail::BitmapIncrementBatchExclusiveScalar,
      &detail::CountIncrementBatchExclusiveScalar};
#if defined(__x86_64__) || defined(__i386__)
  static const Ops kAvx2Ops = {
      Arch::kAvx2, 8, &detail::BitmapIncrementBatchAvx2,
      &detail::CountIncrementBatchAvx2,
      &detail::BitmapIncrementBatchExclusiveAvx2,
      &detail::CountIncrementBatchExclusiveAvx2};
  if (arch == Arch::kAvx2 && BestSupportedArch() == Arch::kAvx2) {
    return kAvx2Ops;
  }
#endif
#if defined(__aarch64__)
  static const Ops kNeonOps = {
      Arch::kNeon, 4, &detail::BitmapIncrementBatchNeon,
      &detail::CountIncrementBatchNeon,
      &detail::BitmapIncrementBatchExclusiveNeon,
      &detail::CountIncrementBatchExclusiveNeon};
  if (arch == Arch::kNeon) return kNeonOps;
#endif
  (void)arch;
  return kScalarOps;
}

namespace {

/// Resolves `GENIE_SIMD` against hardware support, once.
Arch StartupArch() {
  const char* env = std::getenv("GENIE_SIMD");
  if (env == nullptr || std::strcmp(env, "auto") == 0 ||
      std::strcmp(env, "on") == 0) {
    return BestSupportedArch();
  }
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0 ||
      std::strcmp(env, "0") == 0) {
    return Arch::kScalar;
  }
  if (std::strcmp(env, "avx2") == 0) return Arch::kAvx2;
  if (std::strcmp(env, "neon") == 0) return Arch::kNeon;
  return BestSupportedArch();
}

/// Test-scoped override; null means "use the startup choice".
std::atomic<const Ops*> g_forced_ops{nullptr};

}  // namespace

const Ops& ActiveOps() {
  const Ops* forced = g_forced_ops.load(std::memory_order_acquire);
  if (forced != nullptr) return *forced;
  static const Ops& startup = OpsForArch(StartupArch());
  return startup;
}

ScopedForceArch::ScopedForceArch(Arch arch)
    : previous_(g_forced_ops.load(std::memory_order_acquire)) {
  g_forced_ops.store(&OpsForArch(arch), std::memory_order_release);
}

ScopedForceArch::~ScopedForceArch() {
  g_forced_ops.store(previous_, std::memory_order_release);
}

}  // namespace simd
}  // namespace genie
