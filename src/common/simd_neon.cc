/// \file simd_neon.cc
/// NEON arm of the count-and-threshold kernels (aarch64 only, where NEON
/// is baseline — no extra target flags needed). Mirrors the AVX2 arm at
/// 4 lanes: vectorial word/shift index math, then a conflict pass that
/// commits each run of same-word lanes with one word update (CAS for the
/// shared arm, plain read-modify-write for the exclusive arm's packed
/// sub-byte widths; its 8/16/32-bit widths take the direct path).

#include "common/simd.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace genie {
namespace simd {
namespace detail {

namespace {

template <typename ApplyFn>
inline void BitmapIncrementBatchNeonImpl(const BitmapParams& p,
                                         const uint32_t* oids, uint32_t n,
                                         uint32_t* vals, ApplyFn&& apply,
                                         uint32_t (*tail)(const BitmapParams&,
                                                          uint32_t)) {
  const int32x4_t neg_word_shift =
      vdupq_n_s32(-static_cast<int32_t>(p.log_per_word));
  const int32x4_t bits_shift =
      vdupq_n_s32(static_cast<int32_t>(__builtin_ctz(p.bits)));
  const uint32x4_t pos_mask = vdupq_n_u32((1u << p.log_per_word) - 1u);
  alignas(16) uint32_t word_idx[4];
  alignas(16) uint32_t shifts[4];

  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t v = vld1q_u32(oids + i);
    const uint32x4_t w = vshlq_u32(v, neg_word_shift);  // right shift
    const uint32x4_t s = vshlq_u32(vandq_u32(v, pos_mask), bits_shift);
    vst1q_u32(word_idx, w);
    vst1q_u32(shifts, s);
    uint32_t j = 0;
    while (j < 4) {
      const uint32_t word = word_idx[j];
      uint32_t end = j + 1;
      while (end < 4 && word_idx[end] == word) ++end;
      apply(p, word, shifts + j, end - j, vals + i + j);
      j = end;
    }
  }
  for (; i < n; ++i) {
    vals[i] = tail(p, oids[i]);
  }
}

}  // namespace

void BitmapIncrementBatchNeon(const BitmapParams& p, const uint32_t* oids,
                              uint32_t n, uint32_t* vals) {
  BitmapIncrementBatchNeonImpl(
      p, oids, n, vals,
      [](const BitmapParams& params, uint64_t word, const uint32_t* sh,
         uint32_t count, uint32_t* out) {
        ApplyWordRun(params, word, sh, count, out);
      },
      &ScalarIncrement);
}

void BitmapIncrementBatchExclusiveNeon(const BitmapParams& p,
                                       const uint32_t* oids, uint32_t n,
                                       uint32_t* vals) {
  if (IncrementBatchDirectExclusive(p, oids, n, vals)) return;
  BitmapIncrementBatchNeonImpl(
      p, oids, n, vals,
      [](const BitmapParams& params, uint64_t word, const uint32_t* sh,
         uint32_t count, uint32_t* out) {
        ApplyWordRunExclusive(params, word, sh, count, out);
      },
      &ScalarIncrementExclusive);
}

void CountIncrementBatchNeon(uint32_t* counts, const uint32_t* oids,
                             uint32_t n) {
  // Fold runs of equal ids into one fetch_add and prefetch the slot a
  // fixed distance ahead to hide the count-table gather latency.
  constexpr uint32_t kAhead = 32;
  uint32_t i = 0;
  while (i < n) {
    if (i + kAhead < n) __builtin_prefetch(counts + oids[i + kAhead], 1, 3);
    const uint32_t oid = oids[i];
    uint32_t run = 1;
    while (i + run < n && oids[i + run] == oid) ++run;
    std::atomic_ref<uint32_t> slot(counts[oid]);
    slot.fetch_add(run, std::memory_order_relaxed);
    i += run;
  }
}

void CountIncrementBatchExclusiveNeon(uint32_t* counts, const uint32_t* oids,
                                      uint32_t n) {
  constexpr uint32_t kAhead = 32;
  uint32_t i = 0;
  while (i < n) {
    if (i + kAhead < n) __builtin_prefetch(counts + oids[i + kAhead], 1, 3);
    const uint32_t oid = oids[i];
    uint32_t run = 1;
    while (i + run < n && oids[i + run] == oid) ++run;
    counts[oid] += run;
    i += run;
  }
}

}  // namespace detail
}  // namespace simd
}  // namespace genie

#endif  // __aarch64__
