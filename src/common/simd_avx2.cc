/// \file simd_avx2.cc
/// AVX2 arm of the count-and-threshold kernels. Compiled with -mavx2 for
/// this translation unit only; callers reach it through the dispatch table
/// so a non-AVX2 host never executes these instructions.

#include "common/simd.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace genie {
namespace simd {
namespace detail {

namespace {

/// Lane j of the result holds lane j-1 of `v` (lane 0 holds lane 0, which
/// the caller masks off): used to compare each lane against its left
/// neighbour in one instruction.
inline __m256i ShiftLanesLeftByOne(__m256i v) {
  const __m256i idx = _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6);
  return _mm256_permutevar8x32_epi32(v, idx);
}

/// Bit j set when lane j equals lane j-1 (bit 0 always clear).
inline uint32_t NeighbourEqualMask(__m256i v) {
  const __m256i eq = _mm256_cmpeq_epi32(v, ShiftLanesLeftByOne(v));
  return static_cast<uint32_t>(
             _mm256_movemask_ps(_mm256_castsi256_ps(eq))) &
         0xFEu;
}

/// Shared skeleton of the two AVX2 bitmap arms: vectorial word/shift
/// computation for 8 lanes at a time, then an in-register conflict pass
/// that commits every run of same-word lanes through `apply` (one atomic
/// CAS for the shared arm, one plain read-modify-write for the exclusive
/// single-writer arm).
template <typename ApplyFn>
inline void BitmapIncrementBatchAvx2Impl(const BitmapParams& p,
                                         const uint32_t* oids, uint32_t n,
                                         uint32_t* vals, ApplyFn&& apply,
                                         uint32_t (*tail)(const BitmapParams&,
                                                          uint32_t)) {
  const __m128i word_shift = _mm_cvtsi32_si128(static_cast<int>(p.log_per_word));
  const __m128i bits_shift =
      _mm_cvtsi32_si128(__builtin_ctz(p.bits));  // bits is a power of two
  const __m256i pos_mask =
      _mm256_set1_epi32(static_cast<int>((1u << p.log_per_word) - 1u));
  alignas(32) uint32_t word_idx[8];
  alignas(32) uint32_t shifts[8];

  uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(oids + i));
    // word index and in-word bit offset for all 8 lanes at once.
    const __m256i w = _mm256_srl_epi32(v, word_shift);
    const __m256i s =
        _mm256_sll_epi32(_mm256_and_si256(v, pos_mask), bits_shift);
    _mm256_store_si256(reinterpret_cast<__m256i*>(word_idx), w);
    _mm256_store_si256(reinterpret_cast<__m256i*>(shifts), s);
    // In-register conflict pass: one neighbour compare finds every run of
    // lanes that lands in the same counter word, then each run commits
    // once with the combined (cap-clamped) deltas.
    uint32_t eq = NeighbourEqualMask(w);
    uint32_t j = 0;
    while (j < 8) {
      uint32_t end = j + 1;
      while (end < 8 && ((eq >> end) & 1u)) ++end;
      apply(p, word_idx[j], shifts + j, end - j, vals + i + j);
      j = end;
    }
  }
  for (; i < n; ++i) {
    vals[i] = tail(p, oids[i]);
  }
}

}  // namespace

void BitmapIncrementBatchAvx2(const BitmapParams& p, const uint32_t* oids,
                              uint32_t n, uint32_t* vals) {
  BitmapIncrementBatchAvx2Impl(
      p, oids, n, vals,
      [](const BitmapParams& params, uint64_t word, const uint32_t* sh,
         uint32_t count, uint32_t* out) {
        ApplyWordRun(params, word, sh, count, out);
      },
      &ScalarIncrement);
}

void BitmapIncrementBatchExclusiveAvx2(const BitmapParams& p,
                                       const uint32_t* oids, uint32_t n,
                                       uint32_t* vals) {
  if (IncrementBatchDirectExclusive(p, oids, n, vals)) return;
  // Packed 1-, 2- and 4-bit counters. No conflict pass is needed here: a
  // single writer doing in-order read-modify-writes gets sequential
  // semantics for free even when consecutive lanes share a word
  // (store-to-load forwarding), so the vector part is just the index math
  // for 8 lanes at a time.
  const __m128i word_shift = _mm_cvtsi32_si128(static_cast<int>(p.log_per_word));
  const __m128i bits_shift = _mm_cvtsi32_si128(__builtin_ctz(p.bits));
  const __m256i pos_mask =
      _mm256_set1_epi32(static_cast<int>((1u << p.log_per_word) - 1u));
  alignas(32) uint32_t word_idx[8];
  alignas(32) uint32_t shifts[8];

  uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(oids + i));
    const __m256i w = _mm256_srl_epi32(v, word_shift);
    const __m256i s =
        _mm256_sll_epi32(_mm256_and_si256(v, pos_mask), bits_shift);
    _mm256_store_si256(reinterpret_cast<__m256i*>(word_idx), w);
    _mm256_store_si256(reinterpret_cast<__m256i*>(shifts), s);
    for (uint32_t j = 0; j < 8; ++j) {
      const uint32_t cur = p.words[word_idx[j]];
      const uint32_t field = (cur >> shifts[j]) & p.mask;
      if (field >= p.cap) {
        vals[i + j] = 0;
      } else {
        p.words[word_idx[j]] = cur + (1u << shifts[j]);
        vals[i + j] = field + 1;
      }
    }
  }
  for (; i < n; ++i) {
    vals[i] = ScalarIncrementExclusive(p, oids[i]);
  }
}

void CountIncrementBatchAvx2(uint32_t* counts, const uint32_t* oids,
                             uint32_t n) {
  // The count table is a plain uint32 row far larger than L1; hide the
  // random-access latency by prefetching the slot a fixed distance ahead,
  // and fold runs of equal ids into one fetch_add.
  constexpr uint32_t kAhead = 32;
  uint32_t i = 0;
  while (i < n) {
    if (i + kAhead < n) {
      _mm_prefetch(reinterpret_cast<const char*>(counts + oids[i + kAhead]),
                   _MM_HINT_T0);
    }
    const uint32_t oid = oids[i];
    uint32_t run = 1;
    while (i + run < n && oids[i + run] == oid) ++run;
    std::atomic_ref<uint32_t> slot(counts[oid]);
    slot.fetch_add(run, std::memory_order_relaxed);
    i += run;
  }
}

void CountIncrementBatchExclusiveAvx2(uint32_t* counts, const uint32_t* oids,
                                      uint32_t n) {
  constexpr uint32_t kAhead = 32;
  uint32_t i = 0;
  while (i < n) {
    if (i + kAhead < n) {
      _mm_prefetch(reinterpret_cast<const char*>(counts + oids[i + kAhead]),
                   _MM_HINT_T0);
    }
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

#endif  // x86
