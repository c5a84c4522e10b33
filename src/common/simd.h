#pragma once

/// \file simd.h
/// Runtime-dispatched SIMD kernels for the count-and-threshold hot path.
///
/// The match kernel's inner loop is "increment a saturating counter per
/// posting" (Bitmap Counter, Section III-C) or "fetch_add a full-width
/// counter per posting" (Count Table, Appendix A). Both are exposed here as
/// batch operations behind a function-pointer table selected once at
/// startup: AVX2 on x86, NEON on aarch64, and a portable scalar arm that is
/// also the semantic reference. `GENIE_SIMD=off|scalar|avx2|neon|auto`
/// overrides the choice; unsupported requests degrade to scalar.
///
/// Batch semantics are defined as *exactly* the sequential per-element
/// semantics: `bitmap_increment_batch(p, oids, n, vals)` must leave the
/// word array and `vals` bit-identical to n in-order calls of the scalar
/// increment. The shared (atomic) arms exploit commutativity only inside a
/// single atomic word update (one CAS per touched word, with an
/// in-register/in-run conflict pass producing per-lane sequential post
/// values), so the equality holds even under concurrent blocks
/// word-for-word at quiesce. The single-writer arms address counters of 8,
/// 16 or 32 bits directly as bytes, halfwords or words of the same array
/// (IncrementBatchDirectExclusive) and keep the packed word update for
/// the 1-, 2- and 4-bit widths.

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>

namespace genie {
namespace simd {

enum class Arch : uint8_t { kScalar = 0, kAvx2 = 1, kNeon = 2 };

const char* ArchName(Arch arch);

/// Packing parameters of a bitmap counter array (mirror of
/// BitmapCounterView's layout so common/ does not depend on core/).
struct BitmapParams {
  uint32_t* words = nullptr;
  uint32_t bits = 32;          // power of two in {1,2,4,8,16,32}
  uint32_t log_per_word = 0;   // log2(32 / bits)
  uint32_t mask = ~0u;         // field mask
  uint32_t cap = ~0u;          // saturation point (<= mask)
};

/// Dispatch table. All pointers are non-null in every arm.
struct Ops {
  Arch arch = Arch::kScalar;
  /// Lanes processed per vector step (1 for scalar). Reported in bench
  /// counters as `simd_lanes`.
  uint32_t lanes = 1;

  /// Saturating packed increment of `oids[0..n)`; `vals[i]` receives the
  /// post-increment value, or 0 when that counter was already at the cap.
  /// Equivalent to n in-order scalar increments (see file comment).
  void (*bitmap_increment_batch)(const BitmapParams& params,
                                 const uint32_t* oids, uint32_t n,
                                 uint32_t* vals) = nullptr;

  /// Equivalent to `counts[oids[i]]++` (atomic, full 32-bit width) for i in
  /// order; adjacent equal oids are combined into one fetch_add.
  void (*count_increment_batch)(uint32_t* counts, const uint32_t* oids,
                                uint32_t n) = nullptr;

  /// Single-writer variants: same results as the shared kernels above, but
  /// with plain (non-atomic) updates. Legal only when the caller guarantees
  /// no other thread touches this counter array while the batch runs — the
  /// engine proves that whenever a query's postings all land in one block
  /// (the default, unsplit schedule), since each query owns a private arena
  /// and a block's threads run on one worker. The bitmap variant updates
  /// 8-, 16- and 32-bit counters in place as whole elements
  /// (IncrementBatchDirectExclusive) and sub-byte widths with a plain
  /// packed read-modify-write per word.
  void (*bitmap_increment_batch_exclusive)(const BitmapParams& params,
                                           const uint32_t* oids, uint32_t n,
                                           uint32_t* vals) = nullptr;
  void (*count_increment_batch_exclusive)(uint32_t* counts,
                                          const uint32_t* oids,
                                          uint32_t n) = nullptr;
};

/// Best arch the current CPU supports (ignores the environment override).
Arch BestSupportedArch();

/// The table chosen at startup from BestSupportedArch() + `GENIE_SIMD`,
/// unless a ScopedForceArch override is active.
const Ops& ActiveOps();

/// Explicit arm, clamped to scalar when the CPU lacks support. Lets one
/// process A/B both dispatch arms (equality tests, bench counters).
const Ops& OpsForArch(Arch arch);

/// RAII test hook: force ActiveOps() to a given arch within a scope.
/// Establish before launching kernels; do not nest across threads.
class ScopedForceArch {
 public:
  explicit ScopedForceArch(Arch arch);
  ~ScopedForceArch();
  ScopedForceArch(const ScopedForceArch&) = delete;
  ScopedForceArch& operator=(const ScopedForceArch&) = delete;

 private:
  const Ops* previous_;
};

namespace detail {

/// Reference single-element increment: the semantic ground truth every
/// vector arm must reproduce lane-for-lane.
inline uint32_t ScalarIncrement(const BitmapParams& p, uint32_t oid) {
  const uint64_t word_idx = static_cast<uint64_t>(oid) >> p.log_per_word;
  const uint32_t shift = (oid & ((1u << p.log_per_word) - 1u)) * p.bits;
  std::atomic_ref<uint32_t> word(p.words[word_idx]);
  uint32_t cur = word.load(std::memory_order_relaxed);
  while (true) {
    const uint32_t field = (cur >> shift) & p.mask;
    if (field >= p.cap) return 0;  // saturated
    const uint32_t next = cur + (1u << shift);
    if (word.compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
      return field + 1;
    }
  }
}

/// Single-writer counterpart of ScalarIncrement: identical result, plain
/// loads/stores. Only reachable through the *_exclusive dispatch entries.
inline uint32_t ScalarIncrementExclusive(const BitmapParams& p, uint32_t oid) {
  const uint64_t word_idx = static_cast<uint64_t>(oid) >> p.log_per_word;
  const uint32_t shift = (oid & ((1u << p.log_per_word) - 1u)) * p.bits;
  const uint32_t cur = p.words[word_idx];
  const uint32_t field = (cur >> shift) & p.mask;
  if (field >= p.cap) return 0;  // saturated
  p.words[word_idx] = cur + (1u << shift);
  return field + 1;
}

/// Single-writer increments of `oids[0..n)` for counters that fill whole
/// bytes. On a little-endian host counter `oid` of an 8-, 16- or 32-bit
/// array sits in bytes [oid * bytes, (oid + 1) * bytes) of the word array —
/// exactly where the packed layout puts it — so each posting is one
/// element load, a compare with the cap and one element store, through
/// memcpy so the narrow access never aliases the uint32_t words. Same
/// saturation and `vals` contract as ScalarIncrementExclusive. Returns
/// false, touching nothing, for the packed 1-, 2- and 4-bit widths and on
/// big-endian hosts; the calling arm then runs its packed path.
inline bool IncrementBatchDirectExclusive(const BitmapParams& p,
                                          const uint32_t* oids, uint32_t n,
                                          uint32_t* vals) {
  if constexpr (std::endian::native != std::endian::little) {
    return false;
  } else {
    // Locals, not `p`'s fields: the byte stores may alias `p` itself.
    unsigned char* const bytes = reinterpret_cast<unsigned char*>(p.words);
    const uint32_t cap = p.cap;
    const auto run = [&](auto element) {
      using T = decltype(element);
      for (uint32_t i = 0; i < n; ++i) {
        unsigned char* const slot =
            bytes + static_cast<uint64_t>(oids[i]) * sizeof(T);
        T cur;
        std::memcpy(&cur, slot, sizeof(T));
        const bool room = cur < cap;
        const T next = static_cast<T>(cur + room);
        std::memcpy(slot, &next, sizeof(T));
        vals[i] = room ? static_cast<uint32_t>(cur) + 1 : 0;
      }
    };
    switch (p.bits) {
      case 8: run(uint8_t{}); return true;
      case 16: run(uint16_t{}); return true;
      case 32: run(uint32_t{}); return true;
      default: return false;
    }
  }
}

/// Conflict pass shared by every arm: applies `count` increments — all
/// targeting the single word `word_idx`, lane j's field at bit offset
/// `shifts[j]` — with ONE compare-and-swap, writing the sequential
/// per-lane post values to `vals`. Lanes that would push a field past the
/// cap contribute nothing and read 0, exactly like sequential saturation.
inline void ApplyWordRun(const BitmapParams& p, uint64_t word_idx,
                         const uint32_t* shifts, uint32_t count,
                         uint32_t* vals) {
  std::atomic_ref<uint32_t> word(p.words[word_idx]);
  uint32_t cur = word.load(std::memory_order_relaxed);
  while (true) {
    uint32_t next = cur;
    for (uint32_t j = 0; j < count; ++j) {
      const uint32_t field = (next >> shifts[j]) & p.mask;
      if (field >= p.cap) {
        vals[j] = 0;
      } else {
        next += (1u << shifts[j]);
        vals[j] = field + 1;
      }
    }
    if (next == cur) return;  // every lane saturated; nothing to publish
    if (word.compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
      return;
    }
  }
}

/// Single-writer counterpart of ApplyWordRun: one plain read-modify-write
/// instead of a CAS loop. Per-lane post values are identical.
inline void ApplyWordRunExclusive(const BitmapParams& p, uint64_t word_idx,
                                  const uint32_t* shifts, uint32_t count,
                                  uint32_t* vals) {
  const uint32_t cur = p.words[word_idx];
  uint32_t next = cur;
  for (uint32_t j = 0; j < count; ++j) {
    const uint32_t field = (next >> shifts[j]) & p.mask;
    if (field >= p.cap) {
      vals[j] = 0;
    } else {
      next += (1u << shifts[j]);
      vals[j] = field + 1;
    }
  }
  if (next != cur) p.words[word_idx] = next;
}

// Per-ISA kernels, each defined in its own translation unit so the
// vector code can be compiled with the matching target flags while the
// rest of the build stays baseline.
void BitmapIncrementBatchScalar(const BitmapParams& p, const uint32_t* oids,
                                uint32_t n, uint32_t* vals);
void CountIncrementBatchScalar(uint32_t* counts, const uint32_t* oids,
                               uint32_t n);
void BitmapIncrementBatchExclusiveScalar(const BitmapParams& p,
                                         const uint32_t* oids, uint32_t n,
                                         uint32_t* vals);
void CountIncrementBatchExclusiveScalar(uint32_t* counts, const uint32_t* oids,
                                        uint32_t n);
#if defined(__x86_64__) || defined(__i386__)
void BitmapIncrementBatchAvx2(const BitmapParams& p, const uint32_t* oids,
                              uint32_t n, uint32_t* vals);
void CountIncrementBatchAvx2(uint32_t* counts, const uint32_t* oids,
                             uint32_t n);
void BitmapIncrementBatchExclusiveAvx2(const BitmapParams& p,
                                       const uint32_t* oids, uint32_t n,
                                       uint32_t* vals);
void CountIncrementBatchExclusiveAvx2(uint32_t* counts, const uint32_t* oids,
                                      uint32_t n);
#endif
#if defined(__aarch64__)
void BitmapIncrementBatchNeon(const BitmapParams& p, const uint32_t* oids,
                              uint32_t n, uint32_t* vals);
void CountIncrementBatchNeon(uint32_t* counts, const uint32_t* oids,
                             uint32_t n);
void BitmapIncrementBatchExclusiveNeon(const BitmapParams& p,
                                       const uint32_t* oids, uint32_t n,
                                       uint32_t* vals);
void CountIncrementBatchExclusiveNeon(uint32_t* counts, const uint32_t* oids,
                                      uint32_t n);
#endif

}  // namespace detail
}  // namespace simd
}  // namespace genie
