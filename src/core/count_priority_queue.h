#pragma once

/// \file count_priority_queue.h
/// Count Priority Queue (c-PQ, Section III-C): the composition of Bitmap
/// Counter (lower level), Gate (ZipperArray + AuditThreshold) and Hash
/// Table (upper level), with Algorithm 1 as the per-posting update and the
/// Theorem 3.1 extraction rule (scan the hash table once; the k-th match
/// count equals AT - 1).

#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/simd.h"
#include "core/bitmap_counter.h"
#include "core/gate.h"
#include "core/hash_table.h"
#include "core/query.h"
#include "index/types.h"

namespace genie {

/// Sizes of the per-query device allocations of one c-PQ instance; used by
/// the engine to carve large batch buffers and by the Table-IV memory
/// accounting.
struct CpqLayout {
  uint32_t num_objects = 0;
  uint32_t k = 0;
  uint32_t max_count = 0;
  uint32_t counter_bits = 0;
  uint64_t bitmap_words = 0;    // uint32 words
  uint64_t zipper_entries = 0;  // uint32 entries (incl. sentinel)
  uint32_t ht_capacity = 0;     // uint64 slots

  /// `ht_capacity_cap` (0 = none) clamps the CapacityFor-derived hash-table
  /// size, rounded to a power of two — the only way to exercise the c-PQ
  /// overflow path deterministically, since CapacityFor covers the Gate's
  /// k-per-level promotion bound by construction.
  static CpqLayout Make(uint32_t num_objects, uint32_t k, uint32_t max_count,
                        uint32_t ht_slack, uint32_t ht_capacity_cap = 0);

  /// Device bytes of one query's c-PQ (bitmap + gate + hash table).
  uint64_t DeviceBytes() const {
    return bitmap_words * sizeof(uint32_t) +
           zipper_entries * sizeof(uint32_t) + sizeof(uint32_t) /*AT*/ +
           static_cast<uint64_t>(ht_capacity) * sizeof(uint64_t);
  }
};

/// Non-owning bitmap of the object ids one batch must never return (the
/// engine's local id space; bit id % 32 of word id / 32). The engine builds
/// it from the batch's sorted excluded-id list — the delta layer's
/// tombstones — and stages it on the device beside the c-PQ arenas.
class ExcludedMask {
 public:
  ExcludedMask() = default;
  explicit ExcludedMask(const uint32_t* words) : words_(words) {}

  static uint64_t WordsRequired(uint32_t num_objects) {
    return (static_cast<uint64_t>(num_objects) + 31) / 32;
  }
  /// Host-side construction over [0, num_objects); ids outside it are
  /// ignored (a caller may pass ids the engine's part does not hold).
  static std::vector<uint32_t> Build(std::span<const ObjectId> ids,
                                     uint32_t num_objects);

  bool empty() const { return words_ == nullptr; }
  bool Contains(ObjectId id) const {
    return (words_[id >> 5] >> (id & 31)) & 1u;
  }

 private:
  const uint32_t* words_ = nullptr;
};

/// Non-owning composition of the three c-PQ components for one query.
/// An optional ExcludedMask hides ids from promotion: an excluded object
/// still counts in the Bitmap Counter but never reaches the Gate or the
/// Hash Table, so AT and the Theorem 3.1 extraction range over the
/// remaining objects only — the top-k is exact without over-fetching.
class CpqView {
 public:
  CpqView() = default;
  CpqView(BitmapCounterView bitmap, GateView gate, CpqHashTableView table,
          bool robin_hood_expire = true, ExcludedMask excluded = {})
      : bitmap_(bitmap),
        gate_(gate),
        table_(table),
        excluded_(excluded),
        robin_hood_expire_(robin_hood_expire) {}

  /// Algorithm 1: the per-thread update when a posting of `oid` is scanned.
  /// Returns false on hash-table overflow (propagated as an engine error).
  bool Update(ObjectId oid, HashTableStats* stats = nullptr) {
    const uint32_t val = bitmap_.Increment(oid);
    if (val == 0) return true;  // saturated: count bound was undersized
    const uint32_t at = gate_.audit_threshold();
    if (val >= at) {
      if (!excluded_.empty() && excluded_.Contains(oid)) return true;
      const uint32_t expire_below = ExpireThreshold();
      if (!table_.Upsert(oid, val, expire_below, robin_hood_expire_, stats)) {
        return false;
      }
      gate_.OnPromoted(val);
    }
    return true;
  }

  /// Entries with count < AT - 1 are expired (Theorem 3.1); delegates to
  /// the Gate's single threshold definition.
  uint32_t ExpireThreshold() const { return gate_.SelectThreshold(); }

  /// Batched Algorithm 1 over `n` postings: all bitmap increments run
  /// through `ops` (one CAS per touched counter word — or plain stores when
  /// `exclusive`, legal only while this thread is the arena's sole writer),
  /// then the gate pass checks the lanes in order. Single-threaded this is
  /// bit-identical to n sequential Update calls — the bitmap increments
  /// commute and the gate's AT only advances through this thread's own
  /// promotions, so each lane sees exactly the AT it would have seen
  /// interleaved. `vals` is caller scratch of at least n entries. Returns
  /// false on hash-table overflow. kMasked consults the ExcludedMask on the
  /// promotion branch only; the kernel picks the variant once per launch,
  /// so the unmasked path pays nothing per posting.
  template <bool kMasked = false>
  bool UpdateBatch(const simd::Ops& ops, const ObjectId* oids, uint32_t n,
                   uint32_t* vals, HashTableStats* stats = nullptr,
                   bool exclusive = false) {
    (exclusive ? ops.bitmap_increment_batch_exclusive
               : ops.bitmap_increment_batch)(bitmap_.SimdParams(), oids, n,
                                             vals);
    return exclusive ? GatePass<kMasked, true>(oids, n, vals, stats)
                     : GatePass<kMasked, false>(oids, n, vals, stats);
  }

  const BitmapCounterView& bitmap() const { return bitmap_; }
  const GateView& gate() const { return gate_; }
  const CpqHashTableView& table() const { return table_; }

 private:
  /// Lanes the gate pass screens at once.
  static constexpr uint32_t kGateGroup = 8;

  /// The gate half of UpdateBatch. Few lanes are ever promoted, so the
  /// pass reads AT once up front and skips every group of kGateGroup lanes
  /// whose post-increment values all stay below it (saturated lanes read 0
  /// and never reach it). AT never decreases, so such a lane would fail its
  /// in-order check too; the other groups, and the tail, go through
  /// PromoteLanes — the same promotions, in the same order, as n sequential
  /// Update calls. No hash-table prefetch: the per-query tables stay
  /// cache-resident on the benchmarked workloads, and a conditional one
  /// costs an extra unpredictable branch per lane where promotions are
  /// frequent.
  template <bool kMasked, bool kExclusive>
  bool GatePass(const ObjectId* oids, uint32_t n, const uint32_t* vals,
                HashTableStats* stats) {
    const uint32_t at_floor = gate_.audit_threshold();
    uint32_t group = 0;
    while ((group = NextGroupReaching(vals, group, n, at_floor)) +
               kGateGroup <= n) {
      if (!PromoteLanes<kMasked, kExclusive>(oids, vals, group,
                                             group + kGateGroup, stats)) {
        return false;
      }
      group += kGateGroup;
    }
    return PromoteLanes<kMasked, kExclusive>(oids, vals, group, n, stats);
  }

  /// Start of the first whole group at or after `group` with a lane that
  /// reaches `at_floor`, or of the partial tail when there is none.
  static uint32_t NextGroupReaching(const uint32_t* vals, uint32_t group,
                                    uint32_t n, uint32_t at_floor) {
    for (; group + kGateGroup <= n; group += kGateGroup) {
      const uint32_t* lanes = vals + group;
      uint32_t below = 0;
      for (uint32_t j = 0; j < kGateGroup; ++j) below += lanes[j] < at_floor;
      if (below != kGateGroup) break;
    }
    return group;
  }

  /// Algorithm 1's gate check for lanes [begin, end), in order, each
  /// against the current AT: earlier promotions of this batch may have
  /// raised it past the pass's first read.
  template <bool kMasked, bool kExclusive>
  bool PromoteLanes(const ObjectId* oids, const uint32_t* vals,
                    uint32_t begin, uint32_t end, HashTableStats* stats) {
    for (uint32_t i = begin; i < end; ++i) {
      const uint32_t val = vals[i];
      if (val < gate_.audit_threshold()) continue;
      if constexpr (kMasked) {
        if (excluded_.Contains(oids[i])) continue;
      }
      if constexpr (kExclusive) {
        if (!table_.UpsertExclusive(oids[i], val, ExpireThreshold(),
                                    robin_hood_expire_, stats)) {
          return false;
        }
        gate_.OnPromotedExclusive(val);
      } else {
        if (!table_.Upsert(oids[i], val, ExpireThreshold(),
                           robin_hood_expire_, stats)) {
          return false;
        }
        gate_.OnPromoted(val);
      }
    }
    return true;
  }

  BitmapCounterView bitmap_;
  GateView gate_;
  CpqHashTableView table_;
  ExcludedMask excluded_;
  bool robin_hood_expire_ = true;
};

/// Scans the hash table once and returns the top-k (Theorem 3.1): all
/// entries with count > AT - 1, then ties at AT - 1 in arbitrary order.
/// Duplicate keys left by concurrent displacement are combined with max().
QueryResult ExtractTopK(const CpqView& cpq);

/// Host-owned c-PQ storage for a single query (tests, CPU-side use). The
/// engine instead carves views out of batch device buffers.
class CpqHostStorage {
 public:
  CpqHostStorage(uint32_t num_objects, uint32_t k, uint32_t max_count,
                 uint32_t ht_slack = 4, bool robin_hood_expire = true);

  CpqView view() { return view_; }
  const CpqLayout& layout() const { return layout_; }

 private:
  CpqLayout layout_;
  std::vector<uint32_t> bitmap_words_;
  std::vector<uint32_t> zipper_;
  uint32_t audit_threshold_ = GateView::kInitialAuditThreshold;
  std::vector<uint64_t> slots_;
  CpqView view_;
};

}  // namespace genie
