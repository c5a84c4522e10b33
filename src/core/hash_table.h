#pragma once

/// \file hash_table.h
/// The upper level of c-PQ: a lock-free open-addressing hash table with the
/// paper's *modified Robin Hood scheme* (Section III-C2). Entries whose
/// value dropped below the expiry threshold (AT - 1) are overwritten in
/// place regardless of probe order, which caps probe chains as AT rises.
///
/// Entries pack (object id, count) into one 64-bit word so every mutation
/// is a single CAS; a 0 word means empty (ids are stored biased by +1).
///
/// Concurrency note: a Robin Hood displacement is two logical writes (steal
/// the slot, re-insert the evicted entry further along). Between them the
/// evicted key is held privately by the displacing thread, so a concurrent
/// upsert of the same key may insert a second entry. Readers therefore
/// combine duplicate keys with max(count) — ExtractTopK does exactly that —
/// which is safe because counts only grow.

#include <atomic>
#include <cstdint>

#include "common/bit_util.h"
#include "common/logging.h"
#include "index/types.h"

namespace genie {

/// Statistics for the Robin Hood ablation bench (probe behaviour). Updated
/// with atomic increments so one instance can be shared across blocks.
struct HashTableStats {
  uint64_t upserts = 0;
  uint64_t probes = 0;
  uint64_t displacements = 0;
  uint64_t expired_overwrites = 0;
  uint64_t overflows = 0;

  void Add(uint64_t* field, uint64_t v = 1) {
    std::atomic_ref<uint64_t>(*field).fetch_add(v, std::memory_order_relaxed);
  }
};

/// Non-owning view over one query's hash-table slots.
class CpqHashTableView {
 public:
  static constexpr uint64_t kEmpty = 0;

  CpqHashTableView() = default;
  CpqHashTableView(uint64_t* slots, uint32_t capacity)
      : slots_(slots), mask_(capacity - 1) {
    GENIE_DCHECK(bit_util::IsPow2(capacity));
  }

  /// Capacity for one query: the paper sizes the table O(k * max_count);
  /// `slack` adds headroom for concurrent duplicates. Capped so tiny
  /// datasets never allocate more slots than 2n.
  static uint32_t CapacityFor(uint32_t k, uint32_t max_count,
                              uint32_t num_objects, uint32_t slack) {
    uint64_t want = static_cast<uint64_t>(slack) * k *
                        (static_cast<uint64_t>(max_count) + 1) +
                    64;
    uint64_t cap_by_n = bit_util::NextPow2(2ULL * num_objects + 64);
    uint64_t cap = bit_util::NextPow2(want);
    if (cap > cap_by_n) cap = cap_by_n;
    return static_cast<uint32_t>(cap);
  }

  static uint64_t MakeEntry(ObjectId id, uint32_t count) {
    return (static_cast<uint64_t>(count) << 32) |
           (static_cast<uint64_t>(id) + 1);
  }
  static ObjectId EntryId(uint64_t e) {
    return static_cast<ObjectId>((e & 0xFFFFFFFFULL) - 1);
  }
  static uint32_t EntryCount(uint64_t e) {
    return static_cast<uint32_t>(e >> 32);
  }

  uint32_t capacity() const { return mask_ + 1; }

  uint64_t LoadSlot(uint32_t i) const {
    return std::atomic_ref<const uint64_t>(slots_[i])
        .load(std::memory_order_relaxed);
  }

  /// Inserts or raises (id, count). `expire_below` is AT - 1: resident
  /// entries with a smaller count can never be top-k (Theorem 3.1) and are
  /// overwritten in place when `allow_expired_overwrite` is set (the paper's
  /// modification; the ablation bench turns it off).
  ///
  /// Returns false only if the probe limit was exceeded (table overflow),
  /// which the engine reports as an error; with CapacityFor sizing this does
  /// not happen in practice.
  bool Upsert(ObjectId id, uint32_t count, uint32_t expire_below,
              bool allow_expired_overwrite = true,
              HashTableStats* stats = nullptr) {
    uint64_t carry = MakeEntry(id, count);
    uint32_t carry_age = 0;
    uint32_t slot = Hash(EntryId(carry)) & mask_;
    if (stats != nullptr) stats->Add(&stats->upserts);
    for (uint32_t probes = 0; probes <= mask_; ++probes) {
      if (stats != nullptr) stats->Add(&stats->probes);
      std::atomic_ref<uint64_t> ref(slots_[slot]);
      uint64_t cur = ref.load(std::memory_order_relaxed);
      while (true) {
        if (cur == kEmpty) {
          if (ref.compare_exchange_weak(cur, carry,
                                        std::memory_order_relaxed)) {
            return true;
          }
          continue;  // cur reloaded; re-evaluate this slot
        }
        if (EntryId(cur) == EntryId(carry)) {
          if (EntryCount(cur) >= EntryCount(carry)) return true;
          if (ref.compare_exchange_weak(cur, carry,
                                        std::memory_order_relaxed)) {
            return true;
          }
          continue;
        }
        if (allow_expired_overwrite && EntryCount(cur) < expire_below) {
          // Expired entry: overwrite regardless of hashing conflict.
          if (ref.compare_exchange_weak(cur, carry,
                                        std::memory_order_relaxed)) {
            if (stats != nullptr) stats->Add(&stats->expired_overwrites);
            return true;
          }
          continue;
        }
        const uint32_t cur_age = ProbeDistance(EntryId(cur), slot);
        if (cur_age < carry_age) {
          // Robin Hood: the resident is richer; steal the slot and carry
          // the evicted entry onward.
          if (ref.compare_exchange_weak(cur, carry,
                                        std::memory_order_relaxed)) {
            if (stats != nullptr) stats->Add(&stats->displacements);
            carry = cur;
            carry_age = cur_age;
            break;  // advance to next slot with the evicted entry
          }
          continue;
        }
        break;  // keep probing
      }
      slot = (slot + 1) & mask_;
      ++carry_age;
    }
    if (stats != nullptr) stats->Add(&stats->overflows);
    return false;
  }

  /// Single-writer Upsert: identical placement decisions and result, plain
  /// loads/stores instead of CAS retry loops. Legal only while the calling
  /// thread is this table's sole writer (the engine's unsplit schedule);
  /// `stats` stays safe to share — it is updated atomically either way.
  bool UpsertExclusive(ObjectId id, uint32_t count, uint32_t expire_below,
                       bool allow_expired_overwrite = true,
                       HashTableStats* stats = nullptr) {
    uint64_t carry = MakeEntry(id, count);
    uint32_t carry_age = 0;
    uint32_t slot = Hash(EntryId(carry)) & mask_;
    if (stats != nullptr) stats->Add(&stats->upserts);
    for (uint32_t probes = 0; probes <= mask_; ++probes) {
      if (stats != nullptr) stats->Add(&stats->probes);
      const uint64_t cur = slots_[slot];
      if (cur == kEmpty) {
        slots_[slot] = carry;
        return true;
      }
      if (EntryId(cur) == EntryId(carry)) {
        if (EntryCount(cur) < EntryCount(carry)) slots_[slot] = carry;
        return true;
      }
      if (allow_expired_overwrite && EntryCount(cur) < expire_below) {
        slots_[slot] = carry;
        if (stats != nullptr) stats->Add(&stats->expired_overwrites);
        return true;
      }
      const uint32_t cur_age = ProbeDistance(EntryId(cur), slot);
      if (cur_age < carry_age) {
        slots_[slot] = carry;
        if (stats != nullptr) stats->Add(&stats->displacements);
        carry = cur;
        carry_age = cur_age;
      }
      slot = (slot + 1) & mask_;
      ++carry_age;
    }
    if (stats != nullptr) stats->Add(&stats->overflows);
    return false;
  }

  /// Probe distance ("age") of a key if it were resident at `slot`.
  uint32_t ProbeDistance(ObjectId id, uint32_t slot) const {
    return (slot - (Hash(id) & mask_)) & mask_;
  }

  static uint32_t Hash(ObjectId id) {
    return static_cast<uint32_t>(bit_util::Mix64(id));
  }

 private:
  uint64_t* slots_ = nullptr;
  uint32_t mask_ = 0;
};

}  // namespace genie
