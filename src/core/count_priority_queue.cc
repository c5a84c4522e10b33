#include "core/count_priority_queue.h"

#include <algorithm>
#include <unordered_map>

namespace genie {

std::vector<uint32_t> ExcludedMask::Build(std::span<const ObjectId> ids,
                                          uint32_t num_objects) {
  std::vector<uint32_t> words(WordsRequired(num_objects), 0);
  for (const ObjectId id : ids) {
    if (id < num_objects) words[id >> 5] |= 1u << (id & 31);
  }
  return words;
}

CpqLayout CpqLayout::Make(uint32_t num_objects, uint32_t k,
                          uint32_t max_count, uint32_t ht_slack,
                          uint32_t ht_capacity_cap) {
  GENIE_CHECK(k >= 1);
  GENIE_CHECK(max_count >= 1);
  CpqLayout layout;
  layout.num_objects = num_objects;
  layout.k = k;
  layout.max_count = max_count;
  layout.counter_bits = BitmapCounterView::ChooseBits(max_count);
  layout.bitmap_words =
      BitmapCounterView::WordsRequired(num_objects, layout.counter_bits);
  layout.zipper_entries = GateView::ZipperEntries(max_count);
  layout.ht_capacity =
      CpqHashTableView::CapacityFor(k, max_count, num_objects, ht_slack);
  if (ht_capacity_cap != 0) {
    layout.ht_capacity = std::min<uint32_t>(
        layout.ht_capacity,
        static_cast<uint32_t>(bit_util::NextPow2(ht_capacity_cap)));
  }
  return layout;
}

QueryResult ExtractTopK(const CpqView& cpq) {
  const uint32_t threshold = cpq.gate().SelectThreshold();
  const CpqHashTableView& ht = cpq.table();

  // Combine duplicate keys (possible under concurrent displacement) by max.
  std::unordered_map<ObjectId, uint32_t> best;
  for (uint32_t i = 0; i < ht.capacity(); ++i) {
    const uint64_t e = ht.LoadSlot(i);
    if (e == CpqHashTableView::kEmpty) continue;
    const uint32_t count = CpqHashTableView::EntryCount(e);
    if (count < threshold) continue;  // expired, cannot be top-k
    auto [it, inserted] =
        best.emplace(CpqHashTableView::EntryId(e), count);
    if (!inserted && it->second < count) it->second = count;
  }

  QueryResult result;
  result.entries.reserve(best.size());
  for (const auto& [id, count] : best) {
    result.entries.push_back(TopKEntry{id, count});
  }
  std::sort(result.entries.begin(), result.entries.end(),
            [](const TopKEntry& a, const TopKEntry& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.id < b.id;  // deterministic tie order
            });
  const uint32_t k = cpq.gate().k();
  if (result.entries.size() > k) result.entries.resize(k);
  // A full cut's k-th count is AT - 1 (Theorem 3.1).
  result.threshold = TopKThreshold(result.entries, k);
  return result;
}

CpqHostStorage::CpqHostStorage(uint32_t num_objects, uint32_t k,
                               uint32_t max_count, uint32_t ht_slack,
                               bool robin_hood_expire)
    : layout_(CpqLayout::Make(num_objects, k, max_count, ht_slack)),
      bitmap_words_(layout_.bitmap_words, 0),
      zipper_(layout_.zipper_entries, 0),
      slots_(layout_.ht_capacity, CpqHashTableView::kEmpty) {
  view_ = CpqView(
      BitmapCounterView(bitmap_words_.data(), layout_.counter_bits,
                        max_count),
      GateView(zipper_.data(), &audit_threshold_, k, max_count),
      CpqHashTableView(slots_.data(), layout_.ht_capacity),
      robin_hood_expire);
}

}  // namespace genie
