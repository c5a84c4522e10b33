#pragma once

/// \file query.h
/// The match-count model's query representation (Definition 2.1): a query
/// is a set of items; each item matches a set of keywords. The score of an
/// object is the total number of its postings covered by the query's items.

#include <cstdint>
#include <span>
#include <vector>

#include "index/types.h"

namespace genie {

/// A compiled query. Domain layers (relational ranges, LSH signatures,
/// n-grams, document words) lower themselves into this form.
class Query {
 public:
  Query() { item_offsets_.push_back(0); }

  /// Appends one item matching the given keywords.
  void AddItem(std::span<const Keyword> keywords);
  void AddItem(std::initializer_list<Keyword> keywords) {
    AddItem(std::span<const Keyword>(keywords.begin(), keywords.size()));
  }
  /// Appends a single-keyword item (the common case for LSH / SA data).
  void AddItem(Keyword keyword) { AddItem({&keyword, 1}); }

  uint32_t num_items() const {
    return static_cast<uint32_t>(item_offsets_.size() - 1);
  }
  std::span<const Keyword> item(uint32_t i) const {
    return std::span<const Keyword>(keywords_)
        .subspan(item_offsets_[i], item_offsets_[i + 1] - item_offsets_[i]);
  }
  size_t total_keywords() const { return keywords_.size(); }

 private:
  std::vector<Keyword> keywords_;
  std::vector<uint32_t> item_offsets_;
};

/// One ranked hit of a top-k result.
struct TopKEntry {
  ObjectId id = kInvalidObjectId;
  uint32_t count = 0;

  bool operator==(const TopKEntry&) const = default;
};

/// Result of one query: up to k entries, sorted by descending match count
/// (ties in unspecified order, as the paper breaks ties randomly).
struct QueryResult {
  std::vector<TopKEntry> entries;
  /// The match count of the k-th object, MC_k. For the c-PQ engine this is
  /// AT - 1 (Theorem 3.1); 0 when fewer than k objects matched. Every site
  /// that cuts a top-k fills it through TopKThreshold.
  uint32_t threshold = 0;
};

/// QueryResult::threshold of a cut sorted best first: the k-th entry's
/// count when the cut holds at least k entries, 0 when fewer than k objects
/// matched.
inline uint32_t TopKThreshold(std::span<const TopKEntry> entries,
                              uint32_t k) {
  return k > 0 && entries.size() >= k ? entries[k - 1].count : 0;
}

}  // namespace genie
