#pragma once

/// \file oracle.h
/// Answer oracle of the end-to-end benchmark: an independent host-side
/// recomputation of what every answer must be. The checks run after the
/// timed phase on stored answers and are tie-robust — they compare scores
/// and count profiles, never the id an engine picked among equal ones:
///
///   documents  each hit's match count (and score) equals the token overlap
///              with its document; on a sample, the sorted top-k count
///              profile equals the exhaustive one;
///   points     each hit's score equals -L2 recomputed from the raw data;
///   sequences  each hit's score equals -(edit distance) recomputed.
///
/// The exhaustive references count over HostPostings, a plain host-side
/// keyword -> objects map, so they do not share code with the engine's
/// index, kernels or selection.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "api/genie.h"
#include "data/points.h"
#include "index/vocabulary.h"
#include "sa/edit_distance.h"
#include "sa/ngram.h"

namespace genie {
namespace e2e {

inline std::vector<uint32_t> SortedUnique(std::vector<uint32_t> tokens) {
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

/// |a ∩ b| of two sorted duplicate-free lists.
inline uint32_t Overlap(const std::vector<uint32_t>& a,
                        const std::vector<uint32_t>& b) {
  uint32_t n = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

/// Keyword -> objects map over duplicate-free keyword lists; objects with
/// `live[id] == false` are left out.
class HostPostings {
 public:
  HostPostings(const std::vector<std::vector<uint32_t>>& objects,
               const std::vector<bool>& live = {}) {
    uint32_t vocab = 0;
    for (const auto& keywords : objects) {
      for (uint32_t kw : keywords) vocab = std::max(vocab, kw + 1);
    }
    lists_.resize(vocab);
    for (size_t id = 0; id < objects.size(); ++id) {
      if (!live.empty() && !live[id]) continue;
      for (uint32_t kw : objects[id]) {
        lists_[kw].push_back(static_cast<uint32_t>(id));
      }
    }
    counts_.assign(objects.size(), 0);
  }

  /// Match count of every object against `query` (duplicate-free), dense.
  /// The returned view is valid until the next call.
  const std::vector<uint32_t>& Counts(const std::vector<uint32_t>& query) {
    for (uint32_t id : touched_) counts_[id] = 0;
    touched_.clear();
    for (uint32_t kw : query) {
      if (kw >= lists_.size()) continue;
      for (uint32_t id : lists_[kw]) {
        if (counts_[id]++ == 0) touched_.push_back(id);
      }
    }
    return counts_;
  }

  /// The k largest positive counts, descending.
  std::vector<uint32_t> TopCounts(const std::vector<uint32_t>& query,
                                  uint32_t k) {
    Counts(query);
    std::vector<uint32_t> top;
    top.reserve(touched_.size());
    for (uint32_t id : touched_) top.push_back(counts_[id]);
    std::sort(top.begin(), top.end(), std::greater<>());
    if (top.size() > k) top.resize(k);
    return top;
  }

 private:
  std::vector<std::vector<uint32_t>> lists_;
  std::vector<uint32_t> counts_;
  std::vector<uint32_t> touched_;
};

/// Documents: the hit's match count and score equal the overlap.
inline bool DocumentHitCorrect(const std::vector<uint32_t>& query_tokens,
                               const std::vector<uint32_t>& doc_tokens,
                               const Hit& hit) {
  const uint32_t overlap = Overlap(query_tokens, doc_tokens);
  return hit.match_count == overlap &&
         hit.score == static_cast<double>(overlap);
}

/// Sorted (descending) match counts of an answer.
inline std::vector<uint32_t> CountProfile(const QueryHits& answer) {
  std::vector<uint32_t> counts;
  for (const Hit& hit : answer.hits) counts.push_back(hit.match_count);
  std::sort(counts.begin(), counts.end(), std::greater<>());
  return counts;
}

/// Share of the exact top-k multiset (`truth`, descending) that `got`
/// (descending) reproduces; 1 for an empty truth.
inline double ProfileRecall(const std::vector<uint32_t>& truth,
                            const std::vector<uint32_t>& got) {
  if (truth.empty()) return 1.0;
  size_t i = 0, j = 0, same = 0;
  while (i < truth.size() && j < got.size()) {
    if (truth[i] > got[j]) {
      ++i;
    } else if (got[j] > truth[i]) {
      ++j;
    } else {
      ++same;
      ++i;
      ++j;
    }
  }
  return static_cast<double>(same) / static_cast<double>(truth.size());
}

/// Points with ExactRerank: the score is the negated L2 distance.
inline bool PointHitCorrect(const data::PointMatrix& points,
                            std::span<const float> query, const Hit& hit) {
  if (hit.id >= points.num_points()) return false;
  const double expected = -data::L2Distance(points.row(hit.id), query);
  return std::fabs(hit.score - expected) <=
         1e-9 * std::max(1.0, std::fabs(expected));
}

/// Ordered n-gram keywords of `seq` under `vocab` (unknown grams dropped:
/// they match no object).
inline std::vector<uint32_t> NgramKeywords(const std::string& seq,
                                           const StringVocabulary& vocab,
                                           uint32_t ngram) {
  std::vector<uint32_t> keywords;
  for (const auto& gram : sa::OrderedNgrams(seq, ngram)) {
    const Keyword kw = vocab.Find(gram.ToToken());
    if (kw != kInvalidKeyword) keywords.push_back(kw);
  }
  return SortedUnique(std::move(keywords));
}

/// Exact minimum edit distance from `query` to any of `sequences`, given an
/// upper bound `bound` (the distance of some sequence). Candidates are
/// pruned with the count filter of Theorem 5.1 — a sequence within distance
/// tau shares at least max(|Q|,|S|) - n + 1 - tau*n ordered n-grams — and
/// verified with the banded DP, tightening tau on every improvement.
inline uint32_t MinEditDistance(const std::string& query,
                                const std::vector<std::string>& sequences,
                                HostPostings* postings,
                                const StringVocabulary& vocab, uint32_t ngram,
                                uint32_t bound) {
  if (bound == 0) return 0;
  const std::vector<uint32_t>& counts =
      postings->Counts(NgramKeywords(query, vocab, ngram));
  uint32_t best = bound;
  for (size_t id = 0; id < sequences.size() && best > 0; ++id) {
    const uint32_t tau = best - 1;
    const int64_t lower = sa::CountLowerBound(query.size(),
                                              sequences[id].size(), ngram, tau);
    if (lower > 0 && static_cast<int64_t>(counts[id]) < lower) continue;
    const uint32_t d = sa::BandedEditDistance(query, sequences[id], tau);
    if (d <= tau) best = d;
  }
  return best;
}

}  // namespace e2e
}  // namespace genie
