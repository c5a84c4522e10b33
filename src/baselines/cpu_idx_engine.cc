#include "baselines/cpu_idx_engine.h"

#include <algorithm>

#include "core/count_table.h"

namespace genie {
namespace baselines {

CpuIdxEngine::CpuIdxEngine(const InvertedIndex* index,
                           const CpuIdxOptions& options)
    : index_(index), options_(options) {
  counts_.assign(index_->num_objects(), 0);
}

Result<std::unique_ptr<CpuIdxEngine>> CpuIdxEngine::Create(
    const InvertedIndex* index, const CpuIdxOptions& options) {
  if (index == nullptr) return Status::InvalidArgument("index is null");
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  return std::unique_ptr<CpuIdxEngine>(new CpuIdxEngine(index, options));
}

Result<std::vector<QueryResult>> CpuIdxEngine::ExecuteBatch(
    std::span<const Query> queries) {
  std::vector<QueryResult> results(queries.size());
  const auto postings = index_->postings();
  for (size_t q = 0; q < queries.size(); ++q) {
    touched_.clear();
    const Query& query = queries[q];
    for (uint32_t i = 0; i < query.num_items(); ++i) {
      for (Keyword kw : query.item(i)) {
        auto [first, count] = index_->KeywordLists(kw);
        for (uint32_t l = 0; l < count; ++l) {
          const auto ref = index_->List(first + l);
          for (uint32_t pos = ref.begin; pos < ref.end; ++pos) {
            const ObjectId oid = postings[pos];
            if (counts_[oid] == 0) touched_.push_back(oid);
            ++counts_[oid];
          }
        }
      }
    }
    // Partial selection over the touched objects only.
    auto better = [&](ObjectId a, ObjectId b) {
      if (counts_[a] != counts_[b]) return counts_[a] > counts_[b];
      return a < b;
    };
    if (touched_.size() > options_.k) {
      std::nth_element(touched_.begin(), touched_.begin() + options_.k,
                       touched_.end(), better);
      touched_.resize(options_.k);
    }
    std::sort(touched_.begin(), touched_.end(), better);
    results[q].entries.reserve(touched_.size());
    for (ObjectId id : touched_) {
      results[q].entries.push_back({id, counts_[id]});
    }
    results[q].threshold = TopKThreshold(results[q].entries, options_.k);
    // Reset the count array for the next query.
    for (uint32_t i = 0; i < query.num_items(); ++i) {
      for (Keyword kw : query.item(i)) {
        auto [first, count] = index_->KeywordLists(kw);
        for (uint32_t l = 0; l < count; ++l) {
          const auto ref = index_->List(first + l);
          for (uint32_t pos = ref.begin; pos < ref.end; ++pos) {
            counts_[postings[pos]] = 0;
          }
        }
      }
    }
  }
  return results;
}

}  // namespace baselines
}  // namespace genie
