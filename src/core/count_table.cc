#include "core/count_table.h"

#include <algorithm>
#include <numeric>
#include <vector>

namespace genie {

QueryResult ExtractTopKFromCounts(const uint32_t* counts, uint32_t n,
                                  uint32_t k) {
  QueryResult result;
  std::vector<ObjectId> ids;
  ids.reserve(n);
  for (ObjectId i = 0; i < n; ++i) {
    if (counts[i] > 0) ids.push_back(i);
  }
  auto better = [&](ObjectId a, ObjectId b) {
    if (counts[a] != counts[b]) return counts[a] > counts[b];
    return a < b;
  };
  if (ids.size() > k) {
    std::nth_element(ids.begin(), ids.begin() + k, ids.end(), better);
    ids.resize(k);
  }
  std::sort(ids.begin(), ids.end(), better);
  result.entries.reserve(ids.size());
  for (ObjectId id : ids) result.entries.push_back({id, counts[id]});
  result.threshold = TopKThreshold(result.entries, k);
  return result;
}

}  // namespace genie
