#pragma once

/// Shared helpers for facade-level (api/) tests: the top-k answer-equality
/// contract, the GENIE_TEST_NUM_DEVICES-aware device sweep, and a latch
/// for parking threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <future>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "api/types.h"

namespace genie {
namespace test {

/// Device-count ceiling for sweeps. Default 2 keeps the everyday suite
/// light; CI pins GENIE_TEST_NUM_DEVICES=4 to sweep the wider fan-out
/// (incl. under ASan/UBSan).
inline uint32_t MaxTestDevices() {
  const char* env = std::getenv("GENIE_TEST_NUM_DEVICES");
  if (env != nullptr) {
    const int v = std::atoi(env);
    if (v >= 1) return static_cast<uint32_t>(v);
  }
  return 2;
}

inline std::vector<uint32_t> DeviceSweep() {
  std::vector<uint32_t> sweep{1};
  for (uint32_t d = 2; d <= MaxTestDevices(); d *= 2) sweep.push_back(d);
  return sweep;
}

/// Shard-count ceiling for the remote (multi-node) sweeps. Default 4 so
/// the everyday suite covers the acceptance sweep {1, 2, 4}; CI may widen
/// with GENIE_TEST_NUM_SHARDS.
inline uint32_t MaxTestShards() {
  const char* env = std::getenv("GENIE_TEST_NUM_SHARDS");
  if (env != nullptr) {
    const int v = std::atoi(env);
    if (v >= 1) return static_cast<uint32_t>(v);
  }
  return 4;
}

inline std::vector<uint32_t> ShardSweep() {
  std::vector<uint32_t> sweep{1};
  for (uint32_t s = 2; s <= MaxTestShards(); s *= 2) sweep.push_back(s);
  return sweep;
}

/// Equality of everything the match-count model determines uniquely:
/// per-query count profiles, MC_k thresholds, and the identity + score of
/// every hit strictly above the threshold. Ties at count == MC_k are kept
/// arrival-order-dependently by the c-PQ (Theorem 3.1 returns *a* top-k;
/// which tied objects fill the last slots depends on block scheduling,
/// even between two runs on one device), so boundary ids are exempt.
inline void ExpectSameAnswers(const SearchResult& got,
                              const SearchResult& want,
                              const std::string& label) {
  ASSERT_EQ(got.queries.size(), want.queries.size()) << label;
  for (size_t q = 0; q < want.queries.size(); ++q) {
    const QueryHits& g = got.queries[q];
    const QueryHits& w = want.queries[q];
    EXPECT_EQ(g.threshold, w.threshold) << "query " << q << " " << label;
    ASSERT_EQ(g.hits.size(), w.hits.size()) << "query " << q << " " << label;

    auto counts_of = [](const QueryHits& hits) {
      std::vector<uint32_t> counts;
      for (const Hit& hit : hits.hits) counts.push_back(hit.match_count);
      std::sort(counts.begin(), counts.end(), std::greater<>());
      return counts;
    };
    EXPECT_EQ(counts_of(g), counts_of(w)) << "query " << q << " " << label;

    auto above_boundary = [](const QueryHits& hits) {
      std::map<ObjectId, std::pair<uint32_t, double>> above;
      for (const Hit& hit : hits.hits) {
        if (hit.match_count > hits.threshold) {
          above.emplace(hit.id, std::make_pair(hit.match_count, hit.score));
        }
      }
      return above;
    };
    const auto g_above = above_boundary(g);
    const auto w_above = above_boundary(w);
    ASSERT_EQ(g_above.size(), w_above.size()) << "query " << q << " " << label;
    for (const auto& [id, count_score] : w_above) {
      const auto it = g_above.find(id);
      ASSERT_NE(it, g_above.end())
          << "query " << q << " missing id " << id << " " << label;
      EXPECT_EQ(it->second.first, count_score.first)
          << "query " << q << " id " << id << " " << label;
      EXPECT_DOUBLE_EQ(it->second.second, count_score.second)
          << "query " << q << " id " << id << " " << label;
    }
  }
}

/// A gate that test threads park on until Release(). The destructor
/// releases it too, so a failed assertion cannot leave a thread parked:
/// declare it after every engine whose destructor waits for those threads.
class Latch {
 public:
  ~Latch() { Release(); }

  void Release() {
    if (!released_) {
      released_ = true;
      open_.set_value();
    }
  }

  /// Copyable handle for the parked threads.
  std::shared_future<void> gate() const { return gate_; }

 private:
  std::promise<void> open_;
  std::shared_future<void> gate_ = open_.get_future().share();
  bool released_ = false;
};

/// Polls `done` until it holds or `timeout` passes; returns its last value.
inline bool WaitUntil(const std::function<bool()>& done,
                      std::chrono::milliseconds timeout =
                          std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace test
}  // namespace genie
