#include "core/count_priority_queue.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"

namespace genie {
namespace {

/// Feeds a stream of object-id observations through Algorithm 1.
void Feed(CpqView* cpq, const std::vector<ObjectId>& stream) {
  for (ObjectId oid : stream) {
    ASSERT_TRUE(cpq->Update(oid));
  }
}

/// The example of Section III-C1 run literally: data of Fig. 1, query Q1,
/// k = 1, postings scanned in the order (A,[1,2]), (B,[1,1]), (C,[2,3]).
TEST(CpqTest, PaperExample31) {
  CpqHostStorage storage(/*num_objects=*/3, /*k=*/1, /*max_count=*/3);
  CpqView cpq = storage.view();
  // (A,[1,2]) matches O1, O2, O3; (B,[1,1]) matches O2; (C,[2,3]) matches
  // O2 and O3 (object ids 0-based here).
  Feed(&cpq, {0, 1, 2});  // after this: AT moved 1 -> 2, HT(O1)=1
  EXPECT_EQ(cpq.gate().audit_threshold(), 2u);
  Feed(&cpq, {1});        // BC(O2)=2 >= AT: HT(O2)=2, ZA[2]=1, AT=3
  EXPECT_EQ(cpq.gate().audit_threshold(), 3u);
  Feed(&cpq, {1, 2});     // BC(O2)=3 >= AT: HT(O2)=3, AT=4; BC(O3)=2 < AT
  EXPECT_EQ(cpq.gate().audit_threshold(), 4u);

  // Theorem 3.1: MC_1 = AT - 1 = 3, and the top-1 is O2 with count 3.
  const QueryResult result = ExtractTopK(cpq);
  EXPECT_EQ(result.threshold, 3u);
  ASSERT_EQ(result.entries.size(), 1u);
  EXPECT_EQ(result.entries[0].id, 1u);
  EXPECT_EQ(result.entries[0].count, 3u);
}

TEST(CpqTest, EmptyStreamYieldsNothing) {
  CpqHostStorage storage(10, 3, 4);
  CpqView cpq = storage.view();
  const QueryResult result = ExtractTopK(cpq);
  EXPECT_TRUE(result.entries.empty());
  EXPECT_EQ(result.threshold, 0u);
}

TEST(CpqTest, FewerMatchesThanK) {
  CpqHostStorage storage(10, 5, 4);
  CpqView cpq = storage.view();
  Feed(&cpq, {1, 1, 7});
  const QueryResult result = ExtractTopK(cpq);
  ASSERT_EQ(result.entries.size(), 2u);
  EXPECT_EQ(result.entries[0].id, 1u);
  EXPECT_EQ(result.entries[0].count, 2u);
  EXPECT_EQ(result.entries[1].id, 7u);
  EXPECT_EQ(result.entries[1].count, 1u);
}

TEST(CpqTest, SingleObjectDataset) {
  CpqHostStorage storage(1, 1, 8);
  CpqView cpq = storage.view();
  Feed(&cpq, {0, 0, 0});
  const QueryResult result = ExtractTopK(cpq);
  ASSERT_EQ(result.entries.size(), 1u);
  EXPECT_EQ(result.entries[0].count, 3u);
  EXPECT_EQ(result.threshold, 3u);
}

TEST(CpqTest, OneBitCounters) {
  // max_count = 1 forces the narrowest bitmap (edge case).
  CpqHostStorage storage(64, 3, 1);
  CpqView cpq = storage.view();
  Feed(&cpq, {5, 9, 13, 21});
  const QueryResult result = ExtractTopK(cpq);
  EXPECT_EQ(result.entries.size(), 3u);
  EXPECT_EQ(result.threshold, 1u);
  for (const auto& e : result.entries) EXPECT_EQ(e.count, 1u);
}

struct CpqPropertyParams {
  uint32_t num_objects;
  uint32_t k;
  uint32_t max_count;
  uint64_t seed;
};

class CpqPropertyTest : public ::testing::TestWithParam<CpqPropertyParams> {};

/// Theorem 3.1 as a property: for random observation streams, (1) the k-th
/// match count equals AT - 1, (2) the hash table holds every object whose
/// count strictly exceeds AT - 1, (3) the extracted top-k count multiset
/// matches brute force.
TEST_P(CpqPropertyTest, Theorem31HoldsOnRandomStreams) {
  const auto p = GetParam();
  Rng rng(p.seed);
  CpqHostStorage storage(p.num_objects, p.k, p.max_count);
  CpqView cpq = storage.view();

  std::vector<uint32_t> truth(p.num_objects, 0);
  // Build a stream where no object exceeds max_count.
  const uint32_t observations = p.num_objects * 3;
  std::vector<ObjectId> stream;
  for (uint32_t i = 0; i < observations; ++i) {
    const ObjectId oid =
        static_cast<ObjectId>(rng.UniformU64(p.num_objects));
    if (truth[oid] >= p.max_count) continue;
    ++truth[oid];
    stream.push_back(oid);
  }
  Feed(&cpq, stream);

  std::vector<uint32_t> sorted(truth);
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const uint32_t matched =
      static_cast<uint32_t>(std::count_if(truth.begin(), truth.end(),
                                          [](uint32_t c) { return c > 0; }));

  const QueryResult result = ExtractTopK(cpq);
  if (matched >= p.k) {
    // (1) MC_k = AT - 1.
    EXPECT_EQ(result.threshold, sorted[p.k - 1]);
    EXPECT_EQ(cpq.gate().audit_threshold() - 1, sorted[p.k - 1]);
    ASSERT_EQ(result.entries.size(), p.k);
  } else {
    EXPECT_EQ(result.entries.size(), matched);
  }
  // (3) top-k count multiset matches brute force.
  for (size_t i = 0; i < result.entries.size(); ++i) {
    EXPECT_EQ(result.entries[i].count, sorted[i]) << "rank " << i;
  }
  // (2) entries report exact counts.
  for (const auto& e : result.entries) {
    EXPECT_EQ(e.count, truth[e.id]) << "object " << e.id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CpqPropertyTest,
    ::testing::Values(CpqPropertyParams{100, 1, 4, 1},
                      CpqPropertyParams{100, 10, 4, 2},
                      CpqPropertyParams{1000, 10, 16, 3},
                      CpqPropertyParams{1000, 100, 8, 4},
                      CpqPropertyParams{5000, 50, 32, 5},
                      CpqPropertyParams{37, 5, 3, 6},
                      CpqPropertyParams{64, 64, 7, 7},
                      CpqPropertyParams{2000, 1, 64, 8}));

TEST(CpqTest, ConcurrentUpdatesMatchBruteForce) {
  // The multi-threaded version of Theorem 3.1: 8 threads feed disjoint
  // slices of the same stream.
  const uint32_t n = 2000, k = 25, max_count = 32;
  Rng rng(42);
  std::vector<uint32_t> truth(n, 0);
  std::vector<ObjectId> stream;
  for (uint32_t i = 0; i < n * 4; ++i) {
    const ObjectId oid = static_cast<ObjectId>(rng.UniformU64(n));
    if (truth[oid] >= max_count) continue;
    ++truth[oid];
    stream.push_back(oid);
  }
  CpqHostStorage storage(n, k, max_count);
  CpqView cpq = storage.view();
  const int threads = 8;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < stream.size(); i += threads) {
        ASSERT_TRUE(cpq.Update(stream[i]));
      }
    });
  }
  for (auto& w : workers) w.join();

  std::vector<uint32_t> sorted(truth);
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const QueryResult result = ExtractTopK(cpq);
  ASSERT_EQ(result.entries.size(), k);
  EXPECT_EQ(result.threshold, sorted[k - 1]);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_EQ(result.entries[i].count, sorted[i]) << "rank " << i;
    EXPECT_EQ(result.entries[i].count, truth[result.entries[i].id]);
  }
}

/// A posting stream shaped like one query's inverted lists: 48 sorted
/// lists, each a run of mostly ascending ids with back-to-back repeats, so
/// neighbouring lanes share counter words. Ids [0, 16) are in every list,
/// each 1-12 times, so their counts run well past a cap of 200.
std::vector<ObjectId> ListShapedStream(uint32_t num_objects, uint64_t seed) {
  Rng rng(seed);
  std::vector<ObjectId> stream;
  for (uint32_t list = 0; list < 48; ++list) {
    std::vector<ObjectId> ids;
    for (ObjectId hot = 0; hot < 16; ++hot) {
      const uint64_t repeats = 1 + rng.UniformU64(12);
      for (uint64_t r = 0; r < repeats; ++r) ids.push_back(hot);
    }
    ObjectId id = static_cast<ObjectId>(rng.UniformU64(num_objects));
    const uint64_t length = 64 + rng.UniformU64(512);
    for (uint64_t i = 0; i < length && id < num_objects; ++i) {
      ids.push_back(id);
      id += static_cast<ObjectId>(rng.UniformU64(3));  // 0 repeats the id
    }
    std::sort(ids.begin(), ids.end());
    stream.insert(stream.end(), ids.begin(), ids.end());
  }
  return stream;
}

struct UpdateBatchParams {
  uint32_t max_count;  // 15: packed 4-bit counters; 200: 8-bit, direct
  bool exclusive;      // single-writer branch vs the shared (atomic) one
  bool masked;         // with an ExcludedMask
};

class CpqUpdateBatchTest
    : public ::testing::TestWithParam<UpdateBatchParams> {};

/// UpdateBatch must leave the c-PQ exactly as the same postings fed one at
/// a time through Update: bitmap words, ZipperArray, AT, every hash-table
/// slot and the probe statistics. k is small, so AT rises inside batches
/// and a lane that passes the batch's first AT read can still fail its
/// in-order check; the hot ids saturate their counters.
TEST_P(CpqUpdateBatchTest, MatchesSequentialUpdate) {
  const UpdateBatchParams p = GetParam();
  const uint32_t num_objects = 3000, k = 4;
  const std::vector<ObjectId> stream = ListShapedStream(num_objects, 17);
  // Id 0 must hit its cap, so saturated lanes show up inside batches.
  ASSERT_GT(static_cast<uint32_t>(
                std::count(stream.begin(), stream.end(), ObjectId{0})),
            p.max_count + 8);
  std::vector<ObjectId> excluded;
  for (ObjectId id = 3; id < num_objects; id += 7) excluded.push_back(id);
  const std::vector<uint32_t> mask_words =
      ExcludedMask::Build(excluded, num_objects);
  const ExcludedMask mask =
      p.masked ? ExcludedMask(mask_words.data()) : ExcludedMask();
  const auto with_mask = [&](CpqView view) {
    return CpqView(view.bitmap(), view.gate(), view.table(),
                   /*robin_hood_expire=*/true, mask);
  };

  CpqHostStorage ref_storage(num_objects, k, p.max_count);
  CpqView ref = with_mask(ref_storage.view());
  HashTableStats ref_stats;
  for (const ObjectId oid : stream) {
    ASSERT_TRUE(ref.Update(oid, &ref_stats));
  }
  const CpqLayout& layout = ref_storage.layout();
  const auto words = [&](const CpqView& view) {
    const uint32_t* first = view.bitmap().SimdParams().words;
    return std::vector<uint32_t>(first, first + layout.bitmap_words);
  };
  const auto zipper = [&](const CpqView& view) {
    std::vector<uint32_t> za;
    for (uint32_t v = 1; v <= p.max_count + 1; ++v) {
      za.push_back(view.gate().zipper(v));
    }
    return za;
  };
  const auto slots = [&](const CpqView& view) {
    std::vector<uint64_t> all;
    for (uint32_t i = 0; i < view.table().capacity(); ++i) {
      all.push_back(view.table().LoadSlot(i));
    }
    return all;
  };
  EXPECT_EQ(ref.bitmap().Get(0), p.max_count);

  for (const simd::Arch arch :
       {simd::Arch::kScalar, simd::BestSupportedArch()}) {
    SCOPED_TRACE(simd::ArchName(arch));
    const simd::Ops& ops = simd::OpsForArch(arch);
    CpqHostStorage got_storage(num_objects, k, p.max_count);
    CpqView got = with_mask(got_storage.view());
    HashTableStats got_stats;
    std::vector<uint32_t> vals(256);
    uint32_t batches_raising_at = 0;
    size_t pos = 0;
    for (size_t call = 0; pos < stream.size(); ++call) {
      constexpr uint32_t kSizes[] = {1, 7, 8, 9, 64, 255, 256, 3, 100};
      const uint32_t len = static_cast<uint32_t>(std::min<size_t>(
          kSizes[call % std::size(kSizes)], stream.size() - pos));
      const uint32_t at_before = got.gate().audit_threshold();
      const bool ok =
          p.masked ? got.UpdateBatch<true>(ops, stream.data() + pos, len,
                                           vals.data(), &got_stats,
                                           p.exclusive)
                   : got.UpdateBatch<false>(ops, stream.data() + pos, len,
                                            vals.data(), &got_stats,
                                            p.exclusive);
      ASSERT_TRUE(ok);
      if (len > 1 && got.gate().audit_threshold() > at_before) {
        ++batches_raising_at;
      }
      pos += len;
    }
    EXPECT_GT(batches_raising_at, 0u);
    EXPECT_EQ(words(ref), words(got));
    EXPECT_EQ(zipper(ref), zipper(got));
    EXPECT_EQ(ref.gate().audit_threshold(), got.gate().audit_threshold());
    EXPECT_EQ(slots(ref), slots(got));
    EXPECT_EQ(ref_stats.upserts, got_stats.upserts);
    EXPECT_EQ(ref_stats.probes, got_stats.probes);
    EXPECT_EQ(ref_stats.displacements, got_stats.displacements);
    EXPECT_EQ(ref_stats.expired_overwrites, got_stats.expired_overwrites);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Branches, CpqUpdateBatchTest,
    ::testing::Values(UpdateBatchParams{15, true, false},
                      UpdateBatchParams{15, true, true},
                      UpdateBatchParams{15, false, false},
                      UpdateBatchParams{15, false, true},
                      UpdateBatchParams{200, true, false},
                      UpdateBatchParams{200, true, true},
                      UpdateBatchParams{200, false, false},
                      UpdateBatchParams{200, false, true}),
    [](const ::testing::TestParamInfo<UpdateBatchParams>& info) {
      return "Bits" +
             std::to_string(BitmapCounterView::ChooseBits(
                 info.param.max_count)) +
             (info.param.exclusive ? "Exclusive" : "Shared") +
             (info.param.masked ? "Masked" : "Unmasked");
    });

TEST(CpqLayoutTest, DeviceBytesComposition) {
  const CpqLayout layout = CpqLayout::Make(1000, 10, 15, 4);
  EXPECT_EQ(layout.counter_bits, 4u);
  EXPECT_EQ(layout.bitmap_words, 125u);  // 1000 / 8 per word
  EXPECT_EQ(layout.zipper_entries, 17u);
  EXPECT_EQ(layout.DeviceBytes(),
            125 * 4 + 17 * 4 + 4 + uint64_t{layout.ht_capacity} * 8);
}

TEST(CpqLayoutTest, MuchSmallerThanCountTable) {
  // The paper's motivation: a count table for 10M objects needs 40 MB per
  // query; the c-PQ layout must be far below that.
  const CpqLayout layout = CpqLayout::Make(10'000'000, 100, 15, 4);
  EXPECT_LT(layout.DeviceBytes(), 10'000'000ull * 4 / 5);
}

}  // namespace
}  // namespace genie
