/// Multiple loading (Section III-D): PartitionedEngine with every part
/// swapped through one device per batch.

#include "core/partitioned_engine.h"

#include <gtest/gtest.h>

#include "index/index_builder.h"
#include "test_util.h"

namespace genie {
namespace {

/// Splits a workload's objects into `parts` contiguous shards and builds a
/// local-id index per shard.
std::vector<InvertedIndex> Shard(const InvertedIndex& full, uint32_t parts,
                                 std::vector<ObjectId>* offsets) {
  const uint32_t n = full.num_objects();
  const uint32_t per = (n + parts - 1) / parts;
  std::vector<InvertedIndexBuilder> builders;
  for (uint32_t p = 0; p < parts; ++p) builders.emplace_back(full.vocab_size());
  for (Keyword kw = 0; kw < full.vocab_size(); ++kw) {
    auto [first, count] = full.KeywordLists(kw);
    for (uint32_t l = 0; l < count; ++l) {
      const auto ref = full.List(first + l);
      for (uint32_t pos = ref.begin; pos < ref.end; ++pos) {
        const ObjectId oid = full.postings()[pos];
        builders[oid / per].Add(oid % per, kw);
      }
    }
  }
  std::vector<InvertedIndex> shards;
  offsets->clear();
  for (uint32_t p = 0; p < parts; ++p) {
    shards.push_back(std::move(builders[p]).Build().ValueOrDie());
    offsets->push_back(p * per);
  }
  return shards;
}

TEST(MultiLoadEngineTest, CreateRejectsBadParts) {
  MatchEngineOptions options;
  options.device = test::SharedTestDevice(4);
  EXPECT_FALSE(PartitionedEngine::Create({}, options).ok());
  EXPECT_FALSE(
      PartitionedEngine::Create({IndexPart{nullptr, 0}}, options).ok());
  // A placement needs a device set to name devices of.
  auto workload = test::MakeRandomWorkload(100, 10, 4, 1, 2, 30);
  const uint32_t placement[] = {0};
  EXPECT_FALSE(PartitionedEngine::Create({IndexPart{&workload.index, 0}},
                                         options, nullptr, placement)
                   .ok());
}

TEST(MultiLoadEngineTest, MergedResultEqualsSingleEngine) {
  auto workload = test::MakeRandomWorkload(900, 80, 8, 12, 6, 31);
  std::vector<ObjectId> offsets;
  auto shards = Shard(workload.index, 3, &offsets);

  MatchEngineOptions options;
  options.k = 15;
  options.device = test::SharedTestDevice(4);
  // The derived count bound differs per shard batch; pin it globally so
  // thresholds match across parts.
  options.max_count = MatchEngine::DeriveMaxCount(workload.queries);

  std::vector<IndexPart> parts;
  for (size_t p = 0; p < shards.size(); ++p) {
    parts.push_back(IndexPart{&shards[p], offsets[p]});
  }
  auto multi = PartitionedEngine::Create(parts, options);
  ASSERT_TRUE(multi.ok());
  EXPECT_TRUE((*multi)->swapped());
  EXPECT_EQ((*multi)->num_parts(), 3u);
  EXPECT_EQ((*multi)->num_devices(), 1u);
  auto merged = (*multi)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(merged.ok());

  auto single = MatchEngine::Create(&workload.index, options);
  ASSERT_TRUE(single.ok());
  auto reference = (*single)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(reference.ok());

  ASSERT_EQ(merged->size(), reference->size());
  for (size_t q = 0; q < merged->size(); ++q) {
    EXPECT_EQ(test::EntryCountMultiset((*merged)[q]),
              test::EntryCountMultiset((*reference)[q]))
        << "query " << q;
  }
}

TEST(MultiLoadEngineTest, GlobalIdsMappedThroughOffsets) {
  auto workload = test::MakeRandomWorkload(400, 40, 6, 6, 5, 32);
  std::vector<ObjectId> offsets;
  auto shards = Shard(workload.index, 4, &offsets);
  MatchEngineOptions options;
  options.k = 10;
  options.device = test::SharedTestDevice(4);
  options.max_count = MatchEngine::DeriveMaxCount(workload.queries);
  std::vector<IndexPart> parts;
  for (size_t p = 0; p < shards.size(); ++p) {
    parts.push_back(IndexPart{&shards[p], offsets[p]});
  }
  auto multi = PartitionedEngine::Create(parts, options);
  ASSERT_TRUE(multi.ok());
  auto results = (*multi)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(results.ok());
  for (size_t q = 0; q < results->size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    for (const TopKEntry& e : (*results)[q].entries) {
      ASSERT_LT(e.id, workload.index.num_objects());
      EXPECT_EQ(e.count, counts[e.id]) << "query " << q;
    }
  }
}

TEST(MultiLoadEngineTest, WorksWhenDeviceFitsOnlyOnePart) {
  // A device too small for the whole index but large enough per part: the
  // single-engine path must fail, multiple loading must succeed.
  auto workload = test::MakeRandomWorkload(4000, 30, 8, 4, 4, 33);
  sim::Device::Options small;
  small.num_workers = 4;
  small.memory_capacity_bytes = 120 << 10;  // 120 KiB
  sim::Device device(small);

  MatchEngineOptions options;
  options.k = 5;
  options.device = &device;
  options.max_count = MatchEngine::DeriveMaxCount(workload.queries);
  ASSERT_FALSE(MatchEngine::Create(&workload.index, options).ok());

  std::vector<ObjectId> offsets;
  auto shards = Shard(workload.index, 8, &offsets);
  std::vector<IndexPart> parts;
  for (size_t p = 0; p < shards.size(); ++p) {
    parts.push_back(IndexPart{&shards[p], offsets[p]});
  }
  auto multi = PartitionedEngine::Create(parts, options);
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(device.allocated_bytes(), 0u);  // nothing resident between batches
  auto results = (*multi)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  for (size_t q = 0; q < results->size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::TopKCountMultiset(counts, 5));
  }
  EXPECT_EQ(device.allocated_bytes(), 0u);  // everything swapped back out

  // The prepare stage of swapped parts is host-only: it touches no device
  // memory, and the staged batch answers like the unstaged one.
  auto staged = (*multi)->Prepare(workload.queries);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  EXPECT_EQ(device.allocated_bytes(), 0u);
  auto staged_results = (*multi)->ExecuteStaged(std::move(*staged));
  ASSERT_TRUE(staged_results.ok()) << staged_results.status().ToString();
  for (size_t q = 0; q < results->size(); ++q) {
    EXPECT_EQ((*staged_results)[q].entries, (*results)[q].entries);
    EXPECT_EQ((*staged_results)[q].threshold, (*results)[q].threshold);
  }
  EXPECT_EQ(device.allocated_bytes(), 0u);
}

TEST(MultiLoadEngineTest, ProfileAccumulatesAcrossParts) {
  auto workload = test::MakeRandomWorkload(600, 50, 6, 4, 4, 34);
  std::vector<ObjectId> offsets;
  auto shards = Shard(workload.index, 3, &offsets);
  MatchEngineOptions options;
  options.k = 5;
  options.device = test::SharedTestDevice(4);
  std::vector<IndexPart> parts;
  for (size_t p = 0; p < shards.size(); ++p) {
    parts.push_back(IndexPart{&shards[p], offsets[p]});
  }
  auto multi = PartitionedEngine::Create(parts, options);
  ASSERT_TRUE(multi.ok());
  // Nothing moves before the first batch: parts are swapped in per batch.
  EXPECT_EQ((*multi)->profile().Combined().index_bytes, 0u);
  ASSERT_TRUE((*multi)->ExecuteBatch(workload.queries).ok());
  const PartitionedProfile first = (*multi)->profile();
  ASSERT_EQ(first.per_device.size(), 1u);  // the one base device
  EXPECT_GT(first.Combined().index_transfer_s, 0.0);
  EXPECT_EQ(first.Combined().index_bytes, workload.index.postings_bytes());
  EXPECT_GE(first.merge_s, 0.0);
  // Index transfer counts every swap-in: a second batch moves every part
  // again.
  ASSERT_TRUE((*multi)->ExecuteBatch(workload.queries).ok());
  EXPECT_EQ((*multi)->profile().Combined().index_bytes,
            2 * first.Combined().index_bytes);
}

}  // namespace
}  // namespace genie
