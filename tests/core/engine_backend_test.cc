#include "core/engine_backend.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "index/delta/mutation_controller.h"
#include "test_util.h"

namespace genie {
namespace {

TEST(EngineBackendTest, SingleLoadWhenIndexFits) {
  auto workload = test::MakeRandomWorkload(800, 60, 6, 6, 5, 41);
  MatchEngineOptions options;
  options.k = 10;
  options.device = test::SharedTestDevice(4);
  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_FALSE((*backend)->multi_load());
  EXPECT_EQ((*backend)->num_parts(), 1u);

  auto results = (*backend)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(results.ok());
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::TopKCountMultiset(counts, 10));
  }
}

TEST(EngineBackendTest, FallsBackWhenIndexExceedsDeviceMemory) {
  auto workload = test::MakeRandomWorkload(4000, 30, 8, 4, 4, 42);
  sim::Device::Options small;
  small.num_workers = 4;
  small.memory_capacity_bytes = 120 << 10;
  sim::Device device(small);

  MatchEngineOptions options;
  options.k = 5;
  options.device = &device;
  options.max_count = MatchEngine::DeriveMaxCount(workload.queries);
  // Sanity: the single-load engine cannot be built at all.
  ASSERT_FALSE(MatchEngine::Create(&workload.index, options).ok());

  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_TRUE((*backend)->multi_load());
  EXPECT_GT((*backend)->num_parts(), 1u);

  auto results = (*backend)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::TopKCountMultiset(counts, 5));
  }
  EXPECT_EQ(device.allocated_bytes(), 0u);
  EXPECT_GT((*backend)->profile().index_transfer_s, 0.0);
}

TEST(EngineBackendTest, FallbackDisabledSurfacesResourceExhausted) {
  auto workload = test::MakeRandomWorkload(4000, 30, 8, 4, 4, 43);
  sim::Device::Options small;
  small.num_workers = 4;
  small.memory_capacity_bytes = 120 << 10;
  sim::Device device(small);

  MatchEngineOptions options;
  options.k = 5;
  options.device = &device;
  EngineBackendOptions backend_options;
  backend_options.allow_multi_load = false;
  auto backend =
      EngineBackend::Create(&workload.index, options, backend_options);
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineBackendTest, ForcePartsShardsEvenWhenIndexFits) {
  auto workload = test::MakeRandomWorkload(900, 50, 6, 5, 4, 44);
  MatchEngineOptions options;
  options.k = 8;
  options.device = test::SharedTestDevice(4);
  options.max_count = MatchEngine::DeriveMaxCount(workload.queries);
  EngineBackendOptions backend_options;
  backend_options.force_parts = 3;
  auto backend =
      EngineBackend::Create(&workload.index, options, backend_options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_TRUE((*backend)->multi_load());
  EXPECT_EQ((*backend)->num_parts(), 3u);

  auto results = (*backend)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(results.ok());
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::TopKCountMultiset(counts, 8));
  }
}

TEST(EngineBackendTest, RejectsEmptyBatchAndBadOptions) {
  auto workload = test::MakeRandomWorkload(200, 20, 4, 2, 3, 45);
  MatchEngineOptions options;
  options.k = 5;
  options.device = test::SharedTestDevice(4);
  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok());
  auto empty = (*backend)->ExecuteBatch({});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  EXPECT_FALSE(EngineBackend::Create(nullptr, options).ok());
  options.k = 0;
  EXPECT_FALSE(EngineBackend::Create(&workload.index, options).ok());
}

TEST(EngineBackendTest, PrepareThenExecuteMatchesExecuteBatch) {
  auto workload = test::MakeRandomWorkload(800, 60, 6, 12, 5, 45);
  MatchEngineOptions options;
  options.k = 7;
  options.device = test::SharedTestDevice(4);
  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();

  auto reference = (*backend)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(reference.ok());

  auto staged = (*backend)->Prepare(workload.queries);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  EXPECT_TRUE(staged->staged());
  auto results = (*backend)->Execute(std::move(*staged));
  ASSERT_TRUE(results.ok()) << results.status().ToString();

  ASSERT_EQ(results->size(), reference->size());
  for (size_t q = 0; q < reference->size(); ++q) {
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::EntryCountMultiset((*reference)[q]))
        << "query " << q;
    EXPECT_EQ((*results)[q].threshold, (*reference)[q].threshold);
  }
  // Prepare seconds surfaced through the aggregated profile.
  EXPECT_GT((*backend)->profile().prepare_s, 0.0);
}

TEST(EngineBackendTest, StagedEscalationReleasesRetiredIndexMemory) {
  // Regression: the staged chunk pins the single-load engine via a shared
  // reference. When its execution escalates to multiple loading, that pin
  // must be dropped before the fallback runs — otherwise the retired
  // engine's device-resident index (most of this device) stays allocated
  // and every part count fails. The sizes mirror the failure: the index
  // nearly fills the device, and the per-chunk hash-table arenas (which
  // do not shrink with the part count) exceed what remains beside it.
  auto workload = test::MakeRandomWorkload(20000, 5000, 8, 128, 8, 48);
  sim::Device::Options tight;
  tight.num_workers = 2;
  tight.memory_capacity_bytes =
      workload.index.postings_bytes() + (76 << 10);
  sim::Device device(tight);

  MatchEngineOptions options;
  options.k = 5;
  options.device = &device;
  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_FALSE((*backend)->multi_load());

  auto staged = (*backend)->Prepare(workload.queries);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  auto results = (*backend)->Execute(std::move(*staged));
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_TRUE((*backend)->multi_load());

  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::TopKCountMultiset(counts, 5))
        << "query " << q;
  }
  EXPECT_EQ(device.staging_bytes(), 0u);
}

TEST(EngineBackendTest, ExecuteDiscardsStaleChunkAfterTierEscalation) {
  // Stage a small chunk on the single-load tier, then force a mid-flight
  // escalation to multiple loading with a memory-hungry batch. Executing
  // the stale chunk must detect the tier switch, discard the staged work,
  // and still answer correctly through the new tier.
  const uint32_t kNumObjects = 3000;
  const uint32_t kVocab = 100;
  auto workload = test::MakeRandomWorkload(kNumObjects, kVocab, 8, 0, 0, 46);
  Rng rng(47);
  std::vector<Query> small_batch;
  for (uint32_t q = 0; q < 8; ++q) {
    Query query;
    query.AddItem(static_cast<Keyword>(rng.UniformU64(kVocab)));
    query.AddItem(static_cast<Keyword>(rng.UniformU64(kVocab)));
    small_batch.push_back(std::move(query));
  }
  std::vector<Query> big_batch;
  for (uint32_t q = 0; q < 8; ++q) {
    std::set<Keyword> keywords;
    while (keywords.size() < 48) {
      keywords.insert(static_cast<Keyword>(rng.UniformU64(kVocab)));
    }
    Query query;
    for (Keyword kw : keywords) query.AddItem(kw);
    big_batch.push_back(std::move(query));
  }

  MatchEngineOptions sizing;
  sizing.k = 5;
  const uint64_t per_small =
      MatchEngine::DeviceBytesPerQuery(kNumObjects, sizing, 2);
  const uint64_t per_big =
      MatchEngine::DeviceBytesPerQuery(kNumObjects, sizing, 48);
  sim::Device::Options capacity;
  capacity.num_workers = 4;
  capacity.memory_capacity_bytes =
      workload.index.postings_bytes() + 8 * (per_small + per_big) / 2;
  sim::Device device(capacity);

  MatchEngineOptions options;
  options.k = 5;
  options.device = &device;
  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_FALSE((*backend)->multi_load());

  auto staged = (*backend)->Prepare(small_batch);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  EXPECT_TRUE(staged->staged());

  // The big batch escalates the backend to multiple loading.
  auto big_results = (*backend)->ExecuteBatch(big_batch);
  ASSERT_TRUE(big_results.ok()) << big_results.status().ToString();
  EXPECT_TRUE((*backend)->multi_load());

  // The stale chunk still answers, via the new tier.
  auto results = (*backend)->Execute(std::move(*staged));
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  for (size_t q = 0; q < small_batch.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, small_batch[q]);
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::TopKCountMultiset(counts, 5))
        << "query " << q;
  }
  EXPECT_EQ(device.staging_bytes(), 0u);
}

TEST(EngineBackendTest, CpqOverflowPromotesSelectorThroughThePlanner) {
  // A workload that genuinely overflows the c-PQ hash table: k above the
  // matched-object count pins AT at 1 so every matched object is promoted,
  // and the capacity cap makes the resident set unfittable. With the
  // planner on, the overflow is recorded in the cost model, the re-plan
  // promotes the batch to the overflow-immune bucket selector, and the
  // batch succeeds on the still-resident single-load tier.
  auto workload = test::MakeRandomWorkload(3000, 10, 5, 2, 8, 51);
  MatchEngineOptions options;
  options.k = 4000;
  options.ht_slack = 1;
  options.ht_capacity_cap = 256;
  options.device = test::SharedTestDevice(4);

  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_EQ((*backend)->execution_plan().selector,
            MatchEngineOptions::Selector::kCpq);

  auto results = (*backend)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_GE((*backend)->cost_model_snapshot().cpq_overflows(), 1u);
  EXPECT_EQ((*backend)->execution_plan().selector,
            MatchEngineOptions::Selector::kBucketSelect);
  // Promotion kept the index resident: no multiple-loading detour.
  EXPECT_FALSE((*backend)->multi_load());
  EXPECT_NE((*backend)->ExplainPlan().find("selector=bucket-select"),
            std::string::npos)
      << (*backend)->ExplainPlan();

  // Answers equal an explicitly bucket-select-configured backend.
  MatchEngineOptions bucket_options = options;
  bucket_options.selector = MatchEngineOptions::Selector::kBucketSelect;
  auto reference = EngineBackend::Create(&workload.index, bucket_options);
  ASSERT_TRUE(reference.ok());
  auto want = (*reference)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(results->size(), want->size());
  for (size_t q = 0; q < want->size(); ++q) {
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::EntryCountMultiset((*want)[q]))
        << "query " << q;
    EXPECT_EQ((*results)[q].threshold, (*want)[q].threshold);
  }
}

TEST(EngineBackendTest, CpqOverflowSurfacesWhenPlannerIsOff) {
  // With the escalation ladder disabled (allow_multi_load = false) even a
  // c-PQ overflow climbs no rung: no re-plan promotes the selector, and the
  // overflow is a caller-visible ResourceExhausted.
  auto workload = test::MakeRandomWorkload(3000, 10, 5, 2, 8, 52);
  MatchEngineOptions options;
  options.k = 4000;
  options.ht_slack = 1;
  options.ht_capacity_cap = 256;
  options.device = test::SharedTestDevice(4);
  EngineBackendOptions backend_options;
  backend_options.allow_multi_load = false;

  auto backend =
      EngineBackend::Create(&workload.index, options, backend_options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  auto results = (*backend)->ExecuteBatch(workload.queries);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(MatchEngine::IsCpqOverflow(results.status()));
  EXPECT_EQ((*backend)->execution_plan().selector,
            MatchEngineOptions::Selector::kCpq);
  EXPECT_EQ((*backend)->cost_model_snapshot().cpq_overflows(), 0u);
}

TEST(EngineBackendTest, CompactedIndexGenerationsDieWithTheirLastReader) {
  auto workload = test::MakeRandomWorkload(500, 40, 6, 4, 4, 48);
  MatchEngineOptions options;
  options.k = 5;
  options.device = test::SharedTestDevice(2);
  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  delta::MutationOptions mutation;
  mutation.auto_compact_segments = 0;
  delta::MutationController controller(
      backend->get(), workload.index.num_objects(), mutation);

  std::vector<std::weak_ptr<const InvertedIndex>> generations;
  const std::vector<Keyword> keywords{1, 2, 3};
  for (ObjectId round = 0; round < 20; ++round) {
    controller.Insert(keywords);
    ASSERT_TRUE(controller.Remove(round).ok());
    ASSERT_TRUE(controller.Flush().ok());
    generations.push_back((*backend)->index());
    ASSERT_TRUE((*backend)->ExecuteBatch(workload.queries).ok());
  }
  EXPECT_EQ(controller.stats().compactions, 20u);
  size_t alive = 0;
  for (const auto& generation : generations) {
    if (!generation.expired()) ++alive;
  }
  EXPECT_LE(alive, 2u);
}

}  // namespace
}  // namespace genie
