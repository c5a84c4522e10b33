#include "core/batch_scheduler.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace genie {
namespace {

TEST(BatchSchedulerTest, NullBackendRejected) {
  std::vector<Query> queries(1);
  auto result = ExecuteLargeBatch(nullptr, queries);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(BatchSchedulerTest, ChunkedEqualsSingleBatch) {
  auto workload = test::MakeRandomWorkload(500, 60, 8, 37, 5, 81);
  MatchEngineOptions options;
  options.k = 10;
  options.max_count = MatchEngine::DeriveMaxCount(workload.queries);
  options.device = test::SharedTestDevice(4);
  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok());

  auto single = (*backend)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(single.ok());
  LargeBatchOptions large;
  large.batch_size = 8;  // 37 queries -> 5 uneven batches
  auto chunked = ExecuteLargeBatch(backend->get(), workload.queries, large);
  ASSERT_TRUE(chunked.ok());
  ASSERT_EQ(chunked->size(), single->size());
  for (size_t q = 0; q < single->size(); ++q) {
    EXPECT_EQ(test::EntryCountMultiset((*chunked)[q]),
              test::EntryCountMultiset((*single)[q]))
        << "query " << q;
  }
}

TEST(BatchSchedulerTest, EmptyQuerySetRejected) {
  // The scheduler enforces the same non-empty batch contract as
  // MatchEngine / PartitionedEngine / EngineBackend.
  auto workload = test::MakeRandomWorkload(50, 10, 3, 1, 2, 82);
  MatchEngineOptions options;
  options.k = 3;
  options.device = test::SharedTestDevice(4);
  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok());
  auto results = ExecuteLargeBatch(backend->get(), {});
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kInvalidArgument);
}

TEST(BatchSchedulerTest, AutoBatchSizeFromMemoryBudget) {
  // A tiny device forces small auto-derived batches; results must still
  // match a reference run on a large device.
  auto workload = test::MakeRandomWorkload(2000, 40, 6, 24, 4, 83);
  MatchEngineOptions reference_options;
  reference_options.k = 5;
  reference_options.max_count = MatchEngine::DeriveMaxCount(workload.queries);
  reference_options.device = test::SharedTestDevice(4);
  auto reference_backend =
      EngineBackend::Create(&workload.index, reference_options);
  ASSERT_TRUE(reference_backend.ok());
  auto reference = (*reference_backend)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(reference.ok());

  sim::Device::Options small;
  small.num_workers = 2;
  small.memory_capacity_bytes = 4 << 20;  // 4 MiB
  sim::Device small_device(small);
  MatchEngineOptions options = reference_options;
  options.device = &small_device;
  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok());
  LargeBatchOptions large;
  large.batch_size = 0;  // derive from memory
  large.memory_fraction = 0.5;
  auto results = ExecuteLargeBatch(backend->get(), workload.queries, large);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), reference->size());
  for (size_t q = 0; q < results->size(); ++q) {
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::EntryCountMultiset((*reference)[q]));
  }
}

TEST(BatchSchedulerTest, ChunkedThroughMultiLoadFallback) {
  // Chunked execution composes with the multiple-loading fallback: the
  // backend shards the index, and every chunk still answers correctly.
  auto workload = test::MakeRandomWorkload(4000, 30, 8, 12, 4, 84);
  sim::Device::Options small;
  small.num_workers = 4;
  small.memory_capacity_bytes = 120 << 10;  // index does not fit
  sim::Device device(small);
  MatchEngineOptions options;
  options.k = 5;
  options.max_count = MatchEngine::DeriveMaxCount(workload.queries);
  options.device = &device;
  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  ASSERT_TRUE((*backend)->multi_load());

  LargeBatchOptions large;
  large.batch_size = 5;
  auto results = ExecuteLargeBatch(backend->get(), workload.queries, large);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), workload.queries.size());
  for (size_t q = 0; q < results->size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::TopKCountMultiset(counts, 5))
        << "query " << q;
  }
}

// ---------------------------------------------------------------------------
// Batch-size derivation edge cases (the unsigned-underflow regression).
// ---------------------------------------------------------------------------

TEST(DeriveLargeBatchSizeTest, NormalBudget) {
  // 1 MiB free, half budget, 1 KiB per query -> 512 queries per batch.
  EXPECT_EQ(DeriveLargeBatchSize(1 << 20, 0, 1 << 10, 0.5), 512u);
}

TEST(DeriveLargeBatchSizeTest, OversubscribedDeviceFallsBackToOne) {
  // allocated > capacity must not underflow into a huge free-memory figure
  // (the old code derived the 2^20 clamp limit here).
  EXPECT_EQ(DeriveLargeBatchSize(1 << 20, (1 << 20) + 1, 1 << 10, 0.5), 1u);
  EXPECT_EQ(DeriveLargeBatchSize(0, 1, 64, 0.5), 1u);
}

TEST(DeriveLargeBatchSizeTest, FullDeviceFallsBackToOne) {
  EXPECT_EQ(DeriveLargeBatchSize(1 << 20, 1 << 20, 1 << 10, 0.5), 1u);
}

TEST(DeriveLargeBatchSizeTest, ClampsToUpperBound) {
  EXPECT_EQ(DeriveLargeBatchSize(1ULL << 40, 0, 1, 1.0), 1u << 20);
}

TEST(DeriveLargeBatchSizeTest, ZeroPerQueryBytesTreatedAsOneByte) {
  EXPECT_EQ(DeriveLargeBatchSize(1 << 20, 0, 0, 1.0), 1u << 20);
}

}  // namespace
}  // namespace genie
