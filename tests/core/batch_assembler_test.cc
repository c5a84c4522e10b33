#include "core/batch_assembler.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"
#include "test_util.h"

namespace genie {
namespace {

TEST(BatchAssemblerTest, DeriveFromMemoryBasics) {
  // 100 MiB free, half usable, 1 MiB per query -> 50 queries.
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(100 << 20, 0, 1 << 20, 0.5), 50u);
  // Allocation eats into the free capacity.
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(100 << 20, 60 << 20, 1 << 20, 0.5),
            20u);
}

TEST(BatchAssemblerTest, DeriveFromMemoryOversubscriptionClampsToOne) {
  // allocated > capacity must not underflow into a huge batch.
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(4 << 20, 8 << 20, 1 << 20, 0.5),
            1u);
  // Zero per-query cost and zero free memory both stay sane.
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(0, 0, 0, 0.5), 1u);
  EXPECT_GE(BatchAssembler::DeriveFromMemory(1ull << 40, 0, 0, 1.0), 1u);
  EXPECT_LE(BatchAssembler::DeriveFromMemory(1ull << 40, 0, 1, 1.0), 1u << 20);
}

TEST(BatchAssemblerTest, DeriveFromMemoryClampsFraction) {
  // Fractions outside [0, 1] are clamped, not amplified.
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(10 << 20, 0, 1 << 20, 2.0), 10u);
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(10 << 20, 0, 1 << 20, -1.0), 1u);
}

TEST(BatchAssemblerTest, ResolveTargetBatchPreferenceOrder) {
  EXPECT_EQ(BatchAssembler::ResolveTargetBatch(256, 512, 1024), 256u);
  EXPECT_EQ(BatchAssembler::ResolveTargetBatch(0, 512, 1024), 512u);
  EXPECT_EQ(BatchAssembler::ResolveTargetBatch(0, 0, 1024), 1024u);
}

TEST(BatchAssemblerTest, BatchSizeForPrefersLivePlanChunkSize) {
  auto workload = test::MakeRandomWorkload(500, 60, 8, 16, 5, 91);
  MatchEngineOptions options;
  options.k = 5;
  options.max_count = MatchEngine::DeriveMaxCount(workload.queries);
  options.device = test::SharedTestDevice(4);
  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok());

  const plan::ExecutionPlan plan = (*backend)->execution_plan();
  const uint32_t derived = BatchAssembler::BatchSizeFor(
      **backend, std::span<const Query>(workload.queries), 0.5);
  if (plan.planned && plan.chunk_size > 0) {
    // The fixed DeriveLargeBatchSize bug: the plan's chunk size must win
    // over the raw memory derivation.
    EXPECT_EQ(derived, plan.chunk_size);
  } else {
    EXPECT_GE(derived, 1u);
  }
}

TEST(BatchAssemblerTest, BatchSizeForFallsBackToMemoryWithoutPlan) {
  // A batch whose working memory does not fit beside the resident index
  // escalates the backend to multiple loading at batch time, which leaves
  // no live plan: batch sizing falls back to the memory derivation.
  const uint32_t kNumObjects = 3000;
  const uint32_t kVocab = 100;
  auto workload = test::MakeRandomWorkload(kNumObjects, kVocab, 8, 0, 0, 92);
  Rng rng(93);
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

  MatchEngineOptions options;
  options.k = 5;
  options.max_count = MatchEngine::DeriveMaxCount(big_batch);
  const uint64_t per_query = MatchEngine::DeviceBytesPerQuery(
      kNumObjects, options, options.max_count);
  sim::Device::Options capacity;
  capacity.num_workers = 4;
  capacity.memory_capacity_bytes =
      workload.index.postings_bytes() + 4 * per_query;
  sim::Device device(capacity);
  options.device = &device;
  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  ASSERT_TRUE((*backend)->execution_plan().planned);
  ASSERT_FALSE((*backend)->multi_load());

  ASSERT_TRUE((*backend)->ExecuteBatch(big_batch).ok());
  ASSERT_TRUE((*backend)->multi_load());
  ASSERT_FALSE((*backend)->execution_plan().planned);
  const uint32_t derived = BatchAssembler::BatchSizeFor(
      **backend, std::span<const Query>(big_batch), 0.5);
  const EngineBackend::BatchBudget budget = (*backend)->batch_budget();
  EXPECT_EQ(derived,
            BatchAssembler::DeriveFromMemory(budget.capacity_bytes,
                                             budget.allocated_bytes,
                                             per_query, 0.5));
}

}  // namespace
}  // namespace genie
