/// Space multiplexing: PartitionedEngine with every part resident on a
/// device of a sim::DeviceSet, and the multi-device tier behind
/// EngineBackend.

#include "core/partitioned_engine.h"

#include <gtest/gtest.h>

#include "core/engine_backend.h"
#include "index/shard.h"
#include "test_util.h"

namespace genie {
namespace {

sim::DeviceSet::Options SmallSet(size_t num_devices,
                                 uint64_t capacity = 64ULL << 20) {
  sim::DeviceSet::Options options;
  options.num_devices = num_devices;
  options.device.num_workers = 2;
  options.device.memory_capacity_bytes = capacity;
  return options;
}

std::vector<IndexPart> PartsOf(const ShardedIndex& sharded) {
  std::vector<IndexPart> parts;
  for (size_t p = 0; p < sharded.shards.size(); ++p) {
    parts.push_back(IndexPart{&sharded.shards[p], sharded.offsets[p]});
  }
  return parts;
}

TEST(MultiDeviceEngineTest, ResultsMatchSingleEngine) {
  auto workload = test::MakeRandomWorkload(900, 80, 8, 12, 6, 61);
  auto sharded = ShardByObjectRange(workload.index, 3);
  ASSERT_TRUE(sharded.ok());
  auto devices = sim::DeviceSet::Create(SmallSet(3));
  ASSERT_TRUE(devices.ok());

  MatchEngineOptions options;
  options.k = 15;
  options.max_count = MatchEngine::DeriveMaxCount(workload.queries);
  auto multi =
      PartitionedEngine::Create(PartsOf(*sharded), options, devices->get());
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  EXPECT_FALSE((*multi)->swapped());
  EXPECT_EQ((*multi)->num_parts(), 3u);
  EXPECT_EQ((*multi)->num_devices(), 3u);

  auto merged = (*multi)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  options.device = test::SharedTestDevice(4);
  auto single = MatchEngine::Create(&workload.index, options);
  ASSERT_TRUE(single.ok());
  auto reference = (*single)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(reference.ok());

  ASSERT_EQ(merged->size(), reference->size());
  for (size_t q = 0; q < merged->size(); ++q) {
    EXPECT_EQ(test::EntryCountMultiset((*merged)[q]),
              test::EntryCountMultiset((*reference)[q]))
        << "query " << q;
    EXPECT_EQ((*merged)[q].threshold, (*reference)[q].threshold)
        << "query " << q;
  }
}

TEST(MultiDeviceEngineTest, RoundRobinWithMorePartsThanDevices) {
  auto workload = test::MakeRandomWorkload(500, 50, 6, 8, 5, 62);
  auto sharded = ShardByObjectRange(workload.index, 5);
  ASSERT_TRUE(sharded.ok());
  auto devices = sim::DeviceSet::Create(SmallSet(2));
  ASSERT_TRUE(devices.ok());

  MatchEngineOptions options;
  options.k = 10;
  options.max_count = MatchEngine::DeriveMaxCount(workload.queries);
  auto multi =
      PartitionedEngine::Create(PartsOf(*sharded), options, devices->get());
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  EXPECT_EQ((*multi)->num_parts(), 5u);
  EXPECT_EQ((*multi)->num_devices(), 2u);
  // Both devices hold resident parts (3 on device 0, 2 on device 1).
  EXPECT_GT(devices->get()->device(0)->allocated_bytes(), 0u);
  EXPECT_GT(devices->get()->device(1)->allocated_bytes(), 0u);

  auto results = (*multi)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(results.ok());
  for (size_t q = 0; q < results->size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    for (const TopKEntry& e : (*results)[q].entries) {
      ASSERT_LT(e.id, workload.index.num_objects());
      EXPECT_EQ(e.count, counts[e.id]) << "query " << q;
    }
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::TopKCountMultiset(counts, 10));
  }
}

TEST(MultiDeviceEngineTest, PartsStayResidentAcrossBatches) {
  auto workload = test::MakeRandomWorkload(600, 50, 6, 6, 4, 63);
  auto sharded = ShardByObjectRange(workload.index, 2);
  ASSERT_TRUE(sharded.ok());
  auto devices = sim::DeviceSet::Create(SmallSet(2));
  ASSERT_TRUE(devices.ok());

  MatchEngineOptions options;
  options.k = 5;
  auto multi =
      PartitionedEngine::Create(PartsOf(*sharded), options, devices->get());
  ASSERT_TRUE(multi.ok());
  const uint64_t resident = devices->get()->allocated_bytes();
  EXPECT_GT(resident, 0u);

  ASSERT_TRUE((*multi)->ExecuteBatch(workload.queries).ok());
  // No per-batch swap-in: batch working memory is released and the resident
  // index transfers happened exactly once, at creation.
  EXPECT_EQ(devices->get()->allocated_bytes(), resident);
  const PartitionedProfile before = (*multi)->profile();
  ASSERT_TRUE((*multi)->ExecuteBatch(workload.queries).ok());
  const PartitionedProfile after = (*multi)->profile();
  EXPECT_EQ(after.Combined().index_bytes, before.Combined().index_bytes);
  EXPECT_GT(after.Combined().query_bytes, before.Combined().query_bytes);

  // Per-device profiles: every device matched and moved bytes.
  ASSERT_EQ(after.per_device.size(), 2u);
  for (const MatchProfile& p : after.per_device) {
    EXPECT_GT(p.index_bytes, 0u);
    EXPECT_GT(p.query_bytes, 0u);
  }
  multi->reset();
  EXPECT_EQ(devices->get()->allocated_bytes(), 0u);
}

TEST(MultiDeviceEngineTest, OverlappingPartsRejected) {
  auto workload = test::MakeRandomWorkload(400, 40, 5, 4, 4, 64);
  auto sharded = ShardByObjectRange(workload.index, 2);
  ASSERT_TRUE(sharded.ok());
  auto devices = sim::DeviceSet::Create(SmallSet(2));
  ASSERT_TRUE(devices.ok());

  // Both parts claim offset 0: their global id ranges overlap.
  std::vector<IndexPart> overlapping{
      IndexPart{&sharded->shards[0], 0},
      IndexPart{&sharded->shards[1], 0},
  };
  MatchEngineOptions options;
  options.k = 5;
  auto multi =
      PartitionedEngine::Create(overlapping, options, devices->get());
  ASSERT_FALSE(multi.ok());
  EXPECT_EQ(multi.status().code(), StatusCode::kInvalidArgument);
  // Nothing was transferred before the validation failed.
  EXPECT_EQ(devices->get()->allocated_bytes(), 0u);

  // The same validation guards the swapped (multiple-loading) placement.
  auto multi_load = PartitionedEngine::Create(overlapping, options);
  ASSERT_FALSE(multi_load.ok());
  EXPECT_EQ(multi_load.status().code(), StatusCode::kInvalidArgument);
}

TEST(MultiDeviceEngineTest, OverlapHiddenBehindEmptyPartRejected) {
  // An empty part sorting between two overlapping ranges must not mask the
  // overlap: [0, 10) and [5, 12) collide even with [4, 4) in between.
  InvertedIndexBuilder a(1), b(1), c(1);
  for (ObjectId o = 0; o < 10; ++o) a.Add(o, 0);
  for (ObjectId o = 0; o < 7; ++o) c.Add(o, 0);
  auto ia = std::move(a).Build().ValueOrDie();
  auto ib = std::move(b).Build().ValueOrDie();  // no objects
  auto ic = std::move(c).Build().ValueOrDie();
  std::vector<IndexPart> parts{
      IndexPart{&ia, 0}, IndexPart{&ib, 4}, IndexPart{&ic, 5}};
  MatchEngineOptions options;
  options.k = 3;
  options.device = test::SharedTestDevice(2);
  auto multi_load = PartitionedEngine::Create(parts, options);
  ASSERT_FALSE(multi_load.ok());
  EXPECT_EQ(multi_load.status().code(), StatusCode::kInvalidArgument);
}

TEST(MultiDeviceBackendTest, SingleDeviceSetBindsItsDevice) {
  // A one-device set names the hardware: the single-load tier must run on
  // its device, not on options.device / the process default.
  auto workload = test::MakeRandomWorkload(300, 30, 5, 4, 4, 69);
  auto devices = sim::DeviceSet::Create(SmallSet(1));
  ASSERT_TRUE(devices.ok());

  MatchEngineOptions options;
  options.k = 5;
  EngineBackendOptions backend_options;
  backend_options.device_set = devices->get();
  auto backend =
      EngineBackend::Create(&workload.index, options, backend_options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_FALSE((*backend)->multi_load());
  EXPECT_EQ((*backend)->num_devices(), 1u);
  // The index is resident on the set's device.
  EXPECT_GT(devices->get()->device(0)->allocated_bytes(), 0u);
  ASSERT_TRUE((*backend)->ExecuteBatch(workload.queries).ok());
}

TEST(MultiDeviceEngineTest, ResourceExhaustedWhenPartsExceedADevice) {
  auto workload = test::MakeRandomWorkload(4000, 30, 8, 4, 4, 65);
  auto sharded = ShardByObjectRange(workload.index, 2);
  ASSERT_TRUE(sharded.ok());
  auto devices = sim::DeviceSet::Create(SmallSet(2, /*capacity=*/16 << 10));
  ASSERT_TRUE(devices.ok());

  MatchEngineOptions options;
  options.k = 5;
  auto multi =
      PartitionedEngine::Create(PartsOf(*sharded), options, devices->get());
  ASSERT_FALSE(multi.ok());
  EXPECT_EQ(multi.status().code(), StatusCode::kResourceExhausted);
  // The partially built engines unwound cleanly.
  EXPECT_EQ(devices->get()->allocated_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// The multi-device tier behind EngineBackend.
// ---------------------------------------------------------------------------

TEST(MultiDeviceBackendTest, BackendShardsAcrossDevices) {
  auto workload = test::MakeRandomWorkload(800, 60, 6, 8, 5, 66);
  MatchEngineOptions options;
  options.k = 10;
  options.device = test::SharedTestDevice(2);
  EngineBackendOptions backend_options;
  backend_options.num_devices = 4;
  auto backend =
      EngineBackend::Create(&workload.index, options, backend_options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_FALSE((*backend)->multi_load());
  EXPECT_EQ((*backend)->num_devices(), 4u);
  EXPECT_EQ((*backend)->num_parts(), 4u);
  EXPECT_EQ((*backend)->device_profiles().size(), 4u);

  auto results = (*backend)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::TopKCountMultiset(counts, 10));
  }
  // Every device contributed to the batch.
  for (const MatchProfile& p : (*backend)->device_profiles()) {
    EXPECT_GT(p.index_bytes, 0u);
    EXPECT_GT(p.query_bytes, 0u);
  }
}

TEST(MultiDeviceBackendTest, ExternalDeviceSetIsUsed) {
  auto workload = test::MakeRandomWorkload(500, 50, 6, 6, 4, 67);
  auto devices = sim::DeviceSet::Create(SmallSet(3));
  ASSERT_TRUE(devices.ok());

  MatchEngineOptions options;
  options.k = 8;
  EngineBackendOptions backend_options;
  backend_options.device_set = devices->get();
  {
    auto backend =
        EngineBackend::Create(&workload.index, options, backend_options);
    ASSERT_TRUE(backend.ok()) << backend.status().ToString();
    EXPECT_EQ((*backend)->num_devices(), 3u);
    // The parts are resident on the caller's devices.
    EXPECT_GT(devices->get()->allocated_bytes(), 0u);
    // Batch sizing budgets against the set's devices (which hold the
    // residency), not the idle base device.
    const EngineBackend::BatchBudget budget = (*backend)->batch_budget();
    EXPECT_EQ(budget.capacity_bytes, 64ULL << 20);
    EXPECT_GT(budget.allocated_bytes, 0u);
    ASSERT_TRUE((*backend)->ExecuteBatch(workload.queries).ok());
  }
  // Backend destruction releases the residency; the set stays caller-owned.
  EXPECT_EQ(devices->get()->allocated_bytes(), 0u);
}

TEST(MultiDeviceBackendTest, FallsBackToMultiLoadWhenResidencyExceedsDevices) {
  auto workload = test::MakeRandomWorkload(4000, 30, 8, 4, 4, 68);
  sim::Device::Options small;
  small.num_workers = 2;
  small.memory_capacity_bytes = 40 << 10;
  sim::Device device(small);

  MatchEngineOptions options;
  options.k = 5;
  options.device = &device;
  options.max_count = MatchEngine::DeriveMaxCount(workload.queries);
  EngineBackendOptions backend_options;
  // 2 devices of 40 KiB cannot hold the 128 KiB index resident (64 KiB per
  // part); the backend must fall back to time-multiplexing the base device.
  backend_options.num_devices = 2;
  auto backend =
      EngineBackend::Create(&workload.index, options, backend_options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_TRUE((*backend)->multi_load());
  EXPECT_EQ((*backend)->num_devices(), 1u);

  auto results = (*backend)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::TopKCountMultiset(counts, 5));
  }
}

}  // namespace
}  // namespace genie
