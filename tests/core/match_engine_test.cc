#include "core/match_engine.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/simd.h"
#include "index/index_builder.h"
#include "index/vocabulary.h"
#include "test_util.h"

namespace genie {
namespace {

MatchEngineOptions BaseOptions(uint32_t k) {
  MatchEngineOptions options;
  options.k = k;
  options.device = test::SharedTestDevice(8);
  return options;
}

/// Builds the Fig. 1 running example: 3 objects over attributes A, B, C
/// encoded with DimValueEncoder(3, 4).
InvertedIndex Figure1Index() {
  // O1 = (A=1, B=2, C=1), O2 = (A=2, B=1, C=2), O3 = (A=1, B=3, C=3).
  DimValueEncoder enc(3, 4);
  InvertedIndexBuilder builder(enc.vocab_size());
  auto add = [&](ObjectId o, uint32_t a, uint32_t b, uint32_t c) {
    builder.Add(o, enc.EncodeUnchecked(0, a));
    builder.Add(o, enc.EncodeUnchecked(1, b));
    builder.Add(o, enc.EncodeUnchecked(2, c));
  };
  add(0, 1, 2, 1);
  add(1, 2, 1, 2);
  add(2, 1, 3, 3);
  return std::move(builder).Build().ValueOrDie();
}

Query Figure1Query() {
  // Q1 = {(A,[1,2]), (B,[1,1]), (C,[2,3])}.
  DimValueEncoder enc(3, 4);
  Query q;
  q.AddItem({enc.EncodeUnchecked(0, 1), enc.EncodeUnchecked(0, 2)});
  q.AddItem(enc.EncodeUnchecked(1, 1));
  q.AddItem({enc.EncodeUnchecked(2, 2), enc.EncodeUnchecked(2, 3)});
  return q;
}

TEST(MatchEngineTest, RunningExampleTop1) {
  const InvertedIndex index = Figure1Index();
  auto engine = MatchEngine::Create(&index, BaseOptions(1));
  ASSERT_TRUE(engine.ok());
  std::vector<Query> queries{Figure1Query()};
  auto results = (*engine)->ExecuteBatch(queries);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  const QueryResult& r = (*results)[0];
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_EQ(r.entries[0].id, 1u);     // O2
  EXPECT_EQ(r.entries[0].count, 3u);  // MC(Q1, O2) = 3
  EXPECT_EQ(r.threshold, 3u);         // Theorem 3.1: AT - 1
}

TEST(MatchEngineTest, RunningExampleMatchCounts) {
  // MC(Q1, O1) = 1, MC(Q1, O2) = 3, MC(Q1, O3) = 2 (Section II-A).
  const InvertedIndex index = Figure1Index();
  auto engine = MatchEngine::Create(&index, BaseOptions(3));
  ASSERT_TRUE(engine.ok());
  std::vector<Query> queries{Figure1Query()};
  auto results = (*engine)->ExecuteBatch(queries);
  ASSERT_TRUE(results.ok());
  const QueryResult& r = (*results)[0];
  ASSERT_EQ(r.entries.size(), 3u);
  EXPECT_EQ(r.entries[0], (TopKEntry{1, 3}));
  EXPECT_EQ(r.entries[1], (TopKEntry{2, 2}));
  EXPECT_EQ(r.entries[2], (TopKEntry{0, 1}));
}

TEST(MatchEngineTest, CreateRejectsBadArguments) {
  const InvertedIndex index = Figure1Index();
  EXPECT_FALSE(MatchEngine::Create(nullptr, BaseOptions(1)).ok());
  MatchEngineOptions zero_k = BaseOptions(0);
  EXPECT_FALSE(MatchEngine::Create(&index, zero_k).ok());
  MatchEngineOptions zero_block = BaseOptions(1);
  zero_block.block_dim = 0;
  EXPECT_FALSE(MatchEngine::Create(&index, zero_block).ok());
}

TEST(MatchEngineTest, EmptyBatchIsInvalidArgument) {
  const InvertedIndex index = Figure1Index();
  auto engine = MatchEngine::Create(&index, BaseOptions(1));
  ASSERT_TRUE(engine.ok());
  auto results = (*engine)->ExecuteBatch({});
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kInvalidArgument);
}

TEST(MatchEngineTest, EmptyQueryProducesEmptyResult) {
  const InvertedIndex index = Figure1Index();
  auto engine = MatchEngine::Create(&index, BaseOptions(2));
  ASSERT_TRUE(engine.ok());
  std::vector<Query> queries{Query{}};
  auto results = (*engine)->ExecuteBatch(queries);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE((*results)[0].entries.empty());
  EXPECT_EQ((*results)[0].threshold, 0u);
}

TEST(MatchEngineTest, QueryMatchingNothing) {
  const InvertedIndex index = Figure1Index();
  auto engine = MatchEngine::Create(&index, BaseOptions(2));
  ASSERT_TRUE(engine.ok());
  DimValueEncoder enc(3, 4);
  Query q;
  q.AddItem(enc.EncodeUnchecked(0, 0));  // no object has A=0
  std::vector<Query> queries{q};
  auto results = (*engine)->ExecuteBatch(queries);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE((*results)[0].entries.empty());
}

TEST(MatchEngineTest, KLargerThanDataset) {
  const InvertedIndex index = Figure1Index();
  auto engine = MatchEngine::Create(&index, BaseOptions(50));
  ASSERT_TRUE(engine.ok());
  std::vector<Query> queries{Figure1Query()};
  auto results = (*engine)->ExecuteBatch(queries);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ((*results)[0].entries.size(), 3u);  // everything that matched
}

TEST(MatchEngineTest, DeriveMaxCount) {
  std::vector<Query> queries(2);
  queries[0].AddItem(Keyword{0});
  queries[1].AddItem(Keyword{0});
  queries[1].AddItem(Keyword{1});
  EXPECT_EQ(MatchEngine::DeriveMaxCount(queries), 2u);
  EXPECT_EQ(MatchEngine::DeriveMaxCount({}), 1u);
}

struct EngineSweep {
  uint32_t num_objects;
  uint32_t vocab;
  uint32_t keywords_per_object;
  uint32_t num_queries;
  uint32_t items_per_query;
  uint32_t k;
  MatchEngineOptions::Selector selector;
  uint32_t max_lists_per_block;
  uint64_t seed;
};

class MatchEnginePropertyTest : public ::testing::TestWithParam<EngineSweep> {
};

/// Both engine configurations must reproduce the brute-force top-k count
/// multiset (object identity can differ only within count ties) and exact
/// per-object counts on random workloads.
TEST_P(MatchEnginePropertyTest, MatchesBruteForce) {
  const EngineSweep p = GetParam();
  auto workload = test::MakeRandomWorkload(p.num_objects, p.vocab,
                                           p.keywords_per_object,
                                           p.num_queries, p.items_per_query,
                                           p.seed);
  MatchEngineOptions options = BaseOptions(p.k);
  options.selector = p.selector;
  options.max_lists_per_block = p.max_lists_per_block;
  auto engine = MatchEngine::Create(&workload.index, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto results = (*engine)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), workload.queries.size());

  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    const auto expected = test::TopKCountMultiset(counts, p.k);
    const auto actual = test::EntryCountMultiset((*results)[q]);
    EXPECT_EQ(actual, expected) << "query " << q;
    for (const TopKEntry& e : (*results)[q].entries) {
      EXPECT_EQ(e.count, counts[e.id]) << "query " << q << " obj " << e.id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatchEnginePropertyTest,
    ::testing::Values(
        EngineSweep{200, 50, 8, 8, 6, 5,
                    MatchEngineOptions::Selector::kCpq, 0, 11},
        EngineSweep{1000, 200, 12, 16, 10, 10,
                    MatchEngineOptions::Selector::kCpq, 0, 12},
        EngineSweep{1000, 200, 12, 16, 10, 10,
                    MatchEngineOptions::Selector::kCountTableSpq, 0, 12},
        EngineSweep{500, 20, 6, 8, 8, 20,
                    MatchEngineOptions::Selector::kCpq, 2, 13},
        EngineSweep{500, 20, 6, 8, 8, 20,
                    MatchEngineOptions::Selector::kCountTableSpq, 2, 13},
        EngineSweep{1000, 200, 12, 16, 10, 10,
                    MatchEngineOptions::Selector::kBucketSelect, 0, 12},
        EngineSweep{500, 20, 6, 8, 8, 20,
                    MatchEngineOptions::Selector::kBucketSelect, 2, 13},
        EngineSweep{50, 10, 4, 4, 3, 1,
                    MatchEngineOptions::Selector::kCpq, 0, 14},
        EngineSweep{2000, 500, 16, 32, 12, 100,
                    MatchEngineOptions::Selector::kCpq, 0, 15}));

TEST(MatchEngineTest, LoadBalancedIndexSameResults) {
  // The same workload indexed with and without list splitting must give
  // identical count multisets (Fig. 4 correctness).
  Rng rng(77);
  const uint32_t vocab = 8;
  InvertedIndexBuilder plain(vocab), balanced(vocab);
  for (ObjectId o = 0; o < 600; ++o) {
    const Keyword kw = static_cast<Keyword>(rng.UniformU64(vocab));
    plain.Add(o, kw);
    balanced.Add(o, kw);
  }
  auto index_plain = std::move(plain).Build().ValueOrDie();
  IndexBuildOptions lb;
  lb.max_list_length = 16;
  auto index_balanced = std::move(balanced).Build(lb).ValueOrDie();
  EXPECT_GT(index_balanced.num_lists(), index_plain.num_lists());

  std::vector<Query> queries(4);
  for (auto& q : queries) {
    for (int i = 0; i < 3; ++i) {
      q.AddItem(static_cast<Keyword>(rng.UniformU64(vocab)));
    }
  }
  MatchEngineOptions options = BaseOptions(10);
  options.max_lists_per_block = 2;  // the paper's setting with load balance
  auto e1 = MatchEngine::Create(&index_plain, BaseOptions(10));
  auto e2 = MatchEngine::Create(&index_balanced, options);
  ASSERT_TRUE(e1.ok() && e2.ok());
  auto r1 = (*e1)->ExecuteBatch(queries);
  auto r2 = (*e2)->ExecuteBatch(queries);
  ASSERT_TRUE(r1.ok() && r2.ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(test::EntryCountMultiset((*r1)[q]),
              test::EntryCountMultiset((*r2)[q]));
  }
}

TEST(MatchEngineTest, SplitAndUnsplitSchedulesAgree) {
  // The unsplit schedule (one task per query) routes through the
  // single-writer non-atomic SIMD arms; list splitting shares each query's
  // arena across blocks and uses the atomic arms. Same index, same
  // queries: the two schedules must produce identical top-k count
  // multisets and exact per-object counts for every selector.
  auto workload = test::MakeRandomWorkload(800, 60, 8, 12, 6, 91);
  for (const auto selector : {MatchEngineOptions::Selector::kCpq,
                              MatchEngineOptions::Selector::kCountTableSpq,
                              MatchEngineOptions::Selector::kBucketSelect}) {
    MatchEngineOptions unsplit = BaseOptions(10);
    unsplit.selector = selector;
    MatchEngineOptions split = unsplit;
    split.max_lists_per_block = 1;
    auto e1 = MatchEngine::Create(&workload.index, unsplit);
    auto e2 = MatchEngine::Create(&workload.index, split);
    ASSERT_TRUE(e1.ok() && e2.ok());
    auto r1 = (*e1)->ExecuteBatch(workload.queries);
    auto r2 = (*e2)->ExecuteBatch(workload.queries);
    ASSERT_TRUE(r1.ok() && r2.ok());
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      EXPECT_EQ(test::EntryCountMultiset((*r1)[q]),
                test::EntryCountMultiset((*r2)[q]))
          << "selector=" << static_cast<int>(selector) << " query " << q;
    }
  }
}

TEST(MatchEngineTest, ProfileStagesPopulated) {
  auto workload = test::MakeRandomWorkload(500, 100, 8, 8, 6, 21);
  auto engine = MatchEngine::Create(&workload.index, BaseOptions(5));
  ASSERT_TRUE(engine.ok());
  EXPECT_GT((*engine)->profile().index_bytes, 0u);
  auto results = (*engine)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(results.ok());
  const MatchProfile& p = (*engine)->profile();
  EXPECT_GT(p.query_bytes, 0u);
  EXPECT_GT(p.match_s, 0.0);
  EXPECT_GT(p.select_s, 0.0);
  EXPECT_GE(p.total_query_s(), p.match_s);
}

TEST(MatchEngineTest, HtStatsCollectedWhenEnabled) {
  auto workload = test::MakeRandomWorkload(500, 100, 8, 4, 6, 22);
  MatchEngineOptions options = BaseOptions(5);
  options.collect_ht_stats = true;
  auto engine = MatchEngine::Create(&workload.index, options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->ExecuteBatch(workload.queries).ok());
  EXPECT_GT((*engine)->profile().ht_stats.upserts, 0u);
  EXPECT_GE((*engine)->profile().ht_stats.probes,
            (*engine)->profile().ht_stats.upserts);
}

TEST(MatchEngineTest, DeviceBytesPerQueryCpqSmallerThanCountTable) {
  MatchEngineOptions cpq = BaseOptions(100);
  MatchEngineOptions spq = BaseOptions(100);
  spq.selector = MatchEngineOptions::Selector::kCountTableSpq;
  const uint32_t n = 1'000'000;
  const uint64_t cpq_bytes = MatchEngine::DeviceBytesPerQuery(n, cpq, 15);
  const uint64_t spq_bytes = MatchEngine::DeviceBytesPerQuery(n, spq, 15);
  // Table IV: c-PQ reduces per-query memory to ~1/5 - 1/10 (here the count
  // bound 15 packs into 4-bit counters).
  EXPECT_LT(cpq_bytes * 5, spq_bytes);
}

TEST(MatchEngineTest, IndexTooLargeForDeviceIsResourceExhausted) {
  sim::Device::Options tiny;
  tiny.num_workers = 2;
  tiny.memory_capacity_bytes = 1024;  // 1 KiB "GPU"
  sim::Device device(tiny);
  auto workload = test::MakeRandomWorkload(2000, 50, 4, 1, 2, 23);
  MatchEngineOptions options;
  options.k = 1;
  options.device = &device;
  auto engine = MatchEngine::Create(&workload.index, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kResourceExhausted);
}

TEST(MatchEngineTest, ExplicitMaxCountOverride) {
  auto workload = test::MakeRandomWorkload(300, 60, 6, 4, 5, 24);
  MatchEngineOptions options = BaseOptions(5);
  options.max_count = 5;  // == items per query
  auto engine = MatchEngine::Create(&workload.index, options);
  ASSERT_TRUE(engine.ok());
  auto results = (*engine)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(results.ok());
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::TopKCountMultiset(counts, 5));
  }
}

TEST(MatchEngineTest, DeviceCopyFailurePropagatesAsStatus) {
  // A failing device-to-host copy in the host finalize stage (which runs
  // under ThreadPool::ParallelFor) must surface as the injected Status —
  // not abort the process, and not be swallowed into a torn result.
  auto workload = test::MakeRandomWorkload(400, 80, 8, 6, 6, 31);
  sim::Device::Options device_options;
  device_options.num_workers = 4;
  sim::Device device(device_options);  // private: fault state is per-device
  MatchEngineOptions options;
  options.k = 5;
  options.device = &device;
  auto engine = MatchEngine::Create(&workload.index, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // The kCpq finalize does one cursor D2H copy, then one candidate copy
  // per query inside the worker pool; after_copies=2 lands the fault on a
  // worker's candidate copy.
  device.InjectD2HFault(Status::Internal("injected d2h fault"),
                        /*after_copies=*/2);
  auto failed = (*engine)->ExecuteBatch(workload.queries);
  device.ClearD2HFault();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_EQ(failed.status().message(), "injected d2h fault");

  // The engine stays usable once the fault clears, with correct results.
  auto results = (*engine)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::TopKCountMultiset(counts, 5));
  }
}

TEST(MatchEngineTest, FaultOnFirstD2HCopyAlsoPropagates) {
  auto workload = test::MakeRandomWorkload(200, 40, 6, 4, 5, 32);
  sim::Device::Options device_options;
  device_options.num_workers = 2;
  sim::Device device(device_options);
  MatchEngineOptions options;
  options.k = 3;
  options.device = &device;
  auto engine = MatchEngine::Create(&workload.index, options);
  ASSERT_TRUE(engine.ok());
  device.InjectD2HFault(Status::Internal("first copy fails"));
  auto failed = (*engine)->ExecuteBatch(workload.queries);
  device.ClearD2HFault();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
}

/// Entry-for-entry identity: ids, counts, order and threshold.
void ExpectIdenticalResults(const std::vector<QueryResult>& expected,
                            const std::vector<QueryResult>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t q = 0; q < expected.size(); ++q) {
    EXPECT_EQ(expected[q].threshold, actual[q].threshold) << "query " << q;
    EXPECT_EQ(expected[q].entries, actual[q].entries) << "query " << q;
  }
}

TEST(MatchEngineTest, ScalarAndSimdArmsBitIdentical) {
  // The tentpole's gate: forcing the dispatch arm must not change what the
  // match-count model determines. Under the default unsplit schedule one
  // block owns each query's counters — and its c-PQ — so every selector is
  // deterministic end to end, and the arms must agree entry for entry
  // (ids, counts, order, thresholds).
  auto workload = test::MakeRandomWorkload(1500, 300, 14, 12, 10, 33);
  for (const auto selector : {MatchEngineOptions::Selector::kCpq,
                              MatchEngineOptions::Selector::kCountTableSpq,
                              MatchEngineOptions::Selector::kBucketSelect}) {
    SCOPED_TRACE("selector=" + std::to_string(static_cast<int>(selector)));
    MatchEngineOptions options = BaseOptions(10);
    options.selector = selector;
    std::vector<std::vector<QueryResult>> per_arm;
    for (const auto arch :
         {simd::Arch::kScalar, simd::BestSupportedArch()}) {
      simd::ScopedForceArch force(arch);
      auto engine = MatchEngine::Create(&workload.index, options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      auto results = (*engine)->ExecuteBatch(workload.queries);
      ASSERT_TRUE(results.ok()) << results.status().ToString();
      per_arm.push_back(*std::move(results));
    }
    ExpectIdenticalResults(per_arm[0], per_arm[1]);
  }
}

TEST(MatchEngineTest, CounterWidthDoesNotChangeAnswers) {
  // Twelve single-keyword items per query keep every true count <= 12, so
  // count bounds 15, 16, 256 and 65,536 (4-, 8-, 16- and 32-bit counters:
  // the packed path, then the direct-addressed one at each width) all count
  // exactly and must give the same answers entry for entry.
  auto workload = test::MakeRandomWorkload(1500, 300, 14, 12, 12, 35);
  for (const auto selector : {MatchEngineOptions::Selector::kCpq,
                              MatchEngineOptions::Selector::kBucketSelect}) {
    SCOPED_TRACE("selector=" + std::to_string(static_cast<int>(selector)));
    std::vector<std::vector<QueryResult>> per_width;
    for (const uint32_t max_count : {15u, 16u, 256u, 65'536u}) {
      MatchEngineOptions options = BaseOptions(10);
      options.selector = selector;
      options.max_count = max_count;
      auto engine = MatchEngine::Create(&workload.index, options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      auto results = (*engine)->ExecuteBatch(workload.queries);
      ASSERT_TRUE(results.ok()) << results.status().ToString();
      per_width.push_back(*std::move(results));
    }
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      EXPECT_EQ(test::EntryCountMultiset(per_width[0][q]),
                test::TopKCountMultiset(
                    test::BruteForceCounts(workload.index,
                                           workload.queries[q]),
                    10))
          << "query " << q;
    }
    for (size_t w = 1; w < per_width.size(); ++w) {
      SCOPED_TRACE("width #" + std::to_string(w));
      ExpectIdenticalResults(per_width[0], per_width[w]);
    }
  }
}

TEST(MatchEngineTest, IsCpqOverflowMatchesOnlyTheOverflowSignal) {
  EXPECT_FALSE(MatchEngine::IsCpqOverflow(Status::OK()));
  EXPECT_FALSE(
      MatchEngine::IsCpqOverflow(Status::ResourceExhausted("out of memory")));
  EXPECT_FALSE(MatchEngine::IsCpqOverflow(Status::Internal("boom")));
  // Force a real overflow and check the classifier accepts exactly it.
  // k above the matched-object count pins AT at 1 (ZA[1] never reaches k),
  // so every matched object is promoted; the capacity cap then guarantees
  // the resident set cannot fit and Upsert hits its probe limit.
  auto workload = test::MakeRandomWorkload(3000, 10, 5, 2, 8, 34);
  MatchEngineOptions options = BaseOptions(4000);
  options.ht_slack = 1;
  options.ht_capacity_cap = 256;
  auto engine = MatchEngine::Create(&workload.index, options);
  ASSERT_TRUE(engine.ok());
  auto results = (*engine)->ExecuteBatch(workload.queries);
  ASSERT_FALSE(results.ok());
  ASSERT_EQ(results.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(MatchEngine::IsCpqOverflow(results.status()));
}

TEST(MatchEngineTest, RobinHoodExpireOffStillCorrect) {
  auto workload = test::MakeRandomWorkload(800, 150, 10, 8, 8, 25);
  MatchEngineOptions options = BaseOptions(10);
  options.robin_hood_expire = false;  // ablation switch
  options.ht_slack = 8;               // compensate for unreclaimed slots
  auto engine = MatchEngine::Create(&workload.index, options);
  ASSERT_TRUE(engine.ok());
  auto results = (*engine)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(results.ok());
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::TopKCountMultiset(counts, 10));
  }
}

TEST(MatchEngineTest, ExcludedIdsNeverReturnedAndTopKStaysExact) {
  auto workload = test::MakeRandomWorkload(1500, 40, 6, 8, 5, 131);
  // Exclude every object that any query's unmasked top-k holds (more ids
  // than k per query, all at the top), plus some unrelated ones.
  constexpr uint32_t kK = 6;
  for (const auto selector : {MatchEngineOptions::Selector::kCpq,
                              MatchEngineOptions::Selector::kCountTableSpq,
                              MatchEngineOptions::Selector::kBucketSelect}) {
    MatchEngineOptions options = BaseOptions(kK);
    options.selector = selector;
    auto engine = MatchEngine::Create(&workload.index, options);
    ASSERT_TRUE(engine.ok());
    auto unmasked = (*engine)->ExecuteBatch(workload.queries);
    ASSERT_TRUE(unmasked.ok());
    std::set<ObjectId> excluded_set;
    for (const QueryResult& result : *unmasked) {
      for (const TopKEntry& e : result.entries) excluded_set.insert(e.id);
    }
    for (ObjectId id = 0; id < 1500; id += 37) excluded_set.insert(id);
    excluded_set.insert(5000);  // past the index: ignored
    const std::vector<ObjectId> excluded(excluded_set.begin(),
                                         excluded_set.end());

    auto masked = (*engine)->ExecuteBatch(workload.queries, excluded);
    ASSERT_TRUE(masked.ok()) << masked.status().ToString();
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      std::vector<uint32_t> counts =
          test::BruteForceCounts(workload.index, workload.queries[q]);
      for (const ObjectId id : excluded) {
        if (id < counts.size()) counts[id] = 0;
      }
      EXPECT_EQ(test::EntryCountMultiset((*masked)[q]),
                test::TopKCountMultiset(counts, kK))
          << "selector " << static_cast<int>(selector) << " query " << q;
      for (const TopKEntry& e : (*masked)[q].entries) {
        EXPECT_EQ(excluded_set.count(e.id), 0u) << "id " << e.id;
        EXPECT_EQ(e.count, counts[e.id]);
      }
    }
  }
}

}  // namespace
}  // namespace genie
