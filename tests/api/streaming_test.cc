/// Streaming pipeline of the facade: SearchStream / SearchAsync chunked
/// execution through EngineBackend — aggregate-equals-blocking, in-order
/// per-chunk delivery with per-chunk profile deltas, cancellation on first
/// error, concurrent async streams, a mid-stream single-load ->
/// multiple-loading escalation, and chunking from the device memory budget
/// and through the multiple-loading fallback. Under serving, SearchAsync
/// admits without taking a pool thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <span>
#include <vector>

#include "api/genie.h"
#include "api_test_util.h"
#include "common/thread_pool.h"
#include "data/points.h"
#include "test_util.h"

namespace genie {
namespace {

std::vector<uint32_t> HitCounts(const QueryHits& hits) {
  std::vector<uint32_t> counts;
  counts.reserve(hits.hits.size());
  for (const Hit& hit : hits.hits) counts.push_back(hit.match_count);
  return counts;
}

TEST(SearchStreamTest, AggregateMatchesBlockingSearch) {
  auto workload = test::MakeRandomWorkload(800, 60, 6, 53, 5, 21);
  auto engine = Engine::Create(
      EngineConfig().Index(&workload.index).K(7).Device(
          test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto blocking = (*engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(blocking.ok()) << blocking.status().ToString();

  SearchStreamOptions options;
  options.chunk_size = 8;  // 53 queries -> 7 uneven chunks
  auto streamed = (*engine)->SearchStream(
      SearchRequest::Compiled(workload.queries), options);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

  ASSERT_EQ(streamed->queries.size(), blocking->queries.size());
  for (size_t q = 0; q < blocking->queries.size(); ++q) {
    EXPECT_EQ(HitCounts(streamed->queries[q]), HitCounts(blocking->queries[q]))
        << "query " << q;
    EXPECT_EQ(streamed->queries[q].threshold, blocking->queries[q].threshold);
  }
}

TEST(SearchStreamTest, ChunksArriveInOrderWithDeltasSummingToAggregate) {
  auto workload = test::MakeRandomWorkload(600, 50, 6, 26, 4, 22);
  auto engine = Engine::Create(
      EngineConfig().Index(&workload.index).K(5).Device(
          test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok());

  SearchStreamOptions options;
  options.chunk_size = 8;  // 26 queries -> chunks of 8, 8, 8, 2
  std::vector<size_t> indices;
  std::vector<size_t> first_queries;
  std::vector<size_t> sizes;
  uint64_t delta_query_bytes = 0;
  auto streamed = (*engine)->SearchStream(
      SearchRequest::Compiled(workload.queries), options,
      [&](const SearchChunk& chunk) {
        indices.push_back(chunk.index);
        first_queries.push_back(chunk.first_query);
        sizes.push_back(chunk.result.queries.size());
        delta_query_bytes += chunk.result.profile.query_bytes;
        return Status::OK();
      });
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(indices, (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_EQ(first_queries, (std::vector<size_t>{0, 8, 16, 24}));
  EXPECT_EQ(sizes, (std::vector<size_t>{8, 8, 8, 2}));
  // The per-chunk deltas add up to the aggregate delta of the stream, and
  // the stream (the engine's only work) accounts for the whole cumulative.
  EXPECT_EQ(streamed->profile.query_bytes, delta_query_bytes);
  EXPECT_EQ(streamed->cumulative.query_bytes, delta_query_bytes);
  EXPECT_GT(delta_query_bytes, 0u);
}

TEST(SearchStreamTest, CallbackErrorCancelsRemainingChunks) {
  auto workload = test::MakeRandomWorkload(400, 40, 5, 20, 4, 23);
  auto engine = Engine::Create(
      EngineConfig().Index(&workload.index).K(3).Device(
          test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok());

  SearchStreamOptions options;
  options.chunk_size = 4;
  size_t delivered = 0;
  auto streamed = (*engine)->SearchStream(
      SearchRequest::Compiled(workload.queries), options,
      [&](const SearchChunk& chunk) {
        ++delivered;
        if (chunk.index == 1) return Status::Internal("consumer gave up");
        return Status::OK();
      });
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().code(), StatusCode::kInternal);
  EXPECT_EQ(delivered, 2u);  // chunk 2 of 5 cancelled the rest
}

TEST(SearchStreamTest, RejectsEmptyBatchAndWrongPayload) {
  auto workload = test::MakeRandomWorkload(100, 20, 4, 4, 3, 24);
  auto engine = Engine::Create(
      EngineConfig().Index(&workload.index).K(3).Device(
          test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok());

  auto empty = (*engine)->SearchStream(SearchRequest::Compiled({}));
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  std::vector<std::string> sequences{"abc"};
  auto wrong = (*engine)->SearchStream(SearchRequest::Sequences(sequences));
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
}

TEST(SearchStreamTest, DerivesChunkSizeFromDeviceMemory) {
  // chunk_size = 0: the compiled searcher sizes chunks from the free device
  // memory (oversubscription-safe BatchAssembler::DeriveFromMemory); a
  // small device forces several chunks, and answers still match a
  // big-device reference.
  auto workload = test::MakeRandomWorkload(2000, 40, 6, 24, 4, 32);
  const uint32_t max_count = MatchEngine::DeriveMaxCount(workload.queries);
  auto big_engine = Engine::Create(EngineConfig()
                                       .Index(&workload.index)
                                       .K(5)
                                       .MaxCount(max_count)
                                       .Device(test::SharedTestDevice(4)));
  ASSERT_TRUE(big_engine.ok());
  auto reference =
      (*big_engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(reference.ok());

  sim::Device::Options small;
  small.num_workers = 2;
  small.memory_capacity_bytes = 4 << 20;  // 4 MiB
  sim::Device device(small);
  auto engine = Engine::Create(EngineConfig()
                                   .Index(&workload.index)
                                   .K(5)
                                   .MaxCount(max_count)
                                   .Device(&device));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  SearchStreamOptions options;
  options.chunk_size = 0;  // derive from memory
  size_t chunks = 0;
  auto streamed = (*engine)->SearchStream(
      SearchRequest::Compiled(workload.queries), options,
      [&](const SearchChunk&) {
        ++chunks;
        return Status::OK();
      });
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_GE(chunks, 1u);
  ASSERT_EQ(streamed->queries.size(), reference->queries.size());
  for (size_t q = 0; q < reference->queries.size(); ++q) {
    EXPECT_EQ(HitCounts(streamed->queries[q]),
              HitCounts(reference->queries[q]))
        << "query " << q;
  }
}

TEST(SearchStreamTest, PointsModalityStreamsSlicedChunks) {
  // The points payload has no span slice; the stream materializes per-chunk
  // matrices. Streamed answers must equal the blocking ones.
  data::ClusteredPointsOptions data_options;
  data_options.num_points = 500;
  data_options.dim = 8;
  data_options.seed = 25;
  auto dataset = data::MakeClusteredPoints(data_options);
  auto engine = Engine::Create(EngineConfig()
                                   .Points(&dataset.points)
                                   .K(3)
                                   .HashFunctions(16)
                                   .RehashDomain(64)
                                   .Device(test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto queries = data::MakeQueriesNear(dataset.points, 11, 0.05, 26);
  auto blocking = (*engine)->Search(SearchRequest::Points(queries));
  ASSERT_TRUE(blocking.ok());
  SearchStreamOptions options;
  options.chunk_size = 3;
  auto streamed =
      (*engine)->SearchStream(SearchRequest::Points(queries), options);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_EQ(streamed->queries.size(), blocking->queries.size());
  for (size_t q = 0; q < blocking->queries.size(); ++q) {
    // Ids can differ between runs on match-count ties (concurrent c-PQ
    // updates); the count profile is the deterministic contract.
    EXPECT_EQ(HitCounts(streamed->queries[q]), HitCounts(blocking->queries[q]))
        << "query " << q;
    EXPECT_EQ(streamed->queries[q].threshold, blocking->queries[q].threshold);
  }
}

TEST(SearchStreamTest, ProfileDeltaAcrossMidStreamEscalation) {
  // Chunk 1 (few query items) fits beside the device-resident index; chunk 2
  // (many items per query -> wider counters, bigger c-PQ arenas) exhausts
  // device memory and escalates to multiple loading mid-stream. The chunk
  // deltas must show the switch, and every answer must stay correct.
  const uint32_t kNumObjects = 3000;
  const uint32_t kVocab = 100;
  auto workload = test::MakeRandomWorkload(kNumObjects, kVocab, 8, 0, 0, 27);
  const uint32_t kChunk = 8;
  Rng rng(28);
  std::vector<Query> queries;
  for (uint32_t q = 0; q < kChunk; ++q) {  // small queries: 2 items
    Query query;
    query.AddItem(static_cast<Keyword>(rng.UniformU64(kVocab)));
    query.AddItem(static_cast<Keyword>(rng.UniformU64(kVocab)));
    queries.push_back(std::move(query));
  }
  for (uint32_t q = 0; q < kChunk; ++q) {  // big queries: 48 distinct items
    std::set<Keyword> keywords;
    while (keywords.size() < 48) {
      keywords.insert(static_cast<Keyword>(rng.UniformU64(kVocab)));
    }
    Query query;
    for (Keyword kw : keywords) query.AddItem(kw);
    queries.push_back(std::move(query));
  }

  MatchEngineOptions sizing;
  sizing.k = 5;
  const uint64_t per_small =
      MatchEngine::DeviceBytesPerQuery(kNumObjects, sizing, 2);
  const uint64_t per_big =
      MatchEngine::DeviceBytesPerQuery(kNumObjects, sizing, 48);
  ASSERT_LT(per_small, per_big);
  sim::Device::Options capacity;
  capacity.num_workers = 4;
  // Index + the small chunk's arenas fit (with task-buffer headroom); the
  // big chunk's arenas do not.
  capacity.memory_capacity_bytes = workload.index.postings_bytes() +
                                   kChunk * (per_small + per_big) / 2;
  sim::Device device(capacity);

  auto engine = Engine::Create(
      EngineConfig().Index(&workload.index).K(5).Device(&device));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  SearchStreamOptions options;
  options.chunk_size = kChunk;
  std::vector<bool> chunk_multi_load;
  std::vector<uint32_t> chunk_parts;
  auto streamed = (*engine)->SearchStream(
      SearchRequest::Compiled(queries), options, [&](const SearchChunk& chunk) {
        chunk_multi_load.push_back(chunk.result.profile.used_multi_load);
        chunk_parts.push_back(chunk.result.profile.parts);
        return Status::OK();
      });
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

  ASSERT_EQ(chunk_multi_load.size(), 2u);
  EXPECT_FALSE(chunk_multi_load[0]);  // single load answered chunk 1
  EXPECT_EQ(chunk_parts[0], 1u);
  EXPECT_TRUE(chunk_multi_load[1]);  // chunk 2 escalated
  EXPECT_GT(chunk_parts[1], 1u);
  EXPECT_TRUE(streamed->profile.used_multi_load);
  EXPECT_TRUE(streamed->cumulative.used_multi_load);

  for (size_t q = 0; q < queries.size(); ++q) {
    const auto counts = test::BruteForceCounts(workload.index, queries[q]);
    EXPECT_EQ(HitCounts(streamed->queries[q]),
              test::TopKCountMultiset(counts, 5))
        << "query " << q;
  }
}

// ---------------------------------------------------------------------------
// Chunked execution of large query sets (the paper's Fig. 11 strategy)
// over a compiled engine.
// ---------------------------------------------------------------------------

TEST(BatchSchedulerTest, ChunkedEqualsSingleBatch) {
  auto workload = test::MakeRandomWorkload(500, 60, 8, 37, 5, 81);
  auto engine = Engine::Create(
      EngineConfig()
          .Index(&workload.index)
          .K(10)
          .MaxCount(MatchEngine::DeriveMaxCount(workload.queries))
          .Device(test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto single = (*engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(single.ok());
  SearchStreamOptions options;
  options.chunk_size = 8;  // 37 queries -> 5 uneven chunks
  size_t chunks = 0;
  auto chunked = (*engine)->SearchStream(
      SearchRequest::Compiled(workload.queries), options,
      [&](const SearchChunk&) {
        ++chunks;
        return Status::OK();
      });
  ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();
  EXPECT_EQ(chunks, 5u);
  ASSERT_EQ(chunked->queries.size(), single->queries.size());
  for (size_t q = 0; q < single->queries.size(); ++q) {
    EXPECT_EQ(HitCounts(chunked->queries[q]), HitCounts(single->queries[q]))
        << "query " << q;
  }
}

TEST(BatchSchedulerTest, EmptyQuerySetRejected) {
  // Streams enforce the same non-empty batch contract as MatchEngine /
  // PartitionedEngine / EngineBackend.
  auto workload = test::MakeRandomWorkload(50, 10, 3, 1, 2, 82);
  auto engine = Engine::Create(
      EngineConfig().Index(&workload.index).K(3).Device(
          test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok());
  auto results = (*engine)->SearchStream(SearchRequest::Compiled({}));
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kInvalidArgument);
}

TEST(BatchSchedulerTest, AutoBatchSizeFromMemoryBudget) {
  // A tiny device forces small auto-derived chunks; results must still
  // match a reference run on a large device.
  auto workload = test::MakeRandomWorkload(2000, 40, 6, 24, 4, 83);
  const EngineConfig reference_config =
      EngineConfig()
          .Index(&workload.index)
          .K(5)
          .MaxCount(MatchEngine::DeriveMaxCount(workload.queries))
          .Device(test::SharedTestDevice(4));
  auto reference_engine = Engine::Create(reference_config);
  ASSERT_TRUE(reference_engine.ok());
  auto reference =
      (*reference_engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(reference.ok());

  sim::Device::Options small;
  small.num_workers = 2;
  small.memory_capacity_bytes = 4 << 20;  // 4 MiB
  sim::Device small_device(small);
  EngineConfig config = reference_config;
  auto engine = Engine::Create(config.Device(&small_device));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  SearchStreamOptions options;
  options.chunk_size = 0;  // derive from memory
  options.memory_fraction = 0.5;
  auto results = (*engine)->SearchStream(
      SearchRequest::Compiled(workload.queries), options);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->queries.size(), reference->queries.size());
  for (size_t q = 0; q < results->queries.size(); ++q) {
    EXPECT_EQ(HitCounts(results->queries[q]),
              HitCounts(reference->queries[q]));
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
  auto engine = Engine::Create(
      EngineConfig()
          .Index(&workload.index)
          .K(5)
          .MaxCount(MatchEngine::DeriveMaxCount(workload.queries))
          .Device(&device));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  SearchStreamOptions options;
  options.chunk_size = 5;
  auto results = (*engine)->SearchStream(
      SearchRequest::Compiled(workload.queries), options);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_TRUE(results->profile.used_multi_load);
  ASSERT_EQ(results->queries.size(), workload.queries.size());
  for (size_t q = 0; q < results->queries.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    EXPECT_EQ(HitCounts(results->queries[q]),
              test::TopKCountMultiset(counts, 5))
        << "query " << q;
  }
}

TEST(SearchAsyncTest, DeliversSameResultsAsBlockingSearch) {
  auto workload = test::MakeRandomWorkload(500, 50, 6, 30, 4, 29);
  auto engine = Engine::Create(
      EngineConfig().Index(&workload.index).K(5).Device(
          test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok());

  auto blocking = (*engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(blocking.ok());

  SearchStreamOptions options;
  options.chunk_size = 7;
  auto future = (*engine)->SearchAsync(
      SearchRequest::Compiled(workload.queries), options);
  auto streamed = future.get();
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_EQ(streamed->queries.size(), blocking->queries.size());
  for (size_t q = 0; q < blocking->queries.size(); ++q) {
    EXPECT_EQ(HitCounts(streamed->queries[q]), HitCounts(blocking->queries[q]));
  }
}

TEST(SearchAsyncTest, EngineDestructionWaitsForOutstandingStreams) {
  // Dropping the engine with a stream in flight must not free the searcher
  // out from under it: the destructor blocks until the stream completes, so
  // the future is already resolved (and valid) afterwards.
  auto workload = test::MakeRandomWorkload(500, 50, 6, 20, 4, 31);
  std::future<Result<SearchResult>> future;
  {
    auto engine = Engine::Create(
        EngineConfig().Index(&workload.index).K(5).Device(
            test::SharedTestDevice(4)));
    ASSERT_TRUE(engine.ok());
    SearchStreamOptions options;
    options.chunk_size = 4;
    future = (*engine)->SearchAsync(SearchRequest::Compiled(workload.queries),
                                    options);
  }  // ~Engine
  auto streamed = future.get();
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_EQ(streamed->queries.size(), workload.queries.size());
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    EXPECT_EQ(HitCounts(streamed->queries[q]),
              test::TopKCountMultiset(counts, 5));
  }
}

TEST(SearchAsyncTest, EngineDestructionWaitsForOutstandingServedStreams) {
  // The serving variant: the stream's chunks are scheduler submissions,
  // and the destructor returns only after the future has resolved.
  auto workload = test::MakeRandomWorkload(500, 50, 6, 20, 4, 31);
  std::future<Result<SearchResult>> future;
  {
    auto engine = Engine::Create(EngineConfig()
                                     .Index(&workload.index)
                                     .K(5)
                                     .Device(test::SharedTestDevice(4))
                                     .Serving(ServingOptions{}));
    ASSERT_TRUE(engine.ok());
    SearchStreamOptions options;
    options.chunk_size = 4;
    future = (*engine)->SearchAsync(SearchRequest::Compiled(workload.queries),
                                    options);
  }  // ~Engine
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  auto streamed = future.get();
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_EQ(streamed->queries.size(), workload.queries.size());
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    EXPECT_EQ(HitCounts(streamed->queries[q]),
              test::TopKCountMultiset(counts, 5));
  }
}

TEST(SearchAsyncTest, ServedRequestsAreAdmittedWithoutAPoolThread) {
  // Every pool worker is parked, yet served SearchAsync calls still reach
  // the scheduler: admission runs on the calling thread, and only the
  // deliveries need a pool thread later.
  auto workload = test::MakeRandomWorkload(500, 50, 6, 19, 4, 34);
  const std::span<const Query> queries(workload.queries);
  const EngineConfig config =
      EngineConfig().Index(&workload.index).K(5).Device(
          test::SharedTestDevice(4));
  auto legacy = Engine::Create(config);
  ASSERT_TRUE(legacy.ok());
  EngineConfig serving_config = config;
  auto engine = Engine::Create(serving_config.Serving(ServingOptions{}));
  ASSERT_TRUE(engine.ok());

  ThreadPool* pool = DefaultThreadPool();
  test::Latch latch;  // destroyed before the engines, which wait on the pool
  std::atomic<size_t> parked{0};
  for (size_t i = 0; i < pool->num_threads(); ++i) {
    pool->Submit([gate = latch.gate(), &parked] {
      ++parked;
      gate.wait();
    });
  }
  ASSERT_TRUE(test::WaitUntil([&] { return parked == pool->num_threads(); }));

  constexpr size_t kSingles = 16;
  std::vector<std::future<Result<SearchResult>>> singles;
  for (size_t q = 0; q < kSingles; ++q) {
    singles.push_back(
        (*engine)->SearchAsync(SearchRequest::Compiled(queries.subspan(q, 1))));
  }
  SearchStreamOptions three_chunks;
  three_chunks.chunk_size = 1;
  auto stream = (*engine)->SearchAsync(
      SearchRequest::Compiled(queries.subspan(kSingles, 3)), three_chunks);

  // All singles plus the stream's first two chunks; the third waits for
  // chunk 0's delivery, which needs a pool thread.
  EXPECT_TRUE(test::WaitUntil(
      [&] { return (*engine)->serving_stats().submitted >= kSingles + 2; }));
  EXPECT_EQ((*engine)->serving_stats().submitted, kSingles + 2);
  latch.Release();

  for (size_t q = 0; q < kSingles; ++q) {
    auto got = singles[q].get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want =
        (*legacy)->Search(SearchRequest::Compiled(queries.subspan(q, 1)));
    ASSERT_TRUE(want.ok());
    test::ExpectSameAnswers(*got, *want, "single " + std::to_string(q));
  }
  auto got = stream.get();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want =
      (*legacy)->Search(SearchRequest::Compiled(queries.subspan(kSingles, 3)));
  ASSERT_TRUE(want.ok());
  test::ExpectSameAnswers(*got, *want, "stream");
  EXPECT_EQ((*engine)->serving_stats().submitted, kSingles + 3);
}

TEST(SearchAsyncTest, ConcurrentStreamsStayInOrderPerStream) {
  // Two async streams share one engine: chunks interleave at the engine's
  // discretion, but each stream must deliver its own chunks in input order
  // and produce the same answers as a blocking call.
  auto workload = test::MakeRandomWorkload(600, 50, 6, 24, 4, 30);
  auto engine = Engine::Create(
      EngineConfig().Index(&workload.index).K(5).Device(
          test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok());

  auto blocking = (*engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(blocking.ok());

  SearchStreamOptions options;
  options.chunk_size = 5;
  std::vector<size_t> order_a, order_b;
  auto future_a = (*engine)->SearchAsync(
      SearchRequest::Compiled(workload.queries), options,
      [&order_a](const SearchChunk& chunk) {
        order_a.push_back(chunk.first_query);
        return Status::OK();
      });
  auto future_b = (*engine)->SearchAsync(
      SearchRequest::Compiled(workload.queries), options,
      [&order_b](const SearchChunk& chunk) {
        order_b.push_back(chunk.first_query);
        return Status::OK();
      });
  auto result_a = future_a.get();
  auto result_b = future_b.get();
  ASSERT_TRUE(result_a.ok()) << result_a.status().ToString();
  ASSERT_TRUE(result_b.ok()) << result_b.status().ToString();

  const std::vector<size_t> expected{0, 5, 10, 15, 20};
  EXPECT_EQ(order_a, expected);
  EXPECT_EQ(order_b, expected);
  for (const auto* streamed : {&*result_a, &*result_b}) {
    ASSERT_EQ(streamed->queries.size(), blocking->queries.size());
    for (size_t q = 0; q < blocking->queries.size(); ++q) {
      EXPECT_EQ(HitCounts(streamed->queries[q]),
                HitCounts(blocking->queries[q]));
    }
  }
}

}  // namespace
}  // namespace genie
