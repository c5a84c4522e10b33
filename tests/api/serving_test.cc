/// Serving-layer acceptance suite: serving-on answers equal the legacy path
/// on every modality, cache hits short-circuit the backend, mutation /
/// compaction invalidates cached answers end-to-end, in-flight dedup
/// collapses identical concurrent submissions, backpressure rejects a
/// flooding tenant with ResourceExhausted, concurrent callers coalesce
/// into super-batches, and SearchAsync callbacks run off the dispatcher,
/// so a slow or throwing one hurts only its own request.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/genie.h"
#include "api_test_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/documents.h"
#include "data/points.h"
#include "data/relational_data.h"
#include "data/sequences.h"
#include "test_util.h"

namespace genie {
namespace {

using test::ExpectSameAnswers;

/// Low-latency serving knobs for single-caller equality tests: dispatch
/// essentially immediately, everything else at defaults.
ServingOptions FastServing() {
  ServingOptions serving;
  serving.max_queue_delay_s = 1e-4;
  return serving;
}

// ---------------------------------------------------------------------------
// Serving on == serving off, per modality.
// ---------------------------------------------------------------------------

void ExpectServingMatchesLegacy(const EngineConfig& base,
                                const SearchRequest& request,
                                const std::string& label) {
  auto legacy = Engine::Create(base);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EngineConfig serving_config = base;
  auto serving = Engine::Create(serving_config.Serving(FastServing()));
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();

  auto want = (*legacy)->Search(request);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto got = (*serving)->Search(request);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameAnswers(*got, *want, label);
  EXPECT_GE(got->profile.coalesced_batch, 1u) << label;
  EXPECT_EQ((*serving)->serving_stats().submitted, 1u) << label;

  // Streaming routes through the scheduler too (window-2 look-ahead);
  // chunked delivery must still equal the one-shot answer.
  SearchStreamOptions stream;
  stream.chunk_size = 3;
  auto streamed = (*serving)->SearchStream(request, stream);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ExpectSameAnswers(*streamed, *want, label + " streamed");
}

TEST(ServingTest, PointsMatchLegacy) {
  data::ClusteredPointsOptions data_options;
  data_options.num_points = 300;
  data_options.dim = 6;
  data_options.num_clusters = 6;
  data_options.seed = 301;
  auto dataset = data::MakeClusteredPoints(data_options);
  auto queries = data::MakeQueriesNear(dataset.points, 7, 0.1, 31);
  ExpectServingMatchesLegacy(EngineConfig()
                                 .Points(&dataset.points)
                                 .K(3)
                                 .HashFunctions(16)
                                 .RehashDomain(64)
                                 .Device(test::SharedTestDevice(4)),
                             SearchRequest::Points(queries), "points");
}

TEST(ServingTest, SetsMatchLegacy) {
  Rng rng(302);
  std::vector<std::vector<uint32_t>> sets(150);
  for (auto& set : sets) {
    for (int i = 0; i < 10; ++i) {
      set.push_back(static_cast<uint32_t>(rng.UniformU64(3000)));
    }
  }
  std::vector<std::vector<uint32_t>> queries{sets[0], sets[75], sets[149],
                                             sets[10], sets[20]};
  ExpectServingMatchesLegacy(EngineConfig()
                                 .Sets(&sets)
                                 .K(4)
                                 .HashFunctions(24)
                                 .RehashDomain(256)
                                 .Device(test::SharedTestDevice(4)),
                             SearchRequest::Sets(queries), "sets");
}

TEST(ServingTest, SequencesMatchLegacy) {
  data::SequenceDatasetOptions data_options;
  data_options.num_sequences = 200;
  data_options.min_length = 20;
  data_options.max_length = 30;
  data_options.seed = 303;
  auto sequences = data::MakeSequences(data_options);
  std::vector<std::string> queries{sequences[3], sequences[50], sequences[99],
                                   sequences[150], sequences[199]};
  ExpectServingMatchesLegacy(EngineConfig()
                                 .Sequences(&sequences)
                                 .K(1)
                                 .CandidateK(16)
                                 .Ngram(3)
                                 .Device(test::SharedTestDevice(4)),
                             SearchRequest::Sequences(queries), "sequences");
}

TEST(ServingTest, DocumentsMatchLegacy) {
  data::DocumentDatasetOptions data_options;
  data_options.num_documents = 300;
  data_options.vocabulary = 1500;
  data_options.seed = 304;
  auto corpus = data::MakeDocuments(data_options);
  std::vector<std::vector<uint32_t>> queries{corpus[7], corpus[100],
                                             corpus[200], corpus[299]};
  ExpectServingMatchesLegacy(
      EngineConfig().Documents(&corpus).K(3).Device(test::SharedTestDevice(4)),
      SearchRequest::Documents(queries), "documents");
}

TEST(ServingTest, RelationalMatchLegacy) {
  data::RelationalDatasetOptions data_options;
  data_options.num_rows = 1000;
  data_options.numeric_columns = 3;
  data_options.numeric_buckets = 32;
  data_options.categorical_columns = 2;
  data_options.categorical_cardinality = 6;
  data_options.seed = 305;
  auto table = data::MakeRelationalTable(data_options);
  auto queries = data::MakeRangeQueries(table, 6, 3, 5, 35);
  ExpectServingMatchesLegacy(
      EngineConfig().Table(&table).K(5).Device(test::SharedTestDevice(4)),
      SearchRequest::Ranges(queries), "relational");
}

TEST(ServingTest, CompiledMatchLegacy) {
  auto workload = test::MakeRandomWorkload(500, 50, 6, 8, 5, 306);
  ExpectServingMatchesLegacy(
      EngineConfig().Index(&workload.index).K(7).Device(
          test::SharedTestDevice(4)),
      SearchRequest::Compiled(workload.queries), "compiled");
}

// ---------------------------------------------------------------------------
// Hot-query cache.
// ---------------------------------------------------------------------------

TEST(ServingTest, CacheHitShortCircuitsBackend) {
  auto workload = test::MakeRandomWorkload(400, 40, 6, 6, 5, 307);
  auto engine = Engine::Create(
      EngineConfig().Index(&workload.index).K(5).Device(
          test::SharedTestDevice(4)).Serving(FastServing()));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const SearchRequest request = SearchRequest::Compiled(workload.queries);
  auto first = (*engine)->Search(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->profile.cache_hits, 0u);

  auto second = (*engine)->Search(request);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // The hit never touched the backend: every query answered from cache,
  // zero device stage time, and identical answers.
  EXPECT_EQ(second->profile.cache_hits, workload.queries.size());
  EXPECT_EQ(second->profile.match_s, 0.0);
  EXPECT_EQ(second->profile.coalesced_batch, 0u);
  ExpectSameAnswers(*second, *first, "cache hit");

  const ServingStats stats = (*engine)->serving_stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.executed_queries, workload.queries.size());
}

TEST(ServingTest, MutationInvalidatesCachedAnswers) {
  // Wide vocabulary + 6-item queries over 5-keyword objects: no indexed
  // object can match all 6 items, so the inserted full-match object is the
  // unique top hit (no boundary-tie ambiguity).
  auto workload = test::MakeRandomWorkload(300, 200, 5, 4, 6, 308);
  auto engine = Engine::Create(
      EngineConfig().Index(&workload.index).K(3).Device(
          test::SharedTestDevice(4)).Serving(FastServing()));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::vector<Query> probe{workload.queries[0]};
  const SearchRequest request = SearchRequest::Compiled(probe);
  auto before = (*engine)->Search(request);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE((*engine)->Search(request)->profile.cache_hits > 0)
      << "second identical query should have hit the cache";

  // Insert an object matching every keyword of the probe query — it must
  // dominate the next answer, so serving the cached answer would be stale.
  std::set<Keyword> object_keywords;
  for (uint32_t i = 0; i < probe[0].num_items(); ++i) {
    for (Keyword kw : probe[0].item(i)) object_keywords.insert(kw);
  }
  std::vector<std::vector<Keyword>> objects{
      {object_keywords.begin(), object_keywords.end()}};
  const ObjectId new_id = (*engine)->num_objects();
  auto inserted = (*engine)->Insert(InsertRequest::Objects(objects));
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();

  auto after_insert = (*engine)->Search(request);
  ASSERT_TRUE(after_insert.ok());
  EXPECT_EQ(after_insert->profile.cache_hits, 0u)
      << "insert must invalidate the cached answer";
  ASSERT_FALSE(after_insert->queries[0].hits.empty());
  EXPECT_EQ(after_insert->queries[0].hits[0].id, new_id);
  EXPECT_EQ(after_insert->queries[0].hits[0].match_count,
            probe[0].num_items());

  // The compaction hot-swap bumps the generation too: the first query after
  // Flush must re-execute, and its answers must match the pre-Flush live
  // answers (compaction changes the layout, not the answers).
  ASSERT_TRUE((*engine)->Flush().ok());
  auto after_flush = (*engine)->Search(request);
  ASSERT_TRUE(after_flush.ok());
  EXPECT_EQ(after_flush->profile.cache_hits, 0u)
      << "Flush must invalidate the cached answer";
  ExpectSameAnswers(*after_flush, *after_insert, "post-flush");
}

// ---------------------------------------------------------------------------
// In-flight dedup, backpressure, coalescing.
// ---------------------------------------------------------------------------

TEST(ServingTest, InflightDedupCollapsesIdenticalSubmissions) {
  auto workload = test::MakeRandomWorkload(300, 30, 5, 4, 3, 309);
  ServingOptions serving;
  serving.max_queue_delay_s = 0.3;  // hold the leader queued while followers arrive
  serving.target_batch = 1u << 20;  // never dispatch on size
  auto engine = Engine::Create(
      EngineConfig().Index(&workload.index).K(3).Device(
          test::SharedTestDevice(4)).Serving(serving));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  constexpr int kCallers = 8;
  std::vector<Result<SearchResult>> results(kCallers,
                                            Status::Internal("never ran"));
  {
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        results[c] =
            (*engine)->Search(SearchRequest::Compiled(workload.queries));
      });
    }
    for (auto& t : callers) t.join();
  }
  for (int c = 1; c < kCallers; ++c) {
    ASSERT_TRUE(results[c].ok()) << results[c].status().ToString();
    ExpectSameAnswers(*results[c], *results[0], "dedup follower");
  }
  const ServingStats stats = (*engine)->serving_stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kCallers));
  // All callers raced into the 0.3 s window: one leader executed, the rest
  // either joined it or (a late few) hit the cache its answer populated.
  EXPECT_GE(stats.dedup_followers + stats.cache_hits,
            static_cast<uint64_t>(kCallers - 1));
  EXPECT_EQ(stats.executed_queries, workload.queries.size());
}

TEST(ServingTest, BackpressureRejectsFloodWithResourceExhausted) {
  auto workload = test::MakeRandomWorkload(300, 30, 5, 16, 3, 310);
  ServingOptions serving;
  serving.max_queue_delay_s = 0.3;
  serving.target_batch = 1u << 20;
  serving.max_pending_per_tenant = 2;
  serving.cache_capacity = 0;    // no short-circuits:
  serving.dedup_inflight = false;  // every submission must queue
  auto engine = Engine::Create(
      EngineConfig().Index(&workload.index).K(3).Device(
          test::SharedTestDevice(4)).Serving(serving));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  constexpr int kCallers = 8;
  std::atomic<int> rejected{0}, accepted{0};
  {
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        std::vector<Query> one{workload.queries[c % workload.queries.size()]};
        auto result = (*engine)->Search(
            SearchRequest::Compiled(one).Tenant(42));
        if (result.ok()) {
          ++accepted;
        } else {
          EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
              << result.status().ToString();
          ++rejected;
        }
      });
    }
    for (auto& t : callers) t.join();
  }
  // All 8 submissions race into one 0.3 s window on a queue bounded at 2:
  // some must have been rejected, and the rejections are visible in stats.
  EXPECT_GE(rejected.load(), 1);
  EXPECT_GE(accepted.load(), 2);
  EXPECT_EQ((*engine)->serving_stats().rejected,
            static_cast<uint64_t>(rejected.load()));
}

TEST(ServingTest, ConcurrentCallersCoalesceIntoSuperBatches) {
  auto workload = test::MakeRandomWorkload(400, 40, 6, 16, 5, 311);
  ServingOptions serving;
  serving.max_queue_delay_s = 0.3;
  serving.cache_capacity = 0;
  serving.dedup_inflight = false;
  auto engine = Engine::Create(
      EngineConfig().Index(&workload.index).K(5).Device(
          test::SharedTestDevice(4)).Serving(serving));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto legacy = Engine::Create(EngineConfig().Index(&workload.index).K(5).Device(
      test::SharedTestDevice(4)));
  ASSERT_TRUE(legacy.ok());

  constexpr int kCallers = 6;
  std::vector<Result<SearchResult>> results(kCallers,
                                            Status::Internal("never ran"));
  {
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        // Distinct single-query submissions from distinct tenants.
        std::vector<Query> one{workload.queries[c]};
        results[c] = (*engine)->Search(
            SearchRequest::Compiled(one).Tenant(static_cast<uint64_t>(c)));
      });
    }
    for (auto& t : callers) t.join();
  }
  uint32_t max_coalesced = 0;
  for (int c = 0; c < kCallers; ++c) {
    ASSERT_TRUE(results[c].ok()) << results[c].status().ToString();
    // Each caller's answer equals its own legacy per-request execution.
    std::vector<Query> one{workload.queries[c]};
    auto want = (*legacy)->Search(SearchRequest::Compiled(one));
    ASSERT_TRUE(want.ok());
    ExpectSameAnswers(*results[c], *want, "coalesced caller");
    max_coalesced = std::max(max_coalesced, results[c]->profile.coalesced_batch);
    EXPECT_GE(results[c]->profile.queue_seconds, 0.0);
  }
  const ServingStats stats = (*engine)->serving_stats();
  EXPECT_EQ(stats.coalesced_requests, static_cast<uint64_t>(kCallers));
  EXPECT_GE(max_coalesced, 2u)
      << "callers racing into one 0.3 s window should share a super-batch";
  EXPECT_LT(stats.batches, static_cast<uint64_t>(kCallers));
  EXPECT_GT(stats.total_queue_seconds, 0.0);
}

TEST(ServingTest, SearchAsyncRoutesThroughScheduler) {
  auto workload = test::MakeRandomWorkload(400, 40, 6, 10, 5, 312);
  auto engine = Engine::Create(
      EngineConfig().Index(&workload.index).K(5).Device(
          test::SharedTestDevice(4)).Serving(FastServing()));
  ASSERT_TRUE(engine.ok());
  auto legacy = Engine::Create(EngineConfig().Index(&workload.index).K(5).Device(
      test::SharedTestDevice(4)));
  ASSERT_TRUE(legacy.ok());

  SearchStreamOptions stream;
  stream.chunk_size = 4;
  auto future =
      (*engine)->SearchAsync(SearchRequest::Compiled(workload.queries), stream);
  auto want = (*legacy)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(want.ok());
  auto got = future.get();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameAnswers(*got, *want, "async serving");
  EXPECT_GE((*engine)->serving_stats().submitted, 2u);  // >= two chunks
}

// ---------------------------------------------------------------------------
// SearchAsync callbacks run as pool tasks, never on the dispatcher.
// ---------------------------------------------------------------------------

/// Serving that executes every submission: no cache, no dedup.
ServingOptions ExecuteEverything(double max_queue_delay_s) {
  ServingOptions serving;
  serving.max_queue_delay_s = max_queue_delay_s;
  serving.cache_capacity = 0;
  serving.dedup_inflight = false;
  return serving;
}

TEST(ServingTest, SlowCallbackDoesNotStallOtherTenants) {
  if (DefaultThreadPool()->num_threads() < 2) {
    GTEST_SKIP() << "needs a second pool thread for the other tenant";
  }
  auto workload = test::MakeRandomWorkload(400, 40, 6, 2, 5, 313);
  const EngineConfig config =
      EngineConfig().Index(&workload.index).K(5).Device(
          test::SharedTestDevice(4));
  auto legacy = Engine::Create(config);
  ASSERT_TRUE(legacy.ok());
  EngineConfig serving_config = config;
  auto engine =
      Engine::Create(serving_config.Serving(ExecuteEverything(1e-4)));
  ASSERT_TRUE(engine.ok());

  test::Latch latch;  // destroyed before the engine, which waits for A
  std::atomic<bool> a_blocked{false};
  std::vector<Query> query_a{workload.queries[0]};
  std::vector<Query> query_b{workload.queries[1]};
  auto future_a = (*engine)->SearchAsync(
      SearchRequest::Compiled(query_a).Tenant(1), {},
      [gate = latch.gate(), &a_blocked](const SearchChunk&) {
        a_blocked = true;
        gate.wait();
        return Status::OK();
      });
  ASSERT_TRUE(test::WaitUntil([&] { return a_blocked.load(); }));

  auto future_b =
      (*engine)->SearchAsync(SearchRequest::Compiled(query_b).Tenant(2));
  ASSERT_EQ(future_b.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "tenant B waited for tenant A's callback";
  EXPECT_NE(future_a.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  auto got_b = future_b.get();
  ASSERT_TRUE(got_b.ok()) << got_b.status().ToString();
  auto want_b = (*legacy)->Search(SearchRequest::Compiled(query_b));
  ASSERT_TRUE(want_b.ok());
  ExpectSameAnswers(*got_b, *want_b, "tenant B");

  latch.Release();
  auto got_a = future_a.get();
  ASSERT_TRUE(got_a.ok()) << got_a.status().ToString();
  auto want_a = (*legacy)->Search(SearchRequest::Compiled(query_a));
  ASSERT_TRUE(want_a.ok());
  ExpectSameAnswers(*got_a, *want_a, "tenant A");
}

TEST(ServingTest, ThrowingCallbackFailsOnlyItsOwnRequest) {
  auto workload = test::MakeRandomWorkload(400, 40, 6, 2, 5, 314);
  const EngineConfig config =
      EngineConfig().Index(&workload.index).K(5).Device(
          test::SharedTestDevice(4));
  auto legacy = Engine::Create(config);
  ASSERT_TRUE(legacy.ok());
  EngineConfig serving_config = config;
  // A 0.3 s window that never fills: both requests share one super-batch.
  auto engine = Engine::Create(serving_config.Serving(ExecuteEverything(0.3)));
  ASSERT_TRUE(engine.ok());

  std::vector<Query> query_x{workload.queries[0]};
  std::vector<Query> query_y{workload.queries[1]};
  auto future_x = (*engine)->SearchAsync(
      SearchRequest::Compiled(query_x).Tenant(1), {},
      [](const SearchChunk&) -> Status {
        throw std::runtime_error("consumer crashed");
      });
  auto future_y =
      (*engine)->SearchAsync(SearchRequest::Compiled(query_y).Tenant(2));

  EXPECT_THROW((void)future_x.get(), std::runtime_error);
  auto got_y = future_y.get();
  ASSERT_TRUE(got_y.ok()) << got_y.status().ToString();
  EXPECT_EQ(got_y->profile.coalesced_batch, 2u);
  auto want_y = (*legacy)->Search(SearchRequest::Compiled(query_y));
  ASSERT_TRUE(want_y.ok());
  ExpectSameAnswers(*got_y, *want_y, "coalesced neighbour");
  engine->reset();  // ~Engine returns: the throwing stream has resolved
}

TEST(ServingTest, AsyncStreamCallbackErrorStopsAndDrains) {
  auto workload = test::MakeRandomWorkload(400, 40, 5, 20, 4, 315);
  auto engine = Engine::Create(
      EngineConfig().Index(&workload.index).K(3).Device(
          test::SharedTestDevice(4)).Serving(FastServing()));
  ASSERT_TRUE(engine.ok());

  SearchStreamOptions options;
  options.chunk_size = 4;  // 20 queries -> 5 chunks
  std::vector<size_t> delivered;
  auto future = (*engine)->SearchAsync(
      SearchRequest::Compiled(workload.queries), options,
      [&delivered](const SearchChunk& chunk) {
        delivered.push_back(chunk.index);
        if (chunk.index == 1) return Status::Internal("consumer gave up");
        return Status::OK();
      });
  auto result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(result.status().message(), "consumer gave up");
  EXPECT_EQ(delivered, (std::vector<size_t>{0, 1}));

  // Chunk 2 was admitted when chunk 0 was delivered; nothing after the
  // failure. Every admitted chunk had completed before the future resolved.
  const ServingStats stats = (*engine)->serving_stats();
  EXPECT_LE(stats.submitted, 3u);
  EXPECT_EQ(stats.coalesced_requests + stats.cache_hits +
                stats.dedup_followers,
            stats.submitted);
}

}  // namespace
}  // namespace genie
