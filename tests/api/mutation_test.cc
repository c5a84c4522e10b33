/// Live-mutation acceptance suite: insert/remove/flush visibility on every
/// modality, search-equals-rebuilt-engine equality after arbitrary mutation
/// sequences, compaction hot-swap under concurrent pipelined streams on a
/// 2-device engine, and GNIEBNDL v2 save/reopen incl. crash recovery.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/genie.h"
#include "api_test_util.h"
#include "common/rng.h"
#include "data/documents.h"
#include "data/points.h"
#include "data/relational_data.h"
#include "data/sequences.h"
#include "sa/edit_distance.h"
#include "test_util.h"

namespace genie {
namespace {

using test::ExpectSameAnswers;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Version field of a GNIEBNDL file (u32 after the 8-byte magic).
uint32_t BundleVersion(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  return in ? version : 0;
}

/// Per-object keyword lists of a built index (postings, transposed).
std::vector<std::vector<Keyword>> ObjectKeywords(const InvertedIndex& index) {
  std::vector<std::vector<Keyword>> per(index.num_objects());
  for (Keyword kw = 0; kw < index.vocab_size(); ++kw) {
    auto [first, count] = index.KeywordLists(kw);
    for (uint32_t l = 0; l < count; ++l) {
      const auto ref = index.List(first + l);
      for (uint32_t pos = ref.begin; pos < ref.end; ++pos) {
        per[index.postings()[pos]].push_back(kw);
      }
    }
  }
  return per;
}

/// The rebuild-from-scratch reference: base + appended objects, removed ids
/// indexed as empty objects (they can never match).
InvertedIndex RebuildIndex(const std::vector<std::vector<Keyword>>& base,
                           const std::vector<std::vector<Keyword>>& appended,
                           const std::set<ObjectId>& removed, uint32_t vocab) {
  for (const auto& kws : appended) {
    for (Keyword kw : kws) vocab = std::max(vocab, kw + 1);
  }
  InvertedIndexBuilder builder(vocab);
  auto add = [&](ObjectId id, const std::vector<Keyword>& kws) {
    if (removed.count(id) != 0) return;
    for (Keyword kw : kws) builder.Add(id, kw);
  };
  for (size_t i = 0; i < base.size(); ++i) {
    add(static_cast<ObjectId>(i), base[i]);
  }
  for (size_t i = 0; i < appended.size(); ++i) {
    add(static_cast<ObjectId>(base.size() + i), appended[i]);
  }
  return std::move(builder).Build().ValueOrDie();
}

std::vector<std::vector<Keyword>> RandomObjects(uint32_t count,
                                                uint32_t vocab,
                                                uint32_t keywords, Rng* rng) {
  std::vector<std::vector<Keyword>> objects(count);
  for (auto& object : objects) {
    std::set<Keyword> distinct;
    while (distinct.size() < keywords) {
      distinct.insert(static_cast<Keyword>(rng->UniformU64(vocab)));
    }
    object.assign(distinct.begin(), distinct.end());
  }
  return objects;
}

bool HitsContain(const QueryHits& hits, ObjectId id) {
  for (const Hit& hit : hits.hits) {
    if (hit.id == id) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Insert / remove / flush visibility per modality.
// ---------------------------------------------------------------------------

TEST(MutationTest, PointsInsertRemoveFlushVisible) {
  data::ClusteredPointsOptions data_options;
  data_options.num_points = 300;
  data_options.dim = 6;
  data_options.num_clusters = 6;
  data_options.seed = 201;
  auto dataset = data::MakeClusteredPoints(data_options);

  auto engine = Engine::Create(EngineConfig()
                                   .Points(&dataset.points)
                                   .K(3)
                                   .HashFunctions(16)
                                   .RehashDomain(64)
                                   .DeltaSealThreshold(1)  // seal every insert
                                   .AutoCompactSegments(0)
                                   .Device(test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Far outside the clustered base data: no base point can tie the new
  // rows on every hash function (ties would win on lower id).
  data::PointMatrix new_points(2, 6);
  for (uint32_t r = 0; r < 2; ++r) {
    for (float& v : new_points.mutable_row(r)) {
      v = 100.0f * static_cast<float>(r + 1);
    }
  }
  auto ids = (*engine)->Insert(InsertRequest::Points(new_points));
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids->size(), 2u);
  EXPECT_EQ((*ids)[0], 300u);
  EXPECT_EQ((*ids)[1], 301u);
  EXPECT_EQ((*engine)->num_objects(), 302u);

  // A query identical to an inserted point collides on every function.
  auto result = (*engine)->Search(SearchRequest::Points(new_points));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (size_t q = 0; q < 2; ++q) {
    ASSERT_FALSE(result->queries[q].hits.empty());
    EXPECT_EQ(result->queries[q].hits[0].id, 300u + q);
    EXPECT_EQ(result->queries[q].hits[0].match_count, 16u);
    EXPECT_DOUBLE_EQ(result->queries[q].hits[0].score, 1.0);
  }

  ASSERT_TRUE((*engine)->Remove(std::vector<ObjectId>{300}).ok());
  result = (*engine)->Search(SearchRequest::Points(new_points));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(HitsContain(result->queries[0], 300));
  EXPECT_TRUE(HitsContain(result->queries[1], 301));

  // Flush folds the delta into a fresh main index; answers are unchanged,
  // the inserted point survives, the removed one stays gone.
  ASSERT_TRUE((*engine)->Flush().ok());
  EXPECT_GE((*engine)->mutation_stats().compactions, 1u);
  auto after = (*engine)->Search(SearchRequest::Points(new_points));
  ASSERT_TRUE(after.ok());
  ExpectSameAnswers(*after, *result, "points flush");
  EXPECT_EQ((*engine)->num_objects(), 302u);

  // Exact re-ranking reads the appended row storage after compaction.
  EXPECT_EQ(after->queries[1].hits[0].id, 301u);
}

TEST(MutationTest, SetsInsertRemoveVisible) {
  Rng rng(203);
  std::vector<std::vector<uint32_t>> sets(150);
  for (auto& set : sets) {
    for (int i = 0; i < 10; ++i) {
      set.push_back(static_cast<uint32_t>(rng.UniformU64(4000)));
    }
  }
  auto engine = Engine::Create(EngineConfig()
                                   .Sets(&sets)
                                   .K(3)
                                   .HashFunctions(24)
                                   .RehashDomain(256)
                                   .Device(test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::vector<std::vector<uint32_t>> new_sets(1);
  for (int i = 0; i < 10; ++i) {
    new_sets[0].push_back(static_cast<uint32_t>(rng.UniformU64(4000)));
  }
  auto ids = (*engine)->Insert(InsertRequest::Sets(new_sets));
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ((*ids)[0], 150u);

  auto result = (*engine)->Search(SearchRequest::Sets(new_sets));
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->queries[0].hits.empty());
  EXPECT_EQ(result->queries[0].hits[0].id, 150u);
  EXPECT_EQ(result->queries[0].hits[0].match_count, 24u);

  ASSERT_TRUE((*engine)->Remove(std::vector<ObjectId>{150}).ok());
  result = (*engine)->Search(SearchRequest::Sets(new_sets));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(HitsContain(result->queries[0], 150));
}

TEST(MutationTest, SequencesInsertGrowsVocabularyAndVerifies) {
  data::SequenceDatasetOptions data_options;
  data_options.num_sequences = 200;
  data_options.min_length = 20;
  data_options.max_length = 30;
  data_options.seed = 204;
  auto sequences = data::MakeSequences(data_options);

  auto engine = Engine::Create(EngineConfig()
                                   .Sequences(&sequences)
                                   .K(1)
                                   .CandidateK(16)
                                   .Ngram(3)
                                   .Device(test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Novel characters -> novel n-grams: the vocabulary must grow for the
  // inserted sequence to be findable at edit distance 0.
  std::vector<std::string> inserted{"zzqzzqzzqzzqzzqzzqzzq"};
  auto ids = (*engine)->Insert(InsertRequest::Sequences(inserted));
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ((*ids)[0], 200u);

  auto result = (*engine)->Search(SearchRequest::Sequences(inserted));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->queries[0].hits.empty());
  EXPECT_EQ(result->queries[0].hits[0].id, 200u);
  EXPECT_DOUBLE_EQ(result->queries[0].hits[0].score, 0.0);  // edit dist 0

  ASSERT_TRUE((*engine)->Remove(std::vector<ObjectId>{200}).ok());
  result = (*engine)->Search(SearchRequest::Sequences(inserted));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(HitsContain(result->queries[0], 200));
}

TEST(MutationTest, DocumentsInsertVisibleBeyondBaseVocabulary) {
  data::DocumentDatasetOptions data_options;
  data_options.num_documents = 250;
  data_options.vocabulary = 1500;
  data_options.seed = 205;
  auto corpus = data::MakeDocuments(data_options);

  auto engine = Engine::Create(EngineConfig().Documents(&corpus).K(3).Device(
      test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Tokens 3000+ lie beyond the base vocabulary; the frozen index must
  // ignore them safely while the delta matches them.
  std::vector<std::vector<uint32_t>> docs{{3000, 3001, 3002, 7, 11}};
  auto ids = (*engine)->Insert(InsertRequest::Documents(docs));
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ((*ids)[0], 250u);

  auto result = (*engine)->Search(SearchRequest::Documents(docs));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->queries[0].hits.empty());
  EXPECT_EQ(result->queries[0].hits[0].id, 250u);
  EXPECT_EQ(result->queries[0].hits[0].match_count, 5u);

  ASSERT_TRUE((*engine)->Flush().ok());
  result = (*engine)->Search(SearchRequest::Documents(docs));
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->queries[0].hits.empty());
  EXPECT_EQ(result->queries[0].hits[0].id, 250u);
  EXPECT_EQ(result->queries[0].hits[0].match_count, 5u);
}

TEST(MutationTest, RelationalInsertRemoveVisible) {
  data::RelationalDatasetOptions data_options;
  data_options.num_rows = 800;
  data_options.numeric_columns = 3;
  data_options.numeric_buckets = 64;
  data_options.categorical_columns = 2;
  data_options.categorical_cardinality = 6;
  data_options.seed = 206;
  auto table = data::MakeRelationalTable(data_options);

  auto engine = Engine::Create(
      EngineConfig().Table(&table).K(10).Device(test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::vector<std::vector<uint32_t>> rows{{63, 0, 63, 5, 5}};
  auto ids = (*engine)->Insert(InsertRequest::Rows(rows));
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ((*ids)[0], 800u);

  // A range query pinned to the inserted row's exact values: the new row
  // satisfies every predicate.
  sa::RangeQuery query;
  for (uint32_t c = 0; c < 5; ++c) {
    query.items.push_back({c, rows[0][c], rows[0][c]});
  }
  std::vector<sa::RangeQuery> queries{query};
  auto result = (*engine)->Search(SearchRequest::Ranges(queries));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->queries[0].hits.empty());
  EXPECT_EQ(result->queries[0].hits[0].id, 800u);
  EXPECT_EQ(result->queries[0].hits[0].match_count, 5u);

  // Out-of-cardinality values are rejected before any row is assigned.
  std::vector<std::vector<uint32_t>> bad{{64, 0, 0, 0, 0}};
  EXPECT_EQ((*engine)->Insert(InsertRequest::Rows(bad)).status().code(),
            StatusCode::kOutOfRange);

  ASSERT_TRUE((*engine)->Remove(std::vector<ObjectId>{800}).ok());
  result = (*engine)->Search(SearchRequest::Ranges(queries));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(HitsContain(result->queries[0], 800));
}

TEST(MutationTest, CompiledRemoveContractAndBaseIds) {
  auto workload = test::MakeRandomWorkload(300, 50, 6, 6, 4, 207);
  auto engine = Engine::Create(EngineConfig()
                                   .Index(&workload.index)
                                   .K(5)
                                   .Device(test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Removing a base-dataset id on a never-mutated engine tombstones it.
  auto before = (*engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->queries[0].hits.empty());
  const ObjectId victim = before->queries[0].hits[0].id;
  ASSERT_TRUE((*engine)->Remove(std::vector<ObjectId>{victim}).ok());
  auto after = (*engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(after.ok());
  for (const QueryHits& hits : after->queries) {
    EXPECT_FALSE(HitsContain(hits, victim));
  }

  // Double-remove and never-assigned ids are InvalidArgument.
  EXPECT_EQ((*engine)->Remove(std::vector<ObjectId>{victim}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*engine)->Remove(std::vector<ObjectId>{100000}).code(),
            StatusCode::kInvalidArgument);

  const MutationStats stats = (*engine)->mutation_stats();
  EXPECT_EQ(stats.removes, 1u);
  EXPECT_EQ(stats.inserts, 0u);

  // The removal record survives compaction — and a Save/Open on top of the
  // compacted state: re-removing a folded-out id stays InvalidArgument.
  ASSERT_TRUE((*engine)->Flush().ok());
  EXPECT_EQ((*engine)->Remove(std::vector<ObjectId>{victim}).code(),
            StatusCode::kInvalidArgument);
  const std::string path = TempPath("genie_mutation_folded_remove.gnb");
  ASSERT_TRUE((*engine)->Save(path).ok());
  auto reopened = Engine::Open(path, EngineConfig().K(5).Device(
                                         test::SharedTestDevice(4)));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Remove(std::vector<ObjectId>{victim}).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Equality with a rebuild-from-scratch engine after mutation sequences.
// ---------------------------------------------------------------------------

TEST(MutationTest, CompiledMutationSequenceEqualsRebuiltEngine) {
  auto workload = test::MakeRandomWorkload(400, 60, 6, 10, 5, 208);
  const auto base = ObjectKeywords(workload.index);
  Rng rng(209);

  for (const uint32_t devices : test::DeviceSweep()) {
    auto engine = Engine::Create(EngineConfig()
                                     .Index(&workload.index)
                                     .K(6)
                                     .DeltaSealThreshold(16)
                                     .AutoCompactSegments(0)
                                     .Devices(devices)
                                     .Device(test::SharedTestDevice(2)));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    std::vector<std::vector<Keyword>> appended;
    std::set<ObjectId> removed;
    for (int round = 0; round < 4; ++round) {
      // Insert a batch...
      auto fresh = RandomObjects(24, 60, 6, &rng);
      auto ids = (*engine)->Insert(InsertRequest::Objects(fresh));
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      appended.insert(appended.end(), fresh.begin(), fresh.end());
      // ...remove a few base and inserted ids...
      const uint32_t total = 400 + static_cast<uint32_t>(appended.size());
      for (int r = 0; r < 6; ++r) {
        const ObjectId id = static_cast<ObjectId>(rng.UniformU64(total));
        if (removed.count(id) != 0) continue;
        removed.insert(id);
        ASSERT_TRUE((*engine)->Remove(std::vector<ObjectId>{id}).ok());
      }
      // ...occasionally compact, so rounds alternate delta and main state.
      if (round == 1) {
        ASSERT_TRUE((*engine)->Flush().ok());
      }

      const InvertedIndex rebuilt =
          RebuildIndex(base, appended, removed, workload.index.vocab_size());
      auto reference = Engine::Create(EngineConfig()
                                          .Index(&rebuilt)
                                          .K(6)
                                          .Devices(devices)
                                          .Device(test::SharedTestDevice(2)));
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();

      auto got = (*engine)->Search(SearchRequest::Compiled(workload.queries));
      auto want =
          (*reference)->Search(SearchRequest::Compiled(workload.queries));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ExpectSameAnswers(*got, *want,
                        "round " + std::to_string(round) + " at " +
                            std::to_string(devices) + " devices");
    }
    EXPECT_EQ((*engine)->num_objects(), 400u + appended.size());
  }
}

TEST(MutationTest, PointsInsertsEqualRebuiltEngine) {
  data::ClusteredPointsOptions data_options;
  data_options.num_points = 250;
  data_options.dim = 6;
  data_options.num_clusters = 5;
  data_options.seed = 210;
  auto dataset = data::MakeClusteredPoints(data_options);
  auto inserted = data::MakeQueriesNear(dataset.points, 30, 0.3, 211);
  auto queries = data::MakeQueriesNear(dataset.points, 8, 0.1, 212);

  auto make_config = [&](const data::PointMatrix* points) {
    return EngineConfig()
        .Points(points)
        .K(4)
        .HashFunctions(16)
        .RehashDomain(64)
        .Seed(213)  // same family + rehash coefficients on both engines
        .DeltaSealThreshold(8)
        .AutoCompactSegments(0)
        .Device(test::SharedTestDevice(2));
  };

  auto engine = Engine::Create(make_config(&dataset.points));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto ids = (*engine)->Insert(InsertRequest::Points(inserted));
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();

  // The rebuild-from-scratch reference: base and inserted rows in one
  // matrix, same ids.
  data::PointMatrix combined(280, 6);
  for (uint32_t i = 0; i < 250; ++i) {
    auto from = dataset.points.row(i);
    std::copy(from.begin(), from.end(), combined.mutable_row(i).begin());
  }
  for (uint32_t i = 0; i < 30; ++i) {
    auto from = inserted.row(i);
    std::copy(from.begin(), from.end(), combined.mutable_row(250 + i).begin());
  }
  auto reference = Engine::Create(make_config(&combined));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  auto got = (*engine)->Search(SearchRequest::Points(queries));
  auto want = (*reference)->Search(SearchRequest::Points(queries));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ExpectSameAnswers(*got, *want, "delta overlay vs rebuilt points engine");

  // And after compaction the swapped-in index answers identically too.
  ASSERT_TRUE((*engine)->Flush().ok());
  auto compacted = (*engine)->Search(SearchRequest::Points(queries));
  ASSERT_TRUE(compacted.ok());
  ExpectSameAnswers(*compacted, *want, "compacted vs rebuilt points engine");
}

// ---------------------------------------------------------------------------
// Concurrent mutation racing pipelined streams (2-device engine).
// ---------------------------------------------------------------------------

TEST(MutationTest, MutationsRacingPipelinedStreamOnTwoDevices) {
  auto workload = test::MakeRandomWorkload(400, 60, 6, 40, 5, 214);
  const auto base = ObjectKeywords(workload.index);

  auto engine = Engine::Create(EngineConfig()
                                   .Index(&workload.index)
                                   .K(6)
                                   .DeltaSealThreshold(16)
                                   .AutoCompactSegments(2)  // swaps mid-test
                                   .Devices(2)
                                   .Device(test::SharedTestDevice(2)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // A long pipelined stream kept in flight across every mutation round.
  std::vector<Query> cycled;
  for (int i = 0; i < 2000; ++i) {
    cycled.push_back(workload.queries[i % workload.queries.size()]);
  }
  SearchStreamOptions stream_options;
  stream_options.chunk_size = 64;
  stream_options.pipeline = true;
  std::mutex chunk_mu;
  size_t chunks_seen = 0;
  size_t queries_seen = 0;
  auto future = (*engine)->SearchAsync(
      SearchRequest::Compiled(cycled), stream_options,
      [&](const SearchChunk& chunk) {
        std::lock_guard<std::mutex> lock(chunk_mu);
        ++chunks_seen;
        queries_seen += chunk.result.queries.size();
        // No dropped or duplicated results inside any chunk: per query the
        // ids are unique and counts are sorted the engine's way.
        for (const QueryHits& hits : chunk.result.queries) {
          std::set<ObjectId> ids;
          for (const Hit& hit : hits.hits) {
            EXPECT_TRUE(ids.insert(hit.id).second) << "duplicate id";
          }
          EXPECT_LE(hits.hits.size(), 6u);
          for (size_t i = 1; i < hits.hits.size(); ++i) {
            EXPECT_GE(hits.hits[i - 1].match_count, hits.hits[i].match_count);
          }
        }
        return Status::OK();
      });

  // Writer thread: rounds of inserts + removes, pausing at a barrier after
  // each round so the main thread can compare against a rebuilt engine at
  // a quiesce point (stream still in flight).
  std::mutex mu;
  std::condition_variable cv;
  int rounds_done = 0;
  bool resume = true;
  std::vector<std::vector<Keyword>> appended;
  std::set<ObjectId> removed;
  constexpr int kRounds = 3;

  Rng rng(215);
  std::thread writer([&] {
    for (int round = 0; round < kRounds; ++round) {
      auto fresh = RandomObjects(40, 60, 6, &rng);
      {
        auto ids = (*engine)->Insert(InsertRequest::Objects(fresh));
        ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      }
      std::vector<ObjectId> victims;
      const uint32_t total =
          400 + static_cast<uint32_t>(appended.size() + fresh.size());
      for (int r = 0; r < 5; ++r) {
        const ObjectId id = static_cast<ObjectId>(rng.UniformU64(total));
        if (removed.count(id) != 0) continue;
        removed.insert(id);
        victims.push_back(id);
      }
      for (const ObjectId id : victims) {
        ASSERT_TRUE((*engine)->Remove(std::vector<ObjectId>{id}).ok());
      }
      appended.insert(appended.end(), fresh.begin(), fresh.end());

      std::unique_lock<std::mutex> lock(mu);
      resume = false;
      ++rounds_done;
      cv.notify_all();
      cv.wait(lock, [&] { return resume; });
    }
  });

  for (int round = 0; round < kRounds; ++round) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return rounds_done == round + 1; });
    }
    // Quiesce point: the writer is parked, the stream keeps flowing.
    const InvertedIndex rebuilt =
        RebuildIndex(base, appended, removed, workload.index.vocab_size());
    auto reference = Engine::Create(EngineConfig()
                                        .Index(&rebuilt)
                                        .K(6)
                                        .Devices(2)
                                        .Device(test::SharedTestDevice(2)));
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    auto got = (*engine)->Search(SearchRequest::Compiled(workload.queries));
    auto want =
        (*reference)->Search(SearchRequest::Compiled(workload.queries));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ExpectSameAnswers(*got, *want, "quiesce point " + std::to_string(round));
    {
      std::lock_guard<std::mutex> lock(mu);
      resume = true;
    }
    cv.notify_all();
  }
  writer.join();

  auto streamed = future.get();
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  // Every query of the stream answered exactly once, in order.
  EXPECT_EQ(streamed->queries.size(), cycled.size());
  {
    std::lock_guard<std::mutex> lock(chunk_mu);
    EXPECT_EQ(queries_seen, cycled.size());
    EXPECT_EQ(chunks_seen, (cycled.size() + 63) / 64);
  }
  const MutationStats stats = (*engine)->mutation_stats();
  EXPECT_EQ(stats.inserts, static_cast<uint64_t>(kRounds) * 40);
  EXPECT_EQ(stats.removes, removed.size());
}

TEST(MutationTest, FlushHotSwapUnderConcurrentStreams) {
  auto workload = test::MakeRandomWorkload(300, 50, 6, 24, 5, 216);
  auto engine = Engine::Create(EngineConfig()
                                   .Index(&workload.index)
                                   .K(5)
                                   .DeltaSealThreshold(8)
                                   .AutoCompactSegments(0)
                                   .Devices(2)
                                   .Device(test::SharedTestDevice(2)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::vector<Query> cycled;
  for (int i = 0; i < 1200; ++i) {
    cycled.push_back(workload.queries[i % workload.queries.size()]);
  }
  SearchStreamOptions stream_options;
  stream_options.chunk_size = 48;
  stream_options.pipeline = true;

  auto stream_a =
      (*engine)->SearchAsync(SearchRequest::Compiled(cycled), stream_options);
  auto stream_b =
      (*engine)->SearchAsync(SearchRequest::Compiled(cycled), stream_options);

  // Mutate and synchronously compact — twice — while both streams run; the
  // hot swap must never pause or corrupt them.
  Rng rng(217);
  for (int round = 0; round < 2; ++round) {
    auto fresh = RandomObjects(24, 50, 6, &rng);
    auto ids = (*engine)->Insert(InsertRequest::Objects(fresh));
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    ASSERT_TRUE((*engine)->Remove(std::vector<ObjectId>{(*ids)[0]}).ok());
    ASSERT_TRUE((*engine)->Flush().ok());
  }
  EXPECT_GE((*engine)->mutation_stats().compactions, 2u);

  auto result_a = stream_a.get();
  auto result_b = stream_b.get();
  ASSERT_TRUE(result_a.ok()) << result_a.status().ToString();
  ASSERT_TRUE(result_b.ok()) << result_b.status().ToString();
  EXPECT_EQ(result_a->queries.size(), cycled.size());
  EXPECT_EQ(result_b->queries.size(), cycled.size());
  for (const QueryHits& hits : result_a->queries) {
    std::set<ObjectId> ids;
    for (const Hit& hit : hits.hits) {
      EXPECT_TRUE(ids.insert(hit.id).second) << "duplicate id in stream";
      EXPECT_LT(hit.id, (*engine)->num_objects());
    }
  }

  // At quiesce the engine still answers exactly like a blocking search.
  auto blocking = (*engine)->Search(SearchRequest::Compiled(workload.queries));
  auto streamed = (*engine)->SearchStream(
      SearchRequest::Compiled(workload.queries), stream_options);
  ASSERT_TRUE(blocking.ok());
  ASSERT_TRUE(streamed.ok());
  ExpectSameAnswers(*streamed, *blocking, "stream vs blocking at quiesce");
}

TEST(MutationTest, InsertsRaceRerankAndVerification) {
  // Points and sets re-rank by the exact measure outside the execute
  // critical section, and sequence verification reads sequences by id:
  // all three read the side data Insert appends. Every score must equal
  // the exact measure recomputed from the base plus the inserted objects.
  data::ClusteredPointsOptions point_options;
  point_options.num_points = 200;
  point_options.dim = 6;
  point_options.num_clusters = 5;
  point_options.seed = 230;
  auto points = data::MakeClusteredPoints(point_options);
  auto new_points = data::MakeQueriesNear(points.points, 24, 0.05, 231);

  Rng rng(232);
  auto random_set = [&] {
    std::vector<uint32_t> set;
    for (int i = 0; i < 10; ++i) {
      set.push_back(static_cast<uint32_t>(rng.UniformU64(2000)));
    }
    return set;
  };
  std::vector<std::vector<uint32_t>> sets(150);
  for (auto& set : sets) set = random_set();
  std::vector<std::vector<uint32_t>> new_sets(24);
  for (auto& set : new_sets) set = random_set();
  std::shared_ptr<const lsh::SetLshFamily> family(
      lsh::MinHashFamily::Create(lsh::MinHashOptions{24, 233})
          .ValueOrDie()
          .release());

  data::SequenceDatasetOptions sequence_options;
  sequence_options.num_sequences = 150;
  sequence_options.min_length = 20;
  sequence_options.max_length = 30;
  sequence_options.seed = 234;
  auto sequences = data::MakeSequences(sequence_options);
  std::vector<std::string> new_sequences;
  for (int i = 0; i < 24; ++i) {
    new_sequences.push_back(data::MutateSequence(sequences[i], 0.1, 26, &rng));
  }

  auto points_engine = Engine::Create(EngineConfig()
                                          .Points(&points.points)
                                          .K(3)
                                          .HashFunctions(16)
                                          .RehashDomain(64)
                                          .ExactRerank(true)
                                          .DeltaSealThreshold(4)
                                          .AutoCompactSegments(2)
                                          .Device(test::SharedTestDevice(2)));
  auto sets_engine = Engine::Create(EngineConfig()
                                        .Sets(&sets)
                                        .SetFamily(family)
                                        .K(3)
                                        .RehashDomain(256)
                                        .ExactRerank(true)
                                        .DeltaSealThreshold(4)
                                        .AutoCompactSegments(2)
                                        .Device(test::SharedTestDevice(2)));
  auto sequences_engine =
      Engine::Create(EngineConfig()
                         .Sequences(&sequences)
                         .K(2)
                         .CandidateK(16)
                         .Ngram(3)
                         .DeltaSealThreshold(4)
                         .AutoCompactSegments(2)
                         .Device(test::SharedTestDevice(2)));
  ASSERT_TRUE(points_engine.ok()) << points_engine.status().ToString();
  ASSERT_TRUE(sets_engine.ok()) << sets_engine.status().ToString();
  ASSERT_TRUE(sequences_engine.ok()) << sequences_engine.status().ToString();

  // The queries are the objects being inserted, so answers reach the
  // appended ids while the writer is still appending.
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint32_t i = 0; i < 24; ++i) {
      data::PointMatrix row(1, 6);
      const auto from = new_points.row(i);
      std::copy(from.begin(), from.end(), row.mutable_row(0).begin());
      auto point_id = (*points_engine)->Insert(InsertRequest::Points(row));
      auto set_id = (*sets_engine)->Insert(InsertRequest::Sets(
          std::span<const std::vector<uint32_t>>(new_sets).subspan(i, 1)));
      auto sequence_id =
          (*sequences_engine)->Insert(InsertRequest::Sequences(
              std::span<const std::string>(new_sequences).subspan(i, 1)));
      if (!point_id.ok() || !set_id.ok() || !sequence_id.ok()) {
        ADD_FAILURE() << "insert " << i << " failed";
        break;
      }
      EXPECT_EQ((*point_id)[0], 200 + i);
      EXPECT_EQ((*set_id)[0], 150 + i);
      EXPECT_EQ((*sequence_id)[0], 150 + i);
    }
    done = true;
  });

  auto point_row = [&](ObjectId id) {
    return id < 200 ? points.points.row(id) : new_points.row(id - 200);
  };
  auto set_of = [&](ObjectId id) -> const std::vector<uint32_t>& {
    return id < 150 ? sets[id] : new_sets[id - 150];
  };
  auto sequence_of = [&](ObjectId id) -> const std::string& {
    return id < 150 ? sequences[id] : new_sequences[id - 150];
  };
  std::thread points_reader([&] {
    int rounds = 0;
    do {
      auto result = (*points_engine)->Search(SearchRequest::Points(new_points));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      for (uint32_t q = 0; q < result->queries.size(); ++q) {
        for (const Hit& hit : result->queries[q].hits) {
          ASSERT_LT(hit.id, 224u);
          EXPECT_EQ(hit.score,
                    -data::L2Distance(point_row(hit.id), new_points.row(q)));
        }
      }
    } while (++rounds < 3 || !done);
  });
  std::thread sets_reader([&] {
    int rounds = 0;
    do {
      auto result = (*sets_engine)->Search(SearchRequest::Sets(new_sets));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      for (size_t q = 0; q < result->queries.size(); ++q) {
        for (const Hit& hit : result->queries[q].hits) {
          ASSERT_LT(hit.id, 174u);
          EXPECT_EQ(hit.score,
                    family->CollisionProbability(set_of(hit.id), new_sets[q]));
        }
      }
    } while (++rounds < 3 || !done);
  });
  std::thread sequences_reader([&] {
    int rounds = 0;
    do {
      auto result =
          (*sequences_engine)->Search(SearchRequest::Sequences(new_sequences));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      for (size_t q = 0; q < result->queries.size(); ++q) {
        for (const Hit& hit : result->queries[q].hits) {
          ASSERT_LT(hit.id, 174u);
          EXPECT_EQ(hit.score, -static_cast<double>(sa::EditDistance(
                                   new_sequences[q], sequence_of(hit.id))));
        }
      }
    } while (++rounds < 3 || !done);
  });
  writer.join();
  points_reader.join();
  sets_reader.join();
  sequences_reader.join();

  // Quiesced: each inserted sequence is its own nearest answer.
  auto last =
      (*sequences_engine)->Search(SearchRequest::Sequences(new_sequences));
  ASSERT_TRUE(last.ok());
  for (uint32_t q = 0; q < 24; ++q) {
    ASSERT_FALSE(last->queries[q].hits.empty());
    EXPECT_DOUBLE_EQ(last->queries[q].hits[0].score, 0.0);
  }
}

// ---------------------------------------------------------------------------
// GNIEBNDL v2: mutated-engine persistence and crash recovery.
// ---------------------------------------------------------------------------

TEST(MutationTest, MutatedCompiledEngineRoundTripsAsV3) {
  auto workload = test::MakeRandomWorkload(300, 50, 6, 8, 5, 218);
  auto engine = Engine::Create(EngineConfig()
                                   .Index(&workload.index)
                                   .K(5)
                                   .DeltaSealThreshold(8)  // several sealed
                                   .AutoCompactSegments(0)
                                   .Device(test::SharedTestDevice(2)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  Rng rng(219);
  auto fresh = RandomObjects(20, 50, 6, &rng);
  auto ids = (*engine)->Insert(InsertRequest::Objects(fresh));
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE((*engine)->Remove(std::vector<ObjectId>{7, (*ids)[3]}).ok());

  auto reference = (*engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(reference.ok());

  const std::string path = TempPath("genie_mutation_v2_compiled.gnb");
  ASSERT_TRUE((*engine)->Save(path).ok());
  EXPECT_EQ(BundleVersion(path), 3u);

  auto reopened = Engine::Open(path, EngineConfig().K(5).Device(
                                         test::SharedTestDevice(2)));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_objects(), 320u);
  auto result = (*reopened)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(result.ok());
  ExpectSameAnswers(*result, *reference, "v2 reopen");

  // The id watermark survives: the next insert continues the sequence, and
  // tombstones survive: re-removing is InvalidArgument.
  auto more = RandomObjects(1, 50, 6, &rng);
  auto next = (*reopened)->Insert(InsertRequest::Objects(more));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ((*next)[0], 320u);
  EXPECT_EQ((*reopened)->Remove(std::vector<ObjectId>{7}).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(MutationTest, MutatedPointsEngineRoundTripsAsV3) {
  data::ClusteredPointsOptions data_options;
  data_options.num_points = 200;
  data_options.dim = 6;
  data_options.num_clusters = 5;
  data_options.seed = 220;
  auto dataset = data::MakeClusteredPoints(data_options);
  auto inserted = data::MakeQueriesNear(dataset.points, 10, 0.3, 221);
  auto queries = data::MakeQueriesNear(dataset.points, 6, 0.1, 222);

  auto make_config = [&] {
    return EngineConfig()
        .Points(&dataset.points)
        .K(4)
        .HashFunctions(16)
        .RehashDomain(64)
        .ExactRerank(true)  // reranking must read restored appended rows
        .DeltaSealThreshold(4)
        .AutoCompactSegments(0)
        .Device(test::SharedTestDevice(2));
  };
  auto engine = Engine::Create(make_config());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto ids = (*engine)->Insert(InsertRequest::Points(inserted));
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE((*engine)->Remove(std::vector<ObjectId>{3, 201}).ok());

  auto reference = (*engine)->Search(SearchRequest::Points(queries));
  ASSERT_TRUE(reference.ok());

  const std::string path = TempPath("genie_mutation_v2_points.gnb");
  ASSERT_TRUE((*engine)->Save(path).ok());
  EXPECT_EQ(BundleVersion(path), 3u);

  auto reopened = Engine::Open(path, make_config());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_objects(), 210u);
  auto result = (*reopened)->Search(SearchRequest::Points(queries));
  ASSERT_TRUE(result.ok());
  ExpectSameAnswers(*result, *reference, "points v2 reopen");

  // A query at an inserted point still finds it (delta postings + appended
  // row storage both restored).
  data::PointMatrix one(1, 6);
  auto from = inserted.row(4);
  std::copy(from.begin(), from.end(), one.mutable_row(0).begin());
  auto hit = (*reopened)->Search(SearchRequest::Points(one));
  ASSERT_TRUE(hit.ok());
  ASSERT_FALSE(hit->queries[0].hits.empty());
  EXPECT_EQ(hit->queries[0].hits[0].id, 204u);
  std::remove(path.c_str());
}

TEST(MutationTest, MutatedSequencesEngineRoundTripsAsV3) {
  data::SequenceDatasetOptions data_options;
  data_options.num_sequences = 150;
  data_options.min_length = 20;
  data_options.max_length = 30;
  data_options.seed = 223;
  auto sequences = data::MakeSequences(data_options);

  auto make_config = [&] {
    return EngineConfig()
        .Sequences(&sequences)
        .K(1)
        .CandidateK(16)
        .Ngram(3)
        .Device(test::SharedTestDevice(2));
  };
  auto engine = Engine::Create(make_config());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Inserted sequences carry novel n-grams: the grown vocabulary must be
  // persisted for the reopened engine to compile these queries.
  std::vector<std::string> inserted{"qqwqqwqqwqqwqqwqqwqqw",
                                    "xyxxyxxyxxyxxyxxyxxyx"};
  auto ids = (*engine)->Insert(InsertRequest::Sequences(inserted));
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE((*engine)->Remove(std::vector<ObjectId>{150}).ok());

  const std::string path = TempPath("genie_mutation_v2_sequences.gnb");
  ASSERT_TRUE((*engine)->Save(path).ok());
  EXPECT_EQ(BundleVersion(path), 3u);

  auto reopened = Engine::Open(path, make_config());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_objects(), 152u);

  auto result = (*reopened)->Search(SearchRequest::Sequences(inserted));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(HitsContain(result->queries[0], 150));  // tombstone held
  ASSERT_FALSE(result->queries[1].hits.empty());
  EXPECT_EQ(result->queries[1].hits[0].id, 151u);
  EXPECT_DOUBLE_EQ(result->queries[1].hits[0].score, 0.0);
  std::remove(path.c_str());
}

TEST(MutationTest, MutatedSetsEngineRoundTripsAsV3) {
  Rng rng(227);
  std::vector<std::vector<uint32_t>> sets(120);
  for (auto& set : sets) {
    for (int i = 0; i < 10; ++i) {
      set.push_back(static_cast<uint32_t>(rng.UniformU64(3000)));
    }
  }
  std::vector<std::vector<uint32_t>> inserted(6);
  for (auto& set : inserted) {
    for (int i = 0; i < 10; ++i) {
      set.push_back(static_cast<uint32_t>(rng.UniformU64(3000)));
    }
  }
  std::vector<std::vector<uint32_t>> queries(sets.begin(), sets.begin() + 4);
  queries.insert(queries.end(), inserted.begin(), inserted.end());

  auto make_config = [&] {
    return EngineConfig()
        .Sets(&sets)
        .K(3)
        .HashFunctions(24)
        .RehashDomain(256)
        .ExactRerank(true)  // reranking must read restored appended sets
        .DeltaSealThreshold(4)
        .AutoCompactSegments(0)
        .Device(test::SharedTestDevice(2));
  };
  auto engine = Engine::Create(make_config());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto ids = (*engine)->Insert(InsertRequest::Sets(inserted));
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ((*ids)[0], 120u);
  ASSERT_TRUE((*engine)->Remove(std::vector<ObjectId>{5, 122}).ok());

  auto reference = (*engine)->Search(SearchRequest::Sets(queries));
  ASSERT_TRUE(reference.ok());

  const std::string path = TempPath("genie_mutation_v3_sets.gnb");
  ASSERT_TRUE((*engine)->Save(path).ok());
  EXPECT_EQ(BundleVersion(path), 3u);

  auto reopened = Engine::Open(path, make_config());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_objects(), 126u);
  auto result = (*reopened)->Search(SearchRequest::Sets(queries));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameAnswers(*result, *reference, "sets v3 reopen");
  // An inserted set is its own exact Jaccard neighbour.
  ASSERT_FALSE(result->queries[4].hits.empty());
  EXPECT_EQ(result->queries[4].hits[0].id, 120u);
  EXPECT_DOUBLE_EQ(result->queries[4].hits[0].score, 1.0);

  auto next = (*reopened)->Insert(InsertRequest::Sets(
      std::span<const std::vector<uint32_t>>(inserted).first(1)));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ((*next)[0], 126u);
  EXPECT_EQ((*reopened)->Remove(std::vector<ObjectId>{122}).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(MutationTest, MutatedDocumentsEngineRoundTripsAsV3) {
  data::DocumentDatasetOptions data_options;
  data_options.num_documents = 200;
  data_options.vocabulary = 1200;
  data_options.seed = 228;
  auto corpus = data::MakeDocuments(data_options);

  auto make_config = [&] {
    return EngineConfig()
        .Documents(&corpus)
        .K(3)
        .DeltaSealThreshold(2)
        .AutoCompactSegments(0)
        .Device(test::SharedTestDevice(2));
  };
  auto engine = Engine::Create(make_config());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Tokens beyond the base vocabulary: the grown token universe must be
  // persisted for the reopened engine to compile these queries.
  std::vector<std::vector<uint32_t>> inserted{{2000, 2001, 2002, 7, 11},
                                              {2100, 2101, 2102, 2103},
                                              {2200, 2201, 13}};
  auto ids = (*engine)->Insert(InsertRequest::Documents(inserted));
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ((*ids)[0], 200u);
  ASSERT_TRUE((*engine)->Remove(std::vector<ObjectId>{9, 201}).ok());

  std::vector<std::vector<uint32_t>> queries(corpus.begin(),
                                             corpus.begin() + 4);
  queries.insert(queries.end(), inserted.begin(), inserted.end());
  auto reference = (*engine)->Search(SearchRequest::Documents(queries));
  ASSERT_TRUE(reference.ok());

  const std::string path = TempPath("genie_mutation_v3_documents.gnb");
  ASSERT_TRUE((*engine)->Save(path).ok());
  EXPECT_EQ(BundleVersion(path), 3u);

  auto reopened = Engine::Open(path, make_config());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_objects(), 203u);
  auto result = (*reopened)->Search(SearchRequest::Documents(queries));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameAnswers(*result, *reference, "documents v3 reopen");
  ASSERT_FALSE(result->queries[4].hits.empty());
  EXPECT_EQ(result->queries[4].hits[0].id, 200u);
  EXPECT_EQ(result->queries[4].hits[0].match_count, 5u);
  EXPECT_FALSE(HitsContain(result->queries[5], 201));  // tombstone held

  auto next = (*reopened)->Insert(InsertRequest::Documents(
      std::span<const std::vector<uint32_t>>(inserted).first(1)));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ((*next)[0], 203u);
  EXPECT_EQ((*reopened)->Remove(std::vector<ObjectId>{201}).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(MutationTest, MutatedRelationalEngineRoundTripsAsV3) {
  data::RelationalDatasetOptions data_options;
  data_options.num_rows = 500;
  data_options.numeric_columns = 3;
  data_options.numeric_buckets = 64;
  data_options.categorical_columns = 2;
  data_options.categorical_cardinality = 6;
  data_options.seed = 229;
  auto table = data::MakeRelationalTable(data_options);

  auto make_config = [&] {
    return EngineConfig()
        .Table(&table)
        .K(8)
        .DeltaSealThreshold(2)
        .AutoCompactSegments(0)
        .Device(test::SharedTestDevice(2));
  };
  auto engine = Engine::Create(make_config());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::vector<std::vector<uint32_t>> rows{
      {63, 0, 63, 5, 5}, {0, 63, 0, 0, 0}, {31, 31, 31, 2, 3}};
  auto ids = (*engine)->Insert(InsertRequest::Rows(rows));
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ((*ids)[0], 500u);
  ASSERT_TRUE((*engine)->Remove(std::vector<ObjectId>{11, 501}).ok());

  // Range queries pinned to each inserted row's exact values.
  std::vector<sa::RangeQuery> queries(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (uint32_t c = 0; c < 5; ++c) {
      queries[r].Add(c, rows[r][c], rows[r][c]);
    }
  }
  auto reference = (*engine)->Search(SearchRequest::Ranges(queries));
  ASSERT_TRUE(reference.ok());

  const std::string path = TempPath("genie_mutation_v3_relational.gnb");
  ASSERT_TRUE((*engine)->Save(path).ok());
  EXPECT_EQ(BundleVersion(path), 3u);

  auto reopened = Engine::Open(path, make_config());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_objects(), 503u);
  auto result = (*reopened)->Search(SearchRequest::Ranges(queries));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameAnswers(*result, *reference, "relational v3 reopen");
  ASSERT_FALSE(result->queries[0].hits.empty());
  EXPECT_EQ(result->queries[0].hits[0].id, 500u);
  EXPECT_EQ(result->queries[0].hits[0].match_count, 5u);
  EXPECT_FALSE(HitsContain(result->queries[1], 501));  // tombstone held

  auto next = (*reopened)->Insert(InsertRequest::Rows(
      std::span<const std::vector<uint32_t>>(rows).first(1)));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ((*next)[0], 503u);
  EXPECT_EQ((*reopened)->Remove(std::vector<ObjectId>{501}).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(MutationTest, FrozenEnginesSaveAsV3WithEmptyMutationSection) {
  auto workload = test::MakeRandomWorkload(100, 20, 4, 2, 3, 224);
  auto engine = Engine::Create(EngineConfig()
                                   .Index(&workload.index)
                                   .K(3)
                                   .Device(test::SharedTestDevice(2)));
  ASSERT_TRUE(engine.ok());
  const std::string path = TempPath("genie_mutation_frozen_v3.gnb");
  ASSERT_TRUE((*engine)->Save(path).ok());
  EXPECT_EQ(BundleVersion(path), 3u);

  // The empty mutation section must reopen as a frozen engine whose
  // answers match, not as a live engine with a broken delta state.
  auto reference = (*engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(reference.ok());
  auto reopened = Engine::Open(path, EngineConfig().K(3).Device(
                                         test::SharedTestDevice(2)));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto result = (*reopened)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(result.ok());
  ExpectSameAnswers(*result, *reference, "frozen v3 reopen");
  std::remove(path.c_str());
}

TEST(MutationTest, CrashRecoveryIgnoresStaleTmpAndReplacesAtomically) {
  auto workload = test::MakeRandomWorkload(200, 40, 5, 6, 4, 225);
  auto engine = Engine::Create(EngineConfig()
                                   .Index(&workload.index)
                                   .K(4)
                                   .DeltaSealThreshold(8)
                                   .AutoCompactSegments(0)
                                   .Device(test::SharedTestDevice(2)));
  ASSERT_TRUE(engine.ok());
  Rng rng(226);
  auto fresh = RandomObjects(12, 40, 5, &rng);
  ASSERT_TRUE((*engine)->Insert(InsertRequest::Objects(fresh)).ok());
  auto reference = (*engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(reference.ok());

  const std::string path = TempPath("genie_mutation_crash.gnb");
  ASSERT_TRUE((*engine)->Save(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));  // rename committed

  // Simulate a process killed mid-Save: a later save died after writing
  // its temp file but before the atomic rename. The committed bundle must
  // reopen to the pre-crash state regardless of the garbage next to it.
  {
    std::ofstream stale(path + ".tmp", std::ios::binary);
    stale << "partial garbage from a crashed save";
  }
  auto reopened = Engine::Open(path, EngineConfig().K(4).Device(
                                         test::SharedTestDevice(2)));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto result = (*reopened)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(result.ok());
  ExpectSameAnswers(*result, *reference, "reopen next to stale tmp");

  // A fresh Save over the same path replaces it atomically and cleans up.
  ASSERT_TRUE((*engine)->Remove(std::vector<ObjectId>{200}).ok());
  ASSERT_TRUE((*engine)->Save(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto after = Engine::Open(path, EngineConfig().K(4).Device(
                                      test::SharedTestDevice(2)));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  auto gone = (*after)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(gone.ok());
  for (const QueryHits& hits : gone->queries) {
    EXPECT_FALSE(HitsContain(hits, 200));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace genie
