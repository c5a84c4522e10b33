/// Facade round trips: one cross-modality test per domain, the unified
/// error contract, and the automatic ResourceExhausted -> multiple-loading
/// fallback under a tiny simulated device.

#include "api/genie.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/documents.h"
#include "data/points.h"
#include "data/relational_data.h"
#include "data/sequences.h"
#include "test_util.h"

namespace genie {
namespace {

data::PointMatrix RowsOf(const data::PointMatrix& points,
                         std::span<const uint32_t> ids) {
  data::PointMatrix out(static_cast<uint32_t>(ids.size()), points.dim());
  for (uint32_t i = 0; i < ids.size(); ++i) {
    auto from = points.row(ids[i]);
    std::copy(from.begin(), from.end(), out.mutable_row(i).begin());
  }
  return out;
}

TEST(EngineTest, PointsRoundTrip) {
  data::ClusteredPointsOptions data_options;
  data_options.num_points = 500;
  data_options.dim = 8;
  data_options.num_clusters = 10;
  data_options.seed = 5;
  auto dataset = data::MakeClusteredPoints(data_options);

  auto engine = Engine::Create(EngineConfig()
                                   .Points(&dataset.points)
                                   .K(3)
                                   .HashFunctions(16)
                                   .RehashDomain(64)
                                   .Device(test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->modality(), Modality::kPoints);
  EXPECT_EQ((*engine)->num_objects(), 500u);

  const std::vector<uint32_t> ids{0, 17, 123, 499};
  auto queries = RowsOf(dataset.points, ids);
  auto result = (*engine)->Search(SearchRequest::Points(queries));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->queries.size(), ids.size());
  for (size_t q = 0; q < ids.size(); ++q) {
    ASSERT_FALSE(result->queries[q].hits.empty());
    const Hit& top = result->queries[q].hits[0];
    // A query identical to a data point collides on every function.
    EXPECT_EQ(top.id, ids[q]);
    EXPECT_EQ(top.match_count, 16u);
    EXPECT_DOUBLE_EQ(top.score, 1.0);
  }
  EXPECT_FALSE(result->profile.used_multi_load);
  EXPECT_EQ(result->profile.parts, 1u);
}

TEST(EngineTest, PointsExactRerankOrdersByDistance) {
  data::ClusteredPointsOptions data_options;
  data_options.num_points = 400;
  data_options.dim = 6;
  data_options.seed = 6;
  auto dataset = data::MakeClusteredPoints(data_options);

  auto engine = Engine::Create(EngineConfig()
                                   .Points(&dataset.points)
                                   .K(5)
                                   .CandidateK(64)
                                   .HashFunctions(16)
                                   .RehashDomain(64)
                                   .ExactRerank(true)
                                   .Device(test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto queries = data::MakeQueriesNear(dataset.points, 4, 0.1, 7);
  auto result = (*engine)->Search(SearchRequest::Points(queries));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const QueryHits& hits : result->queries) {
    for (size_t i = 1; i < hits.hits.size(); ++i) {
      EXPECT_GE(hits.hits[i - 1].score, hits.hits[i].score);
    }
  }
}

TEST(EngineTest, SetsRoundTrip) {
  Rng rng(8);
  std::vector<std::vector<uint32_t>> sets(200);
  for (auto& set : sets) {
    for (int i = 0; i < 12; ++i) {
      set.push_back(static_cast<uint32_t>(rng.UniformU64(5000)));
    }
  }
  auto engine = Engine::Create(EngineConfig()
                                   .Sets(&sets)
                                   .K(4)
                                   .HashFunctions(24)
                                   .RehashDomain(256)
                                   .Device(test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->modality(), Modality::kSets);

  std::vector<std::vector<uint32_t>> queries{sets[0], sets[42], sets[199]};
  const ObjectId owners[] = {0, 42, 199};
  auto result = (*engine)->Search(SearchRequest::Sets(queries));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_FALSE(result->queries[q].hits.empty());
    const Hit& top = result->queries[q].hits[0];
    EXPECT_EQ(top.id, owners[q]);
    EXPECT_EQ(top.match_count, 24u);  // every function collides with itself
    EXPECT_DOUBLE_EQ(top.score, 1.0);
  }
}

TEST(EngineTest, SequencesRoundTrip) {
  data::SequenceDatasetOptions data_options;
  data_options.num_sequences = 300;
  data_options.min_length = 20;
  data_options.max_length = 30;
  data_options.seed = 9;
  auto sequences = data::MakeSequences(data_options);

  auto engine = Engine::Create(EngineConfig()
                                   .Sequences(&sequences)
                                   .K(1)
                                   .CandidateK(16)
                                   .Ngram(3)
                                   .Device(test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->modality(), Modality::kSequences);

  std::vector<std::string> queries{sequences[3], sequences[150],
                                   sequences[299]};
  const ObjectId sources[] = {3, 150, 299};
  auto result = (*engine)->Search(SearchRequest::Sequences(queries));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_FALSE(result->queries[q].hits.empty());
    const Hit& top = result->queries[q].hits[0];
    EXPECT_EQ(top.id, sources[q]);
    EXPECT_DOUBLE_EQ(top.score, 0.0);  // edit distance 0
  }
}

TEST(EngineTest, DocumentsRoundTrip) {
  data::DocumentDatasetOptions data_options;
  data_options.num_documents = 400;
  data_options.vocabulary = 2000;
  data_options.seed = 10;
  auto corpus = data::MakeDocuments(data_options);

  auto engine =
      Engine::Create(EngineConfig().Documents(&corpus).K(3).Device(
          test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->modality(), Modality::kDocuments);

  std::vector<std::vector<uint32_t>> queries{corpus[7], corpus[200]};
  const ObjectId sources[] = {7, 200};
  auto result = (*engine)->Search(SearchRequest::Documents(queries));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_FALSE(result->queries[q].hits.empty());
    const Hit& top = result->queries[q].hits[0];
    const std::set<uint32_t> distinct(queries[q].begin(), queries[q].end());
    // A document's inner product with itself is its distinct token count;
    // no other doc can beat it unless it contains all those tokens too.
    EXPECT_EQ(top.match_count, distinct.size());
    EXPECT_EQ(top.id, sources[q]);
  }
}

TEST(EngineTest, RelationalRoundTrip) {
  data::RelationalDatasetOptions data_options;
  data_options.num_rows = 2000;
  data_options.numeric_columns = 3;
  data_options.numeric_buckets = 64;
  data_options.categorical_columns = 2;
  data_options.categorical_cardinality = 6;
  data_options.seed = 11;
  auto table = data::MakeRelationalTable(data_options);

  auto engine =
      Engine::Create(EngineConfig().Table(&table).K(5).Device(
          test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->modality(), Modality::kRelational);

  auto queries = data::MakeRangeQueries(table, 4, 3, 5, 12);
  auto result = (*engine)->Search(SearchRequest::Ranges(queries));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->queries.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    // Brute-force the satisfied-predicate counts and compare the top-k
    // count profile (ids may differ on ties).
    std::vector<uint32_t> counts(table.num_rows(), 0);
    for (uint32_t row = 0; row < table.num_rows(); ++row) {
      for (const sa::RangeQuery::Item& item : queries[q].items) {
        const uint32_t v = table.value(row, item.column);
        if (v >= item.lo && v <= item.hi) ++counts[row];
      }
    }
    std::vector<uint32_t> expected = test::TopKCountMultiset(counts, 5);
    std::vector<uint32_t> got;
    for (const Hit& hit : result->queries[q].hits) {
      got.push_back(hit.match_count);
    }
    EXPECT_EQ(got, expected) << "query " << q;
  }
}

TEST(EngineTest, CompiledRoundTrip) {
  auto workload = test::MakeRandomWorkload(600, 60, 6, 8, 5, 13);
  auto engine = Engine::Create(
      EngineConfig().Index(&workload.index).K(7).Device(
          test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->modality(), Modality::kCompiled);

  auto result = (*engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    std::vector<uint32_t> got;
    for (const Hit& hit : result->queries[q].hits) {
      got.push_back(hit.match_count);
    }
    EXPECT_EQ(got, test::TopKCountMultiset(counts, 7)) << "query " << q;
  }
}

// ---------------------------------------------------------------------------
// The unified error contract at the facade boundary.
// ---------------------------------------------------------------------------

TEST(EngineTest, CreateRejectsMissingBindingAndBadKnobs) {
  auto no_binding = Engine::Create(EngineConfig().K(5));
  ASSERT_FALSE(no_binding.ok());
  EXPECT_EQ(no_binding.status().code(), StatusCode::kInvalidArgument);

  data::ClusteredPointsOptions data_options;
  data_options.num_points = 50;
  data_options.dim = 4;
  auto dataset = data::MakeClusteredPoints(data_options);

  auto zero_k =
      Engine::Create(EngineConfig().Points(&dataset.points).K(0));
  ASSERT_FALSE(zero_k.ok());
  EXPECT_EQ(zero_k.status().code(), StatusCode::kInvalidArgument);

  auto bad_pool = Engine::Create(
      EngineConfig().Points(&dataset.points).K(10).CandidateK(3));
  ASSERT_FALSE(bad_pool.ok());
  EXPECT_EQ(bad_pool.status().code(), StatusCode::kInvalidArgument);

  auto null_table = Engine::Create(EngineConfig().Table(nullptr).K(5));
  ASSERT_FALSE(null_table.ok());
  EXPECT_EQ(null_table.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, SearchRejectsEmptyBatchEverywhere) {
  // Every modality answers an empty batch with the same InvalidArgument.
  data::ClusteredPointsOptions data_options;
  data_options.num_points = 50;
  data_options.dim = 4;
  auto dataset = data::MakeClusteredPoints(data_options);
  auto engine = Engine::Create(EngineConfig()
                                   .Points(&dataset.points)
                                   .K(2)
                                   .HashFunctions(8)
                                   .Device(test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok());

  data::PointMatrix empty(0, 4);
  auto result = (*engine)->Search(SearchRequest::Points(empty));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, SearchRejectsWrongPayloadAndDimensionMismatch) {
  data::ClusteredPointsOptions data_options;
  data_options.num_points = 50;
  data_options.dim = 4;
  auto dataset = data::MakeClusteredPoints(data_options);
  auto engine = Engine::Create(EngineConfig()
                                   .Points(&dataset.points)
                                   .K(2)
                                   .HashFunctions(8)
                                   .Device(test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok());

  std::vector<std::string> sequences{"abc"};
  auto wrong = (*engine)->Search(SearchRequest::Sequences(sequences));
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);

  data::PointMatrix wrong_dim(2, 7);
  auto mismatched = (*engine)->Search(SearchRequest::Points(wrong_dim));
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, ProfilesCarryPerCallDeltasAndCumulativeTotals) {
  auto workload = test::MakeRandomWorkload(600, 60, 6, 12, 5, 16);
  auto engine = Engine::Create(
      EngineConfig().Index(&workload.index).K(5).Device(
          test::SharedTestDevice(4)));
  ASSERT_TRUE(engine.ok());

  auto first = (*engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(first.ok());
  auto second = (*engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(second.ok());

  // Each call's delta covers its own batch; the byte counters are
  // deterministic, so the deltas of two identical batches are equal and
  // cumulative is their running sum.
  EXPECT_GT(first->profile.query_bytes, 0u);
  EXPECT_EQ(second->profile.query_bytes, first->profile.query_bytes);
  EXPECT_EQ(second->cumulative.query_bytes, 2 * first->profile.query_bytes);
  // The index transfer happened at engine creation, before either call.
  EXPECT_EQ(first->profile.index_bytes, 0u);
  EXPECT_GT(first->cumulative.index_bytes, 0u);
  EXPECT_EQ(second->cumulative.index_bytes, first->cumulative.index_bytes);
}

// ---------------------------------------------------------------------------
// Automatic backend fallback.
// ---------------------------------------------------------------------------

TEST(EngineTest, FallsBackToMultiLoadOnTinyDevice) {
  // An index too large for the device: the facade must shard it and answer
  // through multiple loading without any caller intervention.
  auto workload = test::MakeRandomWorkload(4000, 30, 8, 4, 4, 14);
  sim::Device::Options small;
  small.num_workers = 4;
  small.memory_capacity_bytes = 120 << 10;  // 120 KiB
  sim::Device device(small);

  const uint32_t max_count = MatchEngine::DeriveMaxCount(workload.queries);
  auto engine = Engine::Create(EngineConfig()
                                   .Index(&workload.index)
                                   .K(5)
                                   .MaxCount(max_count)
                                   .Device(&device));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto result = (*engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->profile.used_multi_load);
  EXPECT_GT(result->profile.parts, 1u);
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    std::vector<uint32_t> got;
    for (const Hit& hit : result->queries[q].hits) {
      got.push_back(hit.match_count);
    }
    EXPECT_EQ(got, test::TopKCountMultiset(counts, 5)) << "query " << q;
  }
  EXPECT_EQ(device.allocated_bytes(), 0u);  // everything swapped back out
}

TEST(EngineTest, PointsFallbackMatchesLargeDeviceAnswers) {
  // The same points workload answered on a big device (single load) and a
  // tiny device (multiple loading) must agree: the backend is invisible.
  data::ClusteredPointsOptions data_options;
  data_options.num_points = 3000;
  data_options.dim = 8;
  data_options.seed = 15;
  auto dataset = data::MakeClusteredPoints(data_options);

  sim::Device::Options small;
  small.num_workers = 4;
  small.memory_capacity_bytes = 100 << 10;  // < 16 functions * 3000 * 4B
  sim::Device tiny(small);

  auto make_config = [&](sim::Device* device) {
    return EngineConfig()
        .Points(&dataset.points)
        .K(3)
        .HashFunctions(16)
        .RehashDomain(64)
        .Seed(99)
        .Device(device);
  };
  auto big_engine = Engine::Create(make_config(test::SharedTestDevice(4)));
  ASSERT_TRUE(big_engine.ok()) << big_engine.status().ToString();
  auto small_engine = Engine::Create(make_config(&tiny));
  ASSERT_TRUE(small_engine.ok()) << small_engine.status().ToString();

  const std::vector<uint32_t> ids{1, 500, 2999};
  auto queries = RowsOf(dataset.points, ids);
  auto big = (*big_engine)->Search(SearchRequest::Points(queries));
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  auto small_result = (*small_engine)->Search(SearchRequest::Points(queries));
  ASSERT_TRUE(small_result.ok()) << small_result.status().ToString();

  EXPECT_FALSE(big->profile.used_multi_load);
  EXPECT_TRUE(small_result->profile.used_multi_load);
  ASSERT_EQ(big->queries.size(), small_result->queries.size());
  for (size_t q = 0; q < ids.size(); ++q) {
    std::vector<uint32_t> big_counts, small_counts;
    for (const Hit& hit : big->queries[q].hits) {
      big_counts.push_back(hit.match_count);
    }
    for (const Hit& hit : small_result->queries[q].hits) {
      small_counts.push_back(hit.match_count);
    }
    EXPECT_EQ(big_counts, small_counts) << "query " << q;
    EXPECT_EQ(small_result->queries[q].hits[0].id, ids[q]);
  }
}

}  // namespace
}  // namespace genie
