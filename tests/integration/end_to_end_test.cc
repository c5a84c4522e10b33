/// End-to-end integration tests: each exercises a full paper pipeline —
/// data synthesis -> domain transformation -> device index -> batch search
/// -> verification — across module boundaries.

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "test_util.h"

#include "baselines/appgram_engine.h"
#include "core/partitioned_engine.h"
#include "data/documents.h"
#include "data/points.h"
#include "data/relational_data.h"
#include "data/sequences.h"
#include "lsh/e2lsh.h"
#include "lsh/lsh_searcher.h"
#include "lsh/random_binning.h"
#include "sa/document_searcher.h"
#include "sa/relational.h"
#include "sa/sequence_searcher.h"

namespace genie {
namespace {

TEST(EndToEndTest, AnnPipelineLaplacianKernel) {
  // The OCR case study in miniature: RBH + re-hashing + tau-ANN + 1NN
  // classification accuracy well above chance.
  data::ClusteredPointsOptions data_options;
  data_options.num_points = 600;
  data_options.dim = 24;
  data_options.num_clusters = 10;
  data_options.cluster_stddev = 0.4;
  data_options.seed = 1;
  auto dataset = data::MakeClusteredPoints(data_options);

  const double sigma = lsh::EstimateLaplacianKernelWidth(
      dataset.points.values(), 24, 600, 1000, 2);
  lsh::RandomBinningOptions rbh_options;
  rbh_options.dim = 24;
  rbh_options.num_functions = 64;
  rbh_options.kernel_width = sigma;
  auto family = std::shared_ptr<const lsh::VectorLshFamily>(
      lsh::RandomBinningFamily::Create(rbh_options).ValueOrDie().release());

  lsh::LshSearchOptions options;
  options.transform.rehash_domain = 8192;  // the paper's OCR setting
  options.engine.k = 5;
  options.engine.device = test::SharedTestDevice(8);
  auto searcher =
      lsh::LshSearcher::Create(&dataset.points, family, options);
  ASSERT_TRUE(searcher.ok());

  // Hold-out queries: perturbed points keep their generating label.
  const uint32_t num_queries = 40;
  data::PointMatrix queries(num_queries, 24);
  std::vector<uint32_t> query_labels(num_queries);
  Rng rng(3);
  for (uint32_t i = 0; i < num_queries; ++i) {
    const uint32_t src =
        static_cast<uint32_t>(rng.UniformU64(dataset.points.num_points()));
    query_labels[i] = dataset.labels[src];
    auto from = dataset.points.row(src);
    auto to = queries.mutable_row(i);
    for (uint32_t d = 0; d < 24; ++d) {
      to[d] = from[d] + static_cast<float>(rng.Gaussian(0, 0.2));
    }
  }
  auto results = (*searcher)->MatchBatch(queries);
  ASSERT_TRUE(results.ok());
  uint32_t correct = 0;
  for (uint32_t q = 0; q < num_queries; ++q) {
    ASSERT_FALSE((*results)[q].empty());
    correct += dataset.labels[(*results)[q][0].id] == query_labels[q];
  }
  // 10 classes => chance is 10%; Table V reports ~84% on real OCR.
  EXPECT_GT(correct, num_queries * 6 / 10);
}

TEST(EndToEndTest, SequencePipelineTypoCorrection) {
  // Table VI in miniature: 20% modified queries, K = 32, k = 1.
  data::SequenceDatasetOptions data_options;
  data_options.num_sequences = 800;
  data_options.min_length = 30;
  data_options.max_length = 50;
  data_options.seed = 4;
  auto seqs = data::MakeSequences(data_options);

  sa::SequenceSearchOptions options;
  options.k = 1;
  options.candidate_k = 32;
  options.engine.device = test::SharedTestDevice(8);
  auto searcher = sa::SequenceSearcher::Create(&seqs, options);
  ASSERT_TRUE(searcher.ok());

  Rng rng(5);
  std::vector<std::string> queries;
  std::vector<ObjectId> sources;
  for (int i = 0; i < 50; ++i) {
    const ObjectId src = static_cast<ObjectId>(rng.UniformU64(seqs.size()));
    sources.push_back(src);
    queries.push_back(data::MutateSequence(seqs[src], 0.2, 26, &rng));
  }
  auto outcomes = (*searcher)->SearchBatch(queries);
  ASSERT_TRUE(outcomes.ok());
  uint32_t top1_is_source = 0, certified = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_FALSE((*outcomes)[i].knn.empty());
    top1_is_source += (*outcomes)[i].knn[0].id == sources[i];
    certified += (*outcomes)[i].certified_exact;
  }
  // Random 30-50 char sequences are far apart; the mutated source must be
  // recovered nearly always (paper: 99.9% at 0.2 modification).
  EXPECT_GT(top1_is_source, 45u);
  EXPECT_GT(certified, 45u);
}

TEST(EndToEndTest, SequenceSearchAgreesWithAppGram) {
  data::SequenceDatasetOptions data_options;
  data_options.num_sequences = 300;
  data_options.min_length = 20;
  data_options.max_length = 35;
  data_options.seed = 6;
  auto seqs = data::MakeSequences(data_options);

  sa::SequenceSearchOptions options;
  options.k = 1;
  options.candidate_k = 32;
  options.engine.device = test::SharedTestDevice(8);
  auto genie_searcher = sa::SequenceSearcher::Create(&seqs, options);
  ASSERT_TRUE(genie_searcher.ok());

  baselines::AppGramOptions ag_options;
  ag_options.k = 1;
  auto appgram = baselines::AppGramEngine::Create(&seqs, ag_options);
  ASSERT_TRUE(appgram.ok());

  Rng rng(7);
  std::vector<std::string> queries;
  for (int i = 0; i < 25; ++i) {
    queries.push_back(data::MutateSequence(
        seqs[rng.UniformU64(seqs.size())], 0.2, 26, &rng));
  }
  auto genie_out = (*genie_searcher)->SearchBatch(queries);
  auto appgram_out = (*appgram)->SearchBatch(queries);
  ASSERT_TRUE(genie_out.ok() && appgram_out.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!(*genie_out)[i].certified_exact) continue;
    ASSERT_FALSE((*genie_out)[i].knn.empty());
    ASSERT_FALSE((*appgram_out)[i].empty());
    // Certified GENIE results must match the exact engine's distances.
    EXPECT_EQ((*genie_out)[i].knn[0].edit_distance,
              (*appgram_out)[i][0].edit_distance)
        << "query " << i;
  }
}

TEST(EndToEndTest, DocumentPipeline) {
  data::DocumentDatasetOptions data_options;
  data_options.num_documents = 3000;
  data_options.vocabulary = 2000;
  data_options.seed = 8;
  auto docs = data::MakeDocuments(data_options);
  sa::DocumentSearchOptions options;
  options.k = 20;
  options.engine.device = test::SharedTestDevice(8);
  auto searcher = sa::DocumentSearcher::Create(&docs, options);
  ASSERT_TRUE(searcher.ok());
  // Unmodified held-out docs: the source must be among the top matches
  // with full overlap.
  auto queries = data::MakeDocumentQueries(docs, 20, 0.0, 2000, 1.05, 9);
  auto results = (*searcher)->SearchBatch(queries);
  ASSERT_TRUE(results.ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_FALSE((*results)[q].entries.empty());
    sa::Document dedup = queries[q];
    std::sort(dedup.begin(), dedup.end());
    dedup.erase(std::unique(dedup.begin(), dedup.end()), dedup.end());
    EXPECT_EQ((*results)[q].entries[0].count, dedup.size());
  }
}

TEST(EndToEndTest, RelationalPipelineWithMultiLoad) {
  // Relational top-k through the multiple-loading path: shard the table,
  // run the batch per shard, merge — results must match the single-engine
  // run (Fig. 6).
  data::RelationalDatasetOptions data_options;
  data_options.num_rows = 1200;
  data_options.numeric_columns = 4;
  data_options.numeric_buckets = 128;
  data_options.categorical_columns = 4;
  data_options.seed = 10;
  auto table = data::MakeRelationalTable(data_options);

  MatchEngineOptions engine_options;
  engine_options.device = test::SharedTestDevice(8);
  auto single = sa::RelationalSearcher::Create(&table, 10, engine_options);
  ASSERT_TRUE(single.ok());
  auto queries = data::MakeRangeQueries(table, 16, 4, 8, 11);
  auto reference = (*single)->SearchBatch(queries);
  ASSERT_TRUE(reference.ok());

  // Shard rows into 3 parts, index each shard, run multi-load manually.
  const uint32_t parts = 3;
  const uint32_t per = (table.num_rows() + parts - 1) / parts;
  std::vector<std::vector<std::vector<uint32_t>>> shard_cols(parts);
  std::vector<uint32_t> cards;
  for (uint32_t c = 0; c < table.num_columns(); ++c) {
    cards.push_back(table.cardinality(c));
  }
  for (uint32_t p = 0; p < parts; ++p) {
    shard_cols[p].resize(table.num_columns());
  }
  for (uint32_t r = 0; r < table.num_rows(); ++r) {
    for (uint32_t c = 0; c < table.num_columns(); ++c) {
      shard_cols[r / per][c].push_back(table.value(r, c));
    }
  }
  std::vector<sa::RelationalTable> shards;
  std::vector<std::unique_ptr<sa::RelationalSearcher>> shard_searchers;
  for (uint32_t p = 0; p < parts; ++p) {
    shards.emplace_back(std::move(shard_cols[p]), cards);
  }
  std::vector<std::vector<QueryResult>> shard_results;
  for (uint32_t p = 0; p < parts; ++p) {
    auto s = sa::RelationalSearcher::Create(&shards[p], 10, engine_options);
    ASSERT_TRUE(s.ok());
    auto r = (*s)->SearchBatch(queries);
    ASSERT_TRUE(r.ok());
    shard_results.push_back(std::move(*r));
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<uint32_t> merged;
    for (uint32_t p = 0; p < parts; ++p) {
      for (const TopKEntry& e : shard_results[p][q].entries) {
        merged.push_back(e.count);
      }
    }
    std::sort(merged.begin(), merged.end(), std::greater<>());
    if (merged.size() > 10) merged.resize(10);
    std::vector<uint32_t> expected;
    for (const TopKEntry& e : (*reference)[q].entries) {
      expected.push_back(e.count);
    }
    EXPECT_EQ(merged, expected) << "query " << q;
  }
}

}  // namespace
}  // namespace genie
