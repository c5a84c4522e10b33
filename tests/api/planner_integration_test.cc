/// Facade-level planner contract: the planner must be invisible in the
/// results. Every modality answers identically at every device count of the
/// sweep as under a forced multi-load plan (plan vs forced plan), the
/// profile carries the plan facts, ExplainPlan reports the live schedule,
/// and bundles persist IndexStats that equal a fresh recompute.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "api/genie.h"
#include "api_test_util.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "data/documents.h"
#include "data/points.h"
#include "data/relational_data.h"
#include "data/sequences.h"
#include "plan/index_stats.h"
#include "test_util.h"

namespace genie {
namespace {

using test::DeviceSweep;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

/// The default engine at every device count against one engine forced onto
/// a three-part multi-load plan: answers must be equal, and both profiles
/// must report the plan their tier was built from.
template <typename MakeConfig, typename MakeRequest>
void CheckPlannerEquivalence(MakeConfig make_config,
                             MakeRequest make_request) {
  auto forced = Engine::Create(make_config().ForceParts(3));
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  auto forced_result = (*forced)->Search(make_request());
  ASSERT_TRUE(forced_result.ok()) << forced_result.status().ToString();
  EXPECT_TRUE(forced_result->profile.planned);
  EXPECT_EQ(forced_result->profile.plan_tier, "multi-load");

  for (uint32_t devices : DeviceSweep()) {
    auto planned = Engine::Create(make_config().Devices(devices));
    ASSERT_TRUE(planned.ok())
        << devices << " devices: " << planned.status().ToString();
    auto planned_result = (*planned)->Search(make_request());
    ASSERT_TRUE(planned_result.ok())
        << devices << " devices: " << planned_result.status().ToString();

    EXPECT_TRUE(planned_result->profile.planned)
        << "at " << devices << " devices";
    EXPECT_FALSE(planned_result->profile.plan_tier.empty());

    test::ExpectSameAnswers(
        *planned_result, *forced_result,
        "plan vs forced multi-load plan at " + std::to_string(devices) +
            " devices");
  }
}

TEST(PlannerIntegrationTest, PointsPlanMatchesEscalationPath) {
  data::ClusteredPointsOptions data_options;
  data_options.num_points = 400;
  data_options.dim = 6;
  data_options.num_clusters = 8;
  data_options.seed = 91;
  auto dataset = data::MakeClusteredPoints(data_options);
  auto queries = data::MakeQueriesNear(dataset.points, 4, 0.1, 92);

  CheckPlannerEquivalence(
      [&] {
        return EngineConfig()
            .Points(&dataset.points)
            .K(5)
            .HashFunctions(16)
            .RehashDomain(64)
            .Seed(93)
            .Device(test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Points(queries); });
}

TEST(PlannerIntegrationTest, SetsPlanMatchesEscalationPath) {
  Rng rng(94);
  std::vector<std::vector<uint32_t>> sets(150);
  for (auto& set : sets) {
    for (int i = 0; i < 10; ++i) {
      set.push_back(static_cast<uint32_t>(rng.UniformU64(3000)));
    }
  }
  std::vector<std::vector<uint32_t>> queries{sets[0], sets[75], sets[149]};

  CheckPlannerEquivalence(
      [&] {
        return EngineConfig()
            .Sets(&sets)
            .K(4)
            .HashFunctions(16)
            .RehashDomain(128)
            .Seed(95)
            .Device(test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Sets(queries); });
}

TEST(PlannerIntegrationTest, SequencesPlanMatchesEscalationPath) {
  data::SequenceDatasetOptions data_options;
  data_options.num_sequences = 150;
  data_options.min_length = 15;
  data_options.max_length = 25;
  data_options.seed = 96;
  auto sequences = data::MakeSequences(data_options);
  std::vector<std::string> queries{sequences[3], sequences[70],
                                   sequences[149]};

  CheckPlannerEquivalence(
      [&] {
        return EngineConfig()
            .Sequences(&sequences)
            .K(2)
            .CandidateK(16)
            .Ngram(3)
            .Device(test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Sequences(queries); });
}

TEST(PlannerIntegrationTest, DocumentsPlanMatchesEscalationPath) {
  Rng rng(97);
  std::vector<std::vector<uint32_t>> corpus(200);
  for (auto& doc : corpus) {
    for (int i = 0; i < 8; ++i) {
      doc.push_back(static_cast<uint32_t>(rng.UniformU64(500)));
    }
  }
  std::vector<std::vector<uint32_t>> queries{corpus[0], corpus[100],
                                             corpus[199]};

  CheckPlannerEquivalence(
      [&] {
        return EngineConfig().Documents(&corpus).K(4).Device(
            test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Documents(queries); });
}

TEST(PlannerIntegrationTest, RelationalPlanMatchesEscalationPath) {
  data::RelationalDatasetOptions data_options;
  data_options.num_rows = 300;
  data_options.numeric_columns = 2;
  data_options.numeric_buckets = 16;
  data_options.categorical_columns = 2;
  data_options.categorical_cardinality = 5;
  data_options.seed = 98;
  auto table = data::MakeRelationalTable(data_options);
  auto queries = data::MakeExactMatchQueries(table, 4, 99);

  CheckPlannerEquivalence(
      [&] {
        return EngineConfig().Table(&table).K(3).Device(
            test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Ranges(queries); });
}

TEST(PlannerIntegrationTest, CompiledPlanMatchesEscalationPath) {
  auto workload = test::MakeRandomWorkload(500, 60, 5, 6, 4, 100);
  CheckPlannerEquivalence(
      [&] {
        return EngineConfig()
            .Index(&workload.index)
            .K(5)
            .Device(test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Compiled(workload.queries); });
}

TEST(PlannerIntegrationTest, ExplainPlanReportsTheLiveSchedule) {
  auto workload = test::MakeRandomWorkload(300, 40, 4, 2, 3, 101);
  auto engine = Engine::Create(EngineConfig()
                                   .Index(&workload.index)
                                   .K(4)
                                   .Device(test::SharedTestDevice(2)));
  ASSERT_TRUE(engine.ok());
  const std::string report = (*engine)->ExplainPlan();
  EXPECT_NE(report.find("planner: on"), std::string::npos) << report;
  EXPECT_NE(report.find("tier=single-device"), std::string::npos) << report;
  EXPECT_NE(report.find("objects=300"), std::string::npos) << report;
  EXPECT_NE(report.find("margin"), std::string::npos) << report;
}

TEST(PlannerIntegrationTest, ProfileCarriesPlanFacts) {
  auto workload = test::MakeRandomWorkload(400, 50, 5, 3, 3, 102);
  auto engine = Engine::Create(EngineConfig()
                                   .Index(&workload.index)
                                   .K(4)
                                   .Device(test::SharedTestDevice(2)));
  ASSERT_TRUE(engine.ok());
  auto result = (*engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->profile.planned);  // planner is the default
  EXPECT_EQ(result->profile.plan_tier, "single-device");
  EXPECT_GE(result->profile.planned_chunk_size, 1u);
  EXPECT_GE(result->profile.planned_pipeline_depth, 1u);
}

/// Parses the stats section straight out of a GNIEBNDL v3 file:
/// magic | u32 version | u32 modality | u64 meta | meta | u64 mutation |
/// mutation | u64 stats | stats blob | ...
plan::IndexStats ReadBundleStats(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  std::string file((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  size_t pos = 8;  // magic
  auto read_u32 = [&](size_t at) {
    uint32_t v;
    std::memcpy(&v, file.data() + at, sizeof(v));
    return v;
  };
  auto read_u64 = [&](size_t at) {
    uint64_t v;
    std::memcpy(&v, file.data() + at, sizeof(v));
    return v;
  };
  EXPECT_EQ(read_u32(pos), 3u);  // v3
  pos += 4 + 4;                  // version + modality
  pos += 8 + read_u64(pos);      // meta
  pos += 8 + read_u64(pos);      // mutation
  const uint64_t stats_bytes = read_u64(pos);
  pos += 8;
  serialize::Reader reader(
      std::string_view(file).substr(pos, static_cast<size_t>(stats_bytes)));
  plan::IndexStats stats;
  EXPECT_TRUE(plan::DeserializeIndexStats(&reader, &stats).ok());
  return stats;
}

TEST(PlannerIntegrationTest, BundlePersistsStatsEqualToRecompute) {
  auto workload = test::MakeRandomWorkload(350, 45, 5, 4, 3, 103);
  auto engine = Engine::Create(EngineConfig()
                                   .Index(&workload.index)
                                   .K(4)
                                   .Device(test::SharedTestDevice(2)));
  ASSERT_TRUE(engine.ok());
  const std::string path = TempPath("genie_planner_stats_bundle.gnb");
  ASSERT_TRUE((*engine)->Save(path).ok());

  // The persisted blob equals a fresh recompute over the same index.
  const plan::IndexStats persisted = ReadBundleStats(path);
  const plan::IndexStats recomputed = plan::ComputeIndexStats(workload.index);
  EXPECT_EQ(persisted, recomputed);
  EXPECT_TRUE(persisted.MatchesIndex(workload.index));

  // The reopened engine plans from the persisted stats (no re-scan) and
  // answers identically.
  auto reference = (*engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(reference.ok());
  auto reopened = Engine::Open(path, EngineConfig().K(4).Device(
                                         test::SharedTestDevice(2)));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_NE((*reopened)->ExplainPlan().find("stats: persisted"),
            std::string::npos)
      << (*reopened)->ExplainPlan();
  auto result = (*reopened)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(result.ok());
  test::ExpectSameAnswers(*result, *reference, "persisted-stats reopen");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace genie
