/// Facade-level gate for the SIMD match kernels: on every modality, at
/// every device count of the sweep, under every selector, forcing the
/// scalar arm and forcing the best supported vector arm must answer
/// identically. This is the tentpole's acceptance sweep — the kernel-level
/// word/value bit-identity lives in tests/common/simd_test.cc; here we pin
/// that nothing above the kernel (batching, task slicing, planner, merge)
/// lets the arms drift apart. CI runs the whole binary twice, once with
/// GENIE_SIMD=off, so the scalar reference arm is also exercised as the
/// ambient default.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/genie.h"
#include "api_test_util.h"
#include "common/rng.h"
#include "common/simd.h"
#include "data/documents.h"
#include "data/points.h"
#include "data/relational_data.h"
#include "data/sequences.h"
#include "test_util.h"

namespace genie {
namespace {

using test::DeviceSweep;

const SelectorKind kAllSelectors[] = {
    SelectorKind::kCpq, SelectorKind::kCountTableSpq,
    SelectorKind::kBucketSelect};

const char* SelectorLabel(SelectorKind s) {
  switch (s) {
    case SelectorKind::kCpq:
      return "cpq";
    case SelectorKind::kCountTableSpq:
      return "count-table";
    case SelectorKind::kBucketSelect:
      return "bucket-select";
  }
  return "?";
}

/// Same config and request, scalar arm vs best vector arm, for every
/// (device count, selector) cell. The force spans engine construction AND
/// the search, so staging-time kernel use is covered too. A fresh engine's
/// plan runs the configured selector as-is — the planner promotes only
/// after observing overflows or select rates — so both runs execute it
/// (planner promotion equivalence has its own suite).
template <typename MakeConfig, typename MakeRequest>
void CheckSimdEquivalence(MakeConfig make_config, MakeRequest make_request) {
  const simd::Arch best = simd::BestSupportedArch();
  for (uint32_t devices : DeviceSweep()) {
    for (const SelectorKind selector : kAllSelectors) {
      const std::string label = std::string("selector=") +
                                SelectorLabel(selector) + " devices=" +
                                std::to_string(devices);
      std::vector<SearchResult> per_arm;
      for (const simd::Arch arch : {simd::Arch::kScalar, best}) {
        simd::ScopedForceArch force(arch);
        auto engine = Engine::Create(
            make_config().Devices(devices).Selector(selector));
        ASSERT_TRUE(engine.ok()) << label << ": "
                                 << engine.status().ToString();
        auto result = (*engine)->Search(make_request());
        ASSERT_TRUE(result.ok()) << label << " arch="
                                 << simd::ArchName(arch) << ": "
                                 << result.status().ToString();
        per_arm.push_back(*std::move(result));
      }
      test::ExpectSameAnswers(per_arm[1], per_arm[0],
                              label + " (simd vs scalar)");
    }
  }
}

TEST(SimdEquivalenceTest, PointsAnswersMatchAcrossArms) {
  data::ClusteredPointsOptions data_options;
  data_options.num_points = 400;
  data_options.dim = 6;
  data_options.num_clusters = 8;
  data_options.seed = 111;
  auto dataset = data::MakeClusteredPoints(data_options);
  auto queries = data::MakeQueriesNear(dataset.points, 4, 0.1, 112);

  CheckSimdEquivalence(
      [&] {
        return EngineConfig()
            .Points(&dataset.points)
            .K(5)
            .HashFunctions(16)
            .RehashDomain(64)
            .Seed(113)
            .Device(test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Points(queries); });
}

TEST(SimdEquivalenceTest, SetsAnswersMatchAcrossArms) {
  Rng rng(114);
  std::vector<std::vector<uint32_t>> sets(150);
  for (auto& set : sets) {
    for (int i = 0; i < 10; ++i) {
      set.push_back(static_cast<uint32_t>(rng.UniformU64(3000)));
    }
  }
  std::vector<std::vector<uint32_t>> queries{sets[0], sets[75], sets[149]};

  CheckSimdEquivalence(
      [&] {
        return EngineConfig()
            .Sets(&sets)
            .K(4)
            .HashFunctions(16)
            .RehashDomain(128)
            .Seed(115)
            .Device(test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Sets(queries); });
}

TEST(SimdEquivalenceTest, SequencesAnswersMatchAcrossArms) {
  data::SequenceDatasetOptions data_options;
  data_options.num_sequences = 150;
  data_options.min_length = 15;
  data_options.max_length = 25;
  data_options.seed = 116;
  auto sequences = data::MakeSequences(data_options);
  std::vector<std::string> queries{sequences[3], sequences[70],
                                   sequences[149]};

  CheckSimdEquivalence(
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

TEST(SimdEquivalenceTest, DocumentsAnswersMatchAcrossArms) {
  Rng rng(117);
  std::vector<std::vector<uint32_t>> corpus(200);
  for (auto& doc : corpus) {
    for (int i = 0; i < 8; ++i) {
      doc.push_back(static_cast<uint32_t>(rng.UniformU64(500)));
    }
  }
  std::vector<std::vector<uint32_t>> queries{corpus[0], corpus[100],
                                             corpus[199]};

  CheckSimdEquivalence(
      [&] {
        return EngineConfig().Documents(&corpus).K(4).Device(
            test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Documents(queries); });
}

TEST(SimdEquivalenceTest, RelationalAnswersMatchAcrossArms) {
  data::RelationalDatasetOptions data_options;
  data_options.num_rows = 300;
  data_options.numeric_columns = 2;
  data_options.numeric_buckets = 16;
  data_options.categorical_columns = 2;
  data_options.categorical_cardinality = 5;
  data_options.seed = 118;
  auto table = data::MakeRelationalTable(data_options);
  auto queries = data::MakeExactMatchQueries(table, 4, 119);

  CheckSimdEquivalence(
      [&] {
        return EngineConfig().Table(&table).K(3).Device(
            test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Ranges(queries); });
}

TEST(SimdEquivalenceTest, CompiledAnswersMatchAcrossArms) {
  auto workload = test::MakeRandomWorkload(500, 60, 5, 6, 4, 120);
  CheckSimdEquivalence(
      [&] {
        return EngineConfig()
            .Index(&workload.index)
            .K(5)
            .Device(test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Compiled(workload.queries); });
}

}  // namespace
}  // namespace genie
