/// The MC_k threshold contract of QueryHits::threshold (and the
/// QueryResult::threshold under it): 0 when fewer than k objects matched.
/// A query matching 3 of 40 objects at K(5) must report 0 on every tier and
/// selector — on the frozen index and again after an unrelated insert, which
/// routes the answers through the delta overlay.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "api/genie.h"
#include "index/index_builder.h"
#include "test_util.h"

namespace genie {
namespace {

TEST(ThresholdContractTest, FewerThanKMatchesReportZeroOnEveryTierAndSelector) {
  // Every object holds keyword 0; keyword 1 — the query — is held by three
  // objects spread over both halves of the id space, so each part of a
  // two-way split contributes fewer than k candidates.
  constexpr uint32_t kObjects = 40;
  InvertedIndexBuilder builder(3);
  for (ObjectId id = 0; id < kObjects; ++id) builder.Add(id, 0);
  for (const ObjectId id : {ObjectId{0}, ObjectId{17}, ObjectId{33}}) {
    builder.Add(id, 1);
  }
  const InvertedIndex index = std::move(builder).Build().ValueOrDie();
  Query query;
  query.AddItem(Keyword{1});
  const std::vector<Query> queries{query};
  const std::vector<std::vector<Keyword>> unrelated{{2}};

  struct Tier {
    std::string label;
    EngineConfig (*apply)(EngineConfig);
  };
  const Tier tiers[] = {
      {"single-device", [](EngineConfig c) { return c; }},
      {"ForceParts(2)", [](EngineConfig c) { return c.ForceParts(2); }},
      {"Devices(2)", [](EngineConfig c) { return c.Devices(2); }},
      {"Remote(Loopback(2))",
       [](EngineConfig c) {
         return c.Remote(net::RemoteOptions::Loopback(2));
       }},
  };
  const std::pair<SelectorKind, const char*> selectors[] = {
      {SelectorKind::kCpq, "cpq"},
      {SelectorKind::kCountTableSpq, "count-table"},
      {SelectorKind::kBucketSelect, "bucket-select"},
  };
  for (const Tier& tier : tiers) {
    for (const auto& [selector, selector_name] : selectors) {
      const std::string label = tier.label + " selector=" + selector_name;
      auto engine = Engine::Create(
          tier.apply(EngineConfig()
                         .Index(&index)
                         .K(5)
                         .Selector(selector)
                         .Device(test::SharedTestDevice(2))));
      ASSERT_TRUE(engine.ok()) << label << ": " << engine.status().ToString();
      for (const bool inserted : {false, true}) {
        if (inserted) {
          ASSERT_TRUE(
              (*engine)->Insert(InsertRequest::Objects(unrelated)).ok())
              << label;
        }
        auto result = (*engine)->Search(SearchRequest::Compiled(queries));
        ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
        const QueryHits& hits = result->queries[0];
        EXPECT_EQ(hits.hits.size(), 3u) << label << " inserted=" << inserted;
        EXPECT_EQ(hits.threshold, 0u) << label << " inserted=" << inserted;
      }
    }
  }
}

}  // namespace
}  // namespace genie
