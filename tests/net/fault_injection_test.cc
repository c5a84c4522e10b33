/// Fault-injection matrix for the multi-node tier (runs under ASan/UBSan
/// and TSan in CI): every scenario is deterministic via net::FaultInjector
/// over loopback workers — worker death mid-batch, a slow worker forcing a
/// hedged retry (exactly one result per query, no duplicates), replica
/// failover on dropped / truncated / corrupted / disconnected responses,
/// exhaustion of the whole replica ladder, and the coordinator destructor
/// with scatters still in flight. Every scenario must end in a clean
/// Status or a hedged success — never a hang, crash, duplicated or
/// dropped result.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/remote_engine.h"
#include "index/shard.h"
#include "net/fault_injector.h"
#include "test_util.h"

namespace genie {
namespace {

constexpr uint64_t kMatchCall = RemoteEngine::kCallsDuringCreate;

/// One ready-to-scatter workload: the index sharded into `shards` parts
/// plus the brute-force count profiles every correct answer must show.
struct RemoteFixture {
  test::RandomWorkload workload;
  ShardedIndex sharded;
  std::vector<IndexPart> parts;
  MatchEngineOptions options;

  explicit RemoteFixture(uint32_t shards, uint32_t k = 5) {
    workload = test::MakeRandomWorkload(120, 48, 5, 6, 4, 311);
    sharded =
        ShardByPostingsVolume(workload.index, shards).ValueOrDie();
    for (size_t p = 0; p < sharded.shards.size(); ++p) {
      parts.push_back(IndexPart{&sharded.shards[p], sharded.offsets[p]});
    }
    options.k = k;
  }

  /// Correctness contract: per query, the result's descending count
  /// multiset equals brute force over the unsharded index, and no object
  /// id appears twice (a duplicated hedge response would).
  void ExpectCorrect(const std::vector<QueryResult>& results) const {
    ASSERT_EQ(results.size(), workload.queries.size());
    for (size_t q = 0; q < results.size(); ++q) {
      const auto counts = test::BruteForceCounts(workload.index,
                                                 workload.queries[q]);
      EXPECT_EQ(test::EntryCountMultiset(results[q]),
                test::TopKCountMultiset(counts, options.k))
          << "query " << q;
      std::set<ObjectId> ids;
      for (const TopKEntry& entry : results[q].entries) {
        EXPECT_TRUE(ids.insert(entry.id).second)
            << "query " << q << ": duplicated id " << entry.id;
      }
    }
  }
};

RemoteWorkerStats StatsOf(const RemoteEngine& engine,
                          const std::string& address) {
  for (const RemoteWorkerStats& stats : engine.profile().workers) {
    if (stats.address == address) return stats;
  }
  return {};
}

TEST(FaultInjectionTest, BaselineNoFaultsAnswersCorrectly) {
  RemoteFixture fixture(3);
  net::FaultInjector injector;
  net::RemoteOptions remote = net::RemoteOptions::Loopback(3);
  remote.fault_injector = &injector;
  auto engine =
      RemoteEngine::Create(fixture.parts, fixture.options, remote);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto results = (*engine)->ExecuteBatch(fixture.workload.queries);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  fixture.ExpectCorrect(*results);
}

TEST(FaultInjectionTest, WorkerDeathMidBatchFailsCleanly) {
  RemoteFixture fixture(2);
  net::FaultInjector injector;
  net::RemoteOptions remote = net::RemoteOptions::Loopback(2);
  remote.fault_injector = &injector;
  auto engine =
      RemoteEngine::Create(fixture.parts, fixture.options, remote);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // First batch lands, then shard 1's only worker dies: the next batch
  // must fail with a clean IOError (replica-less shards cannot fail over),
  // and a revived worker serves again — the coordinator holds no poisoned
  // state.
  auto ok_batch = (*engine)->ExecuteBatch(fixture.workload.queries);
  ASSERT_TRUE(ok_batch.ok()) << ok_batch.status().ToString();

  injector.KillWorker("loopback/1");
  auto dead_batch = (*engine)->ExecuteBatch(fixture.workload.queries);
  ASSERT_FALSE(dead_batch.ok());
  EXPECT_EQ(dead_batch.status().code(), StatusCode::kIOError);

  injector.ReviveWorker("loopback/1");
  auto revived = (*engine)->ExecuteBatch(fixture.workload.queries);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  fixture.ExpectCorrect(*revived);
}

TEST(FaultInjectionTest, SlowWorkerTriggersHedgedRetry) {
  RemoteFixture fixture(1);
  net::FaultInjector injector;
  net::RemoteOptions remote = net::RemoteOptions::Loopback(1, /*replicas=*/1);
  remote.fault_injector = &injector;
  remote.hedge_delay_s = 0.01;
  net::FaultSpec slow;
  slow.kind = net::FaultSpec::Kind::kDelay;
  slow.delay_s = 0.5;
  injector.Arm("loopback/0", kMatchCall, slow);

  auto engine =
      RemoteEngine::Create(fixture.parts, fixture.options, remote);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto results = (*engine)->ExecuteBatch(fixture.workload.queries);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  // Exactly one result per query, no duplicates, correct counts — the
  // slow primary's late answer must not double anything.
  fixture.ExpectCorrect(*results);

  const RemoteWorkerStats replica =
      StatsOf(**engine, "loopback/0/replica0");
  EXPECT_EQ(replica.hedged, 1u);
  EXPECT_EQ(replica.wins, 1u);
  // Destroying the engine now joins the still-sleeping primary attempt.
}

TEST(FaultInjectionTest, ReplicaFailoverOnDroppedRequest) {
  RemoteFixture fixture(2);
  net::FaultInjector injector;
  net::RemoteOptions remote = net::RemoteOptions::Loopback(2, /*replicas=*/1);
  remote.fault_injector = &injector;
  net::FaultSpec drop;
  drop.kind = net::FaultSpec::Kind::kDropRequest;
  injector.Arm("loopback/0", kMatchCall, drop);

  auto engine =
      RemoteEngine::Create(fixture.parts, fixture.options, remote);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto results = (*engine)->ExecuteBatch(fixture.workload.queries);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  fixture.ExpectCorrect(*results);

  EXPECT_EQ(StatsOf(**engine, "loopback/0").failures, 1u);
  EXPECT_EQ(StatsOf(**engine, "loopback/0/replica0").wins, 1u);
}

TEST(FaultInjectionTest, ReplicaFailoverOnMalformedResponses) {
  // Truncated, corrupted, and mid-response-disconnected primary replies
  // must each read as a failed attempt and fail over to the replica.
  for (const auto kind : {net::FaultSpec::Kind::kTruncateResponse,
                          net::FaultSpec::Kind::kCorruptResponse,
                          net::FaultSpec::Kind::kDisconnectMidResponse}) {
    RemoteFixture fixture(1);
    net::FaultInjector injector;
    net::RemoteOptions remote =
        net::RemoteOptions::Loopback(1, /*replicas=*/1);
    remote.fault_injector = &injector;
    net::FaultSpec fault;
    fault.kind = kind;
    fault.at_byte = 25;  // inside the response payload
    injector.Arm("loopback/0", kMatchCall, fault);

    auto engine =
        RemoteEngine::Create(fixture.parts, fixture.options, remote);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    auto results = (*engine)->ExecuteBatch(fixture.workload.queries);
    ASSERT_TRUE(results.ok())
        << static_cast<int>(kind) << ": " << results.status().ToString();
    fixture.ExpectCorrect(*results);
    EXPECT_EQ(StatsOf(**engine, "loopback/0").failures, 1u)
        << static_cast<int>(kind);
    EXPECT_EQ(StatsOf(**engine, "loopback/0/replica0").wins, 1u)
        << static_cast<int>(kind);
  }
}

TEST(FaultInjectionTest, WholeReplicaLadderFailingFailsTheBatch) {
  RemoteFixture fixture(1);
  net::FaultInjector injector;
  net::RemoteOptions remote = net::RemoteOptions::Loopback(1, /*replicas=*/2);
  remote.fault_injector = &injector;
  net::FaultSpec drop;
  drop.kind = net::FaultSpec::Kind::kDropRequest;
  injector.Arm("loopback/0", kMatchCall, drop);
  injector.Arm("loopback/0/replica0", kMatchCall, drop);
  injector.Arm("loopback/0/replica1", kMatchCall, drop);

  auto engine =
      RemoteEngine::Create(fixture.parts, fixture.options, remote);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto results = (*engine)->ExecuteBatch(fixture.workload.queries);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kIOError);

  // The ladder is consumable again: clean calls succeed afterwards.
  auto retried = (*engine)->ExecuteBatch(fixture.workload.queries);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  fixture.ExpectCorrect(*retried);
}

TEST(FaultInjectionTest, DestructorJoinsStragglersAfterHedgedWin) {
  RemoteFixture fixture(1);
  net::FaultInjector injector;
  net::RemoteOptions remote = net::RemoteOptions::Loopback(1, /*replicas=*/1);
  remote.fault_injector = &injector;
  remote.hedge_delay_s = 0.005;
  net::FaultSpec slow;
  slow.kind = net::FaultSpec::Kind::kDelay;
  slow.delay_s = 0.2;
  injector.Arm("loopback/0", kMatchCall, slow);

  auto engine =
      RemoteEngine::Create(fixture.parts, fixture.options, remote);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto results = (*engine)->ExecuteBatch(fixture.workload.queries);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  // The primary attempt is still sleeping inside its transport call;
  // destruction must block until it lands (ASan/TSan would flag a leaked
  // or racing thread).
  engine->reset();
}

TEST(FaultInjectionTest, DestructorWaitsForInFlightScatter) {
  RemoteFixture fixture(1);
  net::FaultInjector injector;
  net::RemoteOptions remote = net::RemoteOptions::Loopback(1);
  remote.fault_injector = &injector;
  net::FaultSpec slow;
  slow.kind = net::FaultSpec::Kind::kDelay;
  slow.delay_s = 0.15;
  injector.Arm("loopback/0", kMatchCall, slow);

  auto engine =
      RemoteEngine::Create(fixture.parts, fixture.options, remote);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  Result<std::vector<QueryResult>> in_flight = Status::Internal("unset");
  // The caller holds the raw engine, taken before it starts: reading the
  // unique_ptr from the thread would race with the reset below.
  RemoteEngine* raw = engine->get();
  std::thread caller([&, raw] {
    in_flight = raw->ExecuteBatch(fixture.workload.queries);
  });
  // Give the scatter a moment to launch, then destroy the engine while the
  // only attempt is still sleeping. The destructor must wait the batch out
  // rather than pulling state from under it.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  engine->reset();
  caller.join();
  ASSERT_TRUE(in_flight.ok()) << in_flight.status().ToString();
  fixture.ExpectCorrect(*in_flight);
}

TEST(FaultInjectionTest, HedgedBatchesBackToBackStayConsistent) {
  // Several consecutive batches with a hedge on each: per-batch winners
  // stay exactly-one and the accounting sums across batches.
  RemoteFixture fixture(1);
  net::FaultInjector injector;
  net::RemoteOptions remote = net::RemoteOptions::Loopback(1, /*replicas=*/1);
  remote.fault_injector = &injector;
  remote.hedge_delay_s = 0.005;
  constexpr int kBatches = 4;
  for (int b = 0; b < kBatches; ++b) {
    net::FaultSpec slow;
    slow.kind = net::FaultSpec::Kind::kDelay;
    slow.delay_s = 0.1;
    injector.Arm("loopback/0", kMatchCall + static_cast<uint64_t>(b), slow);
  }

  auto engine =
      RemoteEngine::Create(fixture.parts, fixture.options, remote);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (int b = 0; b < kBatches; ++b) {
    auto results = (*engine)->ExecuteBatch(fixture.workload.queries);
    ASSERT_TRUE(results.ok()) << "batch " << b << ": "
                              << results.status().ToString();
    fixture.ExpectCorrect(*results);
  }
  const RemoteWorkerStats replica =
      StatsOf(**engine, "loopback/0/replica0");
  EXPECT_EQ(replica.wins, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(replica.hedged, static_cast<uint64_t>(kBatches));
}

}  // namespace
}  // namespace genie
