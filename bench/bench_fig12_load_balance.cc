/// Figure 12: the load-balance experiment — exact-match queries over a
/// duplicated Adult-like table whose skewed categorical columns create
/// extremely long postings lists. GENIE_LB splits lists to 4K sublists with
/// two sublists per block; GENIE_noLB scans whole lists, one block per
/// item. With few queries the split spreads work over many more blocks; as
/// the query count grows the effect fades (Section VI-B3).
///
/// The MultiDevice sweep extends the load-balance story to space
/// multiplexing: the same balanced index sharded across 1/2/4 simulated
/// devices (each with a fixed quarter-host worker budget, so adding
/// devices adds hardware instead of inflating one device), batches
/// executing on all devices in parallel through EngineBackend.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "core/engine_backend.h"
#include "core/partitioned_engine.h"
#include "data/relational_data.h"
#include "index/index_builder.h"
#include "index/shard.h"
#include "index/vocabulary.h"
#include "sim/device_set.h"

namespace genie {
namespace bench {
namespace {

struct Workload {
  InvertedIndex plain;
  InvertedIndex balanced;
  std::vector<Query> queries;
  uint32_t num_columns;
};

const Workload& LoadBalanceWorkload() {
  static const Workload* workload = [] {
    auto* w = new Workload();
    data::RelationalDatasetOptions options;
    options.num_rows = Scaled(1000000);  // the paper duplicates Adult to 100M
    options.numeric_columns = 2;
    options.numeric_buckets = 64;
    options.categorical_columns = 8;
    options.categorical_cardinality = 6;
    options.categorical_skew = 1.6;  // sex/race-like dominant values
    options.seed = 901;
    auto table = data::MakeRelationalTable(options);
    w->num_columns = table.num_columns();

    std::vector<uint32_t> cards;
    for (uint32_t c = 0; c < table.num_columns(); ++c) {
      cards.push_back(table.cardinality(c));
    }
    DimValueEncoder enc(cards);
    InvertedIndexBuilder plain(enc.vocab_size());
    InvertedIndexBuilder balanced(enc.vocab_size());
    for (uint32_t r = 0; r < table.num_rows(); ++r) {
      for (uint32_t c = 0; c < table.num_columns(); ++c) {
        const Keyword kw = enc.EncodeUnchecked(c, table.value(r, c));
        plain.Add(r, kw);
        balanced.Add(r, kw);
      }
    }
    w->plain = std::move(plain).Build().ValueOrDie();
    IndexBuildOptions lb;
    lb.max_list_length = 4096;  // the paper's sublist bound
    w->balanced = std::move(balanced).Build(lb).ValueOrDie();

    for (const auto& rq : data::MakeExactMatchQueries(table, 16, 902)) {
      Query q;
      for (const auto& item : rq.items) {
        q.AddItem(enc.EncodeUnchecked(item.column, item.lo));
      }
      w->queries.push_back(std::move(q));
    }
    return w;
  }();
  return *workload;
}

void BM_LoadBalance(benchmark::State& state, bool balanced) {
  const Workload& w = LoadBalanceWorkload();
  const uint32_t nq = static_cast<uint32_t>(state.range(0));
  MatchEngineOptions options;
  options.k = 1;  // "return the best match candidates"
  options.max_count = w.num_columns;
  options.max_lists_per_block = balanced ? 2 : 0;
  options.device = BenchDevice();
  auto engine =
      MatchEngine::Create(balanced ? &w.balanced : &w.plain, options);
  GENIE_CHECK(engine.ok());
  std::span<const Query> batch(w.queries.data(), nq);
  for (auto _ : state) {
    auto results = (*engine)->ExecuteBatch(batch);
    GENIE_CHECK(results.ok());
    benchmark::DoNotOptimize(results);
  }
}

void BM_MultiDevice(benchmark::State& state) {
  const Workload& w = LoadBalanceWorkload();
  const uint32_t num_devices = static_cast<uint32_t>(state.range(0));
  // Fixed per-device hardware: every device gets a quarter of the host's
  // workers regardless of the sweep point, so the 4-device run models four
  // GPUs rather than one GPU with four times the SMs.
  sim::DeviceSet::Options set_options;
  set_options.num_devices = num_devices;
  set_options.device.num_workers = std::max(
      1u, std::thread::hardware_concurrency() / 4);
  auto devices = sim::DeviceSet::Create(set_options);
  GENIE_CHECK(devices.ok());

  MatchEngineOptions options;
  options.k = 1;
  options.max_count = w.num_columns;
  options.max_lists_per_block = 2;
  EngineBackendOptions backend_options;
  backend_options.device_set = devices->get();
  auto backend = EngineBackend::Create(&w.balanced, options, backend_options);
  GENIE_CHECK(backend.ok());

  std::span<const Query> batch(w.queries.data(), w.queries.size());
  for (auto _ : state) {
    auto results = (*backend)->ExecuteBatch(batch);
    GENIE_CHECK(results.ok());
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.size()));
  state.counters["devices"] = num_devices;
}

/// A dataset whose postings volume is skewed across the object id space:
/// the first tenth of the ids carries long keyword lists, the rest short
/// ones. Uniform object-range sharding piles the heavy decile onto one
/// device; the planner's volume-balanced boundaries spread it.
struct SkewedWorkload {
  InvertedIndex index;
  std::vector<Query> queries;
  uint32_t max_count;
};

const SkewedWorkload& SkewedVolumeWorkload() {
  static const SkewedWorkload* workload = [] {
    auto* w = new SkewedWorkload();
    const uint32_t num_objects = Scaled(200000);
    const uint32_t vocab = 4096;
    const uint32_t heavy_end = num_objects / 10;
    InvertedIndexBuilder builder(vocab);
    uint64_t lcg = 9001;
    auto next = [&lcg] {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<uint32_t>(lcg >> 33);
    };
    for (uint32_t id = 0; id < num_objects; ++id) {
      const uint32_t len = id < heavy_end ? 48 : 4;
      for (uint32_t i = 0; i < len; ++i) builder.Add(id, next() % vocab);
    }
    w->index = std::move(builder).Build().ValueOrDie();
    for (uint32_t q = 0; q < 64; ++q) {
      Query query;
      for (uint32_t i = 0; i < 6; ++i) query.AddItem(next() % vocab);
      w->queries.push_back(std::move(query));
    }
    w->max_count = MatchEngine::DeriveMaxCount(w->queries);
    return w;
  }();
  return *workload;
}

/// Planned (volume-balanced) vs uniform (object-range) sharding of the
/// skewed dataset over 4 devices: the counters report the per-device match
/// seconds spread (max-min)/max — the planner's boundaries should keep it
/// no worse than the uniform split's. The planned arm is the backend's
/// multi-device tier; the uniform arm shards by object range and keeps the
/// parts resident round-robin through a PartitionedEngine on the same kind
/// of device set.
void BM_SkewedShards(benchmark::State& state, bool planned) {
  const SkewedWorkload& w = SkewedVolumeWorkload();
  sim::DeviceSet::Options set_options;
  set_options.num_devices = 4;
  set_options.device.num_workers = std::max(
      1u, std::thread::hardware_concurrency() / 4);
  auto devices = sim::DeviceSet::Create(set_options);
  GENIE_CHECK(devices.ok());

  MatchEngineOptions options;
  options.k = 8;
  options.max_count = w.max_count;
  std::unique_ptr<EngineBackend> backend;
  ShardedIndex uniform;
  std::unique_ptr<PartitionedEngine> engine;
  if (planned) {
    EngineBackendOptions backend_options;
    backend_options.device_set = devices->get();
    auto created = EngineBackend::Create(&w.index, options, backend_options);
    GENIE_CHECK(created.ok());
    backend = std::move(created).ValueOrDie();
  } else {
    auto sharded = ShardByObjectRange(w.index, set_options.num_devices);
    GENIE_CHECK(sharded.ok());
    uniform = std::move(sharded).ValueOrDie();
    std::vector<IndexPart> parts;
    for (size_t p = 0; p < uniform.shards.size(); ++p) {
      parts.push_back(IndexPart{&uniform.shards[p], uniform.offsets[p]});
    }
    auto created = PartitionedEngine::Create(parts, options, devices->get());
    GENIE_CHECK(created.ok());
    engine = std::move(created).ValueOrDie();
  }

  std::span<const Query> batch(w.queries.data(), w.queries.size());
  for (auto _ : state) {
    auto results = planned ? backend->ExecuteBatch(batch)
                           : engine->ExecuteBatch(batch);
    GENIE_CHECK(results.ok());
    benchmark::DoNotOptimize(results);
  }

  const std::vector<MatchProfile> per_device =
      planned ? backend->device_profiles() : engine->profile().per_device;
  double max_match = 0;
  double min_match = per_device.empty() ? 0 : per_device[0].match_s;
  for (const MatchProfile& p : per_device) {
    max_match = std::max(max_match, p.match_s);
    min_match = std::min(min_match, p.match_s);
  }
  state.counters["devices"] = static_cast<double>(per_device.size());
  state.counters["max_match_s"] = max_match;
  state.counters["min_match_s"] = min_match;
  state.counters["match_spread"] =
      max_match > 0 ? (max_match - min_match) / max_match : 0;
}

void RegisterAll() {
  for (int64_t nq : {1, 2, 4, 8, 16}) {
    benchmark::RegisterBenchmark("Fig12/GENIE_LB", BM_LoadBalance, true)
        ->Arg(nq)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark("Fig12/GENIE_noLB", BM_LoadBalance, false)
        ->Arg(nq)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  for (int64_t devices : {1, 2, 4}) {
    benchmark::RegisterBenchmark("Fig12/MultiDevice", BM_MultiDevice)
        ->Arg(devices)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(2);
  }
  benchmark::RegisterBenchmark("Fig12/SkewedShards/planned", BM_SkewedShards,
                               true)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(2);
  benchmark::RegisterBenchmark("Fig12/SkewedShards/uniform", BM_SkewedShards,
                               false)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(2);
}

}  // namespace
}  // namespace bench
}  // namespace genie

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  genie::bench::RegisterAll();
  genie::bench::JsonTeeReporter reporter("fig12");
  benchmark::RunSpecifiedBenchmarks(&reporter);
  return 0;
}
