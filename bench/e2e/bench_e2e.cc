/// End-to-end benchmark of the genie::Engine facade: one workload per
/// process, driven only through the public API, timed from the caller's
/// side, with every answer checked by oracle.h after the timed phase.
///
///   bench_e2e --workload ann-batch --seed 1 --seconds 20 --out r.json
///             [--trace --trace-out t.json] [--quick]
///
/// Writes one result JSON (report.h) and, with --trace, a Chrome trace of
/// spans recorded around facade calls and around direct calls into the
/// layer functions (trace.h). bench/e2e/run.py builds this program, runs it
/// and rolls the trace up; README.md lists the workloads and metrics.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/genie.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/match_engine.h"
#include "data/documents.h"
#include "data/points.h"
#include "data/sequences.h"
#include "index/index_builder.h"
#include "lsh/lsh_transformer.h"
#include "oracle.h"
#include "plan/cost_model.h"
#include "plan/index_stats.h"
#include "plan/query_planner.h"
#include "report.h"
#include "trace.h"

namespace genie {
namespace e2e {
namespace {

// Fixed run conditions: one simulated device with two workers per process
// (remote loopback workers clone its options), leaving cores of a 4-core
// host to the client, the stream's prepare thread and the serving layer.
constexpr uint32_t kDeviceWorkers = 2;
constexpr int kSetupRepeats = 5;
constexpr uint32_t kOracleSample = 256;
constexpr uint32_t kQuickDivisor = 20;

// ann-batch: SIFT stand-in streamed in chunks. 32 chunks per stream keep
// the first chunk of each stream (its prepare step is not overlapped, so
// it is the slowest) above the 90th percentile of chunk latency; with 16
// it sat near it and p90 jumped between runs.
constexpr uint32_t kAnnPoints = 100000;
constexpr uint32_t kAnnDim = 32;
constexpr uint32_t kAnnClusters = 128;
constexpr uint32_t kAnnQueries = 4096;
constexpr uint32_t kAnnChunk = 128;
constexpr uint32_t kAnnK = 10;

// seq-remote: DBLP stand-in over two loopback workers.
constexpr uint32_t kSeqSequences = 100000;
constexpr uint32_t kSeqAlphabet = 6;
constexpr uint32_t kSeqQueries = 4096;
constexpr uint32_t kSeqBatch = 256;
constexpr uint32_t kSeqNgram = 3;  // the facade's default

// docs-online / docs-mutate: Tweets stand-in.
constexpr uint32_t kDocs = 200000;
constexpr uint32_t kDocsVocab = 20000;
constexpr double kDocsZipf = 1.05;
constexpr uint32_t kDocsPool = 4096;  // docs-mutate's read queries
constexpr uint32_t kDocsK = 10;
// docs-online draws from a larger pool so that about a fifth of the
// arrivals hit the result cache: with ~50% hits the median would sit in
// the gap between hit (tens of us) and miss (ms) latencies and flip
// between them from run to run. Capacity at that hit rate is ~1,200 qps
// with 4 cores. Phase A offers about a fifth of it: in runs during which
// the host slowed by up to 40%, the median rose to 4x its quiet value at
// 500 qps and to 1.5x at most at 250. Phase B measures capacity with a
// bounded window, which backpressure never rejects. Four requests per
// tenant keep SearchAsync's thread pool (one thread per core) busy:
// windows of 8 to 256 measured the same capacity, and a larger one only
// adds time spent waiting for a pool thread.
constexpr uint32_t kOnlinePool = 32768;
constexpr uint32_t kOnlineWarmQueries = 1024;
constexpr double kOnlineRate = 250;     // phase A, Poisson
constexpr double kPhaseBShare = 0.4;    // of --seconds
constexpr uint32_t kPhaseBWindow = 16;  // requests in flight in phase B
constexpr uint32_t kTenants = 4;
constexpr double kWriteRate = 100;  // write ops per second, open loop
constexpr uint32_t kInsertsPerOp = 64;
constexpr uint32_t kRemovesPerOp = 16;
constexpr uint32_t kReadBatch = 64;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  std::string out;
  std::string trace_out;
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

sim::Device::Options DeviceOptions() {
  sim::Device::Options options;  // default 12 GB capacity
  options.num_workers = kDeviceWorkers;
  return options;
}

/// Stage seconds and serving / remote facts of one facade call, as span
/// attributes for run.py's rollup.
std::vector<std::pair<std::string, double>> ProfileArgs(
    const SearchProfile& p, size_t queries) {
  double network_s = 0, worker_match_s = 0;
  double request_bytes = 0, response_bytes = 0;
  double calls = 0, failures = 0, hedged = 0;
  for (const WorkerProfile& w : p.per_worker) {
    network_s += w.network_s;
    worker_match_s += w.worker_match_s;
    request_bytes += static_cast<double>(w.request_bytes);
    response_bytes += static_cast<double>(w.response_bytes);
    calls += static_cast<double>(w.calls);
    failures += static_cast<double>(w.failures);
    hedged += static_cast<double>(w.hedged);
  }
  return {{"queries", static_cast<double>(queries)},
          {"query_transfer_s", p.query_transfer_s},
          {"prepare_s", p.prepare_seconds},
          {"match_s", p.match_s},
          {"select_s", p.select_s},
          {"merge_s", p.merge_s},
          {"verify_s", p.verify_s},
          {"overlap_s", p.overlap_seconds},
          {"queue_s", p.queue_seconds},
          {"scatter_s", p.scatter_seconds},
          {"network_s", network_s},
          {"worker_match_s", worker_match_s},
          {"request_bytes", request_bytes},
          {"response_bytes", response_bytes},
          {"calls", calls},
          {"failures", failures},
          {"hedged", hedged},
          {"cache_hits", static_cast<double>(p.cache_hits)},
          {"coalesced", static_cast<double>(p.coalesced_batch)}};
}

/// State shared by every workload of one process.
class Bench {
 public:
  explicit Bench(const Options& options)
      : options_(options),
        device_(DeviceOptions()),
        spans_(options.trace),
        seeds_(options.seed * 0x9E3779B97F4A7C15ULL + 1) {}

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  const Options& options() const { return options_; }
  sim::Device* device() { return &device_; }
  SpanRecorder& spans() { return spans_; }
  Report& report() { return report_; }

  /// Every dataset, query and engine seed derives from --seed through
  /// this one stream, in a fixed order per workload.
  uint64_t NextSeed() { return seeds_.Next64(); }

  /// Workload size; --quick runs about 1/20 of it.
  uint32_t Size(uint32_t full) const {
    return options_.quick ? std::max<uint32_t>(full / kQuickDivisor, 1) : full;
  }

  /// Engine::Create kSetupRepeats times on the same inputs (one engine
  /// alive at a time); reports the median as setup_s and keeps the last.
  std::unique_ptr<Engine> Setup(const EngineConfig& config) {
    std::vector<double> seconds;
    std::unique_ptr<Engine> engine;
    for (int i = 0; i < kSetupRepeats; ++i) {
      engine.reset();
      const Clock::time_point start = Clock::now();
      Result<std::unique_ptr<Engine>> created = Engine::Create(config);
      const Clock::time_point end = Clock::now();
      GENIE_CHECK(created.ok()) << created.status().ToString();
      seconds.push_back(Seconds(end - start));
      RecordSpan("Engine::Create", "api", start, end);
      engine = std::move(*created);
    }
    report_.Metric("setup_s", Percentile(seconds, 0.5), "s", seconds.size());
    report_.Diagnostic("rss_after_setup_mb", PeakRssMb(), "MB", 1);
    return engine;
  }

  /// Untimed warm-up: repeats the timed call's shape for a tenth of the
  /// run (at least once). The first calls after set-up run up to 2.5x
  /// slower than the steady state (allocator and cost-model warm-up).
  template <typename Call>
  void WarmUp(Call&& call) {
    const Clock::time_point until = After(Clock::now(), options_.seconds / 10);
    do {
      Result<SearchResult> warmed = call();
      GENIE_CHECK(warmed.ok()) << warmed.status().ToString();
    } while (Clock::now() < until);
  }

  void RecordSpan(const std::string& name, const std::string& layer,
                  Clock::time_point start, Clock::time_point end,
                  uint64_t request = 0, uint64_t parent = 0,
                  std::vector<std::pair<std::string, double>> args = {}) {
    if (!spans_.enabled()) return;
    const Clock::time_point entered = Clock::now();
    Span span;
    span.name = name;
    span.layer = layer;
    span.start = start;
    span.end = end;
    span.parent = parent;
    span.request = request;
    span.args = std::move(args);
    spans_.Record(std::move(span));
    recording_ns_ += (Clock::now() - entered).count();
  }

  /// Root span of one facade search call.
  void RecordCall(const std::string& name, Clock::time_point start,
                  Clock::time_point end, uint64_t request, size_t queries,
                  const SearchProfile& profile) {
    if (!spans_.enabled()) return;
    const Clock::time_point entered = Clock::now();
    std::vector<std::pair<std::string, double>> args =
        ProfileArgs(profile, queries);
    recording_ns_ += (Clock::now() - entered).count();
    RecordSpan(name, "api", start, end, request, 0, std::move(args));
  }

  /// Seconds spent recording spans: what tracing adds to a run.
  double recording_s() const {
    return std::chrono::duration<double>(
               Clock::duration(recording_ns_.load()))
        .count();
  }

  void RecordPlanTier(const SearchProfile& profile) {
    if (plan_tier_.empty()) plan_tier_ = profile.plan_tier;
  }
  const std::string& plan_tier() const { return plan_tier_; }

  /// Timed phase bookkeeping shared by all workloads: device counters are
  /// zeroed at the start and read at the end, and peak RSS is taken before
  /// the oracle allocates its references. `answered` counts the queries
  /// answered in the phase, the rollup's per-query denominator.
  void BeginTimed() { device_.ResetStats(); }
  void EndTimed(double answered) {
    peak_rss_mb_ = PeakRssMb();
    report_.Counter("run.answered", answered);
    const sim::DeviceStats stats = device_.stats();
    report_.Counter("sim.kernel_launches",
                    static_cast<double>(stats.kernel_launches));
    report_.Counter("sim.bytes_h2d", static_cast<double>(stats.bytes_h2d));
    report_.Counter("sim.bytes_d2h", static_cast<double>(stats.bytes_d2h));
    report_.Counter("sim.peak_alloc_bytes",
                    static_cast<double>(stats.peak_allocated_bytes));
  }

  /// The end-to-end metrics every workload reports besides setup_s.
  void Finish(double queries, double elapsed_s,
              const std::vector<double>& latencies_ms, double recall,
              uint32_t recall_samples) {
    report_.Metric("qps", queries / elapsed_s, "1/s",
                   static_cast<uint64_t>(queries));
    report_.Metric("p50_ms", Percentile(latencies_ms, 0.50), "ms",
                   latencies_ms.size());

    report_.Metric("recall_at_k", recall, "share", recall_samples);
    report_.Metric("peak_rss_mb", peak_rss_mb_, "MB", 1);
    report_.Diagnostic("p90_ms", Percentile(latencies_ms, 0.90), "ms",
                       latencies_ms.size());
    report_.Diagnostic("p99_ms", Percentile(latencies_ms, 0.99), "ms",
                       latencies_ms.size());
    report_.Diagnostic("p999_ms", Percentile(latencies_ms, 0.999), "ms",
                       latencies_ms.size());
  }

 private:
  const Options options_;
  sim::Device device_;
  SpanRecorder spans_;
  Report report_;
  Rng seeds_;
  std::string plan_tier_;
  double peak_rss_mb_ = 0;
  std::atomic<Clock::rep> recording_ns_{0};
};

// ---------------------------------------------------------------------------
// Direct layer calls (traced runs only): the index, plan and lsh layers'
// public functions timed on the workload's own inputs, outside the timed
// phase.
// ---------------------------------------------------------------------------

/// Builds the index of `keywords` with InvertedIndexBuilder and plans it
/// with plan::QueryPlanner, as Engine::Create does internally.
void TimeIndexAndPlan(Bench* b,
                      const std::vector<std::vector<uint32_t>>& keywords,
                      uint32_t vocab_size, uint32_t k,
                      uint32_t remote_workers) {
  InvertedIndexBuilder builder(vocab_size);
  for (size_t i = 0; i < keywords.size(); ++i) {
    builder.AddObject(static_cast<ObjectId>(i), keywords[i]);
  }
  Clock::time_point start = Clock::now();
  Result<InvertedIndex> index = std::move(builder).Build();
  Clock::time_point end = Clock::now();
  GENIE_CHECK(index.ok()) << index.status().ToString();
  b->RecordSpan("InvertedIndexBuilder::Build", "index", start, end);
  b->report().Counter("index.build_s", Seconds(end - start));

  start = Clock::now();
  const plan::IndexStats stats = plan::ComputeIndexStats(*index);
  end = Clock::now();
  b->RecordSpan("plan::ComputeIndexStats", "plan", start, end);
  b->report().Counter("plan.stats_s", Seconds(end - start));

  MatchEngineOptions engine_options;
  engine_options.k = k;
  plan::PlannerInputs inputs;
  inputs.capacity_bytes = b->device()->memory_capacity_bytes();
  inputs.bytes_per_query = MatchEngine::DeviceBytesPerQuery(
      index->num_objects(), engine_options, 16);
  inputs.num_remote_workers = remote_workers;
  const plan::CostModel model;
  const plan::QueryPlanner planner(stats);
  // One plan takes microseconds: time a batch of them.
  constexpr int kPlans = 200;
  start = Clock::now();
  uint32_t parts = 0;
  for (int i = 0; i < kPlans; ++i) parts += planner.Plan(inputs, model).num_parts;
  end = Clock::now();
  GENIE_CHECK(parts >= kPlans);
  b->RecordSpan("QueryPlanner::Plan", "plan", start, end, 0, 0,
                {{"plans", kPlans}});
  b->report().Counter("plan.plan_s", Seconds(end - start) / kPlans);
}

/// Per-hit check plus the shared bookkeeping of a wrong answer.
void CountWrong(Bench* b, bool correct, const std::string& what) {
  if (correct) return;
  b->report().CountWrong(1);
  b->report().Note(what);
}

// ---------------------------------------------------------------------------
// ann-batch
// ---------------------------------------------------------------------------

void RunAnnBatch(Bench* b) {
  const Options& opt = b->options();
  data::ClusteredPointsOptions data_options;
  data_options.num_points = b->Size(kAnnPoints);
  data_options.dim = kAnnDim;
  data_options.num_clusters = kAnnClusters;
  data_options.cluster_stddev = 0.6;
  data_options.seed = b->NextSeed();
  const data::ClusteredPoints dataset = data::MakeClusteredPoints(data_options);
  const data::PointMatrix& points = dataset.points;
  const data::PointMatrix queries = data::MakeQueriesNear(
      points, b->Size(kAnnQueries), 0.3, b->NextSeed());
  const uint64_t engine_seed = b->NextSeed();

  std::unique_ptr<Engine> engine = b->Setup(EngineConfig()
                                                .Points(&points)
                                                .K(kAnnK)
                                                .CandidateK(64)
                                                .RehashDomain(67)
                                                .ExactRerank(true)
                                                .Seed(engine_seed)
                                                .Device(b->device()));

  if (opt.trace) {
    // The facade's default family for these knobs: E2LSH, m = 64, w = 4,
    // re-hashed into 67 buckets, seeded like the engine.
    lsh::E2LshOptions family_options;
    family_options.dim = kAnnDim;
    family_options.num_functions = 64;
    family_options.seed = engine_seed;
    std::shared_ptr<const lsh::VectorLshFamily> family(
        lsh::E2LshFamily::Create(family_options).ValueOrDie().release());
    lsh::LshTransformOptions transform_options;
    transform_options.rehash_domain = 67;
    transform_options.seed = engine_seed;
    const lsh::LshTransformer transformer(family, transform_options);

    Clock::time_point start = Clock::now();
    Result<InvertedIndex> built = transformer.BuildIndex(points);
    Clock::time_point end = Clock::now();
    GENIE_CHECK(built.ok()) << built.status().ToString();
    b->RecordSpan("LshTransformer::BuildIndex", "lsh", start, end);
    b->report().Counter("lsh.build_index_s", Seconds(end - start));

    start = Clock::now();
    size_t items = 0;
    for (uint32_t q = 0; q < queries.num_points(); ++q) {
      items += transformer.MakeQuery(queries.row(q)).num_items();
    }
    end = Clock::now();
    GENIE_CHECK(items > 0);
    b->RecordSpan("LshTransformer::MakeQuery", "lsh", start, end, 0, 0,
                  {{"queries", queries.num_points()}});
    b->report().Counter("lsh.query_transform_s",
                        Seconds(end - start) / queries.num_points());

    std::vector<std::vector<uint32_t>> keywords(points.num_points());
    for (uint32_t i = 0; i < points.num_points(); ++i) {
      keywords[i] = transformer.Transform(points.row(i));
    }
    TimeIndexAndPlan(b, keywords, transformer.encoder().vocab_size(),
                     /*k=*/64, /*remote_workers=*/0);
  }

  SearchStreamOptions stream;
  stream.chunk_size = std::min(b->Size(kAnnChunk), queries.num_points());
  const SearchRequest request = SearchRequest::Points(queries);
  b->WarmUp([&] { return engine->SearchStream(request, stream); });

  std::vector<double> chunk_ms;
  std::vector<std::vector<QueryHits>> answers;  // one entry per stream
  double answered = 0;
  b->BeginTimed();
  const Clock::time_point begin = Clock::now();
  const Clock::time_point deadline = After(begin, opt.seconds);
  uint64_t call = 0;
  Clock::time_point now = begin;
  while (now < deadline) {
    const Clock::time_point start = Clock::now();
    Clock::time_point last = start;
    Result<SearchResult> result = engine->SearchStream(
        request, stream, [&](const SearchChunk&) -> Status {
          const Clock::time_point t = Clock::now();
          chunk_ms.push_back(Millis(t - last));
          last = t;
          return Status::OK();
        });
    now = Clock::now();
    b->report().CountAttempted(queries.num_points());
    if (!result.ok()) {
      b->report().CountFailed(queries.num_points());
      b->report().Note(result.status().ToString());
      ++call;
      continue;
    }
    answered += queries.num_points();
    b->RecordPlanTier(result->profile);
    b->RecordCall("Engine::SearchStream", start, now, call++,
                  queries.num_points(), result->profile);
    answers.push_back(std::move(result->queries));
  }
  const double elapsed = Seconds(now - begin);
  b->EndTimed(answered);

  // Oracle: every hit's score is -L2 to its point; recall@k on the first
  // kOracleSample queries against the exhaustive kNN.
  for (const std::vector<QueryHits>& stream_answers : answers) {
    for (uint32_t q = 0; q < stream_answers.size(); ++q) {
      for (const Hit& hit : stream_answers[q].hits) {
        CountWrong(b, PointHitCorrect(points, queries.row(q), hit),
                   "points: score != -L2 for query " + std::to_string(q));
      }
    }
  }
  double recall = 0;
  const uint32_t sample =
      std::min<uint32_t>(kOracleSample, queries.num_points());
  if (!answers.empty()) {
    for (uint32_t q = 0; q < sample; ++q) {
      const std::vector<uint32_t> truth =
          data::BruteForceKnn(points, queries.row(q), kAnnK, 2);
      uint32_t found = 0;
      for (const Hit& hit : answers[0][q].hits) {
        found += std::count(truth.begin(), truth.end(), hit.id) > 0 ? 1 : 0;
      }
      recall += static_cast<double>(found) / kAnnK;
    }
    recall /= sample;
  }
  b->Finish(answered, elapsed, chunk_ms, recall, sample);
}

// ---------------------------------------------------------------------------
// seq-remote
// ---------------------------------------------------------------------------

void RunSeqRemote(Bench* b) {
  const Options& opt = b->options();
  data::SequenceDatasetOptions data_options;
  data_options.num_sequences = b->Size(kSeqSequences);
  data_options.min_length = 30;
  data_options.max_length = 50;
  data_options.alphabet = kSeqAlphabet;
  data_options.seed = b->NextSeed();
  const std::vector<std::string> sequences = data::MakeSequences(data_options);
  std::vector<std::string> queries;
  {
    Rng rng(b->NextSeed());
    const uint32_t count = b->Size(kSeqQueries);
    queries.reserve(count);
    for (uint32_t q = 0; q < count; ++q) {
      queries.push_back(data::MutateSequence(
          sequences[rng.UniformU64(sequences.size())], 0.2, kSeqAlphabet,
          &rng));
    }
  }

  std::unique_ptr<Engine> engine =
      b->Setup(EngineConfig()
                   .Sequences(&sequences)
                   .K(1)
                   .CandidateK(32)
                   .Remote(net::RemoteOptions::Loopback(2))
                   .Device(b->device()));

  // The vocabulary the searcher builds: ordered n-grams in dataset order.
  StringVocabulary vocab;
  std::vector<std::vector<uint32_t>> keywords(sequences.size());
  for (size_t i = 0; i < sequences.size(); ++i) {
    for (const auto& gram : sa::OrderedNgrams(sequences[i], kSeqNgram)) {
      keywords[i].push_back(vocab.GetOrAdd(gram.ToToken()));
    }
  }
  if (opt.trace) {
    TimeIndexAndPlan(b, keywords, static_cast<uint32_t>(vocab.size()),
                     /*k=*/32, /*remote_workers=*/2);
  }

  const uint32_t batch = std::min<uint32_t>(kSeqBatch, queries.size());
  const std::span<const std::string> all(queries);
  b->WarmUp([&] {
    return engine->Search(SearchRequest::Sequences(all.subspan(0, batch)));
  });

  struct Answer {
    size_t first = 0;
    std::vector<QueryHits> hits;
  };
  std::vector<Answer> answers;
  std::vector<double> batch_ms;
  double answered = 0;
  size_t next = 0;
  b->BeginTimed();
  const Clock::time_point begin = Clock::now();
  const Clock::time_point deadline = After(begin, opt.seconds);
  Clock::time_point now = begin;
  uint64_t call = 0;
  while (now < deadline) {
    if (next + batch > queries.size()) next = 0;
    const Clock::time_point start = Clock::now();
    Result<SearchResult> result =
        engine->Search(SearchRequest::Sequences(all.subspan(next, batch)));
    now = Clock::now();
    b->report().CountAttempted(batch);
    if (!result.ok()) {
      b->report().CountFailed(batch);
      b->report().Note(result.status().ToString());
    } else {
      batch_ms.push_back(Millis(now - start));
      answered += batch;
      b->RecordPlanTier(result->profile);
      b->RecordCall("Engine::Search", start, now, call, batch,
                    result->profile);
      answers.push_back(Answer{next, std::move(result->queries)});
    }
    ++call;
    next += batch;
  }
  const double elapsed = Seconds(now - begin);
  b->EndTimed(answered);

  // Oracle: every hit's score is -(edit distance); recall on a sample of
  // answered queries is the share whose answer is a true nearest sequence.
  std::map<size_t, uint32_t> sample;  // query -> answered distance
  for (const Answer& answer : answers) {
    for (size_t i = 0; i < answer.hits.size(); ++i) {
      const size_t q = answer.first + i;
      for (const Hit& hit : answer.hits[i].hits) {
        const bool in_range = hit.id < sequences.size();
        const double expected =
            in_range ? -static_cast<double>(
                           sa::EditDistance(queries[q], sequences[hit.id]))
                     : 0;
        CountWrong(b, in_range && hit.score == expected,
                   "sequences: score != -edit distance for query " +
                       std::to_string(q));
      }
      if (q < kOracleSample && !answer.hits[i].hits.empty() &&
          answer.hits[i].hits[0].score <= 0) {
        sample[q] = static_cast<uint32_t>(-answer.hits[i].hits[0].score);
      }
    }
  }
  HostPostings postings(keywords);
  double exact = 0;
  for (const auto& [q, distance] : sample) {
    exact += MinEditDistance(queries[q], sequences, &postings, vocab,
                             kSeqNgram, distance) == distance
                 ? 1
                 : 0;
  }
  const double recall = sample.empty() ? 0 : exact / sample.size();
  b->Finish(answered, elapsed, batch_ms, recall,
            static_cast<uint32_t>(sample.size()));
}

// ---------------------------------------------------------------------------
// Documents corpus shared by docs-online and docs-mutate.
// ---------------------------------------------------------------------------

struct Corpus {
  std::vector<std::vector<uint32_t>> docs;
  std::vector<std::vector<uint32_t>> pool;  // query pool
  std::vector<std::vector<uint32_t>> doc_tokens;   // sorted, unique
  std::vector<std::vector<uint32_t>> pool_tokens;  // sorted, unique
};

Corpus MakeCorpus(Bench* b, uint32_t pool_size) {
  Corpus c;
  data::DocumentDatasetOptions options;
  options.num_documents = b->Size(kDocs);
  options.vocabulary = kDocsVocab;
  options.zipf_exponent = kDocsZipf;
  options.seed = b->NextSeed();
  c.docs = data::MakeDocuments(options);
  c.pool = data::MakeDocumentQueries(c.docs, pool_size, 0.3, kDocsVocab,
                                     kDocsZipf, b->NextSeed());
  for (const auto& d : c.docs) c.doc_tokens.push_back(SortedUnique(d));
  for (const auto& q : c.pool) c.pool_tokens.push_back(SortedUnique(q));
  return c;
}

void TimeDocumentLayers(Bench* b, const Corpus& c) {
  uint32_t vocab = 0;
  for (const auto& d : c.doc_tokens) {
    for (uint32_t t : d) vocab = std::max(vocab, t + 1);
  }
  TimeIndexAndPlan(b, c.doc_tokens, vocab, kDocsK, /*remote_workers=*/0);
}

// ---------------------------------------------------------------------------
// docs-online
// ---------------------------------------------------------------------------

void RunDocsOnline(Bench* b) {
  const Options& opt = b->options();
  // The warm-up's queries lie past the pool, so it cannot pre-fill the
  // result cache for a timed arrival.
  const Corpus c = MakeCorpus(b, kOnlinePool + kOnlineWarmQueries);
  std::unique_ptr<Engine> engine = b->Setup(EngineConfig()
                                                .Documents(&c.docs)
                                                .K(kDocsK)
                                                .Serving(ServingOptions{})
                                                .Device(b->device()));
  if (opt.trace) TimeDocumentLayers(b, c);

  // Phase A is an open-loop Poisson schedule at kOnlineRate; phase B keeps
  // kPhaseBWindow requests in flight for the last kPhaseBShare of the run.
  // Query popularity floor(u^3 * pool) gives the cache a hot set; tenants
  // rotate. A deque keeps each arrival in place while callbacks fill it.
  struct Arrival {
    double due_s = 0;
    uint32_t query = 0;
    bool phase_b = false;
    Clock::time_point sent{};
    Clock::time_point done{};
    std::vector<Hit> hits;
    SearchProfile profile;
  };
  std::deque<Arrival> arrivals;
  Rng rng(b->NextSeed());
  auto next_query = [&rng] {
    const double u = rng.UniformDouble();
    return std::min<uint32_t>(static_cast<uint32_t>(u * u * u * kOnlinePool),
                              kOnlinePool - 1);
  };
  const double phase_a_s = opt.seconds * (1 - kPhaseBShare);
  for (double t = rng.Exponential(kOnlineRate); t < phase_a_s;
       t += rng.Exponential(kOnlineRate)) {
    Arrival& a = arrivals.emplace_back();
    a.due_s = t;
    a.query = next_query();
  }
  const size_t phase_a = arrivals.size();

  const std::span<const std::vector<uint32_t>> pool(c.pool);
  uint32_t warm = 0;
  b->WarmUp([&] {
    return engine->Search(SearchRequest::Documents(
        pool.subspan(kOnlinePool + warm++ % kOnlineWarmQueries, 1)));
  });

  std::vector<std::future<Result<SearchResult>>> futures;
  const ServingStats before = engine->serving_stats();
  b->BeginTimed();
  const Clock::time_point begin = Clock::now();
  auto send = [&](size_t i) {
    Arrival* a = &arrivals[i];
    a->sent = Clock::now();
    futures.push_back(engine->SearchAsync(
        SearchRequest::Documents(pool.subspan(a->query, 1))
            .Tenant(i % kTenants),
        SearchStreamOptions{}, [a](const SearchChunk& chunk) -> Status {
          a->done = Clock::now();
          if (!chunk.result.queries.empty()) {
            a->hits = chunk.result.queries[0].hits;
          }
          a->profile = chunk.result.profile;
          return Status::OK();
        }));
  };
  for (size_t i = 0; i < phase_a; ++i) {
    std::this_thread::sleep_until(After(begin, arrivals[i].due_s));
    send(i);
  }
  const Clock::time_point phase_b_begin = After(begin, phase_a_s);
  const Clock::time_point deadline = After(begin, opt.seconds);
  std::this_thread::sleep_until(phase_b_begin);
  // Waiting on the oldest request keeps the window's bound without a
  // completion signal that a failed request might never send.
  size_t oldest = phase_a;
  while (Clock::now() < deadline) {
    if (arrivals.size() - oldest >= kPhaseBWindow) {
      futures[oldest++].wait();
      continue;
    }
    Arrival& a = arrivals.emplace_back();
    a.due_s = Seconds(Clock::now() - begin);
    a.query = next_query();
    a.phase_b = true;
    send(arrivals.size() - 1);
  }
  std::vector<bool> ok(arrivals.size(), false);
  double answered = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<SearchResult> result = futures[i].get();
    ok[i] = result.ok();
    answered += ok[i] ? 1 : 0;
    if (!ok[i]) b->report().Note(result.status().ToString());
  }
  b->EndTimed(answered);
  const ServingStats after = engine->serving_stats();

  // Phase A: latency from each request's due time. Phase B: completions
  // per second from its start to its last completion.
  std::vector<double> latency_ms, late_ms;
  Clock::time_point phase_b_end = phase_b_begin;
  double phase_b_done = 0;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    b->report().CountAttempted(1);
    if (!ok[i]) {
      b->report().CountFailed(1);
      continue;
    }
    b->RecordCall("Engine::SearchAsync", a.sent, a.done, i, 1, a.profile);
    b->RecordPlanTier(a.profile);
    if (a.phase_b) {
      phase_b_end = std::max(phase_b_end, a.done);
      phase_b_done += 1;
    } else {
      const Clock::time_point due = After(begin, a.due_s);
      late_ms.push_back(Millis(a.sent - due));
      latency_ms.push_back(Millis(a.done - due));
    }
  }

  // Oracle: per-hit overlap on every answer; count profiles on the first
  // kOracleSample distinct pool queries answered.
  HostPostings postings(c.doc_tokens);
  std::vector<bool> sampled(kOnlinePool, false);
  uint32_t samples = 0;
  double recall = 0;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    if (!ok[i]) continue;
    const Arrival& a = arrivals[i];
    const std::vector<uint32_t>& query = c.pool_tokens[a.query];
    for (const Hit& hit : a.hits) {
      CountWrong(b,
                 hit.id < c.docs.size() &&
                     DocumentHitCorrect(query, c.doc_tokens[hit.id], hit),
                 "documents: match count != overlap for arrival " +
                     std::to_string(i));
    }
    if (samples < kOracleSample && !sampled[a.query]) {
      sampled[a.query] = true;
      ++samples;
      QueryHits answer;
      answer.hits = a.hits;
      const std::vector<uint32_t> truth = postings.TopCounts(query, kDocsK);
      const std::vector<uint32_t> got = CountProfile(answer);
      CountWrong(b, got == truth,
                 "documents: top-k count profile differs for arrival " +
                     std::to_string(i));
      recall += ProfileRecall(truth, got);
    }
  }
  recall = samples > 0 ? recall / samples : 0;

  const uint64_t batches = after.batches - before.batches;
  const uint64_t looked_up = (after.cache_hits - before.cache_hits) +
                             (after.cache_misses - before.cache_misses);
  Report& r = b->report();
  r.Counter("serve.batches", static_cast<double>(batches));
  r.Counter("serve.coalesce_factor",
            batches > 0 ? static_cast<double>(after.coalesced_requests -
                                              before.coalesced_requests) /
                              batches
                        : 0);
  r.Counter("serve.cache_hit_rate",
            looked_up > 0 ? static_cast<double>(after.cache_hits -
                                                before.cache_hits) /
                                looked_up
                          : 0);
  r.Counter("serve.dedup_followers",
            static_cast<double>(after.dedup_followers - before.dedup_followers));
  r.Counter("serve.rejected",
            static_cast<double>(after.rejected - before.rejected));
  r.Diagnostic("generator_late_p99_ms", Percentile(late_ms, 0.99), "ms",
               late_ms.size());
  r.Diagnostic("phase_a_offered_qps", kOnlineRate, "1/s", 0);
  b->Finish(phase_b_done, Seconds(phase_b_end - phase_b_begin), latency_ms,
            recall, samples);
}

// ---------------------------------------------------------------------------
// docs-mutate
// ---------------------------------------------------------------------------

void RunDocsMutate(Bench* b) {
  const Options& opt = b->options();
  const Corpus c = MakeCorpus(b, kDocsPool);
  const uint32_t base = static_cast<uint32_t>(c.docs.size());
  // Op 0 is the untimed warm-up write.
  const uint32_t ops = static_cast<uint32_t>(opt.seconds * kWriteRate) + 1;
  std::vector<std::vector<uint32_t>> fresh;
  {
    data::DocumentDatasetOptions options;
    options.num_documents = ops * kInsertsPerOp;
    options.vocabulary = kDocsVocab;
    options.zipf_exponent = kDocsZipf;
    options.seed = b->NextSeed();
    fresh = data::MakeDocuments(options);
  }
  // Tokens of every id the run can assign: base documents, then inserts in
  // order (ids are monotonic and never reused).
  std::vector<std::vector<uint32_t>> tokens = c.doc_tokens;
  for (const auto& d : fresh) tokens.push_back(SortedUnique(d));

  std::unique_ptr<Engine> engine = b->Setup(EngineConfig()
                                                .Documents(&c.docs)
                                                .K(kDocsK)
                                                .DeltaSealThreshold(512)
                                                .AutoCompactSegments(4)
                                                .Device(b->device()));
  if (opt.trace) TimeDocumentLayers(b, c);

  const std::span<const std::vector<uint32_t>> pool(c.pool);
  const std::span<const std::vector<uint32_t>> fresh_span(fresh);
  Rng rng(b->NextSeed());
  std::vector<uint32_t> live(base);
  for (uint32_t i = 0; i < base; ++i) live[i] = i;

  // Removal time of every removed id; a search that began later must not
  // return it.
  std::vector<Clock::time_point> removed_at(tokens.size(),
                                            Clock::time_point::max());
  struct WriteLog {
    std::vector<double> latency_ms, insert_ms, remove_ms;
    uint64_t compactions = 0;
    double compact_s = 0, pause_s_max = 0;
    uint64_t failed = 0;
    std::vector<std::string> notes;
  };
  WriteLog log;
  uint64_t seen_compactions = 0;
  auto write_op = [&](uint32_t op, Clock::time_point due, bool timed) {
    const Clock::time_point start = Clock::now();
    const uint64_t span_id = b->spans().enabled() ? b->spans().NewId() : 0;
    Result<std::vector<ObjectId>> ids = engine->Insert(InsertRequest::Documents(
        fresh_span.subspan(static_cast<size_t>(op) * kInsertsPerOp,
                           kInsertsPerOp)));
    const Clock::time_point inserted = Clock::now();
    bool ok = ids.ok();
    if (ok) {
      for (uint32_t j = 0; j < kInsertsPerOp; ++j) {
        const ObjectId expected = base + op * kInsertsPerOp + j;
        ok = ok && (*ids)[j] == expected;
        live.push_back(expected);
      }
    }
    std::vector<ObjectId> victims;
    for (uint32_t j = 0; j < kRemovesPerOp && !live.empty(); ++j) {
      const size_t at = rng.UniformU64(live.size());
      victims.push_back(live[at]);
      live[at] = live.back();
      live.pop_back();
    }
    const Status removed = engine->Remove(victims);
    const Clock::time_point end = Clock::now();
    ok = ok && removed.ok();
    for (ObjectId id : victims) removed_at[id] = end;
    if (!ok) {
      ++log.failed;
      log.notes.push_back(!ids.ok() ? ids.status().ToString()
                                    : removed.ok() ? "unexpected insert ids"
                                                   : removed.ToString());
    }
    const MutationStats stats = engine->mutation_stats();
    if (stats.compactions > seen_compactions) {
      // Polled after every op; a second compaction between two polls is
      // counted with the last one's timings.
      const uint64_t added = stats.compactions - seen_compactions;
      seen_compactions = stats.compactions;
      if (timed) {
        log.compactions += added;
        log.compact_s += added * stats.last_compact_seconds;
        log.pause_s_max = std::max(log.pause_s_max, stats.last_pause_seconds);
      }
    }
    if (!timed) return;
    log.latency_ms.push_back(Millis(end - due));
    log.insert_ms.push_back(Millis(inserted - start));
    log.remove_ms.push_back(Millis(end - inserted));
    b->RecordSpan("Engine::Insert", "api", start, inserted, op, span_id);
    b->RecordSpan("Engine::Remove", "api", inserted, end, op, span_id);
    if (span_id != 0) {
      Span span;
      span.name = "write_op";
      span.layer = "client";
      span.start = start;
      span.end = end;
      span.id = span_id;
      span.request = op;
      span.args = {{"late_s", Seconds(start - due)}};
      b->spans().Record(std::move(span));
    }
  };

  // Warm-up, untimed: one write (creates the delta layer) and reads.
  write_op(0, Clock::now(), false);
  b->WarmUp([&] {
    return engine->Search(
        SearchRequest::Documents(pool.subspan(0, kReadBatch)));
  });

  struct Read {
    Clock::time_point start{};
    size_t first = 0;
    std::vector<QueryHits> hits;
  };
  std::vector<Read> reads;
  std::vector<double> read_ms;
  double answered = 0;
  std::atomic<bool> writing{true};
  b->BeginTimed();
  const Clock::time_point begin = Clock::now();
  std::thread writer([&] {
    for (uint32_t op = 1; op < ops; ++op) {
      const Clock::time_point due = After(begin, (op - 1) / kWriteRate);
      std::this_thread::sleep_until(due);
      write_op(op, due, true);
    }
    writing.store(false);
  });
  size_t next = 0;
  uint64_t call = 0;
  Clock::time_point now = begin;
  while (writing.load()) {
    if (next + kReadBatch > kDocsPool) next = 0;
    const Clock::time_point start = Clock::now();
    Result<SearchResult> result = engine->Search(
        SearchRequest::Documents(pool.subspan(next, kReadBatch)));
    now = Clock::now();
    b->report().CountAttempted(kReadBatch);
    if (!result.ok()) {
      b->report().CountFailed(kReadBatch);
      b->report().Note(result.status().ToString());
    } else {
      read_ms.push_back(Millis(now - start));
      answered += kReadBatch;
      b->RecordPlanTier(result->profile);
      b->RecordCall("Engine::Search", start, now, call, kReadBatch,
                    result->profile);
      reads.push_back(Read{start, next, std::move(result->queries)});
    }
    ++call;
    next += kReadBatch;
  }
  writer.join();
  const double elapsed = Seconds(now - begin);
  b->EndTimed(answered);

  Report& r = b->report();
  r.CountAttempted(ops - 1);
  r.CountFailed(log.failed);
  for (const std::string& note : log.notes) r.Note(note);

  // Oracle, live phase: no hit was removed before its search began, and
  // every hit's match count is its document's overlap.
  for (const Read& read : reads) {
    for (size_t i = 0; i < read.hits.size(); ++i) {
      const std::vector<uint32_t>& query = c.pool_tokens[read.first + i];
      for (const Hit& hit : read.hits[i].hits) {
        const bool known = hit.id < tokens.size();
        CountWrong(b, known && removed_at[hit.id] > read.start,
                   "mutate: removed or unknown id " + std::to_string(hit.id));
        CountWrong(b, known && DocumentHitCorrect(query, tokens[hit.id], hit),
                   "mutate: match count != overlap for id " +
                       std::to_string(hit.id));
      }
    }
  }

  // Quiesced: after Flush the answers equal the exhaustive top-k over the
  // live documents.
  const Clock::time_point flush_start = Clock::now();
  const Status flushed = engine->Flush();
  r.Diagnostic("flush_s", Seconds(Clock::now() - flush_start), "s", 1);
  CountWrong(b, flushed.ok(), "mutate: Flush failed: " + flushed.ToString());
  std::vector<bool> is_live(tokens.size(), false);
  for (uint32_t id : live) is_live[id] = true;
  HostPostings postings(tokens, is_live);
  const uint32_t sample = std::min<uint32_t>(kOracleSample, kDocsPool);
  Result<SearchResult> final_answers =
      engine->Search(SearchRequest::Documents(pool.subspan(0, sample)));
  double recall = 0;
  if (!final_answers.ok()) {
    CountWrong(b, false, final_answers.status().ToString());
  } else {
    for (uint32_t q = 0; q < sample; ++q) {
      const QueryHits& answer = final_answers->queries[q];
      for (const Hit& hit : answer.hits) {
        CountWrong(b,
                   hit.id < tokens.size() && is_live[hit.id] &&
                       DocumentHitCorrect(c.pool_tokens[q], tokens[hit.id],
                                          hit),
                   "mutate: flushed answer wrong for query " +
                       std::to_string(q));
      }
      const std::vector<uint32_t> truth =
          postings.TopCounts(c.pool_tokens[q], kDocsK);
      const std::vector<uint32_t> got = CountProfile(answer);
      CountWrong(b, got == truth,
                 "mutate: flushed top-k profile differs for query " +
                     std::to_string(q));
      recall += ProfileRecall(truth, got);
    }
    recall /= sample;
  }

  r.Counter("index.write_p50_ms", Percentile(log.latency_ms, 0.50));
  r.Counter("index.write_p99_ms", Percentile(log.latency_ms, 0.99));
  r.Counter("index.insert_ms", Percentile(log.insert_ms, 0.50));
  r.Counter("index.remove_ms", Percentile(log.remove_ms, 0.50));
  r.Counter("index.compactions", static_cast<double>(log.compactions));
  r.Counter("index.compact_s_total", log.compact_s);
  r.Counter("index.pause_s_max", log.pause_s_max);
  r.Diagnostic("write_p50_ms", Percentile(log.latency_ms, 0.50), "ms",
               log.latency_ms.size());
  r.Diagnostic("write_p99_ms", Percentile(log.latency_ms, 0.99), "ms",
               log.latency_ms.size());
  b->Finish(answered, elapsed, read_ms, recall, sample);
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--trace") {
      opt->trace = true;
    } else if (arg == "--quick") {
      opt->quick = true;
    } else if (arg == "--workload" && (v = value())) {
      opt->workload = v;
    } else if (arg == "--seed" && (v = value())) {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      opt->seconds = std::atof(v);
    } else if (arg == "--out" && (v = value())) {
      opt->out = v;
    } else if (arg == "--trace-out" && (v = value())) {
      opt->trace_out = v;
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && !opt->out.empty() && opt->seconds > 0 &&
         (!opt->trace || !opt->trace_out.empty());
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload ann-batch|seq-remote|"
                 "docs-online|docs-mutate --seed N --seconds S --out FILE "
                 "[--trace --trace-out FILE] [--quick]\n");
    return 2;
  }
  Bench bench(opt);
  if (opt.workload == "ann-batch") {
    RunAnnBatch(&bench);
  } else if (opt.workload == "seq-remote") {
    RunSeqRemote(&bench);
  } else if (opt.workload == "docs-online") {
    RunDocsOnline(&bench);
  } else if (opt.workload == "docs-mutate") {
    RunDocsMutate(&bench);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  Report& r = bench.report();
  r.Counter("trace.recording_s", bench.recording_s());
  const simd::Ops& ops = simd::ActiveOps();
  r.Fingerprint("workload", opt.workload);
  r.Fingerprint("seed", static_cast<double>(opt.seed));
  r.Fingerprint("seconds", opt.seconds);
  r.Fingerprint("quick", opt.quick ? 1.0 : 0.0);
  r.Fingerprint("traced", opt.trace ? 1.0 : 0.0);
  r.Fingerprint("simd_arch", simd::ArchName(ops.arch));
  r.Fingerprint("simd_lanes", ops.lanes);
  r.Fingerprint("nproc", std::thread::hardware_concurrency());
  r.Fingerprint("device_workers", kDeviceWorkers);
  r.Fingerprint("build_type", GENIE_E2E_BUILD_TYPE);
  r.Fingerprint("plan_tier", bench.plan_tier());

  std::ofstream out(opt.out, std::ios::binary | std::ios::trunc);
  out << r.ToJson();
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return 2;
  }
  if (opt.trace && !bench.spans().WriteChromeTrace(opt.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
    return 2;
  }
  // A wrong answer fails the run; failed calls are reported, not fatal.
  return r.wrong() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace genie

int main(int argc, char** argv) { return genie::e2e::Main(argc, argv); }
