#pragma once

/// \file types.h
/// Unified request/response types of the genie::Engine facade. The paper's
/// point is that one match-count inverted index serves many similarity
/// workloads; these types give every workload (modality) the same request,
/// result, and profile shape, normalizing the per-domain return types
/// (QueryResult, AnnMatch, SequenceSearchOutcome) of the lower layers.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "data/points.h"
#include "index/types.h"
#include "sa/relational.h"

namespace genie {

/// The similarity workloads of Sections IV & V, plus a pass-through for
/// pre-compiled match-count queries over a caller-built index.
enum class Modality {
  kPoints,      // tau-ANN on dense vectors under an LSH family (Section IV)
  kSets,        // Jaccard similarity via MinHash (Section II-B1)
  kSequences,   // edit distance via ordered n-grams (Section V-A)
  kDocuments,   // inner product on word sets (Section V-B)
  kRelational,  // top-k selection on range predicates (Section V-C)
  kCompiled,    // raw Definition-2.1 queries over a prebuilt InvertedIndex
};

const char* ModalityToString(Modality modality);

/// c-PQ vs Count-Table selection (MatchEngineOptions::Selector re-exported
/// so facade users need no core include).
enum class SelectorKind {
  kCpq,            // GENIE: c-PQ + single hash-table scan (Algorithm 1)
  kCountTableSpq,  // GEN-SPQ: full Count Table + bucket k-selection
  kBucketSelect,   // packed Bitmap Counter + bucket k-selection (no gate /
                   // hash table; overflow-immune)
};

/// One batch of queries. Construct with the factory matching the engine's
/// modality; the payload spans are only borrowed for the Search() call.
struct SearchRequest {
  Modality modality = Modality::kPoints;

  /// Caller identity for the serving layer's per-tenant fairness and
  /// backpressure (EngineConfig::Serving). Ignored — results are identical
  /// for every value — when serving is off.
  uint64_t tenant = 0;

  const data::PointMatrix* points = nullptr;
  std::span<const std::vector<uint32_t>> sets;
  std::span<const std::string> sequences;
  std::span<const std::vector<uint32_t>> documents;
  std::span<const sa::RangeQuery> ranges;
  std::span<const Query> compiled;

  SearchRequest& Tenant(uint64_t id) {
    tenant = id;
    return *this;
  }

  static SearchRequest Points(const data::PointMatrix& queries);
  static SearchRequest Sets(std::span<const std::vector<uint32_t>> queries);
  static SearchRequest Sequences(std::span<const std::string> queries);
  static SearchRequest Documents(std::span<const std::vector<uint32_t>> queries);
  static SearchRequest Ranges(std::span<const sa::RangeQuery> queries);
  static SearchRequest Compiled(std::span<const Query> queries);

  size_t num_queries() const;
};

/// One batch of objects to insert into a live engine (Engine::Insert).
/// Construct with the factory matching the engine's modality; the payload
/// spans are only borrowed for the Insert() call. Inserted objects receive
/// monotonically increasing ids continuing the indexed dataset's id space.
struct InsertRequest {
  Modality modality = Modality::kPoints;

  const data::PointMatrix* points = nullptr;
  std::span<const std::vector<uint32_t>> sets;
  std::span<const std::string> sequences;
  std::span<const std::vector<uint32_t>> documents;
  /// Relational rows, row-major: one entry per row, holding one value per
  /// column (value[c] must be < the table's cardinality of column c).
  std::span<const std::vector<uint32_t>> rows;
  /// Compiled modality: each object's raw keyword list.
  std::span<const std::vector<Keyword>> objects;

  static InsertRequest Points(const data::PointMatrix& objects);
  static InsertRequest Sets(std::span<const std::vector<uint32_t>> objects);
  static InsertRequest Sequences(std::span<const std::string> objects);
  static InsertRequest Documents(std::span<const std::vector<uint32_t>> objects);
  static InsertRequest Rows(std::span<const std::vector<uint32_t>> rows);
  static InsertRequest Objects(std::span<const std::vector<Keyword>> objects);

  size_t num_objects() const;
};

/// Mutation counters of a live engine (Engine::mutation_stats).
struct MutationStats {
  uint64_t inserts = 0;
  uint64_t removes = 0;
  uint64_t compactions = 0;
  /// Wall seconds of the last compaction's off-line index rebuild (runs
  /// with no locks held — searches keep flowing).
  double last_compact_seconds = 0;
  /// Wall seconds the last compaction commit held the mutation lock (the
  /// only window in which inserts/removes — never searches — stall).
  double last_pause_seconds = 0;
};

/// One ranked answer. `score` ranks hits in descending order; its meaning
/// per modality:
///   points/sets  match mode: estimated similarity c/m (Eqn. 7);
///                rerank mode: exact similarity (sets) or negated exact
///                l_p distance (points);
///   sequences    negated edit distance;
///   documents    inner product (= match count);
///   relational   number of satisfied predicates (= match count);
///   compiled     match count.
struct Hit {
  ObjectId id = kInvalidObjectId;
  uint32_t match_count = 0;
  double score = 0;
};

/// Answers of one query, best first.
struct QueryHits {
  std::vector<Hit> hits;
  /// The k-th match count MC_k (Theorem 3.1's AT - 1); 0 when fewer than k
  /// objects matched.
  uint32_t threshold = 0;
  /// Sequences only: Theorem 5.2 certified the kNN as the true kNN.
  bool certified_exact = false;
  /// Sequences only: escalation rounds executed (Section VI-D3).
  uint32_t rounds = 1;
};

/// Stage costs of one device of a multi-device backend (the per-device
/// slice of SearchProfile's transfer/match/select stages).
struct DeviceProfile {
  double index_transfer_s = 0;
  double query_transfer_s = 0;
  double match_s = 0;
  double select_s = 0;
  /// Prepare-stage seconds of this device (task resolution + staging
  /// upload); a subset of query_transfer_s, split out so the pipelined
  /// stream's per-device overlap potential is visible.
  double prepare_s = 0;
  uint64_t index_bytes = 0;
  uint64_t query_bytes = 0;
  uint64_t result_bytes = 0;
};

/// Per-worker network + stage costs of the multi-node tier (empty unless
/// the engine runs on EngineConfig::Remote endpoints). Keyed by worker
/// address; replica addresses report separately, which is how hedges and
/// failovers become visible.
struct WorkerProfile {
  std::string address;
  uint64_t calls = 0;     // match attempts shipped to this worker
  uint64_t wins = 0;      // attempts whose response was used
  uint64_t failures = 0;  // attempts that errored
  uint64_t hedged = 0;    // attempts launched as hedges
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;
  double network_s = 0;        // transport wall seconds minus worker execute
  double call_s = 0;           // transport wall seconds (round trip)
  double worker_match_s = 0;   // worker-reported stage seconds
  double worker_select_s = 0;
};

/// Stage costs and backend facts (Table I / Table III shapes, unified
/// across single-load, multi-load and multi-device). SearchResult carries
/// two of these: the costs of that Search call alone (`profile`) and the
/// running total since engine creation (`cumulative`).
struct SearchProfile {
  double index_transfer_s = 0;
  double query_transfer_s = 0;
  double match_s = 0;
  double select_s = 0;
  double merge_s = 0;   // multi-load host merge
  double verify_s = 0;  // sequence verification (Algorithm 2)
  /// Prepare-stage seconds (Position-Map resolution + device staging of
  /// the task lists). Counted inside query_transfer_s as well; split out
  /// because this is the work the pipelined SearchStream overlaps with the
  /// previous chunk's match.
  double prepare_seconds = 0;
  /// Wall-clock seconds during which a chunk's prepare ran concurrently
  /// with another chunk's execution (the pipelined SearchStream's win;
  /// always 0 on blocking Search and on single-chunk or unpipelined
  /// streams).
  double overlap_seconds = 0;
  uint64_t index_bytes = 0;
  uint64_t query_bytes = 0;
  uint64_t result_bytes = 0;
  /// True when the index did not fit and multiple loading answered.
  bool used_multi_load = false;
  /// Index parts per batch (1 on the single-load path).
  uint32_t parts = 1;
  /// Devices the work executed on (> 1 on the multi-device tier). Under
  /// Accumulate this is the maximum seen, so it stays consistent with the
  /// summed per_device breakdown even when a stream's backend falls back
  /// to a single device mid-way.
  uint32_t devices = 1;
  /// Per-device stage costs, indexed by device ordinal (empty on the
  /// single-device tiers).
  std::vector<DeviceProfile> per_device;
  /// Multi-node tier: workers the engine scattered to (empty otherwise).
  uint32_t workers = 0;
  /// Per-worker network/stage costs, keyed by address (empty off-remote).
  std::vector<WorkerProfile> per_worker;
  /// Coordinator-side scatter wall seconds (remote tier only).
  double scatter_seconds = 0;
  /// True when the live tier was built from a QueryPlanner ExecutionPlan
  /// (false = the escalation ladder replaced the plan mid-way).
  bool planned = false;
  /// Tier the plan named ("single-device" / "multi-device" / "multi-load";
  /// empty on searchers without a planning backend).
  std::string plan_tier;
  /// Stream chunk size / pipeline depth the plan recommends.
  uint32_t planned_chunk_size = 1;
  uint32_t planned_pipeline_depth = 1;
  /// Serving layer (EngineConfig::Serving): seconds this request waited in
  /// its tenant queue before its super-batch executed. 0 on the legacy path
  /// and on cache hits.
  double queue_seconds = 0;
  /// Requests coalesced into the super-batch that answered this one (1 =
  /// the request executed alone; 0 = the serving layer was off or the
  /// answer came from the cache).
  uint32_t coalesced_batch = 0;
  /// Queries of this request answered from the hot-query ResultCache
  /// without touching the backend.
  uint64_t cache_hits = 0;

  double total_query_s() const {
    return query_transfer_s + match_s + select_s + merge_s + verify_s;
  }

  /// Folds another profile's costs in (summing stages; backend facts take
  /// the other's values, which chronologically later deltas carry). Used by
  /// the streaming pipeline to aggregate per-chunk deltas.
  void Accumulate(const SearchProfile& other) {
    index_transfer_s += other.index_transfer_s;
    query_transfer_s += other.query_transfer_s;
    match_s += other.match_s;
    select_s += other.select_s;
    merge_s += other.merge_s;
    verify_s += other.verify_s;
    prepare_seconds += other.prepare_seconds;
    overlap_seconds += other.overlap_seconds;
    index_bytes += other.index_bytes;
    query_bytes += other.query_bytes;
    result_bytes += other.result_bytes;
    used_multi_load = used_multi_load || other.used_multi_load;
    parts = other.parts;
    devices = std::max(devices, other.devices);
    planned = other.planned;
    plan_tier = other.plan_tier;
    planned_chunk_size = other.planned_chunk_size;
    planned_pipeline_depth = other.planned_pipeline_depth;
    queue_seconds += other.queue_seconds;
    coalesced_batch = std::max(coalesced_batch, other.coalesced_batch);
    cache_hits += other.cache_hits;
    if (per_device.size() < other.per_device.size()) {
      per_device.resize(other.per_device.size());
    }
    for (size_t d = 0; d < other.per_device.size(); ++d) {
      per_device[d].index_transfer_s += other.per_device[d].index_transfer_s;
      per_device[d].query_transfer_s += other.per_device[d].query_transfer_s;
      per_device[d].match_s += other.per_device[d].match_s;
      per_device[d].select_s += other.per_device[d].select_s;
      per_device[d].prepare_s += other.per_device[d].prepare_s;
      per_device[d].index_bytes += other.per_device[d].index_bytes;
      per_device[d].query_bytes += other.per_device[d].query_bytes;
      per_device[d].result_bytes += other.per_device[d].result_bytes;
    }
    workers = std::max(workers, other.workers);
    scatter_seconds += other.scatter_seconds;
    for (const WorkerProfile& worker : other.per_worker) {
      WorkerProfile* slot = nullptr;
      for (WorkerProfile& existing : per_worker) {
        if (existing.address == worker.address) {
          slot = &existing;
          break;
        }
      }
      if (slot == nullptr) {
        per_worker.push_back(WorkerProfile{});
        slot = &per_worker.back();
        slot->address = worker.address;
      }
      slot->calls += worker.calls;
      slot->wins += worker.wins;
      slot->failures += worker.failures;
      slot->hedged += worker.hedged;
      slot->request_bytes += worker.request_bytes;
      slot->response_bytes += worker.response_bytes;
      slot->network_s += worker.network_s;
      slot->call_s += worker.call_s;
      slot->worker_match_s += worker.worker_match_s;
      slot->worker_select_s += worker.worker_select_s;
    }
  }
};

/// One result per query of the request, in request order.
struct SearchResult {
  std::vector<QueryHits> queries;
  /// Costs of this Search / SearchStream call alone (the per-call delta).
  SearchProfile profile;
  /// Running totals since engine creation.
  SearchProfile cumulative;
};

/// Chunking knobs of Engine::SearchStream / SearchAsync.
struct SearchStreamOptions {
  /// Queries submitted to the backend per chunk (the paper's Fig. 11 runs
  /// 65536 queries as 64 chunks of 1024). 0 = derive from the free device
  /// memory where the modality allows it (compiled queries, via
  /// BatchAssembler::DeriveFromMemory — oversubscription-safe), else 1024.
  uint32_t chunk_size = 1024;
  /// When chunk_size is 0: fraction of the free device capacity the
  /// per-chunk working memory may occupy. Working memory is only resident
  /// for the executing chunk (pipelining double-buffers just the small
  /// task-list staging, covered by the remaining headroom), so the same
  /// fraction applies with and without pipelining.
  double memory_fraction = 0.5;
  /// Two-stage pipelining (default on): chunk k+1's prepare stage (query
  /// transform + per-device staging of the task lists) runs concurrently
  /// with chunk k's execute stage (match + select + host merge),
  /// double-buffered — at most one chunk staged ahead. Results, delivery
  /// order, and cancellation semantics are identical to the sequential
  /// path; the first error also drains (discards) the staged chunk.
  /// profile.overlap_seconds reports the measured overlap.
  bool pipeline = true;
};

/// One delivered chunk of a streaming search: `result.queries` holds the
/// answers of queries [first_query, first_query + result.queries.size())
/// of the request, and `result.profile` is the delta of this chunk alone.
struct SearchChunk {
  size_t index = 0;        // chunk ordinal, starting at 0
  size_t first_query = 0;  // offset of the chunk's first query
  SearchResult result;
};

/// Per-chunk delivery hook of SearchStream. Chunks arrive in input order.
/// Returning a non-OK status cancels the remaining chunks and surfaces that
/// status from SearchStream / the SearchAsync future.
using SearchChunkCallback = std::function<Status(const SearchChunk&)>;

/// Knobs of the serving layer (EngineConfig::Serving): continuous batching
/// of small concurrent submissions into device-sized super-batches, a
/// hot-query result cache with in-flight dedup, and weighted-DRR per-tenant
/// fairness with queue-bound backpressure. Results are identical to the
/// legacy path for every knob setting; only latency, throughput, and the
/// new SearchProfile serving fields differ.
struct ServingOptions {
  /// Target queries per coalesced super-batch. 0 = the live ExecutionPlan's
  /// chunk size when the planner produced one, else 1024 (the resolution
  /// order of BatchAssembler::ResolveTargetBatch).
  uint32_t target_batch = 0;
  /// Latency-deadline knob of continuous batching: a pending request is
  /// dispatched no later than this many seconds after it was admitted, even
  /// if the super-batch has not filled.
  double max_queue_delay_s = 0.001;
  /// Backpressure: pending requests one tenant may queue before further
  /// submissions fail with ResourceExhausted. 0 = unbounded.
  uint32_t max_pending_per_tenant = 1024;
  /// Hot-query result-cache capacity in entries (one entry = one submitted
  /// request's answers). 0 disables caching.
  uint32_t cache_capacity = 1024;
  /// Seconds a cached answer stays servable. Generation invalidation (any
  /// Insert / Remove / compaction hot-swap) applies regardless of TTL;
  /// <= 0 means entries never expire by age.
  double cache_ttl_s = 60.0;
  /// Collapse identical concurrent submissions: followers attach to the
  /// queued leader and share its answer, so N identical pending queries run
  /// the backend once.
  bool dedup_inflight = true;
  /// Weighted deficit round-robin: queries one unit-weight tenant may
  /// dequeue per scheduling round.
  uint32_t fairness_quantum = 64;
  /// Per-tenant DRR weights; unlisted tenants weigh 1.0.
  std::vector<std::pair<uint64_t, double>> tenant_weights;
};

/// Counters of the serving layer since engine creation
/// (Engine::ServingStats; all zero when serving is off).
struct ServingStats {
  uint64_t submitted = 0;         // requests admitted (incl. cache/dedup hits)
  uint64_t rejected = 0;          // backpressure ResourceExhausted rejections
  uint64_t cache_hits = 0;        // requests answered wholly from the cache
  uint64_t cache_misses = 0;      // requests that had to execute
  uint64_t dedup_followers = 0;   // requests attached to an identical leader
  uint64_t batches = 0;           // super-batches executed
  uint64_t coalesced_requests = 0;  // requests answered via super-batches
  uint64_t executed_queries = 0;  // queries the backend actually ran
  double total_queue_seconds = 0;   // summed per-request queue wait
  double max_queue_seconds = 0;     // worst per-request queue wait
};

}  // namespace genie
