#pragma once

/// \file engine.h
/// The single entry point to GENIE: a fluent EngineConfig binds one dataset
/// (any modality), Engine::Create builds the transform + inverted index and
/// picks the backend, and Engine::Search answers batches with the unified
/// SearchResult shape. Backend selection is automatic — when the index
/// exceeds device memory the engine transparently shards it and answers
/// through multiple loading (Section III-D); no caller intervention.
///
///   auto engine = genie::Engine::Create(
///       genie::EngineConfig().Table(&table).K(5));
///   auto result = (*engine)->Search(genie::SearchRequest::Ranges(batch));

#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "api/types.h"
#include "common/result.h"
#include "index/inverted_index.h"
#include "lsh/lsh_family.h"
#include "net/remote_options.h"
#include "sim/device.h"

namespace genie {

class Searcher;
namespace serve {
class RequestScheduler;
}  // namespace serve

/// Knobs of Engine::Save.
struct BundleSaveOptions {
  /// Persist the postings varint-delta compressed (typically 2-4x smaller;
  /// requires ascending postings per (sub)list, which holds for every
  /// facade-built engine — objects are indexed in id order).
  bool compress_postings = false;
};

/// Fluent configuration. Exactly one dataset binding selects the modality;
/// everything else has workload-appropriate defaults. Bound datasets must
/// outlive the Engine.
class EngineConfig {
 public:
  // --- Dataset bindings (each selects the modality). -----------------------
  EngineConfig& Points(const data::PointMatrix* points);
  EngineConfig& Sets(const std::vector<std::vector<uint32_t>>* sets);
  EngineConfig& Sequences(const std::vector<std::string>* sequences);
  EngineConfig& Documents(const std::vector<std::vector<uint32_t>>* documents);
  EngineConfig& Table(const sa::RelationalTable* table);
  EngineConfig& Index(const InvertedIndex* index);

  // --- Common knobs. -------------------------------------------------------
  /// Results returned per query (default 10).
  EngineConfig& K(uint32_t k);
  /// Candidates fetched from the match-count engine before re-ranking /
  /// verification (points, sets, sequences). 0 = max(k, 32).
  EngineConfig& CandidateK(uint32_t candidate_k);
  /// c-PQ (GENIE) vs Count Table + SPQ (GEN-SPQ) selection.
  EngineConfig& Selector(SelectorKind selector);
  /// Device to run on; nullptr = sim::Device::Default().
  EngineConfig& Device(sim::Device* device);
  /// Match-count upper bound; 0 = derive per batch / per modality.
  EngineConfig& MaxCount(uint32_t max_count);
  /// Load-balance split threshold for long postings lists (Section III-B1);
  /// 0 disables splitting.
  EngineConfig& MaxListLength(uint32_t max_list_length);
  EngineConfig& BlockDim(uint32_t block_dim);
  EngineConfig& MaxListsPerBlock(uint32_t max_lists);
  EngineConfig& CollectHtStats(bool collect);
  EngineConfig& Seed(uint64_t seed);

  // --- LSH knobs (points / sets). ------------------------------------------
  /// Family override; when unset, points default to E2LSH over the dataset
  /// dimension and sets default to MinHash.
  EngineConfig& VectorFamily(std::shared_ptr<const lsh::VectorLshFamily> family);
  EngineConfig& SetFamily(std::shared_ptr<const lsh::SetLshFamily> family);
  /// Hash-function count m for the default families (0 = 64; size via
  /// lsh::MinHashFunctions(eps, delta) for a principled m).
  EngineConfig& HashFunctions(uint32_t m);
  /// Re-hash domain D of Fig. 7 (0 = modality default: 8192 points,
  /// 1024 sets).
  EngineConfig& RehashDomain(uint32_t domain);
  /// l_p metric of the default E2LSH family and of exact re-ranking.
  EngineConfig& MetricP(uint32_t p);
  /// Re-rank the match-count candidates by exact distance (points) or exact
  /// Jaccard similarity (sets) before returning the top k.
  EngineConfig& ExactRerank(bool rerank);

  // --- Sequence knobs. -----------------------------------------------------
  EngineConfig& Ngram(uint32_t n);
  /// Multi-round search: double K until Theorem 5.2 certifies exactness.
  EngineConfig& EscalateUntilExact(bool escalate);
  EngineConfig& MaxCandidateK(uint32_t max_candidate_k);

  // --- Mutation knobs (Engine::Insert / Remove / Flush). -------------------
  /// Inserted objects per in-memory delta segment before the active
  /// segment seals (default 128).
  EngineConfig& DeltaSealThreshold(uint32_t objects);
  /// Sealed delta segments that trigger a background compaction of
  /// delta+main into a fresh immutable index; 0 disables the automatic
  /// trigger — Flush() still compacts (default 4).
  EngineConfig& AutoCompactSegments(uint32_t segments);

  // --- Backend knobs. ------------------------------------------------------
  /// Permit the automatic multiple-loading fallback (default true).
  EngineConfig& AllowMultiLoad(bool allow);
  /// Cap on fallback parts.
  EngineConfig& MaxParts(uint32_t max_parts);
  /// Force multiple loading with exactly this many parts (0 = automatic).
  EngineConfig& ForceParts(uint32_t parts);
  /// Shard the index across n simulated devices and execute batches on all
  /// of them in parallel (space multiplexing; default 1 = the classic
  /// single-device tiers). Each device is configured like the device bound
  /// with Device() — or the process default — with its own worker pool and
  /// memory accounting. Results are identical for every n.
  EngineConfig& Devices(uint32_t n);
  /// Scatter the index across remote worker processes (one shard per
  /// endpoint, postings-volume balanced) and answer batches by
  /// scatter-gather over the RPC protocol in src/net/. Loopback addresses
  /// ("loopback/<n>", net::RemoteOptions::Loopback) run in-process workers
  /// — deterministic and CI-friendly; "host:port" addresses dial real
  /// genie_worker processes. Mutually exclusive with Devices(n > 1).
  /// Results are identical to the local tiers for every shard count.
  EngineConfig& Remote(net::RemoteOptions remote);

  // --- Serving knobs. ------------------------------------------------------
  /// Route Search / SearchStream / SearchAsync through the serving layer:
  /// concurrent submissions are coalesced into device-sized super-batches
  /// (continuous batching under options.max_queue_delay_s), answers of hot
  /// queries come from a generation-checked result cache, and tenants
  /// (SearchRequest::Tenant) share the device under weighted deficit
  /// round-robin with ResourceExhausted backpressure. Off (the default)
  /// keeps the legacy per-call path bit-for-bit; on, the answers are still
  /// identical — only latency, throughput and the SearchProfile serving
  /// fields change. On, SearchAsync admits from the calling thread and
  /// holds no thread while its chunks wait: each delivery, callback
  /// included, runs as a short task on the process-wide thread pool, never
  /// on the scheduler's dispatcher thread. SearchStream still runs its
  /// callbacks on its calling thread.
  EngineConfig& Serving(ServingOptions options);

  // --- Getters. ------------------------------------------------------------
  bool has_modality() const { return has_modality_; }
  Modality modality() const { return modality_; }
  const data::PointMatrix* points() const { return points_; }
  const std::vector<std::vector<uint32_t>>* sets() const { return sets_; }
  const std::vector<std::string>* sequences() const { return sequences_; }
  const std::vector<std::vector<uint32_t>>* documents() const {
    return documents_;
  }
  const sa::RelationalTable* table() const { return table_; }
  const InvertedIndex* index() const { return index_; }

  uint32_t k() const { return k_; }
  uint32_t candidate_k() const { return candidate_k_; }
  SelectorKind selector() const { return selector_; }
  sim::Device* device() const { return device_; }
  uint32_t max_count() const { return max_count_; }
  uint32_t max_list_length() const { return max_list_length_; }
  uint32_t block_dim() const { return block_dim_; }
  uint32_t max_lists_per_block() const { return max_lists_per_block_; }
  bool collect_ht_stats() const { return collect_ht_stats_; }
  uint64_t seed() const { return seed_; }

  const std::shared_ptr<const lsh::VectorLshFamily>& vector_family() const {
    return vector_family_;
  }
  const std::shared_ptr<const lsh::SetLshFamily>& set_family() const {
    return set_family_;
  }
  uint32_t hash_functions() const { return hash_functions_; }
  uint32_t rehash_domain() const { return rehash_domain_; }
  uint32_t metric_p() const { return metric_p_; }
  bool exact_rerank() const { return exact_rerank_; }

  uint32_t ngram() const { return ngram_; }
  bool escalate_until_exact() const { return escalate_until_exact_; }
  uint32_t max_candidate_k() const { return max_candidate_k_; }

  uint32_t delta_seal_threshold() const { return delta_seal_threshold_; }
  uint32_t auto_compact_segments() const { return auto_compact_segments_; }

  bool allow_multi_load() const { return allow_multi_load_; }
  uint32_t max_parts() const { return max_parts_; }
  uint32_t force_parts() const { return force_parts_; }
  uint32_t num_devices() const { return num_devices_; }
  const net::RemoteOptions& remote() const { return remote_; }

  bool serving_enabled() const { return serving_enabled_; }
  const ServingOptions& serving() const { return serving_; }

 private:
  EngineConfig& Bind(Modality modality);

  bool has_modality_ = false;
  Modality modality_ = Modality::kPoints;
  const data::PointMatrix* points_ = nullptr;
  const std::vector<std::vector<uint32_t>>* sets_ = nullptr;
  const std::vector<std::string>* sequences_ = nullptr;
  const std::vector<std::vector<uint32_t>>* documents_ = nullptr;
  const sa::RelationalTable* table_ = nullptr;
  const InvertedIndex* index_ = nullptr;

  uint32_t k_ = 10;
  uint32_t candidate_k_ = 0;
  SelectorKind selector_ = SelectorKind::kCpq;
  sim::Device* device_ = nullptr;
  uint32_t max_count_ = 0;
  uint32_t max_list_length_ = 0;
  uint32_t block_dim_ = 8;
  uint32_t max_lists_per_block_ = 0;
  bool collect_ht_stats_ = false;
  uint64_t seed_ = 7;

  std::shared_ptr<const lsh::VectorLshFamily> vector_family_;
  std::shared_ptr<const lsh::SetLshFamily> set_family_;
  uint32_t hash_functions_ = 0;
  uint32_t rehash_domain_ = 0;
  uint32_t metric_p_ = 2;
  bool exact_rerank_ = false;

  uint32_t ngram_ = 3;
  bool escalate_until_exact_ = false;
  uint32_t max_candidate_k_ = 256;

  uint32_t delta_seal_threshold_ = 128;
  uint32_t auto_compact_segments_ = 4;

  bool allow_multi_load_ = true;
  uint32_t max_parts_ = 256;
  uint32_t force_parts_ = 0;
  uint32_t num_devices_ = 1;
  net::RemoteOptions remote_;

  bool serving_enabled_ = false;
  ServingOptions serving_;
};

/// The facade. One Engine serves one indexed dataset; Search() accepts
/// batches of the matching request kind and returns the unified result
/// shape. Thread-safe: Search, SearchStream and SearchAsync may be called
/// concurrently — only the backend execution of a batch (and its
/// profile-delta bookkeeping) is serialized, inside the searcher; host-side
/// result shaping (re-ranking, hit conversion) runs outside that critical
/// section, so one stream's post-processing overlaps the next chunk's
/// device work. Each call's SearchProfile delta covers exactly its own
/// work.
class Engine {
 public:
  static Result<std::unique_ptr<Engine>> Create(const EngineConfig& config);
  ~Engine();

  /// Persists this engine as a versioned bundle: the inverted index plus
  /// the modality-specific query-side state (LSH family coefficients and
  /// re-hash seeds, n-gram vocabulary, token universe, column layout) that
  /// Open needs to compile queries exactly like this engine. The paper
  /// treats index construction as an offline one-time cost; Save/Open make
  /// that workflow concrete — build once, serve from the bundle. Fails
  /// with Unimplemented for engines over caller-supplied custom LSH
  /// families, and with IOError when the file cannot be written in full
  /// (e.g. a full disk).
  Status Save(const std::string& path,
              const BundleSaveOptions& options = {}) const;

  /// Opens a bundle written by Save and serves it without rebuilding the
  /// index. `config` supplies the dataset binding — which must be the
  /// dataset the bundle was built from (same modality and shape; it is
  /// still consulted for re-ranking / verification) — plus the runtime
  /// knobs (K, CandidateK, Selector, Device, Devices(n), backend knobs...),
  /// which compose exactly like Create: a bundle opened with Devices(n)
  /// shards onto the multi-device tier. Transform-side knobs (Seed,
  /// HashFunctions, RehashDomain, Ngram, VectorFamily / SetFamily) are
  /// ignored — that state comes from the bundle. Compiled bundles carry
  /// their own index: open them with a config that has no dataset binding.
  /// Corrupted or truncated bundles fail with InvalidArgument.
  static Result<std::unique_ptr<Engine>> Open(const std::string& path,
                                              EngineConfig config);

  /// Validates the request (payload kind, non-empty batch, dimensions)
  /// and answers it. Every modality reports errors through the same
  /// Status contract.
  Result<SearchResult> Search(const SearchRequest& request);

  /// Streaming pipeline over large query sets (Fig. 11): splits the request
  /// into chunks of options.chunk_size queries, answers each through the
  /// backend (composing with the single-load -> multiple-loading
  /// escalation), and delivers per-chunk results in input order through
  /// `on_chunk` (optional). With options.pipeline (the default) the stream
  /// is two-stage: chunk k+1's prepare (query transform + per-device
  /// staging) runs concurrently with chunk k's execute (match + select +
  /// host merge), double-buffered so at most one chunk is staged ahead;
  /// profile.overlap_seconds reports the measured overlap. The first
  /// error — from the backend or a non-OK callback return — cancels the
  /// remaining chunks and drains (discards) the staged chunk. On success
  /// the returned SearchResult concatenates all chunks, identical to one
  /// blocking Search of the whole request — pipelined or not; its
  /// `profile` sums the chunk deltas. `on_chunk` runs on the calling
  /// thread, with serving on or off.
  Result<SearchResult> SearchStream(const SearchRequest& request,
                                    const SearchStreamOptions& options = {},
                                    const SearchChunkCallback& on_chunk = {});

  /// SearchStream without waiting for it. Without serving, the stream runs
  /// as one task on the process-wide thread pool, and `on_chunk` runs on
  /// that pool thread. Under EngineConfig::Serving, this call admits the
  /// first two chunks itself and returns; no thread waits for an answer
  /// after that. Each answered chunk is delivered as one short task on the
  /// process-wide thread pool (never on the scheduler's dispatcher and
  /// never inside this call, even on a cache hit): `on_chunk` runs, and
  /// the chunk two places ahead is admitted. Either way the first error
  /// — from the backend, a non-OK callback return or a callback exception
  /// — stops the stream, and a callback exception is rethrown by
  /// future.get(). The request's payload spans must stay alive until the
  /// future resolves. Concurrent async streams on one engine interleave
  /// chunk-by-chunk; each stream's chunks are still delivered in its own
  /// input order, one at a time. The destructor blocks until every
  /// SearchAsync future has resolved, so the engine cannot be freed out
  /// from under a running stream.
  std::future<Result<SearchResult>> SearchAsync(
      SearchRequest request, SearchStreamOptions options = {},
      SearchChunkCallback on_chunk = {});

  /// Inserts a batch of objects (same modality as the engine) into the
  /// live index and returns their assigned ids, in request order. Writes
  /// land in in-memory delta segments; every subsequent Search /
  /// SearchStream / SearchAsync — on any backend tier — sees them
  /// immediately. Thread-safe against concurrent searches and other
  /// mutations.
  Result<std::vector<ObjectId>> Insert(const InsertRequest& request);

  /// Removes objects by id (tombstones consulted at merge time; the ids
  /// disappear from all subsequent search results immediately).
  /// InvalidArgument when an id was never assigned or is already removed —
  /// ids earlier in the span are removed regardless.
  Status Remove(std::span<const ObjectId> ids);

  /// Seals the pending delta segments and synchronously compacts
  /// delta+main into a fresh immutable index, hot-swapped behind the
  /// backend (in-flight streams never pause). On return the mutable layer
  /// is empty. A no-op on engines that were never mutated.
  Status Flush();

  MutationStats mutation_stats() const;

  /// Human-readable report of the execution plan the engine's backend runs
  /// under: planner on/off, how the index stats were obtained (persisted in
  /// the bundle vs computed), the plan's tier / part boundaries / placement
  /// / chunk size, the live tier, the stats summary and the cost-model
  /// state. Purely informational — the schedule, not the answers.
  std::string ExplainPlan() const;

  /// Serving-layer counters since engine creation: admissions, backpressure
  /// rejections, cache hits / misses, dedup joins, super-batches and their
  /// coalesced request / query totals, queue-wait aggregates. All zero when
  /// EngineConfig::Serving was not set.
  ServingStats serving_stats() const;

  Modality modality() const;
  /// Objects the engine serves ids for: the indexed dataset plus every
  /// insert (removed ids stay counted — ids are never reused).
  uint32_t num_objects() const;
  const EngineConfig& config() const { return config_; }

 private:
  struct AsyncTracker;
  class ServedStream;

  Engine(EngineConfig config, std::unique_ptr<Searcher> searcher);

  /// Knob validation shared by Create and Open (everything but the
  /// dataset-binding requirement).
  static Status ValidateCommonKnobs(const EngineConfig& config);

  /// Shared request validation of Search / SearchStream / SearchAsync.
  Status ValidateRequest(const SearchRequest& request) const;

  /// Queries per stream chunk: options.chunk_size, else the searcher's
  /// memory derivation, else the live plan's chunk size, else 1024.
  size_t StreamChunkSize(const SearchRequest& request,
                         const SearchStreamOptions& options) const;

  /// Request validation of Insert (modality match, non-empty batch,
  /// payload shape).
  Status ValidateInsertRequest(const InsertRequest& request) const;

  /// Folds a finished stream's measured overlap into the engine-lifetime
  /// total and returns the new total (for cumulative.overlap_seconds).
  double AddOverlapSeconds(double delta);

  EngineConfig config_;
  /// Thread-safe (it serializes its backend execution internally; see
  /// searcher.h).
  std::unique_ptr<Searcher> searcher_;
  /// Serving layer (EngineConfig::Serving); nullptr when serving is off.
  /// Declared after searcher_ so it is destroyed first — its dispatcher
  /// thread may be mid-Search on the searcher.
  std::unique_ptr<serve::RequestScheduler> scheduler_;
  /// Counts SearchAsync calls whose future has not resolved yet; shared
  /// with the streams themselves so the destructor can wait for them
  /// without lifetime games.
  std::shared_ptr<AsyncTracker> async_;
  /// Engine-lifetime pipelined-overlap seconds (see
  /// SearchProfile::overlap_seconds).
  std::mutex overlap_mu_;
  double overlap_total_s_ = 0;
};

}  // namespace genie
