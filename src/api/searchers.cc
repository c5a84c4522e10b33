#include "api/searcher.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "core/batch_scheduler.h"
#include "core/engine_backend.h"
#include "index/delta/delta_store.h"
#include "index/delta/mutation_controller.h"
#include "lsh/e2lsh.h"
#include "lsh/lsh_searcher.h"
#include "lsh/min_hash.h"
#include "lsh/random_binning.h"
#include "lsh/set_searcher.h"
#include "sa/document_searcher.h"
#include "sa/relational.h"
#include "sa/sequence_searcher.h"

namespace genie {
namespace {

constexpr uint32_t kDefaultHashFunctions = 64;
constexpr uint32_t kDefaultPointsRehashDomain = 8192;
constexpr uint32_t kDefaultSetsRehashDomain = 1024;

/// Bundle meta tags for the concrete LSH family types; caller-supplied
/// custom families cannot be persisted (Save fails with Unimplemented).
constexpr uint8_t kVectorFamilyE2Lsh = 1;
constexpr uint8_t kVectorFamilyRandomBinning = 2;
constexpr uint8_t kSetFamilyMinHash = 1;

MatchEngineOptions BaseEngineOptions(const EngineConfig& config) {
  MatchEngineOptions options;
  options.k = config.k();
  options.max_count = config.max_count();
  switch (config.selector()) {
    case SelectorKind::kCpq:
      options.selector = MatchEngineOptions::Selector::kCpq;
      break;
    case SelectorKind::kCountTableSpq:
      options.selector = MatchEngineOptions::Selector::kCountTableSpq;
      break;
    case SelectorKind::kBucketSelect:
      options.selector = MatchEngineOptions::Selector::kBucketSelect;
      break;
  }
  options.block_dim = config.block_dim();
  options.max_lists_per_block = config.max_lists_per_block();
  options.collect_ht_stats = config.collect_ht_stats();
  options.device = config.device();
  return options;
}

EngineBackendOptions BackendOptions(const EngineConfig& config) {
  EngineBackendOptions options;
  options.allow_multi_load = config.allow_multi_load();
  options.max_parts = config.max_parts();
  options.force_parts = config.force_parts();
  options.shard_build.max_list_length = config.max_list_length();
  options.num_devices = config.num_devices();
  options.remote = config.remote();
  return options;
}

IndexBuildOptions BuildOptions(const EngineConfig& config) {
  IndexBuildOptions options;
  options.max_list_length = config.max_list_length();
  return options;
}

/// Candidates to fetch per query for the re-rank / verify modalities.
uint32_t CandidatePoolSize(const EngineConfig& config) {
  return config.candidate_k() > 0 ? config.candidate_k()
                                  : std::max(config.k(), 32u);
}

/// Backend state captured atomically with a batch — the backend's one-lock
/// profile snapshot plus the modality's verify seconds — inside the
/// searcher's critical section. The per-call delta is computed from two of
/// these after the lock is released, so the facade never reads the backend
/// live while another thread executes.
struct BackendSnapshot {
  EngineBackend::ProfileSnapshot backend;
  double verify_s = 0;
};

BackendSnapshot Snapshot(const EngineBackend& backend, double verify_s = 0) {
  return BackendSnapshot{backend.profile_snapshot(), verify_s};
}

std::vector<DeviceProfile> DeviceCosts(
    const std::vector<MatchProfile>& devices) {
  std::vector<DeviceProfile> costs(devices.size());
  for (size_t d = 0; d < devices.size(); ++d) {
    costs[d].index_transfer_s = devices[d].index_transfer_s;
    costs[d].query_transfer_s = devices[d].query_transfer_s;
    costs[d].match_s = devices[d].match_s;
    costs[d].select_s = devices[d].select_s;
    costs[d].prepare_s = devices[d].prepare_s;
    costs[d].index_bytes = devices[d].index_bytes;
    costs[d].query_bytes = devices[d].query_bytes;
    costs[d].result_bytes = devices[d].result_bytes;
  }
  return costs;
}

std::vector<WorkerProfile> WorkerCosts(
    const std::vector<RemoteWorkerStats>& workers) {
  std::vector<WorkerProfile> costs(workers.size());
  for (size_t w = 0; w < workers.size(); ++w) {
    costs[w].address = workers[w].address;
    costs[w].calls = workers[w].calls;
    costs[w].wins = workers[w].wins;
    costs[w].failures = workers[w].failures;
    costs[w].hedged = workers[w].hedged;
    costs[w].request_bytes = workers[w].request_bytes;
    costs[w].response_bytes = workers[w].response_bytes;
    costs[w].call_s = workers[w].call_s;
    costs[w].network_s =
        std::max(0.0, workers[w].call_s - workers[w].worker_execute_s);
    costs[w].worker_match_s = workers[w].worker_match_s;
    costs[w].worker_select_s = workers[w].worker_select_s;
  }
  return costs;
}

/// Per-call worker delta: `after` minus the matching-address entry of
/// `before` (workers are keyed by address; the set only grows).
std::vector<RemoteWorkerStats> RemoteDelta(
    const std::vector<RemoteWorkerStats>& before,
    const std::vector<RemoteWorkerStats>& after) {
  std::vector<RemoteWorkerStats> delta = after;
  for (RemoteWorkerStats& worker : delta) {
    for (const RemoteWorkerStats& base : before) {
      if (base.address != worker.address) continue;
      worker.calls -= base.calls;
      worker.wins -= base.wins;
      worker.failures -= base.failures;
      worker.hedged -= base.hedged;
      worker.request_bytes -= base.request_bytes;
      worker.response_bytes -= base.response_bytes;
      worker.call_s -= base.call_s;
      worker.worker_match_s -= base.worker_match_s;
      worker.worker_select_s -= base.worker_select_s;
      worker.worker_execute_s -= base.worker_execute_s;
      break;
    }
  }
  return delta;
}

SearchProfile MakeProfile(const MatchProfile& p, double merge_s,
                          double verify_s,
                          const EngineBackend::ProfileSnapshot& facts) {
  SearchProfile profile;
  profile.index_transfer_s = p.index_transfer_s;
  profile.query_transfer_s = p.query_transfer_s;
  profile.match_s = p.match_s;
  profile.select_s = p.select_s;
  profile.merge_s = merge_s;
  profile.verify_s = verify_s;
  profile.prepare_seconds = p.prepare_s;
  profile.index_bytes = p.index_bytes;
  profile.query_bytes = p.query_bytes;
  profile.result_bytes = p.result_bytes;
  profile.used_multi_load = facts.multi_load;
  profile.parts = facts.parts;
  profile.devices = facts.num_devices;
  profile.planned = facts.plan.planned;
  profile.plan_tier = plan::TierToString(facts.plan.tier);
  profile.planned_chunk_size = facts.plan.chunk_size;
  profile.planned_pipeline_depth = facts.plan.pipeline_depth;
  return profile;
}

/// Fills result->profile with the delta between the two snapshots and
/// result->cumulative with the `after` totals.
void FillProfiles(SearchResult* result, const BackendSnapshot& before,
                  const BackendSnapshot& after) {
  MatchProfile delta = after.backend.match;
  delta.Subtract(before.backend.match);
  result->profile =
      MakeProfile(delta, after.backend.merge_s - before.backend.merge_s,
                  after.verify_s - before.verify_s, after.backend);
  result->cumulative = MakeProfile(after.backend.match, after.backend.merge_s,
                                   after.verify_s, after.backend);
  if (after.backend.remote) {
    result->cumulative.workers =
        static_cast<uint32_t>(after.backend.remote_profile.workers.size());
    result->cumulative.scatter_seconds = after.backend.remote_profile.scatter_s;
    result->cumulative.per_worker =
        WorkerCosts(after.backend.remote_profile.workers);
    result->profile.workers = result->cumulative.workers;
    result->profile.scatter_seconds =
        after.backend.remote_profile.scatter_s -
        before.backend.remote_profile.scatter_s;
    result->profile.per_worker = WorkerCosts(
        RemoteDelta(before.backend.remote_profile.workers,
                    after.backend.remote_profile.workers));
  }
  result->cumulative.per_device = DeviceCosts(after.backend.devices);
  if (before.backend.devices.size() == after.backend.devices.size()) {
    std::vector<MatchProfile> device_delta = after.backend.devices;
    for (size_t d = 0; d < device_delta.size(); ++d) {
      device_delta[d].Subtract(before.backend.devices[d]);
    }
    result->profile.per_device = DeviceCosts(device_delta);
  } else {
    // The multi-device tier appeared during this call: all of its
    // per-device cost belongs to it. If instead the tier was retired
    // mid-call (fallback to multi-load), its per-device history was folded
    // into the aggregate stage costs and no per-device attribution
    // remains — the delta's scalar fields still carry those costs.
    result->profile.per_device = DeviceCosts(after.backend.devices);
  }
}

/// MC_k of one answer list: the k-th match count when k answers exist.
/// Precondition: `hits` is in descending match-count order.
uint32_t ThresholdOf(const std::vector<Hit>& hits, uint32_t k) {
  return hits.size() >= k ? hits[k - 1].match_count : 0;
}

/// MC_k of a list in arbitrary order (verified / re-ranked answers).
uint32_t KthLargestCount(const std::vector<Hit>& hits, uint32_t k) {
  if (hits.size() < k) return 0;
  std::vector<uint32_t> counts;
  counts.reserve(hits.size());
  for (const Hit& hit : hits) counts.push_back(hit.match_count);
  std::sort(counts.begin(), counts.end(), std::greater<>());
  return counts[k - 1];
}

// ---------------------------------------------------------------------------
// Live mutation plumbing shared by the modality impls
// ---------------------------------------------------------------------------

delta::MutationOptions MutationOptionsFrom(const EngineConfig& config) {
  delta::MutationOptions options;
  options.seal_threshold = config.delta_seal_threshold();
  options.auto_compact_segments = config.auto_compact_segments();
  options.build = BuildOptions(config);
  return options;
}

MutationStats ToApiMutationStats(const delta::MutationStats& stats) {
  MutationStats out;
  out.inserts = stats.inserts;
  out.removes = stats.removes;
  out.compactions = stats.compactions;
  out.last_compact_seconds = stats.last_compact_seconds;
  out.last_pause_seconds = stats.last_pause_seconds;
  return out;
}

/// Lazily attached mutation state: a frozen engine pays nothing (no delta
/// store, no compaction thread) until the first Insert/Remove creates the
/// controller. Impls declare the host *after* their domain searcher so it
/// is destroyed first — the compaction worker joins before the backend it
/// compacts dies.
class MutationHost {
 public:
  explicit MutationHost(delta::MutationOptions options)
      : options_(std::move(options)) {}

  /// The controller, created on first use against `backend` with id
  /// watermark `base`.
  delta::MutationController& Ensure(EngineBackend* backend, ObjectId base) {
    std::lock_guard<std::mutex> lock(mu_);
    if (controller_ == nullptr) {
      controller_ = std::make_unique<delta::MutationController>(backend, base,
                                                                options_);
    }
    return *controller_;
  }

  delta::MutationController* get() const {
    std::lock_guard<std::mutex> lock(mu_);
    return controller_.get();
  }

  bool mutated() const { return get() != nullptr; }

  uint32_t NumObjects(uint32_t base) const {
    delta::MutationController* controller = get();
    return controller == nullptr
               ? base
               : static_cast<uint32_t>(controller->next_id());
  }

  Status Remove(std::span<const ObjectId> ids, EngineBackend* backend,
                ObjectId base) {
    // Removing base objects from a never-mutated engine is valid, so the
    // controller is created here too.
    delta::MutationController& controller = Ensure(backend, base);
    for (ObjectId id : ids) GENIE_RETURN_NOT_OK(controller.Remove(id));
    return Status::OK();
  }

  Status Flush() const {
    delta::MutationController* controller = get();
    return controller == nullptr ? Status::OK() : controller->Flush();
  }

  MutationStats stats() const {
    delta::MutationController* controller = get();
    return controller == nullptr ? MutationStats{}
                                 : ToApiMutationStats(controller->stats());
  }

  std::shared_ptr<void> Pause() const {
    delta::MutationController* controller = get();
    if (controller == nullptr) return nullptr;
    return std::make_shared<delta::MutationController::Pause>(
        controller->PauseMutation());
  }

  /// Writes the delta snapshot (segments + tombstones + watermark); the
  /// caller appends its modality's side data after it.
  Status SerializeDeltaState(serialize::Writer* writer) const {
    delta::MutationController* controller = get();
    if (controller == nullptr) {
      return Status::Internal("serializing mutation state of a frozen engine");
    }
    delta::SerializeDelta(controller->delta_store()->snapshot(), writer);
    return Status::OK();
  }

  /// Bundle-open path: adopts a restored delta snapshot. Must run before
  /// the engine is visible to other threads.
  void AdoptSnapshot(const delta::DeltaSnapshot& snap, EngineBackend* backend,
                     ObjectId base) {
    delta::MutationController& controller = Ensure(backend, base);
    std::vector<ObjectId> tombstones = snap.tombstones == nullptr
                                           ? std::vector<ObjectId>{}
                                           : *snap.tombstones;
    controller.delta_store()->Restore(snap.segments, std::move(tombstones),
                                      snap.next_id);
  }

 private:
  delta::MutationOptions options_;
  mutable std::mutex mu_;
  std::unique_ptr<delta::MutationController> controller_;
};

/// Reads the v2 mutation section's delta snapshot through a staging store.
Result<delta::DeltaSnapshot> ReadDeltaSnapshot(serialize::Reader* mutation) {
  delta::DeltaStore staged(0, 1);
  GENIE_RETURN_NOT_OK(delta::DeserializeDelta(mutation, &staged));
  return staged.snapshot();
}

// ---------------------------------------------------------------------------
// Points (tau-ANN under an LSH family, Section IV)
// ---------------------------------------------------------------------------

class PointsSearcherImpl : public Searcher {
 public:
  PointsSearcherImpl(const data::PointMatrix* points,
                     std::unique_ptr<lsh::LshSearcher> searcher, uint32_t k,
                     bool rerank, uint32_t p,
                     delta::MutationOptions mutation_options)
      : points_(points), searcher_(std::move(searcher)), k_(k),
        rerank_(rerank), p_(p), host_(std::move(mutation_options)) {}

  Modality modality() const override { return Modality::kPoints; }
  uint32_t num_objects() const override {
    return host_.NumObjects(points_->num_points());
  }

  Result<SearchResult> Search(const SearchRequest& request) override {
    GENIE_ASSIGN_OR_RETURN(std::unique_ptr<PreparedChunk> chunk,
                           PrepareChunk(request));
    return ExecutePrepared(std::move(chunk));
  }

  struct Prepared : PreparedChunk {
    lsh::LshSearcher::PreparedBatch batch;
  };

  Result<std::unique_ptr<PreparedChunk>> PrepareChunk(
      const SearchRequest& request) override {
    auto chunk = std::make_unique<Prepared>();
    chunk->request = request;
    GENIE_ASSIGN_OR_RETURN(chunk->batch, searcher_->Prepare(*request.points));
    return std::unique_ptr<PreparedChunk>(std::move(chunk));
  }

  Result<SearchResult> ExecutePrepared(
      std::unique_ptr<PreparedChunk> chunk) override {
    auto* prepared = static_cast<Prepared*>(chunk.get());
    const SearchRequest& request = prepared->request;
    std::vector<std::vector<lsh::AnnMatch>> matches;
    BackendSnapshot before, after;
    {
      // Critical section: the backend execution and its profile
      // bookkeeping. Re-ranking and hit shaping below run outside it.
      std::lock_guard<std::mutex> lock(mu_);
      before = Snapshot(searcher_->backend());
      GENIE_ASSIGN_OR_RETURN(
          matches, searcher_->ExecutePrepared(std::move(prepared->batch)));
      after = Snapshot(searcher_->backend());
    }
    SearchResult result;
    result.queries.resize(matches.size());
    for (size_t q = 0; q < matches.size(); ++q) {
      QueryHits& out = result.queries[q];
      out.hits.reserve(matches[q].size());
      for (const lsh::AnnMatch& m : matches[q]) {
        out.hits.push_back(Hit{m.id, m.match_count, m.estimated_similarity});
      }
      // MC_k over the match-count ordering, before any re-rank disturbs it.
      out.threshold = ThresholdOf(out.hits, k_);
      if (rerank_) {
        const auto query_row = request.points->row(static_cast<uint32_t>(q));
        for (Hit& hit : out.hits) {
          const double d =
              p_ == 1 ? data::L1Distance(RowAt(hit.id), query_row)
                      : data::L2Distance(RowAt(hit.id), query_row);
          hit.score = -d;
        }
        std::sort(out.hits.begin(), out.hits.end(),
                  [](const Hit& a, const Hit& b) { return a.score > b.score; });
      }
      if (out.hits.size() > k_) out.hits.resize(k_);
    }
    FillProfiles(&result, before, after);
    return result;
  }

  Status SerializeBundleMeta(serialize::Writer* writer) const override {
    const lsh::VectorLshFamily& family = searcher_->transformer().family();
    if (const auto* e2lsh = dynamic_cast<const lsh::E2LshFamily*>(&family)) {
      writer->U8(kVectorFamilyE2Lsh);
      e2lsh->Serialize(writer);
    } else if (const auto* binning =
                   dynamic_cast<const lsh::RandomBinningFamily*>(&family)) {
      writer->U8(kVectorFamilyRandomBinning);
      binning->Serialize(writer);
    } else {
      return Status::Unimplemented(
          "only engines over the built-in E2LSH or random-binning families "
          "support Save");
    }
    searcher_->transformer().Serialize(writer);
    writer->U32(points_->num_points());
    writer->U32(points_->dim());
    return Status::OK();
  }

  const InvertedIndex* BundleIndex() const override {
    // A compaction may have swapped the backend's index; the searcher's
    // member still points at the build-time one. Save holds PauseMutation,
    // so the backend accessor is stable for the duration.
    return host_.mutated() ? searcher_->backend().index().get()
                           : &searcher_->index();
  }

  Result<std::vector<ObjectId>> Insert(const InsertRequest& request) override {
    const data::PointMatrix& batch = *request.points;
    delta::MutationController& controller =
        host_.Ensure(&searcher_->backend(), points_->num_points());
    std::vector<ObjectId> ids;
    ids.reserve(batch.num_points());
    for (uint32_t i = 0; i < batch.num_points(); ++i) {
      const std::span<const float> row = batch.row(i);
      // Keyword extraction stays outside the controller's state lock.
      std::vector<Keyword> keywords = searcher_->transformer().Transform(row);
      ids.push_back(controller.Insert(keywords, [&](ObjectId) {
        std::lock_guard<std::shared_mutex> lock(data_mu_);
        appended_rows_.emplace_back(row.begin(), row.end());
      }));
    }
    return ids;
  }

  Status Remove(std::span<const ObjectId> ids) override {
    return host_.Remove(ids, &searcher_->backend(), points_->num_points());
  }

  Status Flush() override { return host_.Flush(); }
  MutationStats mutation_stats() const override { return host_.stats(); }
  std::shared_ptr<void> PauseMutation() override { return host_.Pause(); }
  std::string ExplainPlan() const override {
    return searcher_->backend().ExplainPlan();
  }

  uint32_t PlannedChunkSize() const override {
    const plan::ExecutionPlan plan = searcher_->backend().execution_plan();
    return plan.planned ? plan.chunk_size : 0;
  }

  uint64_t DataGeneration() const override {
    return searcher_->backend().data_generation();
  }

  Status SerializeMutationState(serialize::Writer* writer) const override {
    if (!host_.mutated()) return Status::OK();
    GENIE_RETURN_NOT_OK(host_.SerializeDeltaState(writer));
    std::shared_lock<std::shared_mutex> lock(data_mu_);
    writer->U32(static_cast<uint32_t>(appended_rows_.size()));
    for (const std::vector<float>& row : appended_rows_) writer->Vec(row);
    return Status::OK();
  }

  /// Bundle-open: adopt the restored delta snapshot + appended rows before
  /// the engine is visible to other threads.
  void AdoptMutationState(const delta::DeltaSnapshot& snap,
                          std::vector<std::vector<float>> rows) {
    {
      std::lock_guard<std::shared_mutex> lock(data_mu_);
      appended_rows_ = std::move(rows);
    }
    host_.AdoptSnapshot(snap, &searcher_->backend(), points_->num_points());
  }

 private:
  /// The row of any live id: base rows from the bound dataset, inserted
  /// rows from the append-only log. The span survives the unlock — a
  /// growing outer vector moves the inner vectors but never their heap
  /// buffers, and appended rows are immutable.
  std::span<const float> RowAt(uint32_t id) const {
    if (id < points_->num_points()) return points_->row(id);
    std::shared_lock<std::shared_mutex> lock(data_mu_);
    const std::vector<float>& row = appended_rows_[id - points_->num_points()];
    return std::span<const float>(row.data(), row.size());
  }

  const data::PointMatrix* points_;
  std::unique_ptr<lsh::LshSearcher> searcher_;
  std::mutex mu_;
  uint32_t k_;
  bool rerank_;
  uint32_t p_;
  // Declared after searcher_: destroyed first, joining the compaction
  // worker before the backend it compacts dies.
  MutationHost host_;
  mutable std::shared_mutex data_mu_;
  std::vector<std::vector<float>> appended_rows_;
};

// ---------------------------------------------------------------------------
// Sets (Jaccard via MinHash, Section II-B1)
// ---------------------------------------------------------------------------

class SetsSearcherImpl : public Searcher {
 public:
  SetsSearcherImpl(const std::vector<std::vector<uint32_t>>* sets,
                   std::shared_ptr<const lsh::SetLshFamily> family,
                   std::unique_ptr<lsh::SetLshSearcher> searcher, uint32_t k,
                   bool rerank, delta::MutationOptions mutation_options)
      : sets_(sets), family_(std::move(family)), searcher_(std::move(searcher)),
        k_(k), rerank_(rerank), host_(std::move(mutation_options)) {}

  Modality modality() const override { return Modality::kSets; }
  uint32_t num_objects() const override {
    return host_.NumObjects(static_cast<uint32_t>(sets_->size()));
  }

  Result<SearchResult> Search(const SearchRequest& request) override {
    GENIE_ASSIGN_OR_RETURN(std::unique_ptr<PreparedChunk> chunk,
                           PrepareChunk(request));
    return ExecutePrepared(std::move(chunk));
  }

  struct Prepared : PreparedChunk {
    lsh::SetLshSearcher::PreparedBatch batch;
  };

  Result<std::unique_ptr<PreparedChunk>> PrepareChunk(
      const SearchRequest& request) override {
    auto chunk = std::make_unique<Prepared>();
    chunk->request = request;
    GENIE_ASSIGN_OR_RETURN(chunk->batch, searcher_->Prepare(request.sets));
    return std::unique_ptr<PreparedChunk>(std::move(chunk));
  }

  Result<SearchResult> ExecutePrepared(
      std::unique_ptr<PreparedChunk> chunk) override {
    auto* prepared = static_cast<Prepared*>(chunk.get());
    const SearchRequest& request = prepared->request;
    std::vector<std::vector<lsh::AnnMatch>> matches;
    BackendSnapshot before, after;
    {
      std::lock_guard<std::mutex> lock(mu_);
      before = Snapshot(searcher_->backend());
      GENIE_ASSIGN_OR_RETURN(
          matches, searcher_->ExecutePrepared(std::move(prepared->batch)));
      after = Snapshot(searcher_->backend());
    }
    SearchResult result;
    result.queries.resize(matches.size());
    for (size_t q = 0; q < matches.size(); ++q) {
      QueryHits& out = result.queries[q];
      out.hits.reserve(matches[q].size());
      for (const lsh::AnnMatch& m : matches[q]) {
        out.hits.push_back(Hit{m.id, m.match_count, m.estimated_similarity});
      }
      // MC_k over the match-count ordering, before any re-rank disturbs it.
      out.threshold = ThresholdOf(out.hits, k_);
      if (rerank_) {
        for (Hit& hit : out.hits) {
          hit.score =
              family_->CollisionProbability(SetAt(hit.id), request.sets[q]);
        }
        std::sort(out.hits.begin(), out.hits.end(),
                  [](const Hit& a, const Hit& b) { return a.score > b.score; });
      }
      if (out.hits.size() > k_) out.hits.resize(k_);
    }
    FillProfiles(&result, before, after);
    return result;
  }

  Status SerializeBundleMeta(serialize::Writer* writer) const override {
    const auto* min_hash =
        dynamic_cast<const lsh::MinHashFamily*>(family_.get());
    if (min_hash == nullptr) {
      return Status::Unimplemented(
          "only engines over the built-in MinHash family support Save");
    }
    writer->U8(kSetFamilyMinHash);
    min_hash->Serialize(writer);
    const lsh::LshTransformOptions& transform =
        searcher_->transform_options();
    writer->U32(transform.rehash_domain);
    writer->U64(transform.seed);
    writer->U8(transform.rehash ? 1 : 0);
    writer->Vec(searcher_->rehash_seeds());
    writer->U32(static_cast<uint32_t>(sets_->size()));
    return Status::OK();
  }

  const InvertedIndex* BundleIndex() const override {
    return host_.mutated() ? searcher_->backend().index().get()
                           : &searcher_->index();
  }

  Result<std::vector<ObjectId>> Insert(const InsertRequest& request) override {
    delta::MutationController& controller = host_.Ensure(
        &searcher_->backend(), static_cast<ObjectId>(sets_->size()));
    std::vector<ObjectId> ids;
    ids.reserve(request.sets.size());
    for (const std::vector<uint32_t>& set : request.sets) {
      std::vector<Keyword> keywords = searcher_->Transform(set);
      ids.push_back(controller.Insert(keywords, [&](ObjectId) {
        std::lock_guard<std::shared_mutex> lock(data_mu_);
        appended_sets_.push_back(set);
      }));
    }
    return ids;
  }

  Status Remove(std::span<const ObjectId> ids) override {
    return host_.Remove(ids, &searcher_->backend(),
                        static_cast<ObjectId>(sets_->size()));
  }

  Status Flush() override { return host_.Flush(); }
  MutationStats mutation_stats() const override { return host_.stats(); }
  std::shared_ptr<void> PauseMutation() override { return host_.Pause(); }
  std::string ExplainPlan() const override {
    return searcher_->backend().ExplainPlan();
  }

  uint32_t PlannedChunkSize() const override {
    const plan::ExecutionPlan plan = searcher_->backend().execution_plan();
    return plan.planned ? plan.chunk_size : 0;
  }

  uint64_t DataGeneration() const override {
    return searcher_->backend().data_generation();
  }

  Status SerializeMutationState(serialize::Writer* writer) const override {
    if (!host_.mutated()) return Status::OK();
    GENIE_RETURN_NOT_OK(host_.SerializeDeltaState(writer));
    std::shared_lock<std::shared_mutex> lock(data_mu_);
    writer->U32(static_cast<uint32_t>(appended_sets_.size()));
    for (const std::vector<uint32_t>& set : appended_sets_) writer->Vec(set);
    return Status::OK();
  }

  void AdoptMutationState(const delta::DeltaSnapshot& snap,
                          std::vector<std::vector<uint32_t>> sets) {
    {
      std::lock_guard<std::shared_mutex> lock(data_mu_);
      appended_sets_ = std::move(sets);
    }
    host_.AdoptSnapshot(snap, &searcher_->backend(),
                        static_cast<ObjectId>(sets_->size()));
  }

 private:
  /// The elements of any live id (see PointsSearcherImpl::RowAt for why
  /// the span survives the unlock).
  std::span<const uint32_t> SetAt(uint32_t id) const {
    if (id < sets_->size()) return (*sets_)[id];
    std::shared_lock<std::shared_mutex> lock(data_mu_);
    const std::vector<uint32_t>& set = appended_sets_[id - sets_->size()];
    return std::span<const uint32_t>(set.data(), set.size());
  }

  const std::vector<std::vector<uint32_t>>* sets_;
  std::shared_ptr<const lsh::SetLshFamily> family_;
  std::unique_ptr<lsh::SetLshSearcher> searcher_;
  std::mutex mu_;
  uint32_t k_;
  bool rerank_;
  MutationHost host_;
  mutable std::shared_mutex data_mu_;
  std::vector<std::vector<uint32_t>> appended_sets_;
};

// ---------------------------------------------------------------------------
// Sequences (edit distance via ordered n-grams, Section V-A)
// ---------------------------------------------------------------------------

class SequencesSearcherImpl : public Searcher {
 public:
  SequencesSearcherImpl(const std::vector<std::string>* sequences,
                        std::unique_ptr<sa::SequenceSearcher> searcher,
                        uint32_t k, delta::MutationOptions mutation_options)
      : sequences_(sequences), searcher_(std::move(searcher)), k_(k),
        host_(std::move(mutation_options)) {}

  Modality modality() const override { return Modality::kSequences; }
  uint32_t num_objects() const override {
    return host_.NumObjects(static_cast<uint32_t>(sequences_->size()));
  }

  Result<SearchResult> Search(const SearchRequest& request) override {
    GENIE_ASSIGN_OR_RETURN(std::unique_ptr<PreparedChunk> chunk,
                           PrepareChunk(request));
    return ExecutePrepared(std::move(chunk));
  }

  struct Prepared : PreparedChunk {
    sa::SequenceSearcher::PreparedBatch batch;
  };

  Result<std::unique_ptr<PreparedChunk>> PrepareChunk(
      const SearchRequest& request) override {
    auto chunk = std::make_unique<Prepared>();
    chunk->request = request;
    GENIE_ASSIGN_OR_RETURN(chunk->batch,
                           searcher_->Prepare(request.sequences));
    return std::unique_ptr<PreparedChunk>(std::move(chunk));
  }

  Result<SearchResult> ExecutePrepared(
      std::unique_ptr<PreparedChunk> chunk) override {
    auto* prepared = static_cast<Prepared*>(chunk.get());
    const SearchRequest& request = prepared->request;
    std::vector<sa::SequenceSearchOutcome> outcomes;
    BackendSnapshot before, after;
    {
      // Verification (Algorithm 2) — and any escalation rounds — happen
      // inside ExecutePrepared, so the verify-seconds bookkeeping shares
      // the critical section.
      std::lock_guard<std::mutex> lock(mu_);
      before = Snapshot(searcher_->backend(), searcher_->verify_seconds());
      GENIE_ASSIGN_OR_RETURN(
          outcomes, searcher_->ExecutePrepared(request.sequences,
                                               std::move(prepared->batch)));
      after = Snapshot(searcher_->backend(), searcher_->verify_seconds());
    }
    SearchResult result;
    result.queries.resize(outcomes.size());
    for (size_t q = 0; q < outcomes.size(); ++q) {
      QueryHits& out = result.queries[q];
      out.hits.reserve(outcomes[q].knn.size());
      for (const sa::SequenceMatch& m : outcomes[q].knn) {
        out.hits.push_back(Hit{m.id, m.match_count,
                               -static_cast<double>(m.edit_distance)});
      }
      // Hits are ordered by edit distance; MC_k comes from their counts.
      out.threshold = KthLargestCount(out.hits, k_);
      out.certified_exact = outcomes[q].certified_exact;
      out.rounds = outcomes[q].rounds;
    }
    FillProfiles(&result, before, after);
    return result;
  }

  Status SerializeBundleMeta(serialize::Writer* writer) const override {
    writer->U32(searcher_->ngram());
    GENIE_RETURN_NOT_OK(searcher_->SerializeVocabulary(writer));
    writer->U32(static_cast<uint32_t>(sequences_->size()));
    return Status::OK();
  }

  const InvertedIndex* BundleIndex() const override {
    return host_.mutated() ? searcher_->backend().index().get()
                           : &searcher_->index();
  }

  Result<std::vector<ObjectId>> Insert(const InsertRequest& request) override {
    delta::MutationController& controller = host_.Ensure(
        &searcher_->backend(), static_cast<ObjectId>(sequences_->size()));
    std::vector<ObjectId> ids;
    ids.reserve(request.sequences.size());
    for (const std::string& sequence : request.sequences) {
      // Grows the n-gram vocabulary before the controller's state lock;
      // harmless if the insert then fails (the frozen index maps unknown
      // keywords to empty lists).
      std::vector<Keyword> keywords = searcher_->ExtractKeywords(sequence);
      ids.push_back(controller.Insert(keywords, [&](ObjectId) {
        searcher_->AppendSequence(sequence);
      }));
    }
    return ids;
  }

  Status Remove(std::span<const ObjectId> ids) override {
    return host_.Remove(ids, &searcher_->backend(),
                        static_cast<ObjectId>(sequences_->size()));
  }

  Status Flush() override { return host_.Flush(); }
  MutationStats mutation_stats() const override { return host_.stats(); }
  std::shared_ptr<void> PauseMutation() override { return host_.Pause(); }
  std::string ExplainPlan() const override {
    return searcher_->backend().ExplainPlan();
  }

  uint32_t PlannedChunkSize() const override {
    const plan::ExecutionPlan plan = searcher_->backend().execution_plan();
    return plan.planned ? plan.chunk_size : 0;
  }

  uint64_t DataGeneration() const override {
    return searcher_->backend().data_generation();
  }

  Status SerializeMutationState(serialize::Writer* writer) const override {
    if (!host_.mutated()) return Status::OK();
    GENIE_RETURN_NOT_OK(host_.SerializeDeltaState(writer));
    return searcher_->SerializeAppended(writer);
  }

  void AdoptMutationState(const delta::DeltaSnapshot& snap,
                          std::vector<std::string> appended) {
    for (std::string& sequence : appended) {
      searcher_->AppendSequence(std::move(sequence));
    }
    host_.AdoptSnapshot(snap, &searcher_->backend(),
                        static_cast<ObjectId>(sequences_->size()));
  }

 private:
  const std::vector<std::string>* sequences_;
  std::unique_ptr<sa::SequenceSearcher> searcher_;
  std::mutex mu_;
  uint32_t k_;
  MutationHost host_;
};

// ---------------------------------------------------------------------------
// Documents (inner product on word sets, Section V-B)
// ---------------------------------------------------------------------------

class DocumentsSearcherImpl : public Searcher {
 public:
  DocumentsSearcherImpl(const std::vector<std::vector<uint32_t>>* documents,
                        std::unique_ptr<sa::DocumentSearcher> searcher,
                        delta::MutationOptions mutation_options)
      : documents_(documents), searcher_(std::move(searcher)),
        host_(std::move(mutation_options)) {}

  Modality modality() const override { return Modality::kDocuments; }
  uint32_t num_objects() const override {
    return host_.NumObjects(static_cast<uint32_t>(documents_->size()));
  }

  Result<SearchResult> Search(const SearchRequest& request) override {
    GENIE_ASSIGN_OR_RETURN(std::unique_ptr<PreparedChunk> chunk,
                           PrepareChunk(request));
    return ExecutePrepared(std::move(chunk));
  }

  struct Prepared : PreparedChunk {
    sa::DocumentSearcher::PreparedBatch batch;
  };

  Result<std::unique_ptr<PreparedChunk>> PrepareChunk(
      const SearchRequest& request) override {
    auto chunk = std::make_unique<Prepared>();
    chunk->request = request;
    GENIE_ASSIGN_OR_RETURN(chunk->batch,
                           searcher_->Prepare(request.documents));
    return std::unique_ptr<PreparedChunk>(std::move(chunk));
  }

  Result<SearchResult> ExecutePrepared(
      std::unique_ptr<PreparedChunk> chunk) override {
    auto* prepared = static_cast<Prepared*>(chunk.get());
    std::vector<QueryResult> raw;
    BackendSnapshot before, after;
    {
      std::lock_guard<std::mutex> lock(mu_);
      before = Snapshot(searcher_->backend());
      GENIE_ASSIGN_OR_RETURN(
          raw, searcher_->ExecutePrepared(std::move(prepared->batch)));
      after = Snapshot(searcher_->backend());
    }
    SearchResult result;
    result.queries.resize(raw.size());
    for (size_t q = 0; q < raw.size(); ++q) {
      QueryHits& out = result.queries[q];
      out.hits.reserve(raw[q].entries.size());
      for (const TopKEntry& e : raw[q].entries) {
        out.hits.push_back(Hit{e.id, e.count, static_cast<double>(e.count)});
      }
      out.threshold = raw[q].threshold;
    }
    FillProfiles(&result, before, after);
    return result;
  }

  Status SerializeBundleMeta(serialize::Writer* writer) const override {
    writer->U32(searcher_->vocab_size());
    writer->U32(static_cast<uint32_t>(documents_->size()));
    return Status::OK();
  }

  const InvertedIndex* BundleIndex() const override {
    return host_.mutated() ? searcher_->backend().index().get()
                           : &searcher_->index();
  }

  Result<std::vector<ObjectId>> Insert(const InsertRequest& request) override {
    delta::MutationController& controller = host_.Ensure(
        &searcher_->backend(), static_cast<ObjectId>(documents_->size()));
    std::vector<ObjectId> ids;
    ids.reserve(request.documents.size());
    for (const std::vector<uint32_t>& doc : request.documents) {
      // Documents need no side data: the match count is the whole answer,
      // so only the keywords (deduped tokens) are retained, in the delta.
      std::vector<Keyword> keywords = searcher_->ExtractKeywords(doc);
      ids.push_back(controller.Insert(keywords));
    }
    return ids;
  }

  Status Remove(std::span<const ObjectId> ids) override {
    return host_.Remove(ids, &searcher_->backend(),
                        static_cast<ObjectId>(documents_->size()));
  }

  Status Flush() override { return host_.Flush(); }
  MutationStats mutation_stats() const override { return host_.stats(); }
  std::shared_ptr<void> PauseMutation() override { return host_.Pause(); }

  std::string ExplainPlan() const override {
    return searcher_->backend().ExplainPlan();
  }

  uint32_t PlannedChunkSize() const override {
    const plan::ExecutionPlan plan = searcher_->backend().execution_plan();
    return plan.planned ? plan.chunk_size : 0;
  }

  uint64_t DataGeneration() const override {
    return searcher_->backend().data_generation();
  }

  Status SerializeMutationState(serialize::Writer* writer) const override {
    if (!host_.mutated()) return Status::OK();
    return host_.SerializeDeltaState(writer);
  }

  void AdoptMutationState(const delta::DeltaSnapshot& snap) {
    host_.AdoptSnapshot(snap, &searcher_->backend(),
                        static_cast<ObjectId>(documents_->size()));
  }

 private:
  const std::vector<std::vector<uint32_t>>* documents_;
  std::unique_ptr<sa::DocumentSearcher> searcher_;
  std::mutex mu_;
  MutationHost host_;
};

// ---------------------------------------------------------------------------
// Relational (top-k selection on range predicates, Section V-C)
// ---------------------------------------------------------------------------

class RelationalSearcherImpl : public Searcher {
 public:
  RelationalSearcherImpl(const sa::RelationalTable* table,
                         std::unique_ptr<sa::RelationalSearcher> searcher,
                         delta::MutationOptions mutation_options)
      : table_(table), searcher_(std::move(searcher)),
        host_(std::move(mutation_options)) {}

  Modality modality() const override { return Modality::kRelational; }
  uint32_t num_objects() const override {
    return host_.NumObjects(table_->num_rows());
  }

  Result<SearchResult> Search(const SearchRequest& request) override {
    GENIE_ASSIGN_OR_RETURN(std::unique_ptr<PreparedChunk> chunk,
                           PrepareChunk(request));
    return ExecutePrepared(std::move(chunk));
  }

  struct Prepared : PreparedChunk {
    sa::RelationalSearcher::PreparedBatch batch;
  };

  Result<std::unique_ptr<PreparedChunk>> PrepareChunk(
      const SearchRequest& request) override {
    auto chunk = std::make_unique<Prepared>();
    chunk->request = request;
    GENIE_ASSIGN_OR_RETURN(chunk->batch, searcher_->Prepare(request.ranges));
    return std::unique_ptr<PreparedChunk>(std::move(chunk));
  }

  Result<SearchResult> ExecutePrepared(
      std::unique_ptr<PreparedChunk> chunk) override {
    auto* prepared = static_cast<Prepared*>(chunk.get());
    std::vector<QueryResult> raw;
    BackendSnapshot before, after;
    {
      std::lock_guard<std::mutex> lock(mu_);
      before = Snapshot(searcher_->backend());
      GENIE_ASSIGN_OR_RETURN(
          raw, searcher_->ExecutePrepared(std::move(prepared->batch)));
      after = Snapshot(searcher_->backend());
    }
    SearchResult result;
    result.queries.resize(raw.size());
    for (size_t q = 0; q < raw.size(); ++q) {
      QueryHits& out = result.queries[q];
      out.hits.reserve(raw[q].entries.size());
      for (const TopKEntry& e : raw[q].entries) {
        out.hits.push_back(Hit{e.id, e.count, static_cast<double>(e.count)});
      }
      out.threshold = raw[q].threshold;
    }
    FillProfiles(&result, before, after);
    return result;
  }

  Status SerializeBundleMeta(serialize::Writer* writer) const override {
    writer->U32(table_->num_rows());
    const DimValueEncoder& encoder = searcher_->encoder();
    std::vector<uint32_t> cardinalities(encoder.num_dims());
    for (uint32_t d = 0; d < encoder.num_dims(); ++d) {
      cardinalities[d] = encoder.buckets(d);
    }
    writer->Vec(cardinalities);
    return Status::OK();
  }

  const InvertedIndex* BundleIndex() const override {
    return host_.mutated() ? searcher_->backend().index().get()
                           : &searcher_->index();
  }

  Result<std::vector<ObjectId>> Insert(const InsertRequest& request) override {
    const DimValueEncoder& encoder = searcher_->encoder();
    // Validate the whole batch before assigning any id, so a malformed row
    // cannot leave a partially inserted batch behind.
    for (const std::vector<uint32_t>& row : request.rows) {
      if (row.size() != encoder.num_dims()) {
        return Status::InvalidArgument(
            "inserted row does not match the table's column count");
      }
      for (uint32_t c = 0; c < row.size(); ++c) {
        if (row[c] >= encoder.buckets(c)) {
          return Status::OutOfRange(
              "inserted row value outside the column's domain");
        }
      }
    }
    delta::MutationController& controller =
        host_.Ensure(&searcher_->backend(), table_->num_rows());
    std::vector<ObjectId> ids;
    ids.reserve(request.rows.size());
    std::vector<Keyword> keywords;
    for (const std::vector<uint32_t>& row : request.rows) {
      keywords.clear();
      for (uint32_t c = 0; c < row.size(); ++c) {
        keywords.push_back(encoder.EncodeUnchecked(c, row[c]));
      }
      ids.push_back(controller.Insert(keywords));
    }
    return ids;
  }

  Status Remove(std::span<const ObjectId> ids) override {
    return host_.Remove(ids, &searcher_->backend(), table_->num_rows());
  }

  Status Flush() override { return host_.Flush(); }
  MutationStats mutation_stats() const override { return host_.stats(); }
  std::shared_ptr<void> PauseMutation() override { return host_.Pause(); }

  std::string ExplainPlan() const override {
    return searcher_->backend().ExplainPlan();
  }

  uint32_t PlannedChunkSize() const override {
    const plan::ExecutionPlan plan = searcher_->backend().execution_plan();
    return plan.planned ? plan.chunk_size : 0;
  }

  uint64_t DataGeneration() const override {
    return searcher_->backend().data_generation();
  }

  Status SerializeMutationState(serialize::Writer* writer) const override {
    if (!host_.mutated()) return Status::OK();
    return host_.SerializeDeltaState(writer);
  }

  void AdoptMutationState(const delta::DeltaSnapshot& snap) {
    host_.AdoptSnapshot(snap, &searcher_->backend(), table_->num_rows());
  }

 private:
  const sa::RelationalTable* table_;
  std::unique_ptr<sa::RelationalSearcher> searcher_;
  std::mutex mu_;
  MutationHost host_;
};

// ---------------------------------------------------------------------------
// Compiled (raw Definition-2.1 queries over a caller-built index)
// ---------------------------------------------------------------------------

class CompiledSearcherImpl : public Searcher {
 public:
  CompiledSearcherImpl(const InvertedIndex* index,
                       std::unique_ptr<EngineBackend> backend,
                       delta::MutationOptions mutation_options)
      : index_(index), backend_(std::move(backend)),
        host_(std::move(mutation_options)) {}

  /// Bundle-open mode: the searcher owns the loaded index (a bundle has no
  /// caller-held index to borrow). Two-phase: construct, then create the
  /// backend over index() — the member's address is stable from here on.
  CompiledSearcherImpl(InvertedIndex owned,
                       delta::MutationOptions mutation_options)
      : owned_index_(std::move(owned)), index_(&owned_index_),
        host_(std::move(mutation_options)) {}

  void AdoptBackend(std::unique_ptr<EngineBackend> backend) {
    backend_ = std::move(backend);
  }

  const InvertedIndex& index() const { return *index_; }

  Modality modality() const override { return Modality::kCompiled; }
  uint32_t num_objects() const override {
    return host_.NumObjects(index_->num_objects());
  }

  Result<SearchResult> Search(const SearchRequest& request) override {
    GENIE_ASSIGN_OR_RETURN(std::unique_ptr<PreparedChunk> chunk,
                           PrepareChunk(request));
    return ExecutePrepared(std::move(chunk));
  }

  struct Prepared : PreparedChunk {
    EngineBackend::StagedChunk staged;
  };

  Result<std::unique_ptr<PreparedChunk>> PrepareChunk(
      const SearchRequest& request) override {
    auto chunk = std::make_unique<Prepared>();
    chunk->request = request;
    GENIE_ASSIGN_OR_RETURN(chunk->staged,
                           backend_->Prepare(request.compiled));
    return std::unique_ptr<PreparedChunk>(std::move(chunk));
  }

  Result<SearchResult> ExecutePrepared(
      std::unique_ptr<PreparedChunk> chunk) override {
    auto* prepared = static_cast<Prepared*>(chunk.get());
    std::vector<QueryResult> raw;
    BackendSnapshot before, after;
    {
      std::lock_guard<std::mutex> lock(mu_);
      before = Snapshot(*backend_);
      GENIE_ASSIGN_OR_RETURN(raw,
                             backend_->Execute(std::move(prepared->staged)));
      after = Snapshot(*backend_);
    }
    SearchResult result;
    result.queries.resize(raw.size());
    for (size_t q = 0; q < raw.size(); ++q) {
      QueryHits& out = result.queries[q];
      out.hits.reserve(raw[q].entries.size());
      for (const TopKEntry& e : raw[q].entries) {
        out.hits.push_back(Hit{e.id, e.count, static_cast<double>(e.count)});
      }
      out.threshold = raw[q].threshold;
    }
    FillProfiles(&result, before, after);
    return result;
  }

  uint32_t DeriveChunkSize(const SearchRequest& request,
                           double memory_fraction) const override {
    const uint32_t max_count =
        backend_->options().max_count > 0
            ? backend_->options().max_count
            : MatchEngine::DeriveMaxCount(request.compiled);
    const uint64_t per_query = MatchEngine::DeviceBytesPerQuery(
        backend_->index()->num_objects(), backend_->options(), max_count);
    const EngineBackend::BatchBudget budget = backend_->batch_budget();
    return DeriveLargeBatchSize(budget.capacity_bytes, budget.allocated_bytes,
                                per_query, memory_fraction);
  }

  Status SerializeBundleMeta(serialize::Writer* writer) const override {
    (void)writer;  // the index is the whole state
    return Status::OK();
  }

  const InvertedIndex* BundleIndex() const override {
    return host_.mutated() ? backend_->index().get() : index_;
  }

  Result<std::vector<ObjectId>> Insert(const InsertRequest& request) override {
    delta::MutationController& controller =
        host_.Ensure(backend_.get(), index_->num_objects());
    std::vector<ObjectId> ids;
    ids.reserve(request.objects.size());
    for (const std::vector<Keyword>& keywords : request.objects) {
      ids.push_back(controller.Insert(keywords));
    }
    return ids;
  }

  Status Remove(std::span<const ObjectId> ids) override {
    return host_.Remove(ids, backend_.get(), index_->num_objects());
  }

  Status Flush() override { return host_.Flush(); }
  MutationStats mutation_stats() const override { return host_.stats(); }
  std::shared_ptr<void> PauseMutation() override { return host_.Pause(); }

  std::string ExplainPlan() const override { return backend_->ExplainPlan(); }

  uint32_t PlannedChunkSize() const override {
    const plan::ExecutionPlan plan = backend_->execution_plan();
    return plan.planned ? plan.chunk_size : 0;
  }

  uint64_t DataGeneration() const override {
    return backend_->data_generation();
  }

  Status SerializeMutationState(serialize::Writer* writer) const override {
    if (!host_.mutated()) return Status::OK();
    return host_.SerializeDeltaState(writer);
  }

  void AdoptMutationState(const delta::DeltaSnapshot& snap) {
    host_.AdoptSnapshot(snap, backend_.get(), index_->num_objects());
  }

 private:
  InvertedIndex owned_index_;
  const InvertedIndex* index_;
  std::unique_ptr<EngineBackend> backend_;
  std::mutex mu_;
  // Destroyed before backend_: the compaction worker joins first.
  MutationHost host_;
};

/// The runtime (non-transform) LshSearchOptions shared by create and open.
lsh::LshSearchOptions PointsRuntimeOptions(const EngineConfig& config) {
  lsh::LshSearchOptions options;
  options.transform.rehash_domain = config.rehash_domain() > 0
                                        ? config.rehash_domain()
                                        : kDefaultPointsRehashDomain;
  options.transform.seed = config.seed();
  options.engine = BaseEngineOptions(config);
  options.engine.k =
      config.exact_rerank() ? CandidatePoolSize(config) : config.k();
  options.build = BuildOptions(config);
  options.backend = BackendOptions(config);
  return options;
}

lsh::SetSearchOptions SetsRuntimeOptions(const EngineConfig& config) {
  lsh::SetSearchOptions options;
  options.transform.rehash_domain = config.rehash_domain() > 0
                                        ? config.rehash_domain()
                                        : kDefaultSetsRehashDomain;
  options.transform.seed = config.seed();
  options.engine = BaseEngineOptions(config);
  options.engine.k =
      config.exact_rerank() ? CandidatePoolSize(config) : config.k();
  options.build = BuildOptions(config);
  options.backend = BackendOptions(config);
  return options;
}

sa::SequenceSearchOptions SequencesRuntimeOptions(const EngineConfig& config) {
  sa::SequenceSearchOptions options;
  options.ngram = config.ngram();
  options.k = config.k();
  options.candidate_k = CandidatePoolSize(config);
  options.escalate_until_exact = config.escalate_until_exact();
  options.max_candidate_k =
      std::max(config.max_candidate_k(), options.candidate_k);
  options.engine = BaseEngineOptions(config);
  options.backend = BackendOptions(config);
  return options;
}

sa::DocumentSearchOptions DocumentsRuntimeOptions(const EngineConfig& config) {
  sa::DocumentSearchOptions options;
  options.k = config.k();
  options.engine = BaseEngineOptions(config);
  options.backend = BackendOptions(config);
  return options;
}

}  // namespace

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Searcher>> MakePointsSearcher(
    const EngineConfig& config) {
  const data::PointMatrix* points = config.points();
  if (points == nullptr) return Status::InvalidArgument("points is null");
  if (points->num_points() == 0) {
    return Status::InvalidArgument("points dataset is empty");
  }

  std::shared_ptr<const lsh::VectorLshFamily> family = config.vector_family();
  if (family == nullptr) {
    lsh::E2LshOptions lsh_options;
    lsh_options.dim = points->dim();
    lsh_options.num_functions = config.hash_functions() > 0
                                    ? config.hash_functions()
                                    : kDefaultHashFunctions;
    lsh_options.p = config.metric_p();
    lsh_options.seed = config.seed();
    GENIE_ASSIGN_OR_RETURN(std::unique_ptr<lsh::E2LshFamily> e2lsh,
                           lsh::E2LshFamily::Create(lsh_options));
    family = std::shared_ptr<const lsh::VectorLshFamily>(std::move(e2lsh));
  }

  lsh::LshSearchOptions options = PointsRuntimeOptions(config);
  GENIE_ASSIGN_OR_RETURN(std::unique_ptr<lsh::LshSearcher> searcher,
                         lsh::LshSearcher::Create(points, family, options));
  return std::unique_ptr<Searcher>(new PointsSearcherImpl(
      points, std::move(searcher), config.k(), config.exact_rerank(),
      config.metric_p(), MutationOptionsFrom(config)));
}

Result<std::unique_ptr<Searcher>> MakeSetsSearcher(const EngineConfig& config) {
  const std::vector<std::vector<uint32_t>>* sets = config.sets();
  if (sets == nullptr) return Status::InvalidArgument("sets is null");
  if (sets->empty()) return Status::InvalidArgument("sets dataset is empty");

  std::shared_ptr<const lsh::SetLshFamily> family = config.set_family();
  if (family == nullptr) {
    lsh::MinHashOptions minhash;
    minhash.num_functions = config.hash_functions() > 0
                                ? config.hash_functions()
                                : kDefaultHashFunctions;
    minhash.seed = config.seed();
    GENIE_ASSIGN_OR_RETURN(std::unique_ptr<lsh::MinHashFamily> min_hash,
                           lsh::MinHashFamily::Create(minhash));
    family = std::shared_ptr<const lsh::SetLshFamily>(std::move(min_hash));
  }

  lsh::SetSearchOptions options = SetsRuntimeOptions(config);
  GENIE_ASSIGN_OR_RETURN(std::unique_ptr<lsh::SetLshSearcher> searcher,
                         lsh::SetLshSearcher::Create(sets, family, options));
  return std::unique_ptr<Searcher>(
      new SetsSearcherImpl(sets, std::move(family), std::move(searcher),
                           config.k(), config.exact_rerank(),
                           MutationOptionsFrom(config)));
}

Result<std::unique_ptr<Searcher>> MakeSequencesSearcher(
    const EngineConfig& config) {
  const std::vector<std::string>* sequences = config.sequences();
  if (sequences == nullptr) {
    return Status::InvalidArgument("sequences is null");
  }
  if (sequences->empty()) {
    return Status::InvalidArgument("sequences dataset is empty");
  }

  sa::SequenceSearchOptions options = SequencesRuntimeOptions(config);
  GENIE_ASSIGN_OR_RETURN(std::unique_ptr<sa::SequenceSearcher> searcher,
                         sa::SequenceSearcher::Create(sequences, options));
  return std::unique_ptr<Searcher>(
      new SequencesSearcherImpl(sequences, std::move(searcher), config.k(),
                                MutationOptionsFrom(config)));
}

Result<std::unique_ptr<Searcher>> MakeDocumentsSearcher(
    const EngineConfig& config) {
  const std::vector<std::vector<uint32_t>>* documents = config.documents();
  if (documents == nullptr) {
    return Status::InvalidArgument("documents is null");
  }
  if (documents->empty()) {
    return Status::InvalidArgument("documents dataset is empty");
  }

  sa::DocumentSearchOptions options = DocumentsRuntimeOptions(config);
  GENIE_ASSIGN_OR_RETURN(std::unique_ptr<sa::DocumentSearcher> searcher,
                         sa::DocumentSearcher::Create(documents, options));
  return std::unique_ptr<Searcher>(new DocumentsSearcherImpl(
      documents, std::move(searcher), MutationOptionsFrom(config)));
}

Result<std::unique_ptr<Searcher>> MakeRelationalSearcher(
    const EngineConfig& config) {
  const sa::RelationalTable* table = config.table();
  if (table == nullptr) return Status::InvalidArgument("table is null");
  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<sa::RelationalSearcher> searcher,
      sa::RelationalSearcher::Create(table, config.k(),
                                     BaseEngineOptions(config),
                                     BuildOptions(config),
                                     BackendOptions(config)));
  return std::unique_ptr<Searcher>(new RelationalSearcherImpl(
      table, std::move(searcher), MutationOptionsFrom(config)));
}

Result<std::unique_ptr<Searcher>> MakeCompiledSearcher(
    const EngineConfig& config) {
  const InvertedIndex* index = config.index();
  if (index == nullptr) return Status::InvalidArgument("index is null");
  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<EngineBackend> backend,
      EngineBackend::Create(index, BaseEngineOptions(config),
                            BackendOptions(config)));
  return std::unique_ptr<Searcher>(new CompiledSearcherImpl(
      index, std::move(backend), MutationOptionsFrom(config)));
}

// ---------------------------------------------------------------------------
// Bundle-open factories
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Searcher>> OpenPointsSearcher(
    const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats) {
  const data::PointMatrix* points = config.points();
  if (points == nullptr) {
    return Status::InvalidArgument(
        "opening a points bundle requires the Points dataset binding");
  }

  uint8_t family_tag = 0;
  GENIE_RETURN_NOT_OK(meta->U8(&family_tag));
  uint32_t family_dim = 0;
  std::shared_ptr<const lsh::VectorLshFamily> family;
  if (family_tag == kVectorFamilyE2Lsh) {
    GENIE_ASSIGN_OR_RETURN(std::unique_ptr<lsh::E2LshFamily> e2lsh,
                           lsh::E2LshFamily::Deserialize(meta));
    family_dim = e2lsh->options().dim;
    family = std::shared_ptr<const lsh::VectorLshFamily>(std::move(e2lsh));
  } else if (family_tag == kVectorFamilyRandomBinning) {
    GENIE_ASSIGN_OR_RETURN(std::unique_ptr<lsh::RandomBinningFamily> binning,
                           lsh::RandomBinningFamily::Deserialize(meta));
    family_dim = binning->options().dim;
    family = std::shared_ptr<const lsh::VectorLshFamily>(std::move(binning));
  } else {
    return Status::InvalidArgument("unknown vector LSH family in bundle");
  }
  GENIE_ASSIGN_OR_RETURN(lsh::LshTransformer transformer,
                         lsh::LshTransformer::Deserialize(family, meta));
  uint32_t num_objects = 0;
  uint32_t dim = 0;
  GENIE_RETURN_NOT_OK(meta->U32(&num_objects));
  GENIE_RETURN_NOT_OK(meta->U32(&dim));
  GENIE_RETURN_NOT_OK(meta->ExpectEnd());
  // A crafted bundle (valid checksum, inconsistent fields) whose family
  // dimension disagrees with the dataset dimension would otherwise only
  // surface at query time as a fatal dimension check inside RawHash.
  if (family_dim != dim) {
    return Status::InvalidArgument(
        "bundle LSH family dimension does not match the saved dataset "
        "dimension");
  }
  if (points->num_points() != num_objects || points->dim() != dim) {
    return Status::InvalidArgument(
        "rebound points dataset does not match the saved engine");
  }

  delta::DeltaSnapshot snap;
  std::vector<std::vector<float>> appended_rows;
  uint32_t appended = 0;
  if (mutation != nullptr) {
    GENIE_ASSIGN_OR_RETURN(snap, ReadDeltaSnapshot(mutation));
    uint32_t count = 0;
    GENIE_RETURN_NOT_OK(mutation->U32(&count));
    appended_rows.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      std::vector<float> row;
      GENIE_RETURN_NOT_OK(mutation->Vec(&row));
      if (row.size() != points->dim()) {
        return Status::InvalidArgument(
            "bundle mutation row dimension does not match the dataset");
      }
      appended_rows.push_back(std::move(row));
    }
    GENIE_RETURN_NOT_OK(mutation->ExpectEnd());
    if (snap.next_id != static_cast<uint64_t>(num_objects) + count) {
      return Status::InvalidArgument(
          "bundle mutation watermark does not match its appended side data");
    }
    appended = count;
  }

  lsh::LshSearchOptions options = PointsRuntimeOptions(config);
  options.backend.index_stats = stats;
  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<lsh::LshSearcher> searcher,
      lsh::LshSearcher::Restore(points, std::move(transformer),
                                std::move(index), options, appended));
  auto impl = std::make_unique<PointsSearcherImpl>(
      points, std::move(searcher), config.k(), config.exact_rerank(),
      config.metric_p(), MutationOptionsFrom(config));
  if (mutation != nullptr) {
    impl->AdoptMutationState(snap, std::move(appended_rows));
  }
  return std::unique_ptr<Searcher>(std::move(impl));
}

Result<std::unique_ptr<Searcher>> OpenSetsSearcher(
    const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats) {
  const std::vector<std::vector<uint32_t>>* sets = config.sets();
  if (sets == nullptr) {
    return Status::InvalidArgument(
        "opening a sets bundle requires the Sets dataset binding");
  }

  uint8_t family_tag = 0;
  GENIE_RETURN_NOT_OK(meta->U8(&family_tag));
  if (family_tag != kSetFamilyMinHash) {
    return Status::InvalidArgument("unknown set LSH family in bundle");
  }
  GENIE_ASSIGN_OR_RETURN(std::unique_ptr<lsh::MinHashFamily> min_hash,
                         lsh::MinHashFamily::Deserialize(meta));
  std::shared_ptr<const lsh::SetLshFamily> family(std::move(min_hash));

  // The saved transform state overrides the config's transform knobs: the
  // reopened engine must hash exactly like the saved one.
  lsh::SetSearchOptions options = SetsRuntimeOptions(config);
  uint8_t rehash = 0;
  GENIE_RETURN_NOT_OK(meta->U32(&options.transform.rehash_domain));
  GENIE_RETURN_NOT_OK(meta->U64(&options.transform.seed));
  GENIE_RETURN_NOT_OK(meta->U8(&rehash));
  options.transform.rehash = rehash != 0;
  std::vector<uint64_t> rehash_seeds;
  GENIE_RETURN_NOT_OK(meta->Vec(&rehash_seeds));
  uint32_t num_objects = 0;
  GENIE_RETURN_NOT_OK(meta->U32(&num_objects));
  GENIE_RETURN_NOT_OK(meta->ExpectEnd());
  if (sets->size() != num_objects) {
    return Status::InvalidArgument(
        "rebound sets dataset does not match the saved engine");
  }

  delta::DeltaSnapshot snap;
  std::vector<std::vector<uint32_t>> appended_sets;
  uint32_t appended = 0;
  if (mutation != nullptr) {
    GENIE_ASSIGN_OR_RETURN(snap, ReadDeltaSnapshot(mutation));
    uint32_t count = 0;
    GENIE_RETURN_NOT_OK(mutation->U32(&count));
    appended_sets.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      std::vector<uint32_t> set;
      GENIE_RETURN_NOT_OK(mutation->Vec(&set));
      appended_sets.push_back(std::move(set));
    }
    GENIE_RETURN_NOT_OK(mutation->ExpectEnd());
    if (snap.next_id != static_cast<uint64_t>(num_objects) + count) {
      return Status::InvalidArgument(
          "bundle mutation watermark does not match its appended side data");
    }
    appended = count;
  }

  options.backend.index_stats = stats;
  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<lsh::SetLshSearcher> searcher,
      lsh::SetLshSearcher::Restore(sets, family, options,
                                   std::move(rehash_seeds),
                                   std::move(index), appended));
  auto impl = std::make_unique<SetsSearcherImpl>(
      sets, std::move(family), std::move(searcher), config.k(),
      config.exact_rerank(), MutationOptionsFrom(config));
  if (mutation != nullptr) {
    impl->AdoptMutationState(snap, std::move(appended_sets));
  }
  return std::unique_ptr<Searcher>(std::move(impl));
}

Result<std::unique_ptr<Searcher>> OpenSequencesSearcher(
    const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats) {
  const std::vector<std::string>* sequences = config.sequences();
  if (sequences == nullptr) {
    return Status::InvalidArgument(
        "opening a sequences bundle requires the Sequences dataset binding");
  }

  sa::SequenceSearchOptions options = SequencesRuntimeOptions(config);
  GENIE_RETURN_NOT_OK(meta->U32(&options.ngram));
  GENIE_ASSIGN_OR_RETURN(StringVocabulary vocab,
                         StringVocabulary::Deserialize(meta));
  uint32_t num_objects = 0;
  GENIE_RETURN_NOT_OK(meta->U32(&num_objects));
  GENIE_RETURN_NOT_OK(meta->ExpectEnd());
  if (sequences->size() != num_objects) {
    return Status::InvalidArgument(
        "rebound sequences dataset does not match the saved engine");
  }

  delta::DeltaSnapshot snap;
  std::vector<std::string> appended_sequences;
  uint32_t appended = 0;
  if (mutation != nullptr) {
    GENIE_ASSIGN_OR_RETURN(snap, ReadDeltaSnapshot(mutation));
    uint32_t count = 0;
    GENIE_RETURN_NOT_OK(mutation->U32(&count));
    appended_sequences.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      std::string sequence;
      GENIE_RETURN_NOT_OK(mutation->String(&sequence));
      appended_sequences.push_back(std::move(sequence));
    }
    GENIE_RETURN_NOT_OK(mutation->ExpectEnd());
    if (snap.next_id != static_cast<uint64_t>(num_objects) + count) {
      return Status::InvalidArgument(
          "bundle mutation watermark does not match its appended side data");
    }
    appended = count;
  }

  options.backend.index_stats = stats;
  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<sa::SequenceSearcher> searcher,
      sa::SequenceSearcher::Restore(sequences, options, std::move(vocab),
                                    std::move(index), appended));
  auto impl = std::make_unique<SequencesSearcherImpl>(
      sequences, std::move(searcher), config.k(), MutationOptionsFrom(config));
  if (mutation != nullptr) {
    impl->AdoptMutationState(snap, std::move(appended_sequences));
  }
  return std::unique_ptr<Searcher>(std::move(impl));
}

Result<std::unique_ptr<Searcher>> OpenDocumentsSearcher(
    const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats) {
  const std::vector<std::vector<uint32_t>>* documents = config.documents();
  if (documents == nullptr) {
    return Status::InvalidArgument(
        "opening a documents bundle requires the Documents dataset binding");
  }

  uint32_t vocab_size = 0;
  uint32_t num_objects = 0;
  GENIE_RETURN_NOT_OK(meta->U32(&vocab_size));
  GENIE_RETURN_NOT_OK(meta->U32(&num_objects));
  GENIE_RETURN_NOT_OK(meta->ExpectEnd());
  if (documents->size() != num_objects) {
    return Status::InvalidArgument(
        "rebound documents dataset does not match the saved engine");
  }

  delta::DeltaSnapshot snap;
  uint32_t appended = 0;
  if (mutation != nullptr) {
    GENIE_ASSIGN_OR_RETURN(snap, ReadDeltaSnapshot(mutation));
    GENIE_RETURN_NOT_OK(mutation->ExpectEnd());
    // Documents carry no side data: the watermark alone tells how many
    // objects were appended.
    if (snap.next_id < num_objects) {
      return Status::InvalidArgument(
          "bundle mutation watermark is below the saved dataset size");
    }
    appended = static_cast<uint32_t>(snap.next_id - num_objects);
  }

  sa::DocumentSearchOptions options = DocumentsRuntimeOptions(config);
  options.backend.index_stats = stats;
  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<sa::DocumentSearcher> searcher,
      sa::DocumentSearcher::Restore(documents, options, vocab_size,
                                    std::move(index), appended));
  auto impl = std::make_unique<DocumentsSearcherImpl>(
      documents, std::move(searcher), MutationOptionsFrom(config));
  if (mutation != nullptr) impl->AdoptMutationState(snap);
  return std::unique_ptr<Searcher>(std::move(impl));
}

Result<std::unique_ptr<Searcher>> OpenRelationalSearcher(
    const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats) {
  const sa::RelationalTable* table = config.table();
  if (table == nullptr) {
    return Status::InvalidArgument(
        "opening a relational bundle requires the Table dataset binding");
  }

  uint32_t num_rows = 0;
  std::vector<uint32_t> cardinalities;
  GENIE_RETURN_NOT_OK(meta->U32(&num_rows));
  GENIE_RETURN_NOT_OK(meta->Vec(&cardinalities));
  GENIE_RETURN_NOT_OK(meta->ExpectEnd());

  delta::DeltaSnapshot snap;
  uint32_t appended = 0;
  if (mutation != nullptr) {
    GENIE_ASSIGN_OR_RETURN(snap, ReadDeltaSnapshot(mutation));
    GENIE_RETURN_NOT_OK(mutation->ExpectEnd());
    // Rows carry no side data (the keywords in the delta are the row).
    if (snap.next_id < num_rows) {
      return Status::InvalidArgument(
          "bundle mutation watermark is below the saved table size");
    }
    appended = static_cast<uint32_t>(snap.next_id - num_rows);
  }

  EngineBackendOptions backend_options = BackendOptions(config);
  backend_options.index_stats = stats;
  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<sa::RelationalSearcher> searcher,
      sa::RelationalSearcher::Restore(table, config.k(), cardinalities,
                                      num_rows, std::move(index),
                                      BaseEngineOptions(config),
                                      BuildOptions(config),
                                      backend_options, appended));
  auto impl = std::make_unique<RelationalSearcherImpl>(
      table, std::move(searcher), MutationOptionsFrom(config));
  if (mutation != nullptr) impl->AdoptMutationState(snap);
  return std::unique_ptr<Searcher>(std::move(impl));
}

Result<std::unique_ptr<Searcher>> OpenCompiledSearcher(
    const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats) {
  GENIE_RETURN_NOT_OK(meta->ExpectEnd());

  delta::DeltaSnapshot snap;
  if (mutation != nullptr) {
    GENIE_ASSIGN_OR_RETURN(snap, ReadDeltaSnapshot(mutation));
    GENIE_RETURN_NOT_OK(mutation->ExpectEnd());
    if (snap.next_id < index.num_objects()) {
      return Status::InvalidArgument(
          "bundle mutation watermark is below the saved index size");
    }
  }

  auto impl = std::make_unique<CompiledSearcherImpl>(
      std::move(index), MutationOptionsFrom(config));
  EngineBackendOptions backend_options = BackendOptions(config);
  backend_options.index_stats = stats;
  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<EngineBackend> backend,
      EngineBackend::Create(&impl->index(), BaseEngineOptions(config),
                            backend_options));
  impl->AdoptBackend(std::move(backend));
  if (mutation != nullptr) impl->AdoptMutationState(snap);
  return std::unique_ptr<Searcher>(std::move(impl));
}

}  // namespace genie
