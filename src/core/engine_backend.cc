#include "core/engine_backend.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

namespace genie {

EngineBackend::EngineBackend(const InvertedIndex* index,
                             const MatchEngineOptions& options,
                             const EngineBackendOptions& backend_options)
    // Caller-owned: a non-owning handle, so generations stay uniformly
    // shared_ptr-held.
    : index_(index, [](const InvertedIndex*) {}),
      options_(options),
      backend_options_(backend_options),
      base_selector_(options.selector) {}

sim::Device* EngineBackend::device() const {
  return options_.device != nullptr ? options_.device : sim::Device::Default();
}

uint32_t EngineBackend::EstimateParts() const {
  const double budget =
      static_cast<double>(device()->memory_capacity_bytes()) *
      std::clamp(backend_options_.part_capacity_fraction, 0.05, 1.0);
  const double bytes = static_cast<double>(index_->postings_bytes());
  const uint32_t parts =
      budget > 0 ? static_cast<uint32_t>(std::ceil(bytes / budget)) : 2;
  return std::clamp(parts, 2u, backend_options_.max_parts);
}

namespace {

void AccumulateRemoteProfile(RemoteProfile* into, const RemoteProfile& from) {
  into->batches += from.batches;
  into->scatter_s += from.scatter_s;
  into->merge_s += from.merge_s;
  for (const RemoteWorkerStats& worker : from.workers) {
    RemoteWorkerStats* slot = nullptr;
    for (RemoteWorkerStats& existing : into->workers) {
      if (existing.address == worker.address) {
        slot = &existing;
        break;
      }
    }
    if (slot == nullptr) {
      into->workers.push_back(RemoteWorkerStats{});
      slot = &into->workers.back();
      slot->address = worker.address;
    }
    slot->calls += worker.calls;
    slot->wins += worker.wins;
    slot->failures += worker.failures;
    slot->hedged += worker.hedged;
    slot->request_bytes += worker.request_bytes;
    slot->response_bytes += worker.response_bytes;
    slot->call_s += worker.call_s;
    slot->worker_match_s += worker.worker_match_s;
    slot->worker_select_s += worker.worker_select_s;
    slot->worker_execute_s += worker.worker_execute_s;
  }
}

std::vector<IndexPart> PartsOf(const ShardedIndex& sharded) {
  std::vector<IndexPart> parts;
  parts.reserve(sharded.shards.size());
  for (size_t p = 0; p < sharded.shards.size(); ++p) {
    parts.push_back(IndexPart{&sharded.shards[p], sharded.offsets[p]});
  }
  return parts;
}

/// Capacity / allocation of the least-free device of `set`: every device
/// must hold its residency share beside the batch working memory.
EngineBackend::BatchBudget TightestDevice(const sim::DeviceSet& set) {
  EngineBackend::BatchBudget tightest;
  uint64_t min_free = std::numeric_limits<uint64_t>::max();
  for (size_t d = 0; d < set.size(); ++d) {
    const sim::Device* dev = set.device(d);
    const uint64_t capacity = dev->memory_capacity_bytes();
    const uint64_t allocated = dev->allocated_bytes();
    const uint64_t free_bytes = capacity > allocated ? capacity - allocated : 0;
    if (free_bytes < min_free) {
      min_free = free_bytes;
      tightest = EngineBackend::BatchBudget{capacity, allocated};
    }
  }
  return tightest;
}

}  // namespace

void EngineBackend::RetireEngines() {
  if (remote_ != nullptr) {
    AccumulateRemoteProfile(&carried_remote_, remote_->profile());
    remote_.reset();
    remote_index_ = nullptr;
  }
  if (single_ != nullptr) {
    carried_profile_.Accumulate(single_->profile());
    single_.reset();
  }
  if (partitioned_ != nullptr) {
    const PartitionedProfile p = partitioned_->profile();
    carried_profile_.Accumulate(p.Combined());
    carried_merge_s_ += p.merge_s;
    partitioned_.reset();
  }
}

Result<ShardedIndex> EngineBackend::ShardLocked(
    uint32_t parts, std::span<const ObjectId> boundaries) {
  if (!boundaries.empty()) {
    return ShardByBoundaries(*index_, boundaries,
                             backend_options_.shard_build);
  }
  RefreshStatsLocked();
  return ShardByBoundaries(*index_, plan::BalancedBoundaries(stats_, parts),
                           backend_options_.shard_build);
}

Status EngineBackend::SetUpPartitioned(plan::ExecutionPlan::Tier tier,
                                       uint32_t parts,
                                       std::span<const ObjectId> boundaries,
                                       std::span<const uint32_t> placement) {
  const bool resident = tier == plan::ExecutionPlan::Tier::kMultiDevice;
  if (!resident && parts > backend_options_.max_parts) {
    return Status::ResourceExhausted(
        "index does not fit in device memory even at max_parts");
  }
  if (resident && devices_ == nullptr) {
    if (backend_options_.device_set != nullptr) {
      devices_ = backend_options_.device_set;
    } else {
      // Clone the base device's configuration onto N fresh devices, each
      // with its own worker pool and memory accounting.
      sim::DeviceSet::Options set_options;
      set_options.num_devices = backend_options_.num_devices;
      set_options.device = device()->options();
      GENIE_ASSIGN_OR_RETURN(owned_devices_,
                             sim::DeviceSet::Create(set_options));
      devices_ = owned_devices_.get();
    }
  }
  // Build the replacement fully before touching the live engine, so an
  // error here leaves the backend in its previous (still valid) state.
  // The sharded index is shared: an in-flight staged chunk (or a Prepare
  // racing this escalation) keeps the previous generation alive until it
  // drains.
  GENIE_ASSIGN_OR_RETURN(ShardedIndex sharded, ShardLocked(parts, boundaries));
  auto shared = std::make_shared<ShardedIndex>(std::move(sharded));
  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<PartitionedEngine> engine,
      PartitionedEngine::Create(PartsOf(*shared), options_,
                                resident ? devices_ : nullptr, placement));

  // Commit: fold the retiring engine's stage costs into the carried
  // profile, then swap. An owned device registry is kept until the backend
  // dies: staged chunks prepared against a retired resident tier may still
  // hold buffers on its devices.
  RetireEngines();
  sharded_ = std::move(shared);
  partitioned_ = std::move(engine);
  ++generation_;
  // Record the layout that actually went live (an escalation diverges from
  // the plan; SetUpTierLocked overwrites this with the planned version).
  plan_.planned = false;
  plan_.tier = tier;
  plan_.selector = options_.selector;
  plan_.num_parts = static_cast<uint32_t>(sharded_->shards.size());
  plan_.part_boundaries.assign(sharded_->offsets.begin(),
                               sharded_->offsets.end());
  plan_.part_boundaries.push_back(index_->num_objects());
  plan_.device_of_part.assign(placement.begin(), placement.end());
  return Status::OK();
}

Result<std::unique_ptr<EngineBackend>> EngineBackend::Create(
    const InvertedIndex* index, const MatchEngineOptions& options,
    const EngineBackendOptions& backend_options) {
  if (index == nullptr) return Status::InvalidArgument("index is null");
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (backend_options.num_devices == 0) {
    return Status::InvalidArgument("num_devices must be >= 1");
  }
  if (backend_options.remote.enabled() &&
      (backend_options.num_devices > 1 ||
       backend_options.device_set != nullptr)) {
    return Status::InvalidArgument(
        "remote endpoints and a multi-device configuration are mutually "
        "exclusive: pick one parallelism axis");
  }
  const uint32_t num_devices =
      backend_options.device_set != nullptr
          ? static_cast<uint32_t>(backend_options.device_set->size())
          : backend_options.num_devices;
  MatchEngineOptions effective_options = options;
  if (backend_options.device_set != nullptr && num_devices == 1) {
    // A one-device set still names the hardware to run on: bind the
    // classic single-device tiers to it instead of silently using
    // options.device / the process default.
    effective_options.device = backend_options.device_set->device(0);
  }
  std::unique_ptr<EngineBackend> backend(
      new EngineBackend(index, effective_options, backend_options));
  backend->backend_options_.num_devices = num_devices;
  backend->base_k_ = effective_options.k;

  if (backend_options.index_stats != nullptr &&
      backend_options.index_stats->MatchesIndex(*index)) {
    // Persisted stats (a bundle's stats section): adopt them and skip the
    // stats pass entirely. The pointer is borrowed only for this copy.
    backend->stats_ = *backend_options.index_stats;
    backend->stats_persisted_ = true;
  }
  backend->backend_options_.index_stats = nullptr;

  std::lock_guard<std::mutex> lock(backend->mu_);
  GENIE_RETURN_NOT_OK(backend->SetUpTierLocked());
  return backend;
}

void EngineBackend::RefreshStatsLocked() {
  if (stats_.MatchesIndex(*index_)) return;
  stats_ = plan::ComputeIndexStats(*index_);
  stats_persisted_ = false;
}

plan::PlannerInputs EngineBackend::PlannerInputsLocked() const {
  plan::PlannerInputs inputs;
  const sim::Device* base = device();
  inputs.capacity_bytes = base->memory_capacity_bytes();
  inputs.allocated_bytes = base->allocated_bytes();
  if (backend_options_.num_devices > 1) {
    const sim::DeviceSet* set =
        devices_ != nullptr ? devices_ : backend_options_.device_set;
    if (set != nullptr) {
      const BatchBudget tightest = TightestDevice(*set);
      inputs.capacity_bytes = tightest.capacity_bytes;
      inputs.allocated_bytes = tightest.allocated_bytes;
    } else {
      // The backend will clone the base device's configuration onto fresh
      // devices, so each starts with its full capacity free.
      inputs.allocated_bytes = 0;
    }
  }
  inputs.bytes_per_query = MatchEngine::DeviceBytesPerQuery(
      index_->num_objects(), options_,
      options_.max_count > 0 ? options_.max_count : 16);
  inputs.selector = base_selector_;
  inputs.num_devices = backend_options_.num_devices;
  inputs.num_remote_workers =
      static_cast<uint32_t>(backend_options_.remote.endpoints.size());
  inputs.force_parts = backend_options_.force_parts;
  inputs.max_parts = backend_options_.max_parts;
  inputs.allow_multi_load = backend_options_.allow_multi_load;
  inputs.part_capacity_fraction = backend_options_.part_capacity_fraction;
  return inputs;
}

Status EngineBackend::ApplyPlanLocked(const plan::ExecutionPlan& p) {
  // The plan owns the select stage: every engine the tier builds below
  // reads options_, so the promotion (or a revert on re-plan) takes effect
  // on all tiers uniformly.
  options_.selector = p.selector;
  switch (p.tier) {
    case plan::ExecutionPlan::Tier::kSingleDevice: {
      GENIE_ASSIGN_OR_RETURN(std::unique_ptr<MatchEngine> single,
                             MatchEngine::Create(index_, options_));
      RetireEngines();
      single_ = std::move(single);
      ++generation_;
      return Status::OK();
    }
    case plan::ExecutionPlan::Tier::kMultiDevice:
    case plan::ExecutionPlan::Tier::kMultiLoad:
      return SetUpPartitioned(p.tier, p.num_parts, p.part_boundaries,
                              p.device_of_part);
    case plan::ExecutionPlan::Tier::kRemote:
      return SetUpRemote();
  }
  return Status::InvalidArgument("unknown plan tier");
}

Status EngineBackend::SetUpRemote() {
  const net::RemoteOptions& remote = backend_options_.remote;
  if (remote_ != nullptr && remote_index_ == index_.get()) {
    // Same index, new options (k growth, selector promotion): the workers
    // rebuild their engines lazily from the wire options — no re-push.
    remote_->UpdateOptions(options_);
    return Status::OK();
  }
  const uint32_t workers =
      static_cast<uint32_t>(remote.endpoints.size());
  const uint32_t parts =
      std::min(workers, std::max(1u, index_->num_objects()));
  if (parts < workers) {
    return Status::InvalidArgument(
        "remote engine: more endpoints than objects to shard");
  }
  GENIE_ASSIGN_OR_RETURN(ShardedIndex sharded, ShardLocked(parts, {}));
  // Workers deserialize and own their shard, so the sharded copy here is
  // free to die with this scope.
  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<RemoteEngine> engine,
      RemoteEngine::Create(PartsOf(sharded), options_, remote));
  RetireEngines();
  remote_ = std::move(engine);
  remote_index_ = index_.get();
  ++generation_;
  plan_.planned = true;
  plan_.tier = plan::ExecutionPlan::Tier::kRemote;
  plan_.selector = options_.selector;
  plan_.num_parts = parts;
  plan_.part_boundaries.assign(sharded.offsets.begin(),
                               sharded.offsets.end());
  plan_.part_boundaries.push_back(index_->num_objects());
  plan_.device_of_part.clear();
  return Status::OK();
}

Status EngineBackend::SetUpTierLocked() {
  if (backend_options_.remote.enabled()) return SetUpRemote();
  RefreshStatsLocked();
  const plan::QueryPlanner planner(stats_);
  Status status;
  for (int attempt = 0; attempt < 3; ++attempt) {
    plan::ExecutionPlan candidate =
        planner.Plan(PlannerInputsLocked(), cost_model_);
    status = ApplyPlanLocked(candidate);
    if (status.ok()) {
      plan_ = std::move(candidate);
      return status;
    }
    if (status.code() != StatusCode::kResourceExhausted) return status;
    // The plan was optimistic: record the miss (shrinking the residency
    // margin) and re-plan against the tightened model.
    cost_model_.RecordEscalation();
  }
  // Three tightened plans in a row still missed: take the ladder's first
  // rung, exactly as a batch-time miss would.
  return EscalateLocked(status);
}

Status EngineBackend::EscalateLocked(const Status& status) {
  if (status.code() != StatusCode::kResourceExhausted ||
      !backend_options_.allow_multi_load || remote_ != nullptr) {
    return status;
  }
  if (MatchEngine::IsCpqOverflow(status)) {
    // Re-plan: with the overflow recorded the planner promotes the batch to
    // kBucketSelect, whose select stage cannot overflow — which is also
    // what ends the caller's retry loop.
    cost_model_.RecordCpqOverflow();
    GENIE_RETURN_NOT_OK(SetUpTierLocked());
    return options_.selector == MatchEngineOptions::Selector::kCpq
               ? status
               : Status::OK();
  }
  // Working memory (or the index) did not fit: retire the live engine —
  // freeing its device-resident index — and time-multiplex the base
  // device, finer each time a multi-load still misses.
  cost_model_.RecordEscalation();
  if (partitioned_ == nullptr || !partitioned_->swapped()) {
    return SetUpPartitioned(plan::ExecutionPlan::Tier::kMultiLoad,
                            EstimateParts());
  }
  const uint32_t parts = NumPartsLocked();
  if (parts >= backend_options_.max_parts || parts >= index_->num_objects()) {
    return status;
  }
  return SetUpPartitioned(plan::ExecutionPlan::Tier::kMultiLoad,
                          std::min(parts * 2, backend_options_.max_parts));
}

void EngineBackend::AttachDeltaStore(const delta::DeltaStore* store) {
  std::lock_guard<std::mutex> lock(mu_);
  delta_store_ = store;
}

const delta::DeltaStore* EngineBackend::delta_store() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delta_store_;
}

Status EngineBackend::SwapIndex(std::shared_ptr<const InvertedIndex> index,
                                plan::IndexStats stats,
                                const std::function<void()>& on_committed) {
  if (index == nullptr) return Status::InvalidArgument("index is null");
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const InvertedIndex> old_index = std::move(index_);
  plan::IndexStats old_stats = std::move(stats_);
  const bool old_persisted = stats_persisted_;
  index_ = std::move(index);
  // Adopt the caller's stats so the rebuild below skips the stats pass
  // (RefreshStatsLocked recomputes only on a mismatch).
  stats_ = std::move(stats);
  stats_persisted_ = false;
  const Status status = SetUpTierLocked();
  if (!status.ok()) {
    index_ = std::move(old_index);
    stats_ = std::move(old_stats);
    stats_persisted_ = old_persisted;
    return status;
  }
  if (on_committed) on_committed();
  // The swapped-in index may answer differently (compaction folded delta
  // segments in); invalidate every serving-layer cached result.
  BumpDataGeneration();
  return Status::OK();
}

void EngineBackend::ApplyDeltaOverlay(const delta::DeltaSnapshot& snap,
                                      std::span<const Query> queries,
                                      uint32_t k,
                                      std::vector<QueryResult>* results) {
  const auto overlay_start = std::chrono::steady_clock::now();
  // Only each query's k best delta objects can reach its merged top-k.
  std::vector<std::vector<TopKEntry>> pools =
      delta::DeltaStore::Match(snap, queries, k);
  pools.resize(results->size());
  for (size_t q = 0; q < results->size(); ++q) {
    const std::vector<TopKEntry>& entries = (*results)[q].entries;
    pools[q].insert(pools[q].end(), entries.begin(), entries.end());
  }
  *results = MergeCandidatePools(std::move(pools), k);
  const double overlay_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    overlay_start)
          .count();
  std::lock_guard<std::mutex> lock(mu_);
  carried_merge_s_ += overlay_s;
}

template <typename ExecuteFn>
Result<std::vector<QueryResult>> EngineBackend::ExecuteWithDelta(
    std::span<const Query> queries, uint32_t k, ExecuteFn&& execute) {
  Result<std::vector<QueryResult>> results = std::vector<QueryResult>{};
  delta::DeltaSnapshot snap;
  bool cut_to_k = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Captured under the same mu_ hold as the execution: the snapshot is
    // consistent with the executed index (a compaction swap + prune is
    // one atomic step under this mutex), so its tombstones are exactly the
    // ids the executed index still holds but must not return.
    if (delta_store_ != nullptr) snap = delta_store_->snapshot();
    std::span<const ObjectId> excluded;
    if (snap.tombstones != nullptr) excluded = *snap.tombstones;
    const ProfileSnapshot before = SnapshotLocked();
    results = execute(excluded);
    if (!results.ok()) return results;
    ObserveExecutionLocked(before, queries);
    cut_to_k = options_.k != k;
  }
  if (!snap.segments.empty() || cut_to_k) {
    ApplyDeltaOverlay(snap, queries, k, &results.ValueOrDie());
  }
  return results;
}

Result<std::vector<QueryResult>> EngineBackend::ExecuteBatch(
    std::span<const Query> queries) {
  return ExecuteWithDelta(queries, base_k_,
                          [&](std::span<const ObjectId> excluded) {
                            return ExecuteBatchLocked(queries, excluded);
                          });
}

Result<std::vector<QueryResult>> EngineBackend::ExecuteBatchAtK(
    std::span<const Query> queries, uint32_t k) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  return ExecuteWithDelta(
      queries, k,
      [&](std::span<const ObjectId> excluded)
          -> Result<std::vector<QueryResult>> {
        if (k > options_.k) {
          const uint32_t previous_k = options_.k;
          options_.k = k;
          const Status status = SetUpTierLocked();
          if (!status.ok()) {
            options_.k = previous_k;
            return status;
          }
        }
        return ExecuteBatchLocked(queries, excluded);
      });
}

Result<std::vector<QueryResult>> EngineBackend::ExecuteBatchLocked(
    std::span<const Query> queries, std::span<const ObjectId> excluded) {
  while (true) {
    auto results = remote_ != nullptr
                       ? remote_->ExecuteBatch(queries, excluded)
                   : single_ != nullptr
                       ? single_->ExecuteBatch(queries, excluded)
                       : partitioned_->ExecuteBatch(queries, excluded);
    if (results.ok()) return results;
    GENIE_RETURN_NOT_OK(EscalateLocked(results.status()));
  }
}

Result<EngineBackend::StagedChunk> EngineBackend::Prepare(
    std::span<const Query> queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("empty query batch");
  }
  StagedChunk chunk;
  chunk.queries_ = queries;
  // `shards` is declared first so it is released last: the engine copies
  // below read it.
  std::shared_ptr<const ShardedIndex> shards;
  std::shared_ptr<MatchEngine> single;
  std::shared_ptr<PartitionedEngine> partitioned;
  {
    // Snapshot the live tier; the staging work below runs outside the lock
    // so it can overlap a chunk executing on the device. The local shared
    // references keep the snapshotted engine (and the sharded index it
    // reads) alive through the staging calls even if a concurrent
    // execution escalates tiers mid-staging; they are dropped when Prepare
    // returns — the finished chunk holds only device buffers, so it never
    // pins a retired engine's device memory. Execute detects a tier switch
    // via the generation and discards the staged work.
    std::lock_guard<std::mutex> lock(mu_);
    chunk.generation_ = generation_;
    shards = sharded_;
    single = single_;
    partitioned = partitioned_;
  }
  // ResourceExhausted: no room to double-buffer the task lists beside the
  // in-flight chunk; the chunk executes unpipelined (which can still
  // escalate tiers if even single-buffered execution does not fit). A
  // swapped partitioned tier stages host-side only and never misses.
  if (single != nullptr) {
    auto staged = single->Prepare(queries);
    if (staged.ok()) {
      chunk.tier_ = StagedChunk::Tier::kSingle;
      chunk.single_staged_ = std::move(staged).ValueOrDie();
    } else if (staged.status().code() != StatusCode::kResourceExhausted) {
      return staged.status();
    }
  } else if (partitioned != nullptr) {
    auto staged = partitioned->Prepare(queries);
    if (staged.ok()) {
      chunk.tier_ = StagedChunk::Tier::kPartitioned;
      chunk.partitioned_staged_ = std::move(staged).ValueOrDie();
    } else if (staged.status().code() != StatusCode::kResourceExhausted) {
      return staged.status();
    }
  }
  return chunk;
}

Result<std::vector<QueryResult>> EngineBackend::Execute(StagedChunk chunk) {
  const std::span<const Query> queries = chunk.queries_;
  return ExecuteWithDelta(queries, base_k_,
                          [&](std::span<const ObjectId> excluded) {
                            return ExecuteStagedLocked(std::move(chunk),
                                                       excluded);
                          });
}

Result<std::vector<QueryResult>> EngineBackend::ExecuteStagedLocked(
    StagedChunk chunk, std::span<const ObjectId> excluded) {
  const std::span<const Query> queries = chunk.queries_;
  if (!chunk.staged() || chunk.generation_ != generation_) {
    // Unstaged chunk, or the backend escalated between Prepare and Execute:
    // drop any stale staged state, then run the plain path.
    chunk = StagedChunk{};
    return ExecuteBatchLocked(queries, excluded);
  }
  auto results =
      chunk.tier_ == StagedChunk::Tier::kSingle
          ? single_->ExecuteStaged(std::move(chunk.single_staged_), excluded)
          : partitioned_->ExecuteStaged(std::move(chunk.partitioned_staged_),
                                        excluded);
  if (results.ok()) return results;
  // The staged buffers were already released by ExecuteStaged, and chunks
  // hold no engine references, so the retire inside the escalation
  // genuinely frees the device-resident index before the next rung needs
  // the memory — even with a successor chunk staged ahead. The escalated
  // tier invalidates the staged work; the plain path re-resolves.
  GENIE_RETURN_NOT_OK(EscalateLocked(results.status()));
  return ExecuteBatchLocked(queries, excluded);
}

uint64_t EngineBackend::ScannedPostingsLocked(
    std::span<const Query> queries) const {
  uint64_t scanned = 0;
  for (const Query& query : queries) {
    for (uint32_t i = 0; i < query.num_items(); ++i) {
      for (const Keyword kw : query.item(i)) {
        scanned += index_->KeywordFrequency(kw);
      }
    }
  }
  return scanned;
}

void EngineBackend::ObserveExecutionLocked(const ProfileSnapshot& before,
                                           std::span<const Query> queries) {
  if (queries.empty()) return;
  const ProfileSnapshot after = SnapshotLocked();
  MatchProfile delta = after.match;
  delta.Subtract(before.match);
  cost_model_.ObserveExecution(delta, ScannedPostingsLocked(queries),
                               static_cast<uint32_t>(queries.size()),
                               options_.selector);
  const double merge_delta = after.merge_s - before.merge_s;
  if (merge_delta > 0) {
    cost_model_.ObserveMerge(merge_delta,
                             static_cast<uint32_t>(queries.size()),
                             after.parts);
  }
}

uint32_t EngineBackend::NumPartsLocked() const {
  if (remote_ != nullptr) return remote_->num_shards();
  if (partitioned_ != nullptr) {
    return static_cast<uint32_t>(partitioned_->num_parts());
  }
  return 1;
}

EngineBackend::ProfileSnapshot EngineBackend::SnapshotLocked() const {
  ProfileSnapshot snapshot;
  snapshot.match = carried_profile_;
  snapshot.merge_s = carried_merge_s_;
  if (single_ != nullptr) {
    snapshot.match.Accumulate(single_->profile());
  } else if (partitioned_ != nullptr) {
    PartitionedProfile p = partitioned_->profile();
    snapshot.match.Accumulate(p.Combined());
    snapshot.merge_s += p.merge_s;
    if (partitioned_->swapped()) {
      snapshot.multi_load = true;
    } else {
      snapshot.devices = std::move(p.per_device);
      snapshot.num_devices =
          static_cast<uint32_t>(partitioned_->num_devices());
    }
  } else if (remote_ != nullptr) {
    snapshot.remote = true;
    snapshot.remote_profile = carried_remote_;
    AccumulateRemoteProfile(&snapshot.remote_profile, remote_->profile());
    // Fold the workers' reported stage seconds into the aggregated match
    // profile so existing profile consumers (cost model, SearchProfile)
    // see the real match/select work, wherever it ran.
    MatchProfile remote_match;
    for (const RemoteWorkerStats& worker : snapshot.remote_profile.workers) {
      remote_match.match_s += worker.worker_match_s;
      remote_match.select_s += worker.worker_select_s;
      remote_match.query_bytes += worker.request_bytes;
      remote_match.result_bytes += worker.response_bytes;
    }
    snapshot.match.Accumulate(remote_match);
    snapshot.merge_s += snapshot.remote_profile.merge_s;
  }
  snapshot.parts = NumPartsLocked();
  snapshot.plan = plan_;
  return snapshot;
}

EngineBackend::ProfileSnapshot EngineBackend::profile_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotLocked();
}

bool EngineBackend::multi_load() const {
  std::lock_guard<std::mutex> lock(mu_);
  return partitioned_ != nullptr && partitioned_->swapped();
}

uint32_t EngineBackend::num_parts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return NumPartsLocked();
}

uint32_t EngineBackend::num_devices() const {
  std::lock_guard<std::mutex> lock(mu_);
  return partitioned_ != nullptr
             ? static_cast<uint32_t>(partitioned_->num_devices())
             : 1;
}

EngineBackend::BatchBudget EngineBackend::batch_budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (partitioned_ != nullptr && !partitioned_->swapped()) {
    return TightestDevice(*devices_);
  }
  return BatchBudget{device()->memory_capacity_bytes(),
                     device()->allocated_bytes()};
}

MatchProfile EngineBackend::profile() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotLocked().match;
}

double EngineBackend::merge_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotLocked().merge_s;
}

std::vector<MatchProfile> EngineBackend::device_profiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotLocked().devices;
}

plan::ExecutionPlan EngineBackend::execution_plan() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_;
}

plan::IndexStats EngineBackend::index_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string EngineBackend::ExplainPlan() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "planner: on";
  out += stats_persisted_ ? " (stats: persisted)" : " (stats: computed)";
  out += "\nplan: ";
  out += plan_.DebugString();
  out += "\nlive: tier=";
  if (single_ != nullptr) {
    out += "single-device";
  } else if (partitioned_ != nullptr && !partitioned_->swapped()) {
    out += "multi-device devices=" +
           std::to_string(partitioned_->num_devices());
  } else if (partitioned_ != nullptr) {
    out += "multi-load";
  } else if (remote_ != nullptr) {
    out += "remote workers=" + std::to_string(remote_->num_shards());
  } else {
    out += "none";
  }
  out += " parts=" + std::to_string(NumPartsLocked());
  out += " k=" + std::to_string(options_.k);
  out += " selector=";
  out += plan::SelectorToString(options_.selector);
  out += "\nstats: ";
  out += stats_.DebugString();
  out += "\ncost-model: ";
  out += cost_model_.DebugString();
  return out;
}

}  // namespace genie
