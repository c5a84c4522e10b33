#pragma once

/// \file engine_backend.h
/// Backend selection for match-count execution: the query planner picks the
/// tier — a single-load MatchEngine when the index fits in device memory, a
/// PartitionedEngine with parts resident across the N devices of a
/// sim::DeviceSet when space multiplexing is requested (num_devices > 1) or
/// swapped through the base device (multiple loading, Section III-D) when
/// the index does not fit resident, or the RemoteEngine scatter-gather —
/// and one escalation ladder absorbs the misses of an optimistic plan.
/// Callers no longer hand-roll the ResourceExhausted -> shard ->
/// multiple-loading dance; every domain searcher and the genie::Engine
/// facade route through this class.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/match_engine.h"
#include "core/partitioned_engine.h"
#include "core/remote_engine.h"
#include "index/delta/delta_store.h"
#include "index/shard.h"
#include "plan/cost_model.h"
#include "plan/index_stats.h"
#include "plan/query_planner.h"
#include "sim/device_set.h"

namespace genie {

struct EngineBackendOptions {
  /// When false, every ResourceExhausted (memory or c-PQ overflow) is
  /// returned to the caller instead of climbing the escalation ladder.
  bool allow_multi_load = true;
  /// Upper bound on fallback parts; escalation past it fails.
  uint32_t max_parts = 256;
  /// Force multiple loading with exactly this many parts (0 = automatic:
  /// single load first, fallback only on ResourceExhausted). Used by the
  /// Table II/III bench to sweep part counts. With num_devices > 1 it
  /// instead sets the part count sharded round-robin across the devices.
  uint32_t force_parts = 0;
  /// Fraction of device capacity one part's List Array may occupy in the
  /// initial fallback estimate (the rest is working memory for c-PQ /
  /// Count Table arenas).
  double part_capacity_fraction = 0.5;
  /// Build options applied when re-sharding for multiple loading, so the
  /// fallback path keeps the caller's load-balance splitting (Fig. 4).
  IndexBuildOptions shard_build;

  /// Devices to shard across (space multiplexing). 1 = the classic
  /// single-device tiers. When > 1 the index is sharded into
  /// max(num_devices, force_parts) volume-balanced parts placed across the
  /// devices, all parts resident; batches execute on every device in
  /// parallel. If the parts do not fit resident, the backend falls back to
  /// sequential multiple loading on the base device (when allowed).
  uint32_t num_devices = 1;
  /// Externally owned device registry for the multi-device tier; nullptr =
  /// the backend creates its own set of `num_devices` devices, each
  /// configured like the base device (options.device or the process
  /// default). When set, its size overrides num_devices; a one-device set
  /// runs the classic single-device tiers on its device(0).
  sim::DeviceSet* device_set = nullptr;

  /// Precomputed stats of the creation-time index (e.g. persisted in a
  /// bundle), so Create skips the stats pass. Borrowed only during Create
  /// (the backend copies them); ignored — and recomputed — when they do
  /// not match the index.
  const plan::IndexStats* index_stats = nullptr;

  /// The multi-node tier: when endpoints are configured the backend shards
  /// the index across them (postings-volume-balanced cut) and executes
  /// every batch through a RemoteEngine scatter-gather instead of the
  /// local tiers. Mutually exclusive with num_devices > 1 /
  /// device_set (one machine-parallelism axis at a time).
  net::RemoteOptions remote;
};

/// A MatchEngine-shaped executor that owns the backend decision. Exposes an
/// aggregated MatchProfile so existing profile consumers work unchanged on
/// all paths. Thread-safe: ExecuteBatch serializes batches (and any tier
/// escalation) under a per-backend mutex, and the profile accessors take
/// the same mutex. Each individual accessor is race-free; a consistent
/// multi-field snapshot while other threads may be executing must go
/// through profile_snapshot(), which reads everything under one lock
/// acquisition (separate accessor calls can interleave with a completing
/// batch).
class EngineBackend {
 public:
  /// All profile state and backend facts, captured atomically.
  struct ProfileSnapshot {
    MatchProfile match;
    /// Per-device stage costs of the multi-device tier (empty otherwise).
    std::vector<MatchProfile> devices;
    double merge_s = 0;
    bool multi_load = false;
    uint32_t parts = 1;
    uint32_t num_devices = 1;
    /// The execution plan the live tier runs under (plan.planned == false
    /// when an escalation set the tier up).
    plan::ExecutionPlan plan;
    /// Multi-node tier only: per-worker transport/stage accounting.
    bool remote = false;
    RemoteProfile remote_profile;
  };

  /// `index` must outlive the backend (it stays caller-owned; indexes a
  /// SwapIndex installs are shared-owned instead).
  static Result<std::unique_ptr<EngineBackend>> Create(
      const InvertedIndex* index, const MatchEngineOptions& options,
      const EngineBackendOptions& backend_options = {});

  /// Executes one batch, climbing the escalation ladder on
  /// ResourceExhausted. Equivalent to Execute(Prepare(queries)).
  Result<std::vector<QueryResult>> ExecuteBatch(std::span<const Query> queries);

  /// Executes one batch answering the top `k` per query instead of the
  /// configured k (the sequence searcher's growing-k escalation retries).
  /// Runs on the live — possibly compacted — index with the delta overlay
  /// applied, exactly like ExecuteBatch; when k exceeds the currently
  /// executed k the tier is rebuilt at the larger k and stays there
  /// (ExecuteBatch keeps truncating to its own k via the overlay, so
  /// results are unaffected).
  Result<std::vector<QueryResult>> ExecuteBatchAtK(
      std::span<const Query> queries, uint32_t k);

  /// One chunk of the streaming pipeline, prepared ahead of execution: the
  /// queries resolved into task lists and staged onto every device the live
  /// tier will execute on (host-side only on the multi-load tier, whose
  /// device can hold just one part at a time). Holds device staging memory;
  /// destroying an unexecuted chunk (cancellation) releases it. Must not
  /// outlive the backend, and the query span must stay alive until Execute
  /// returns.
  class StagedChunk {
   public:
    StagedChunk() = default;
    StagedChunk(StagedChunk&&) = default;
    StagedChunk& operator=(StagedChunk&&) = default;

    /// True when device/host staging actually happened (false = Execute
    /// will run the plain unpipelined path, e.g. because staging memory
    /// did not fit beside the in-flight chunk).
    bool staged() const { return tier_ != Tier::kNone; }

   private:
    friend class EngineBackend;
    enum class Tier { kNone, kSingle, kPartitioned };

    Tier tier_ = Tier::kNone;
    std::span<const Query> queries_;
    uint64_t generation_ = 0;
    /// Deliberately NO reference to the staged-against engine: the staged
    /// state below only references devices (which outlive the backend), so
    /// a chunk in flight never pins a retiring engine's device-resident
    /// index through a tier escalation. Execute validates the tier via the
    /// generation and uses the backend's own engine.
    MatchEngine::StagedBatch single_staged_;
    PartitionedEngine::StagedBatch partitioned_staged_;
  };

  /// Prepare stage of the pipeline: transform-side work (Position-Map
  /// resolution) plus per-device staging for the live tier. Thread-safe
  /// and deliberately NOT serialized with Execute — Prepare(chunk k+1) is
  /// meant to run concurrently with Execute(chunk k). A ResourceExhausted
  /// during staging is absorbed (the chunk comes back unstaged and Execute
  /// runs the plain path, which can still escalate); other errors surface.
  Result<StagedChunk> Prepare(std::span<const Query> queries);

  /// Execute stage: match + select + host merge of a prepared chunk,
  /// consuming it. Serialized under the backend mutex like ExecuteBatch,
  /// with the same tier-escalation behavior; results are identical to
  /// ExecuteBatch over the same queries.
  Result<std::vector<QueryResult>> Execute(StagedChunk chunk);

  /// Everything profile() / merge_seconds() / device_profiles() /
  /// multi_load() / num_parts() / num_devices() report, read under a
  /// single lock acquisition. Callers wanting per-batch deltas snapshot
  /// before and after ExecuteBatch and subtract (MatchProfile::Subtract).
  ProfileSnapshot profile_snapshot() const;

  /// Aggregated stage costs since creation, returned as a snapshot. On the
  /// multi-part paths this is the accumulated per-part profile (index
  /// transfer counts every swap-in on the multi-load path, the one-time
  /// residency transfers on the multi-device path). The accessor never
  /// mutates state.
  MatchProfile profile() const;
  /// Host-side merge seconds (multi-part paths only; 0 on single load).
  double merge_seconds() const;
  /// Per-device stage costs of the multi-device tier, indexed by device
  /// ordinal. Empty on the single-device tiers.
  std::vector<MatchProfile> device_profiles() const;

  bool multi_load() const;
  uint32_t num_parts() const;
  /// Devices batches execute on (1 unless the multi-device tier is active).
  uint32_t num_devices() const;

  /// The plan the live tier executes (planned == false when an escalation
  /// set it up).
  plan::ExecutionPlan execution_plan() const;
  /// Stats of the executed index: persisted (bundle) or computed at
  /// create/swap time.
  plan::IndexStats index_stats() const;
  /// Copy of the calibrated cost model (tests / diagnostics: overflow
  /// counts, per-selector rates).
  plan::CostModel cost_model_snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cost_model_;
  }
  /// Human-readable planner report: stats summary + cost-model state + the
  /// live plan + how the stats were obtained. For Engine::ExplainPlan().
  std::string ExplainPlan() const;

  /// Capacity / allocation of the device that bounds the next batch's
  /// working memory: the base device on the single-device tiers, the
  /// tightest (least-free) device of the set on the multi-device tier —
  /// every device stages the whole batch's per-query arenas beside its
  /// resident parts. Batch / stream-chunk sizing must use this instead of
  /// device(), which the multi-device tier leaves idle.
  struct BatchBudget {
    uint64_t capacity_bytes = 0;
    uint64_t allocated_bytes = 0;
  };
  BatchBudget batch_budget() const;

  /// The index the backend currently executes against — the creation-time
  /// index until a SwapIndex, the freshest swapped-in one after. Holding
  /// the pointer keeps that generation alive: a generation a swap retired
  /// dies with its last holder (engine, in-flight Prepare or caller).
  std::shared_ptr<const InvertedIndex> index() const {
    std::lock_guard<std::mutex> lock(mu_);
    return index_;
  }
  const MatchEngineOptions& options() const { return options_; }

  /// Attaches the mutable delta layer: from now on every execution passes
  /// the store's tombstones down as excluded ids (masked inside the select
  /// stage of every tier, so the executed k stays the configured k),
  /// additionally matches the store's segments on the host and folds those
  /// candidates into each query's top-k. The store must outlive the
  /// backend. With no store attached (or an empty store) execution is
  /// byte-identical to the frozen-index behavior.
  void AttachDeltaStore(const delta::DeltaStore* store);
  const delta::DeltaStore* delta_store() const;

  /// Monotonic data-visibility generation: bumped by every change that can
  /// alter answers — delta inserts/removes (the MutationController bumps on
  /// each) and the compaction hot-swap commit (SwapIndex bumps itself). The
  /// serving layer's ResultCache keys entries on this value, so any bump
  /// invalidates every cached answer. Distinct from the internal staging
  /// generation, which tracks tier rebuilds (a tier switch does not change
  /// answers and must not evict the cache).
  uint64_t data_generation() const {
    return data_generation_.load(std::memory_order_acquire);
  }
  void BumpDataGeneration() {
    data_generation_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Hot-swaps the executed index for `index` (compaction commit): the
  /// live tier is rebuilt over the new index under the backend mutex and
  /// the generation is bumped, so staged chunks prepared against the old
  /// index are discarded and re-executed — in-flight streams never pause
  /// and never see a torn index. `stats` are the new index's planner
  /// stats, computed by the caller outside every lock (recomputed under
  /// the mutex only if they do not match `index`). `on_committed` (may be
  /// empty) runs under
  /// the same mutex hold immediately after the successful swap; the
  /// compactor uses it to prune the delta store atomically with the swap,
  /// so no execution can pair the new index with the unpruned delta (a
  /// duplicate) or the old index with the pruned one (a drop). On failure
  /// the previous index and tier stay live and `on_committed` does not run.
  Status SwapIndex(std::shared_ptr<const InvertedIndex> index,
                   plan::IndexStats stats,
                   const std::function<void()>& on_committed = {});
  /// The base device (options.device or the process default) — what the
  /// single-load and multi-load tiers run on.
  sim::Device* device() const;

 private:
  EngineBackend(const InvertedIndex* index, const MatchEngineOptions& options,
                const EngineBackendOptions& backend_options);

  /// The creation-time tier selection, re-runnable: also used to rebuild
  /// the tier over a swapped-in index, at a grown k, or after a c-PQ
  /// overflow. Plans and applies the plan; a memory miss is recorded (the
  /// cost model tightens) and re-planned, and a plan that misses three
  /// times takes the ladder's first rung (EscalateLocked). Builds the
  /// replacement fully before retiring, so a failure leaves the previous
  /// engines live.
  Status SetUpTierLocked();
  /// The one escalation ladder, shared by tier set-up and every execution
  /// path. Given the ResourceExhausted of a miss it changes the live tier
  /// and returns OK (the caller retries), or returns the status to surface:
  /// a c-PQ overflow is recorded and re-planned (selector promotion); a
  /// memory miss is recorded and moves to multiple loading at
  /// EstimateParts() parts, or doubles a live multi-load's parts up to
  /// max_parts. Other errors, the remote tier (no ladder: sharding finer is
  /// a deployment decision) and allow_multi_load == false surface
  /// unchanged.
  Status EscalateLocked(const Status& status);
  /// Recomputes stats_ when they no longer describe index_ (index swap) —
  /// persisted bundle stats survive until the first swap.
  void RefreshStatsLocked();
  /// Machine budget + knobs snapshot the planner consumes.
  plan::PlannerInputs PlannerInputsLocked() const;
  /// Builds the tier `p` names. ResourceExhausted = the plan was
  /// optimistic (the caller records the miss and re-plans or falls back).
  Status ApplyPlanLocked(const plan::ExecutionPlan& p);
  /// Postings the match stage scans for this batch (cost-model work
  /// volume): sum of the queries' keyword frequencies in the live index.
  uint64_t ScannedPostingsLocked(std::span<const Query> queries) const;
  /// Feeds one executed batch's profile delta into the cost model.
  void ObserveExecutionLocked(const ProfileSnapshot& before,
                              std::span<const Query> queries);
  /// Shared body of ExecuteBatch / ExecuteBatchAtK / Execute. Under one
  /// mu_ hold: captures the delta snapshot, runs `execute(excluded)` with
  /// the snapshot's tombstones as the excluded ids, and feeds the cost
  /// model. Then, outside mu_, applies the delta overlay cut to `k`.
  template <typename ExecuteFn>
  Result<std::vector<QueryResult>> ExecuteWithDelta(
      std::span<const Query> queries, uint32_t k, ExecuteFn&& execute);
  /// Host-side delta merge of one executed batch: folds the snapshot's
  /// segment matches into the (already tombstone-free) engine results and
  /// re-truncates to `k` (base_k_ on the regular paths, the requested k on
  /// ExecuteBatchAtK). Runs OUTSIDE mu_ (the snapshot was captured under
  /// the same mu_ hold as the execution, which is what keeps it consistent
  /// with the executed index).
  void ApplyDeltaOverlay(const delta::DeltaSnapshot& snap,
                         std::span<const Query> queries, uint32_t k,
                         std::vector<QueryResult>* results);

  /// Builds (or rebuilds) the remote tier: shards the index across the
  /// configured endpoints (volume-balanced when the planner owns stats)
  /// and pushes each shard to its workers. Skipped — only the options are
  /// refreshed — when the live RemoteEngine already serves this index, so
  /// k growth does not re-push shards over the wire.
  Status SetUpRemote();
  /// Shards the full index into `parts` and builds the partitioned engine
  /// of `tier`: kMultiDevice keeps the parts resident on the device set
  /// (`placement` names each part's device, round-robin when empty),
  /// kMultiLoad swaps them through the base device. Non-empty `boundaries`
  /// (a planner cut) override the volume-balanced split.
  Status SetUpPartitioned(plan::ExecutionPlan::Tier tier, uint32_t parts,
                          std::span<const ObjectId> boundaries = {},
                          std::span<const uint32_t> placement = {});
  /// Cuts `parts` at `boundaries`, or — when empty — at the volume-balanced
  /// boundaries a re-plan would emit, so planned and escalated part
  /// layouts agree.
  Result<ShardedIndex> ShardLocked(uint32_t parts,
                                   std::span<const ObjectId> boundaries);
  /// Folds the live engine's stage costs into carried_profile_ and retires
  /// it (before a tier switch).
  void RetireEngines();
  /// Initial part-count estimate from the List Array size vs device budget.
  uint32_t EstimateParts() const;

  uint32_t NumPartsLocked() const;
  ProfileSnapshot SnapshotLocked() const;
  /// The unpipelined execution path (the body of ExecuteBatch): executes
  /// on the live tier, escalating until it answers; mu_ held.
  /// `excluded`: sorted global ids no result may contain (tombstones).
  Result<std::vector<QueryResult>> ExecuteBatchLocked(
      std::span<const Query> queries, std::span<const ObjectId> excluded);
  /// The staged-chunk execution path (the body of Execute); mu_ held.
  Result<std::vector<QueryResult>> ExecuteStagedLocked(
      StagedChunk chunk, std::span<const ObjectId> excluded);

  /// The executed index. The creation-time one is wrapped without
  /// ownership (the caller owns it); swapped-in generations are shared with
  /// the single-load engine reading them — and through it with any
  /// in-flight Prepare — so each dies with its last reader.
  std::shared_ptr<const InvertedIndex> index_;
  MatchEngineOptions options_;
  EngineBackendOptions backend_options_;
  /// The caller-visible k. options_.k exceeds it only after an
  /// ExecuteBatchAtK grew the tier; tombstones never change it.
  uint32_t base_k_ = 0;
  /// The caller-configured select stage. options_.selector is what the live
  /// tier actually runs — the planner may promote a kCpq configuration to
  /// kBucketSelect (hash-table overflow / observed rates); re-plans always
  /// start from this configured value.
  MatchEngineOptions::Selector base_selector_ =
      MatchEngineOptions::Selector::kCpq;
  /// Attached mutable layer (null = frozen index, classic behavior).
  const delta::DeltaStore* delta_store_ = nullptr;

  /// Serializes batches, tier escalation, and profile snapshots.
  mutable std::mutex mu_;

  /// Bumped on every tier switch / part escalation; staged chunks carry the
  /// generation they were prepared under and are discarded on mismatch.
  uint64_t generation_ = 0;

  /// See data_generation(). Atomic so the serving layer reads it without
  /// taking mu_ (it is checked on every cache lookup).
  std::atomic<uint64_t> data_generation_{0};

  /// Engines and the sharded index they read are shared so a concurrent
  /// Prepare's snapshot keeps a retiring generation alive for the duration
  /// of its staging calls; the backend's own references are dropped at
  /// escalation as before, and finished StagedChunks hold no engine
  /// references at all.
  std::shared_ptr<MatchEngine> single_;
  /// The device registry of the resident placement (owned unless the
  /// caller passed one in). Declared before the engines resident on it, so
  /// it outlives them.
  std::unique_ptr<sim::DeviceSet> owned_devices_;
  sim::DeviceSet* devices_ = nullptr;
  std::shared_ptr<const ShardedIndex> sharded_;
  /// The multi-device (resident) or multi-load (swapped) tier.
  std::shared_ptr<PartitionedEngine> partitioned_;
  /// Multi-node tier (exclusive with the local tiers) and the index
  /// its workers currently hold, so a rebuild that does not change the
  /// index skips the shard re-push.
  std::shared_ptr<RemoteEngine> remote_;
  const InvertedIndex* remote_index_ = nullptr;
  /// Accumulated profile of retired RemoteEngines (index swaps).
  RemoteProfile carried_remote_;
  /// Stage costs of retired engines (single-load before a fallback, or
  /// earlier multi-load generations before a part escalation), so profile()
  /// stays cumulative across backend switches.
  MatchProfile carried_profile_;
  double carried_merge_s_ = 0;

  /// Planner state (all guarded by mu_): the data-shape stats of the
  /// executed index, the calibrated machine model, and the plan the live
  /// tier was built from. stats_persisted_ records whether stats_ came
  /// from a bundle (ExplainPlan reports it; a SwapIndex recompute clears
  /// it).
  plan::IndexStats stats_;
  bool stats_persisted_ = false;
  plan::CostModel cost_model_;
  plan::ExecutionPlan plan_;
};

}  // namespace genie
