#pragma once

/// \file query_planner.h
/// The algorithm/schedule split for GENIE execution (the Halide idiom): the
/// *what* — answer match-count batches over one inverted index — is fixed;
/// everything about *how* lives in an explicit ExecutionPlan. The planner
/// turns IndexStats (data shape) + CostModel (machine rates + escalation
/// feedback) + the caller's knobs into one plan — tier, postings-volume-
/// balanced part boundaries, device placement, stream chunk size, pipeline
/// depth — which EngineBackend then executes. The backend's escalation
/// ladder is only the safety net behind a plan that proves optimistic, and
/// each miss feeds the model for the next plan.

#include <cstdint>
#include <string>
#include <vector>

#include "index/types.h"
#include "plan/cost_model.h"
#include "plan/index_stats.h"

namespace genie {
namespace plan {

/// Everything the planner needs to know that is not in IndexStats or the
/// CostModel: the machine budget and the caller's backend knobs.
struct PlannerInputs {
  /// Memory budget of the execution device(s): per-device capacity and the
  /// bytes already allocated on the tightest one.
  uint64_t capacity_bytes = 0;
  uint64_t allocated_bytes = 0;
  /// Working bytes one query occupies in a batch at the configured k
  /// (MatchEngine::DeviceBytesPerQuery).
  uint64_t bytes_per_query = 0;
  /// The caller's configured select stage; the planner may promote kCpq to
  /// kBucketSelect based on the model's overflow / rate observations.
  MatchEngineOptions::Selector selector = MatchEngineOptions::Selector::kCpq;

  // Backend knobs (EngineBackendOptions semantics).
  uint32_t num_devices = 1;
  /// Remote worker endpoints configured (EngineBackendOptions::remote).
  /// Non-zero forces the remote tier: the planner's job reduces to cutting
  /// postings-volume-balanced shard boundaries, one shard per worker.
  uint32_t num_remote_workers = 0;
  uint32_t force_parts = 0;
  uint32_t max_parts = 256;
  bool allow_multi_load = true;
  double part_capacity_fraction = 0.5;
  /// Stream chunk sizing knob (SearchStreamOptions::memory_fraction).
  double memory_fraction = 0.5;
};

/// One schedule for executing batches. Plain data: applying it is the
/// backend's job, explaining it is DebugString's.
struct ExecutionPlan {
  enum class Tier {
    kSingleDevice,  // whole index resident on one device
    kMultiDevice,   // parts resident across N devices, parallel execution
    kMultiLoad,     // parts time-multiplexed through one device
    kRemote,        // shards scattered across worker processes (src/net/)
  };

  Tier tier = Tier::kSingleDevice;
  /// The select stage the engines are built with
  /// (CostModel::PreferredSelector of the configured selector).
  MatchEngineOptions::Selector selector = MatchEngineOptions::Selector::kCpq;
  uint32_t num_parts = 1;
  /// Contiguous part boundaries over the object id space, balanced by
  /// postings volume: part p covers ids
  /// [part_boundaries[p], part_boundaries[p+1]). Empty on the single tier.
  std::vector<ObjectId> part_boundaries;
  /// Device ordinal each part is resident on (multi-device tier only;
  /// volume-aware LPT assignment).
  std::vector<uint32_t> device_of_part;
  /// Queries per stream chunk that fit the working-memory budget.
  uint32_t chunk_size = 1;
  /// Chunks in flight: 2 = double-buffered prepare/execute pipeline, 1 =
  /// no overlap worth scheduling (or no memory headroom for it).
  uint32_t pipeline_depth = 1;
  /// True when a QueryPlanner produced this plan; false when the backend's
  /// escalation ladder set the tier up.
  bool planned = false;

  /// Max over min per-part postings volume (1.0 = perfectly balanced).
  /// Needs the stats the boundaries were cut from.
  double PartVolumeRatio(const IndexStats& stats) const;

  std::string DebugString() const;
};

const char* TierToString(ExecutionPlan::Tier tier);
const char* SelectorToString(MatchEngineOptions::Selector selector);

/// Stateless given its inputs: Plan() is a pure function of
/// (stats, model, inputs), so identical inputs yield identical plans —
/// the property the golden-plan tests pin down.
class QueryPlanner {
 public:
  explicit QueryPlanner(const IndexStats& stats) : stats_(&stats) {}

  /// Decides tier, parts, boundaries, placement, chunk size and pipeline
  /// depth. Never fails: with degenerate inputs (zero capacity, empty
  /// index) it emits the most conservative legal plan and lets the backend
  /// surface any execution error.
  ExecutionPlan Plan(const PlannerInputs& inputs,
                     const CostModel& model) const;

  const IndexStats& stats() const { return *stats_; }

 private:
  const IndexStats* stats_;
};

}  // namespace plan
}  // namespace genie
