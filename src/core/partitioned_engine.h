#pragma once

/// \file partitioned_engine.h
/// Partitioned execution: the index split into parts with disjoint object
/// id ranges, each part answered by its own MatchEngine, and the per-part
/// top-k sets merged on the host (Fig. 6 "Merge"). The two local
/// partitioned tiers are this one algorithm; they differ only in where a
/// part's List Array lives between batches:
///   - swapped (multiple loading, Section III-D): the parts take turns on
///     the base device, each transferred in per batch (index transfer ->
///     match -> select) and released before the next one loads, so each
///     part — not their sum — must fit;
///   - resident (space multiplexing): part p is transferred once onto
///     device d of a sim::DeviceSet and stays there; the devices execute a
///     batch in parallel, each running its own parts back to back.
/// Either way the final top-k of a query is the top-k of the union of its
/// per-part top-k sets, so results are identical to a single-device run
/// over the full index.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/match_engine.h"
#include "core/query.h"
#include "index/inverted_index.h"
#include "sim/device_set.h"

namespace genie {

/// One data partition: an index over local object ids [0, index->num_objects())
/// mapped to global ids by adding id_offset.
struct IndexPart {
  const InvertedIndex* index = nullptr;
  ObjectId id_offset = 0;
};

/// Checks that every part has an index and that the parts' global id ranges
/// [id_offset, id_offset + num_objects) are pairwise disjoint — the merge
/// contract of every partitioned tier (an object indexed in two parts would
/// be double-counted). Returns InvalidArgument with the offending pair
/// otherwise.
Status ValidateDisjointParts(std::span<const IndexPart> parts);

/// The ids of `excluded` (sorted, global) that fall in the part range
/// [id_offset, id_offset + num_objects), lifted into the part's local id
/// space — how every sharded tier slices a batch's excluded ids.
std::vector<ObjectId> LocalExcluded(std::span<const ObjectId> excluded,
                                    ObjectId id_offset, uint32_t num_objects);

/// The one host-side top-k merge: per query, sorts the pooled candidates
/// (ids already global) by descending count with id tiebreak, keeps the k
/// best and sets the threshold by the QueryResult contract. Parallelized
/// over queries on the process pool. Every tier that pools candidates —
/// partitioned, remote and the delta overlay — ranks through it.
std::vector<QueryResult> MergeCandidatePools(
    std::vector<std::vector<TopKEntry>> pools, uint32_t k);

/// Accumulated stage costs of a partitioned engine.
struct PartitionedProfile {
  /// Indexed by device ordinal: one entry per device of the set when
  /// resident (index transfer counts the one-time residency transfer), one
  /// entry — the base device — when swapped (index transfer counts every
  /// swap-in).
  std::vector<MatchProfile> per_device;
  /// Host-side lifting, pooling and merging of the per-part top-k sets.
  double merge_s = 0;

  /// All devices' stages summed, for consumers wanting one MatchProfile.
  MatchProfile Combined() const;
};

class PartitionedEngine {
 public:
  /// The parts must have disjoint global id ranges. With `devices` null
  /// every part is swapped through options.device (or the process default)
  /// per batch. Otherwise part p is resident on
  /// devices->device(device_of_part[p]) — round-robin p % devices->size()
  /// when `device_of_part` is empty — and transferred there immediately;
  /// every part must fit beside the other parts of its device, or Create
  /// fails with ResourceExhausted after releasing what it built. A
  /// non-empty `device_of_part` must name one in-range device per part.
  /// `devices` and the part indexes must outlive the engine.
  static Result<std::unique_ptr<PartitionedEngine>> Create(
      std::vector<IndexPart> parts, const MatchEngineOptions& options,
      sim::DeviceSet* devices = nullptr,
      std::span<const uint32_t> device_of_part = {});

  /// One batch prepared ahead of execution, one slot per part. Resident
  /// parts are staged on their device (task lists uploaded, tagged as
  /// staging memory there); swapped parts only hold host-resolved task
  /// lists, since their device can hold one part plus working memory at a
  /// time — each part's upload happens at its swap-in.
  struct StagedBatch {
    std::vector<MatchEngine::StagedBatch> resident;
    std::vector<MatchTaskList> swapped;
    uint32_t num_queries = 0;
  };

  /// Stages the batch for every part, the devices in parallel. Thread-safe
  /// against a concurrent ExecuteBatch/ExecuteStaged (reads immutable
  /// engine state; allocations are atomic). Fails with ResourceExhausted
  /// when a device cannot hold the staging buffers beside its resident
  /// parts and the in-flight chunk.
  Result<StagedBatch> Prepare(std::span<const Query> queries);

  /// Runs a prepared batch: the devices in parallel, each running its parts
  /// in order (a swapped part is transferred in first), then the shared
  /// host merge. `excluded` (sorted, global ids) is sliced per part. Not
  /// internally serialized: concurrent calls are the caller's
  /// responsibility (EngineBackend holds its own mutex).
  Result<std::vector<QueryResult>> ExecuteStaged(
      StagedBatch staged, std::span<const ObjectId> excluded = {});

  /// ExecuteStaged(Prepare(queries), excluded).
  Result<std::vector<QueryResult>> ExecuteBatch(
      std::span<const Query> queries,
      std::span<const ObjectId> excluded = {});

  /// Snapshot of the accumulated stage costs.
  PartitionedProfile profile() const;

  size_t num_parts() const { return parts_.size(); }
  /// Devices the parts execute on: the set's size when resident, 1 (the
  /// base device) when swapped.
  size_t num_devices() const { return groups_.size(); }
  bool swapped() const { return devices_ == nullptr; }

 private:
  struct Part {
    const InvertedIndex* index = nullptr;
    ObjectId id_offset = 0;
    /// The part's engine, bound to its device. Null when swapped: an
    /// engine then lives only for the part's turn in a batch.
    std::unique_ptr<MatchEngine> resident;
  };

  PartitionedEngine(const MatchEngineOptions& options, sim::DeviceSet* devices)
      : options_(options), devices_(devices) {}

  /// Runs `run(device, part)` for every part: the devices in parallel, the
  /// parts of one device in order, stopping a device at its first error.
  /// Returns the first device's error.
  Status ForEachPart(const std::function<Status(size_t, size_t)>& run);

  MatchEngineOptions options_;
  sim::DeviceSet* devices_;
  std::vector<Part> parts_;
  /// groups_[d] = the parts device d runs, in part order.
  std::vector<std::vector<size_t>> groups_;
  /// Per device: the stage costs of every part it executed (resident
  /// engines hand theirs over after each batch).
  std::vector<MatchProfile> profiles_;
  double merge_s_ = 0;
};

}  // namespace genie
