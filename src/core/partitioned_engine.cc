#include "core/partitioned_engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "common/timer.h"

namespace genie {

Status ValidateDisjointParts(std::span<const IndexPart> parts) {
  for (const IndexPart& part : parts) {
    if (part.index == nullptr) {
      return Status::InvalidArgument("null index part");
    }
  }
  // Sort the ranges by offset and sweep with the running covered end: a
  // non-empty range starting before it overlaps some earlier range (not
  // necessarily the immediate predecessor — an empty or short part may
  // sort in between).
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  ranges.reserve(parts.size());
  for (const IndexPart& part : parts) {
    ranges.emplace_back(part.id_offset,
                        static_cast<uint64_t>(part.id_offset) +
                            part.index->num_objects());
  }
  std::sort(ranges.begin(), ranges.end());
  std::pair<uint64_t, uint64_t> covering{0, 0};  // range holding the max end
  for (const auto& range : ranges) {
    if (range.first == range.second) continue;  // empty parts overlap nothing
    if (range.first < covering.second) {
      return Status::InvalidArgument(
          "index parts have overlapping global id ranges: [" +
          std::to_string(covering.first) + ", " +
          std::to_string(covering.second) + ") and [" +
          std::to_string(range.first) + ", " + std::to_string(range.second) +
          ")");
    }
    if (range.second > covering.second) covering = range;
  }
  return Status::OK();
}

std::vector<ObjectId> LocalExcluded(std::span<const ObjectId> excluded,
                                    ObjectId id_offset, uint32_t num_objects) {
  const uint64_t end = static_cast<uint64_t>(id_offset) + num_objects;
  auto it = std::lower_bound(excluded.begin(), excluded.end(), id_offset);
  std::vector<ObjectId> local;
  for (; it != excluded.end() && *it < end; ++it) {
    local.push_back(*it - id_offset);
  }
  return local;
}

namespace {

/// Pooled candidates below which MergeCandidatePools sorts on the calling
/// thread: a few small sorts (e.g. the delta overlay of one small batch)
/// cost less than a fork/join onto the process pool.
constexpr size_t kParallelMergeCandidates = 4096;

}  // namespace

std::vector<QueryResult> MergeCandidatePools(
    std::vector<std::vector<TopKEntry>> pools, uint32_t k) {
  std::vector<QueryResult> results(pools.size());
  const auto merge = [&](size_t q) {
    auto& pool = pools[q];
    std::sort(pool.begin(), pool.end(),
              [](const TopKEntry& a, const TopKEntry& b) {
                if (a.count != b.count) return a.count > b.count;
                return a.id < b.id;
              });
    if (pool.size() > k) pool.resize(k);
    results[q].entries = std::move(pool);
    results[q].threshold = TopKThreshold(results[q].entries, k);
  };
  size_t candidates = 0;
  for (const auto& pool : pools) candidates += pool.size();
  if (candidates < kParallelMergeCandidates) {
    for (size_t q = 0; q < pools.size(); ++q) merge(q);
  } else {
    DefaultThreadPool()->ParallelFor(pools.size(), merge);
  }
  return results;
}

MatchProfile PartitionedProfile::Combined() const {
  MatchProfile combined;
  for (const MatchProfile& p : per_device) combined.Accumulate(p);
  return combined;
}

Result<std::unique_ptr<PartitionedEngine>> PartitionedEngine::Create(
    std::vector<IndexPart> parts, const MatchEngineOptions& options,
    sim::DeviceSet* devices, std::span<const uint32_t> device_of_part) {
  if (parts.empty()) {
    return Status::InvalidArgument("partitioned execution needs >= 1 part");
  }
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (devices != nullptr && devices->size() == 0) {
    return Status::InvalidArgument(
        "resident parts need a non-empty device set");
  }
  if (!device_of_part.empty()) {
    if (devices == nullptr || device_of_part.size() != parts.size()) {
      return Status::InvalidArgument(
          "device placement must name one device per part");
    }
    for (const uint32_t d : device_of_part) {
      if (d >= devices->size()) {
        return Status::InvalidArgument("device placement names device " +
                                       std::to_string(d) + " of a " +
                                       std::to_string(devices->size()) +
                                       "-device set");
      }
    }
  }
  GENIE_RETURN_NOT_OK(ValidateDisjointParts(parts));

  std::unique_ptr<PartitionedEngine> engine(
      new PartitionedEngine(options, devices));
  const size_t num_devices = devices != nullptr ? devices->size() : 1;
  engine->groups_.resize(num_devices);
  engine->profiles_.resize(num_devices);
  for (size_t p = 0; p < parts.size(); ++p) {
    size_t d = 0;
    std::unique_ptr<MatchEngine> resident;
    if (devices != nullptr) {
      // Engine construction transfers the part's List Array to its device,
      // where it stays. A failure (typically ResourceExhausted on an
      // overcommitted device) unwinds the already-built engines, releasing
      // their device memory.
      d = device_of_part.empty() ? p % num_devices : device_of_part[p];
      MatchEngineOptions part_options = options;
      part_options.device = devices->device(d);
      GENIE_ASSIGN_OR_RETURN(resident,
                             MatchEngine::Create(parts[p].index, part_options));
      engine->profiles_[d].Accumulate(resident->profile());
      resident->ResetProfile();
    }
    engine->groups_[d].push_back(p);
    engine->parts_.push_back(
        Part{parts[p].index, parts[p].id_offset, std::move(resident)});
  }
  return engine;
}

Status PartitionedEngine::ForEachPart(
    const std::function<Status(size_t, size_t)>& run) {
  // One thread per device, each blocking on its own device's worker pool,
  // so devices genuinely overlap.
  std::vector<Status> device_status(groups_.size(), Status::OK());
  DefaultThreadPool()->ParallelFor(groups_.size(), [&](size_t d) {
    for (const size_t p : groups_[d]) {
      device_status[d] = run(d, p);
      if (!device_status[d].ok()) return;
    }
  });
  for (const Status& status : device_status) GENIE_RETURN_NOT_OK(status);
  return Status::OK();
}

Result<PartitionedEngine::StagedBatch> PartitionedEngine::Prepare(
    std::span<const Query> queries) {
  if (queries.empty()) return Status::InvalidArgument("empty query batch");
  StagedBatch staged;
  staged.num_queries = static_cast<uint32_t>(queries.size());
  if (swapped()) {
    staged.swapped.resize(parts_.size());
  } else {
    staged.resident.resize(parts_.size());
  }
  GENIE_RETURN_NOT_OK(ForEachPart([&](size_t, size_t p) -> Status {
    const Part& part = parts_[p];
    if (part.resident == nullptr) {
      staged.swapped[p] =
          MatchEngine::ResolveTasks(*part.index, queries, options_);
      return Status::OK();
    }
    GENIE_ASSIGN_OR_RETURN(staged.resident[p],
                           part.resident->Prepare(queries));
    return Status::OK();
  }));
  return staged;
}

Result<std::vector<QueryResult>> PartitionedEngine::ExecuteStaged(
    StagedBatch staged, std::span<const ObjectId> excluded) {
  if (staged.num_queries == 0) {
    return Status::InvalidArgument("empty query batch");
  }
  if ((swapped() ? staged.swapped.size() : staged.resident.size()) !=
      parts_.size()) {
    return Status::InvalidArgument(
        "staged batch does not match this engine's parts");
  }
  std::vector<std::vector<QueryResult>> part_results(parts_.size());
  GENIE_RETURN_NOT_OK(ForEachPart([&](size_t d, size_t p) -> Status {
    const Part& part = parts_[p];
    const std::vector<ObjectId> local =
        LocalExcluded(excluded, part.id_offset, part.index->num_objects());
    // A swapped part's engine lives for this turn only: construction
    // performs the index transfer, destruction at scope end releases the
    // device memory before the device's next part loads.
    std::unique_ptr<MatchEngine> swapped_in;
    MatchEngine* engine = part.resident.get();
    MatchEngine::StagedBatch part_staged;
    if (engine != nullptr) {
      part_staged = std::move(staged.resident[p]);
    } else {
      GENIE_ASSIGN_OR_RETURN(swapped_in,
                             MatchEngine::Create(part.index, options_));
      engine = swapped_in.get();
      GENIE_ASSIGN_OR_RETURN(part_staged, engine->Stage(staged.swapped[p]));
    }
    auto results = engine->ExecuteStaged(std::move(part_staged), local);
    profiles_[d].Accumulate(engine->profile());
    engine->ResetProfile();
    GENIE_ASSIGN_OR_RETURN(part_results[p], std::move(results));
    return Status::OK();
  }));

  // Lift every part's ids to global and pool them per query, releasing each
  // part's results as they are consumed, then the shared top-k merge.
  ScopedTimer merge_timer(&merge_s_);
  std::vector<std::vector<TopKEntry>> pools(staged.num_queries);
  DefaultThreadPool()->ParallelFor(pools.size(), [&](size_t q) {
    for (size_t p = 0; p < parts_.size(); ++p) {
      const ObjectId offset = parts_[p].id_offset;
      for (const TopKEntry& e : part_results[p][q].entries) {
        pools[q].push_back(TopKEntry{e.id + offset, e.count});
      }
      part_results[p][q] = QueryResult{};
    }
  });
  return MergeCandidatePools(std::move(pools), options_.k);
}

Result<std::vector<QueryResult>> PartitionedEngine::ExecuteBatch(
    std::span<const Query> queries, std::span<const ObjectId> excluded) {
  GENIE_ASSIGN_OR_RETURN(StagedBatch staged, Prepare(queries));
  return ExecuteStaged(std::move(staged), excluded);
}

PartitionedProfile PartitionedEngine::profile() const {
  return PartitionedProfile{profiles_, merge_s_};
}

}  // namespace genie
