#include "plan/query_planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace genie {
namespace plan {

namespace {

/// Queries per stream chunk, bounded away from both degenerate ends.
constexpr uint32_t kMaxPlannedChunk = 65536;

uint64_t PartVolume(const IndexStats& stats,
                    const std::vector<ObjectId>& boundaries, uint32_t p) {
  return stats.PrefixVolume(boundaries[p + 1]) -
         stats.PrefixVolume(boundaries[p]);
}

/// Longest-processing-time placement of parts onto devices, by postings
/// volume. Deterministic: ties break toward the lower part id / lower
/// device ordinal, and uniform volumes reduce to the legacy round-robin
/// p % N assignment.
std::vector<uint32_t> PlaceParts(const IndexStats& stats,
                                 const std::vector<ObjectId>& boundaries,
                                 uint32_t num_parts, uint32_t num_devices) {
  std::vector<uint64_t> volumes(num_parts);
  for (uint32_t p = 0; p < num_parts; ++p) {
    volumes[p] = PartVolume(stats, boundaries, p);
  }
  std::vector<uint32_t> order(num_parts);
  for (uint32_t p = 0; p < num_parts; ++p) order[p] = p;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return volumes[a] > volumes[b];
  });
  std::vector<uint64_t> load(num_devices, 0);
  std::vector<uint32_t> device_of_part(num_parts, 0);
  for (const uint32_t p : order) {
    uint32_t best = 0;
    for (uint32_t d = 1; d < num_devices; ++d) {
      if (load[d] < load[best]) best = d;
    }
    device_of_part[p] = best;
    load[best] += volumes[p];
  }
  return device_of_part;
}

}  // namespace

const char* TierToString(ExecutionPlan::Tier tier) {
  switch (tier) {
    case ExecutionPlan::Tier::kSingleDevice: return "single-device";
    case ExecutionPlan::Tier::kMultiDevice: return "multi-device";
    case ExecutionPlan::Tier::kMultiLoad: return "multi-load";
    case ExecutionPlan::Tier::kRemote: return "remote";
  }
  return "unknown";
}

const char* SelectorToString(MatchEngineOptions::Selector selector) {
  switch (selector) {
    case MatchEngineOptions::Selector::kCpq: return "cpq";
    case MatchEngineOptions::Selector::kCountTableSpq: return "count-table";
    case MatchEngineOptions::Selector::kBucketSelect: return "bucket-select";
  }
  return "unknown";
}

double ExecutionPlan::PartVolumeRatio(const IndexStats& stats) const {
  if (part_boundaries.size() < 2) return 1.0;
  uint64_t min_volume = std::numeric_limits<uint64_t>::max();
  uint64_t max_volume = 0;
  for (uint32_t p = 0; p + 1 < part_boundaries.size(); ++p) {
    const uint64_t volume =
        stats.PrefixVolume(part_boundaries[p + 1]) -
        stats.PrefixVolume(part_boundaries[p]);
    min_volume = std::min(min_volume, volume);
    max_volume = std::max(max_volume, volume);
  }
  if (min_volume == 0) {
    return max_volume == 0 ? 1.0 : std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(max_volume) / static_cast<double>(min_volume);
}

std::string ExecutionPlan::DebugString() const {
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer),
                "%s tier=%s selector=%s parts=%u chunk=%u pipeline_depth=%u",
                planned ? "planned" : "fallback", TierToString(tier),
                SelectorToString(selector), num_parts, chunk_size,
                pipeline_depth);
  std::string out = buffer;
  if (part_boundaries.size() >= 2) {
    out += " boundaries=[";
    for (size_t b = 0; b < part_boundaries.size(); ++b) {
      if (b > 0) out += ' ';
      out += std::to_string(part_boundaries[b]);
    }
    out += ']';
  }
  if (!device_of_part.empty()) {
    out += " placement=[";
    for (size_t p = 0; p < device_of_part.size(); ++p) {
      if (p > 0) out += ' ';
      out += std::to_string(device_of_part[p]);
    }
    out += ']';
  }
  return out;
}

ExecutionPlan QueryPlanner::Plan(const PlannerInputs& inputs,
                                 const CostModel& model) const {
  const IndexStats& stats = *stats_;
  ExecutionPlan plan;
  plan.planned = true;
  plan.selector = model.PreferredSelector(inputs.selector);

  const uint64_t volume_bytes = stats.total_postings * sizeof(ObjectId);
  const uint64_t free_bytes = inputs.capacity_bytes > inputs.allocated_bytes
                                  ? inputs.capacity_bytes -
                                        inputs.allocated_bytes
                                  : 0;
  const double margin = model.residency_margin();
  const uint64_t usable_bytes =
      static_cast<uint64_t>(static_cast<double>(free_bytes) * margin);
  const uint32_t max_useful_parts = std::max(1u, stats.num_objects);

  // Part count the multi-load tier needs so each part's List Array fits in
  // part_capacity_fraction of the (margin-discounted) device capacity.
  const auto multi_load_parts = [&](uint32_t at_least) {
    const double budget = static_cast<double>(inputs.capacity_bytes) *
                          std::clamp(inputs.part_capacity_fraction, 0.05,
                                     1.0) *
                          margin;
    uint32_t parts =
        budget > 0 ? static_cast<uint32_t>(
                         std::ceil(static_cast<double>(volume_bytes) /
                                   budget))
                   : 2;
    parts = std::clamp(parts, 2u, inputs.max_parts);
    parts = std::max(parts, at_least);
    return std::min(parts, std::max(2u, max_useful_parts));
  };

  if (inputs.num_remote_workers > 0) {
    // Remote endpoints configured: the tier is forced; the planning freedom
    // left is the shard->worker cut, balanced by postings volume so no
    // worker becomes the scatter's straggler.
    uint32_t parts = std::min(inputs.num_remote_workers, max_useful_parts);
    parts = std::max(parts, 1u);
    plan.tier = ExecutionPlan::Tier::kRemote;
    plan.part_boundaries = BalancedBoundaries(stats, parts);
    plan.num_parts = static_cast<uint32_t>(plan.part_boundaries.size() - 1);
    // The coordinator holds no device residency: chunk large so the RPC
    // fan-out is amortized, no pipeline (workers own their own staging).
    plan.chunk_size = kMaxPlannedChunk;
    plan.pipeline_depth = 1;
    plan.planned = true;
    return plan;
  }

  if (inputs.num_devices > 1) {
    // Space multiplexing requested: shard across the devices with
    // volume-balanced boundaries, unless the per-device residency
    // predictably exceeds memory — then time-multiplex instead (the
    // escalation ladder's first rung, decided up front).
    uint32_t parts = std::max(inputs.num_devices, inputs.force_parts);
    parts = std::min(parts, max_useful_parts);
    std::vector<ObjectId> boundaries = BalancedBoundaries(stats, parts);
    parts = static_cast<uint32_t>(boundaries.size() - 1);
    std::vector<uint32_t> placement =
        PlaceParts(stats, boundaries, parts, inputs.num_devices);
    std::vector<uint64_t> device_bytes(inputs.num_devices, 0);
    for (uint32_t p = 0; p < parts; ++p) {
      device_bytes[placement[p]] +=
          (stats.PrefixVolume(boundaries[p + 1]) -
           stats.PrefixVolume(boundaries[p])) *
          sizeof(ObjectId);
    }
    const uint64_t max_device_bytes =
        *std::max_element(device_bytes.begin(), device_bytes.end());
    if (max_device_bytes <= usable_bytes || !inputs.allow_multi_load) {
      plan.tier = ExecutionPlan::Tier::kMultiDevice;
      plan.num_parts = parts;
      plan.part_boundaries = std::move(boundaries);
      plan.device_of_part = std::move(placement);
    } else {
      plan.tier = ExecutionPlan::Tier::kMultiLoad;
      plan.num_parts = multi_load_parts(inputs.force_parts);
      plan.part_boundaries = BalancedBoundaries(stats, plan.num_parts);
      plan.num_parts =
          static_cast<uint32_t>(plan.part_boundaries.size() - 1);
    }
  } else if (inputs.force_parts > 0) {
    plan.tier = ExecutionPlan::Tier::kMultiLoad;
    plan.num_parts = std::min(inputs.force_parts, max_useful_parts);
    plan.part_boundaries = BalancedBoundaries(stats, plan.num_parts);
    plan.num_parts = static_cast<uint32_t>(plan.part_boundaries.size() - 1);
  } else if (volume_bytes <= usable_bytes || !inputs.allow_multi_load) {
    plan.tier = ExecutionPlan::Tier::kSingleDevice;
    plan.num_parts = 1;
  } else {
    plan.tier = ExecutionPlan::Tier::kMultiLoad;
    plan.num_parts = multi_load_parts(2);
    plan.part_boundaries = BalancedBoundaries(stats, plan.num_parts);
    plan.num_parts = static_cast<uint32_t>(plan.part_boundaries.size() - 1);
  }

  // Stream chunk size: queries whose working arenas fit in
  // memory_fraction of what stays free once the tier's residency is
  // accounted on the tightest device.
  uint64_t resident_bytes = volume_bytes;
  if (plan.tier == ExecutionPlan::Tier::kMultiLoad && plan.num_parts > 0) {
    resident_bytes = volume_bytes / plan.num_parts;
  } else if (plan.tier == ExecutionPlan::Tier::kMultiDevice) {
    resident_bytes =
        plan.num_parts > 0
            ? (volume_bytes + plan.num_parts - 1) / plan.num_parts *
                  ((plan.num_parts + inputs.num_devices - 1) /
                   inputs.num_devices)
            : volume_bytes;
  }
  const uint64_t working_bytes =
      usable_bytes > resident_bytes ? usable_bytes - resident_bytes : 0;
  const double fraction = std::clamp(inputs.memory_fraction, 0.0, 1.0);
  if (inputs.bytes_per_query > 0) {
    const uint64_t budget = static_cast<uint64_t>(
        static_cast<double>(working_bytes) * fraction);
    plan.chunk_size = static_cast<uint32_t>(std::clamp<uint64_t>(
        budget / inputs.bytes_per_query, 1, kMaxPlannedChunk));
  } else {
    plan.chunk_size = 1;
  }
  // Double-buffer the prepare stage whenever there is headroom beside one
  // executing chunk's arenas; the staged half is only the task lists, far
  // smaller than the working arenas it overlaps.
  plan.pipeline_depth =
      working_bytes > 0 && fraction < 1.0 && plan.chunk_size > 1 ? 2 : 1;
  return plan;
}

}  // namespace plan
}  // namespace genie
