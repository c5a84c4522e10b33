#pragma once

/// \file batch_assembler.h
/// One home for batch-formation policy. Two consumers need "how many
/// queries per device batch": the compiled searcher's stream-chunk
/// derivation and the serving layer's RequestScheduler (super-batch
/// target). They both resolve it here, so the plan-informed sizing and the
/// memory-budget fallback cannot drift apart. Preference order: an
/// explicit caller knob wins, then the live ExecutionPlan's chunk size
/// (the planner already balanced part residency against per-query working
/// memory), then the memory derivation, then a fixed default.

#include <cstdint>

namespace genie {

class BatchAssembler {
 public:
  /// Memory-budget derivation, as a pure function so the oversubscription
  /// edge cases stay unit-testable: the largest batch whose per-query device
  /// memory fits in `memory_fraction` of the free capacity. Free memory is
  /// clamped to zero when `allocated_bytes` exceeds `capacity_bytes` (an
  /// oversubscribed device must not underflow into a huge batch), and the
  /// result never drops below one query per batch.
  static uint32_t DeriveFromMemory(uint64_t capacity_bytes,
                                   uint64_t allocated_bytes,
                                   uint64_t per_query_bytes,
                                   double memory_fraction);

  /// Knob resolution used by the serving scheduler: an explicitly
  /// `configured` size wins, then the plan's `planned` chunk size, then
  /// `fallback`.
  static uint32_t ResolveTargetBatch(uint32_t configured, uint32_t planned,
                                     uint32_t fallback);
};

}  // namespace genie
