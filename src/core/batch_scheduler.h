#pragma once

/// \file batch_scheduler.h
/// Large query sets: the paper processes 65536 queries as 64 batches of
/// 1024 (Fig. 11, "GENIE can also support such large number of queries
/// with breaking query set into several small batches"). ExecuteLargeBatch
/// packages that strategy on top of EngineBackend: it chunks the query set
/// so each batch's device footprint stays inside the budget, runs every
/// chunk through the backend (composing with the automatic single-load ->
/// multiple-loading escalation), and concatenates the results. Streaming
/// consumers (per-chunk delivery, cancellation) live one level up, in
/// genie::Engine::SearchStream / SearchAsync, which apply the same chunking
/// strategy across every modality.

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/engine_backend.h"
#include "core/query.h"

namespace genie {

struct LargeBatchOptions {
  /// Queries per device batch (the paper's 1024). 0 = derive from the
  /// device memory budget below.
  uint32_t batch_size = 1024;
  /// When batch_size is 0: the largest batch whose per-query device memory
  /// (MatchEngine::DeviceBytesPerQuery) fits in this fraction of the free
  /// device capacity.
  double memory_fraction = 0.5;
};

/// Batch-size derivation from the device memory budget, as a pure function
/// so the oversubscription edge cases are unit-testable. Free memory is
/// clamped to zero when `allocated_bytes` exceeds `capacity_bytes` (an
/// oversubscribed device must not underflow into a huge batch), and the
/// result never drops below one query per batch.
uint32_t DeriveLargeBatchSize(uint64_t capacity_bytes, uint64_t allocated_bytes,
                              uint64_t per_query_bytes, double memory_fraction);

/// Runs `queries` through `backend` in batches. Results are in input order,
/// exactly as a single ExecuteBatch of everything would return them. An
/// empty query set is rejected with InvalidArgument, matching the
/// MatchEngine / PartitionedEngine / EngineBackend batch contract.
Result<std::vector<QueryResult>> ExecuteLargeBatch(
    EngineBackend* backend, std::span<const Query> queries,
    const LargeBatchOptions& options = {});

}  // namespace genie
