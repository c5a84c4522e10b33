#pragma once

/// \file profile.h
/// The facade's cost reports: SearchResult::profile (one call's costs) and
/// SearchResult::cumulative (engine-lifetime totals), derived from two
/// EngineBackend profile snapshots taken around a batch.

#include "api/types.h"
#include "core/engine_backend.h"

namespace genie {

/// Backend state captured atomically with a batch — the backend's one-lock
/// profile snapshot plus the modality's verify seconds — inside the
/// searcher's critical section. The per-call delta is computed from two of
/// these after the lock is released, so the facade never reads the backend
/// live while another thread executes.
struct BackendSnapshot {
  EngineBackend::ProfileSnapshot backend;
  double verify_s = 0;
};

/// Fills result->profile with the delta between the two snapshots and
/// result->cumulative with the `after` totals.
void FillProfiles(SearchResult* result, const BackendSnapshot& before,
                  const BackendSnapshot& after);

}  // namespace genie
