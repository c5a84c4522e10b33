#include "api/profile.h"

#include <algorithm>
#include <vector>

namespace genie {
namespace {

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

}  // namespace

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


}  // namespace genie
