#pragma once

/// \file remote_engine.h
/// The fourth tier of the execution ladder: scatter-gather over worker
/// processes that each own one shard of the index (ROADMAP "multi-node").
/// The coordinator scatters a batch to every shard in parallel, gathers the
/// per-shard candidate pools (already lifted to global object ids by the
/// workers) and merges them with MergeCandidatePools — the same host-side
/// merge as the partitioned tiers, so remote answers are bit-identical to
/// local ones up to the documented boundary-tie freedom.
///
/// Fault tolerance: each shard has an ordered replica list. Attempt 0 goes
/// to the primary; when an attempt errors, or stays silent for
/// hedge_delay_s, the next replica is hedged in parallel. The first OK
/// response wins and stale responses are discarded, so every query gets
/// exactly one result no matter how many attempts were in flight. A shard
/// whose every replica failed fails the batch with the last error.
///
/// Threading: scatter launches one thread per attempt. ExecuteBatch returns
/// as soon as every shard has a winner (or a final failure); straggler
/// attempts (a slow replica whose hedge already won) keep running in the
/// background and are joined by the destructor, which also waits out any
/// ExecuteBatch still in flight on other threads.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/match_engine.h"
#include "core/partitioned_engine.h"
#include "core/query.h"
#include "net/remote_options.h"

namespace genie {

namespace net {
class Transport;
class WorkerService;
}  // namespace net

/// Per-address transport accounting, surfaced through SearchProfile so
/// callers can see which worker was slow, hedged or dead.
struct RemoteWorkerStats {
  std::string address;
  uint64_t calls = 0;     // match attempts shipped to this address
  uint64_t wins = 0;      // attempts whose response was the shard winner
  uint64_t failures = 0;  // attempts that errored (transport or decode)
  uint64_t hedged = 0;    // attempts launched as a hedge (index > 0)
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;
  double call_s = 0;           // wall seconds inside transport calls
  double worker_match_s = 0;   // worker-reported stage seconds
  double worker_select_s = 0;
  double worker_execute_s = 0;
};

struct RemoteProfile {
  uint64_t batches = 0;
  double scatter_s = 0;  // wall seconds from scatter to last shard winner
  double merge_s = 0;    // host-side pool merge
  std::vector<RemoteWorkerStats> workers;
};

class RemoteEngine {
 public:
  /// Calls Create performs on every address before any match traffic:
  /// Hello (call 0) and LoadShard (call 1). Fault-matrix tests arm match
  /// faults starting at this index.
  static constexpr uint64_t kCallsDuringCreate = 2;

  /// Shards the parts out to the workers named by `remote.endpoints` (one
  /// endpoint per part, same order; replica addresses receive the same
  /// shard). Loopback addresses spin up in-process workers; host:port
  /// addresses must already have a genie_worker listening. The parts'
  /// indexes may be destroyed after Create returns — workers own
  /// deserialized copies.
  static Result<std::unique_ptr<RemoteEngine>> Create(
      std::span<const IndexPart> parts, const MatchEngineOptions& options,
      const net::RemoteOptions& remote);

  ~RemoteEngine();
  RemoteEngine(const RemoteEngine&) = delete;
  RemoteEngine& operator=(const RemoteEngine&) = delete;

  /// Scatters one batch to all shards, gathers and merges. Thread-safe.
  /// `excluded` (sorted, global ids) is sliced per shard into each shard's
  /// kMatch frame, so workers mask those ids inside their select stage.
  Result<std::vector<QueryResult>> ExecuteBatch(
      std::span<const Query> queries,
      std::span<const ObjectId> excluded = {});

  /// Updates the match options future batches are executed with (workers
  /// rebuild their engines lazily when the wire options change). Used for
  /// k growth without re-pushing shards.
  void UpdateOptions(const MatchEngineOptions& options);

  RemoteProfile profile() const;
  void ResetProfile();

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  const MatchEngineOptions& options() const { return options_; }

 private:
  struct ShardState;    // per-shard hedging state for one batch
  struct ShardClient;   // transports + replica order for one shard

  RemoteEngine(MatchEngineOptions options, net::RemoteOptions remote);

  /// Runs one shard's replica ladder for one batch (called on the shard's
  /// scatter thread): launches attempts, hedges on error/delay, fills
  /// state->winner or state->error.
  void RunShard(ShardClient& shard, const std::string& request_frame,
                uint64_t request_id, size_t num_queries,
                std::shared_ptr<ShardState> state);

  void LaunchAttempt(ShardClient& shard, size_t replica,
                     const std::string& request_frame, uint64_t request_id,
                     size_t num_queries, std::shared_ptr<ShardState> state);

  void ReapFinishedThreads();
  RemoteWorkerStats& StatsForLocked(const std::string& address);

  MatchEngineOptions options_;
  net::RemoteOptions remote_;
  std::vector<std::unique_ptr<ShardClient>> shards_;
  /// Keeps in-process workers alive (loopback endpoints only).
  std::vector<std::shared_ptr<net::WorkerService>> services_;

  std::atomic<uint64_t> next_request_id_{1};

  mutable std::mutex profile_mu_;
  RemoteProfile profile_;

  std::mutex threads_mu_;
  std::condition_variable threads_cv_;
  struct TrackedThread {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> finished;
  };
  std::vector<TrackedThread> pending_threads_;
  uint64_t outstanding_batches_ = 0;
  bool shutting_down_ = false;
};

}  // namespace genie
