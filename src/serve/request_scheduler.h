#pragma once

/// \file request_scheduler.h
/// The serving layer's continuous-batching scheduler. Individual Search
/// submissions are admitted into per-tenant queues (FairnessPolicy), and a
/// dedicated dispatcher thread coalesces compatible pending submissions
/// into device-sized super-batches — dispatching when the plan-informed
/// target batch fills or the oldest admission hits the max_queue_delay
/// deadline, whichever comes first — executes them through the engine's
/// Searcher, and demuxes per-submission results back to their completions.
///
/// Two short-circuits run at admission, before a submission ever queues:
///   - hot-query ResultCache hit (generation- and TTL-checked): the cached
///     answers are returned immediately, profile.cache_hits set;
///   - in-flight dedup: a submission identical to a still-QUEUED leader
///     attaches as a follower and shares the leader's answer. Only queued
///     leaders are joined — a batch already executing may straddle a
///     mutation, so late identical arrivals become fresh leaders.
///
/// Results are bit-identical to the legacy per-request path: coalescing
/// concatenates query payloads in admission order and slices the batch
/// answer back apart; the backend sees one batch whose per-query answers
/// do not depend on batch composition.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "api/searcher.h"
#include "api/types.h"
#include "common/result.h"
#include "serve/fairness.h"
#include "serve/result_cache.h"

namespace genie {
namespace serve {

class RequestScheduler {
 public:
  /// `searcher` must outlive the scheduler (Engine guarantees it: the
  /// scheduler member is declared after — so destroyed before — the
  /// searcher).
  RequestScheduler(Searcher* searcher, const ServingOptions& options);

  /// Fails every pending submission, stops the dispatcher, joins.
  ~RequestScheduler();

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  /// Receives one submission's answer, or the status it failed with.
  using Completion = std::function<void(Result<SearchResult>)>;

  /// The one admission path. Admits `request` and calls `done` exactly
  /// once: inline, on the calling thread, for a cache hit, a backpressure
  /// rejection (ResourceExhausted) or shutdown; otherwise on the dispatcher
  /// thread once the request's super-batch has executed, with no scheduler
  /// lock held. Admission itself never blocks. `done` must not throw, and
  /// it delays the next super-batch for as long as it runs. The request's
  /// payload spans are borrowed until `done` is called.
  void SubmitWith(const SearchRequest& request, Completion done);

  /// SubmitWith completing a promise; the payload spans must stay alive
  /// until the future resolves.
  std::future<Result<SearchResult>> SubmitAsync(const SearchRequest& request);

  /// SubmitAsync(request).get(): blocks until the answer is ready.
  Result<SearchResult> Submit(const SearchRequest& request);

  ServingStats stats() const;
  ResultCache::Stats cache_stats() const { return cache_.stats(); }

  using Clock = std::chrono::steady_clock;

  /// One admitted request (public only for the .cc's merge helpers).
  struct Submission {
    uint64_t handle = 0;
    uint64_t fingerprint = 0;
    /// Shallow copy of the caller's request: payload spans stay borrowed
    /// from the caller, which SubmitWith's contract keeps alive.
    SearchRequest request;
    uint32_t num_queries = 0;
    Clock::time_point enqueued;
    Completion done;
    /// Dedup followers awaiting this leader's answer.
    std::vector<Completion> followers;
  };

 private:
  void DispatcherLoop();
  /// Executes one super-batch (no scheduler lock held) and calls its
  /// submissions' completions.
  void ExecuteBatch(std::vector<std::unique_ptr<Submission>> batch);
  uint32_t TargetBatch() const;

  Searcher* const searcher_;
  const ServingOptions options_;
  ResultCache cache_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  FairnessPolicy fairness_;
  std::unordered_map<uint64_t, std::unique_ptr<Submission>> pending_;
  /// fingerprint -> handle of the QUEUED leader identical submissions join.
  std::unordered_map<uint64_t, uint64_t> inflight_;
  uint64_t next_handle_ = 1;
  uint32_t pending_queries_ = 0;
  ServingStats stats_;
  bool stop_ = false;

  std::thread dispatcher_;  // started last, so everything above is ready
};

}  // namespace serve
}  // namespace genie
