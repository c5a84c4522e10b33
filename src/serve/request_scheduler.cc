#include "serve/request_scheduler.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_assembler.h"
#include "serve/fingerprint.h"

namespace genie {
namespace serve {
namespace {

double SecondsBetween(RequestScheduler::Clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Owned payload buffers of a coalesced super-batch: submissions' borrowed
/// spans are concatenated (in admission order) into these, and the merged
/// SearchRequest's spans borrow from here for the one backend call.
struct MergedPayload {
  data::PointMatrix points;
  std::vector<std::vector<uint32_t>> sets;
  std::vector<std::string> sequences;
  std::vector<std::vector<uint32_t>> documents;
  std::vector<sa::RangeQuery> ranges;
  std::vector<Query> compiled;
};

SearchRequest MergeRequests(
    const std::vector<std::unique_ptr<RequestScheduler::Submission>>& batch,
    MergedPayload* payload);

}  // namespace

RequestScheduler::RequestScheduler(Searcher* searcher,
                                   const ServingOptions& options)
    : searcher_(searcher),
      options_(options),
      cache_(ResultCacheOptions{options.cache_capacity, options.cache_ttl_s}),
      fairness_(FairnessOptions{options.fairness_quantum,
                                options.max_pending_per_tenant,
                                options.tenant_weights}),
      dispatcher_([this] { DispatcherLoop(); }) {}

RequestScheduler::~RequestScheduler() {
  std::vector<std::unique_ptr<Submission>> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    for (auto& [handle, sub] : pending_) orphaned.push_back(std::move(sub));
    pending_.clear();
    inflight_.clear();
    pending_queries_ = 0;
  }
  work_cv_.notify_all();
  dispatcher_.join();
  for (auto& sub : orphaned) {
    const Status aborted =
        Status::Internal("serving scheduler shut down with request pending");
    for (auto& follower : sub->followers) follower(aborted);
    sub->done(aborted);
  }
}

uint32_t RequestScheduler::TargetBatch() const {
  return BatchAssembler::ResolveTargetBatch(
      options_.target_batch, searcher_->PlannedChunkSize(), 1024);
}

Result<SearchResult> RequestScheduler::Submit(const SearchRequest& request) {
  return SubmitAsync(request).get();
}

std::future<Result<SearchResult>> RequestScheduler::SubmitAsync(
    const SearchRequest& request) {
  auto promise = std::make_shared<std::promise<Result<SearchResult>>>();
  std::future<Result<SearchResult>> future = promise->get_future();
  SubmitWith(request, [promise](Result<SearchResult> result) {
    promise->set_value(std::move(result));
  });
  return future;
}

void RequestScheduler::SubmitWith(const SearchRequest& request,
                                  Completion done) {
  // Fingerprinting walks the whole payload — keep it outside the lock.
  const uint64_t fingerprint = FingerprintRequest(request);
  const uint32_t num_queries = static_cast<uint32_t>(request.num_queries());

  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.submitted;
  if (stop_) {
    lock.unlock();
    done(Status::Internal("serving scheduler is shutting down"));
    return;
  }

  // Short-circuit 1: hot-query cache, keyed on content fingerprint and the
  // engine's current data generation — a hit is provably mutation-fresh.
  const uint64_t generation = searcher_->DataGeneration();
  if (auto cached = cache_.Lookup(fingerprint, generation)) {
    ++stats_.cache_hits;
    lock.unlock();
    SearchResult result;
    result.queries = std::move(*cached);
    result.profile.cache_hits = num_queries;
    result.cumulative = result.profile;
    done(std::move(result));
    return;
  }

  // Short-circuit 2: attach to an identical submission that is still
  // queued. Executing leaders are deliberately not joinable — their batch
  // may straddle a mutation this submission must observe.
  if (options_.dedup_inflight) {
    auto leader = inflight_.find(fingerprint);
    if (leader != inflight_.end()) {
      auto pending = pending_.find(leader->second);
      if (pending != pending_.end()) {
        ++stats_.dedup_followers;
        pending->second->followers.push_back(std::move(done));
        return;
      }
      inflight_.erase(leader);  // stale entry: leader already dispatched
    }
  }

  const uint64_t handle = next_handle_++;
  const Status admitted = fairness_.Admit(request.tenant, handle, num_queries);
  if (!admitted.ok()) {
    ++stats_.rejected;
    lock.unlock();
    done(admitted);
    return;
  }
  ++stats_.cache_misses;

  auto sub = std::make_unique<Submission>();
  sub->handle = handle;
  sub->fingerprint = fingerprint;
  sub->request = request;
  sub->num_queries = num_queries;
  sub->enqueued = Clock::now();
  sub->done = std::move(done);
  pending_.emplace(handle, std::move(sub));
  if (options_.dedup_inflight) inflight_[fingerprint] = handle;
  pending_queries_ += num_queries;
  // Notify before unlocking: once mu_ is released a concurrent destructor
  // may orphan this submission and destroy work_cv_.
  work_cv_.notify_all();
}

void RequestScheduler::DispatcherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (stop_) return;
    if (pending_.empty()) {
      work_cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      continue;
    }
    const uint32_t target = TargetBatch();
    if (pending_queries_ < target) {
      // Continuous batching's latency knob: wait for more work, but never
      // past the oldest admission's deadline.
      Clock::time_point oldest = Clock::time_point::max();
      for (const auto& [handle, sub] : pending_)
        oldest = std::min(oldest, sub->enqueued);
      const auto deadline =
          oldest + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           std::max(options_.max_queue_delay_s, 0.0)));
      if (Clock::now() < deadline) {
        work_cv_.wait_until(lock, deadline, [this, target] {
          return stop_ || pending_queries_ >= target;
        });
        continue;  // re-evaluate: filled, timed out, or stopping
      }
    }

    const std::vector<uint64_t> handles = fairness_.NextBatch(target);
    if (handles.empty()) continue;
    std::vector<std::unique_ptr<Submission>> batch;
    batch.reserve(handles.size());
    for (uint64_t handle : handles) {
      auto it = pending_.find(handle);
      if (it == pending_.end()) continue;
      // From here on the leader is executing: identical new arrivals must
      // become fresh leaders (see dedup note in the header).
      auto leader = inflight_.find(it->second->fingerprint);
      if (leader != inflight_.end() && leader->second == handle)
        inflight_.erase(leader);
      pending_queries_ -= it->second->num_queries;
      batch.push_back(std::move(it->second));
      pending_.erase(it);
    }
    if (batch.empty()) continue;
    lock.unlock();
    ExecuteBatch(std::move(batch));
    lock.lock();
  }
}

void RequestScheduler::ExecuteBatch(
    std::vector<std::unique_ptr<Submission>> batch) {
  // Generation is captured before execution: if a mutation lands while the
  // batch runs, these answers are cached under the pre-mutation generation
  // and the next lookup (seeing the bumped generation) misses.
  const uint64_t generation = searcher_->DataGeneration();
  const Clock::time_point started = Clock::now();

  Result<SearchResult> executed = [&]() -> Result<SearchResult> {
    if (batch.size() == 1) return searcher_->Search(batch[0]->request);
    MergedPayload payload;
    const SearchRequest merged = MergeRequests(batch, &payload);
    return searcher_->Search(merged);
  }();

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches;
    stats_.coalesced_requests += batch.size();
    for (const auto& sub : batch) {
      stats_.executed_queries += sub->num_queries;
      const double waited = SecondsBetween(sub->enqueued, started);
      stats_.total_queue_seconds += waited;
      stats_.max_queue_seconds = std::max(stats_.max_queue_seconds, waited);
    }
  }

  if (!executed.ok()) {
    for (auto& sub : batch) {
      for (auto& follower : sub->followers) follower(executed.status());
      sub->done(executed.status());
    }
    return;
  }

  // Demux: slice the batch answer back into per-submission results, in the
  // admission order the payloads were concatenated in.
  SearchResult& whole = *executed;
  size_t offset = 0;
  for (auto& sub : batch) {
    SearchResult part;
    part.queries.assign(
        std::make_move_iterator(whole.queries.begin() + offset),
        std::make_move_iterator(whole.queries.begin() + offset +
                                sub->num_queries));
    offset += sub->num_queries;
    part.profile = whole.profile;
    part.profile.queue_seconds = SecondsBetween(sub->enqueued, started);
    part.profile.coalesced_batch = static_cast<uint32_t>(batch.size());
    part.profile.cache_hits = 0;
    part.cumulative = whole.cumulative;
    part.cumulative.queue_seconds = part.profile.queue_seconds;
    part.cumulative.coalesced_batch = part.profile.coalesced_batch;
    cache_.Insert(sub->fingerprint, generation, part.queries);
    for (auto& follower : sub->followers) follower(part);
    sub->done(std::move(part));
  }
}

ServingStats RequestScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

namespace {

SearchRequest MergeRequests(
    const std::vector<std::unique_ptr<RequestScheduler::Submission>>& batch,
    MergedPayload* payload) {
  const Modality modality = batch[0]->request.modality;
  switch (modality) {
    case Modality::kPoints: {
      uint32_t rows = 0;
      for (const auto& sub : batch)
        rows += sub->request.points->num_points();
      payload->points =
          data::PointMatrix(rows, batch[0]->request.points->dim());
      uint32_t row = 0;
      for (const auto& sub : batch) {
        const data::PointMatrix& src = *sub->request.points;
        for (uint32_t i = 0; i < src.num_points(); ++i, ++row) {
          const std::span<const float> from = src.row(i);
          std::copy(from.begin(), from.end(),
                    payload->points.mutable_row(row).begin());
        }
      }
      return SearchRequest::Points(payload->points);
    }
    case Modality::kSets:
      for (const auto& sub : batch)
        payload->sets.insert(payload->sets.end(), sub->request.sets.begin(),
                             sub->request.sets.end());
      return SearchRequest::Sets(payload->sets);
    case Modality::kSequences:
      for (const auto& sub : batch)
        payload->sequences.insert(payload->sequences.end(),
                                  sub->request.sequences.begin(),
                                  sub->request.sequences.end());
      return SearchRequest::Sequences(payload->sequences);
    case Modality::kDocuments:
      for (const auto& sub : batch)
        payload->documents.insert(payload->documents.end(),
                                  sub->request.documents.begin(),
                                  sub->request.documents.end());
      return SearchRequest::Documents(payload->documents);
    case Modality::kRelational:
      for (const auto& sub : batch)
        payload->ranges.insert(payload->ranges.end(),
                               sub->request.ranges.begin(),
                               sub->request.ranges.end());
      return SearchRequest::Ranges(payload->ranges);
    case Modality::kCompiled:
      for (const auto& sub : batch)
        payload->compiled.insert(payload->compiled.end(),
                                 sub->request.compiled.begin(),
                                 sub->request.compiled.end());
      return SearchRequest::Compiled(payload->compiled);
  }
  return batch[0]->request;  // unreachable
}

}  // namespace

}  // namespace serve
}  // namespace genie
