#pragma once

/// \file match_engine.h
/// The GENIE batch query executor (Section III-B, Fig. 3): the inverted
/// index's List Array is resident in device memory; the Position Map stays
/// on the host and resolves each query item to its (sub)postings lists; one
/// device block scans the lists of one query item (threads striding the
/// list), updating the query's c-PQ (Algorithm 1); selection then scans the
/// small hash table once (Theorem 3.1) — or, in the GEN-SPQ configuration,
/// updates a full Count Table and runs SPQ bucket selection (Appendix A).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/count_priority_queue.h"
#include "core/query.h"
#include "index/inverted_index.h"
#include "sim/device.h"

namespace genie {

struct MatchEngineOptions {
  /// Number of results per query.
  uint32_t k = 100;

  /// Upper bound on any object's match count for one query (determines the
  /// Bitmap Counter width and the ZipperArray size). 0 = derive per batch as
  /// the maximum number of query items, which is exact whenever one item
  /// can match an object at most once (true for LSH signatures, relational
  /// attributes, ordered n-grams and document words).
  uint32_t max_count = 0;

  enum class Selector {
    kCpq,            // GENIE: c-PQ + single hash-table scan
    kCountTableSpq,  // GEN-SPQ: full Count Table + bucket k-selection
    /// Packed Bitmap Counter + bucket k-selection directly over the packed
    /// counters: no gate, no hash table — immune to c-PQ hash-table
    /// pressure/overflow at the cost of a full counter scan per query.
    /// The planner promotes a kCpq configuration to this when observed
    /// overflows or per-selector select rates say the hash table dominates.
    kBucketSelect,
  };
  Selector selector = Selector::kCpq;

  /// Hash-table capacity multiplier over k * max_count (c-PQ only).
  uint32_t ht_slack = 2;
  /// Hard cap on the per-query hash-table slot count, rounded to a power of
  /// two (c-PQ only; testing/ablation). CapacityFor sizes the table past
  /// the Gate's k-per-level promotion bound, so without a cap the overflow
  /// escalation path cannot be reached deterministically. 0 = no cap.
  uint32_t ht_capacity_cap = 0;
  /// The modified-Robin-Hood expired-entry overwrite (ablation switch).
  bool robin_hood_expire = true;

  /// Threads per block for the scan kernel. On the simulator, threads of a
  /// block execute sequentially on one worker, so a small block_dim keeps
  /// per-thread dispatch overhead proportional to useful work.
  uint32_t block_dim = 8;
  /// Max (sub)lists one block takes (paper: 2 when load balancing). 0 = all
  /// lists of an item in one block.
  uint32_t max_lists_per_block = 0;

  /// Collect hash-table probe statistics (small overhead).
  bool collect_ht_stats = false;

  /// Device to run on; nullptr = sim::Device::Default().
  sim::Device* device = nullptr;
};

/// Wall-clock seconds and transfer volumes per stage (Table I / Table III).
struct MatchProfile {
  double index_transfer_s = 0;
  double query_transfer_s = 0;
  double match_s = 0;
  double select_s = 0;
  /// Seconds spent in the prepare stage (Position-Map resolution + task
  /// staging). These seconds are also counted in query_transfer_s — the
  /// prepare stage IS the query-transfer work, split out so the streaming
  /// pipeline can report how much of it was overlappable.
  double prepare_s = 0;
  uint64_t index_bytes = 0;
  uint64_t query_bytes = 0;
  uint64_t result_bytes = 0;
  HashTableStats ht_stats;

  double total_query_s() const { return query_transfer_s + match_s + select_s; }
  void Accumulate(const MatchProfile& other);
  /// Inverse of Accumulate: removes an earlier snapshot, leaving the costs
  /// incurred since it was taken (per-batch / per-Search deltas).
  void Subtract(const MatchProfile& earlier);
};

/// Host half of the prepare stage: every query item resolved through the
/// Position Map into the flattened block work list. Task t owns ranges
/// [range_offsets[t], range_offsets[t+1]) of the (begin, end) arrays and
/// contributes to query task_query[t]. Building one is pure host work
/// (no device memory), so the multi-load tier can prepare the next chunk's
/// task lists while the device is busy.
struct MatchTaskList {
  std::vector<uint32_t> task_query;
  std::vector<uint32_t> range_offsets;  // task count + 1
  std::vector<uint32_t> range_begin;
  std::vector<uint32_t> range_end;
  uint32_t num_queries = 0;
  /// The per-batch count bound (options.max_count, or derived from the
  /// batch when that is 0).
  uint32_t max_count = 0;
  /// True when every query maps to at most one task (the unsplit default
  /// schedule). Each query's counter arena then has exactly one writer
  /// block, so the match kernels may use the non-atomic (exclusive) SIMD
  /// arms. Load-balance splitting (max_lists_per_block > 0) clears it.
  bool single_writer = false;
  /// Host-side resolution seconds (folded into the profile at execute).
  double build_s = 0;

  uint32_t num_tasks() const {
    return static_cast<uint32_t>(task_query.size());
  }
  uint64_t SizeBytes() const {
    return (task_query.size() + range_offsets.size() + range_begin.size() +
            range_end.size()) *
           sizeof(uint32_t);
  }
};

/// Executes batches of match-count queries against one inverted index that
/// has been shipped to the device.
class MatchEngine {
 public:
  /// Transfers the index's List Array to the device (profiled as
  /// "index transfer"). The index must outlive the engine. Fails with
  /// ResourceExhausted when the List Array does not fit in device memory —
  /// the signal to use multiple loading (PartitionedEngine, swapped).
  static Result<std::unique_ptr<MatchEngine>> Create(
      const InvertedIndex* index, const MatchEngineOptions& options);
  /// Shared-ownership variant: the engine keeps `index` alive, so an index
  /// generation a hot-swap retired dies with the last engine reading it.
  static Result<std::unique_ptr<MatchEngine>> Create(
      std::shared_ptr<const InvertedIndex> index,
      const MatchEngineOptions& options);

  /// Runs one batch; returns one result per query, each with up to k
  /// entries in descending match-count order. Equivalent to
  /// ExecuteStaged(Prepare(queries), excluded).
  Result<std::vector<QueryResult>> ExecuteBatch(
      std::span<const Query> queries,
      std::span<const ObjectId> excluded = {});

  /// Device half of the prepare stage: one batch's task list uploaded to
  /// this engine's device, plus everything ExecuteStaged needs to run
  /// without re-reading the queries. Holds device memory (tagged as
  /// staging via sim::StagingLease) until executed or destroyed. Its
  /// prepare costs ride along and are folded into the engine profile only
  /// when the batch executes, so a concurrent Prepare never races the
  /// profile of an executing batch.
  struct StagedBatch {
    uint32_t num_queries = 0;
    uint32_t max_count = 0;
    uint32_t num_tasks = 0;
    bool single_writer = false;
    sim::DeviceBuffer<uint32_t> task_query;
    sim::DeviceBuffer<uint32_t> range_offsets;
    sim::DeviceBuffer<uint32_t> range_begin;
    sim::DeviceBuffer<uint32_t> range_end;
    sim::StagingLease lease;
    uint64_t query_bytes = 0;
    double prepare_s = 0;
  };

  /// Host resolution only (shared with the swapped PartitionedEngine's
  /// prepare, which resolves against parts whose engines do not exist yet).
  static MatchTaskList ResolveTasks(const InvertedIndex& index,
                                    std::span<const Query> queries,
                                    const MatchEngineOptions& options);

  /// Uploads a resolved task list to the device. Thread-safe against a
  /// concurrent ExecuteStaged/ExecuteBatch on this engine: it only reads
  /// immutable engine state and allocates fresh device buffers. Fails with
  /// ResourceExhausted when the staging buffers do not fit beside the
  /// resident index (the caller's cue to fall back to unpipelined
  /// execution).
  Result<StagedBatch> Stage(const MatchTaskList& tasks);

  /// ResolveTasks + Stage.
  Result<StagedBatch> Prepare(std::span<const Query> queries);

  /// Runs the match + select stages of a staged batch, consuming it (the
  /// staging memory is released when execution returns, exactly as the
  /// task buffers of an unpipelined ExecuteBatch are).
  ///
  /// `excluded` (sorted, this engine's local id space; ids past the index
  /// are ignored) names objects no result may contain — the delta layer's
  /// tombstones. It is uploaded as a device bitmap (counted as query
  /// transfer) and applied inside the select stage: the c-PQ never promotes
  /// an excluded id, the full-scan selectors read its count as zero. Every
  /// query still gets the exact top-k of the remaining objects.
  Result<std::vector<QueryResult>> ExecuteStaged(
      StagedBatch staged, std::span<const ObjectId> excluded = {});

  const MatchProfile& profile() const { return profile_; }
  void ResetProfile() { profile_ = MatchProfile{}; }

  const InvertedIndex& index() const { return *index_; }
  const MatchEngineOptions& options() const { return options_; }
  sim::Device* device() const { return device_; }

  /// Device memory one query occupies in a batch (Table IV): c-PQ layout
  /// bytes vs a full count-table row.
  static uint64_t DeviceBytesPerQuery(uint32_t num_objects,
                                      const MatchEngineOptions& options,
                                      uint32_t max_count);

  /// The per-batch count bound used when options.max_count == 0.
  static uint32_t DeriveMaxCount(std::span<const Query> queries);

  /// True when `status` is the c-PQ hash-table overflow signal (a
  /// ResourceExhausted distinct from memory exhaustion): the cost model
  /// records it so the planner can promote the batch to kBucketSelect,
  /// whose select stage has no hash table to overflow.
  static bool IsCpqOverflow(const Status& status);

 private:
  MatchEngine(const InvertedIndex* index, const MatchEngineOptions& options,
              sim::Device* device);

  Status TransferIndex();

  const InvertedIndex* index_;
  /// Set by the shared-ownership Create; null when the caller owns index_.
  std::shared_ptr<const InvertedIndex> index_owner_;
  MatchEngineOptions options_;
  sim::Device* device_;
  sim::DeviceBuffer<ObjectId> device_postings_;
  MatchProfile profile_;
};

}  // namespace genie
