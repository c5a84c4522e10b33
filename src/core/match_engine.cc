#include "core/match_engine.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "baselines/bucket_kselect.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/count_table.h"

namespace genie {
namespace {

/// Postings consumed per batched counter-update call inside the match
/// kernel; the per-lane value scratch (1 KiB) stays on the stack. Batching
/// moves no promotion: each lane's post-increment value is the one it would
/// have read in order, and CpqView::UpdateBatch's gate pass checks the
/// lanes in order against the current AT, so on the single-writer schedule
/// every lane sees exactly the AT of the same postings fed one at a time
/// through CpqView::Update. (Under the split schedule, blocks sharing a
/// c-PQ interleave their updates either way.)
constexpr uint32_t kMatchBatch = 256;

constexpr std::string_view kCpqOverflowMessage =
    "c-PQ hash table overflow; increase MatchEngineOptions::ht_slack";

/// Shared select stage for the full-scan selectors (GEN-SPQ count table and
/// kBucketSelect packed counters): one block per query runs bucket
/// k-selection over that query's counters, entries ship back packed as
/// (id, count) words, and trailing zero-count padding is dropped so the
/// result semantics match the c-PQ path. `make_count_for_query(q)` returns
/// the ObjectId -> count accessor for query q's counter row. Ids in a
/// non-empty `excluded` mask read as zero, so selection skips them.
template <typename MakeCountFn>
Status BucketSelectAndFinalize(sim::Device* device, uint32_t num_queries,
                               uint32_t n, uint32_t k, ExcludedMask excluded,
                               MakeCountFn&& make_count_for_query,
                               std::vector<QueryResult>* results,
                               MatchProfile* profile) {
  sim::DeviceBuffer<uint64_t> d_out;
  sim::DeviceBuffer<uint32_t> d_out_size;
  GENIE_ASSIGN_OR_RETURN(
      d_out, sim::DeviceBuffer<uint64_t>::Allocate(
                 device, static_cast<uint64_t>(k) * num_queries,
                 /*zero_init=*/false));
  GENIE_ASSIGN_OR_RETURN(
      d_out_size, sim::DeviceBuffer<uint32_t>::Allocate(device, num_queries));
  uint64_t* out_base = d_out.data();
  uint32_t* out_size_base = d_out_size.data();
  GENIE_RETURN_NOT_OK(
      device->Launch({num_queries, 1}, [&](const sim::ThreadCtx& ctx) {
        const uint32_t q = ctx.block_idx;
        auto count_of = make_count_for_query(q);
        auto top = excluded.empty()
                       ? baselines::BucketKSelectWith(count_of, n, k)
                       : baselines::BucketKSelectWith(
                             [&](ObjectId id) -> uint32_t {
                               return excluded.Contains(id) ? 0 : count_of(id);
                             },
                             n, k);
        uint64_t* out = out_base + static_cast<uint64_t>(q) * k;
        for (size_t i = 0; i < top.size(); ++i) {
          out[i] = CpqHashTableView::MakeEntry(top[i].id, top[i].count);
        }
        out_size_base[q] = static_cast<uint32_t>(top.size());
      }));
  std::vector<uint32_t> sizes(num_queries);
  GENIE_RETURN_NOT_OK(d_out_size.CopyToHost(sizes.data(), num_queries));
  std::vector<uint64_t> row(k);
  for (uint32_t q = 0; q < num_queries; ++q) {
    GENIE_RETURN_NOT_OK(d_out.CopyToHost(row.data(), sizes[q],
                                         static_cast<uint64_t>(q) * k));
    profile->result_bytes += sizes[q] * sizeof(uint64_t);
    QueryResult& result = (*results)[q];
    for (uint32_t i = 0; i < sizes[q]; ++i) {
      result.entries.push_back({CpqHashTableView::EntryId(row[i]),
                                CpqHashTableView::EntryCount(row[i])});
    }
    // Drop trailing zero-count padding so semantics match the c-PQ path
    // (objects that matched nothing are not results).
    while (!result.entries.empty() && result.entries.back().count == 0) {
      result.entries.pop_back();
    }
    result.threshold = TopKThreshold(result.entries, k);
  }
  return Status::OK();
}

}  // namespace
}  // namespace genie

namespace genie {

void MatchProfile::Accumulate(const MatchProfile& other) {
  index_transfer_s += other.index_transfer_s;
  query_transfer_s += other.query_transfer_s;
  match_s += other.match_s;
  select_s += other.select_s;
  prepare_s += other.prepare_s;
  index_bytes += other.index_bytes;
  query_bytes += other.query_bytes;
  result_bytes += other.result_bytes;
  ht_stats.upserts += other.ht_stats.upserts;
  ht_stats.probes += other.ht_stats.probes;
  ht_stats.displacements += other.ht_stats.displacements;
  ht_stats.expired_overwrites += other.ht_stats.expired_overwrites;
  ht_stats.overflows += other.ht_stats.overflows;
}

void MatchProfile::Subtract(const MatchProfile& earlier) {
  index_transfer_s -= earlier.index_transfer_s;
  query_transfer_s -= earlier.query_transfer_s;
  match_s -= earlier.match_s;
  select_s -= earlier.select_s;
  prepare_s -= earlier.prepare_s;
  index_bytes -= earlier.index_bytes;
  query_bytes -= earlier.query_bytes;
  result_bytes -= earlier.result_bytes;
  ht_stats.upserts -= earlier.ht_stats.upserts;
  ht_stats.probes -= earlier.ht_stats.probes;
  ht_stats.displacements -= earlier.ht_stats.displacements;
  ht_stats.expired_overwrites -= earlier.ht_stats.expired_overwrites;
  ht_stats.overflows -= earlier.ht_stats.overflows;
}

MatchEngine::MatchEngine(const InvertedIndex* index,
                         const MatchEngineOptions& options,
                         sim::Device* device)
    : index_(index), options_(options), device_(device) {}

Result<std::unique_ptr<MatchEngine>> MatchEngine::Create(
    std::shared_ptr<const InvertedIndex> index,
    const MatchEngineOptions& options) {
  GENIE_ASSIGN_OR_RETURN(std::unique_ptr<MatchEngine> engine,
                         Create(index.get(), options));
  engine->index_owner_ = std::move(index);
  return engine;
}

Result<std::unique_ptr<MatchEngine>> MatchEngine::Create(
    const InvertedIndex* index, const MatchEngineOptions& options) {
  if (index == nullptr) return Status::InvalidArgument("index is null");
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (options.block_dim == 0) {
    return Status::InvalidArgument("block_dim must be >= 1");
  }
  sim::Device* device =
      options.device != nullptr ? options.device : sim::Device::Default();
  std::unique_ptr<MatchEngine> engine(
      new MatchEngine(index, options, device));
  GENIE_RETURN_NOT_OK(engine->TransferIndex());
  return engine;
}

Status MatchEngine::TransferIndex() {
  ScopedTimer timer(&profile_.index_transfer_s);
  auto postings = index_->postings();
  GENIE_ASSIGN_OR_RETURN(
      device_postings_,
      sim::DeviceBuffer<ObjectId>::Allocate(device_, postings.size()));
  GENIE_RETURN_NOT_OK(
      device_postings_.CopyFromHost(postings.data(), postings.size()));
  profile_.index_bytes += postings.size() * sizeof(ObjectId);
  return Status::OK();
}

uint32_t MatchEngine::DeriveMaxCount(std::span<const Query> queries) {
  uint32_t bound = 1;
  for (const Query& q : queries) bound = std::max(bound, q.num_items());
  return bound;
}

uint64_t MatchEngine::DeviceBytesPerQuery(uint32_t num_objects,
                                          const MatchEngineOptions& options,
                                          uint32_t max_count) {
  if (options.selector == MatchEngineOptions::Selector::kCpq) {
    const CpqLayout layout =
        CpqLayout::Make(num_objects, options.k, max_count, options.ht_slack,
                        options.ht_capacity_cap);
    // Selection also stages candidates + a cursor on the device.
    return layout.DeviceBytes() +
           static_cast<uint64_t>(layout.ht_capacity) * sizeof(uint64_t) +
           sizeof(uint32_t);
  }
  if (options.selector == MatchEngineOptions::Selector::kBucketSelect) {
    // Packed counters plus the k output slots and their size word.
    const uint32_t bits = BitmapCounterView::ChooseBits(max_count);
    return BitmapCounterView::WordsRequired(num_objects, bits) *
               sizeof(uint32_t) +
           static_cast<uint64_t>(options.k) * sizeof(uint64_t) +
           sizeof(uint32_t);
  }
  // GEN-SPQ: a full count-table row plus the k output slots.
  return CountTableView::DeviceBytes(num_objects) +
         static_cast<uint64_t>(options.k) * sizeof(uint64_t) +
         sizeof(uint32_t);
}

bool MatchEngine::IsCpqOverflow(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted &&
         status.message() == kCpqOverflowMessage;
}

MatchTaskList MatchEngine::ResolveTasks(const InvertedIndex& index,
                                        std::span<const Query> queries,
                                        const MatchEngineOptions& options) {
  MatchTaskList tasks;
  ScopedTimer timer(&tasks.build_s);
  tasks.num_queries = static_cast<uint32_t>(queries.size());
  tasks.max_count =
      options.max_count > 0 ? options.max_count : DeriveMaxCount(queries);
  tasks.range_offsets.push_back(0);
  // Unsplit default: ONE task per query, covering every item's lists. That
  // makes the query's counter arena single-writer (a block's threads run on
  // one worker), so the kernels can take the non-atomic SIMD arms — match
  // counts are sums over the same posting multiset regardless of task
  // grouping. Load balancing (max_lists_per_block > 0, paper Fig. 12)
  // splits an item's lists across blocks and keeps the atomic arms.
  tasks.single_writer = options.max_lists_per_block == 0;
  const auto postings = index.postings();
  std::vector<InvertedIndex::ListRef> item_lists;
  const auto sort_by_first_posting = [&](std::vector<InvertedIndex::ListRef>&
                                             lists) {
    // Cache-block the match traversal: order the lists a block scans
    // back-to-back by their first posting's object id, so consecutive
    // lists touch neighbouring counter words and the per-query counter
    // working set stays cache-resident. Deterministic (stable,
    // value-keyed), so every dispatch arm sees the identical traversal.
    std::stable_sort(lists.begin(), lists.end(),
                     [&](const InvertedIndex::ListRef& a,
                         const InvertedIndex::ListRef& b) {
                       return postings[a.begin] < postings[b.begin];
                     });
  };
  const auto emit_task = [&](uint32_t q,
                             std::span<const InvertedIndex::ListRef> lists) {
    tasks.task_query.push_back(q);
    for (const auto& ref : lists) {
      tasks.range_begin.push_back(ref.begin);
      tasks.range_end.push_back(ref.end);
    }
    tasks.range_offsets.push_back(
        static_cast<uint32_t>(tasks.range_begin.size()));
  };
  for (uint32_t q = 0; q < queries.size(); ++q) {
    const Query& query = queries[q];
    if (tasks.single_writer) {
      item_lists.clear();
      for (uint32_t i = 0; i < query.num_items(); ++i) {
        for (Keyword kw : query.item(i)) {
          auto [first, count] = index.KeywordLists(kw);
          for (uint32_t l = 0; l < count; ++l) {
            const auto ref = index.List(first + l);
            if (ref.length() > 0) item_lists.push_back(ref);
          }
        }
      }
      if (item_lists.empty()) continue;
      sort_by_first_posting(item_lists);
      emit_task(q, item_lists);
      continue;
    }
    for (uint32_t i = 0; i < query.num_items(); ++i) {
      item_lists.clear();
      for (Keyword kw : query.item(i)) {
        auto [first, count] = index.KeywordLists(kw);
        for (uint32_t l = 0; l < count; ++l) {
          const auto ref = index.List(first + l);
          if (ref.length() > 0) item_lists.push_back(ref);
        }
      }
      if (item_lists.empty()) continue;
      sort_by_first_posting(item_lists);
      const uint32_t chunk = options.max_lists_per_block;
      for (size_t pos = 0; pos < item_lists.size(); pos += chunk) {
        const size_t end = std::min(pos + chunk, item_lists.size());
        emit_task(q, std::span<const InvertedIndex::ListRef>(
                         item_lists.data() + pos, end - pos));
      }
    }
  }
  return tasks;
}

Result<MatchEngine::StagedBatch> MatchEngine::Stage(
    const MatchTaskList& tasks) {
  if (tasks.num_queries == 0) {
    return Status::InvalidArgument("empty query batch");
  }
  StagedBatch staged;
  staged.prepare_s = tasks.build_s;
  {
    ScopedTimer timer(&staged.prepare_s);
    staged.num_queries = tasks.num_queries;
    staged.max_count = tasks.max_count;
    staged.num_tasks = tasks.num_tasks();
    staged.single_writer = tasks.single_writer;
    staged.query_bytes = tasks.SizeBytes();
    GENIE_ASSIGN_OR_RETURN(staged.task_query,
                           sim::DeviceBuffer<uint32_t>::Allocate(
                               device_, tasks.task_query.size()));
    GENIE_RETURN_NOT_OK(staged.task_query.CopyFromHost(tasks.task_query));
    GENIE_ASSIGN_OR_RETURN(staged.range_offsets,
                           sim::DeviceBuffer<uint32_t>::Allocate(
                               device_, tasks.range_offsets.size()));
    GENIE_RETURN_NOT_OK(
        staged.range_offsets.CopyFromHost(tasks.range_offsets));
    GENIE_ASSIGN_OR_RETURN(staged.range_begin,
                           sim::DeviceBuffer<uint32_t>::Allocate(
                               device_, tasks.range_begin.size()));
    GENIE_RETURN_NOT_OK(staged.range_begin.CopyFromHost(tasks.range_begin));
    GENIE_ASSIGN_OR_RETURN(staged.range_end,
                           sim::DeviceBuffer<uint32_t>::Allocate(
                               device_, tasks.range_end.size()));
    GENIE_RETURN_NOT_OK(staged.range_end.CopyFromHost(tasks.range_end));
    staged.lease = sim::StagingLease(device_, staged.query_bytes);
  }
  return staged;
}

Result<MatchEngine::StagedBatch> MatchEngine::Prepare(
    std::span<const Query> queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("empty query batch");
  }
  return Stage(ResolveTasks(*index_, queries, options_));
}

Result<std::vector<QueryResult>> MatchEngine::ExecuteBatch(
    std::span<const Query> queries, std::span<const ObjectId> excluded) {
  GENIE_ASSIGN_OR_RETURN(StagedBatch staged, Prepare(queries));
  return ExecuteStaged(std::move(staged), excluded);
}

Result<std::vector<QueryResult>> MatchEngine::ExecuteStaged(
    StagedBatch staged, std::span<const ObjectId> excluded) {
  if (staged.num_queries == 0) {
    return Status::InvalidArgument("empty query batch");
  }
  if (options_.k == 0) return Status::InvalidArgument("k must be >= 1");
  const uint32_t num_queries = staged.num_queries;
  std::vector<QueryResult> results(num_queries);

  const uint32_t n = index_->num_objects();
  const uint32_t max_count = staged.max_count;

  // The staged prepare costs are folded in here — not at Prepare time — so
  // a look-ahead Prepare never races the profile of an executing batch, and
  // a cancelled (never-executed) staged chunk leaves no trace.
  profile_.query_transfer_s += staged.prepare_s;
  profile_.prepare_s += staged.prepare_s;
  profile_.query_bytes += staged.query_bytes;

  // The chunk is now executing, not staged: drop the staging classification
  // (the buffers themselves stay allocated until this batch completes), so
  // Device::staging_bytes() counts only the look-ahead chunk.
  staged.lease = sim::StagingLease();

  // The batch's excluded ids as a device bitmap. Sorted input, so the
  // front decides whether any id falls inside this engine's id space.
  sim::DeviceBuffer<uint32_t> d_excluded;
  ExcludedMask mask;
  if (!excluded.empty() && excluded.front() < n) {
    ScopedTimer timer(&profile_.query_transfer_s);
    const std::vector<uint32_t> words = ExcludedMask::Build(excluded, n);
    GENIE_ASSIGN_OR_RETURN(d_excluded, sim::DeviceBuffer<uint32_t>::Allocate(
                                           device_, words.size(),
                                           /*zero_init=*/false));
    GENIE_RETURN_NOT_OK(d_excluded.CopyFromHost(words));
    profile_.query_bytes += words.size() * sizeof(uint32_t);
    mask = ExcludedMask(d_excluded.data());
  }

  const ObjectId* postings = device_postings_.data();
  const uint32_t* task_query = staged.task_query.data();
  const uint32_t* range_offsets = staged.range_offsets.data();
  const uint32_t* range_begin = staged.range_begin.data();
  const uint32_t* range_end = staged.range_end.data();
  const uint32_t num_tasks = staged.num_tasks;
  const uint32_t block_dim = options_.block_dim;
  std::atomic<bool> overflow{false};
  HashTableStats* stats =
      options_.collect_ht_stats ? &profile_.ht_stats : nullptr;

  if (options_.selector == MatchEngineOptions::Selector::kCpq) {
    const CpqLayout layout =
        CpqLayout::Make(n, options_.k, max_count, options_.ht_slack,
                        options_.ht_capacity_cap);

    // Per-query c-PQ arenas, carved from batch-wide device buffers.
    sim::DeviceBuffer<uint32_t> d_bitmap, d_zipper, d_audit;
    sim::DeviceBuffer<uint64_t> d_slots;
    {
      ScopedTimer timer(&profile_.match_s);
      GENIE_ASSIGN_OR_RETURN(
          d_bitmap, sim::DeviceBuffer<uint32_t>::Allocate(
                        device_, layout.bitmap_words * num_queries));
      GENIE_ASSIGN_OR_RETURN(
          d_zipper, sim::DeviceBuffer<uint32_t>::Allocate(
                        device_, layout.zipper_entries * num_queries));
      GENIE_ASSIGN_OR_RETURN(
          d_audit, sim::DeviceBuffer<uint32_t>::Allocate(device_, num_queries));
      GENIE_ASSIGN_OR_RETURN(
          d_slots, sim::DeviceBuffer<uint64_t>::Allocate(
                       device_, static_cast<uint64_t>(layout.ht_capacity) *
                                    num_queries));
      const std::vector<uint32_t> initial_at(
          num_queries, GateView::kInitialAuditThreshold);
      GENIE_RETURN_NOT_OK(d_audit.CopyFromHost(initial_at));
    }
    uint32_t* bitmap_base = d_bitmap.data();
    uint32_t* zipper_base = d_zipper.data();
    uint32_t* audit_base = d_audit.data();
    uint64_t* slots_base = d_slots.data();
    const bool rh_expire = options_.robin_hood_expire;
    const uint32_t k = options_.k;
    auto cpq_for = [=](uint32_t q) {
      return CpqView(
          BitmapCounterView(bitmap_base + q * layout.bitmap_words,
                            layout.counter_bits, max_count),
          GateView(zipper_base + q * layout.zipper_entries, audit_base + q,
                   k, max_count),
          CpqHashTableView(slots_base +
                               static_cast<uint64_t>(q) * layout.ht_capacity,
                           layout.ht_capacity),
          rh_expire, mask);
    };

    // --- Stage: match (scan postings lists, Algorithm 1 per posting,
    // batched through the runtime-dispatched SIMD counter kernels). -------
    const simd::Ops& ops = simd::ActiveOps();
    const bool exclusive = staged.single_writer;
    // One kernel variant per launch: the masked one only when the batch
    // excludes ids, so the common path has no per-posting mask test.
    auto match_kernel = [&](auto masked) {
      return device_->Launch(
          {num_tasks, block_dim}, [&](const sim::ThreadCtx& ctx) {
            // Threads of a sim block run sequentially on one worker, so
            // one contiguous pass by a single thread beats splitting the
            // range: full-length batches for the vector arms and an
            // unbroken postings read stream.
            if (ctx.thread_idx != 0) return;
            const uint32_t t = ctx.block_idx;
            CpqView cpq = cpq_for(task_query[t]);
            uint32_t vals[kMatchBatch];
            for (uint32_t r = range_offsets[t]; r < range_offsets[t + 1];
                 ++r) {
              for (uint32_t pos = range_begin[r]; pos < range_end[r];
                   pos += kMatchBatch) {
                const uint32_t len =
                    std::min(kMatchBatch, range_end[r] - pos);
                if (!cpq.template UpdateBatch<decltype(masked)::value>(
                        ops, postings + pos, len, vals, stats, exclusive)) {
                  overflow.store(true, std::memory_order_relaxed);
                }
              }
            }
          });
    };
    {
      ScopedTimer timer(&profile_.match_s);
      GENIE_RETURN_NOT_OK(mask.empty() ? match_kernel(std::false_type{})
                                       : match_kernel(std::true_type{}));
    }
    if (overflow.load()) {
      return Status::ResourceExhausted(std::string(kCpqOverflowMessage));
    }

    // --- Stage: select (single scan of each hash table, Theorem 3.1). ------
    {
      ScopedTimer timer(&profile_.select_s);
      sim::DeviceBuffer<uint64_t> d_cand;
      sim::DeviceBuffer<uint32_t> d_cursor;
      GENIE_ASSIGN_OR_RETURN(
          d_cand,
          sim::DeviceBuffer<uint64_t>::Allocate(
              device_,
              static_cast<uint64_t>(layout.ht_capacity) * num_queries,
              /*zero_init=*/false));
      GENIE_ASSIGN_OR_RETURN(d_cursor, sim::DeviceBuffer<uint32_t>::Allocate(
                                           device_, num_queries));
      uint64_t* cand_base = d_cand.data();
      uint32_t* cursor_base = d_cursor.data();
      GENIE_RETURN_NOT_OK(device_->Launch(
          {num_queries, block_dim}, [&](const sim::ThreadCtx& ctx) {
            const uint32_t q = ctx.block_idx;
            CpqView cpq = cpq_for(q);
            const uint32_t threshold = cpq.gate().SelectThreshold();
            const CpqHashTableView& ht = cpq.table();
            uint64_t* out =
                cand_base + static_cast<uint64_t>(q) * layout.ht_capacity;
            std::atomic_ref<uint32_t> cursor(cursor_base[q]);
            for (uint32_t slot = ctx.thread_idx; slot < ht.capacity();
                 slot += ctx.block_dim) {
              const uint64_t e = ht.LoadSlot(slot);
              if (e == CpqHashTableView::kEmpty) continue;
              if (CpqHashTableView::EntryCount(e) < threshold) continue;
              out[cursor.fetch_add(1, std::memory_order_relaxed)] = e;
            }
          }));

      // Ship candidates back and finalize on the host (dedupe + order),
      // parallelized over queries.
      std::vector<uint32_t> cursors(num_queries);
      GENIE_RETURN_NOT_OK(d_cursor.CopyToHost(cursors.data(), num_queries));
      profile_.result_bytes += num_queries * sizeof(uint32_t);
      std::atomic<uint64_t> result_bytes{0};
      const uint32_t engine_k = options_.k;
      // A device copy can fail (a real cudaMemcpy can; the sim injects
      // faults); collect the FIRST failure across the pool's workers and
      // propagate it as a Status instead of aborting the process. Later
      // workers bail out early once a failure is recorded.
      std::mutex error_mu;
      Status first_error;
      std::atomic<bool> failed{false};
      DefaultThreadPool()->ParallelFor(num_queries, [&](size_t q) {
        if (failed.load(std::memory_order_acquire)) return;
        std::vector<uint64_t> cand(cursors[q]);
        const Status copy_status = d_cand.CopyToHost(
            cand.data(), cursors[q],
            static_cast<uint64_t>(q) * layout.ht_capacity);
        if (!copy_status.ok()) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (first_error.ok()) first_error = copy_status;
          failed.store(true, std::memory_order_release);
          return;
        }
        result_bytes.fetch_add(cursors[q] * sizeof(uint64_t),
                               std::memory_order_relaxed);
        std::unordered_map<ObjectId, uint32_t> best;
        best.reserve(cand.size());
        for (uint64_t e : cand) {
          auto [it, inserted] = best.emplace(
              CpqHashTableView::EntryId(e), CpqHashTableView::EntryCount(e));
          if (!inserted && it->second < CpqHashTableView::EntryCount(e)) {
            it->second = CpqHashTableView::EntryCount(e);
          }
        }
        QueryResult& result = results[q];
        result.entries.reserve(best.size());
        for (const auto& [id, count] : best) {
          result.entries.push_back({id, count});
        }
        std::sort(result.entries.begin(), result.entries.end(),
                  [](const TopKEntry& a, const TopKEntry& b) {
                    if (a.count != b.count) return a.count > b.count;
                    return a.id < b.id;
                  });
        if (result.entries.size() > engine_k) {
          result.entries.resize(engine_k);
        }
        // A full cut's k-th count is AT - 1 (Theorem 3.1).
        result.threshold = TopKThreshold(result.entries, engine_k);
      });
      GENIE_RETURN_NOT_OK(first_error);
      profile_.result_bytes += result_bytes.load();
    }
    return results;
  }

  if (options_.selector == MatchEngineOptions::Selector::kBucketSelect) {
    // ---- Bucket-select configuration: packed Bitmap Counter (no gate, no
    // hash table) + bucket k-selection directly over the packed counters. --
    const uint32_t bits = BitmapCounterView::ChooseBits(max_count);
    const uint64_t bitmap_words = BitmapCounterView::WordsRequired(n, bits);
    const simd::Ops& ops = simd::ActiveOps();
    const auto bitmap_increment = staged.single_writer
                                      ? ops.bitmap_increment_batch_exclusive
                                      : ops.bitmap_increment_batch;
    sim::DeviceBuffer<uint32_t> d_bitmap;
    {
      ScopedTimer timer(&profile_.match_s);
      GENIE_ASSIGN_OR_RETURN(d_bitmap,
                             sim::DeviceBuffer<uint32_t>::Allocate(
                                 device_, bitmap_words * num_queries));
      uint32_t* bitmap_base = d_bitmap.data();
      GENIE_RETURN_NOT_OK(device_->Launch(
          {num_tasks, block_dim}, [&](const sim::ThreadCtx& ctx) {
            // Single contiguous pass per block, as in the c-PQ kernel.
            if (ctx.thread_idx != 0) return;
            const uint32_t t = ctx.block_idx;
            const BitmapCounterView counter(
                bitmap_base +
                    static_cast<uint64_t>(task_query[t]) * bitmap_words,
                bits, max_count);
            const simd::BitmapParams params = counter.SimdParams();
            uint32_t vals[kMatchBatch];
            for (uint32_t r = range_offsets[t]; r < range_offsets[t + 1];
                 ++r) {
              for (uint32_t pos = range_begin[r]; pos < range_end[r];
                   pos += kMatchBatch) {
                bitmap_increment(params, postings + pos,
                                 std::min(kMatchBatch, range_end[r] - pos),
                                 vals);
              }
            }
          }));
    }
    {
      ScopedTimer timer(&profile_.select_s);
      uint32_t* bitmap_base = d_bitmap.data();
      GENIE_RETURN_NOT_OK(BucketSelectAndFinalize(
          device_, num_queries, n, options_.k, mask,
          [&](uint32_t q) {
            const BitmapCounterView counter(
                bitmap_base + static_cast<uint64_t>(q) * bitmap_words, bits,
                max_count);
            return [counter](ObjectId id) { return counter.Get(id); };
          },
          &results, &profile_));
    }
    return results;
  }

  // ---- GEN-SPQ configuration: Count Table + SPQ bucket selection. ---------
  sim::DeviceBuffer<uint32_t> d_counts;
  {
    ScopedTimer timer(&profile_.match_s);
    GENIE_ASSIGN_OR_RETURN(d_counts,
                           sim::DeviceBuffer<uint32_t>::Allocate(
                               device_, static_cast<uint64_t>(n) *
                                            num_queries));
    uint32_t* counts_base = d_counts.data();
    const simd::Ops& ops = simd::ActiveOps();
    const auto count_increment = staged.single_writer
                                     ? ops.count_increment_batch_exclusive
                                     : ops.count_increment_batch;
    GENIE_RETURN_NOT_OK(device_->Launch(
        {num_tasks, block_dim}, [&](const sim::ThreadCtx& ctx) {
          // Single contiguous pass per block, as in the c-PQ kernel.
          if (ctx.thread_idx != 0) return;
          const uint32_t t = ctx.block_idx;
          uint32_t* counts_row =
              counts_base + static_cast<uint64_t>(task_query[t]) * n;
          for (uint32_t r = range_offsets[t]; r < range_offsets[t + 1]; ++r) {
            if (range_begin[r] < range_end[r]) {
              count_increment(counts_row, postings + range_begin[r],
                              range_end[r] - range_begin[r]);
            }
          }
        }));
  }

  {
    ScopedTimer timer(&profile_.select_s);
    // SPQ: one block per count table (Appendix A).
    uint32_t* counts_base = d_counts.data();
    GENIE_RETURN_NOT_OK(BucketSelectAndFinalize(
        device_, num_queries, n, options_.k, mask,
        [&](uint32_t q) {
          const uint32_t* counts_row =
              counts_base + static_cast<uint64_t>(q) * n;
          return [counts_row](ObjectId id) { return counts_row[id]; };
        },
        &results, &profile_));
  }
  return results;
}

}  // namespace genie
