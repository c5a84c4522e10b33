#include "baselines/gpu_spq_engine.h"

#include <algorithm>

#include "baselines/bucket_kselect.h"
#include "common/bit_util.h"
#include "common/timer.h"
#include "core/hash_table.h"

namespace genie {
namespace baselines {

ForwardIndex ForwardIndex::FromInvertedIndex(const InvertedIndex& index) {
  ForwardIndex fwd;
  const uint32_t n = index.num_objects();
  fwd.offsets.assign(n + 1, 0);
  for (uint32_t kw = 0; kw < index.vocab_size(); ++kw) {
    auto [first, count] = index.KeywordLists(kw);
    for (uint32_t l = 0; l < count; ++l) {
      const auto ref = index.List(first + l);
      for (uint32_t pos = ref.begin; pos < ref.end; ++pos) {
        ++fwd.offsets[index.postings()[pos] + 1];
      }
    }
  }
  for (uint32_t i = 0; i < n; ++i) fwd.offsets[i + 1] += fwd.offsets[i];
  fwd.keywords.resize(fwd.offsets[n]);
  std::vector<uint32_t> cursor(fwd.offsets.begin(), fwd.offsets.end() - 1);
  for (uint32_t kw = 0; kw < index.vocab_size(); ++kw) {
    auto [first, count] = index.KeywordLists(kw);
    for (uint32_t l = 0; l < count; ++l) {
      const auto ref = index.List(first + l);
      for (uint32_t pos = ref.begin; pos < ref.end; ++pos) {
        fwd.keywords[cursor[index.postings()[pos]]++] = kw;
      }
    }
  }
  return fwd;
}

GpuSpqEngine::GpuSpqEngine(ForwardIndex forward, uint32_t vocab_size,
                           const GpuSpqOptions& options, sim::Device* device)
    : forward_(std::move(forward)),
      vocab_size_(vocab_size),
      options_(options),
      device_(device) {}

Result<std::unique_ptr<GpuSpqEngine>> GpuSpqEngine::Create(
    const InvertedIndex* index, const GpuSpqOptions& options) {
  if (index == nullptr) return Status::InvalidArgument("index is null");
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  sim::Device* device =
      options.device != nullptr ? options.device : sim::Device::Default();
  return std::unique_ptr<GpuSpqEngine>(
      new GpuSpqEngine(ForwardIndex::FromInvertedIndex(*index),
                       index->vocab_size(), options, device));
}

Result<std::vector<QueryResult>> GpuSpqEngine::ExecuteBatch(
    std::span<const Query> queries) {
  const uint32_t num_queries = static_cast<uint32_t>(queries.size());
  std::vector<QueryResult> results(num_queries);
  if (num_queries == 0) return results;
  const uint32_t n = forward_.num_objects();

  // Per-query keyword weights (a keyword may appear in several items).
  sim::DeviceBuffer<uint8_t> d_weights;
  sim::DeviceBuffer<uint32_t> d_offsets;
  sim::DeviceBuffer<Keyword> d_keywords;
  {
    ScopedTimer timer(&profile_.query_transfer_s);
    std::vector<uint8_t> weights(static_cast<size_t>(num_queries) *
                                 vocab_size_);
    for (uint32_t q = 0; q < num_queries; ++q) {
      uint8_t* w = weights.data() + static_cast<size_t>(q) * vocab_size_;
      for (uint32_t i = 0; i < queries[q].num_items(); ++i) {
        for (Keyword kw : queries[q].item(i)) {
          if (kw < vocab_size_ && w[kw] < 255) ++w[kw];
        }
      }
    }
    GENIE_ASSIGN_OR_RETURN(d_weights, sim::DeviceBuffer<uint8_t>::Allocate(
                                          device_, weights.size()));
    GENIE_RETURN_NOT_OK(d_weights.CopyFromHost(weights));
    profile_.query_bytes += weights.size();
  }
  {
    // The dataset itself (the forward image) lives on the device.
    ScopedTimer timer(&profile_.index_transfer_s);
    GENIE_ASSIGN_OR_RETURN(d_offsets, sim::DeviceBuffer<uint32_t>::Allocate(
                                          device_, forward_.offsets.size()));
    GENIE_RETURN_NOT_OK(d_offsets.CopyFromHost(forward_.offsets));
    GENIE_ASSIGN_OR_RETURN(d_keywords, sim::DeviceBuffer<Keyword>::Allocate(
                                           device_, forward_.keywords.size()));
    GENIE_RETURN_NOT_OK(d_keywords.CopyFromHost(forward_.keywords));
    profile_.index_bytes +=
        forward_.offsets.size() * 4 + forward_.keywords.size() * 4;
  }

  sim::DeviceBuffer<uint32_t> d_counts;
  {
    ScopedTimer timer(&profile_.match_s);
    GENIE_ASSIGN_OR_RETURN(
        d_counts, sim::DeviceBuffer<uint32_t>::Allocate(
                      device_, static_cast<uint64_t>(n) * num_queries));
    const uint32_t chunks =
        static_cast<uint32_t>(bit_util::CeilDiv(n, options_.objects_per_block));
    const uint8_t* weights_base = d_weights.data();
    const uint32_t* offsets = d_offsets.data();
    const Keyword* keywords = d_keywords.data();
    uint32_t* counts_base = d_counts.data();
    const uint32_t objects_per_block = options_.objects_per_block;
    const uint32_t vocab = vocab_size_;
    GENIE_RETURN_NOT_OK(device_->Launch(
        {num_queries * chunks, options_.block_dim},
        [=](const sim::ThreadCtx& ctx) {
          const uint32_t q = ctx.block_idx / chunks;
          const uint32_t chunk = ctx.block_idx % chunks;
          const uint8_t* w = weights_base + static_cast<size_t>(q) * vocab;
          uint32_t* counts = counts_base + static_cast<uint64_t>(q) * n;
          const uint32_t begin = chunk * objects_per_block;
          const uint32_t end =
              std::min(n, begin + objects_per_block);
          for (uint32_t obj = begin + ctx.thread_idx; obj < end;
               obj += ctx.block_dim) {
            uint32_t c = 0;
            for (uint32_t pos = offsets[obj]; pos < offsets[obj + 1]; ++pos) {
              c += w[keywords[pos]];
            }
            counts[obj] = c;
          }
        }));
  }

  {
    ScopedTimer timer(&profile_.select_s);
    sim::DeviceBuffer<uint64_t> d_out;
    sim::DeviceBuffer<uint32_t> d_out_size;
    GENIE_ASSIGN_OR_RETURN(
        d_out, sim::DeviceBuffer<uint64_t>::Allocate(
                   device_, static_cast<uint64_t>(options_.k) * num_queries));
    GENIE_ASSIGN_OR_RETURN(d_out_size, sim::DeviceBuffer<uint32_t>::Allocate(
                                           device_, num_queries));
    const uint32_t* counts_base = d_counts.data();
    uint64_t* out_base = d_out.data();
    uint32_t* out_size_base = d_out_size.data();
    const uint32_t k = options_.k;
    GENIE_RETURN_NOT_OK(
        device_->Launch({num_queries, 1}, [=](const sim::ThreadCtx& ctx) {
          const uint32_t q = ctx.block_idx;
          auto top = BucketKSelect(counts_base + static_cast<uint64_t>(q) * n,
                                   n, k);
          uint64_t* out = out_base + static_cast<uint64_t>(q) * k;
          for (size_t i = 0; i < top.size(); ++i) {
            out[i] = CpqHashTableView::MakeEntry(top[i].id, top[i].count);
          }
          out_size_base[q] = static_cast<uint32_t>(top.size());
        }));
    std::vector<uint32_t> sizes(num_queries);
    GENIE_RETURN_NOT_OK(d_out_size.CopyToHost(sizes.data(), num_queries));
    std::vector<uint64_t> row(options_.k);
    for (uint32_t q = 0; q < num_queries; ++q) {
      GENIE_RETURN_NOT_OK(d_out.CopyToHost(
          row.data(), sizes[q], static_cast<uint64_t>(q) * options_.k));
      profile_.result_bytes += sizes[q] * sizeof(uint64_t);
      for (uint32_t i = 0; i < sizes[q]; ++i) {
        results[q].entries.push_back({CpqHashTableView::EntryId(row[i]),
                                      CpqHashTableView::EntryCount(row[i])});
      }
      while (!results[q].entries.empty() &&
             results[q].entries.back().count == 0) {
        results[q].entries.pop_back();
      }
      results[q].threshold = TopKThreshold(results[q].entries, options_.k);
    }
  }
  return results;
}

}  // namespace baselines
}  // namespace genie
