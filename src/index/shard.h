#pragma once

/// \file shard.h
/// Object-range sharding of an inverted index for multiple loading
/// (Section III-D): the object universe is split into contiguous id ranges
/// and a local-id index is rebuilt per range. Shard p's local object o
/// corresponds to global object offsets[p] + o, which is exactly the
/// IndexPart contract of PartitionedEngine.

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "index/index_builder.h"
#include "index/inverted_index.h"
#include "index/types.h"

namespace genie {

struct ShardedIndex {
  std::vector<InvertedIndex> shards;
  /// Global object id of shard p's local id 0 (same length as `shards`).
  std::vector<ObjectId> offsets;
};

/// Splits `index` into at most `num_parts` contiguous object ranges of equal
/// width. Duplicate postings and load-balance sublists are preserved
/// (postings are re-added verbatim; pass `build_options` to re-split long
/// lists per shard). `num_parts` is clamped to the number of objects.
Result<ShardedIndex> ShardByObjectRange(
    const InvertedIndex& index, uint32_t num_parts,
    const IndexBuildOptions& build_options = {});

/// Splits `index` at explicit object-id boundaries: shard p covers global
/// ids [boundaries[p], boundaries[p+1]). `boundaries` must be strictly
/// ascending, start at 0 and end at num_objects (so every object belongs to
/// exactly one non-empty shard) — the query planner emits such boundary
/// vectors balanced by postings volume.
Result<ShardedIndex> ShardByBoundaries(
    const InvertedIndex& index, std::span<const ObjectId> boundaries,
    const IndexBuildOptions& build_options = {});

/// Splits `index` into at most `num_parts` contiguous object ranges of
/// near-equal postings volume (the skew-proof counterpart of
/// ShardByObjectRange: a range holding the hot objects comes out narrower
/// instead of overloading its part). `num_parts` is clamped to the number
/// of objects.
Result<ShardedIndex> ShardByPostingsVolume(
    const InvertedIndex& index, uint32_t num_parts,
    const IndexBuildOptions& build_options = {});

}  // namespace genie
