#pragma once

/// \file relational.h
/// Top-k selection on relational data (Example 2.1, Section V-C): tuples
/// become sets of (attribute, discretized value) keywords; a range query is
/// one item per attribute whose keywords are the discretized values inside
/// the range; the match count ranks tuples by how many query ranges they
/// satisfy — the paper's special top-k selection score for tables mixing
/// categorical and numerical attributes.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/engine_backend.h"
#include "index/index_builder.h"
#include "index/vocabulary.h"

namespace genie {
namespace sa {

/// Maps a continuous value into [0, buckets) by equal-width intervals —
/// "continuous valued attributes are first discretized" (the Adult setup
/// discretizes numeric columns into 1024 intervals).
class Discretizer {
 public:
  Discretizer() = default;
  Discretizer(double min, double max, uint32_t buckets);

  uint32_t Bucket(double value) const;
  uint32_t buckets() const { return buckets_; }

 private:
  double min_ = 0;
  double width_ = 1;
  uint32_t buckets_ = 1;
};

/// A table of already-discrete values (column-major). Column c takes values
/// in [0, cardinality[c]); numeric columns hold discretizer buckets,
/// categorical columns hold category ids.
class RelationalTable {
 public:
  RelationalTable() = default;
  RelationalTable(std::vector<std::vector<uint32_t>> columns,
                  std::vector<uint32_t> cardinalities);

  uint32_t num_rows() const {
    return columns_.empty() ? 0
                            : static_cast<uint32_t>(columns_[0].size());
  }
  uint32_t num_columns() const {
    return static_cast<uint32_t>(columns_.size());
  }
  uint32_t cardinality(uint32_t col) const { return cardinalities_[col]; }
  uint32_t value(uint32_t row, uint32_t col) const {
    return columns_[col][row];
  }

 private:
  std::vector<std::vector<uint32_t>> columns_;
  std::vector<uint32_t> cardinalities_;
};

/// A range selection: per referenced attribute an inclusive bucket range
/// (Q1 = {(A,[1,2]), (B,[1,1]), (C,[2,3])} in Fig. 1). Point predicates use
/// lo == hi.
struct RangeQuery {
  struct Item {
    uint32_t column = 0;
    uint32_t lo = 0;
    uint32_t hi = 0;
  };
  std::vector<Item> items;

  RangeQuery& Add(uint32_t column, uint32_t lo, uint32_t hi) {
    items.push_back(Item{column, lo, hi});
    return *this;
  }
};

class RelationalSearcher {
 public:
  static Result<std::unique_ptr<RelationalSearcher>> Create(
      const RelationalTable* table, uint32_t k,
      const MatchEngineOptions& engine_options = {},
      const IndexBuildOptions& build_options = {},
      const EngineBackendOptions& backend_options = {});

  /// Reassembles a searcher from persisted state (bundle open): the column
  /// layout the index was built with (`cardinalities`, `num_rows`) is
  /// validated against the rebound table, and the index is served as
  /// loaded instead of being rebuilt. `appended_objects` (> 0 only on
  /// mutated v2 bundles) is the number of rows inserted after the base
  /// table: the index then holds between num_rows and
  /// num_rows + appended_objects objects.
  static Result<std::unique_ptr<RelationalSearcher>> Restore(
      const RelationalTable* table, uint32_t k,
      const std::vector<uint32_t>& cardinalities, uint32_t num_rows,
      InvertedIndex index, const MatchEngineOptions& engine_options = {},
      const IndexBuildOptions& build_options = {},
      const EngineBackendOptions& backend_options = {},
      uint32_t appended_objects = 0);

  /// Top-k rows by number of satisfied ranges.
  Result<std::vector<QueryResult>> SearchBatch(
      std::span<const RangeQuery> queries) const;

  /// Lowers a range query: one item per attribute covering the bucket run.
  Result<Query> Compile(const RangeQuery& query) const;
  Result<std::vector<Query>> CompileBatch(
      std::span<const RangeQuery> queries) const;

  MatchProfile profile() const { return engine_->profile(); }
  const DimValueEncoder& encoder() const { return *encoder_; }
  EngineBackend& backend() { return *engine_; }

 private:
  RelationalSearcher(const RelationalTable* table, uint32_t k);
  Status Init(const MatchEngineOptions& engine_options,
              const IndexBuildOptions& build_options,
              const EngineBackendOptions& backend_options);
  /// Creates the EngineBackend over the (built or restored) index_.
  Status SetUpEngine(const MatchEngineOptions& engine_options,
                     const IndexBuildOptions& build_options,
                     const EngineBackendOptions& backend_options);

  const RelationalTable* table_;
  uint32_t k_;
  std::unique_ptr<DimValueEncoder> encoder_;
  InvertedIndex index_;
  std::unique_ptr<EngineBackend> engine_;
};

}  // namespace sa
}  // namespace genie
