#include "sa/relational.h"

#include <algorithm>

#include "common/logging.h"

namespace genie {
namespace sa {

Discretizer::Discretizer(double min, double max, uint32_t buckets)
    : min_(min), buckets_(buckets) {
  GENIE_CHECK(buckets >= 1 && max >= min);
  width_ = (max - min) / buckets;
  if (width_ <= 0) width_ = 1;
}

uint32_t Discretizer::Bucket(double value) const {
  if (value <= min_) return 0;
  const uint32_t b = static_cast<uint32_t>((value - min_) / width_);
  return std::min(b, buckets_ - 1);
}

RelationalTable::RelationalTable(std::vector<std::vector<uint32_t>> columns,
                                 std::vector<uint32_t> cardinalities)
    : columns_(std::move(columns)), cardinalities_(std::move(cardinalities)) {
  GENIE_CHECK(columns_.size() == cardinalities_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    GENIE_CHECK(columns_[c].size() == columns_[0].size());
    for (uint32_t v : columns_[c]) {
      GENIE_CHECK(v < cardinalities_[c]) << "value outside column domain";
    }
  }
}

RelationalSearcher::RelationalSearcher(const RelationalTable* table,
                                       uint32_t k)
    : table_(table), k_(k) {}

Result<std::unique_ptr<RelationalSearcher>> RelationalSearcher::Create(
    const RelationalTable* table, uint32_t k,
    const MatchEngineOptions& engine_options,
    const IndexBuildOptions& build_options,
    const EngineBackendOptions& backend_options) {
  if (table == nullptr) return Status::InvalidArgument("table is null");
  if (table->num_columns() == 0) {
    return Status::InvalidArgument("table has no columns");
  }
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  std::unique_ptr<RelationalSearcher> searcher(
      new RelationalSearcher(table, k));
  GENIE_RETURN_NOT_OK(
      searcher->Init(engine_options, build_options, backend_options));
  return searcher;
}

Result<std::unique_ptr<RelationalSearcher>> RelationalSearcher::Restore(
    const RelationalTable* table, uint32_t k,
    const std::vector<uint32_t>& cardinalities, uint32_t num_rows,
    InvertedIndex index, const MatchEngineOptions& engine_options,
    const IndexBuildOptions& build_options,
    const EngineBackendOptions& backend_options, uint32_t appended_objects) {
  if (table == nullptr) return Status::InvalidArgument("table is null");
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (cardinalities.empty()) {
    return Status::InvalidArgument("saved table has no columns");
  }
  if (table->num_columns() != cardinalities.size() ||
      table->num_rows() != num_rows) {
    return Status::InvalidArgument(
        "rebound table shape does not match the saved index");
  }
  for (uint32_t c = 0; c < table->num_columns(); ++c) {
    if (table->cardinality(c) != cardinalities[c] || cardinalities[c] == 0) {
      return Status::InvalidArgument(
          "rebound table cardinalities do not match the saved index");
    }
  }
  if (index.num_objects() < num_rows ||
      index.num_objects() > static_cast<uint64_t>(num_rows) + appended_objects) {
    return Status::InvalidArgument(
        "index object count does not match the saved table shape");
  }
  std::unique_ptr<RelationalSearcher> searcher(
      new RelationalSearcher(table, k));
  searcher->encoder_ = std::make_unique<DimValueEncoder>(cardinalities);
  if (index.vocab_size() != searcher->encoder_->vocab_size()) {
    return Status::InvalidArgument(
        "index vocabulary does not match the column layout");
  }
  searcher->index_ = std::move(index);
  GENIE_RETURN_NOT_OK(
      searcher->SetUpEngine(engine_options, build_options, backend_options));
  return searcher;
}

Status RelationalSearcher::Init(const MatchEngineOptions& engine_options,
                                const IndexBuildOptions& build_options,
                                const EngineBackendOptions& backend_options) {
  std::vector<uint32_t> cardinalities(table_->num_columns());
  for (uint32_t c = 0; c < table_->num_columns(); ++c) {
    cardinalities[c] = table_->cardinality(c);
  }
  encoder_ = std::make_unique<DimValueEncoder>(std::move(cardinalities));

  InvertedIndexBuilder builder(encoder_->vocab_size());
  for (uint32_t row = 0; row < table_->num_rows(); ++row) {
    for (uint32_t col = 0; col < table_->num_columns(); ++col) {
      builder.Add(row, encoder_->EncodeUnchecked(col, table_->value(row, col)));
    }
  }
  GENIE_ASSIGN_OR_RETURN(index_, std::move(builder).Build(build_options));
  return SetUpEngine(engine_options, build_options, backend_options);
}

Status RelationalSearcher::SetUpEngine(
    const MatchEngineOptions& engine_options,
    const IndexBuildOptions& build_options,
    const EngineBackendOptions& backend_options) {
  MatchEngineOptions opts = engine_options;
  opts.k = k_;
  // One value per attribute => an object matches each item at most once.
  opts.max_count = table_->num_columns();
  EngineBackendOptions backend = backend_options;
  backend.shard_build = build_options;
  GENIE_ASSIGN_OR_RETURN(engine_,
                         EngineBackend::Create(&index_, opts, backend));
  return Status::OK();
}

Result<Query> RelationalSearcher::Compile(const RangeQuery& query) const {
  Query compiled;
  std::vector<Keyword> keywords;
  for (const RangeQuery::Item& item : query.items) {
    if (item.column >= table_->num_columns()) {
      return Status::OutOfRange("query references unknown column");
    }
    if (item.lo > item.hi) {
      return Status::InvalidArgument("range lo > hi");
    }
    const uint32_t hi =
        std::min(item.hi, table_->cardinality(item.column) - 1);
    keywords.clear();
    for (uint32_t v = item.lo; v <= hi; ++v) {
      keywords.push_back(encoder_->EncodeUnchecked(item.column, v));
    }
    if (!keywords.empty()) compiled.AddItem(keywords);
  }
  return compiled;
}

Result<std::vector<QueryResult>> RelationalSearcher::SearchBatch(
    std::span<const RangeQuery> queries) const {
  GENIE_ASSIGN_OR_RETURN(std::vector<Query> compiled, CompileBatch(queries));
  return engine_->ExecuteBatch(compiled);
}

Result<std::vector<Query>> RelationalSearcher::CompileBatch(
    std::span<const RangeQuery> queries) const {
  std::vector<Query> compiled(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    GENIE_ASSIGN_OR_RETURN(compiled[i], Compile(queries[i]));
  }
  return compiled;
}

}  // namespace sa
}  // namespace genie
