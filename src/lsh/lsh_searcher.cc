#include "lsh/lsh_searcher.h"

#include <algorithm>

namespace genie {
namespace lsh {

LshSearcher::LshSearcher(const data::PointMatrix* points,
                         LshTransformer transformer, InvertedIndex index)
    : points_(points),
      transformer_(std::move(transformer)),
      index_(std::move(index)) {}

Result<std::unique_ptr<LshSearcher>> LshSearcher::Create(
    const data::PointMatrix* points,
    std::shared_ptr<const VectorLshFamily> family,
    const LshSearchOptions& options) {
  if (points == nullptr) return Status::InvalidArgument("points is null");
  LshTransformer transformer(std::move(family), options.transform);
  GENIE_ASSIGN_OR_RETURN(InvertedIndex index,
                         transformer.BuildIndex(*points, options.build));
  return Restore(points, std::move(transformer), std::move(index), options);
}

Result<std::unique_ptr<LshSearcher>> LshSearcher::Restore(
    const data::PointMatrix* points, LshTransformer transformer,
    InvertedIndex index, const LshSearchOptions& options,
    uint32_t appended_objects) {
  if (points == nullptr) return Status::InvalidArgument("points is null");
  if (index.num_objects() < points->num_points() ||
      index.num_objects() > points->num_points() + appended_objects) {
    return Status::InvalidArgument(
        "index object count does not match the points dataset");
  }
  if (index.vocab_size() != transformer.encoder().vocab_size()) {
    return Status::InvalidArgument(
        "index vocabulary does not match the LSH transform");
  }
  std::unique_ptr<LshSearcher> searcher(
      new LshSearcher(points, std::move(transformer), std::move(index)));
  MatchEngineOptions engine_options = options.engine;
  // Every item is one hash function; an object collides with an item at
  // most once, so the count bound is exactly m.
  engine_options.max_count = searcher->transformer_.family().num_functions();
  EngineBackendOptions backend_options = options.backend;
  backend_options.shard_build = options.build;
  GENIE_ASSIGN_OR_RETURN(
      searcher->engine_,
      EngineBackend::Create(&searcher->index_, engine_options,
                            backend_options));
  return searcher;
}

std::vector<std::vector<AnnMatch>> ToAnnMatches(
    const std::vector<QueryResult>& raw, uint32_t num_functions) {
  const double m = num_functions;
  std::vector<std::vector<AnnMatch>> results(raw.size());
  for (size_t q = 0; q < raw.size(); ++q) {
    results[q].reserve(raw[q].entries.size());
    for (const TopKEntry& e : raw[q].entries) {
      results[q].push_back(AnnMatch{e.id, e.count, e.count / m});
    }
  }
  return results;
}

Result<std::vector<std::vector<AnnMatch>>> LshSearcher::MatchBatch(
    const data::PointMatrix& queries) {
  GENIE_ASSIGN_OR_RETURN(std::vector<QueryResult> raw,
                         engine_->ExecuteBatch(CompileBatch(queries)));
  return ToAnnMatches(raw, transformer_.family().num_functions());
}

std::vector<Query> LshSearcher::CompileBatch(
    const data::PointMatrix& queries) const {
  std::vector<Query> compiled(queries.num_points());
  for (uint32_t i = 0; i < queries.num_points(); ++i) {
    compiled[i] = transformer_.MakeQuery(queries.row(i));
  }
  return compiled;
}

Result<std::vector<std::vector<ObjectId>>> LshSearcher::KnnBatch(
    const data::PointMatrix& queries, uint32_t k_nn, uint32_t p) {
  GENIE_ASSIGN_OR_RETURN(std::vector<std::vector<AnnMatch>> matches,
                         MatchBatch(queries));
  return RankByCost(matches, k_nn, [&](size_t q, ObjectId id) {
    const auto query_row = queries.row(static_cast<uint32_t>(q));
    return p == 1 ? data::L1Distance(points_->row(id), query_row)
                  : data::L2Distance(points_->row(id), query_row);
  });
}

}  // namespace lsh
}  // namespace genie
