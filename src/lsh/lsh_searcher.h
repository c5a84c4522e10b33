#pragma once

/// \file lsh_searcher.h
/// End-to-end tau-ANN search (Section IV): transform the dataset with an
/// LSH family + re-hashing, build the inverted index on the device, and
/// answer query batches by match count. The top match-count result is the
/// tau-ANN (Theorem 4.2); c/m estimates the similarity (Eqn. 7). For the
/// approximation-ratio evaluation (Fig. 14) a kNN mode re-ranks the top-K
/// match-count candidates by exact distance.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/engine_backend.h"
#include "data/points.h"
#include "lsh/lsh_transformer.h"

namespace genie {
namespace lsh {

struct LshSearchOptions {
  LshTransformOptions transform;
  MatchEngineOptions engine;  // engine.k = number of candidates kept
  IndexBuildOptions build;
  /// Backend selection: when the index exceeds device memory the searcher
  /// transparently shards it and answers through multiple loading.
  EngineBackendOptions backend;
};

/// One ANN answer with its match count and similarity estimate.
struct AnnMatch {
  ObjectId id = kInvalidObjectId;
  uint32_t match_count = 0;
  double estimated_similarity = 0;  // c / m (Eqn. 7)
};

/// The backend's top-k per query as AnnMatches, for an LSH family of
/// `num_functions` functions.
std::vector<std::vector<AnnMatch>> ToAnnMatches(
    const std::vector<QueryResult>& raw, uint32_t num_functions);

/// kNN by an exact measure over the match-count candidates: per query, the
/// `k_nn` candidates of smallest `cost(q, id)`, ties broken by id.
template <typename Cost>
std::vector<std::vector<ObjectId>> RankByCost(
    const std::vector<std::vector<AnnMatch>>& matches, uint32_t k_nn,
    const Cost& cost) {
  std::vector<std::vector<ObjectId>> results(matches.size());
  for (size_t q = 0; q < matches.size(); ++q) {
    std::vector<std::pair<double, ObjectId>> ranked;
    ranked.reserve(matches[q].size());
    for (const AnnMatch& m : matches[q]) {
      ranked.emplace_back(cost(q, m.id), m.id);
    }
    std::sort(ranked.begin(), ranked.end());
    results[q].reserve(std::min<size_t>(k_nn, ranked.size()));
    for (size_t i = 0; i < ranked.size() && i < k_nn; ++i) {
      results[q].push_back(ranked[i].second);
    }
  }
  return results;
}

class LshSearcher {
 public:
  /// Builds the LSH inverted index over `points` (which must outlive the
  /// searcher) and ships it to the device.
  static Result<std::unique_ptr<LshSearcher>> Create(
      const data::PointMatrix* points,
      std::shared_ptr<const VectorLshFamily> family,
      const LshSearchOptions& options);

  /// Reassembles a searcher from persisted state (bundle open): skips the
  /// dataset transform + index build and serves from the preloaded index.
  /// The transformer must be the one the index was built with; `points` is
  /// only consulted for re-ranking and must match the indexed dataset.
  /// `appended_objects` (> 0 only on mutated v2 bundles) is the number of
  /// objects inserted after the base dataset: the index then holds between
  /// points->num_points() and points->num_points() + appended_objects
  /// objects (compaction may not have caught up with the delta).
  static Result<std::unique_ptr<LshSearcher>> Restore(
      const data::PointMatrix* points, LshTransformer transformer,
      InvertedIndex index, const LshSearchOptions& options,
      uint32_t appended_objects = 0);

  /// tau-ANN by match count: per query, candidates in descending count
  /// order (entry 0 is the tau-ANN of Theorem 4.2).
  Result<std::vector<std::vector<AnnMatch>>> MatchBatch(
      const data::PointMatrix& queries);

  /// The query transform (LSH hashing + re-hashing) of a batch. The facade
  /// stages and executes the compiled queries on backend() itself, so its
  /// pipelined streams run this concurrently with an executing chunk.
  std::vector<Query> CompileBatch(const data::PointMatrix& queries) const;

  /// kNN: takes the engine's top candidates and re-ranks by exact l_p
  /// distance, returning `k_nn` ids per query (ascending distance).
  Result<std::vector<std::vector<ObjectId>>> KnnBatch(
      const data::PointMatrix& queries, uint32_t k_nn, uint32_t p);

  MatchProfile profile() const { return engine_->profile(); }
  const LshTransformer& transformer() const { return transformer_; }
  const InvertedIndex& index() const { return index_; }
  EngineBackend& backend() { return *engine_; }

 private:
  LshSearcher(const data::PointMatrix* points, LshTransformer transformer,
              InvertedIndex index);

  const data::PointMatrix* points_;
  LshTransformer transformer_;
  InvertedIndex index_;
  std::unique_ptr<EngineBackend> engine_;
};

}  // namespace lsh
}  // namespace genie
