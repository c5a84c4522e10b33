#pragma once

/// \file lsh_searcher.h
/// End-to-end tau-ANN search (Section IV): transform the dataset with an
/// LSH family + re-hashing, build the inverted index on the device, and
/// answer query batches by match count. The top match-count result is the
/// tau-ANN (Theorem 4.2); c/m estimates the similarity (Eqn. 7). For the
/// approximation-ratio evaluation (Fig. 14) a kNN mode re-ranks the top-K
/// match-count candidates by exact distance.

#include <cstdint>
#include <memory>
#include <span>
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
  /// order (entry 0 is the tau-ANN of Theorem 4.2). Equivalent to
  /// ExecutePrepared(Prepare(queries)).
  Result<std::vector<std::vector<AnnMatch>>> MatchBatch(
      const data::PointMatrix& queries);

  /// Two-phase MatchBatch for the streaming pipeline: Prepare runs the
  /// query transform (LSH hashing + re-hashing) and stages the compiled
  /// batch through the backend; ExecutePrepared answers it. Prepare is
  /// safe to run concurrently with an ExecutePrepared on this searcher —
  /// that concurrency is the pipeline's point.
  struct PreparedBatch {
    std::vector<Query> compiled;
    EngineBackend::StagedChunk staged;
  };
  Result<PreparedBatch> Prepare(const data::PointMatrix& queries);
  Result<std::vector<std::vector<AnnMatch>>> ExecutePrepared(
      PreparedBatch batch);

  /// kNN: takes the engine's top candidates and re-ranks by exact l_p
  /// distance, returning `k_nn` ids per query (ascending distance).
  Result<std::vector<std::vector<ObjectId>>> KnnBatch(
      const data::PointMatrix& queries, uint32_t k_nn, uint32_t p);

  MatchProfile profile() const { return engine_->profile(); }
  const LshTransformer& transformer() const { return transformer_; }
  const InvertedIndex& index() const { return index_; }
  const EngineBackend& backend() const { return *engine_; }
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
