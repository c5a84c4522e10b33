#pragma once

/// \file set_searcher.h
/// tau-ANN search over *sets* under Jaccard similarity (Section II-B1 lists
/// the Jaccard kernel among the kernelized measures GENIE supports): the
/// set-LSH analogue of LshSearcher, using a SetLshFamily (MinHash) plus the
/// same re-hashing and match-count machinery.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/engine_backend.h"
#include "index/vocabulary.h"
#include "lsh/lsh_family.h"
#include "lsh/lsh_searcher.h"

namespace genie {
namespace lsh {

/// A dataset of element-id sets (need not be sorted or deduplicated).
using SetDataset = std::vector<std::vector<uint32_t>>;

struct SetSearchOptions {
  LshTransformOptions transform;
  MatchEngineOptions engine;  // engine.k = candidates kept per query
  IndexBuildOptions build;
  EngineBackendOptions backend;
};

class SetLshSearcher {
 public:
  /// Builds the index over `sets` (must outlive the searcher).
  static Result<std::unique_ptr<SetLshSearcher>> Create(
      const SetDataset* sets, std::shared_ptr<const SetLshFamily> family,
      const SetSearchOptions& options);

  /// Reassembles a searcher from persisted state (bundle open): the
  /// re-hash seeds and index come from the bundle instead of being derived
  /// from options.transform.seed / rebuilt from the dataset.
  /// `appended_objects` (> 0 only on mutated v2 bundles) is the number of
  /// objects inserted after the base dataset; the index holds between
  /// sets->size() and sets->size() + appended_objects objects.
  static Result<std::unique_ptr<SetLshSearcher>> Restore(
      const SetDataset* sets, std::shared_ptr<const SetLshFamily> family,
      const SetSearchOptions& options, std::vector<uint64_t> rehash_seeds,
      InvertedIndex index, uint32_t appended_objects = 0);

  /// Candidates per query in descending match-count order; entry 0 is the
  /// tau-ANN under the family's similarity (Jaccard for MinHash), and
  /// count/m estimates that similarity (Eqn. 7).
  Result<std::vector<std::vector<AnnMatch>>> MatchBatch(
      std::span<const std::vector<uint32_t>> queries);

  /// The MinHash + re-hash transform of a batch, one single-keyword item
  /// per hash function (see LshSearcher::CompileBatch).
  std::vector<Query> CompileBatch(
      std::span<const std::vector<uint32_t>> queries) const;

  /// kNN by exact Jaccard similarity over the top match-count candidates
  /// (descending similarity).
  Result<std::vector<std::vector<ObjectId>>> KnnBatch(
      std::span<const std::vector<uint32_t>> queries, uint32_t k_nn);

  MatchProfile profile() const { return engine_->profile(); }
  EngineBackend& backend() { return *engine_; }
  const SetLshFamily& family() const { return *family_; }
  const LshTransformOptions& transform_options() const {
    return options_.transform;
  }
  const std::vector<uint64_t>& rehash_seeds() const { return rehash_seeds_; }

  /// MinHash + re-hash transform of one set into its m keywords — the same
  /// transform the index was built with. Public so live insertion can
  /// extract an inserted set's keywords.
  std::vector<Keyword> Transform(std::span<const uint32_t> set) const;

 private:
  SetLshSearcher(const SetDataset* sets,
                 std::shared_ptr<const SetLshFamily> family,
                 const SetSearchOptions& options);
  Status Init();
  /// Creates the EngineBackend over the (built or restored) index_.
  Status SetUpEngine();

  const SetDataset* sets_;
  std::shared_ptr<const SetLshFamily> family_;
  SetSearchOptions options_;
  DimValueEncoder encoder_;
  std::vector<uint64_t> rehash_seeds_;
  InvertedIndex index_;
  std::unique_ptr<EngineBackend> engine_;
};

}  // namespace lsh
}  // namespace genie
