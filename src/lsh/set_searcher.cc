#include "lsh/set_searcher.h"

#include <algorithm>

#include "common/rng.h"
#include "index/index_builder.h"
#include "lsh/min_hash.h"
#include "lsh/murmur3.h"

namespace genie {
namespace lsh {

SetLshSearcher::SetLshSearcher(const SetDataset* sets,
                               std::shared_ptr<const SetLshFamily> family,
                               const SetSearchOptions& options)
    : sets_(sets),
      family_(std::move(family)),
      options_(options),
      encoder_(family_->num_functions(), options.transform.rehash_domain) {
  Rng rng(options_.transform.seed);
  rehash_seeds_.resize(family_->num_functions());
  for (auto& s : rehash_seeds_) s = rng.Next64();
}

Result<std::unique_ptr<SetLshSearcher>> SetLshSearcher::Create(
    const SetDataset* sets, std::shared_ptr<const SetLshFamily> family,
    const SetSearchOptions& options) {
  if (sets == nullptr) return Status::InvalidArgument("sets is null");
  if (family == nullptr) return Status::InvalidArgument("family is null");
  if (options.transform.rehash_domain == 0) {
    return Status::InvalidArgument("rehash_domain must be >= 1");
  }
  std::unique_ptr<SetLshSearcher> searcher(
      new SetLshSearcher(sets, std::move(family), options));
  GENIE_RETURN_NOT_OK(searcher->Init());
  return searcher;
}

Result<std::unique_ptr<SetLshSearcher>> SetLshSearcher::Restore(
    const SetDataset* sets, std::shared_ptr<const SetLshFamily> family,
    const SetSearchOptions& options, std::vector<uint64_t> rehash_seeds,
    InvertedIndex index, uint32_t appended_objects) {
  if (sets == nullptr) return Status::InvalidArgument("sets is null");
  if (family == nullptr) return Status::InvalidArgument("family is null");
  if (options.transform.rehash_domain == 0) {
    return Status::InvalidArgument("rehash_domain must be >= 1");
  }
  if (rehash_seeds.size() != family->num_functions()) {
    return Status::InvalidArgument("re-hash seed count mismatch");
  }
  if (index.num_objects() < sets->size() ||
      index.num_objects() > sets->size() + appended_objects) {
    return Status::InvalidArgument(
        "index object count does not match the sets dataset");
  }
  std::unique_ptr<SetLshSearcher> searcher(
      new SetLshSearcher(sets, std::move(family), options));
  if (index.vocab_size() != searcher->encoder_.vocab_size()) {
    return Status::InvalidArgument(
        "index vocabulary does not match the LSH transform");
  }
  searcher->rehash_seeds_ = std::move(rehash_seeds);
  searcher->index_ = std::move(index);
  GENIE_RETURN_NOT_OK(searcher->SetUpEngine());
  return searcher;
}

std::vector<Keyword> SetLshSearcher::Transform(
    std::span<const uint32_t> set) const {
  const uint32_t m = family_->num_functions();
  std::vector<Keyword> keywords(m);
  for (uint32_t i = 0; i < m; ++i) {
    const uint64_t raw = family_->RawHash(i, set);
    const uint32_t bucket =
        options_.transform.rehash
            ? static_cast<uint32_t>(Murmur3_64(raw, rehash_seeds_[i]) %
                                    options_.transform.rehash_domain)
            : static_cast<uint32_t>(raw % options_.transform.rehash_domain);
    keywords[i] = encoder_.EncodeUnchecked(i, bucket);
  }
  return keywords;
}

Status SetLshSearcher::Init() {
  InvertedIndexBuilder builder(encoder_.vocab_size());
  for (size_t i = 0; i < sets_->size(); ++i) {
    const auto keywords = Transform((*sets_)[i]);
    builder.AddObject(static_cast<ObjectId>(i), keywords);
  }
  GENIE_ASSIGN_OR_RETURN(index_, std::move(builder).Build(options_.build));
  return SetUpEngine();
}

Status SetLshSearcher::SetUpEngine() {
  MatchEngineOptions engine_options = options_.engine;
  engine_options.max_count = family_->num_functions();
  EngineBackendOptions backend_options = options_.backend;
  backend_options.shard_build = options_.build;
  GENIE_ASSIGN_OR_RETURN(
      engine_, EngineBackend::Create(&index_, engine_options,
                                     backend_options));
  return Status::OK();
}

Result<std::vector<std::vector<AnnMatch>>> SetLshSearcher::MatchBatch(
    std::span<const std::vector<uint32_t>> queries) {
  GENIE_ASSIGN_OR_RETURN(std::vector<QueryResult> raw,
                         engine_->ExecuteBatch(CompileBatch(queries)));
  return ToAnnMatches(raw, family_->num_functions());
}

std::vector<Query> SetLshSearcher::CompileBatch(
    std::span<const std::vector<uint32_t>> queries) const {
  std::vector<Query> compiled(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    for (Keyword kw : Transform(queries[i])) compiled[i].AddItem(kw);
  }
  return compiled;
}

Result<std::vector<std::vector<ObjectId>>> SetLshSearcher::KnnBatch(
    std::span<const std::vector<uint32_t>> queries, uint32_t k_nn) {
  GENIE_ASSIGN_OR_RETURN(std::vector<std::vector<AnnMatch>> matches,
                         MatchBatch(queries));
  // Exact Jaccard re-rank, negated so the smallest cost is the most similar.
  return RankByCost(matches, k_nn, [&](size_t q, ObjectId id) {
    return -family_->CollisionProbability((*sets_)[id], queries[q]);
  });
}

}  // namespace lsh
}  // namespace genie
