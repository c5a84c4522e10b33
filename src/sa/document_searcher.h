#pragma once

/// \file document_searcher.h
/// Short-document search (Section V-B): documents are decomposed into
/// words (token ids); under the binary vector space model the match count
/// between a query document and an object document is exactly their inner
/// product, so the engine's top-k is the inner-product top-k.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/engine_backend.h"

namespace genie {
namespace sa {

/// A document is a bag of token ids (the generator in data/documents.h
/// produces these directly; a real deployment would tokenize text).
using Document = std::vector<uint32_t>;

struct DocumentSearchOptions {
  uint32_t k = 100;
  MatchEngineOptions engine;  // k / max_count managed by the searcher
  EngineBackendOptions backend;
};

class DocumentSearcher {
 public:
  /// Indexes `docs` (must outlive the searcher). Duplicate tokens within a
  /// document are collapsed (binary model).
  static Result<std::unique_ptr<DocumentSearcher>> Create(
      const std::vector<Document>* docs, const DocumentSearchOptions& options);

  /// Reassembles a searcher from persisted state (bundle open): the token
  /// universe bound and index come from the bundle instead of being
  /// re-derived / rebuilt from the dataset.
  /// `appended_objects` (> 0 only on mutated v2 bundles) is the number of
  /// documents inserted after the base dataset: the index then holds
  /// between docs->size() and docs->size() + appended_objects objects and
  /// its vocabulary may trail `vocab_size` (insertion grows the token
  /// universe ahead of compaction).
  static Result<std::unique_ptr<DocumentSearcher>> Restore(
      const std::vector<Document>* docs, const DocumentSearchOptions& options,
      uint32_t vocab_size, InvertedIndex index, uint32_t appended_objects = 0);

  /// Per query: top-k documents by word-overlap (inner product).
  Result<std::vector<QueryResult>> SearchBatch(
      std::span<const Document> queries);

  /// Token dedup + compile: one single-keyword item per distinct token in
  /// the universe. Safe to run concurrently with a search on backend().
  Query Compile(const Document& query) const;
  std::vector<Query> CompileBatch(std::span<const Document> queries) const;

  MatchProfile profile() const { return engine_->profile(); }
  EngineBackend& backend() { return *engine_; }
  /// Token universe bound (keywords are token ids in [0, vocab_size)).
  uint32_t vocab_size() const {
    return vocab_size_.load(std::memory_order_acquire);
  }

  /// Live insertion: collapses duplicate tokens (binary model) and grows
  /// the token universe past any unseen token id. Thread-safe against
  /// concurrent Compile.
  std::vector<Keyword> ExtractKeywords(const Document& doc);

 private:
  DocumentSearcher(const std::vector<Document>* docs,
                   const DocumentSearchOptions& options);
  Status Init();
  /// Creates the EngineBackend over the (built or restored) index_.
  Status SetUpEngine();

  const std::vector<Document>* docs_;
  DocumentSearchOptions options_;
  /// Atomic: Compile reads it concurrently with insertion growing it.
  std::atomic<uint32_t> vocab_size_{0};
  InvertedIndex index_;
  std::unique_ptr<EngineBackend> engine_;
};

}  // namespace sa
}  // namespace genie
