#pragma once

/// \file sequence_searcher.h
/// Sequence similarity search under edit distance (Section V-A): decompose
/// sequences into ordered n-grams, retrieve the K largest match-count
/// candidates with the engine, then verify with Algorithm 2 (count filter
/// of Theorem 5.1 + length filter + banded edit distance). Theorem 5.2
/// tells whether the returned kNN is provably the true kNN; the optional
/// escalation mode doubles K and retries until it is (the multi-round
/// search of Section VI-D3).

#include <cstdint>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/serialize.h"
#include "core/engine_backend.h"
#include "index/index_builder.h"
#include "index/vocabulary.h"

namespace genie {
namespace sa {

struct SequenceSearchOptions {
  uint32_t ngram = 3;        // sliding-window length n
  uint32_t k = 1;            // kNN size (paper default k=1)
  uint32_t candidate_k = 32; // K candidates fetched per round (paper K=32)
  /// When true, re-run with K doubled until Theorem 5.2 certifies the
  /// result (bounded by max_candidate_k).
  bool escalate_until_exact = false;
  uint32_t max_candidate_k = 256;
  MatchEngineOptions engine;  // k/max_count are managed by the searcher
  EngineBackendOptions backend;
};

struct SequenceMatch {
  ObjectId id = kInvalidObjectId;
  uint32_t edit_distance = 0;
  uint32_t match_count = 0;
};

struct SequenceSearchOutcome {
  /// Up to k matches by ascending edit distance.
  std::vector<SequenceMatch> knn;
  /// True when Theorem 5.2's condition c_K < |Q| - n + 1 - tau_k' * n held,
  /// i.e. the kNN is provably the true kNN.
  bool certified_exact = false;
  uint32_t rounds = 1;  // escalation rounds executed
};

class SequenceSearcher {
 public:
  /// Indexes `sequences` (must outlive the searcher).
  static Result<std::unique_ptr<SequenceSearcher>> Create(
      const std::vector<std::string>* sequences,
      const SequenceSearchOptions& options);

  /// Reassembles a searcher from persisted state (bundle open): the n-gram
  /// vocabulary and index come from the bundle instead of being rebuilt,
  /// so queries compile to exactly the saved keywords. `sequences` is
  /// still consulted for verification (Algorithm 2) and must match the
  /// indexed dataset.
  /// `appended` (non-empty only on mutated bundles) are the sequences
  /// inserted after the base dataset, in id order: the index then holds
  /// between sequences->size() and sequences->size() + appended.size()
  /// objects and its vocabulary may be a subset of `vocab` (insertion grows
  /// the n-gram vocabulary ahead of compaction).
  static Result<std::unique_ptr<SequenceSearcher>> Restore(
      const std::vector<std::string>* sequences,
      const SequenceSearchOptions& options, StringVocabulary vocab,
      InvertedIndex index, std::vector<std::string> appended = {});

  Result<std::vector<SequenceSearchOutcome>> SearchBatch(
      std::span<const std::string> queries);

  /// Compiles a query sequence: one single-keyword item per ordered n-gram
  /// known to the vocabulary.
  Query Compile(const std::string& query) const;
  std::vector<Query> CompileBatch(std::span<const std::string> queries) const;

  /// Verifies the first round's candidates (`candidates[i]` answers
  /// `queries[i]`) with Algorithm 2 and — when escalation is enabled —
  /// runs the later rounds on the live backend at a wider K. The facade
  /// stages and executes the first round itself and calls this inside its
  /// execute critical section: not thread-safe, and the time lands in
  /// verify_seconds().
  Result<std::vector<SequenceSearchOutcome>> VerifyBatch(
      std::span<const std::string> queries,
      const std::vector<QueryResult>& candidates);

  MatchProfile profile() const { return engine_->profile(); }
  double verify_seconds() const { return verify_seconds_; }
  EngineBackend& backend() { return *engine_; }
  uint32_t ngram() const { return options_.ngram; }
  /// Locked vocabulary serialization for Save: safe against a concurrent
  /// insert that is still in its ExtractKeywords phase (PauseMutation only
  /// blocks the id-assignment phase).
  Status SerializeVocabulary(serialize::Writer* writer) const;

  // --- Live insertion support (Engine::Insert on the sequences modality).
  // Inserted sequences live in an internal append log so verification can
  // read them by id; the n-gram vocabulary grows as new grams appear.

  /// Decomposes one sequence into its index keywords, growing the
  /// vocabulary for unseen n-grams. Thread-safe against Compile/Verify.
  std::vector<Keyword> ExtractKeywords(const std::string& sequence);
  /// Appends one inserted sequence to the verification log; the caller
  /// assigns ids contiguously after the base dataset.
  void AppendSequence(std::string sequence);
  uint32_t num_appended() const;
  /// The sequence of any live id: the base dataset for
  /// id < sequences->size(), the append log above that. The returned
  /// reference stays valid for the searcher's lifetime (deque storage).
  const std::string& SequenceAt(ObjectId id) const;
  /// Writes u32 count + each appended sequence (the v2 bundle side data).
  Status SerializeAppended(serialize::Writer* writer) const;

 private:
  SequenceSearcher(const std::vector<std::string>* sequences,
                   const SequenceSearchOptions& options);

  Status Init();
  /// Creates the EngineBackend over the (built or restored) index_.
  Status SetUpEngine();

  /// Algorithm 2 over one query's candidate list.
  SequenceSearchOutcome Verify(const std::string& query,
                               const QueryResult& candidates) const;

  const std::vector<std::string>* sequences_;
  SequenceSearchOptions options_;
  /// Guards vocab_ and appended_: Compile/Verify take it shared,
  /// ExtractKeywords/AppendSequence take it exclusive. A deque keeps
  /// references into appended_ stable across concurrent growth, so
  /// SequenceAt can release the lock before its caller reads the string.
  mutable std::shared_mutex data_mu_;
  StringVocabulary vocab_;
  std::deque<std::string> appended_;
  InvertedIndex index_;
  std::unique_ptr<EngineBackend> engine_;
  double verify_seconds_ = 0;
};

}  // namespace sa
}  // namespace genie
