#pragma once

/// \file searcher.h
/// The facade's searcher. GENIE serves every data type through one
/// match-count inverted index; only the mapping of objects and queries into
/// keywords (Definition 2.1) differs per type. So there is one Searcher,
/// which implements search, streaming, live mutation, bundle persistence
/// and the planner reports once over the modality's EngineBackend, and one
/// small adapter per modality (Searcher::Adapter, in searchers.cc) for what
/// really differs: compiling a request into Query items, shaping answers,
/// extracting an inserted object's keywords and side data, and reading and
/// writing the bundle meta. genie::Engine holds exactly one Searcher.

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/types.h"
#include "common/result.h"
#include "common/serialize.h"
#include "core/engine_backend.h"
#include "index/delta/mutation_controller.h"
#include "index/inverted_index.h"
#include "plan/index_stats.h"

namespace genie {

/// Search over one indexed dataset of any modality.
class Searcher {
 public:
  /// What differs per modality; one implementation each in searchers.cc.
  class Adapter;

  /// `restored` is a mutated bundle's delta state (nullptr otherwise),
  /// adopted before the searcher is visible to other threads.
  Searcher(Modality modality, std::unique_ptr<Adapter> adapter,
           delta::MutationOptions mutation_options,
           const delta::DeltaSnapshot* restored = nullptr);
  ~Searcher();

  Modality modality() const { return modality_; }
  uint32_t num_objects() const;

  /// Answers one batch; the request's payload kind has already been
  /// validated by Engine::Search. Thread-safe: the facade does not
  /// serialize Search calls. One mutex guards exactly the backend execution
  /// and its profile-delta bookkeeping; results are shaped outside it, so
  /// concurrent callers overlap host work with device work. Implemented as
  /// ExecutePrepared(PrepareChunk(request)), so the blocking and pipelined
  /// paths share one code path and stay byte-identical.
  Result<SearchResult> Search(const SearchRequest& request);

  /// One chunk of a pipelined stream, prepared ahead of execution: the
  /// chunk's compiled queries and its device staging memory. Dropping an
  /// unexecuted chunk (cancellation) releases both.
  struct PreparedChunk {
    /// The sliced request this chunk answers. Payload spans are borrowed:
    /// the facade keeps the backing request (and any materialized points
    /// slice) alive until ExecutePrepared returns or the chunk is dropped.
    SearchRequest request;
    /// The modality's queries (empty for compiled requests, which are
    /// queries already); `staged` borrows them.
    std::vector<Query> compiled;
    EngineBackend::StagedChunk staged;
  };

  /// Prepare stage of the pipelined SearchStream: the modality's query
  /// transform, then EngineBackend::Prepare, deliberately outside the
  /// execute critical section — the facade runs PrepareChunk(chunk k+1)
  /// concurrently with ExecutePrepared(chunk k) on this searcher.
  Result<std::unique_ptr<PreparedChunk>> PrepareChunk(
      const SearchRequest& request);

  /// Execute stage: answers a prepared chunk, with results identical to
  /// Search(chunk->request).
  Result<SearchResult> ExecutePrepared(std::unique_ptr<PreparedChunk> chunk);

  /// Queries per stream chunk derived from the free device memory, for
  /// SearchStream's chunk_size = 0 mode. 0 = no modality-specific
  /// derivation (the facade falls back to its 1024 default).
  uint32_t DeriveChunkSize(const SearchRequest& request,
                           double memory_fraction) const;

  /// Bundle persistence (Engine::Save): writes the modality-specific
  /// query-side state — LSH family coefficients + re-hash seeds, n-gram
  /// vocabulary, token universe, column layout — that a reopened engine
  /// needs to compile queries exactly like this one. Unimplemented for
  /// caller-supplied LSH families.
  Status SerializeBundleMeta(serialize::Writer* writer) const;

  /// The inverted index Engine::Save embeds in the bundle: the backend's
  /// current (possibly compacted) index — call under PauseMutation so a
  /// compaction commit cannot swap it mid-save.
  const InvertedIndex* BundleIndex() const;

  // --- Live mutation (Engine::Insert / Remove / Flush). --------------------

  /// Inserts a batch (payload kind already validated); returns assigned ids.
  Result<std::vector<ObjectId>> Insert(const InsertRequest& request);

  /// Tombstones ids.
  Status Remove(std::span<const ObjectId> ids);

  /// Synchronous compaction barrier; a no-op on never-mutated engines.
  Status Flush();

  MutationStats mutation_stats() const;

  /// Planner report of the backend (Engine::ExplainPlan).
  std::string ExplainPlan() const;

  /// Stream chunk size the backend's ExecutionPlan recommends; 0 when no
  /// plan is live (an escalation replaced it). Second step of SearchStream's
  /// chunk_size = 0 fallback chain, between the modality derivation and
  /// the fixed 1024 default.
  uint32_t PlannedChunkSize() const;

  /// Monotone counter of answer-changing index mutations (Insert / Remove /
  /// the compaction hot-swap), from EngineBackend::data_generation. The
  /// serving layer's ResultCache keys entries on it so a cached answer is
  /// never served across a mutation. Internal tier switches do not bump it
  /// — they change the schedule, not the answers.
  uint64_t DataGeneration() const;

  /// Stops mutations and compaction commits while the returned guard
  /// lives (nullptr when the engine was never mutated — nothing to
  /// pause). Engine::Save holds this across the (meta, mutation, index)
  /// serialization so the triple is consistent.
  std::shared_ptr<void> PauseMutation();

  /// GNIEBNDL mutation section (delta snapshot + appended side data).
  /// Writing nothing means a frozen engine.
  Status SerializeMutationState(serialize::Writer* writer) const;

 private:
  /// The mutation controller, or nullptr while the engine is frozen.
  delta::MutationController* controller() const;
  /// The controller, created on first use: a frozen engine pays nothing
  /// (no delta store, no compaction thread) until its first Insert/Remove.
  delta::MutationController& EnsureController();

  const Modality modality_;
  std::unique_ptr<Adapter> adapter_;
  /// The execute critical section.
  std::mutex execute_mu_;
  const delta::MutationOptions mutation_options_;
  mutable std::mutex controller_mu_;
  /// Declared after adapter_: destroyed first, joining the compaction
  /// worker before the backend it compacts dies.
  std::unique_ptr<delta::MutationController> controller_;
};

/// Builds the searcher for the config's dataset binding and knobs (which
/// Engine::Create has validated).
Result<std::unique_ptr<Searcher>> MakeSearcher(const EngineConfig& config);

/// Bundle open (Engine::Open): reassembles a `modality` searcher from the
/// bundle's meta blob and loaded index, re-binding the config's dataset
/// for re-ranking and verification. The meta blob is consumed whole
/// (trailing bytes are InvalidArgument) and the rebound dataset is checked
/// against the saved shape. `mutation` is the bundle's mutation section
/// (delta segments + tombstone log + appended side data) or nullptr for a
/// frozen engine; when present it is consumed whole and the engine reopens
/// live, with the saved delta state adopted. `stats` is the bundle's
/// persisted IndexStats (GNIEBNDL v3) or nullptr for older bundles —
/// borrowed only for the call; when present and still matching the loaded
/// index, the backend skips its stats pass.
Result<std::unique_ptr<Searcher>> OpenSearcher(
    Modality modality, const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats = nullptr);

}  // namespace genie
