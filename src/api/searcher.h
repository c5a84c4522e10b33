#pragma once

/// \file searcher.h
/// The polymorphic searcher seam of the facade: one implementation per
/// modality, each wrapping its domain searcher (LshSearcher, SetLshSearcher,
/// SequenceSearcher, DocumentSearcher, RelationalSearcher) or the raw
/// EngineBackend (compiled queries), all behind factory functions keyed by
/// EngineConfig. genie::Engine holds exactly one of these.

#include <memory>

#include "api/engine.h"
#include "api/types.h"
#include "common/result.h"
#include "common/serialize.h"
#include "index/inverted_index.h"
#include "plan/index_stats.h"

namespace genie {

/// Modality-erased search over one indexed dataset.
class Searcher {
 public:
  virtual ~Searcher() = default;

  virtual Modality modality() const = 0;
  virtual uint32_t num_objects() const = 0;

  /// Answers one batch; the request's payload kind has already been
  /// validated by Engine::Search. Implementations must be thread-safe: the
  /// facade does not serialize Search calls. Each implementation holds its
  /// own mutex around exactly the backend execution and its profile-delta
  /// bookkeeping, and shapes results outside that critical section so
  /// concurrent callers overlap host work with device work. Implemented as
  /// ExecutePrepared(PrepareChunk(request)), so the blocking and pipelined
  /// paths share one code path and stay byte-identical.
  virtual Result<SearchResult> Search(const SearchRequest& request) = 0;

  /// One chunk of a pipelined stream, prepared ahead of execution. Holds
  /// the chunk's compiled queries and its device staging memory; dropping
  /// an unexecuted chunk (cancellation) releases both.
  struct PreparedChunk {
    virtual ~PreparedChunk() = default;
    /// The sliced request this chunk answers. Payload spans are borrowed:
    /// the facade keeps the backing request (and any materialized points
    /// slice) alive until ExecutePrepared returns or the chunk is dropped.
    SearchRequest request;
  };

  /// Prepare stage of the pipelined SearchStream: the modality's query
  /// transform plus backend staging, deliberately outside the execute
  /// critical section — the facade runs PrepareChunk(chunk k+1)
  /// concurrently with ExecutePrepared(chunk k) on this searcher.
  virtual Result<std::unique_ptr<PreparedChunk>> PrepareChunk(
      const SearchRequest& request) = 0;

  /// Execute stage: answers a prepared chunk, with results identical to
  /// Search(chunk->request).
  virtual Result<SearchResult> ExecutePrepared(
      std::unique_ptr<PreparedChunk> chunk) = 0;

  /// Queries per stream chunk derived from the free device memory, for
  /// SearchStream's chunk_size = 0 mode. 0 = no modality-specific
  /// derivation (the facade falls back to its 1024 default).
  virtual uint32_t DeriveChunkSize(const SearchRequest& request,
                                   double memory_fraction) const {
    (void)request;
    (void)memory_fraction;
    return 0;
  }

  /// Bundle persistence (Engine::Save): writes the modality-specific
  /// query-side state — LSH family coefficients + re-hash seeds, n-gram
  /// vocabulary, token universe, column layout — that a reopened engine
  /// needs to compile queries exactly like this one. Default: this
  /// searcher cannot be persisted.
  virtual Status SerializeBundleMeta(serialize::Writer* writer) const {
    (void)writer;
    return Status::Unimplemented("this engine does not support Save");
  }

  /// The inverted index Engine::Save embeds in the bundle; nullptr when
  /// the searcher cannot be persisted. For mutated engines this is the
  /// backend's current (possibly compacted) index — call under
  /// PauseMutation so a compaction commit cannot swap it mid-save.
  virtual const InvertedIndex* BundleIndex() const { return nullptr; }

  // --- Live mutation (Engine::Insert / Remove / Flush). --------------------

  /// Inserts a batch (payload kind already validated); returns assigned
  /// ids. Default: the modality does not support mutation.
  virtual Result<std::vector<ObjectId>> Insert(const InsertRequest& request) {
    (void)request;
    return Status::Unimplemented("this engine does not support Insert");
  }

  /// Tombstones ids. Default: the modality does not support mutation.
  virtual Status Remove(std::span<const ObjectId> ids) {
    (void)ids;
    return Status::Unimplemented("this engine does not support Remove");
  }

  /// Synchronous compaction barrier; a no-op on never-mutated engines.
  virtual Status Flush() { return Status::OK(); }

  virtual MutationStats mutation_stats() const { return {}; }

  /// Planner report of the wrapped backend (Engine::ExplainPlan). Default:
  /// the searcher has no planning backend.
  virtual std::string ExplainPlan() const { return "planner: unavailable"; }

  /// Stream chunk size the backend's ExecutionPlan recommends; 0 when no
  /// plan is live (an escalation replaced it). Second step of SearchStream's
  /// chunk_size = 0 fallback chain, between the modality derivation and
  /// the fixed 1024 default.
  virtual uint32_t PlannedChunkSize() const { return 0; }

  /// Monotone counter of answer-changing index mutations (Insert / Remove /
  /// the compaction hot-swap), from EngineBackend::data_generation. The
  /// serving layer's ResultCache keys entries on it so a cached answer is
  /// never served across a mutation. Internal tier switches do not bump it
  /// — they change the schedule, not the answers.
  virtual uint64_t DataGeneration() const { return 0; }

  /// Stops mutations and compaction commits while the returned guard
  /// lives (nullptr when the engine was never mutated — nothing to
  /// pause). Engine::Save holds this across the (meta, mutation, index)
  /// serialization so the triple is consistent.
  virtual std::shared_ptr<void> PauseMutation() { return nullptr; }

  /// GNIEBNDL v2 mutation section (segment manifest + tombstone log +
  /// appended side data). Writing nothing means the bundle stays v1 —
  /// exactly the frozen-engine format.
  virtual Status SerializeMutationState(serialize::Writer* writer) const {
    (void)writer;
    return Status::OK();
  }
};

/// Factory per modality; each reads its dataset binding and knobs from the
/// config (which Engine::Create has validated).
Result<std::unique_ptr<Searcher>> MakePointsSearcher(const EngineConfig& config);
Result<std::unique_ptr<Searcher>> MakeSetsSearcher(const EngineConfig& config);
Result<std::unique_ptr<Searcher>> MakeSequencesSearcher(
    const EngineConfig& config);
Result<std::unique_ptr<Searcher>> MakeDocumentsSearcher(
    const EngineConfig& config);
Result<std::unique_ptr<Searcher>> MakeRelationalSearcher(
    const EngineConfig& config);
Result<std::unique_ptr<Searcher>> MakeCompiledSearcher(
    const EngineConfig& config);

/// Bundle-open factories (Engine::Open): reassemble a modality searcher
/// from the bundle's deserialized meta state + loaded index, re-binding the
/// config's dataset for re-ranking / verification. Each factory consumes
/// the whole meta blob (trailing bytes are InvalidArgument) and validates
/// the rebound dataset against the saved shape. `mutation` is the GNIEBNDL
/// v2 mutation section (delta segments + tombstone log + appended side
/// data) or nullptr for a v1 bundle; when present the factory consumes it
/// fully and reopens the engine live, with the saved delta state adopted.
/// `stats` is the bundle's persisted IndexStats (GNIEBNDL v3) or nullptr
/// for older bundles — borrowed only for the call; when present and still
/// matching the loaded index, the backend skips its stats pass.
Result<std::unique_ptr<Searcher>> OpenPointsSearcher(
    const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats = nullptr);
Result<std::unique_ptr<Searcher>> OpenSetsSearcher(
    const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats = nullptr);
Result<std::unique_ptr<Searcher>> OpenSequencesSearcher(
    const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats = nullptr);
Result<std::unique_ptr<Searcher>> OpenDocumentsSearcher(
    const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats = nullptr);
Result<std::unique_ptr<Searcher>> OpenRelationalSearcher(
    const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats = nullptr);
Result<std::unique_ptr<Searcher>> OpenCompiledSearcher(
    const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats = nullptr);

}  // namespace genie
