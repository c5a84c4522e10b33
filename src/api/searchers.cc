#include "api/searcher.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <utility>

#include "api/profile.h"
#include "core/batch_assembler.h"
#include "index/delta/delta_store.h"
#include "lsh/e2lsh.h"
#include "lsh/lsh_searcher.h"
#include "lsh/min_hash.h"
#include "lsh/random_binning.h"
#include "lsh/set_searcher.h"
#include "sa/document_searcher.h"
#include "sa/relational.h"
#include "sa/sequence_searcher.h"

namespace genie {

// ---------------------------------------------------------------------------
// The per-modality adapter
// ---------------------------------------------------------------------------

/// What differs per modality: the mapping of objects and queries into
/// keywords (Definition 2.1), how answers are shaped, the side data an
/// inserted object keeps, and the bundle meta. Each adapter owns its domain
/// searcher, whose EngineBackend the Searcher stages and executes on.
class Searcher::Adapter {
 public:
  /// One chunk's answers, between the execute critical section and hit
  /// shaping.
  struct Answers {
    /// The backend's top-k candidates per query.
    std::vector<QueryResult> raw;
    /// Sequences only: the verified kNN per query (Algorithm 2).
    std::vector<sa::SequenceSearchOutcome> verified;
  };
  /// Parses a bundle's mutation section given the saved dataset size, and
  /// returns the number of objects inserted after it (0 when frozen).
  using MutationReader = std::function<Result<uint32_t>(uint32_t base)>;

  virtual ~Adapter() = default;

  /// Objects of the bound dataset (compiled: of the index) — the id
  /// watermark the first mutation starts from.
  virtual uint32_t base_objects() const = 0;
  virtual EngineBackend& backend() const = 0;

  /// Builds the domain searcher from the config (Engine::Create).
  virtual Status Build(const EngineConfig& config) = 0;
  /// Bundle open: parses the meta blob and checks the rebound dataset
  /// against it, calls `read_mutation`, then restores the domain searcher
  /// over the loaded index.
  virtual Status Open(const EngineConfig& config, serialize::Reader* meta,
                      const MutationReader& read_mutation,
                      InvertedIndex index, const plan::IndexStats* stats) = 0;

  /// The request's queries, compiled into `storage` (compiled requests are
  /// queries already and come back as they are).
  virtual Result<std::span<const Query>> Compile(
      const SearchRequest& request, std::vector<Query>* storage) const = 0;
  /// Runs inside the execute critical section, right after the backend
  /// answered, so its time lands in the cumulative verify_s.
  virtual Status Verify(const SearchRequest& request, Answers* answers) {
    (void)request;
    (void)answers;
    return Status::OK();
  }
  virtual double verify_seconds() const { return 0; }
  /// Runs outside the critical section. Default: the plain hit copy that
  /// documents, relational and compiled share — the match count is the
  /// whole answer.
  virtual void Shape(const SearchRequest& request, const Answers& answers,
                     SearchResult* result) const;
  virtual uint32_t DeriveChunkSize(const SearchRequest& request,
                                   double memory_fraction) const {
    (void)request;
    (void)memory_fraction;
    return 0;
  }

  /// Object i's keywords; runs outside the controller's state lock.
  virtual std::vector<Keyword> Keywords(const InsertRequest& request,
                                        size_t i) = 0;
  /// Keeps object i's side data; runs under the state lock right after its
  /// id was assigned, so side data is appended in id order.
  virtual void Append(const InsertRequest& request, size_t i) {
    (void)request;
    (void)i;
  }

  virtual Status SerializeMeta(serialize::Writer* writer) const = 0;
  /// The appended side data behind the delta snapshot; default: none.
  virtual Status SerializeSideData(serialize::Writer* writer) const {
    (void)writer;
    return Status::OK();
  }
  /// Reads what SerializeSideData wrote; returns the object count, or
  /// nullopt when the modality keeps no side data.
  virtual Result<std::optional<uint32_t>> ReadSideData(
      serialize::Reader* reader) {
    (void)reader;
    return std::optional<uint32_t>();
  }
};

void Searcher::Adapter::Shape(const SearchRequest& request,
                              const Answers& answers,
                              SearchResult* result) const {
  (void)request;
  result->queries.resize(answers.raw.size());
  for (size_t q = 0; q < answers.raw.size(); ++q) {
    QueryHits& out = result->queries[q];
    out.hits.reserve(answers.raw[q].entries.size());
    for (const TopKEntry& e : answers.raw[q].entries) {
      out.hits.push_back(Hit{e.id, e.count, static_cast<double>(e.count)});
    }
    out.threshold = answers.raw[q].threshold;
  }
}

namespace {

using Adapter = Searcher::Adapter;

constexpr uint32_t kDefaultHashFunctions = 64;
constexpr uint32_t kDefaultPointsRehashDomain = 8192;
constexpr uint32_t kDefaultSetsRehashDomain = 1024;

/// Bundle meta tags for the concrete LSH family types; caller-supplied
/// custom families cannot be persisted (Save fails with Unimplemented).
constexpr uint8_t kVectorFamilyE2Lsh = 1;
constexpr uint8_t kVectorFamilyRandomBinning = 2;
constexpr uint8_t kSetFamilyMinHash = 1;

MatchEngineOptions BaseEngineOptions(const EngineConfig& config) {
  MatchEngineOptions options;
  options.k = config.k();
  options.max_count = config.max_count();
  switch (config.selector()) {
    case SelectorKind::kCpq:
      options.selector = MatchEngineOptions::Selector::kCpq;
      break;
    case SelectorKind::kCountTableSpq:
      options.selector = MatchEngineOptions::Selector::kCountTableSpq;
      break;
    case SelectorKind::kBucketSelect:
      options.selector = MatchEngineOptions::Selector::kBucketSelect;
      break;
  }
  options.block_dim = config.block_dim();
  options.max_lists_per_block = config.max_lists_per_block();
  options.collect_ht_stats = config.collect_ht_stats();
  options.device = config.device();
  return options;
}

EngineBackendOptions BackendOptions(const EngineConfig& config,
                                    const plan::IndexStats* stats = nullptr) {
  EngineBackendOptions options;
  options.allow_multi_load = config.allow_multi_load();
  options.max_parts = config.max_parts();
  options.force_parts = config.force_parts();
  options.shard_build.max_list_length = config.max_list_length();
  options.num_devices = config.num_devices();
  options.remote = config.remote();
  options.index_stats = stats;
  return options;
}

IndexBuildOptions BuildOptions(const EngineConfig& config) {
  IndexBuildOptions options;
  options.max_list_length = config.max_list_length();
  return options;
}

/// Candidates to fetch per query for the re-rank / verify modalities.
uint32_t CandidatePoolSize(const EngineConfig& config) {
  return config.candidate_k() > 0 ? config.candidate_k()
                                  : std::max(config.k(), 32u);
}

/// MC_k of one answer list: the k-th match count when k answers exist.
/// Precondition: `hits` is in descending match-count order.
uint32_t ThresholdOf(const std::vector<Hit>& hits, uint32_t k) {
  return hits.size() >= k ? hits[k - 1].match_count : 0;
}

/// MC_k of a list in arbitrary order (verified / re-ranked answers).
uint32_t KthLargestCount(const std::vector<Hit>& hits, uint32_t k) {
  if (hits.size() < k) return 0;
  std::vector<uint32_t> counts;
  counts.reserve(hits.size());
  for (const Hit& hit : hits) counts.push_back(hit.match_count);
  std::sort(counts.begin(), counts.end(), std::greater<>());
  return counts[k - 1];
}

delta::MutationOptions MutationOptionsFrom(const EngineConfig& config) {
  delta::MutationOptions options;
  options.seal_threshold = config.delta_seal_threshold();
  options.auto_compact_segments = config.auto_compact_segments();
  options.build = BuildOptions(config);
  return options;
}

/// The LSH re-rank that points and sets share: hits in match-count order
/// scored by the c/m similarity estimate (Eqn. 7), MC_k over that order,
/// then — with ExactRerank — re-scored by `exact(q, id)` and re-sorted;
/// finally cut to k.
template <typename ExactScore>
void ShapeLshHits(const std::vector<QueryResult>& raw, double m, uint32_t k,
                  bool rerank, const ExactScore& exact,
                  SearchResult* result) {
  result->queries.resize(raw.size());
  for (size_t q = 0; q < raw.size(); ++q) {
    QueryHits& out = result->queries[q];
    out.hits.reserve(raw[q].entries.size());
    for (const TopKEntry& e : raw[q].entries) {
      out.hits.push_back(Hit{e.id, e.count, e.count / m});
    }
    // MC_k over the match-count ordering, before any re-rank disturbs it.
    out.threshold = ThresholdOf(out.hits, k);
    if (rerank) {
      for (Hit& hit : out.hits) hit.score = exact(q, hit.id);
      std::sort(out.hits.begin(), out.hits.end(),
                [](const Hit& a, const Hit& b) { return a.score > b.score; });
    }
    if (out.hits.size() > k) out.hits.resize(k);
  }
}

/// Raw payloads of inserted points rows or sets, kept for the exact
/// re-rank and persisted as the bundle's side data.
template <typename T>
class AppendLog {
 public:
  void Append(std::span<const T> object) {
    std::lock_guard<std::shared_mutex> lock(mu_);
    objects_.emplace_back(object.begin(), object.end());
  }

  /// The span survives the unlock: a growing outer vector moves the inner
  /// vectors but never their heap buffers, and appended objects are
  /// immutable.
  std::span<const T> At(size_t i) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    const std::vector<T>& object = objects_[i];
    return std::span<const T>(object.data(), object.size());
  }

  Status Serialize(serialize::Writer* writer) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    writer->U32(static_cast<uint32_t>(objects_.size()));
    for (const std::vector<T>& object : objects_) writer->Vec(object);
    return Status::OK();
  }

  /// Reads what Serialize wrote; `width` > 0 requires that many elements
  /// per object. Runs before the searcher is visible to other threads.
  Result<std::optional<uint32_t>> Read(serialize::Reader* reader,
                                       size_t width) {
    uint32_t count = 0;
    GENIE_RETURN_NOT_OK(reader->U32(&count));
    objects_.reserve(std::min<size_t>(count, reader->remaining()));
    for (uint32_t i = 0; i < count; ++i) {
      std::vector<T> object;
      GENIE_RETURN_NOT_OK(reader->Vec(&object));
      if (width > 0 && object.size() != width) {
        return Status::InvalidArgument(
            "bundle mutation row dimension does not match the dataset");
      }
      objects_.push_back(std::move(object));
    }
    return std::optional<uint32_t>(count);
  }

 private:
  mutable std::shared_mutex mu_;
  std::vector<std::vector<T>> objects_;
};

// ---------------------------------------------------------------------------
// Points (tau-ANN under an LSH family, Section IV)
// ---------------------------------------------------------------------------

/// The runtime options points (LshSearchOptions) and sets
/// (SetSearchOptions) share between create and open.
template <typename Options>
Options LshRuntimeOptions(const EngineConfig& config,
                          uint32_t default_rehash_domain,
                          const plan::IndexStats* stats = nullptr) {
  Options options;
  options.transform.rehash_domain = config.rehash_domain() > 0
                                        ? config.rehash_domain()
                                        : default_rehash_domain;
  options.transform.seed = config.seed();
  options.engine = BaseEngineOptions(config);
  options.engine.k =
      config.exact_rerank() ? CandidatePoolSize(config) : config.k();
  options.build = BuildOptions(config);
  options.backend = BackendOptions(config, stats);
  return options;
}

class PointsAdapter : public Adapter {
 public:
  explicit PointsAdapter(const EngineConfig& config)
      : points_(config.points()), k_(config.k()),
        rerank_(config.exact_rerank()), p_(config.metric_p()) {}

  uint32_t base_objects() const override { return points_->num_points(); }
  EngineBackend& backend() const override { return searcher_->backend(); }

  Status Build(const EngineConfig& config) override {
    if (points_ == nullptr) return Status::InvalidArgument("points is null");
    if (points_->num_points() == 0) {
      return Status::InvalidArgument("points dataset is empty");
    }
    std::shared_ptr<const lsh::VectorLshFamily> family =
        config.vector_family();
    if (family == nullptr) {
      lsh::E2LshOptions lsh_options;
      lsh_options.dim = points_->dim();
      lsh_options.num_functions = config.hash_functions() > 0
                                      ? config.hash_functions()
                                      : kDefaultHashFunctions;
      lsh_options.p = config.metric_p();
      lsh_options.seed = config.seed();
      GENIE_ASSIGN_OR_RETURN(family, lsh::E2LshFamily::Create(lsh_options));
    }
    GENIE_ASSIGN_OR_RETURN(
        searcher_, lsh::LshSearcher::Create(
                       points_, std::move(family),
                       LshRuntimeOptions<lsh::LshSearchOptions>(
                           config, kDefaultPointsRehashDomain)));
    return Status::OK();
  }

  Status Open(const EngineConfig& config, serialize::Reader* meta,
              const MutationReader& read_mutation, InvertedIndex index,
              const plan::IndexStats* stats) override {
    if (points_ == nullptr) {
      return Status::InvalidArgument(
          "opening a points bundle requires the Points dataset binding");
    }
    uint8_t family_tag = 0;
    GENIE_RETURN_NOT_OK(meta->U8(&family_tag));
    uint32_t family_dim = 0;
    std::shared_ptr<const lsh::VectorLshFamily> family;
    if (family_tag == kVectorFamilyE2Lsh) {
      GENIE_ASSIGN_OR_RETURN(std::unique_ptr<lsh::E2LshFamily> e2lsh,
                             lsh::E2LshFamily::Deserialize(meta));
      family_dim = e2lsh->options().dim;
      family = std::move(e2lsh);
    } else if (family_tag == kVectorFamilyRandomBinning) {
      GENIE_ASSIGN_OR_RETURN(
          std::unique_ptr<lsh::RandomBinningFamily> binning,
          lsh::RandomBinningFamily::Deserialize(meta));
      family_dim = binning->options().dim;
      family = std::move(binning);
    } else {
      return Status::InvalidArgument("unknown vector LSH family in bundle");
    }
    GENIE_ASSIGN_OR_RETURN(lsh::LshTransformer transformer,
                           lsh::LshTransformer::Deserialize(family, meta));
    uint32_t num_objects = 0;
    uint32_t dim = 0;
    GENIE_RETURN_NOT_OK(meta->U32(&num_objects));
    GENIE_RETURN_NOT_OK(meta->U32(&dim));
    GENIE_RETURN_NOT_OK(meta->ExpectEnd());
    // A crafted bundle (valid checksum, inconsistent fields) whose family
    // dimension disagrees with the dataset dimension would otherwise only
    // surface at query time as a fatal dimension check inside RawHash.
    if (family_dim != dim) {
      return Status::InvalidArgument(
          "bundle LSH family dimension does not match the saved dataset "
          "dimension");
    }
    if (points_->num_points() != num_objects || points_->dim() != dim) {
      return Status::InvalidArgument(
          "rebound points dataset does not match the saved engine");
    }
    GENIE_ASSIGN_OR_RETURN(const uint32_t appended, read_mutation(num_objects));
    GENIE_ASSIGN_OR_RETURN(
        searcher_, lsh::LshSearcher::Restore(
                       points_, std::move(transformer), std::move(index),
                       LshRuntimeOptions<lsh::LshSearchOptions>(
                           config, kDefaultPointsRehashDomain, stats),
                       appended));
    return Status::OK();
  }

  Result<std::span<const Query>> Compile(
      const SearchRequest& request,
      std::vector<Query>* storage) const override {
    *storage = searcher_->CompileBatch(*request.points);
    return std::span<const Query>(*storage);
  }

  void Shape(const SearchRequest& request, const Answers& answers,
             SearchResult* result) const override {
    ShapeLshHits(
        answers.raw, searcher_->transformer().family().num_functions(), k_,
        rerank_,
        [&](size_t q, ObjectId id) {
          const auto query_row = request.points->row(static_cast<uint32_t>(q));
          const double d = p_ == 1 ? data::L1Distance(RowAt(id), query_row)
                                   : data::L2Distance(RowAt(id), query_row);
          return -d;
        },
        result);
  }

  std::vector<Keyword> Keywords(const InsertRequest& request,
                                size_t i) override {
    return searcher_->transformer().Transform(
        request.points->row(static_cast<uint32_t>(i)));
  }

  void Append(const InsertRequest& request, size_t i) override {
    appended_.Append(request.points->row(static_cast<uint32_t>(i)));
  }

  Status SerializeMeta(serialize::Writer* writer) const override {
    const lsh::VectorLshFamily& family = searcher_->transformer().family();
    if (const auto* e2lsh = dynamic_cast<const lsh::E2LshFamily*>(&family)) {
      writer->U8(kVectorFamilyE2Lsh);
      e2lsh->Serialize(writer);
    } else if (const auto* binning =
                   dynamic_cast<const lsh::RandomBinningFamily*>(&family)) {
      writer->U8(kVectorFamilyRandomBinning);
      binning->Serialize(writer);
    } else {
      return Status::Unimplemented(
          "only engines over the built-in E2LSH or random-binning families "
          "support Save");
    }
    searcher_->transformer().Serialize(writer);
    writer->U32(points_->num_points());
    writer->U32(points_->dim());
    return Status::OK();
  }

  Status SerializeSideData(serialize::Writer* writer) const override {
    return appended_.Serialize(writer);
  }

  Result<std::optional<uint32_t>> ReadSideData(
      serialize::Reader* reader) override {
    return appended_.Read(reader, points_->dim());
  }

 private:
  /// The row of any live id: base rows from the bound dataset, inserted
  /// rows from the append log.
  std::span<const float> RowAt(ObjectId id) const {
    const uint32_t base = points_->num_points();
    return id < base ? points_->row(id) : appended_.At(id - base);
  }

  const data::PointMatrix* points_;
  uint32_t k_;
  bool rerank_;
  uint32_t p_;
  std::unique_ptr<lsh::LshSearcher> searcher_;
  AppendLog<float> appended_;
};

// ---------------------------------------------------------------------------
// Sets (Jaccard via MinHash, Section II-B1)
// ---------------------------------------------------------------------------

class SetsAdapter : public Adapter {
 public:
  explicit SetsAdapter(const EngineConfig& config)
      : sets_(config.sets()), k_(config.k()),
        rerank_(config.exact_rerank()) {}

  uint32_t base_objects() const override {
    return static_cast<uint32_t>(sets_->size());
  }
  EngineBackend& backend() const override { return searcher_->backend(); }

  Status Build(const EngineConfig& config) override {
    if (sets_ == nullptr) return Status::InvalidArgument("sets is null");
    if (sets_->empty()) return Status::InvalidArgument("sets dataset is empty");
    std::shared_ptr<const lsh::SetLshFamily> family = config.set_family();
    if (family == nullptr) {
      lsh::MinHashOptions minhash;
      minhash.num_functions = config.hash_functions() > 0
                                  ? config.hash_functions()
                                  : kDefaultHashFunctions;
      minhash.seed = config.seed();
      GENIE_ASSIGN_OR_RETURN(family, lsh::MinHashFamily::Create(minhash));
    }
    GENIE_ASSIGN_OR_RETURN(
        searcher_, lsh::SetLshSearcher::Create(
                       sets_, std::move(family),
                       LshRuntimeOptions<lsh::SetSearchOptions>(
                           config, kDefaultSetsRehashDomain)));
    return Status::OK();
  }

  Status Open(const EngineConfig& config, serialize::Reader* meta,
              const MutationReader& read_mutation, InvertedIndex index,
              const plan::IndexStats* stats) override {
    if (sets_ == nullptr) {
      return Status::InvalidArgument(
          "opening a sets bundle requires the Sets dataset binding");
    }
    uint8_t family_tag = 0;
    GENIE_RETURN_NOT_OK(meta->U8(&family_tag));
    if (family_tag != kSetFamilyMinHash) {
      return Status::InvalidArgument("unknown set LSH family in bundle");
    }
    GENIE_ASSIGN_OR_RETURN(std::shared_ptr<const lsh::SetLshFamily> family,
                           lsh::MinHashFamily::Deserialize(meta));
    // The saved transform state overrides the config's transform knobs: the
    // reopened engine must hash exactly like the saved one.
    auto options = LshRuntimeOptions<lsh::SetSearchOptions>(
        config, kDefaultSetsRehashDomain, stats);
    uint8_t rehash = 0;
    GENIE_RETURN_NOT_OK(meta->U32(&options.transform.rehash_domain));
    GENIE_RETURN_NOT_OK(meta->U64(&options.transform.seed));
    GENIE_RETURN_NOT_OK(meta->U8(&rehash));
    options.transform.rehash = rehash != 0;
    std::vector<uint64_t> rehash_seeds;
    GENIE_RETURN_NOT_OK(meta->Vec(&rehash_seeds));
    uint32_t num_objects = 0;
    GENIE_RETURN_NOT_OK(meta->U32(&num_objects));
    GENIE_RETURN_NOT_OK(meta->ExpectEnd());
    if (sets_->size() != num_objects) {
      return Status::InvalidArgument(
          "rebound sets dataset does not match the saved engine");
    }
    GENIE_ASSIGN_OR_RETURN(const uint32_t appended, read_mutation(num_objects));
    GENIE_ASSIGN_OR_RETURN(
        searcher_, lsh::SetLshSearcher::Restore(
                       sets_, std::move(family), options,
                       std::move(rehash_seeds), std::move(index), appended));
    return Status::OK();
  }

  Result<std::span<const Query>> Compile(
      const SearchRequest& request,
      std::vector<Query>* storage) const override {
    *storage = searcher_->CompileBatch(request.sets);
    return std::span<const Query>(*storage);
  }

  void Shape(const SearchRequest& request, const Answers& answers,
             SearchResult* result) const override {
    const lsh::SetLshFamily& family = searcher_->family();
    ShapeLshHits(
        answers.raw, family.num_functions(), k_, rerank_,
        [&](size_t q, ObjectId id) {
          return family.CollisionProbability(SetAt(id), request.sets[q]);
        },
        result);
  }

  std::vector<Keyword> Keywords(const InsertRequest& request,
                                size_t i) override {
    return searcher_->Transform(request.sets[i]);
  }

  void Append(const InsertRequest& request, size_t i) override {
    appended_.Append(request.sets[i]);
  }

  Status SerializeMeta(serialize::Writer* writer) const override {
    const auto* min_hash =
        dynamic_cast<const lsh::MinHashFamily*>(&searcher_->family());
    if (min_hash == nullptr) {
      return Status::Unimplemented(
          "only engines over the built-in MinHash family support Save");
    }
    writer->U8(kSetFamilyMinHash);
    min_hash->Serialize(writer);
    const lsh::LshTransformOptions& transform =
        searcher_->transform_options();
    writer->U32(transform.rehash_domain);
    writer->U64(transform.seed);
    writer->U8(transform.rehash ? 1 : 0);
    writer->Vec(searcher_->rehash_seeds());
    writer->U32(static_cast<uint32_t>(sets_->size()));
    return Status::OK();
  }

  Status SerializeSideData(serialize::Writer* writer) const override {
    return appended_.Serialize(writer);
  }

  Result<std::optional<uint32_t>> ReadSideData(
      serialize::Reader* reader) override {
    return appended_.Read(reader, 0);
  }

 private:
  /// The elements of any live id (see PointsAdapter::RowAt).
  std::span<const uint32_t> SetAt(ObjectId id) const {
    return id < sets_->size() ? std::span<const uint32_t>((*sets_)[id])
                              : appended_.At(id - sets_->size());
  }

  const std::vector<std::vector<uint32_t>>* sets_;
  uint32_t k_;
  bool rerank_;
  std::unique_ptr<lsh::SetLshSearcher> searcher_;
  AppendLog<uint32_t> appended_;
};

// ---------------------------------------------------------------------------
// Sequences (edit distance via ordered n-grams, Section V-A)
// ---------------------------------------------------------------------------

sa::SequenceSearchOptions SequencesRuntimeOptions(
    const EngineConfig& config, const plan::IndexStats* stats = nullptr) {
  sa::SequenceSearchOptions options;
  options.ngram = config.ngram();
  options.k = config.k();
  options.candidate_k = CandidatePoolSize(config);
  options.escalate_until_exact = config.escalate_until_exact();
  options.max_candidate_k =
      std::max(config.max_candidate_k(), options.candidate_k);
  options.engine = BaseEngineOptions(config);
  options.backend = BackendOptions(config, stats);
  return options;
}

class SequencesAdapter : public Adapter {
 public:
  explicit SequencesAdapter(const EngineConfig& config)
      : sequences_(config.sequences()), k_(config.k()) {}

  uint32_t base_objects() const override {
    return static_cast<uint32_t>(sequences_->size());
  }
  EngineBackend& backend() const override { return searcher_->backend(); }

  Status Build(const EngineConfig& config) override {
    if (sequences_ == nullptr) {
      return Status::InvalidArgument("sequences is null");
    }
    if (sequences_->empty()) {
      return Status::InvalidArgument("sequences dataset is empty");
    }
    GENIE_ASSIGN_OR_RETURN(
        searcher_, sa::SequenceSearcher::Create(
                       sequences_, SequencesRuntimeOptions(config)));
    return Status::OK();
  }

  Status Open(const EngineConfig& config, serialize::Reader* meta,
              const MutationReader& read_mutation, InvertedIndex index,
              const plan::IndexStats* stats) override {
    if (sequences_ == nullptr) {
      return Status::InvalidArgument(
          "opening a sequences bundle requires the Sequences dataset binding");
    }
    sa::SequenceSearchOptions options = SequencesRuntimeOptions(config, stats);
    GENIE_RETURN_NOT_OK(meta->U32(&options.ngram));
    GENIE_ASSIGN_OR_RETURN(StringVocabulary vocab,
                           StringVocabulary::Deserialize(meta));
    uint32_t num_objects = 0;
    GENIE_RETURN_NOT_OK(meta->U32(&num_objects));
    GENIE_RETURN_NOT_OK(meta->ExpectEnd());
    if (sequences_->size() != num_objects) {
      return Status::InvalidArgument(
          "rebound sequences dataset does not match the saved engine");
    }
    GENIE_RETURN_NOT_OK(read_mutation(num_objects).status());
    GENIE_ASSIGN_OR_RETURN(
        searcher_,
        sa::SequenceSearcher::Restore(sequences_, options, std::move(vocab),
                                      std::move(index), std::move(appended_)));
    return Status::OK();
  }

  Result<std::span<const Query>> Compile(
      const SearchRequest& request,
      std::vector<Query>* storage) const override {
    *storage = searcher_->CompileBatch(request.sequences);
    return std::span<const Query>(*storage);
  }

  /// Algorithm 2 and any escalation rounds.
  Status Verify(const SearchRequest& request, Answers* answers) override {
    GENIE_ASSIGN_OR_RETURN(
        answers->verified,
        searcher_->VerifyBatch(request.sequences, answers->raw));
    return Status::OK();
  }

  double verify_seconds() const override {
    return searcher_->verify_seconds();
  }

  void Shape(const SearchRequest& request, const Answers& answers,
             SearchResult* result) const override {
    (void)request;
    result->queries.resize(answers.verified.size());
    for (size_t q = 0; q < answers.verified.size(); ++q) {
      const sa::SequenceSearchOutcome& outcome = answers.verified[q];
      QueryHits& out = result->queries[q];
      out.hits.reserve(outcome.knn.size());
      for (const sa::SequenceMatch& m : outcome.knn) {
        out.hits.push_back(Hit{m.id, m.match_count,
                               -static_cast<double>(m.edit_distance)});
      }
      // Hits are ordered by edit distance; MC_k comes from their counts.
      out.threshold = KthLargestCount(out.hits, k_);
      out.certified_exact = outcome.certified_exact;
      out.rounds = outcome.rounds;
    }
  }

  /// Grows the n-gram vocabulary before the controller's state lock;
  /// harmless if the insert then fails (the frozen index maps unknown
  /// keywords to empty lists).
  std::vector<Keyword> Keywords(const InsertRequest& request,
                                size_t i) override {
    return searcher_->ExtractKeywords(request.sequences[i]);
  }

  void Append(const InsertRequest& request, size_t i) override {
    searcher_->AppendSequence(request.sequences[i]);
  }

  Status SerializeMeta(serialize::Writer* writer) const override {
    writer->U32(searcher_->ngram());
    GENIE_RETURN_NOT_OK(searcher_->SerializeVocabulary(writer));
    writer->U32(static_cast<uint32_t>(sequences_->size()));
    return Status::OK();
  }

  Status SerializeSideData(serialize::Writer* writer) const override {
    return searcher_->SerializeAppended(writer);
  }

  Result<std::optional<uint32_t>> ReadSideData(
      serialize::Reader* reader) override {
    uint32_t count = 0;
    GENIE_RETURN_NOT_OK(reader->U32(&count));
    appended_.reserve(std::min<size_t>(count, reader->remaining()));
    for (uint32_t i = 0; i < count; ++i) {
      std::string sequence;
      GENIE_RETURN_NOT_OK(reader->String(&sequence));
      appended_.push_back(std::move(sequence));
    }
    return std::optional<uint32_t>(count);
  }

 private:
  const std::vector<std::string>* sequences_;
  uint32_t k_;
  std::unique_ptr<sa::SequenceSearcher> searcher_;
  /// Bundle open: the side data, read before the searcher exists.
  std::vector<std::string> appended_;
};

// ---------------------------------------------------------------------------
// Documents (inner product on word sets, Section V-B)
// ---------------------------------------------------------------------------

sa::DocumentSearchOptions DocumentsRuntimeOptions(
    const EngineConfig& config, const plan::IndexStats* stats = nullptr) {
  sa::DocumentSearchOptions options;
  options.k = config.k();
  options.engine = BaseEngineOptions(config);
  options.backend = BackendOptions(config, stats);
  return options;
}

class DocumentsAdapter : public Adapter {
 public:
  explicit DocumentsAdapter(const EngineConfig& config)
      : documents_(config.documents()) {}

  uint32_t base_objects() const override {
    return static_cast<uint32_t>(documents_->size());
  }
  EngineBackend& backend() const override { return searcher_->backend(); }

  Status Build(const EngineConfig& config) override {
    if (documents_ == nullptr) {
      return Status::InvalidArgument("documents is null");
    }
    if (documents_->empty()) {
      return Status::InvalidArgument("documents dataset is empty");
    }
    GENIE_ASSIGN_OR_RETURN(
        searcher_, sa::DocumentSearcher::Create(
                       documents_, DocumentsRuntimeOptions(config)));
    return Status::OK();
  }

  Status Open(const EngineConfig& config, serialize::Reader* meta,
              const MutationReader& read_mutation, InvertedIndex index,
              const plan::IndexStats* stats) override {
    if (documents_ == nullptr) {
      return Status::InvalidArgument(
          "opening a documents bundle requires the Documents dataset binding");
    }
    uint32_t vocab_size = 0;
    uint32_t num_objects = 0;
    GENIE_RETURN_NOT_OK(meta->U32(&vocab_size));
    GENIE_RETURN_NOT_OK(meta->U32(&num_objects));
    GENIE_RETURN_NOT_OK(meta->ExpectEnd());
    if (documents_->size() != num_objects) {
      return Status::InvalidArgument(
          "rebound documents dataset does not match the saved engine");
    }
    GENIE_ASSIGN_OR_RETURN(const uint32_t appended, read_mutation(num_objects));
    GENIE_ASSIGN_OR_RETURN(
        searcher_, sa::DocumentSearcher::Restore(
                       documents_, DocumentsRuntimeOptions(config, stats),
                       vocab_size, std::move(index), appended));
    return Status::OK();
  }

  Result<std::span<const Query>> Compile(
      const SearchRequest& request,
      std::vector<Query>* storage) const override {
    *storage = searcher_->CompileBatch(request.documents);
    return std::span<const Query>(*storage);
  }

  /// Documents need no side data: the match count is the whole answer, so
  /// only the keywords (deduped tokens) are retained, in the delta.
  std::vector<Keyword> Keywords(const InsertRequest& request,
                                size_t i) override {
    return searcher_->ExtractKeywords(request.documents[i]);
  }

  Status SerializeMeta(serialize::Writer* writer) const override {
    writer->U32(searcher_->vocab_size());
    writer->U32(static_cast<uint32_t>(documents_->size()));
    return Status::OK();
  }

 private:
  const std::vector<std::vector<uint32_t>>* documents_;
  std::unique_ptr<sa::DocumentSearcher> searcher_;
};

// ---------------------------------------------------------------------------
// Relational (top-k selection on range predicates, Section V-C)
// ---------------------------------------------------------------------------

class RelationalAdapter : public Adapter {
 public:
  explicit RelationalAdapter(const EngineConfig& config)
      : table_(config.table()) {}

  uint32_t base_objects() const override { return table_->num_rows(); }
  EngineBackend& backend() const override { return searcher_->backend(); }

  Status Build(const EngineConfig& config) override {
    if (table_ == nullptr) return Status::InvalidArgument("table is null");
    GENIE_ASSIGN_OR_RETURN(
        searcher_, sa::RelationalSearcher::Create(
                       table_, config.k(), BaseEngineOptions(config),
                       BuildOptions(config), BackendOptions(config)));
    return Status::OK();
  }

  Status Open(const EngineConfig& config, serialize::Reader* meta,
              const MutationReader& read_mutation, InvertedIndex index,
              const plan::IndexStats* stats) override {
    if (table_ == nullptr) {
      return Status::InvalidArgument(
          "opening a relational bundle requires the Table dataset binding");
    }
    uint32_t num_rows = 0;
    std::vector<uint32_t> cardinalities;
    GENIE_RETURN_NOT_OK(meta->U32(&num_rows));
    GENIE_RETURN_NOT_OK(meta->Vec(&cardinalities));
    GENIE_RETURN_NOT_OK(meta->ExpectEnd());
    GENIE_ASSIGN_OR_RETURN(const uint32_t appended, read_mutation(num_rows));
    GENIE_ASSIGN_OR_RETURN(
        searcher_,
        sa::RelationalSearcher::Restore(
            table_, config.k(), cardinalities, num_rows, std::move(index),
            BaseEngineOptions(config), BuildOptions(config),
            BackendOptions(config, stats), appended));
    return Status::OK();
  }

  Result<std::span<const Query>> Compile(
      const SearchRequest& request,
      std::vector<Query>* storage) const override {
    GENIE_ASSIGN_OR_RETURN(*storage, searcher_->CompileBatch(request.ranges));
    return std::span<const Query>(*storage);
  }

  /// Rows need no side data: the keywords in the delta are the row.
  std::vector<Keyword> Keywords(const InsertRequest& request,
                                size_t i) override {
    const DimValueEncoder& encoder = searcher_->encoder();
    const std::vector<uint32_t>& row = request.rows[i];
    std::vector<Keyword> keywords(row.size());
    for (uint32_t c = 0; c < row.size(); ++c) {
      keywords[c] = encoder.EncodeUnchecked(c, row[c]);
    }
    return keywords;
  }

  Status SerializeMeta(serialize::Writer* writer) const override {
    writer->U32(table_->num_rows());
    const DimValueEncoder& encoder = searcher_->encoder();
    std::vector<uint32_t> cardinalities(encoder.num_dims());
    for (uint32_t d = 0; d < encoder.num_dims(); ++d) {
      cardinalities[d] = encoder.buckets(d);
    }
    writer->Vec(cardinalities);
    return Status::OK();
  }

 private:
  const sa::RelationalTable* table_;
  std::unique_ptr<sa::RelationalSearcher> searcher_;
};

// ---------------------------------------------------------------------------
// Compiled (raw Definition-2.1 queries over a caller-built index)
// ---------------------------------------------------------------------------

class CompiledAdapter : public Adapter {
 public:
  explicit CompiledAdapter(const EngineConfig& config)
      : index_(config.index()) {}

  uint32_t base_objects() const override { return index_->num_objects(); }
  EngineBackend& backend() const override { return *backend_; }

  Status Build(const EngineConfig& config) override {
    if (index_ == nullptr) return Status::InvalidArgument("index is null");
    GENIE_ASSIGN_OR_RETURN(
        backend_, EngineBackend::Create(index_, BaseEngineOptions(config),
                                        BackendOptions(config)));
    return Status::OK();
  }

  /// A bundle has no caller-held index to borrow: the adapter owns the
  /// loaded one (the index is the whole state; the meta blob is empty).
  Status Open(const EngineConfig& config, serialize::Reader* meta,
              const MutationReader& read_mutation, InvertedIndex index,
              const plan::IndexStats* stats) override {
    GENIE_RETURN_NOT_OK(meta->ExpectEnd());
    GENIE_RETURN_NOT_OK(read_mutation(index.num_objects()).status());
    owned_index_ = std::move(index);
    index_ = &owned_index_;
    GENIE_ASSIGN_OR_RETURN(
        backend_, EngineBackend::Create(index_, BaseEngineOptions(config),
                                        BackendOptions(config, stats)));
    return Status::OK();
  }

  Result<std::span<const Query>> Compile(
      const SearchRequest& request,
      std::vector<Query>* storage) const override {
    (void)storage;
    return request.compiled;
  }

  uint32_t DeriveChunkSize(const SearchRequest& request,
                           double memory_fraction) const override {
    const uint32_t max_count =
        backend_->options().max_count > 0
            ? backend_->options().max_count
            : MatchEngine::DeriveMaxCount(request.compiled);
    const uint64_t per_query = MatchEngine::DeviceBytesPerQuery(
        backend_->index()->num_objects(), backend_->options(), max_count);
    const EngineBackend::BatchBudget budget = backend_->batch_budget();
    return BatchAssembler::DeriveFromMemory(budget.capacity_bytes,
                                            budget.allocated_bytes, per_query,
                                            memory_fraction);
  }

  std::vector<Keyword> Keywords(const InsertRequest& request,
                                size_t i) override {
    return request.objects[i];
  }

  Status SerializeMeta(serialize::Writer* writer) const override {
    (void)writer;  // the index is the whole state
    return Status::OK();
  }

 private:
  InvertedIndex owned_index_;
  const InvertedIndex* index_;
  std::unique_ptr<EngineBackend> backend_;
};

std::unique_ptr<Adapter> NewAdapter(Modality modality,
                                    const EngineConfig& config) {
  switch (modality) {
    case Modality::kPoints: return std::make_unique<PointsAdapter>(config);
    case Modality::kSets: return std::make_unique<SetsAdapter>(config);
    case Modality::kSequences:
      return std::make_unique<SequencesAdapter>(config);
    case Modality::kDocuments:
      return std::make_unique<DocumentsAdapter>(config);
    case Modality::kRelational:
      return std::make_unique<RelationalAdapter>(config);
    case Modality::kCompiled: return std::make_unique<CompiledAdapter>(config);
  }
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// Searcher
// ---------------------------------------------------------------------------

Searcher::Searcher(Modality modality, std::unique_ptr<Adapter> adapter,
                   delta::MutationOptions mutation_options,
                   const delta::DeltaSnapshot* restored)
    : modality_(modality), adapter_(std::move(adapter)),
      mutation_options_(std::move(mutation_options)) {
  if (restored != nullptr) {
    std::vector<ObjectId> tombstones = restored->tombstones == nullptr
                                           ? std::vector<ObjectId>{}
                                           : *restored->tombstones;
    EnsureController().delta_store()->Restore(
        restored->segments, std::move(tombstones), restored->next_id);
  }
}

Searcher::~Searcher() = default;

uint32_t Searcher::num_objects() const {
  const delta::MutationController* controller = this->controller();
  return controller == nullptr ? adapter_->base_objects()
                               : static_cast<uint32_t>(controller->next_id());
}

Result<SearchResult> Searcher::Search(const SearchRequest& request) {
  GENIE_ASSIGN_OR_RETURN(std::unique_ptr<PreparedChunk> chunk,
                         PrepareChunk(request));
  return ExecutePrepared(std::move(chunk));
}

Result<std::unique_ptr<Searcher::PreparedChunk>> Searcher::PrepareChunk(
    const SearchRequest& request) {
  auto chunk = std::make_unique<PreparedChunk>();
  chunk->request = request;
  GENIE_ASSIGN_OR_RETURN(const std::span<const Query> queries,
                         adapter_->Compile(request, &chunk->compiled));
  GENIE_ASSIGN_OR_RETURN(chunk->staged, adapter_->backend().Prepare(queries));
  return chunk;
}

Result<SearchResult> Searcher::ExecutePrepared(
    std::unique_ptr<PreparedChunk> chunk) {
  EngineBackend& backend = adapter_->backend();
  Adapter::Answers answers;
  BackendSnapshot before, after;
  {
    // Critical section: the backend execution, sequence verification (its
    // seconds feed the cumulative verify_s) and the profile bookkeeping.
    // Re-ranking and hit shaping run outside it.
    std::lock_guard<std::mutex> lock(execute_mu_);
    before = {backend.profile_snapshot(), adapter_->verify_seconds()};
    GENIE_ASSIGN_OR_RETURN(answers.raw,
                           backend.Execute(std::move(chunk->staged)));
    GENIE_RETURN_NOT_OK(adapter_->Verify(chunk->request, &answers));
    after = {backend.profile_snapshot(), adapter_->verify_seconds()};
  }
  SearchResult result;
  adapter_->Shape(chunk->request, answers, &result);
  FillProfiles(&result, before, after);
  return result;
}

uint32_t Searcher::DeriveChunkSize(const SearchRequest& request,
                                   double memory_fraction) const {
  return adapter_->DeriveChunkSize(request, memory_fraction);
}

Status Searcher::SerializeBundleMeta(serialize::Writer* writer) const {
  return adapter_->SerializeMeta(writer);
}

const InvertedIndex* Searcher::BundleIndex() const {
  // The build-time (or loaded) index until a compaction swaps in a fresh
  // one. Save holds PauseMutation, so no commit can swap — and retire — it
  // for the duration.
  return adapter_->backend().index().get();
}

Result<std::vector<ObjectId>> Searcher::Insert(const InsertRequest& request) {
  delta::MutationController& controller = EnsureController();
  std::vector<ObjectId> ids;
  ids.reserve(request.num_objects());
  for (size_t i = 0; i < request.num_objects(); ++i) {
    // Keyword extraction stays outside the controller's state lock.
    const std::vector<Keyword> keywords = adapter_->Keywords(request, i);
    ids.push_back(controller.Insert(
        keywords, [&](ObjectId) { adapter_->Append(request, i); }));
  }
  return ids;
}

Status Searcher::Remove(std::span<const ObjectId> ids) {
  // Removing base objects from a never-mutated engine is valid, so the
  // controller is created here too.
  delta::MutationController& controller = EnsureController();
  for (ObjectId id : ids) GENIE_RETURN_NOT_OK(controller.Remove(id));
  return Status::OK();
}

Status Searcher::Flush() {
  delta::MutationController* controller = this->controller();
  return controller == nullptr ? Status::OK() : controller->Flush();
}

MutationStats Searcher::mutation_stats() const {
  const delta::MutationController* controller = this->controller();
  if (controller == nullptr) return {};
  const delta::MutationStats stats = controller->stats();
  MutationStats out;
  out.inserts = stats.inserts;
  out.removes = stats.removes;
  out.compactions = stats.compactions;
  out.last_compact_seconds = stats.last_compact_seconds;
  out.last_pause_seconds = stats.last_pause_seconds;
  return out;
}

std::string Searcher::ExplainPlan() const {
  return adapter_->backend().ExplainPlan();
}

uint32_t Searcher::PlannedChunkSize() const {
  const plan::ExecutionPlan plan = adapter_->backend().execution_plan();
  return plan.planned ? plan.chunk_size : 0;
}

uint64_t Searcher::DataGeneration() const {
  return adapter_->backend().data_generation();
}

std::shared_ptr<void> Searcher::PauseMutation() {
  delta::MutationController* controller = this->controller();
  if (controller == nullptr) return nullptr;
  return std::make_shared<delta::MutationController::Pause>(
      controller->PauseMutation());
}

Status Searcher::SerializeMutationState(serialize::Writer* writer) const {
  const delta::MutationController* controller = this->controller();
  if (controller == nullptr) return Status::OK();
  delta::SerializeDelta(controller->delta_store()->snapshot(), writer);
  return adapter_->SerializeSideData(writer);
}

delta::MutationController* Searcher::controller() const {
  std::lock_guard<std::mutex> lock(controller_mu_);
  return controller_.get();
}

delta::MutationController& Searcher::EnsureController() {
  std::lock_guard<std::mutex> lock(controller_mu_);
  if (controller_ == nullptr) {
    controller_ = std::make_unique<delta::MutationController>(
        &adapter_->backend(), adapter_->base_objects(), mutation_options_);
  }
  return *controller_;
}

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Searcher>> MakeSearcher(const EngineConfig& config) {
  std::unique_ptr<Adapter> adapter = NewAdapter(config.modality(), config);
  GENIE_RETURN_NOT_OK(adapter->Build(config));
  return std::make_unique<Searcher>(config.modality(), std::move(adapter),
                                    MutationOptionsFrom(config));
}

Result<std::unique_ptr<Searcher>> OpenSearcher(
    Modality modality, const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats) {
  std::unique_ptr<Adapter> adapter = NewAdapter(modality, config);
  // The mutation section: the delta snapshot, then the modality's appended
  // side data, then the watermark check between the two and the saved
  // dataset size `base`.
  delta::DeltaSnapshot snap;
  const Adapter::MutationReader read_mutation =
      [&](uint32_t base) -> Result<uint32_t> {
    if (mutation == nullptr) return 0;
    delta::DeltaStore staged(0, 1);
    GENIE_RETURN_NOT_OK(delta::DeserializeDelta(mutation, &staged));
    snap = staged.snapshot();
    GENIE_ASSIGN_OR_RETURN(const std::optional<uint32_t> side,
                           adapter->ReadSideData(mutation));
    GENIE_RETURN_NOT_OK(mutation->ExpectEnd());
    if (side.has_value() && snap.next_id != uint64_t{base} + *side) {
      return Status::InvalidArgument(
          "bundle mutation watermark does not match its appended side data");
    }
    if (snap.next_id < base) {
      return Status::InvalidArgument(
          "bundle mutation watermark is below the saved dataset size");
    }
    return snap.next_id - base;
  };
  GENIE_RETURN_NOT_OK(
      adapter->Open(config, meta, read_mutation, std::move(index), stats));
  return std::make_unique<Searcher>(modality, std::move(adapter),
                                    MutationOptionsFrom(config),
                                    mutation != nullptr ? &snap : nullptr);
}

}  // namespace genie
