#include "api/engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>

#include "api/searcher.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "serve/request_scheduler.h"

namespace genie {

namespace {

constexpr uint32_t kDefaultStreamChunk = 1024;

/// Sub-request over queries [offset, offset + count). Span payloads are
/// sliced in place; the points payload is materialized into `scratch`
/// (PointMatrix has no row-range view) — a copy of chunk_size * dim floats,
/// negligible beside the search itself.
using SteadyClock = std::chrono::steady_clock;

/// Seconds two wall-clock intervals genuinely overlapped.
double IntervalOverlapSeconds(SteadyClock::time_point a_start,
                              SteadyClock::time_point a_end,
                              SteadyClock::time_point b_start,
                              SteadyClock::time_point b_end) {
  const auto start = std::max(a_start, b_start);
  const auto end = std::min(a_end, b_end);
  if (end <= start) return 0;
  return std::chrono::duration<double>(end - start).count();
}

SearchRequest SliceRequest(const SearchRequest& request, size_t offset,
                           size_t count, data::PointMatrix* scratch) {
  SearchRequest chunk = request;
  switch (request.modality) {
    case Modality::kPoints: {
      *scratch = data::PointMatrix(static_cast<uint32_t>(count),
                                   request.points->dim());
      for (size_t i = 0; i < count; ++i) {
        const auto from =
            request.points->row(static_cast<uint32_t>(offset + i));
        std::copy(from.begin(), from.end(),
                  scratch->mutable_row(static_cast<uint32_t>(i)).begin());
      }
      chunk.points = scratch;
      break;
    }
    case Modality::kSets:
      chunk.sets = request.sets.subspan(offset, count);
      break;
    case Modality::kSequences:
      chunk.sequences = request.sequences.subspan(offset, count);
      break;
    case Modality::kDocuments:
      chunk.documents = request.documents.subspan(offset, count);
      break;
    case Modality::kRelational:
      chunk.ranges = request.ranges.subspan(offset, count);
      break;
    case Modality::kCompiled:
      chunk.compiled = request.compiled.subspan(offset, count);
      break;
  }
  return chunk;
}

/// The delivery step every stream path shares: folds one answered chunk
/// into the stream's aggregate, handing it to `on_chunk` on the way.
Status DeliverChunk(const SearchChunkCallback& on_chunk, size_t index,
                    size_t first_query, SearchResult chunk,
                    SearchResult* aggregate) {
  aggregate->profile.Accumulate(chunk.profile);
  aggregate->cumulative = chunk.cumulative;
  if (on_chunk) {
    SearchChunk delivery;
    delivery.index = index;
    delivery.first_query = first_query;
    delivery.result = std::move(chunk);
    GENIE_RETURN_NOT_OK(on_chunk(delivery));
    chunk = std::move(delivery.result);
  }
  for (QueryHits& hits : chunk.queries) {
    aggregate->queries.push_back(std::move(hits));
  }
  return Status::OK();
}

/// The steps of a served SearchStream, run by the thread that called it.
class StepQueue {
 public:
  void Push(std::function<void()> step) {
    std::lock_guard<std::mutex> lock(mu_);
    steps_.push_back(std::move(step));
    ready_.notify_one();
  }

  /// Waits for the next step and runs it.
  void RunOne() {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [this] { return !steps_.empty(); });
    std::function<void()> step = std::move(steps_.front());
    steps_.pop_front();
    lock.unlock();
    step();
  }

 private:
  std::mutex mu_;
  std::condition_variable ready_;
  std::deque<std::function<void()>> steps_;
};

}  // namespace

const char* ModalityToString(Modality modality) {
  switch (modality) {
    case Modality::kPoints: return "points";
    case Modality::kSets: return "sets";
    case Modality::kSequences: return "sequences";
    case Modality::kDocuments: return "documents";
    case Modality::kRelational: return "relational";
    case Modality::kCompiled: return "compiled";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// SearchRequest
// ---------------------------------------------------------------------------

SearchRequest SearchRequest::Points(const data::PointMatrix& queries) {
  SearchRequest request;
  request.modality = Modality::kPoints;
  request.points = &queries;
  return request;
}

SearchRequest SearchRequest::Sets(
    std::span<const std::vector<uint32_t>> queries) {
  SearchRequest request;
  request.modality = Modality::kSets;
  request.sets = queries;
  return request;
}

SearchRequest SearchRequest::Sequences(std::span<const std::string> queries) {
  SearchRequest request;
  request.modality = Modality::kSequences;
  request.sequences = queries;
  return request;
}

SearchRequest SearchRequest::Documents(
    std::span<const std::vector<uint32_t>> queries) {
  SearchRequest request;
  request.modality = Modality::kDocuments;
  request.documents = queries;
  return request;
}

SearchRequest SearchRequest::Ranges(std::span<const sa::RangeQuery> queries) {
  SearchRequest request;
  request.modality = Modality::kRelational;
  request.ranges = queries;
  return request;
}

SearchRequest SearchRequest::Compiled(std::span<const Query> queries) {
  SearchRequest request;
  request.modality = Modality::kCompiled;
  request.compiled = queries;
  return request;
}

size_t SearchRequest::num_queries() const {
  switch (modality) {
    case Modality::kPoints: return points != nullptr ? points->num_points() : 0;
    case Modality::kSets: return sets.size();
    case Modality::kSequences: return sequences.size();
    case Modality::kDocuments: return documents.size();
    case Modality::kRelational: return ranges.size();
    case Modality::kCompiled: return compiled.size();
  }
  return 0;
}

// ---------------------------------------------------------------------------
// InsertRequest
// ---------------------------------------------------------------------------

InsertRequest InsertRequest::Points(const data::PointMatrix& objects) {
  InsertRequest request;
  request.modality = Modality::kPoints;
  request.points = &objects;
  return request;
}

InsertRequest InsertRequest::Sets(
    std::span<const std::vector<uint32_t>> objects) {
  InsertRequest request;
  request.modality = Modality::kSets;
  request.sets = objects;
  return request;
}

InsertRequest InsertRequest::Sequences(std::span<const std::string> objects) {
  InsertRequest request;
  request.modality = Modality::kSequences;
  request.sequences = objects;
  return request;
}

InsertRequest InsertRequest::Documents(
    std::span<const std::vector<uint32_t>> objects) {
  InsertRequest request;
  request.modality = Modality::kDocuments;
  request.documents = objects;
  return request;
}

InsertRequest InsertRequest::Rows(
    std::span<const std::vector<uint32_t>> rows) {
  InsertRequest request;
  request.modality = Modality::kRelational;
  request.rows = rows;
  return request;
}

InsertRequest InsertRequest::Objects(
    std::span<const std::vector<Keyword>> objects) {
  InsertRequest request;
  request.modality = Modality::kCompiled;
  request.objects = objects;
  return request;
}

size_t InsertRequest::num_objects() const {
  switch (modality) {
    case Modality::kPoints: return points != nullptr ? points->num_points() : 0;
    case Modality::kSets: return sets.size();
    case Modality::kSequences: return sequences.size();
    case Modality::kDocuments: return documents.size();
    case Modality::kRelational: return rows.size();
    case Modality::kCompiled: return objects.size();
  }
  return 0;
}

// ---------------------------------------------------------------------------
// EngineConfig
// ---------------------------------------------------------------------------

EngineConfig& EngineConfig::Bind(Modality modality) {
  has_modality_ = true;
  modality_ = modality;
  return *this;
}

EngineConfig& EngineConfig::Points(const data::PointMatrix* points) {
  points_ = points;
  return Bind(Modality::kPoints);
}
EngineConfig& EngineConfig::Sets(
    const std::vector<std::vector<uint32_t>>* sets) {
  sets_ = sets;
  return Bind(Modality::kSets);
}
EngineConfig& EngineConfig::Sequences(
    const std::vector<std::string>* sequences) {
  sequences_ = sequences;
  return Bind(Modality::kSequences);
}
EngineConfig& EngineConfig::Documents(
    const std::vector<std::vector<uint32_t>>* documents) {
  documents_ = documents;
  return Bind(Modality::kDocuments);
}
EngineConfig& EngineConfig::Table(const sa::RelationalTable* table) {
  table_ = table;
  return Bind(Modality::kRelational);
}
EngineConfig& EngineConfig::Index(const InvertedIndex* index) {
  index_ = index;
  return Bind(Modality::kCompiled);
}

EngineConfig& EngineConfig::K(uint32_t k) {
  k_ = k;
  return *this;
}
EngineConfig& EngineConfig::CandidateK(uint32_t candidate_k) {
  candidate_k_ = candidate_k;
  return *this;
}
EngineConfig& EngineConfig::Selector(SelectorKind selector) {
  selector_ = selector;
  return *this;
}
EngineConfig& EngineConfig::Device(sim::Device* device) {
  device_ = device;
  return *this;
}
EngineConfig& EngineConfig::MaxCount(uint32_t max_count) {
  max_count_ = max_count;
  return *this;
}
EngineConfig& EngineConfig::MaxListLength(uint32_t max_list_length) {
  max_list_length_ = max_list_length;
  return *this;
}
EngineConfig& EngineConfig::BlockDim(uint32_t block_dim) {
  block_dim_ = block_dim;
  return *this;
}
EngineConfig& EngineConfig::MaxListsPerBlock(uint32_t max_lists) {
  max_lists_per_block_ = max_lists;
  return *this;
}
EngineConfig& EngineConfig::CollectHtStats(bool collect) {
  collect_ht_stats_ = collect;
  return *this;
}
EngineConfig& EngineConfig::Seed(uint64_t seed) {
  seed_ = seed;
  return *this;
}

EngineConfig& EngineConfig::VectorFamily(
    std::shared_ptr<const lsh::VectorLshFamily> family) {
  vector_family_ = std::move(family);
  return *this;
}
EngineConfig& EngineConfig::SetFamily(
    std::shared_ptr<const lsh::SetLshFamily> family) {
  set_family_ = std::move(family);
  return *this;
}
EngineConfig& EngineConfig::HashFunctions(uint32_t m) {
  hash_functions_ = m;
  return *this;
}
EngineConfig& EngineConfig::RehashDomain(uint32_t domain) {
  rehash_domain_ = domain;
  return *this;
}
EngineConfig& EngineConfig::MetricP(uint32_t p) {
  metric_p_ = p;
  return *this;
}
EngineConfig& EngineConfig::ExactRerank(bool rerank) {
  exact_rerank_ = rerank;
  return *this;
}

EngineConfig& EngineConfig::Ngram(uint32_t n) {
  ngram_ = n;
  return *this;
}
EngineConfig& EngineConfig::EscalateUntilExact(bool escalate) {
  escalate_until_exact_ = escalate;
  return *this;
}
EngineConfig& EngineConfig::MaxCandidateK(uint32_t max_candidate_k) {
  max_candidate_k_ = max_candidate_k;
  return *this;
}

EngineConfig& EngineConfig::DeltaSealThreshold(uint32_t objects) {
  delta_seal_threshold_ = objects;
  return *this;
}
EngineConfig& EngineConfig::AutoCompactSegments(uint32_t segments) {
  auto_compact_segments_ = segments;
  return *this;
}

EngineConfig& EngineConfig::AllowMultiLoad(bool allow) {
  allow_multi_load_ = allow;
  return *this;
}
EngineConfig& EngineConfig::MaxParts(uint32_t max_parts) {
  max_parts_ = max_parts;
  return *this;
}
EngineConfig& EngineConfig::ForceParts(uint32_t parts) {
  force_parts_ = parts;
  return *this;
}
EngineConfig& EngineConfig::Devices(uint32_t n) {
  num_devices_ = n;
  return *this;
}
EngineConfig& EngineConfig::Remote(net::RemoteOptions remote) {
  remote_ = std::move(remote);
  return *this;
}
EngineConfig& EngineConfig::Serving(ServingOptions options) {
  serving_enabled_ = true;
  serving_ = std::move(options);
  return *this;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Outlives the Engine via shared ownership with the async streams, so the
/// destructor's wait and a finishing stream never race on a dying mutex.
struct Engine::AsyncTracker {
  std::mutex mu;
  std::condition_variable cv;
  size_t inflight = 0;

  void Open() {
    std::lock_guard<std::mutex> lock(mu);
    ++inflight;
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mu);
    --inflight;
    cv.notify_all();
  }
};

/// One stream under serving, for SearchStream and SearchAsync alike (a
/// one-chunk request is a stream of one). It keeps at most two chunk
/// submissions outstanding in the scheduler and delivers answered chunks
/// strictly in input order, one at a time. A scheduler completion only
/// records its answer and hands the step now due to `post`. A step either
/// delivers one chunk (aggregation, callback, admission of the chunk two
/// places ahead) or resolves the stream's future. No step ever waits, so
/// the stream holds no thread between its steps.
class Engine::ServedStream
    : public std::enable_shared_from_this<ServedStream> {
 public:
  /// Runs a step off the dispatcher thread.
  using Post = std::function<void(std::function<void()>)>;

  /// `tracker`, when set, is closed right after the future resolves; the
  /// stream touches neither the engine nor the caller's payload afterwards.
  ServedStream(Engine* engine, const SearchRequest& request,
               size_t chunk_size, SearchChunkCallback on_chunk, Post post,
               std::shared_ptr<AsyncTracker> tracker)
      : engine_(engine),
        request_(request),
        chunk_size_(chunk_size),
        num_chunks_((request.num_queries() + chunk_size - 1) / chunk_size),
        on_chunk_(std::move(on_chunk)),
        post_(std::move(post)),
        tracker_(std::move(tracker)) {
    aggregate_.queries.reserve(request.num_queries());
  }

  /// Admits the first two chunks. The future resolves once every chunk is
  /// delivered, or, after the first error, once every outstanding
  /// submission has completed, since those borrow the caller's payload.
  std::future<Result<SearchResult>> Start() {
    std::future<Result<SearchResult>> future = promise_.get_future();
    const size_t window = std::min<size_t>(2, num_chunks_);
    SearchRequest chunks[2];
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < window; ++i) chunks[i] = PrepareLocked(i);
    }
    for (size_t i = 0; i < window; ++i) Admit(i, chunks[i]);
    return future;
  }

 private:
  enum class Step { kNone, kDeliver, kFinish };

  struct Slot {
    size_t first_query = 0;
    /// The points slice the submission borrows until it completes.
    data::PointMatrix scratch;
    std::optional<Result<SearchResult>> answer;
  };

  /// Slices chunk `index` into its slot and counts it outstanding.
  SearchRequest PrepareLocked(size_t index) {
    Slot& slot = slots_[index % 2];
    slot.first_query = index * chunk_size_;
    slot.answer.reset();
    next_submit_ = index + 1;
    ++outstanding_;
    const size_t count =
        std::min(chunk_size_, request_.num_queries() - slot.first_query);
    return SliceRequest(request_, slot.first_query, count, &slot.scratch);
  }

  /// Called with no lock held: a cache hit completes inline.
  void Admit(size_t index, const SearchRequest& chunk) {
    engine_->scheduler_->SubmitWith(
        chunk, [self = shared_from_this(), index](Result<SearchResult> answer) {
          self->OnAnswered(index, std::move(answer));
        });
  }

  void OnAnswered(size_t index, Result<SearchResult>&& answer) {
    Step step = Step::kNone;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --outstanding_;
      slots_[index % 2].answer = std::move(answer);
      step = ClaimStepLocked();
    }
    PostStep(step);
  }

  /// The step now due, if any; claiming it keeps every other step out
  /// until it ends.
  Step ClaimStepLocked() {
    if (busy_) return Step::kNone;
    const bool stopped = !error_.ok() || thrown_ != nullptr;
    Step step = Step::kNone;
    if (stopped ? outstanding_ == 0 : next_deliver_ == num_chunks_) {
      step = Step::kFinish;
    } else if (!stopped && slots_[next_deliver_ % 2].answer.has_value()) {
      step = Step::kDeliver;
    }
    busy_ = step != Step::kNone;
    return step;
  }

  void PostStep(Step step) {
    if (step == Step::kNone) return;
    post_([self = shared_from_this(), step] {
      if (step == Step::kDeliver) {
        self->Deliver();
      } else {
        self->Finish();
      }
    });
  }

  void Deliver() {
    size_t index = 0;
    size_t first_query = 0;
    std::optional<Result<SearchResult>> answer;
    {
      std::lock_guard<std::mutex> lock(mu_);
      index = next_deliver_;
      first_query = slots_[index % 2].first_query;
      answer.swap(slots_[index % 2].answer);
    }
    Status status = answer->status();
    std::exception_ptr thrown;
    if (answer->ok()) {
      try {
        status = DeliverChunk(on_chunk_, index, first_query,
                              std::move(**answer), &aggregate_);
      } catch (...) {
        thrown = std::current_exception();
      }
    }

    // Chunk `index` is delivered, so its slot is free for chunk index + 2.
    size_t next_index = 0;
    std::optional<SearchRequest> next;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++next_deliver_;
      thrown_ = thrown;
      error_ = status;
      if (status.ok() && thrown == nullptr && next_submit_ < num_chunks_) {
        next_index = next_submit_;
        next = PrepareLocked(next_index);
      }
    }
    if (next.has_value()) Admit(next_index, *next);

    Step step = Step::kNone;
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_ = false;
      step = ClaimStepLocked();
    }
    if (step == Step::kFinish) {
      Finish();
    } else {
      PostStep(step);
    }
  }

  void Finish() {
    Status error;
    std::exception_ptr thrown;
    {
      std::lock_guard<std::mutex> lock(mu_);
      error = error_;
      thrown = thrown_;
    }
    if (thrown != nullptr) {
      promise_.set_exception(thrown);
    } else if (!error.ok()) {
      promise_.set_value(error);
    } else {
      aggregate_.cumulative.overlap_seconds = engine_->AddOverlapSeconds(0);
      promise_.set_value(std::move(aggregate_));
    }
    if (tracker_ != nullptr) tracker_->Close();
  }

  Engine* const engine_;
  const SearchRequest request_;
  const size_t chunk_size_;
  const size_t num_chunks_;
  const SearchChunkCallback on_chunk_;
  const Post post_;
  const std::shared_ptr<AsyncTracker> tracker_;
  std::promise<Result<SearchResult>> promise_;

  std::mutex mu_;
  Slot slots_[2];  // chunk i lives in slots_[i % 2]
  size_t next_submit_ = 0;
  size_t next_deliver_ = 0;
  size_t outstanding_ = 0;  // admitted, not yet answered
  bool busy_ = false;       // a step is posted or running
  /// The first error, from the backend or the callback; it stops further
  /// admissions and deliveries.
  Status error_;
  std::exception_ptr thrown_;
  /// Touched only by the running step, and steps never overlap.
  SearchResult aggregate_;
};

Engine::Engine(EngineConfig config, std::unique_ptr<Searcher> searcher)
    : config_(std::move(config)), searcher_(std::move(searcher)),
      async_(std::make_shared<AsyncTracker>()) {
  if (config_.serving_enabled()) {
    scheduler_ = std::make_unique<serve::RequestScheduler>(searcher_.get(),
                                                           config_.serving());
  }
}

Engine::~Engine() {
  // An outstanding SearchAsync stream dereferences this engine; freeing it
  // mid-stream would be a use-after-free. Block until they resolve.
  std::unique_lock<std::mutex> lock(async_->mu);
  if (async_->inflight > 0) {
    // Waiting from a pool worker could starve the very tasks being waited
    // on (they need a free worker to start); fail loudly instead of
    // hanging. Resolve the futures before dropping the engine.
    GENIE_CHECK(!DefaultThreadPool()->InWorker())
        << "~Engine with outstanding SearchAsync work on a thread-pool "
           "worker would deadlock; wait on the futures first";
  }
  async_->cv.wait(lock, [this] { return async_->inflight == 0; });
}

Status Engine::ValidateCommonKnobs(const EngineConfig& config) {
  if (config.k() == 0) return Status::InvalidArgument("k must be >= 1");
  if (config.candidate_k() != 0 && config.candidate_k() < config.k()) {
    return Status::InvalidArgument("candidate_k must be >= k");
  }
  if (config.block_dim() == 0) {
    return Status::InvalidArgument("block_dim must be >= 1");
  }
  if (config.metric_p() != 1 && config.metric_p() != 2) {
    return Status::InvalidArgument("metric_p must be 1 or 2");
  }
  if (config.num_devices() == 0) {
    return Status::InvalidArgument("num_devices must be >= 1");
  }
  if (config.remote().enabled() && config.num_devices() > 1) {
    return Status::InvalidArgument(
        "Remote(endpoints) and Devices(n > 1) are mutually exclusive");
  }
  return Status::OK();
}

Result<std::unique_ptr<Engine>> Engine::Create(const EngineConfig& config) {
  if (!config.has_modality()) {
    return Status::InvalidArgument(
        "EngineConfig has no dataset binding; call one of Points / Sets / "
        "Sequences / Documents / Table / Index");
  }
  GENIE_RETURN_NOT_OK(ValidateCommonKnobs(config));

  GENIE_ASSIGN_OR_RETURN(std::unique_ptr<Searcher> searcher,
                         MakeSearcher(config));
  return std::unique_ptr<Engine>(new Engine(config, std::move(searcher)));
}

Modality Engine::modality() const { return searcher_->modality(); }

uint32_t Engine::num_objects() const { return searcher_->num_objects(); }

Status Engine::ValidateRequest(const SearchRequest& request) const {
  if (request.modality != searcher_->modality()) {
    return Status::InvalidArgument(
        std::string("request payload is '") +
        ModalityToString(request.modality) + "' but the engine serves '" +
        ModalityToString(searcher_->modality()) + "'");
  }
  if (request.num_queries() == 0) {
    return Status::InvalidArgument("empty query batch");
  }
  if (request.modality == Modality::kPoints &&
      request.points->dim() != config_.points()->dim()) {
    return Status::InvalidArgument(
        "query dimension " + std::to_string(request.points->dim()) +
        " does not match dataset dimension " +
        std::to_string(config_.points()->dim()));
  }
  return Status::OK();
}

Result<SearchResult> Engine::Search(const SearchRequest& request) {
  GENIE_RETURN_NOT_OK(ValidateRequest(request));
  // Serving path: admit into the scheduler, which coalesces this call with
  // concurrent submissions (or answers it from the hot-query cache) and
  // blocks until the answer is demuxed back. Same answers, same Status
  // contract; only the schedule and the profile's serving fields differ.
  Result<SearchResult> result = scheduler_ != nullptr
                                    ? scheduler_->Submit(request)
                                    : searcher_->Search(request);
  if (result.ok()) {
    // Keep the cumulative overlap total monotonic across call types: a
    // blocking Search contributes no overlap but still reports the
    // engine-lifetime figure, like SearchStream does.
    result->cumulative.overlap_seconds = AddOverlapSeconds(0);
  }
  return result;
}

Status Engine::ValidateInsertRequest(const InsertRequest& request) const {
  if (request.modality != searcher_->modality()) {
    return Status::InvalidArgument(
        std::string("insert payload is '") +
        ModalityToString(request.modality) + "' but the engine serves '" +
        ModalityToString(searcher_->modality()) + "'");
  }
  if (request.num_objects() == 0) {
    return Status::InvalidArgument("empty insert batch");
  }
  if (request.modality == Modality::kPoints &&
      request.points->dim() != config_.points()->dim()) {
    return Status::InvalidArgument(
        "insert dimension " + std::to_string(request.points->dim()) +
        " does not match dataset dimension " +
        std::to_string(config_.points()->dim()));
  }
  if (request.modality == Modality::kRelational) {
    // The whole batch is checked before any id is assigned, so a malformed
    // row cannot leave a partially inserted batch behind.
    const sa::RelationalTable& table = *config_.table();
    for (const std::vector<uint32_t>& row : request.rows) {
      if (row.size() != table.num_columns()) {
        return Status::InvalidArgument(
            "inserted row does not match the table's column count");
      }
      for (uint32_t c = 0; c < row.size(); ++c) {
        if (row[c] >= table.cardinality(c)) {
          return Status::OutOfRange(
              "inserted row value outside the column's domain");
        }
      }
    }
  }
  return Status::OK();
}

Result<std::vector<ObjectId>> Engine::Insert(const InsertRequest& request) {
  GENIE_RETURN_NOT_OK(ValidateInsertRequest(request));
  return searcher_->Insert(request);
}

Status Engine::Remove(std::span<const ObjectId> ids) {
  if (ids.empty()) return Status::InvalidArgument("empty remove batch");
  return searcher_->Remove(ids);
}

Status Engine::Flush() { return searcher_->Flush(); }

MutationStats Engine::mutation_stats() const {
  return searcher_->mutation_stats();
}

std::string Engine::ExplainPlan() const { return searcher_->ExplainPlan(); }

ServingStats Engine::serving_stats() const {
  return scheduler_ != nullptr ? scheduler_->stats() : ServingStats{};
}

double Engine::AddOverlapSeconds(double delta) {
  std::lock_guard<std::mutex> lock(overlap_mu_);
  overlap_total_s_ += delta;
  return overlap_total_s_;
}

size_t Engine::StreamChunkSize(const SearchRequest& request,
                               const SearchStreamOptions& options) const {
  size_t chunk_size = options.chunk_size;
  if (chunk_size == 0) {
    // The derivation models the per-query working memory (c-PQ arenas /
    // count tables), which is allocated only while a chunk executes and is
    // never resident for two chunks at once — pipelining double-buffers
    // only the small task-list staging, which fits in the derivation's
    // free-capacity headroom (and a staging ResourceExhausted merely falls
    // back to unpipelined execution for that chunk). So the same fraction
    // applies with and without pipelining.
    chunk_size = searcher_->DeriveChunkSize(request, options.memory_fraction);
  }
  // Next preference: the chunk size the backend's ExecutionPlan derived
  // from the residency headroom (0 when no plan is live).
  if (chunk_size == 0) chunk_size = searcher_->PlannedChunkSize();
  if (chunk_size == 0) chunk_size = kDefaultStreamChunk;
  return chunk_size;
}

Result<SearchResult> Engine::SearchStream(const SearchRequest& request,
                                          const SearchStreamOptions& options,
                                          const SearchChunkCallback& on_chunk) {
  GENIE_RETURN_NOT_OK(ValidateRequest(request));
  const size_t chunk_size = StreamChunkSize(request, options);

  if (scheduler_ != nullptr) {
    // Serving path: the served-stream driver, with every step run here on
    // the calling thread. Chunk k+1 queues (and may coalesce with chunk k
    // or with other callers' submissions) while chunk k is answered.
    auto steps = std::make_shared<StepQueue>();
    auto stream = std::make_shared<ServedStream>(
        this, request, chunk_size,
        on_chunk ? SearchChunkCallback(std::cref(on_chunk))
                 : SearchChunkCallback(),
        [steps](std::function<void()> step) { steps->Push(std::move(step)); },
        nullptr);
    std::future<Result<SearchResult>> future = stream->Start();
    while (future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      steps->RunOne();
    }
    return future.get();
  }

  const size_t total = request.num_queries();
  const size_t num_chunks = (total + chunk_size - 1) / chunk_size;
  SearchResult aggregate;
  aggregate.queries.reserve(total);

  if (!options.pipeline || num_chunks <= 1) {
    // Sequential path: prepare and execute each chunk back-to-back.
    size_t index = 0;
    for (size_t done = 0; done < total; done += chunk_size, ++index) {
      const size_t count = std::min(chunk_size, total - done);
      data::PointMatrix scratch;
      const SearchRequest chunk_request =
          SliceRequest(request, done, count, &scratch);
      // The searcher serializes one chunk's backend execution, not the
      // stream: concurrent streams on one engine interleave chunk-by-chunk,
      // each chunk's profile delta is computed atomically with its batch,
      // and a chunk's host-side result shaping overlaps the next chunk's
      // device work.
      Result<SearchResult> chunk = searcher_->Search(chunk_request);
      // Cancellation on first error: remaining chunks are never submitted.
      if (!chunk.ok()) return chunk.status();
      GENIE_RETURN_NOT_OK(
          DeliverChunk(on_chunk, index, done, std::move(*chunk), &aggregate));
    }
    aggregate.cumulative.overlap_seconds = AddOverlapSeconds(0);
    return aggregate;
  }

  // Pipelined path: chunk k+1's prepare stage (query transform + device
  // staging) runs on a look-ahead thread concurrently with chunk k's
  // execute stage on this thread, double-buffered — exactly one chunk
  // staged ahead. Results, delivery order, and error semantics match the
  // sequential path; prepare errors surface at their chunk's turn, and any
  // error drains the staged successor (the look-ahead future is joined and
  // the prepared chunk destroyed, releasing its staging memory) before the
  // status is returned.
  struct PrepOutcome {
    Result<std::unique_ptr<Searcher::PreparedChunk>> prepared{
        Status::Internal("prepare never ran")};
    SteadyClock::time_point start{};
    SteadyClock::time_point end{};
  };
  struct InFlight {
    size_t first_query = 0;
    /// Owns the points slice the prepared chunk's request borrows.
    std::unique_ptr<data::PointMatrix> scratch;
    std::future<PrepOutcome> future;
  };
  auto launch_prepare = [&](size_t index) -> InFlight {
    InFlight slot;
    slot.first_query = index * chunk_size;
    const size_t count = std::min(chunk_size, total - slot.first_query);
    slot.scratch = std::make_unique<data::PointMatrix>();
    const SearchRequest chunk_request =
        SliceRequest(request, slot.first_query, count, slot.scratch.get());
    slot.future = std::async(std::launch::async, [this, chunk_request] {
      PrepOutcome outcome;
      outcome.start = SteadyClock::now();
      outcome.prepared = searcher_->PrepareChunk(chunk_request);
      outcome.end = SteadyClock::now();
      return outcome;
    });
    return slot;
  };

  double overlap_s = 0;
  SteadyClock::time_point exec_start{}, exec_end{};
  InFlight current = launch_prepare(0);
  for (size_t index = 0; index < num_chunks; ++index) {
    PrepOutcome outcome = current.future.get();
    // Keep the points slice alive until the chunk finishes executing (the
    // prepared request borrows it for re-ranking).
    std::unique_ptr<data::PointMatrix> scratch = std::move(current.scratch);
    const size_t first_query = current.first_query;
    // A prepare error surfaces at this chunk's turn, after every earlier
    // chunk was delivered — like the sequential path. No successor has
    // been launched yet, so there is nothing to drain.
    if (!outcome.prepared.ok()) return outcome.prepared.status();
    // This chunk's prepare ran while the previous chunk executed; count
    // the genuine overlap.
    if (index > 0) {
      overlap_s += IntervalOverlapSeconds(outcome.start, outcome.end,
                                          exec_start, exec_end);
    }
    // Stage the successor before executing this chunk — that concurrency
    // is the pipeline.
    if (index + 1 < num_chunks) {
      current = launch_prepare(index + 1);
    } else {
      current = InFlight{};
    }

    exec_start = SteadyClock::now();
    Result<SearchResult> chunk =
        searcher_->ExecutePrepared(std::move(outcome.prepared).ValueOrDie());
    exec_end = SteadyClock::now();
    // Cancellation on first error (from the execution or the callback):
    // returning destroys `current`, which joins the look-ahead thread and
    // discards the staged chunk — the drain.
    if (!chunk.ok()) return chunk.status();
    GENIE_RETURN_NOT_OK(DeliverChunk(on_chunk, index, first_query,
                                     std::move(*chunk), &aggregate));
  }
  aggregate.profile.overlap_seconds = overlap_s;
  aggregate.cumulative.overlap_seconds = AddOverlapSeconds(overlap_s);
  return aggregate;
}

std::future<Result<SearchResult>> Engine::SearchAsync(
    SearchRequest request, SearchStreamOptions options,
    SearchChunkCallback on_chunk) {
  if (scheduler_ != nullptr) {
    // Serving path: this thread admits the first chunks, and scheduler
    // completions drive the rest as short pool tasks, one per delivery.
    // No pool thread ever waits for an answer.
    const Status invalid = ValidateRequest(request);
    if (!invalid.ok()) {
      std::promise<Result<SearchResult>> rejected;
      rejected.set_value(invalid);
      return rejected.get_future();
    }
    async_->Open();
    auto stream = std::make_shared<ServedStream>(
        this, request, StreamChunkSize(request, options), std::move(on_chunk),
        [](std::function<void()> step) {
          DefaultThreadPool()->Submit(std::move(step));
        },
        async_);
    return stream->Start();
  }

  async_->Open();
  // Closes on scope exit — normal return or unwind — so a throwing
  // callback cannot leave inflight stuck and hang the destructor. After it
  // fires the destructor may proceed; the tracker itself is co-owned, and
  // nothing below touches the engine past that point.
  struct InflightGuard {
    std::shared_ptr<AsyncTracker> tracker;
    ~InflightGuard() { tracker->Close(); }
  };
  auto task = std::make_shared<std::packaged_task<Result<SearchResult>()>>(
      [this, tracker = async_, request = std::move(request), options,
       on_chunk = std::move(on_chunk)] {
        InflightGuard guard{tracker};
        return SearchStream(request, options, on_chunk);
      });
  std::future<Result<SearchResult>> future = task->get_future();
  // The pool's ParallelFor has caller participation, so a pool saturated
  // with async searches cannot deadlock the nested parallelism inside the
  // multi-load merge (or another caller's ParallelFor).
  DefaultThreadPool()->Submit([task] { (*task)(); });
  return future;
}

}  // namespace genie
