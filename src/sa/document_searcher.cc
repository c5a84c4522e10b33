#include "sa/document_searcher.h"

#include <algorithm>
#include "index/index_builder.h"

namespace genie {
namespace sa {

namespace {
Document Dedup(const Document& doc) {
  Document out(doc);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}
}  // namespace

DocumentSearcher::DocumentSearcher(const std::vector<Document>* docs,
                                   const DocumentSearchOptions& options)
    : docs_(docs), options_(options) {}

Result<std::unique_ptr<DocumentSearcher>> DocumentSearcher::Create(
    const std::vector<Document>* docs, const DocumentSearchOptions& options) {
  if (docs == nullptr) return Status::InvalidArgument("docs is null");
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  std::unique_ptr<DocumentSearcher> searcher(
      new DocumentSearcher(docs, options));
  GENIE_RETURN_NOT_OK(searcher->Init());
  return searcher;
}

Result<std::unique_ptr<DocumentSearcher>> DocumentSearcher::Restore(
    const std::vector<Document>* docs, const DocumentSearchOptions& options,
    uint32_t vocab_size, InvertedIndex index, uint32_t appended_objects) {
  if (docs == nullptr) return Status::InvalidArgument("docs is null");
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (index.num_objects() < docs->size() ||
      index.num_objects() > docs->size() + appended_objects) {
    return Status::InvalidArgument(
        "index object count does not match the documents dataset");
  }
  const bool vocab_ok = appended_objects > 0
                            ? index.vocab_size() <= vocab_size
                            : index.vocab_size() == vocab_size;
  if (!vocab_ok) {
    return Status::InvalidArgument(
        "index vocabulary does not match the token universe");
  }
  std::unique_ptr<DocumentSearcher> searcher(
      new DocumentSearcher(docs, options));
  searcher->vocab_size_ = vocab_size;
  searcher->index_ = std::move(index);
  GENIE_RETURN_NOT_OK(searcher->SetUpEngine());
  return searcher;
}

Status DocumentSearcher::Init() {
  uint32_t max_token = 0;
  for (const Document& doc : *docs_) {
    for (uint32_t t : doc) max_token = std::max(max_token, t);
  }
  vocab_size_ = max_token + 1;
  InvertedIndexBuilder builder(vocab_size_);
  for (size_t i = 0; i < docs_->size(); ++i) {
    for (uint32_t t : Dedup((*docs_)[i])) {
      builder.Add(static_cast<ObjectId>(i), t);
    }
  }
  GENIE_ASSIGN_OR_RETURN(index_, std::move(builder).Build());
  return SetUpEngine();
}

Status DocumentSearcher::SetUpEngine() {
  MatchEngineOptions engine_options = options_.engine;
  engine_options.k = options_.k;
  GENIE_ASSIGN_OR_RETURN(
      engine_, EngineBackend::Create(&index_, engine_options,
                                     options_.backend));
  return Status::OK();
}

Query DocumentSearcher::Compile(const Document& query) const {
  const uint32_t vocab = vocab_size();
  Query compiled;
  for (uint32_t t : Dedup(query)) {
    if (t < vocab) compiled.AddItem(static_cast<Keyword>(t));
  }
  return compiled;
}

std::vector<Keyword> DocumentSearcher::ExtractKeywords(const Document& doc) {
  const Document deduped = Dedup(doc);
  uint32_t max_token = 0;
  for (uint32_t t : deduped) max_token = std::max(max_token, t);
  // Grow the token universe monotonically (CAS max): later queries may
  // carry the new tokens, which the frozen index safely ignores and the
  // delta layer matches.
  uint32_t current = vocab_size_.load(std::memory_order_acquire);
  while (max_token + 1 > current &&
         !vocab_size_.compare_exchange_weak(current, max_token + 1,
                                            std::memory_order_acq_rel)) {
  }
  return std::vector<Keyword>(deduped.begin(), deduped.end());
}

Result<std::vector<QueryResult>> DocumentSearcher::SearchBatch(
    std::span<const Document> queries) {
  return engine_->ExecuteBatch(CompileBatch(queries));
}

std::vector<Query> DocumentSearcher::CompileBatch(
    std::span<const Document> queries) const {
  std::vector<Query> compiled(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    compiled[i] = Compile(queries[i]);
  }
  return compiled;
}

}  // namespace sa
}  // namespace genie
