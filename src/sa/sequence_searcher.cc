#include "sa/sequence_searcher.h"

#include <algorithm>
#include <iterator>
#include <limits>

#include "common/timer.h"
#include "sa/edit_distance.h"
#include "sa/ngram.h"

namespace genie {
namespace sa {

SequenceSearcher::SequenceSearcher(const std::vector<std::string>* sequences,
                                   const SequenceSearchOptions& options)
    : sequences_(sequences), options_(options) {}

Result<std::unique_ptr<SequenceSearcher>> SequenceSearcher::Create(
    const std::vector<std::string>* sequences,
    const SequenceSearchOptions& options) {
  if (sequences == nullptr) {
    return Status::InvalidArgument("sequences is null");
  }
  if (options.ngram == 0) return Status::InvalidArgument("ngram must be >= 1");
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (options.candidate_k < options.k) {
    return Status::InvalidArgument("candidate_k must be >= k");
  }
  std::unique_ptr<SequenceSearcher> searcher(
      new SequenceSearcher(sequences, options));
  GENIE_RETURN_NOT_OK(searcher->Init());
  return searcher;
}

Result<std::unique_ptr<SequenceSearcher>> SequenceSearcher::Restore(
    const std::vector<std::string>* sequences,
    const SequenceSearchOptions& options, StringVocabulary vocab,
    InvertedIndex index, std::vector<std::string> appended) {
  if (sequences == nullptr) {
    return Status::InvalidArgument("sequences is null");
  }
  if (options.ngram == 0) return Status::InvalidArgument("ngram must be >= 1");
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (options.candidate_k < options.k) {
    return Status::InvalidArgument("candidate_k must be >= k");
  }
  if (index.num_objects() < sequences->size() ||
      index.num_objects() > sequences->size() + appended.size()) {
    return Status::InvalidArgument(
        "index object count does not match the sequences dataset");
  }
  const uint32_t vocab_cap =
      std::max<uint32_t>(1, static_cast<uint32_t>(vocab.size()));
  const bool vocab_ok = !appended.empty() ? index.vocab_size() <= vocab_cap
                                          : index.vocab_size() == vocab_cap;
  if (!vocab_ok) {
    return Status::InvalidArgument(
        "index vocabulary does not match the n-gram vocabulary");
  }
  std::unique_ptr<SequenceSearcher> searcher(
      new SequenceSearcher(sequences, options));
  searcher->vocab_ = std::move(vocab);
  searcher->appended_.assign(std::make_move_iterator(appended.begin()),
                             std::make_move_iterator(appended.end()));
  searcher->index_ = std::move(index);
  GENIE_RETURN_NOT_OK(searcher->SetUpEngine());
  return searcher;
}

Status SequenceSearcher::Init() {
  // Shotgun: decompose every sequence into ordered n-grams; the token
  // (gram, occurrence) is the index keyword.
  std::vector<std::vector<Keyword>> per_object(sequences_->size());
  for (size_t i = 0; i < sequences_->size(); ++i) {
    for (const OrderedNgram& g : OrderedNgrams((*sequences_)[i],
                                               options_.ngram)) {
      per_object[i].push_back(vocab_.GetOrAdd(g.ToToken()));
    }
  }
  const uint32_t vocab_size =
      std::max<uint32_t>(1, static_cast<uint32_t>(vocab_.size()));
  InvertedIndexBuilder builder(vocab_size);
  for (size_t i = 0; i < per_object.size(); ++i) {
    builder.AddObject(static_cast<ObjectId>(i), per_object[i]);
  }
  GENIE_ASSIGN_OR_RETURN(index_, std::move(builder).Build());
  return SetUpEngine();
}

Status SequenceSearcher::SetUpEngine() {
  MatchEngineOptions engine_options = options_.engine;
  engine_options.k = options_.candidate_k;
  GENIE_ASSIGN_OR_RETURN(
      engine_, EngineBackend::Create(&index_, engine_options,
                                     options_.backend));
  return Status::OK();
}

Query SequenceSearcher::Compile(const std::string& query) const {
  std::shared_lock<std::shared_mutex> lock(data_mu_);
  Query compiled;
  for (const OrderedNgram& g : OrderedNgrams(query, options_.ngram)) {
    const Keyword kw = vocab_.Find(g.ToToken());
    if (kw != kInvalidKeyword) compiled.AddItem(kw);
  }
  return compiled;
}

std::vector<Keyword> SequenceSearcher::ExtractKeywords(
    const std::string& sequence) {
  std::lock_guard<std::shared_mutex> lock(data_mu_);
  std::vector<Keyword> keywords;
  for (const OrderedNgram& g : OrderedNgrams(sequence, options_.ngram)) {
    keywords.push_back(vocab_.GetOrAdd(g.ToToken()));
  }
  return keywords;
}

void SequenceSearcher::AppendSequence(std::string sequence) {
  std::lock_guard<std::shared_mutex> lock(data_mu_);
  appended_.push_back(std::move(sequence));
}

uint32_t SequenceSearcher::num_appended() const {
  std::shared_lock<std::shared_mutex> lock(data_mu_);
  return static_cast<uint32_t>(appended_.size());
}

const std::string& SequenceSearcher::SequenceAt(ObjectId id) const {
  if (id < sequences_->size()) return (*sequences_)[id];
  std::shared_lock<std::shared_mutex> lock(data_mu_);
  // Deque storage: the reference survives the unlock even if a concurrent
  // insert grows the log.
  return appended_[id - sequences_->size()];
}

Status SequenceSearcher::SerializeVocabulary(serialize::Writer* writer) const {
  std::shared_lock<std::shared_mutex> lock(data_mu_);
  vocab_.Serialize(writer);
  return Status::OK();
}

Status SequenceSearcher::SerializeAppended(serialize::Writer* writer) const {
  std::shared_lock<std::shared_mutex> lock(data_mu_);
  writer->U32(static_cast<uint32_t>(appended_.size()));
  for (const std::string& s : appended_) writer->String(s);
  return Status::OK();
}

SequenceSearchOutcome SequenceSearcher::Verify(
    const std::string& query, const QueryResult& candidates) const {
  SequenceSearchOutcome outcome;
  const uint32_t n = options_.ngram;
  const uint32_t k = options_.k;
  const int64_t q_len = static_cast<int64_t>(query.size());

  // Max-"heap" of the k best (sorted vector; k is small).
  std::vector<SequenceMatch> best;
  auto worst_tau = [&]() -> uint32_t {
    return best.size() < k ? std::numeric_limits<uint32_t>::max()
                           : best.back().edit_distance;
  };
  for (const TopKEntry& cand : candidates.entries) {
    const std::string& seq = SequenceAt(cand.id);
    const uint32_t tau_star = worst_tau();
    if (best.size() == k && tau_star > 0) {
      // Count filter (Algorithm 2 line 5): a candidate that could improve
      // (tau <= tau* - 1) must have count >= |Q| - n + 1 - n (tau* - 1).
      const int64_t theta =
          q_len - static_cast<int64_t>(n) + 1 -
          static_cast<int64_t>(n) * (static_cast<int64_t>(tau_star) - 1);
      if (theta > static_cast<int64_t>(cand.count)) break;  // sorted desc
      // Length filter (line 7).
      const int64_t len_diff =
          std::abs(q_len - static_cast<int64_t>(seq.size()));
      if (len_diff > static_cast<int64_t>(tau_star) - 1) continue;
    } else if (best.size() == k && tau_star == 0) {
      break;  // cannot improve on k exact matches
    }
    uint32_t tau;
    if (best.size() < k) {
      tau = EditDistance(query, seq);
    } else {
      tau = BandedEditDistance(query, seq, tau_star - 1);
      if (tau > tau_star - 1) continue;  // did not improve
    }
    SequenceMatch match{cand.id, tau, cand.count};
    best.insert(std::upper_bound(best.begin(), best.end(), match,
                                 [](const SequenceMatch& a,
                                    const SequenceMatch& b) {
                                   return a.edit_distance < b.edit_distance;
                                 }),
                match);
    if (best.size() > k) best.pop_back();
  }
  outcome.knn = std::move(best);

  // Theorem 5.2 certificate. `total` counts tombstoned objects too, which
  // only makes the small-dataset branch conservative (never wrongly exact).
  const size_t total = sequences_->size() + num_appended();
  if (total <= k) {
    outcome.certified_exact = outcome.knn.size() == total;
  } else if (outcome.knn.size() == k) {
    const uint32_t tau_k = outcome.knn.back().edit_distance;
    const int64_t bound = q_len - static_cast<int64_t>(n) + 1 -
                          static_cast<int64_t>(tau_k) * n;
    const int64_t c_k =
        candidates.entries.size() >= options_.candidate_k
            ? static_cast<int64_t>(candidates.entries.back().count)
            : 0;  // all matching objects were retrieved; others count 0
    outcome.certified_exact = c_k < bound;
  }
  return outcome;
}

Result<std::vector<SequenceSearchOutcome>> SequenceSearcher::SearchBatch(
    std::span<const std::string> queries) {
  GENIE_ASSIGN_OR_RETURN(std::vector<QueryResult> raw,
                         engine_->ExecuteBatch(CompileBatch(queries)));
  return VerifyBatch(queries, raw);
}

std::vector<Query> SequenceSearcher::CompileBatch(
    std::span<const std::string> queries) const {
  std::vector<Query> compiled(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    compiled[i] = Compile(queries[i]);
  }
  return compiled;
}

Result<std::vector<SequenceSearchOutcome>> SequenceSearcher::VerifyBatch(
    std::span<const std::string> queries,
    const std::vector<QueryResult>& candidates) {
  if (candidates.size() != queries.size()) {
    return Status::InvalidArgument(
        "candidate lists do not match the query span");
  }
  std::vector<SequenceSearchOutcome> outcomes(queries.size());
  {
    ScopedTimer timer(&verify_seconds_);
    for (size_t i = 0; i < queries.size(); ++i) {
      outcomes[i] = Verify(queries[i], candidates[i]);
    }
  }
  if (!options_.escalate_until_exact) return outcomes;

  // Multi-round search (Section VI-D3): retry uncertified queries with a
  // doubled K until certified or the cap is reached.
  uint32_t cap = options_.max_candidate_k;
  for (uint32_t big_k = options_.candidate_k * 2; big_k <= cap; big_k *= 2) {
    std::vector<size_t> pending;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (!outcomes[i].certified_exact) pending.push_back(i);
    }
    if (pending.empty()) break;
    std::vector<Query> retry;
    retry.reserve(pending.size());
    for (size_t i : pending) retry.push_back(Compile(queries[i]));
    // Retry on the live backend at the widened K: unlike a throwaway
    // backend over index_, this sees a compacted (swapped-in) index and
    // the delta overlay, so escalated rounds stay consistent with round 1.
    GENIE_ASSIGN_OR_RETURN(std::vector<QueryResult> retry_raw,
                           engine_->ExecuteBatchAtK(retry, big_k));
    ScopedTimer timer(&verify_seconds_);
    const uint32_t saved_k = options_.candidate_k;
    options_.candidate_k = big_k;  // Verify() reads the current K
    for (size_t j = 0; j < pending.size(); ++j) {
      const uint32_t prev_rounds = outcomes[pending[j]].rounds;
      outcomes[pending[j]] = Verify(queries[pending[j]], retry_raw[j]);
      outcomes[pending[j]].rounds = prev_rounds + 1;
    }
    options_.candidate_k = saved_k;
  }
  return outcomes;
}

}  // namespace sa
}  // namespace genie
