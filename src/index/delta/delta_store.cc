#include "index/delta/delta_store.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace genie {
namespace delta {

void DeltaSegment::BuildPostings() {
  std::vector<std::pair<Keyword, uint32_t>> pairs;
  pairs.reserve(keywords.size());
  for (uint32_t o = 0; o < num_objects(); ++o) {
    for (const Keyword kw : object_keywords(o)) pairs.emplace_back(kw, o);
  }
  std::sort(pairs.begin(), pairs.end());
  posting_keywords.clear();
  posting_offsets.clear();
  posting_objects.clear();
  posting_objects.reserve(pairs.size());
  for (const auto& [kw, o] : pairs) {
    if (posting_keywords.empty() || posting_keywords.back() != kw) {
      posting_keywords.push_back(kw);
      posting_offsets.push_back(static_cast<uint32_t>(posting_objects.size()));
    }
    posting_objects.push_back(o);
  }
  posting_offsets.push_back(static_cast<uint32_t>(posting_objects.size()));
}

std::span<const uint32_t> DeltaSegment::KeywordObjects(Keyword kw) const {
  const auto it =
      std::lower_bound(posting_keywords.begin(), posting_keywords.end(), kw);
  if (it == posting_keywords.end() || *it != kw) return {};
  const size_t j = static_cast<size_t>(it - posting_keywords.begin());
  return std::span<const uint32_t>(posting_objects)
      .subspan(posting_offsets[j], posting_offsets[j + 1] - posting_offsets[j]);
}

bool IsTombstoned(const DeltaSnapshot& snap, ObjectId id) {
  if (snap.tombstones == nullptr) return false;
  return std::binary_search(snap.tombstones->begin(), snap.tombstones->end(),
                            id);
}

DeltaStore::DeltaStore(ObjectId base_num_objects, uint32_t seal_threshold)
    : seal_threshold_(seal_threshold),
      next_id_(base_num_objects),
      tombstones_(std::make_shared<const std::vector<ObjectId>>()),
      folded_(std::make_shared<const std::vector<ObjectId>>()) {
  active_.offsets.push_back(0);
}

ObjectId DeltaStore::Insert(std::span<const Keyword> keywords) {
  std::lock_guard<std::mutex> lock(mu_);
  const ObjectId id = next_id_++;
  active_.ids.push_back(id);
  active_.keywords.insert(active_.keywords.end(), keywords.begin(),
                          keywords.end());
  active_.offsets.push_back(static_cast<uint32_t>(active_.keywords.size()));
  for (Keyword kw : keywords) {
    active_.max_keyword = std::max(active_.max_keyword, kw);
  }
  active_copy_.reset();
  if (seal_threshold_ > 0 && active_.num_objects() >= seal_threshold_) {
    SealLocked();
  }
  return id;
}

bool DeltaStore::Remove(ObjectId id) {
  std::lock_guard<std::mutex> lock(mu_);
  // Ever removed before — pending or already folded out by a compaction —
  // means removing again is an error; removal history never resets.
  if (std::binary_search(folded_->begin(), folded_->end(), id)) return false;
  const auto& old = *tombstones_;
  const auto at = std::lower_bound(old.begin(), old.end(), id);
  if (at != old.end() && *at == id) return false;
  auto grown = std::make_shared<std::vector<ObjectId>>();
  grown->reserve(old.size() + 1);
  grown->insert(grown->end(), old.begin(), at);
  grown->push_back(id);
  grown->insert(grown->end(), at, old.end());
  tombstones_ = std::move(grown);
  return true;
}

bool DeltaStore::Tombstoned(ObjectId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::binary_search(tombstones_->begin(), tombstones_->end(), id) ||
         std::binary_search(folded_->begin(), folded_->end(), id);
}

void DeltaStore::SealLocked() {
  if (active_.num_objects() == 0) return;
  if (active_copy_ != nullptr) {
    // The cached copy is byte-identical; promote it instead of copying.
    sealed_.push_back(std::move(active_copy_));
  } else {
    auto sealed = std::make_shared<DeltaSegment>(std::move(active_));
    sealed->BuildPostings();
    sealed_.push_back(std::move(sealed));
  }
  active_ = DeltaSegment{};
  active_.offsets.push_back(0);
  active_copy_.reset();
}

void DeltaStore::Seal() {
  std::lock_guard<std::mutex> lock(mu_);
  SealLocked();
}

DeltaSnapshot DeltaStore::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  DeltaSnapshot snap;
  snap.segments = sealed_;
  if (active_.num_objects() > 0) {
    if (active_copy_ == nullptr) {
      auto copy = std::make_shared<DeltaSegment>(active_);
      copy->BuildPostings();
      active_copy_ = std::move(copy);
    }
    snap.segments.push_back(active_copy_);
  }
  snap.tombstones = tombstones_;
  snap.folded = folded_;
  snap.next_id = next_id_;
  return snap;
}

void DeltaStore::Prune(const DeltaSnapshot& compacted) {
  std::lock_guard<std::mutex> lock(mu_);
  auto folded = [&](const std::shared_ptr<const DeltaSegment>& seg) {
    for (const auto& done : compacted.segments) {
      if (done.get() == seg.get()) return true;
    }
    return false;
  };
  sealed_.erase(std::remove_if(sealed_.begin(), sealed_.end(), folded),
                sealed_.end());
  if (compacted.tombstones != nullptr && !compacted.tombstones->empty()) {
    // The folded tombstones' ids are gone from the new main index; retire
    // them from the pending list but keep them in the removal history so
    // Remove keeps rejecting them.
    auto kept = std::make_shared<std::vector<ObjectId>>();
    std::set_difference(tombstones_->begin(), tombstones_->end(),
                        compacted.tombstones->begin(),
                        compacted.tombstones->end(),
                        std::back_inserter(*kept));
    tombstones_ = std::move(kept);
    auto history = std::make_shared<std::vector<ObjectId>>();
    std::set_union(folded_->begin(), folded_->end(),
                   compacted.tombstones->begin(), compacted.tombstones->end(),
                   std::back_inserter(*history));
    folded_ = std::move(history);
  }
}

void DeltaStore::Restore(
    std::vector<std::shared_ptr<const DeltaSegment>> sealed,
    std::vector<ObjectId> tombstones, ObjectId next_id) {
  std::lock_guard<std::mutex> lock(mu_);
  sealed_ = std::move(sealed);
  std::sort(tombstones.begin(), tombstones.end());
  tombstones_ =
      std::make_shared<const std::vector<ObjectId>>(std::move(tombstones));
  folded_ = std::make_shared<const std::vector<ObjectId>>();
  next_id_ = next_id;
}

ObjectId DeltaStore::next_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_;
}

uint32_t DeltaStore::num_sealed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<uint32_t>(sealed_.size());
}

bool DeltaStore::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_.empty() && active_.num_objects() == 0 &&
         tombstones_->empty();
}

std::vector<std::vector<TopKEntry>> DeltaStore::Match(
    const DeltaSnapshot& snap, std::span<const Query> queries, uint32_t k) {
  std::vector<std::vector<TopKEntry>> pools(queries.size());
  if (snap.segments.empty() || k == 0) return pools;
  uint32_t max_objects = 0;
  for (const auto& segment : snap.segments) {
    // Every immutable segment carries its derived postings (BuildPostings).
    GENIE_DCHECK(segment->num_objects() == 0 ||
                 !segment->posting_offsets.empty());
    max_objects = std::max(max_objects, segment->num_objects());
  }
  const auto better = [](const TopKEntry& a, const TopKEntry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.id < b.id;
  };
  DefaultThreadPool()->ParallelFor(queries.size(), [&](size_t q) {
    // Definition 2.1 keyword-major: every occurrence of a keyword in the
    // query's items adds one per occurrence of it in an object, so an
    // object's count is the number of its postings the items cover.
    // Per-thread scratch, all zero between uses (touched slots are reset),
    // so a query costs the postings it touches, not the delta's size.
    thread_local std::vector<uint32_t> counts;
    thread_local std::vector<uint32_t> touched;
    if (counts.size() < max_objects) counts.resize(max_objects, 0);
    const Query& query = queries[q];
    std::vector<TopKEntry>& pool = pools[q];
    for (const auto& segment : snap.segments) {
      for (uint32_t i = 0; i < query.num_items(); ++i) {
        for (const Keyword kw : query.item(i)) {
          for (const uint32_t o : segment->KeywordObjects(kw)) {
            if (counts[o]++ == 0) touched.push_back(o);
          }
        }
      }
      for (const uint32_t o : touched) {
        const ObjectId id = segment->ids[o];
        if (!IsTombstoned(snap, id)) pool.push_back(TopKEntry{id, counts[o]});
        counts[o] = 0;
      }
      touched.clear();
    }
    if (pool.size() > k) {
      std::nth_element(pool.begin(), pool.begin() + k, pool.end(), better);
      pool.resize(k);
    }
    std::sort(pool.begin(), pool.end(), better);
  });
  return pools;
}

void SerializeDelta(const DeltaSnapshot& snap, serialize::Writer* writer) {
  writer->U32(static_cast<uint32_t>(snap.segments.size()));
  for (const auto& segment : snap.segments) {
    writer->Vec(segment->ids);
    writer->Vec(segment->offsets);
    writer->Vec(segment->keywords);
  }
  // The full removal history: pending tombstones plus the ids earlier
  // compactions already folded out. Both are sorted and disjoint.
  std::vector<ObjectId> removed;
  const auto* pending = snap.tombstones.get();
  const auto* folded = snap.folded.get();
  if (pending != nullptr && folded != nullptr) {
    std::merge(pending->begin(), pending->end(), folded->begin(),
               folded->end(), std::back_inserter(removed));
  } else if (pending != nullptr) {
    removed = *pending;
  } else if (folded != nullptr) {
    removed = *folded;
  }
  writer->Vec(removed);
  writer->U64(snap.next_id);
}

Status DeserializeDelta(serialize::Reader* reader, DeltaStore* store) {
  uint32_t num_segments = 0;
  GENIE_RETURN_NOT_OK(reader->U32(&num_segments));
  std::vector<std::shared_ptr<const DeltaSegment>> sealed;
  // Each segment holds at least three u64 vector counts, so a forged count
  // cannot reserve past what the remaining bytes could describe.
  sealed.reserve(std::min<size_t>(num_segments, reader->remaining() / 24));
  for (uint32_t s = 0; s < num_segments; ++s) {
    DeltaSegment segment;
    GENIE_RETURN_NOT_OK(reader->Vec(&segment.ids));
    GENIE_RETURN_NOT_OK(reader->Vec(&segment.offsets));
    GENIE_RETURN_NOT_OK(reader->Vec(&segment.keywords));
    if (segment.offsets.size() != segment.ids.size() + 1 ||
        segment.offsets.empty() || segment.offsets.front() != 0 ||
        segment.offsets.back() != segment.keywords.size()) {
      return Status::InvalidArgument("corrupt delta segment layout");
    }
    for (size_t i = 1; i < segment.offsets.size(); ++i) {
      if (segment.offsets[i] < segment.offsets[i - 1]) {
        return Status::InvalidArgument("corrupt delta segment offsets");
      }
    }
    for (Keyword kw : segment.keywords) {
      segment.max_keyword = std::max(segment.max_keyword, kw);
    }
    segment.BuildPostings();
    sealed.push_back(std::make_shared<const DeltaSegment>(std::move(segment)));
  }
  std::vector<ObjectId> tombstones;
  GENIE_RETURN_NOT_OK(reader->Vec(&tombstones));
  uint64_t next_id = 0;
  GENIE_RETURN_NOT_OK(reader->U64(&next_id));
  // The watermark is stored as u64 but ids are 32-bit: a wider value would
  // silently wrap on the narrowing below.
  if (next_id > std::numeric_limits<ObjectId>::max()) {
    return Status::InvalidArgument("delta watermark outside the id space");
  }
  for (const auto& segment : sealed) {
    for (ObjectId id : segment->ids) {
      if (id >= next_id) {
        return Status::InvalidArgument("delta segment id beyond watermark");
      }
    }
  }
  // A tombstone at or above the watermark would mask an id that a later
  // insert has yet to take, so that object could never be found.
  for (ObjectId id : tombstones) {
    if (id >= next_id) {
      return Status::InvalidArgument("delta tombstone beyond watermark");
    }
  }
  store->Restore(std::move(sealed), std::move(tombstones),
                 static_cast<ObjectId>(next_id));
  return Status::OK();
}

}  // namespace delta
}  // namespace genie
