/// DeltaStore unit tests: id assignment and sealing rotation, tombstones,
/// snapshot immutability, host-side match counting, prune-after-compaction
/// semantics, and the v2 mutation-section serialization round trip.

#include "index/delta/delta_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/query.h"

namespace genie {
namespace delta {
namespace {

std::vector<Keyword> Kw(std::initializer_list<Keyword> keywords) {
  return std::vector<Keyword>(keywords);
}

TEST(DeltaStoreTest, InsertAssignsMonotonicIdsAndAutoSeals) {
  DeltaStore store(/*base_num_objects=*/100, /*seal_threshold=*/3);
  for (uint32_t i = 0; i < 7; ++i) {
    EXPECT_EQ(store.Insert(Kw({1, 2})), 100u + i);
  }
  EXPECT_EQ(store.next_id(), 107u);
  EXPECT_EQ(store.num_sealed(), 2u);  // 3 + 3 sealed, 1 still active

  const DeltaSnapshot snap = store.snapshot();
  ASSERT_EQ(snap.segments.size(), 3u);  // 2 sealed + the non-empty active
  EXPECT_EQ(snap.segments[0]->num_objects(), 3u);
  EXPECT_EQ(snap.segments[1]->num_objects(), 3u);
  EXPECT_EQ(snap.segments[2]->num_objects(), 1u);
  EXPECT_EQ(snap.next_id, 107u);
}

TEST(DeltaStoreTest, SnapshotExcludesEmptyActiveSegment) {
  DeltaStore store(0, /*seal_threshold=*/0);  // manual sealing only
  EXPECT_TRUE(store.snapshot().empty());

  store.Insert(Kw({5}));
  store.Insert(Kw({6}));
  store.Seal();
  EXPECT_EQ(store.num_sealed(), 1u);
  EXPECT_EQ(store.snapshot().segments.size(), 1u);

  store.Seal();  // empty active: no-op
  EXPECT_EQ(store.num_sealed(), 1u);
}

TEST(DeltaStoreTest, SnapshotIsImmutableUnderLaterInserts) {
  DeltaStore store(0, 0);
  store.Insert(Kw({1}));
  const DeltaSnapshot before = store.snapshot();
  ASSERT_EQ(before.segments.size(), 1u);
  EXPECT_EQ(before.segments[0]->num_objects(), 1u);

  store.Insert(Kw({2}));
  store.Remove(0);
  // The earlier snapshot still sees one object and no tombstones.
  EXPECT_EQ(before.segments[0]->num_objects(), 1u);
  EXPECT_EQ(before.num_tombstones(), 0u);
  EXPECT_FALSE(IsTombstoned(before, 0));

  const DeltaSnapshot after = store.snapshot();
  EXPECT_EQ(after.segments[0]->num_objects(), 2u);
  EXPECT_TRUE(IsTombstoned(after, 0));
}

TEST(DeltaStoreTest, RemoveTombstonesOnce) {
  DeltaStore store(10, 0);
  const ObjectId id = store.Insert(Kw({3}));
  EXPECT_TRUE(store.Remove(id));
  EXPECT_FALSE(store.Remove(id));  // already tombstoned
  EXPECT_TRUE(store.Tombstoned(id));

  // Base-index ids tombstone too (removal of never-inserted objects).
  EXPECT_TRUE(store.Remove(4));
  EXPECT_TRUE(store.Tombstoned(4));
  EXPECT_EQ(store.snapshot().num_tombstones(), 2u);
  EXPECT_FALSE(store.empty());
}

TEST(DeltaStoreTest, MatchCountsMultiplicityAndFiltersTombstones) {
  DeltaStore store(50, 0);
  const ObjectId a = store.Insert(Kw({1, 1, 2}));  // kw 1 twice
  const ObjectId b = store.Insert(Kw({1, 3}));
  const ObjectId c = store.Insert(Kw({2, 3}));
  store.Remove(b);

  Query q1;
  q1.AddItem(1);  // covers both of a's kw-1 postings -> count 2
  Query q2;
  q2.AddItem(2);
  q2.AddItem(3);
  std::vector<Query> queries{q1, q2};

  const auto matched = DeltaStore::Match(store.snapshot(), queries, 10);
  ASSERT_EQ(matched.size(), 2u);

  ASSERT_EQ(matched[0].size(), 1u);  // b tombstoned, c has no kw 1
  EXPECT_EQ(matched[0][0].id, a);
  EXPECT_EQ(matched[0][0].count, 2u);

  // q2: a -> 1 (kw 2), c -> 2 (kw 2 + kw 3); count desc then id asc.
  ASSERT_EQ(matched[1].size(), 2u);
  EXPECT_EQ(matched[1][0].id, c);
  EXPECT_EQ(matched[1][0].count, 2u);
  EXPECT_EQ(matched[1][1].id, a);
  EXPECT_EQ(matched[1][1].count, 1u);
}

TEST(DeltaStoreTest, MatchKeepsTheKBestAcrossSegments) {
  DeltaStore store(0, 3);  // seals every 3 objects: several segments
  std::vector<std::vector<Keyword>> objects = {
      {1, 2, 3}, {1}, {2, 3}, {1, 2}, {4}, {1, 2, 3}, {3, 3}, {1, 4}};
  for (const auto& kws : objects) store.Insert(kws);
  store.Remove(5);
  Query query;
  query.AddItem(1);
  query.AddItem(2);
  query.AddItem(3);
  query.AddItem(3);  // a repeated query keyword counts twice
  std::vector<Query> queries{query};

  // Brute force over the live objects (Definition 2.1, multiplicities on
  // both sides), ordered count desc then id asc.
  std::vector<TopKEntry> want;
  for (ObjectId id = 0; id < objects.size(); ++id) {
    if (id == 5) continue;
    uint32_t count = 0;
    for (Keyword kw : objects[id]) {
      for (uint32_t i = 0; i < query.num_items(); ++i) {
        for (Keyword q : query.item(i)) count += q == kw ? 1 : 0;
      }
    }
    if (count > 0) want.push_back(TopKEntry{id, count});
  }
  std::sort(want.begin(), want.end(), [](const TopKEntry& a, const TopKEntry& b) {
    return a.count != b.count ? a.count > b.count : a.id < b.id;
  });

  for (const uint32_t k : {1u, 3u, 100u}) {
    const auto matched = DeltaStore::Match(store.snapshot(), queries, k);
    ASSERT_EQ(matched.size(), 1u);
    const size_t expect = std::min<size_t>(k, want.size());
    ASSERT_EQ(matched[0].size(), expect) << "k=" << k;
    for (size_t i = 0; i < expect; ++i) {
      EXPECT_EQ(matched[0][i].id, want[i].id) << "k=" << k << " rank " << i;
      EXPECT_EQ(matched[0][i].count, want[i].count) << "k=" << k;
    }
  }
}

TEST(DeltaStoreTest, PruneDropsExactlyTheCompactedState) {
  DeltaStore store(0, /*seal_threshold=*/2);
  store.Insert(Kw({1}));
  store.Insert(Kw({2}));  // seals segment 1
  store.Remove(0);
  store.Seal();
  const DeltaSnapshot compacted = store.snapshot();
  ASSERT_EQ(compacted.segments.size(), 1u);

  // Concurrent mutations after the compaction snapshot was taken.
  const ObjectId late = store.Insert(Kw({7}));
  store.Remove(1);

  store.Prune(compacted);
  const DeltaSnapshot left = store.snapshot();
  ASSERT_EQ(left.segments.size(), 1u);  // only the late segment survives
  EXPECT_EQ(left.segments[0]->ids[0], late);
  EXPECT_EQ(left.num_tombstones(), 1u);  // id 1, added after the snapshot
  EXPECT_TRUE(IsTombstoned(left, 1));
  EXPECT_FALSE(IsTombstoned(left, 0));  // folded: nothing left to filter
  EXPECT_EQ(store.next_id(), 3u);  // the watermark never rolls back

  // The folded removal stays in the history: re-removing id 0 is still an
  // error, and serialization records it so the contract survives reopen.
  EXPECT_FALSE(store.Remove(0));
  EXPECT_TRUE(store.Tombstoned(0));
  serialize::Writer writer;
  SerializeDelta(store.snapshot(), &writer);
  DeltaStore restored(0, 0);
  serialize::Reader reader(writer.data());
  ASSERT_TRUE(DeserializeDelta(&reader, &restored).ok());
  EXPECT_FALSE(restored.Remove(0));
  EXPECT_FALSE(restored.Remove(1));
}

TEST(DeltaStoreTest, SerializeRoundTripsSealedStateAndTombstones) {
  DeltaStore store(20, /*seal_threshold=*/2);
  store.Insert(Kw({4, 9}));
  store.Insert(Kw({1}));
  store.Insert(Kw({2, 2, 5}));
  store.Remove(21);
  store.Remove(3);
  store.Seal();  // nothing may stay in the active segment

  const DeltaSnapshot snap = store.snapshot();
  serialize::Writer writer;
  SerializeDelta(snap, &writer);

  DeltaStore restored(0, 2);
  serialize::Reader reader(writer.data());
  ASSERT_TRUE(DeserializeDelta(&reader, &restored).ok());
  ASSERT_TRUE(reader.ExpectEnd().ok());

  const DeltaSnapshot got = restored.snapshot();
  ASSERT_EQ(got.segments.size(), snap.segments.size());
  for (size_t s = 0; s < snap.segments.size(); ++s) {
    EXPECT_EQ(got.segments[s]->ids, snap.segments[s]->ids);
    EXPECT_EQ(got.segments[s]->offsets, snap.segments[s]->offsets);
    EXPECT_EQ(got.segments[s]->keywords, snap.segments[s]->keywords);
    EXPECT_EQ(got.segments[s]->max_keyword, snap.segments[s]->max_keyword);
  }
  EXPECT_EQ(*got.tombstones, *snap.tombstones);
  EXPECT_EQ(got.next_id, snap.next_id);
  EXPECT_EQ(restored.next_id(), store.next_id());
}

TEST(DeltaStoreTest, DeserializeRejectsTruncatedBlob) {
  DeltaStore store(0, 0);
  store.Insert(Kw({1, 2, 3}));
  store.Seal();
  serialize::Writer writer;
  SerializeDelta(store.snapshot(), &writer);

  const std::string& blob = writer.data();
  for (const size_t cut : {blob.size() / 2, blob.size() - 1}) {
    DeltaStore scratch(0, 0);
    serialize::Reader reader(std::string_view(blob).substr(0, cut));
    EXPECT_FALSE(DeserializeDelta(&reader, &scratch).ok()) << "cut " << cut;
  }
}

TEST(DeltaStoreTest, DeserializeRejectsIdsOutsideTheIdSpace) {
  // Hand-built snapshots: no segments, a tombstone log, the u64 watermark.
  auto blob = [](std::vector<ObjectId> tombstones, uint64_t next_id) {
    serialize::Writer writer;
    writer.U32(0);
    writer.Vec(tombstones);
    writer.U64(next_id);
    return writer.data();
  };
  // A watermark past the 32-bit id space would narrow to 5; a tombstone at
  // the watermark would mask the id the next insert takes.
  const std::pair<const char*, std::string> crafted[] = {
      {"watermark 2^32 + 5", blob({}, (uint64_t{1} << 32) + 5)},
      {"tombstone at the watermark", blob({10}, 10)},
  };
  for (const auto& [label, bytes] : crafted) {
    DeltaStore scratch(0, 0);
    serialize::Reader reader(bytes);
    EXPECT_EQ(DeserializeDelta(&reader, &scratch).code(),
              StatusCode::kInvalidArgument)
        << label;
  }

  // The same layout inside the id space restores.
  const std::string valid = blob({9}, 10);
  DeltaStore restored(0, 0);
  serialize::Reader reader(valid);
  ASSERT_TRUE(DeserializeDelta(&reader, &restored).ok());
  EXPECT_EQ(restored.next_id(), 10u);
  EXPECT_TRUE(restored.Tombstoned(9));
}

TEST(DeltaStoreTest, DeserializeRejectsASegmentCountPastTheBlob) {
  // 2^32 - 1 segments in a 4-byte blob: the count must be checked against
  // the bytes that remain before anything is reserved for it.
  const std::string bytes("\xff\xff\xff\xff", 4);
  DeltaStore scratch(0, 0);
  serialize::Reader reader(bytes);
  EXPECT_EQ(DeserializeDelta(&reader, &scratch).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace delta
}  // namespace genie
