/// Corruption / truncation fuzz harness for engine bundles: every
/// single-byte flip and every truncation length of a saved bundle must
/// fail Engine::Open with InvalidArgument — never a crash, hang, huge
/// allocation, or silently wrong results. The bundle's trailing whole-file
/// checksum makes this exact (any flipped byte participates in the digest
/// or IS the digest), with the index stream's own checksum and the
/// bounds-checked section parsing as defense in depth behind it. A second
/// sweep recomputes that checksum after each mutation, so the meta,
/// mutation and stats parsers behind it see mutated bytes too. Runs in the
/// ASan/UBSan CI job, where an out-of-bounds read inside the parse would
/// abort the test.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "api/genie.h"
#include "common/rng.h"
#include "data/documents.h"
#include "data/sequences.h"
#include "lsh/murmur3.h"
#include "test_util.h"

namespace genie {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamoff>(bytes.size()));
}

/// A tiny documents engine: cheap to save and to (fail to) reopen tens of
/// thousands of times.
struct DocumentsFixture {
  std::vector<std::vector<uint32_t>> corpus;

  DocumentsFixture() {
    data::DocumentDatasetOptions options;
    options.num_documents = 25;
    options.vocabulary = 60;
    options.seed = 131;
    corpus = data::MakeDocuments(options);
  }

  EngineConfig Config() const {
    return EngineConfig().Documents(&corpus).K(3).Device(
        test::SharedTestDevice(2));
  }
  SearchRequest Query() const {
    return SearchRequest::Documents(std::span(corpus).first(2));
  }
  InsertRequest Insert() const {
    return InsertRequest::Documents(std::span(corpus).first(2));
  }
};

/// A tiny sequences engine, exercising the string-vocabulary meta parsing.
struct SequencesFixture {
  std::vector<std::string> sequences;

  SequencesFixture() {
    data::SequenceDatasetOptions options;
    options.num_sequences = 20;
    options.min_length = 8;
    options.max_length = 12;
    options.seed = 132;
    sequences = data::MakeSequences(options);
  }

  EngineConfig Config() const {
    return EngineConfig().Sequences(&sequences).K(2).CandidateK(8).Device(
        test::SharedTestDevice(2));
  }
  SearchRequest Query() const {
    return SearchRequest::Sequences(std::span(sequences).first(2));
  }
  InsertRequest Insert() const {
    return InsertRequest::Sequences(std::span(sequences).first(2));
  }
};

/// A tiny sets engine, exercising the MinHash family meta parsing.
struct SetsFixture {
  std::vector<std::vector<uint32_t>> sets;

  SetsFixture() {
    Rng rng(133);
    sets.resize(30);
    for (auto& set : sets) {
      for (int i = 0; i < 8; ++i) {
        set.push_back(static_cast<uint32_t>(rng.UniformU64(200)));
      }
    }
  }

  EngineConfig Config() const {
    return EngineConfig().Sets(&sets).K(3).HashFunctions(16).RehashDomain(
        64).Device(test::SharedTestDevice(2));
  }
  SearchRequest Query() const {
    return SearchRequest::Sets(std::span(sets).first(2));
  }
  InsertRequest Insert() const {
    return InsertRequest::Sets(std::span(sets).first(2));
  }
};

template <typename Fixture>
std::string SaveTinyBundle(const Fixture& fixture, bool compressed,
                           const std::string& path) {
  auto engine = Engine::Create(fixture.Config());
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  BundleSaveOptions options;
  options.compress_postings = compressed;
  EXPECT_TRUE((*engine)->Save(path, options).ok());
  return ReadFile(path);
}

/// Flips every byte of the bundle (two patterns per byte: low bit and high
/// bit) and requires Open to fail with InvalidArgument each time.
template <typename Fixture>
void SweepByteFlips(const Fixture& fixture, bool compressed,
                    const std::string& name) {
  const std::string path = TempPath("genie_corrupt_" + name + ".gnb");
  const std::string pristine = SaveTinyBundle(fixture, compressed, path);
  ASSERT_FALSE(pristine.empty());

  for (size_t i = 0; i < pristine.size(); ++i) {
    for (const char mask : {char(0x01), char(0x80)}) {
      std::string corrupted = pristine;
      corrupted[i] = static_cast<char>(corrupted[i] ^ mask);
      WriteFile(path, corrupted);
      auto opened = Engine::Open(path, fixture.Config());
      ASSERT_FALSE(opened.ok())
          << name << ": flip of byte " << i << " (mask "
          << static_cast<int>(mask) << ") was accepted";
      EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
          << name << ": flip of byte " << i << " -> "
          << opened.status().ToString();
    }
  }
  std::remove(path.c_str());
}

/// Truncates the bundle at every length in [0, size) and requires Open to
/// fail with InvalidArgument each time.
template <typename Fixture>
void SweepTruncations(const Fixture& fixture, bool compressed,
                      const std::string& name) {
  const std::string path = TempPath("genie_trunc_" + name + ".gnb");
  const std::string pristine = SaveTinyBundle(fixture, compressed, path);
  ASSERT_FALSE(pristine.empty());

  for (size_t cut = 0; cut < pristine.size(); ++cut) {
    WriteFile(path, pristine.substr(0, cut));
    auto opened = Engine::Open(path, fixture.Config());
    ASSERT_FALSE(opened.ok())
        << name << ": truncation at " << cut << " was accepted";
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
        << name << ": truncation at " << cut << " -> "
        << opened.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(BundleCorruptionTest, EveryByteFlipRejectedDocumentsRaw) {
  SweepByteFlips(DocumentsFixture(), /*compressed=*/false, "docs_raw");
}

TEST(BundleCorruptionTest, EveryByteFlipRejectedDocumentsCompressed) {
  SweepByteFlips(DocumentsFixture(), /*compressed=*/true, "docs_packed");
}

TEST(BundleCorruptionTest, EveryByteFlipRejectedSequencesCompressed) {
  SweepByteFlips(SequencesFixture(), /*compressed=*/true, "seq_packed");
}

TEST(BundleCorruptionTest, EveryTruncationRejectedDocumentsRaw) {
  SweepTruncations(DocumentsFixture(), /*compressed=*/false, "docs_raw");
}

TEST(BundleCorruptionTest, EveryTruncationRejectedDocumentsCompressed) {
  SweepTruncations(DocumentsFixture(), /*compressed=*/true, "docs_packed");
}

TEST(BundleCorruptionTest, EveryTruncationRejectedSequencesCompressed) {
  SweepTruncations(SequencesFixture(), /*compressed=*/true, "seq_packed");
}

/// Appended trailing garbage must be rejected too (the index section is
/// length-checked against the file end).
TEST(BundleCorruptionTest, TrailingGarbageRejected) {
  DocumentsFixture fixture;
  const std::string path = TempPath("genie_corrupt_trailing.gnb");
  const std::string pristine =
      SaveTinyBundle(fixture, /*compressed=*/false, path);
  WriteFile(path, pristine + std::string(16, '\0'));
  auto opened = Engine::Open(path, fixture.Config());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Mutations behind the checksum.
// ---------------------------------------------------------------------------

/// A copy of the bundle's trailing-checksum hasher (bundle.cc): murmur3
/// chained over fixed 64 KiB blocks, then over the total length.
class ChunkedHasher {
 public:
  void Update(const char* data, size_t len) {
    while (len > 0) {
      const size_t take = std::min(len, kBlock - fill_);
      std::memcpy(block_.data() + fill_, data, take);
      fill_ += take;
      data += take;
      len -= take;
      if (fill_ == kBlock) Flush();
    }
  }

  uint64_t Finish() {
    if (fill_ > 0) Flush();
    const uint64_t total = total_;
    return lsh::Murmur3_64(&total, sizeof(total), digest_);
  }

 private:
  void Flush() {
    digest_ = lsh::Murmur3_64(block_.data(), fill_, digest_);
    total_ += fill_;
    fill_ = 0;
  }

  static constexpr size_t kBlock = 64 * 1024;
  std::vector<char> block_ = std::vector<char>(kBlock);
  size_t fill_ = 0;
  uint64_t total_ = 0;
  uint64_t digest_ = 0x474E4942444C3156ULL;  // "GNIBDL1V"
};

void Reseal(std::string* bundle) {
  ChunkedHasher hasher;
  hasher.Update(bundle->data(), bundle->size() - sizeof(uint64_t));
  const uint64_t checksum = hasher.Finish();
  std::memcpy(bundle->data() + bundle->size() - sizeof(uint64_t), &checksum,
              sizeof(checksum));
}

/// Byte range [begin, end) of one length-prefixed section.
struct Section {
  size_t begin = 0;
  size_t end = 0;
};

/// The meta, mutation and stats sections of a v3 bundle, in file order.
std::vector<Section> ParsedSections(const std::string& bundle) {
  uint32_t version = 0;
  std::memcpy(&version, bundle.data() + 8, sizeof(version));
  EXPECT_EQ(version, 3u);
  std::vector<Section> sections;
  size_t pos = 8 + 4 + 4;  // magic, version, modality
  for (int i = 0; i < 3; ++i) {
    uint64_t bytes = 0;
    std::memcpy(&bytes, bundle.data() + pos, sizeof(bytes));
    pos += sizeof(bytes);
    sections.push_back({pos, pos + static_cast<size_t>(bytes)});
    pos += static_cast<size_t>(bytes);
  }
  return sections;
}

/// Applies one to three mutations at random offsets inside the non-empty
/// sections: a bit flip, an interesting u32/u64 value or a random byte.
void Mutate(const std::vector<Section>& sections, Rng* rng,
            std::string* bundle) {
  static constexpr uint64_t kInteresting[] = {
      0, 1, 0x7fffffff, 0xffffffff, uint64_t{1} << 32, uint64_t{1} << 63};
  std::vector<Section> targets;
  for (const Section& section : sections) {
    if (section.end > section.begin) targets.push_back(section);
  }
  const uint64_t count = 1 + rng->UniformU64(3);
  for (uint64_t m = 0; m < count; ++m) {
    const Section& section = targets[rng->UniformU64(targets.size())];
    const size_t size = section.end - section.begin;
    const size_t at = section.begin + rng->UniformU64(size);
    switch (rng->UniformU64(3)) {
      case 0:
        (*bundle)[at] =
            static_cast<char>((*bundle)[at] ^ (1 << rng->UniformU64(8)));
        break;
      case 1: {
        const uint64_t value = kInteresting[rng->UniformU64(6)];
        const size_t width = value > 0xffffffff || rng->UniformU64(2) == 0
                                 ? sizeof(uint64_t)
                                 : sizeof(uint32_t);
        if (size < width) break;
        const size_t start =
            section.begin + rng->UniformU64(size - width + 1);
        std::memcpy(bundle->data() + start, &value, width);
        break;
      }
      default:
        (*bundle)[at] = static_cast<char>(rng->UniformU64(256));
        break;
    }
  }
}

/// Opens every mutant of one bundle and, where it opens, runs one Search
/// and one Insert. Returns the number of mutants tried.
template <typename Fixture>
size_t SweepSectionMutations(const Fixture& fixture, bool mutated,
                             const std::string& name, uint64_t seed,
                             size_t budget,
                             std::map<StatusCode, size_t>* rejections) {
  const std::string path = TempPath("genie_sections_" + name + ".gnb");
  const EngineConfig config = fixture.Config().AutoCompactSegments(0);
  {
    auto engine = Engine::Create(config);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    if (!engine.ok()) return 0;
    if (mutated) {
      auto inserted = (*engine)->Insert(fixture.Insert());
      EXPECT_TRUE(inserted.ok()) << inserted.status().ToString();
      if (!inserted.ok()) return 0;
      const std::vector<ObjectId> removed{1, inserted->front()};
      EXPECT_TRUE((*engine)->Remove(removed).ok());
    }
    EXPECT_TRUE((*engine)->Save(path).ok());
  }
  const std::string pristine = ReadFile(path);
  const std::vector<Section> sections = ParsedSections(pristine);
  EXPECT_EQ(sections[1].end > sections[1].begin, mutated) << name;

  std::vector<std::string> mutants;
  if (mutated) {
    // The segment count that leads the mutation section's delta manifest.
    std::string forged = pristine;
    const uint32_t huge = 0xffffffff;
    std::memcpy(forged.data() + sections[1].begin, &huge, sizeof(huge));
    mutants.push_back(std::move(forged));
  }
  Rng rng(seed);
  while (mutants.size() < budget) {
    std::string mutant = pristine;
    Mutate(sections, &rng, &mutant);
    mutants.push_back(std::move(mutant));
  }

  for (size_t i = 0; i < mutants.size(); ++i) {
    Reseal(&mutants[i]);
    WriteFile(path, mutants[i]);
    try {
      auto opened = Engine::Open(path, config);
      if (!opened.ok()) {
        ++(*rejections)[opened.status().code()];
        continue;
      }
      // An accepted mutant only has to survive a search and an insert.
      (void)(*opened)->Search(fixture.Query());
      (void)(*opened)->Insert(fixture.Insert());
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << ": mutant " << i << " threw " << e.what();
    }
  }
  std::remove(path.c_str());
  return mutants.size();
}

TEST(BundleCorruptionTest, SectionParsersSurviveMutationsBehindTheChecksum) {
  constexpr size_t kBudget = 1000;  // mutants per bundle
  const auto start = std::chrono::steady_clock::now();
  std::map<StatusCode, size_t> rejections;
  size_t mutants = 0;
  uint64_t seed = 8101;
  for (const bool mutated : {false, true}) {
    const std::string state = mutated ? "mutated" : "frozen";
    mutants += SweepSectionMutations(SetsFixture(), mutated, "sets_" + state,
                                     seed++, kBudget, &rejections);
    mutants += SweepSectionMutations(SequencesFixture(), mutated,
                                     "seq_" + state, seed++, kBudget,
                                     &rejections);
    mutants += SweepSectionMutations(DocumentsFixture(), mutated,
                                     "docs_" + state, seed++, kBudget,
                                     &rejections);
  }
  size_t rejected = 0;
  std::cout << "[ mutants  ] " << mutants << " opened behind a valid checksum";
  for (const auto& [code, count] : rejections) {
    std::cout << ", " << StatusCodeToString(code) << " " << count;
    rejected += count;
  }
  std::cout << ", accepted " << mutants - rejected << " ("
            << std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count()
            << " s)\n";
  EXPECT_EQ(mutants, 6 * kBudget);
}

}  // namespace
}  // namespace genie
