/// \file bundle.cc
/// Engine bundle persistence: Engine::Save / Engine::Open. A bundle is a
/// versioned container holding everything a process needs to answer
/// queries identically to the engine that was saved — the modality's
/// query-side state (meta blob) plus the serialized inverted index — so
/// serving hosts skip the offline index build entirely (the paper treats
/// construction as a one-time cost; this file makes that workflow real
/// through the facade).
///
/// Container format v1 (little-endian):
///   magic "GNIEBNDL" | u32 format_version | u32 modality tag
///   | u64 meta_bytes  | meta blob (modality-specific, serialize.h)
///   | u64 index_bytes | index stream (exact SaveIndex/SaveIndexCompressed
///                       image, so the bounds-checked LoadIndex path is
///                       reused verbatim)
///   | u64 checksum (chunked murmur3 over all preceding bytes)
///
/// Format v2 adds one section between the meta blob and the index stream:
///   | u64 mutation_bytes | mutation blob (delta segment manifest +
///                          tombstone log + appended side data)
///
/// Format v3 makes the mutation section unconditional (0 bytes on a frozen
/// engine) and adds the planner's index statistics behind it:
///   | u64 stats_bytes | stats blob (IndexStats: shape fingerprint,
///                       postings-volume histogram, keyword fan-out)
/// so a reopened engine plans without re-scanning the index. Every save now
/// writes v3; v1 and v2 bundles keep opening forever (their stats are
/// recomputed at open). See docs/FORMATS.md for the exact blob layouts.
///
/// Save writes to `path + ".tmp"` and atomically renames over `path`, so a
/// crash mid-save leaves the previous bundle intact — Open never sees a
/// half-written file (and the trailing checksum would reject one anyway).
///
/// The trailing whole-file checksum makes corruption detection exact:
/// every single-byte flip and every truncation fails with InvalidArgument
/// before any section is parsed (the index stream's own checksum and the
/// bounds checks remain as defense in depth behind it).

#include <sys/stat.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "api/engine.h"
#include "api/searcher.h"
#include "common/file_util.h"
#include "common/serialize.h"
#include "index/index_io.h"
#include "lsh/murmur3.h"
#include "plan/index_stats.h"

namespace genie {

namespace {

constexpr char kBundleMagic[8] = {'G', 'N', 'I', 'E', 'B', 'N', 'D', 'L'};
/// v1: frozen engine. v2: adds the mutation section (delta segments +
/// tombstones + appended side data). v3: mutation section unconditional +
/// persisted IndexStats. Saves always write the current version.
constexpr uint32_t kBundleVersionFrozen = 1;
constexpr uint32_t kBundleVersionMutable = 2;
constexpr uint32_t kBundleVersionStats = 3;
/// magic + version + modality + meta_bytes + index_bytes + checksum.
constexpr uint64_t kMinBundleBytes = 8 + 4 + 4 + 8 + 8 + 8;

using file_util::FileBytes;
using file_util::FilePtr;

/// Rolling murmur3 over fixed 64 KiB blocks, so the digest is independent
/// of how the byte stream is segmented across Update calls (Save hashes
/// in-memory sections, Open hashes the file in read chunks).
class ChunkedHasher {
 public:
  void Update(const char* data, size_t len) {
    while (len > 0) {
      const size_t take = std::min(len, kBlock - fill_);
      std::memcpy(block_ + fill_, data, take);
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
    digest_ = lsh::Murmur3_64(block_, fill_, digest_);
    total_ += fill_;
    fill_ = 0;
  }

  static constexpr size_t kBlock = 64 * 1024;
  char block_[kBlock];
  size_t fill_ = 0;
  uint64_t total_ = 0;
  uint64_t digest_ = 0x474E4942444C3156ULL;  // "GNIBDL1V"
};

/// Stable on-disk modality tags (independent of the enum's layout).
Result<uint32_t> ModalityTag(Modality modality) {
  switch (modality) {
    case Modality::kPoints: return uint32_t{0};
    case Modality::kSets: return uint32_t{1};
    case Modality::kSequences: return uint32_t{2};
    case Modality::kDocuments: return uint32_t{3};
    case Modality::kRelational: return uint32_t{4};
    case Modality::kCompiled: return uint32_t{5};
  }
  return Status::Internal("unknown modality");
}

Result<Modality> TagModality(uint32_t tag) {
  switch (tag) {
    case 0: return Modality::kPoints;
    case 1: return Modality::kSets;
    case 2: return Modality::kSequences;
    case 3: return Modality::kDocuments;
    case 4: return Modality::kRelational;
    case 5: return Modality::kCompiled;
  }
  return Status::InvalidArgument("unknown modality tag in bundle");
}

template <typename T>
Status ReadPod(std::FILE* f, T* v, const std::string& path) {
  if (!file_util::ReadPod(f, v)) {
    return Status::InvalidArgument("truncated bundle: " + path);
  }
  return Status::OK();
}

/// Verifies the trailing whole-file checksum by streaming the first
/// `file_bytes - 8` bytes, then rewinds to the start.
Status VerifyBundleChecksum(std::FILE* f, uint64_t file_bytes,
                            const std::string& path) {
  ChunkedHasher hasher;
  char buffer[64 * 1024];
  uint64_t left = file_bytes - sizeof(uint64_t);
  while (left > 0) {
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(left, sizeof(buffer)));
    if (std::fread(buffer, 1, take, f) != take) {
      return Status::InvalidArgument("truncated bundle: " + path);
    }
    hasher.Update(buffer, take);
    left -= take;
  }
  uint64_t stored = 0;
  GENIE_RETURN_NOT_OK(ReadPod(f, &stored, path));
  if (stored != hasher.Finish()) {
    return Status::InvalidArgument("bundle checksum mismatch (corrupted): " +
                                   path);
  }
  if (std::fseek(f, 0, SEEK_SET) != 0) {
    return Status::Internal("cannot seek: " + path);
  }
  return Status::OK();
}

}  // namespace

Status Engine::Save(const std::string& path,
                    const BundleSaveOptions& options) const {
  // Freeze the mutation state for the whole save (a no-op guard on a
  // never-mutated engine): the meta, mutation, and index sections must be
  // one consistent cut, and a compaction commit must not swap the index
  // out from under BundleIndex(). Searches keep running throughout.
  const std::shared_ptr<void> pause = searcher_->PauseMutation();
  const InvertedIndex* index = searcher_->BundleIndex();
  serialize::Writer meta;
  GENIE_RETURN_NOT_OK(searcher_->SerializeBundleMeta(&meta));
  serialize::Writer mutation;
  GENIE_RETURN_NOT_OK(searcher_->SerializeMutationState(&mutation));
  std::string index_bytes;
  GENIE_RETURN_NOT_OK(
      SaveIndexToBuffer(*index, options.compress_postings, &index_bytes));
  GENIE_ASSIGN_OR_RETURN(const uint32_t modality_tag,
                         ModalityTag(searcher_->modality()));

  // Stats are recomputed from the exact index image being saved (not
  // copied from the live backend) so the persisted blob always fingerprints
  // the bundle's own index, even mid-mutation.
  serialize::Writer stats;
  plan::SerializeIndexStats(plan::ComputeIndexStats(*index), &stats);

  serialize::Writer head;
  head.Bytes(kBundleMagic, sizeof(kBundleMagic));
  head.U32(kBundleVersionStats);
  head.U32(modality_tag);
  head.U64(meta.data().size());
  head.Bytes(meta.data().data(), meta.data().size());
  // v3: the mutation section is always present — 0 bytes on a frozen
  // engine (Open only reopens the engine live when the blob is non-empty).
  head.U64(mutation.data().size());
  head.Bytes(mutation.data().data(), mutation.data().size());
  head.U64(stats.data().size());
  head.Bytes(stats.data().data(), stats.data().size());
  head.U64(index_bytes.size());

  ChunkedHasher hasher;
  hasher.Update(head.data().data(), head.data().size());
  hasher.Update(index_bytes.data(), index_bytes.size());
  const uint64_t checksum = hasher.Finish();
  const std::string_view checksum_bytes(
      reinterpret_cast<const char*>(&checksum), sizeof(checksum));

  // Write-then-rename: a crash mid-write leaves `path` untouched (either
  // the previous bundle or nothing), never a torn file. When the target
  // exists but is not a regular file (a device like /dev/null, a FIFO),
  // renaming over it would replace the node — write through it directly
  // instead; atomicity only makes sense for regular files.
  struct stat st;
  if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    return file_util::WriteFileChecked(path,
                                       {head.data(), index_bytes,
                                        checksum_bytes});
  }
  const std::string tmp = path + ".tmp";
  GENIE_RETURN_NOT_OK(file_util::WriteFileChecked(
      tmp, {head.data(), index_bytes, checksum_bytes}));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot atomically replace: " + path);
  }
  return Status::OK();
}

Result<std::unique_ptr<Engine>> Engine::Open(const std::string& path,
                                             EngineConfig config) {
  GENIE_RETURN_NOT_OK(ValidateCommonKnobs(config));

  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return Status::NotFound("cannot open: " + path);
  GENIE_ASSIGN_OR_RETURN(const uint64_t file_bytes, FileBytes(f.get(), path));
  if (file_bytes < kMinBundleBytes) {
    return Status::InvalidArgument("truncated bundle: " + path);
  }
  GENIE_RETURN_NOT_OK(VerifyBundleChecksum(f.get(), file_bytes, path));

  char magic[8];
  if (std::fread(magic, 1, sizeof(magic), f.get()) != sizeof(magic) ||
      std::memcmp(magic, kBundleMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not a GENIE bundle: " + path);
  }
  uint32_t version = 0;
  uint32_t modality_tag = 0;
  GENIE_RETURN_NOT_OK(ReadPod(f.get(), &version, path));
  if (version < kBundleVersionFrozen || version > kBundleVersionStats) {
    return Status::InvalidArgument(
        "unsupported bundle format version " + std::to_string(version) +
        ": " + path);
  }
  GENIE_RETURN_NOT_OK(ReadPod(f.get(), &modality_tag, path));
  GENIE_ASSIGN_OR_RETURN(const Modality modality, TagModality(modality_tag));

  // The config must re-bind the dataset the bundle was built from (the
  // searcher checks its shape); compiled bundles carry their whole
  // state and take a binding-free config instead.
  if (modality == Modality::kCompiled) {
    if (config.has_modality()) {
      return Status::InvalidArgument(
          "a compiled bundle carries its own index; open it with a config "
          "that has no dataset binding");
    }
  } else if (!config.has_modality() || config.modality() != modality) {
    return Status::InvalidArgument(
        std::string("bundle holds a '") + ModalityToString(modality) +
        "' engine but the config binds '" +
        (config.has_modality() ? ModalityToString(config.modality())
                               : "nothing") +
        "': " + path);
  }

  uint64_t meta_bytes = 0;
  GENIE_RETURN_NOT_OK(ReadPod(f.get(), &meta_bytes, path));
  // Bytes left must still fit the later length fields and the checksum
  // (v2 adds a u64 for the mutation section, v3 another for the stats).
  const uint64_t header_end = 8 + 4 + 4 + 8;
  const uint64_t later_fields = (version >= kBundleVersionStats       ? 4
                                 : version >= kBundleVersionMutable   ? 3
                                                                      : 2) *
                                sizeof(uint64_t);
  if (meta_bytes > file_bytes - header_end - later_fields) {
    return Status::InvalidArgument("bundle meta exceeds file size: " + path);
  }
  std::string meta_blob(static_cast<size_t>(meta_bytes), '\0');
  if (meta_bytes != 0 &&
      std::fread(meta_blob.data(), 1, meta_blob.size(), f.get()) !=
          meta_blob.size()) {
    return Status::InvalidArgument("truncated bundle: " + path);
  }

  std::string mutation_blob;
  if (version >= kBundleVersionMutable) {
    uint64_t mutation_bytes = 0;
    GENIE_RETURN_NOT_OK(ReadPod(f.get(), &mutation_bytes, path));
    const long pos = std::ftell(f.get());
    if (pos < 0) {
      return Status::Internal("cannot determine read position: " + path);
    }
    const uint64_t fields_after_mutation =
        (version >= kBundleVersionStats ? 3 : 2) * sizeof(uint64_t);
    if (mutation_bytes >
        file_bytes - static_cast<uint64_t>(pos) - fields_after_mutation) {
      return Status::InvalidArgument(
          "bundle mutation section exceeds file size: " + path);
    }
    mutation_blob.resize(static_cast<size_t>(mutation_bytes));
    if (mutation_bytes != 0 &&
        std::fread(mutation_blob.data(), 1, mutation_blob.size(), f.get()) !=
            mutation_blob.size()) {
      return Status::InvalidArgument("truncated bundle: " + path);
    }
  }

  // v3: persisted planner statistics. Deserialization is strict — the
  // whole-file checksum already passed, so a malformed blob means a buggy
  // writer, not bit rot.
  plan::IndexStats stats;
  bool have_stats = false;
  if (version >= kBundleVersionStats) {
    uint64_t stats_bytes = 0;
    GENIE_RETURN_NOT_OK(ReadPod(f.get(), &stats_bytes, path));
    const long pos = std::ftell(f.get());
    if (pos < 0) {
      return Status::Internal("cannot determine read position: " + path);
    }
    if (stats_bytes >
        file_bytes - static_cast<uint64_t>(pos) - 2 * sizeof(uint64_t)) {
      return Status::InvalidArgument(
          "bundle stats section exceeds file size: " + path);
    }
    std::string stats_blob(static_cast<size_t>(stats_bytes), '\0');
    if (stats_bytes != 0 &&
        std::fread(stats_blob.data(), 1, stats_blob.size(), f.get()) !=
            stats_blob.size()) {
      return Status::InvalidArgument("truncated bundle: " + path);
    }
    serialize::Reader stats_reader(stats_blob);
    GENIE_RETURN_NOT_OK(plan::DeserializeIndexStats(&stats_reader, &stats));
    have_stats = true;
  }

  uint64_t index_bytes = 0;
  GENIE_RETURN_NOT_OK(ReadPod(f.get(), &index_bytes, path));
  const long index_start = std::ftell(f.get());
  if (index_start < 0) {
    return Status::Internal("cannot determine read position: " + path);
  }
  // The index stream must account for exactly the bytes between here and
  // the trailing checksum.
  if (index_bytes !=
      file_bytes - static_cast<uint64_t>(index_start) - sizeof(uint64_t)) {
    return Status::InvalidArgument("bundle index section size mismatch: " +
                                   path);
  }
  GENIE_ASSIGN_OR_RETURN(
      InvertedIndex index,
      LoadIndexFromStream(f.get(),
                          static_cast<uint64_t>(index_start) + index_bytes,
                          path));

  serialize::Reader meta(meta_blob);
  serialize::Reader mutation_reader(mutation_blob);
  // v3 always carries the section but an empty blob means a frozen engine
  // (same as a v1 bundle): only a non-empty blob reopens the engine live.
  serialize::Reader* mutation =
      !mutation_blob.empty() ? &mutation_reader : nullptr;
  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<Searcher> searcher,
      OpenSearcher(modality, config, &meta, mutation, std::move(index),
                   have_stats ? &stats : nullptr));
  return std::unique_ptr<Engine>(
      new Engine(std::move(config), std::move(searcher)));
}

}  // namespace genie
