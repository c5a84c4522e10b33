#include "core/batch_assembler.h"

#include <gtest/gtest.h>

namespace genie {
namespace {

TEST(BatchAssemblerTest, DeriveFromMemoryBasics) {
  // 100 MiB free, half usable, 1 MiB per query -> 50 queries.
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(100 << 20, 0, 1 << 20, 0.5), 50u);
  // Allocation eats into the free capacity.
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(100 << 20, 60 << 20, 1 << 20, 0.5),
            20u);
}

TEST(BatchAssemblerTest, DeriveFromMemoryOversubscriptionClampsToOne) {
  // allocated > capacity must not underflow into a huge batch.
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(4 << 20, 8 << 20, 1 << 20, 0.5),
            1u);
  // Zero per-query cost and zero free memory both stay sane.
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(0, 0, 0, 0.5), 1u);
  EXPECT_GE(BatchAssembler::DeriveFromMemory(1ull << 40, 0, 0, 1.0), 1u);
  EXPECT_LE(BatchAssembler::DeriveFromMemory(1ull << 40, 0, 1, 1.0), 1u << 20);
}

TEST(BatchAssemblerTest, DeriveFromMemoryClampsFraction) {
  // Fractions outside [0, 1] are clamped, not amplified.
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(10 << 20, 0, 1 << 20, 2.0), 10u);
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(10 << 20, 0, 1 << 20, -1.0), 1u);
}

TEST(BatchAssemblerTest, ResolveTargetBatchPreferenceOrder) {
  EXPECT_EQ(BatchAssembler::ResolveTargetBatch(256, 512, 1024), 256u);
  EXPECT_EQ(BatchAssembler::ResolveTargetBatch(0, 512, 1024), 512u);
  EXPECT_EQ(BatchAssembler::ResolveTargetBatch(0, 0, 1024), 1024u);
}

// ---------------------------------------------------------------------------
// Memory-budget derivation edge cases (the unsigned-underflow regression).
// ---------------------------------------------------------------------------

TEST(DeriveLargeBatchSizeTest, NormalBudget) {
  // 1 MiB free, half budget, 1 KiB per query -> 512 queries per batch.
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(1 << 20, 0, 1 << 10, 0.5), 512u);
}

TEST(DeriveLargeBatchSizeTest, OversubscribedDeviceFallsBackToOne) {
  // allocated > capacity must not underflow into a huge free-memory figure
  // (the old code derived the 2^20 clamp limit here).
  EXPECT_EQ(
      BatchAssembler::DeriveFromMemory(1 << 20, (1 << 20) + 1, 1 << 10, 0.5),
      1u);
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(0, 1, 64, 0.5), 1u);
}

TEST(DeriveLargeBatchSizeTest, FullDeviceFallsBackToOne) {
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(1 << 20, 1 << 20, 1 << 10, 0.5),
            1u);
}

TEST(DeriveLargeBatchSizeTest, ClampsToUpperBound) {
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(1ULL << 40, 0, 1, 1.0), 1u << 20);
}

TEST(DeriveLargeBatchSizeTest, ZeroPerQueryBytesTreatedAsOneByte) {
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(1 << 20, 0, 0, 1.0), 1u << 20);
}

}  // namespace
}  // namespace genie
