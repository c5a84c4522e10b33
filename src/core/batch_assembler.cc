#include "core/batch_assembler.h"

#include <algorithm>

namespace genie {

uint32_t BatchAssembler::DeriveFromMemory(uint64_t capacity_bytes,
                                          uint64_t allocated_bytes,
                                          uint64_t per_query_bytes,
                                          double memory_fraction) {
  // Oversubscribed device: capacity - allocated would underflow (both are
  // unsigned), deriving an absurd batch size. Treat it as no free memory
  // and degrade to one query per batch.
  const uint64_t free_bytes =
      capacity_bytes > allocated_bytes ? capacity_bytes - allocated_bytes : 0;
  const uint64_t budget = static_cast<uint64_t>(
      static_cast<double>(free_bytes) * std::clamp(memory_fraction, 0.0, 1.0));
  return static_cast<uint32_t>(
      std::clamp<uint64_t>(budget / std::max<uint64_t>(per_query_bytes, 1), 1,
                           1u << 20));
}

uint32_t BatchAssembler::ResolveTargetBatch(uint32_t configured,
                                            uint32_t planned,
                                            uint32_t fallback) {
  if (configured > 0) return configured;
  if (planned > 0) return planned;
  return fallback;
}

}  // namespace genie
