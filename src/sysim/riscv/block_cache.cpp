#include "sysim/riscv/block_cache.hpp"

#include <cstdlib>
#include <cstring>

namespace aspen::sys::rv {

void BlockCache::invalidate_range(std::uint32_t addr, std::uint32_t bytes) {
  if (!extent_.overlaps(addr, bytes)) return;
  const std::uint64_t wr_end = static_cast<std::uint64_t>(addr) + bytes;
  bool any = false;
  for (Block& b : pool_) {
    if (!b.valid) continue;
    if (b.start < wr_end && b.end > addr) {
      b.valid = false;
      ++stats_.evictions;
      any = true;
    }
  }
  // The extent stays conservative (never shrinks); a bumped generation
  // is what tells an in-flight executor its block may be gone.
  if (any) ++gen_;
}

void BlockCache::flush() {
  for (Block& b : pool_) {
    if (b.valid) {
      b.valid = false;
      ++stats_.evictions;
    }
  }
  extent_.reset();
  ++gen_;
}

bool block_tier_env_default() {
  static const bool enabled = [] {
    const char* v = std::getenv("ASPEN_BLOCK_TIER");
    return v == nullptr || v[0] == '\0' || std::strcmp(v, "0") != 0;
  }();
  return enabled;
}

}  // namespace aspen::sys::rv
