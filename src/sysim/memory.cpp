#include "sysim/memory.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>

namespace aspen::sys {

Memory::Memory(std::string name, std::uint32_t size, unsigned latency_cycles)
    : name_(std::move(name)), bytes_(size, 0), latency_(latency_cycles) {
  if (size == 0) throw std::invalid_argument("Memory: zero size");
}

std::uint8_t Memory::read_byte(std::uint32_t offset) const {
  std::uint8_t b = bytes_[offset];
  for (const auto& s : stuck_) {
    if (s.offset != offset) continue;
    if (s.value)
      b |= static_cast<std::uint8_t>(1u << s.bit);
    else
      b &= static_cast<std::uint8_t>(~(1u << s.bit));
  }
  return b;
}

std::uint32_t Memory::read(std::uint32_t offset, unsigned size) {
  // Bus-facing access: a region-boundary-crossing transaction (possible
  // under injected faults) reads as zero rather than killing the
  // simulation; host-side load/read_block stay strict.
  if (offset > bytes_.size() || size > bytes_.size() - offset) return 0;
  // Little-endian block copy instead of the per-byte assembly loop.
  if (stuck_.empty()) return load_le(bytes_.data() + offset, size);
  std::uint32_t v = 0;
  for (unsigned i = 0; i < size; ++i)
    v |= static_cast<std::uint32_t>(read_byte(offset + i)) << (8 * i);
  return v;
}

void Memory::write(std::uint32_t offset, std::uint32_t value, unsigned size) {
  if (offset > bytes_.size() || size > bytes_.size() - offset)
    return;  // see read()
  store_le(bytes_.data() + offset, value, size);
  mark_dirty(offset, size);
  notify(offset, size);
}

void Memory::load(std::uint32_t offset, const void* src, std::size_t n) {
  if (offset + n > bytes_.size())
    throw std::out_of_range(name_ + ": load past end");
  std::memcpy(bytes_.data() + offset, src, n);
  mark_dirty(offset, static_cast<std::uint32_t>(n));
  notify(offset, static_cast<std::uint32_t>(n));
}

void Memory::read_block(std::uint32_t offset, void* dst, std::size_t n) const {
  if (offset + n > bytes_.size())
    throw std::out_of_range(name_ + ": read_block past end");
  std::memcpy(dst, bytes_.data() + offset, n);
}

void Memory::fill(std::uint8_t value) {
  std::fill(bytes_.begin(), bytes_.end(), value);
  mark_dirty(0, size());
  notify(0, size());
}

void Memory::flip_bit(std::uint32_t offset, unsigned bit) {
  if (offset >= bytes_.size() || bit > 7)
    throw std::out_of_range(name_ + ": flip_bit out of range");
  bytes_[offset] ^= static_cast<std::uint8_t>(1u << bit);
  mark_dirty(offset, 1);
  notify(offset, 1);
}

void Memory::set_stuck_bit(std::uint32_t offset, unsigned bit, bool value) {
  if (offset >= bytes_.size() || bit > 7)
    throw std::out_of_range(name_ + ": set_stuck_bit out of range");
  stuck_.push_back({offset, static_cast<std::uint8_t>(bit), value});
  // The read transform changed: the whole span must be treated as dirty
  // (and direct_span() is revoked until the faults are cleared).
  notify(0, size());
}

void Memory::clear_faults() {
  stuck_.clear();
  notify(0, size());
}

Memory::Lineage Memory::Lineage::fresh() {
  static std::atomic<std::uint64_t> next_root{1};
  Lineage l;
  l.root = next_root++;
  return l;
}

Memory::Snapshot Memory::snapshot() {
  if (lineage_.root == 0) lineage_ = Lineage::fresh();
  return {bytes_, stuck_, lineage_};
}

void Memory::restore(const Snapshot& s) {
  if (s.bytes.size() != bytes_.size())
    throw std::invalid_argument(name_ + ": restore size mismatch");
  const bool same_stuck = std::equal(
      stuck_.begin(), stuck_.end(), s.stuck.begin(), s.stuck.end(),
      [](const Stuck& a, const Stuck& b) {
        return a.offset == b.offset && a.bit == b.bit && a.value == b.value;
      });
  // Both images descend from one root: a byte outside both spans equals
  // the root's in each, so only the union of the spans can differ.
  const std::uint32_t n = size();
  std::uint32_t scan_lo = 0;
  std::uint32_t scan_hi = n;
  if (same_stuck && lineage_.root != 0 && lineage_.root == s.lineage.root) {
    scan_lo = std::min(lineage_.lo, s.lineage.lo);
    scan_hi = std::min(std::max(lineage_.hi, s.lineage.hi), n);
  }
  // Chunked scan: contiguous runs of differing chunks are copied and
  // notified as one span, so observer invalidation stays proportional to
  // what actually changed. 256 bytes balances memcmp call overhead
  // against over-invalidation of a master's predecoded instructions.
  constexpr std::uint32_t kChunk = 256;
  std::uint32_t run_lo = 0;
  bool in_run = false;
  for (std::uint32_t off = scan_lo; off < scan_hi; off += kChunk) {
    const std::uint32_t len = std::min(kChunk, scan_hi - off);
    const bool differs =
        std::memcmp(bytes_.data() + off, s.bytes.data() + off, len) != 0;
    if (differs && !in_run) {
      run_lo = off;
      in_run = true;
    } else if (!differs && in_run) {
      std::memcpy(bytes_.data() + run_lo, s.bytes.data() + run_lo,
                  off - run_lo);
      notify(run_lo, off - run_lo);
      in_run = false;
    }
  }
  if (in_run) {
    std::memcpy(bytes_.data() + run_lo, s.bytes.data() + run_lo,
                scan_hi - run_lo);
    notify(run_lo, scan_hi - run_lo);
  }
  lineage_ = s.lineage;
  if (!same_stuck) {
    // The read transform changed: every span is stale (this also
    // re-grants / revokes direct_span() for masters holding windows).
    stuck_ = s.stuck;
    notify(0, n);
  }
}

}  // namespace aspen::sys
