#pragma once
/// \file memory.hpp
/// Byte-addressable memories: DRAM-like main memory and on-accelerator
/// scratchpads (SPMs — "these two types of memories occupy the largest
/// part of the area of many accelerators", paper Section 5). Supports the
/// permanent stuck-at fault hooks used by the reliability campaigns.
///
/// Fast path: while no stuck-at faults are armed the raw byte store is
/// exported through `direct_span()`, letting bus masters (the CPU's DRAM
/// fast path) bypass the virtual read/write calls. Every out-of-band
/// mutation — bus writes, host loads, bit flips, stuck-bit changes — is
/// reported to the registered BusWriteObserver so derived caches
/// (predecoded instructions) stay coherent.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sysim/bus.hpp"
#include "sysim/page_allocator.hpp"

namespace aspen::sys {

class Memory final : public BusDevice {
 public:
  Memory(std::string name, std::uint32_t size, unsigned latency_cycles);

  std::uint32_t read(std::uint32_t offset, unsigned size) override;
  void write(std::uint32_t offset, std::uint32_t value, unsigned size) override;
  [[nodiscard]] unsigned access_latency() const override { return latency_; }
  [[nodiscard]] std::string name() const override { return name_; }

  /// Raw store, exported only while reads are transform-free (no stuck
  /// bits): a revoked span forces masters back onto read(), which applies
  /// the fault masks.
  [[nodiscard]] DirectSpan direct_span() override {
    if (!stuck_.empty()) return {};
    return {bytes_.data(), size()};
  }
  void set_write_observer(BusWriteObserver* observer) override {
    observer_ = observer;
  }
  /// Bulk direct-span mutation (DMA bulk moves, a CPU master flushing
  /// its store watermark): widens the lineage span and forwards to the
  /// observer.
  void direct_span_written(std::uint32_t offset,
                           std::uint32_t bytes) override {
    mark_dirty(offset, bytes);
    notify(offset, bytes);
  }
  /// Pure storage: writes never schedule device activity.
  [[nodiscard]] bool write_is_activating(std::uint32_t) const override {
    return false;
  }
  /// True while a master caches state derived from this memory; direct
  /// span writers must then go through write() so the observer fires.
  [[nodiscard]] bool observed() const { return observer_ != nullptr; }

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(bytes_.size());
  }

  /// Bulk host-side access (program loading, result checking) — no
  /// latency modelling.
  void load(std::uint32_t offset, const void* src, std::size_t n);
  void read_block(std::uint32_t offset, void* dst, std::size_t n) const;
  void fill(std::uint8_t value);

  // -- Fault hooks --------------------------------------------------------
  /// Transient: flip one bit now.
  void flip_bit(std::uint32_t offset, unsigned bit);
  /// Permanent: force one bit to `value` on every read from now on.
  void set_stuck_bit(std::uint32_t offset, unsigned bit, bool value);
  void clear_faults();

  // -- Snapshot / restore -------------------------------------------------
  struct Stuck {
    std::uint32_t offset;
    std::uint8_t bit;
    bool value;
  };
  /// Where a byte image stands against a root image: `root` names the
  /// root (0 = unknown; ids are unique across the process) and
  /// [lo, hi) bounds the bytes that may differ from it (lo >= hi: none).
  struct Lineage {
    std::uint64_t root = 0;
    std::uint32_t lo = 0xFFFFFFFFu;
    std::uint32_t hi = 0;
    /// A new root with an empty span.
    [[nodiscard]] static Lineage fresh();
  };
  /// Full captured state: the byte image, the armed stuck-at faults and
  /// the image's lineage.
  struct Snapshot {
    ByteImage bytes;
    std::vector<Stuck> stuck;
    Lineage lineage;
  };
  /// A memory of unknown lineage becomes a fresh root here (the snapshot
  /// with it, empty span); otherwise the snapshot inherits the memory's
  /// root and the span of every mutation since.
  [[nodiscard]] Snapshot snapshot();
  /// Restore a snapshot taken from an identically sized memory (throws
  /// std::invalid_argument otherwise), then adopt its lineage. When the
  /// memory and the snapshot share a root and a stuck-at set, only the
  /// union of their spans can differ and only that is compared;
  /// otherwise the whole image is. Only the 256-byte chunks that do
  /// differ are copied and reported to the observer, so masters keep the
  /// derived caches (predecoded instructions) of untouched spans. A
  /// changed stuck-at set reports the whole span: the read transform
  /// changed.
  void restore(const Snapshot& s);

 private:
  [[nodiscard]] std::uint8_t read_byte(std::uint32_t offset) const;
  void notify(std::uint32_t offset, std::uint32_t bytes) {
    if (observer_ != nullptr) observer_->bus_memory_written(this, offset, bytes);
  }
  /// Widen the lineage span over mutated bytes.
  void mark_dirty(std::uint32_t offset, std::uint32_t bytes) {
    if (bytes == 0) return;
    lineage_.lo = std::min(lineage_.lo, offset);
    lineage_.hi = std::max(lineage_.hi, offset + bytes);
  }

  std::string name_;
  ByteImage bytes_;
  unsigned latency_;
  BusWriteObserver* observer_ = nullptr;
  std::vector<Stuck> stuck_;
  /// Every mutation path (bus writes, bulk moves, host loads, bit flips;
  /// masters writing through direct spans report via
  /// direct_span_written) widens the span, so it bounds what restore()
  /// must compare.
  Lineage lineage_;
};

}  // namespace aspen::sys
