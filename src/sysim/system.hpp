#pragma once
/// \file system.hpp
/// Full-platform wiring (paper Fig. 3): RISC-V CPU + shared bus + DRAM +
/// DMA engine + a cluster of photonic DSA processing elements (PEs), with
/// interrupt lines from DMA and every PE OR-ed into the CPU's external
/// interrupt. Synchronous cycle stepping: every tick advances the CPU and
/// all devices by one system clock cycle. run()/run_until() are
/// event-driven on the production CPU path: stretches where no component
/// does visible work — the CPU stalled on a memory/multiplier latency or
/// parked in WFI, the DMA engine quiescent, PEs counting down their
/// optical busy time — are skipped in bulk via the per-component
/// skip_cycles() hooks, and the CPU free-runs blocks while every device
/// is idle, at bit-identical cycle counts to per-cycle ticking. With
/// cfg.cpu.legacy_decode (the reference path) they tick every cycle.
///
/// Address map:
///   0x8000_0000  DRAM (code + data)
///   0x4000_0000  PE 0 (MMRs + SPM windows, 64 KiB stride per PE)
///   0x4001_0000  PE 1 ...
///   0x4100_0000  DMA engine

#include <memory>
#include <vector>

#include "sysim/accelerator.hpp"
#include "sysim/dma.hpp"
#include "sysim/memory.hpp"
#include "sysim/riscv/cpu.hpp"

namespace aspen::sys {

struct SystemConfig {
  std::uint32_t dram_base = 0x80000000u;
  std::uint32_t dram_size = 4u << 20;
  unsigned dram_latency = 10;
  std::uint32_t accel_base = 0x40000000u;
  std::uint32_t accel_stride = 0x10000u;
  std::uint32_t dma_base = 0x41000000u;
  unsigned bus_latency = 1;
  unsigned dma_bytes_per_cycle = 4;
  std::size_t num_pes = 1;
  AcceleratorConfig accel;  ///< configuration shared by all PEs
  rv::CpuConfig cpu;
  std::uint64_t max_cycles = 200'000'000ULL;
};

class System {
 public:
  explicit System(SystemConfig cfg = {});

  /// Copy an assembled program to the reset address.
  void load_program(const std::vector<std::uint32_t>& words);
  /// Host-side data staging in DRAM (offset relative to dram_base).
  void write_dram(std::uint32_t offset, const void* src, std::size_t n);
  void read_dram(std::uint32_t offset, void* dst, std::size_t n) const;

  /// Advance one cycle.
  void tick();

  /// Advance until the CPU halts or the absolute cycle `target` is
  /// reached — event-driven unless cfg.cpu.legacy_decode is set. This is
  /// the exact-cycle entry point fault campaigns use to hit their
  /// injection points: on return (unless halted) now() == target.
  void run_until(std::uint64_t target);

  struct RunResult {
    std::uint64_t cycles = 0;
    std::uint64_t instret = 0;
    rv::Halt halt = rv::Halt::kRunning;
    std::uint32_t exit_code = 0;
    bool timed_out = false;
  };
  /// Run until the CPU halts or max_cycles elapse.
  RunResult run();

  /// Complete captured platform state, restorable into any System built
  /// from the same SystemConfig. Component snapshots hold architectural
  /// state only; derived caches (predecoded micro-ops, bus windows, mesh
  /// transfer factorizations) are invalidated on restore and repopulate
  /// lazily at bit-identical cycle cost. The fault campaigns stage a
  /// workload once, snapshot, and restore per trial instead of paying
  /// construction (DRAM allocation + weight programming) every run.
  struct SystemSnapshot {
    std::uint64_t cycle = 0;
    Memory::Snapshot dram;
    DmaEngine::Snapshot dma;
    std::vector<PhotonicAccelerator::Snapshot> pes;
    rv::Cpu::Snapshot cpu;
  };
  [[nodiscard]] SystemSnapshot snapshot() const;
  /// Restore a snapshot taken from an identically configured System
  /// (throws std::invalid_argument on a shape mismatch). Cost is
  /// dominated by the DRAM memcpy.
  void restore(const SystemSnapshot& s);
  /// Bitwise-equivalent restore tuned for hot trial loops: DRAM is
  /// diff-restored (only spans differing from the snapshot are copied
  /// and notified) and the CPU keeps its direct-memory windows and
  /// predecoded micro-ops — the diff's observer notifications invalidate
  /// exactly the stale entries, the same protocol that keeps them
  /// coherent across DMA writes. Checkpoint-ladder fault campaigns
  /// restore mostly-identical prefixes thousands of times; skipping the
  /// untouched program image is the difference between a full-DRAM
  /// memcpy plus cold re-decode per trial and a short scan.
  ///
  /// The DRAM scan is bounded to the union of the memory's own dirty
  /// watermark (completed by publishing the CPU's raw-span store spans
  /// first) and the caller's stale span [dram_stale_lo,
  /// dram_stale_lo+dram_stale_len): the bytes where the image this
  /// system was last restored to may differ from `s.dram`. Callers that
  /// do not track the last restored image must keep the whole-span
  /// default.
  void restore_fast(const SystemSnapshot& s, std::uint32_t dram_stale_lo = 0,
                    std::uint32_t dram_stale_len = 0xFFFFFFFFu);

  [[nodiscard]] rv::Cpu& cpu() { return *cpu_; }
  [[nodiscard]] Memory& dram() { return *dram_; }
  [[nodiscard]] DmaEngine& dma() { return *dma_; }
  [[nodiscard]] Bus& bus() { return bus_; }
  [[nodiscard]] std::size_t pe_count() const { return pes_.size(); }
  [[nodiscard]] PhotonicAccelerator& pe(std::size_t i) { return *pes_.at(i); }
  [[nodiscard]] const SystemConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t now() const { return cycle_; }

 private:
  /// Cycles that can elapse from the current state without any component
  /// doing observable work (0 when the next tick must be stepped).
  [[nodiscard]] std::uint64_t skippable_cycles() const;
  /// True when the CPU can free-run instructions without per-cycle
  /// device ticking (all devices idle, interrupt line low).
  [[nodiscard]] bool can_burst() const;
  /// Advance every clock by `n` guaranteed-idle cycles at once.
  void skip_cycles(std::uint64_t n);

  SystemConfig cfg_;
  Bus bus_;
  std::unique_ptr<Memory> dram_;
  std::unique_ptr<DmaEngine> dma_;
  std::vector<std::unique_ptr<PhotonicAccelerator>> pes_;
  std::unique_ptr<rv::Cpu> cpu_;
  std::uint64_t cycle_ = 0;
};

}  // namespace aspen::sys
