#include "sysim/system.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace aspen::sys {

System::System(SystemConfig cfg) : cfg_(cfg), bus_(cfg.bus_latency) {
  if (cfg_.num_pes == 0) throw std::invalid_argument("System: num_pes == 0");
  dram_ = std::make_unique<Memory>("dram", cfg_.dram_size, cfg_.dram_latency);
  bus_.attach(cfg_.dram_base, cfg_.dram_size, dram_.get());

  dma_ = std::make_unique<DmaEngine>(bus_, cfg_.dma_bytes_per_cycle);
  bus_.attach(cfg_.dma_base, 0x1000, dma_.get());

  for (std::size_t i = 0; i < cfg_.num_pes; ++i) {
    AcceleratorConfig pe_cfg = cfg_.accel;
    // Distinct noise streams / dies per PE.
    pe_cfg.gemm.mvm.noise_seed += i;
    pe_cfg.gemm.mvm.errors.seed += i;
    pes_.push_back(std::make_unique<PhotonicAccelerator>(pe_cfg));
    PhotonicAccelerator* pe = pes_.back().get();
    const std::uint32_t pe_base =
        cfg_.accel_base + static_cast<std::uint32_t>(i) * cfg_.accel_stride;
    // MMR block through the device decode; the SPM windows map straight
    // onto their backing memories, skipping one dispatch layer on the
    // copy-loop hot path. The SPMs report the same access latency the
    // device does, so bus-visible timing is unchanged; offsets beyond an
    // SPM's populated bytes keep the read-0/ignore behavior the device
    // decode provided (Memory is lenient bus-side).
    bus_.attach(pe_base, PhotonicAccelerator::kSpmWBase, pe);
    bus_.attach(pe_base + PhotonicAccelerator::kSpmWBase, 0x1000,
                &pe->spm_w());
    bus_.attach(pe_base + PhotonicAccelerator::kSpmXBase, 0x1000,
                &pe->spm_x());
    bus_.attach(pe_base + PhotonicAccelerator::kSpmYBase, 0x1000,
                &pe->spm_y());
  }

  rv::CpuConfig cpu_cfg = cfg_.cpu;
  cpu_cfg.reset_pc = cfg_.dram_base;
  cpu_ = std::make_unique<rv::Cpu>(bus_, cpu_cfg);
}

void System::load_program(const std::vector<std::uint32_t>& words) {
  dram_->load(0, words.data(), words.size() * 4);
}

void System::write_dram(std::uint32_t offset, const void* src,
                        std::size_t n) {
  dram_->load(offset, src, n);
}

void System::read_dram(std::uint32_t offset, void* dst, std::size_t n) const {
  dram_->read_block(offset, dst, n);
}

void System::tick() {
  bool irq = dma_->irq_pending();
  for (const auto& pe : pes_) irq = irq || pe->irq_pending();
  cpu_->set_irq(irq);
  cpu_->tick();
  dma_->tick();
  for (const auto& pe : pes_) pe->tick();
  ++cycle_;
}

std::uint64_t System::skippable_cycles() const {
  constexpr std::uint64_t kForever = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t cpu_idle;
  if (cpu_->stall_remaining() > 0) {
    cpu_idle = cpu_->stall_remaining();
  } else if (cpu_->waiting_for_interrupt()) {
    // The CPU samples the OR-ed interrupt line at the top of each
    // non-stalled tick; a pending line means it wakes next tick.
    bool irq = dma_->irq_pending();
    for (const auto& pe : pes_) irq = irq || pe->irq_pending();
    if (irq) return 0;
    cpu_idle = kForever;  // sleeps until a device raises the line
  } else {
    return 0;  // an instruction issues next tick
  }
  // Nearest device event: the DMA completing its transfer or a PE
  // completing its optical operation (the only per-cycle side effects
  // are the final DONE/IRQ edges). The DMA query runs only once the CPU
  // is known idle: a busy DMA engine issues bus transactions every
  // cycle, but when both endpoints resolve to raw memory spans those
  // transactions are pure data movement nobody can observe while the
  // CPU sleeps — the remaining beats bulk-move inside skip_cycles.
  std::uint64_t device_event = kForever;
  if (dma_->busy()) {
    device_event = dma_->bulk_cycles_remaining();
    if (device_event == 0) return 0;  // MMIO endpoint or overlap: tick
  }
  for (const auto& pe : pes_) {
    if (pe->busy())
      device_event = std::min(device_event, pe->busy_cycles_remaining());
    // An armed watchdog is a second scheduled device event: its expiry
    // latches ERROR and raises the interrupt line, so skipping must not
    // jump past the deadline.
    if (pe->watchdog_armed())
      device_event = std::min(device_event, pe->watchdog_cycles_remaining());
  }
  return std::min(cpu_idle, device_event);
}

void System::skip_cycles(std::uint64_t n) {
  cpu_->skip_cycles(n);
  dma_->skip_cycles(n);
  for (const auto& pe : pes_) pe->skip_cycles(n);
  cycle_ += n;
}

bool System::can_burst() const {
  // The CPU may free-run only while no device event can preempt it:
  // every device idle with its interrupt line low (so the line cannot
  // rise mid-burst), and the CPU itself ready to issue.
  if (dma_->busy() || dma_->irq_pending()) return false;
  for (const auto& pe : pes_)
    if (pe->busy() || pe->irq_pending() || pe->watchdog_armed()) return false;
  return !cpu_->waiting_for_interrupt() && cpu_->stall_remaining() == 0;
}

void System::run_until(std::uint64_t target) {
  if (cfg_.cpu.legacy_decode) {
    while (!cpu_->halted() && cycle_ < target) tick();
    return;
  }
  while (!cpu_->halted() && cycle_ < target) {
    const std::uint64_t idle = skippable_cycles();
    if (idle > 0) {
      skip_cycles(std::min(idle, target - cycle_));
      continue;
    }
    if (can_burst()) {
      cpu_->set_irq(false);  // the line is low and stays low
      const rv::Cpu::BurstResult b = cpu_->run_burst(target - cycle_);
      cycle_ += b.cycles;
      if (b.bus_access) {
        // Device phase of the access cycle: the MMIO access may have
        // started the DMA engine or a PE, whose tick for that cycle is
        // still pending (idle devices tick as no-ops).
        dma_->tick();
        for (const auto& pe : pes_) pe->tick();
      }
      continue;
    }
    tick();
  }
}

System::SystemSnapshot System::snapshot() const {
  SystemSnapshot s;
  s.cycle = cycle_;
  s.dram = dram_->snapshot();
  s.dma = dma_->snapshot();
  s.pes.reserve(pes_.size());
  for (const auto& pe : pes_) s.pes.push_back(pe->snapshot());
  s.cpu = cpu_->snapshot();
  return s;
}

void System::restore(const SystemSnapshot& s) {
  if (s.pes.size() != pes_.size() ||
      s.dram.bytes.size() != dram_->size())
    throw std::invalid_argument(
        "System::restore: snapshot from a differently configured system");
  // Memories first (their observer notifications run against the old CPU
  // windows, which the CPU restore then drops wholesale anyway).
  dram_->restore(s.dram);
  dma_->restore(s.dma);
  for (std::size_t i = 0; i < pes_.size(); ++i) pes_[i]->restore(s.pes[i]);
  cpu_->restore(s.cpu);
  cycle_ = s.cycle;
}

void System::restore_fast(const SystemSnapshot& s, std::uint32_t dram_stale_lo,
                          std::uint32_t dram_stale_len) {
  if (s.pes.size() != pes_.size() ||
      s.dram.bytes.size() != dram_->size())
    throw std::invalid_argument(
        "System::restore_fast: snapshot from a differently configured system");
  // The CPU's raw-span stores are the one mutation path the memories
  // cannot see; publishing them first makes the DRAM dirty watermark
  // complete, so the diff below provably covers every changed byte.
  cpu_->publish_store_spans();
  // The diff runs while the CPU still holds its windows, so every
  // notification lands on a live window and invalidates exactly the
  // micro-ops covering changed bytes; the warm CPU restore afterwards
  // keeps the rest.
  dram_->restore_diff(s.dram, dram_stale_lo, dram_stale_len);
  dma_->restore(s.dma);
  for (std::size_t i = 0; i < pes_.size(); ++i) pes_[i]->restore(s.pes[i]);
  cpu_->restore_warm(s.cpu);
  cycle_ = s.cycle;
}

System::RunResult System::run() {
  RunResult r;
  run_until(cfg_.max_cycles);
  r.cycles = cpu_->cycles();
  r.instret = cpu_->instret();
  r.halt = cpu_->halt_reason();
  r.exit_code = cpu_->halted() ? cpu_->exit_code() : 0;
  r.timed_out = !cpu_->halted();
  return r;
}

}  // namespace aspen::sys
