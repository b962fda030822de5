// Differential suite for the event-driven sysim rebuild: every workload
// program plus interrupt/WFI, self-modifying-code and fault-injection
// scenarios run through three execution legs —
//   legacy: decode-every-fetch interpreter + per-cycle System ticking
//           (CpuConfig::legacy_decode, the reference path)
//   tick:   the production CPU driven per cycle through System::tick()
//           by this harness, so every instruction goes through step()
//           and its predecoded micro-op cache
//   block:  the production configuration as System::run_until() runs
//           it (basic-block bursts with chaining and batched static
//           runs, bulk idle skips)
// — asserting bit-identical cycles, instret, halt reason, exit code,
// final register file and final DRAM image. This is the contract that
// lets the fault campaigns trust the optimized simulator.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>

#include "sysim/campaign_io.hpp"
#include "sysim/fault.hpp"
#include "sysim/system.hpp"
#include "sysim/workloads.hpp"

namespace {

using namespace aspen::sys;
using namespace aspen::sys::rv;

std::vector<std::int16_t> random_fixed(std::size_t count, std::uint64_t seed) {
  aspen::lina::Rng rng(seed);
  std::vector<std::int16_t> v(count);
  for (auto& x : v) x = PhotonicAccelerator::to_fixed(rng.uniform(-0.9, 0.9));
  return v;
}

/// Execution legs under differential test. The legacy reference is the
/// oracle; the production CPU must match it both per cycle (kTick) and
/// event-driven (kBlock).
enum class Tier { kLegacy, kTick, kBlock };

constexpr Tier kFastTiers[] = {Tier::kTick, Tier::kBlock};

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kLegacy: return "legacy";
    case Tier::kTick: return "tick";
    default: return "block";
  }
}

SystemConfig with_tier(SystemConfig sc, Tier t) {
  sc.cpu.legacy_decode = t == Tier::kLegacy;
  return sc;
}

/// Advance `system` to the absolute cycle `target` (or halt) the way
/// `tier` runs: the tick leg steps System::tick() itself, the other two
/// go through System::run_until().
void advance(System& system, Tier tier, std::uint64_t target) {
  if (tier != Tier::kTick) {
    system.run_until(target);
    return;
  }
  while (!system.cpu().halted() && system.now() < target) system.tick();
}

/// advance() to the configured cycle limit, like System::run().
void advance(System& system, Tier tier) {
  advance(system, tier, system.config().max_cycles);
}

/// Everything architecturally observable after a run (bstats is
/// diagnostic-only: captured for block-tier assertions, not diffed).
struct Capture {
  System::RunResult result;
  std::uint64_t system_cycle = 0;
  std::array<std::uint32_t, 32> regs{};
  std::vector<std::uint8_t> dram;
  BlockStats bstats;
};

/// Everything a trial can observe, captured from a live system (the
/// result fields read exactly as System::run() reports them).
Capture capture_state(System& system) {
  Capture c;
  c.result.cycles = system.cpu().cycles();
  c.result.instret = system.cpu().instret();
  c.result.halt = system.cpu().halt_reason();
  c.result.exit_code = system.cpu().halted() ? system.cpu().exit_code() : 0;
  c.result.timed_out = !system.cpu().halted();
  c.system_cycle = system.now();
  for (int i = 0; i < 32; ++i)
    c.regs[static_cast<std::size_t>(i)] = system.cpu().read_reg(i);
  c.dram.resize(system.config().dram_size);
  system.read_dram(0, c.dram.data(), c.dram.size());
  c.bstats = system.cpu().block_stats();
  return c;
}

Capture run_tier(const SystemConfig& sc_base, Tier tier,
                 const std::vector<std::uint32_t>& program,
                 const std::function<void(System&)>& stage = {}) {
  System system(with_tier(sc_base, tier));
  if (stage) stage(system);
  system.load_program(program);
  advance(system, tier);
  return capture_state(system);
}

void expect_identical(const Capture& legacy, const Capture& fast,
                      const char* what) {
  EXPECT_EQ(legacy.result.cycles, fast.result.cycles) << what;
  EXPECT_EQ(legacy.result.instret, fast.result.instret) << what;
  EXPECT_EQ(legacy.result.halt, fast.result.halt) << what;
  EXPECT_EQ(legacy.result.exit_code, fast.result.exit_code) << what;
  EXPECT_EQ(legacy.result.timed_out, fast.result.timed_out) << what;
  EXPECT_EQ(legacy.system_cycle, fast.system_cycle) << what;
  EXPECT_EQ(legacy.regs, fast.regs) << what << ": register file differs";
  EXPECT_EQ(legacy.dram == fast.dram, true) << what << ": DRAM image differs";
}

void diff_program(const SystemConfig& sc,
                  const std::vector<std::uint32_t>& program, const char* what,
                  const std::function<void(System&)>& stage = {}) {
  const Capture legacy = run_tier(sc, Tier::kLegacy, program, stage);
  for (const Tier tier : kFastTiers) {
    const Capture fast = run_tier(sc, tier, program, stage);
    expect_identical(
        legacy, fast,
        (std::string(what) + " [" + tier_name(tier) + "]").c_str());
  }
}

/// Drive a fresh system per leg through an arbitrary scenario (mid-run
/// injections, staged runs; `drive` advances through advance() with the
/// leg it is given), diff both production legs against legacy, and
/// return the block-leg capture for tier-specific assertions.
Capture diff_drive(const SystemConfig& sc, const char* what,
                   const std::function<void(System&, Tier)>& drive) {
  System legacy_sys(with_tier(sc, Tier::kLegacy));
  drive(legacy_sys, Tier::kLegacy);
  const Capture legacy = capture_state(legacy_sys);
  Capture block;
  for (const Tier tier : kFastTiers) {
    System system(with_tier(sc, tier));
    drive(system, tier);
    Capture c = capture_state(system);
    expect_identical(
        legacy, c,
        (std::string(what) + " [" + tier_name(tier) + "]").c_str());
    if (tier == Tier::kBlock) block = c;
  }
  return block;
}

AcceleratorConfig small_accel() {
  AcceleratorConfig cfg;
  cfg.gemm.mvm.ports = 8;
  cfg.max_cols = 16;
  return cfg;
}

std::function<void(System&)> gemm_stager(const GemmWorkload& wl,
                                         std::uint64_t seed) {
  const auto a = random_fixed(wl.n * wl.n, seed);
  const auto x = random_fixed(wl.n * wl.m, seed + 1);
  return [wl, a, x](System& s) { stage_gemm_data(s, wl, a, x); };
}

// ------------------------------------------------- workload programs

TEST(SysimDiffTest, SoftwareGemm) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  diff_program(sc, build_gemm_software(wl, sc), "software gemm",
               gemm_stager(wl, 301));
}

class DiffOffloadTest : public ::testing::TestWithParam<OffloadPath> {};

TEST_P(DiffOffloadTest, OffloadPathsIdentical) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 8;
  diff_program(sc, build_gemm_offload(wl, sc, GetParam()), "offload",
               gemm_stager(wl, 311));
}

INSTANTIATE_TEST_SUITE_P(Paths, DiffOffloadTest,
                         ::testing::Values(OffloadPath::kMmrPolling,
                                           OffloadPath::kMmrInterrupt,
                                           OffloadPath::kDmaInterrupt));

TEST(SysimDiffTest, OffloadThermoOpticLongBusyWindow) {
  // Thermo-optic programming parks the CPU for ~10k cycles — the bulk
  // skip's best case must still land DONE/IRQ on the exact same cycle.
  SystemConfig sc;
  sc.accel = small_accel();
  sc.accel.gemm.mvm.weights = aspen::core::WeightTechnology::kThermoOptic;
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 8;
  diff_program(sc, build_gemm_offload(wl, sc, OffloadPath::kDmaInterrupt),
               "thermo offload", gemm_stager(wl, 321));
}

TEST(SysimDiffTest, StreamingOffload) {
  // Weights once + 8 tiles back to back: long CPU bursts interleaved
  // with device-busy windows and WFI wakes.
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload tile;
  tile.n = 8;
  tile.m = 4;
  GemmWorkload full = tile;
  full.m = tile.m * 8;
  diff_program(sc,
               build_gemm_offload_stream(tile, sc, OffloadPath::kMmrInterrupt,
                                         8),
               "streaming offload", gemm_stager(full, 361));
  diff_program(sc,
               build_gemm_offload_stream(tile, sc, OffloadPath::kDmaInterrupt,
                                         8),
               "streaming offload dma", gemm_stager(full, 362));
  diff_program(sc,
               build_gemm_offload_stream(tile, sc, OffloadPath::kMmrPolling,
                                         8),
               "streaming offload polling", gemm_stager(full, 363));
}

TEST(SysimDiffTest, MultiPe) {
  SystemConfig sc;
  sc.accel = small_accel();
  sc.num_pes = 2;
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 8;
  diff_program(sc, build_gemm_multi_pe(wl, sc), "multi-pe",
               gemm_stager(wl, 331));
}

TEST(SysimDiffTest, CounterProbe) {
  SystemConfig sc;
  sc.accel = small_accel();
  diff_program(sc, build_counter_probe(sc, 0x40000), "counter probe");
}

// --------------------------------------- interrupt / WFI / timeout

TEST(SysimDiffTest, WfiDeadlockTimesOutAtSameCycle) {
  SystemConfig sc;
  sc.accel = small_accel();
  sc.max_cycles = 5000;  // nothing will ever wake the CPU
  Assembler as(sc.dram_base);
  as.nop();
  as.wfi();
  as.ebreak();
  const auto program = as.assemble();
  const Capture legacy = run_tier(sc, Tier::kLegacy, program);
  EXPECT_TRUE(legacy.result.timed_out);
  for (const Tier tier : kFastTiers) {
    const Capture fast = run_tier(sc, tier, program);
    EXPECT_TRUE(fast.result.timed_out) << tier_name(tier);
    expect_identical(legacy, fast, "wfi deadlock");
  }
}

TEST(SysimDiffTest, DmaInterruptTrapHandler) {
  // Spin loop + asynchronous DMA-completion interrupt through mtvec:
  // the trap must be taken at the identical instruction boundary.
  SystemConfig sc;
  sc.accel = small_accel();
  Assembler as(sc.dram_base);
  as.li(t0, sc.dram_base + 256);  // handler
  as.csrrw(zero, kCsrMtvec, t0);
  as.li(t0, 1u << 11);  // MEIE
  as.csrrw(zero, kCsrMie, t0);
  as.li(t0, 1u << 3);  // MIE
  as.csrrs(zero, kCsrMstatus, t0);
  as.li(s7, sc.dma_base);
  as.li(t1, sc.dram_base + 0x10000);
  as.sw(t1, s7, DmaEngine::kRegSrc);
  as.li(t1, sc.dram_base + 0x11000);
  as.sw(t1, s7, DmaEngine::kRegDst);
  as.li(t1, 256);
  as.sw(t1, s7, DmaEngine::kRegLen);
  as.li(t1, DmaEngine::kCtrlStart | DmaEngine::kCtrlIrqEn);
  as.sw(t1, s7, DmaEngine::kRegCtrl);
  as.label("spin");
  as.j("spin");
  while (as.current_address() < sc.dram_base + 256) as.nop();
  as.label("handler");
  as.csrrs(a1, kCsrMcause, zero);
  as.li(t0, DmaEngine::kStatusDone);
  as.sw(t0, s7, DmaEngine::kRegStatus);
  as.li(a0, 7);
  as.li(a7, 93);
  as.ecall();
  const auto program = as.assemble();
  const auto stage = [](System& s) {
    std::vector<std::uint8_t> src(256);
    for (std::size_t i = 0; i < src.size(); ++i)
      src[i] = static_cast<std::uint8_t>(i * 3 + 1);
    s.write_dram(0x10000, src.data(), src.size());
  };
  const Capture legacy = run_tier(sc, Tier::kLegacy, program, stage);
  for (const Tier tier : kFastTiers) {
    const Capture fast = run_tier(sc, tier, program, stage);
    EXPECT_EQ(fast.result.halt, Halt::kEcallExit) << tier_name(tier);
    EXPECT_EQ(fast.regs[11], 0x8000000Bu);  // mcause: machine external irq
    expect_identical(legacy, fast, "dma interrupt trap");
  }
}

TEST(SysimDiffTest, DmaFaultAbortObservedIdentically) {
  // A DMA transfer whose destination runs past the end of DRAM aborts
  // mid-flight: BUSY drops, ERROR latches and the completion IRQ fires.
  // The guest parks in a spin loop and the trap handler reads STATUS,
  // W1C-clears ERROR and exits with the observed status — the abort
  // cycle, the latched status and the wakeup must be bit-identical
  // between per-cycle ticking and the event-driven core (a faulting
  // transfer is never bulk-movable, so the fast path must fall back to
  // ticking the engine to the exact faulting beat).
  SystemConfig sc;
  sc.accel = small_accel();
  Assembler as(sc.dram_base);
  as.li(t0, sc.dram_base + 256);  // handler
  as.csrrw(zero, kCsrMtvec, t0);
  as.li(t0, 1u << 11);  // MEIE
  as.csrrw(zero, kCsrMie, t0);
  as.li(t0, 1u << 3);  // MIE
  as.csrrs(zero, kCsrMstatus, t0);
  as.li(s7, sc.dma_base);
  as.li(t1, sc.dram_base + 0x10000);
  as.sw(t1, s7, DmaEngine::kRegSrc);
  as.li(t1, sc.dram_base + sc.dram_size - 8);  // 56 of 64 bytes past the end
  as.sw(t1, s7, DmaEngine::kRegDst);
  as.li(t1, 64);
  as.sw(t1, s7, DmaEngine::kRegLen);
  as.li(t1, DmaEngine::kCtrlStart | DmaEngine::kCtrlIrqEn);
  as.sw(t1, s7, DmaEngine::kRegCtrl);
  as.label("spin");
  as.j("spin");
  while (as.current_address() < sc.dram_base + 256) as.nop();
  as.label("handler");
  as.csrrs(a2, kCsrMcause, zero);
  as.lw(a1, s7, DmaEngine::kRegStatus);  // ERROR set, BUSY/DONE clear
  as.li(t0, DmaEngine::kStatusError);
  as.sw(t0, s7, DmaEngine::kRegStatus);  // W1C drops the IRQ line
  as.lw(a3, s7, DmaEngine::kRegStatus);  // now fully clear
  as.mv(a0, a1);
  as.li(a7, 93);
  as.ecall();
  const auto program = as.assemble();
  const auto stage = [](System& s) {
    std::vector<std::uint8_t> src(64);
    for (std::size_t i = 0; i < src.size(); ++i)
      src[i] = static_cast<std::uint8_t>(i + 1);
    s.write_dram(0x10000, src.data(), src.size());
  };
  const Capture legacy = run_tier(sc, Tier::kLegacy, program, stage);
  for (const Tier tier : kFastTiers) {
    const Capture fast = run_tier(sc, tier, program, stage);
    EXPECT_EQ(fast.result.halt, Halt::kEcallExit) << tier_name(tier);
    EXPECT_EQ(fast.result.exit_code, DmaEngine::kStatusError);
    EXPECT_EQ(fast.regs[11], DmaEngine::kStatusError);
    EXPECT_EQ(fast.regs[12], 0x8000000Bu);  // mcause: machine external irq
    EXPECT_EQ(fast.regs[13], 0u);           // W1C cleared ERROR
    expect_identical(legacy, fast, "dma fault abort");
  }
}

// ------------------------------------------------ self-modifying code

TEST(SysimDiffTest, SelfModifyingCodeReexecutesPatchedWord) {
  SystemConfig sc;
  sc.accel = small_accel();

  // Encoding of the replacement instruction.
  Assembler enc(sc.dram_base);
  enc.addi(a0, zero, 77);
  const std::uint32_t patched_word = enc.assemble()[0];

  // The li expansion length depends on the patch address, which depends
  // on the layout: iterate to a fixed point.
  std::uint32_t patch_addr = sc.dram_base;
  std::vector<std::uint32_t> program;
  for (int iter = 0; iter < 4; ++iter) {
    Assembler as(sc.dram_base);
    as.li(t0, patch_addr);
    as.li(t1, patched_word);
    as.li(s0, 0);
    as.li(s1, 2);
    as.label("loop");
    as.label("patch");
    as.addi(a0, zero, 11);
    as.sw(t1, t0, 0);  // overwrite the instruction just executed
    as.addi(s0, s0, 1);
    as.blt(s0, s1, "loop");
    as.ebreak();
    const std::uint32_t found = as.address_of("patch");
    program = as.assemble();
    if (found == patch_addr) break;
    patch_addr = found;
  }

  const Capture legacy = run_tier(sc, Tier::kLegacy, program);
  for (const Tier tier : kFastTiers) {
    const Capture fast = run_tier(sc, tier, program);
    EXPECT_EQ(fast.result.halt, Halt::kEbreak) << tier_name(tier);
    EXPECT_EQ(fast.regs[10], 77u)
        << "second loop iteration must execute the patched instruction";
    expect_identical(legacy, fast, "self-modifying code");
  }
}

TEST(SysimDiffTest, SmcPatchesMiddleOfChainedHotLoop) {
  // A hot loop split into chained blocks by an inner branch runs long
  // enough for the block tier to chain it; then a store from one block
  // rewrites an instruction in the middle of another. The patched word
  // must take effect on the very next iteration in every tier, and the
  // block tier must observably evict and rebuild.
  SystemConfig sc;
  sc.accel = small_accel();

  Assembler enc(sc.dram_base);
  enc.addi(a0, zero, 77);
  const std::uint32_t patched_word = enc.assemble()[0];

  // li expansion length depends on the patch address: fixed point.
  std::uint32_t patch_addr = sc.dram_base;
  std::vector<std::uint32_t> program;
  for (int iter = 0; iter < 4; ++iter) {
    Assembler as(sc.dram_base);
    as.li(t0, patch_addr);
    as.li(t1, patched_word);
    as.li(s0, 0);
    as.li(s1, 60);  // total iterations
    as.li(s2, 40);  // start patching after this many
    as.label("loop");
    as.addi(s0, s0, 1);
    as.blt(s0, s2, "mid");  // splits the loop body into two blocks
    as.sw(t1, t0, 0);       // rewrite 'mid' (hot and chained by now)
    as.label("mid");
    as.addi(a0, zero, 11);
    as.blt(s0, s1, "loop");
    as.ebreak();
    const std::uint32_t found = as.address_of("mid");
    program = as.assemble();
    if (found == patch_addr) break;
    patch_addr = found;
  }

  const Capture block = diff_drive(sc, "smc chained hot loop",
                                   [&](System& system, Tier tier) {
                                     system.load_program(program);
                                     advance(system, tier);
                                   });
  EXPECT_EQ(block.result.halt, Halt::kEbreak);
  EXPECT_EQ(block.regs[10], 77u) << "patched instruction must execute";
  EXPECT_GE(block.bstats.evictions, 1u) << "store must evict the block";
  EXPECT_GT(block.bstats.chained, 0u) << "loop must chain before the patch";
}

TEST(SysimDiffTest, DmaOverwritesCachedBlock) {
  // A DMA transfer lands on an instruction inside an already-translated
  // hot loop between two passes over it: bus-side writes must evict
  // blocks through the same coherence path as CPU stores.
  SystemConfig sc;
  sc.accel = small_accel();

  Assembler enc(sc.dram_base);
  enc.addi(a0, zero, 77);
  const std::uint32_t patched_word = enc.assemble()[0];

  std::uint32_t patch_addr = sc.dram_base;
  std::vector<std::uint32_t> program;
  for (int iter = 0; iter < 4; ++iter) {
    Assembler as(sc.dram_base);
    as.li(s7, sc.dma_base);
    as.li(s1, 30);  // iterations per pass
    as.li(s3, 0);   // pass counter
    as.label("again");
    as.li(s0, 0);
    as.label("loop");
    as.label("patchme");
    as.addi(a0, zero, 11);
    as.addi(s0, s0, 1);
    as.blt(s0, s1, "loop");
    as.bne(s3, zero, "done");
    // Between passes: DMA the staged replacement word over 'patchme'.
    as.li(t1, sc.dram_base + 0x10000);
    as.sw(t1, s7, DmaEngine::kRegSrc);
    as.li(t1, patch_addr);
    as.sw(t1, s7, DmaEngine::kRegDst);
    as.li(t1, 4);
    as.sw(t1, s7, DmaEngine::kRegLen);
    as.li(t1, DmaEngine::kCtrlStart);
    as.sw(t1, s7, DmaEngine::kRegCtrl);
    as.label("poll");
    as.lw(t1, s7, DmaEngine::kRegStatus);
    as.andi(t1, t1, DmaEngine::kStatusDone);
    as.beq(t1, zero, "poll");
    as.li(t1, DmaEngine::kStatusDone);
    as.sw(t1, s7, DmaEngine::kRegStatus);  // W1C
    as.li(s3, 1);
    as.j("again");
    as.label("done");
    as.ebreak();
    const std::uint32_t found = as.address_of("patchme");
    program = as.assemble();
    if (found == patch_addr) break;
    patch_addr = found;
  }

  const auto stage = [&](System& s) {
    std::uint8_t bytes[4];
    std::memcpy(bytes, &patched_word, 4);
    s.write_dram(0x10000, bytes, 4);
  };
  const Capture block = diff_drive(sc, "dma overwrites cached block",
                                   [&](System& system, Tier tier) {
                                     stage(system);
                                     system.load_program(program);
                                     advance(system, tier);
                                   });
  EXPECT_EQ(block.result.halt, Halt::kEbreak);
  EXPECT_EQ(block.regs[10], 77u)
      << "second pass must execute the DMA-patched instruction";
  EXPECT_GE(block.bstats.evictions, 1u) << "DMA write must evict the block";
}

TEST(SysimDiffTest, FaultFlipInsideStaticRun) {
  // Transient bit flip in the addi of a lui+addi constant inside a hot
  // loop, where both sit in one static run: invalidation must evict the
  // block and the rebuilt run must materialize the corrupted constant,
  // bit-identical to the decode-every-fetch oracle.
  SystemConfig sc;
  sc.accel = small_accel();
  Assembler as(sc.dram_base);
  as.li(s0, 0);    // one word (addi)
  as.li(s1, 200);  // one word (addi)
  as.label("loop");
  as.li(a0, 0x12345678);  // lui+addi at byte offsets 8 and 12
  as.addi(s0, s0, 1);
  as.blt(s0, s1, "loop");
  as.ebreak();
  const auto program = as.assemble();
  ASSERT_EQ(as.address_of("loop"), sc.dram_base + 8);

  const Capture block =
      diff_drive(sc, "flip inside static run", [&](System& system, Tier tier) {
        system.load_program(program);
        advance(system, tier, 100);  // loop is hot, block is translated
        // Flip imm[4] of the addi (code byte 15, bit 0).
        system.dram().flip_bit(15, 0);
        advance(system, tier, 500000);
      });
  EXPECT_EQ(block.result.halt, Halt::kEbreak);
  EXPECT_EQ(block.regs[10], 0x12345668u)
      << "remaining iterations must materialize the corrupted constant";
  EXPECT_GE(block.bstats.evictions, 1u) << "flip must evict the block";
}

/// A hot loop whose body is a long call — auipc t1,hi ; jalr ra,t1,lo —
/// into code staged 12 KiB above the program, with every other edge
/// indirect (ret, and a jalr back to the loop head), so the only
/// chainable transition is the call's build-time target hint. The far
/// code holds the callee and, 64 bytes above it, a second landing pad
/// reached when bit 6 of t1 is corrupted between the two instructions.
struct LongCallLoop {
  static constexpr std::uint32_t kFar = 0x3000;  ///< callee DRAM offset
  static constexpr unsigned kBit = 6;            ///< t1 bit sending to pad2
  std::vector<std::uint32_t> program;
  std::vector<std::uint32_t> far;
  std::uint32_t jalr_pc = 0;
  std::uint32_t t1_value = 0;  ///< t1 after the auipc retires

  explicit LongCallLoop(const SystemConfig& sc) {
    Assembler as(sc.dram_base);
    as.li(s5, sc.dram_base + 8);  // loop head: lui+addi
    as.label("loop");
    as.addi(s0, s0, 1);
    const std::uint32_t auipc_pc = as.address_of("loop") + 4;
    const std::uint32_t off = sc.dram_base + kFar - auipc_pc;
    const std::uint32_t hi = (off + 0x800u) >> 12;
    as.auipc(t1, hi);
    as.jalr(ra, t1, static_cast<std::int32_t>(off - (hi << 12)));
    as.jalr(zero, s5, 0);  // back to the loop head (indirect)
    program = as.assemble();
    EXPECT_EQ(as.address_of("loop"), sc.dram_base + 8);
    jalr_pc = auipc_pc + 4;
    t1_value = auipc_pc + (hi << 12);
    EXPECT_EQ(t1_value & (1u << kBit), 0u) << "flip must move the target up";

    Assembler callee(sc.dram_base + kFar);
    callee.addi(a0, a0, 3);
    callee.ret();
    for (unsigned i = 2; i < (1u << kBit) / 4; ++i) callee.nop();
    callee.label("pad2");
    callee.addi(a1, a1, 1);
    callee.ret();
    EXPECT_EQ(callee.address_of("pad2"), sc.dram_base + kFar + (1u << kBit));
    far = callee.assemble();
  }

  void load(System& system) const {
    system.write_dram(kFar, far.data(), far.size() * 4);
    system.load_program(program);
  }
};

constexpr std::uint64_t kLongCallEnd = 3000;

TEST(SysimDiffTest, AuipcJalrLongCallChainsOnHint) {
  // The auipc+jalr target is static: the block tier records it as the
  // call block's taken successor and chains to the callee on every hot
  // iteration, bit-identical to the other legs.
  SystemConfig sc;
  sc.accel = small_accel();
  const LongCallLoop prog(sc);
  const Capture block =
      diff_drive(sc, "auipc+jalr long call", [&](System& system, Tier tier) {
        prog.load(system);
        advance(system, tier, kLongCallEnd);
      });
  EXPECT_GT(block.regs[10], 300u) << "callee must run every iteration";
  EXPECT_EQ(block.regs[11], 0u) << "pad2 must not be reached";
  EXPECT_GT(block.bstats.chained, 0u)
      << "the call's static target is the only chainable edge";
}

TEST(SysimDiffTest, AuipcJalrLongCallFlipBetweenPair) {
  // A transient flip of the auipc's rd, injected after the auipc retires
  // and before the jalr, sends that one call to the second landing pad;
  // the block tier must not follow its hinted link there.
  SystemConfig sc;
  sc.accel = small_accel();
  const LongCallLoop prog(sc);
  // The injection cycle: the 50th iteration, with pc at the jalr.
  std::uint64_t inject = 0;
  {
    System probe(with_tier(sc, Tier::kTick));
    prog.load(probe);
    while (!(probe.cpu().pc() == prog.jalr_pc &&
             probe.cpu().read_reg(s0) == 50))
      probe.tick();
    inject = probe.now();
  }
  const Capture block = diff_drive(
      sc, "auipc+jalr flip between pair", [&](System& system, Tier tier) {
        prog.load(system);
        advance(system, tier, inject);
        EXPECT_EQ(system.cpu().pc(), prog.jalr_pc) << tier_name(tier);
        EXPECT_EQ(system.cpu().read_reg(t1), prog.t1_value) << tier_name(tier);
        system.cpu().flip_reg_bit(t1, LongCallLoop::kBit);
        advance(system, tier, kLongCallEnd);
      });
  EXPECT_EQ(block.regs[11], 1u) << "the flipped call must land on pad2";
  EXPECT_GT(block.bstats.chained, 0u);
}

TEST(SysimDiffTest, AuipcJalrLongCallStuckRdRejectsHint) {
  // A stuck-at bit on the auipc's rd corrupts the target inside the call
  // block itself, after its link to the callee is hot: every later call
  // lands on the second pad, where pc_ never matches the hinted target,
  // so the block tier must stop chaining and still match the reference.
  SystemConfig sc;
  sc.accel = small_accel();
  const LongCallLoop prog(sc);
  std::uint64_t chained_at_arm = 0;
  std::uint64_t chained_at_end = 0;
  const Capture block = diff_drive(
      sc, "auipc+jalr stuck rd", [&](System& system, Tier tier) {
        prog.load(system);
        advance(system, tier, kLongCallEnd / 2);
        if (tier == Tier::kBlock)
          chained_at_arm = system.cpu().block_stats().chained;
        system.cpu().set_reg_stuck_bit(t1, LongCallLoop::kBit, true);
        advance(system, tier, kLongCallEnd);
        if (tier == Tier::kBlock)
          chained_at_end = system.cpu().block_stats().chained;
      });
  EXPECT_GT(block.regs[11], 100u) << "every later call must land on pad2";
  EXPECT_GT(chained_at_arm, 0u) << "the hinted link must be hot";
  EXPECT_EQ(chained_at_end, chained_at_arm)
      << "a wrong hint must never be followed";
}

// ------------------------------------------------------------- RV32C

TEST(SysimDiffTest, RvcDenseLoop) {
  // The compressed workload: mixed 2/4-byte fetch through all three
  // legs, bit-identical, with the block tier demonstrating the fetch
  // traffic reduction through its counters.
  SystemConfig sc;
  sc.accel = small_accel();
  constexpr std::uint32_t kWords = 96;
  std::vector<std::uint32_t> data(kWords);
  for (std::uint32_t i = 0; i < kWords; ++i)
    data[i] = 0x9E3779B9u * (i + 1);  // deterministic scramble input
  const auto program = build_rvc_loop(sc, 0x40000, 0x48000, kWords);

  const Capture block =
      diff_drive(sc, "rvc dense loop", [&](System& system, Tier tier) {
        system.write_dram(0x40000, data.data(), data.size() * 4);
        system.load_program(program);
        advance(system, tier);
      });
  EXPECT_EQ(block.result.halt, Halt::kEcallExit);
  EXPECT_EQ(block.result.exit_code, 0);
  EXPECT_GT(block.bstats.rvc_built, 0u);
  // 2-byte forms must dominate the decode traffic: total bytes fetched
  // into blocks stays below 4 bytes per compressed op alone.
  EXPECT_LT(block.bstats.fetch_bytes, 4 * block.bstats.rvc_built);
}

TEST(SysimDiffTest, MisaAndMisalignedFetchTrap) {
  // misa reports RV32IMC; an mret to an odd mepc takes the
  // instruction-address-misaligned trap (cause 0) with the faulting pc
  // in both mtval and mepc — identically on every tier.
  SystemConfig sc;
  sc.accel = small_accel();
  std::uint32_t handler_addr = sc.dram_base;
  std::vector<std::uint32_t> program;
  for (int iter = 0; iter < 4; ++iter) {
    Assembler as(sc.dram_base);
    as.csrrs(a1, kCsrMisa, zero);
    as.li(t0, handler_addr);
    as.csrrw(zero, kCsrMtvec, t0);
    as.li(t1, sc.dram_base + 0x201);  // odd resume target
    as.csrrw(zero, kCsrMepc, t1);
    as.mret();
    as.label("handler");
    as.csrrs(a2, kCsrMcause, zero);
    as.csrrs(a3, kCsrMtval, zero);
    as.csrrs(a4, kCsrMepc, zero);
    as.ebreak();
    const std::uint32_t found = as.address_of("handler");
    program = as.assemble();
    if (found == handler_addr) break;
    handler_addr = found;
  }

  const Capture block =
      diff_drive(sc, "misa + misaligned fetch", [&](System& system, Tier tier) {
        system.load_program(program);
        advance(system, tier);
      });
  EXPECT_EQ(block.result.halt, Halt::kEbreak);
  EXPECT_EQ(block.regs[11], 0x40001104u) << "misa: MXL=1 + I, M, C";
  EXPECT_EQ(block.regs[12], 0u) << "mcause: instruction address misaligned";
  EXPECT_EQ(block.regs[13], sc.dram_base + 0x201) << "mtval: faulting pc";
  EXPECT_EQ(block.regs[14], sc.dram_base + 0x201) << "mepc: faulting pc";
}

TEST(SysimDiffTest, StoreOverwritesAdjacentCompressedPair) {
  // A 4-byte store rewrites two adjacent 2-byte instructions inside a
  // hot compressed loop: the block tier must evict on the clipped pair
  // and every tier must execute the patched full-width instruction.
  SystemConfig sc;
  sc.accel = small_accel();

  Assembler enc(sc.dram_base);
  enc.addi(a0, zero, 77);
  const std::uint32_t patched_word = enc.assemble()[0];

  std::uint32_t patch_addr = sc.dram_base;
  std::vector<std::uint32_t> program;
  for (int iter = 0; iter < 6; ++iter) {
    Assembler as(sc.dram_base, /*compress=*/true);
    as.li(t0, patch_addr);
    as.li(t1, patched_word);
    as.li(s0, 0);
    as.li(s1, 60);  // total iterations
    as.li(s2, 40);  // start patching after this many
    as.label("loop");
    as.addi(s0, s0, 1);  // c.addi
    as.blt(s0, s2, "mid");
    as.sw(t1, t0, 0);  // full-width store over the compressed pair
    as.label("mid");
    as.addi(a0, zero, 11);  // c.li  \ the adjacent 2-byte pair the
    as.addi(a0, a0, 1);     // c.addi / store overwrites
    as.blt(s0, s1, "loop");
    as.ebreak();
    const std::uint32_t found = as.address_of("mid");
    program = as.assemble();
    if (found == patch_addr) break;
    patch_addr = found;
  }

  const Capture block = diff_drive(sc, "store over compressed pair",
                                   [&](System& system, Tier tier) {
                                     system.load_program(program);
                                     advance(system, tier);
                                   });
  EXPECT_EQ(block.result.halt, Halt::kEbreak);
  EXPECT_EQ(block.regs[10], 77u)
      << "patched full-width instruction must execute";
  EXPECT_GE(block.bstats.evictions, 1u) << "store must evict the block";
  EXPECT_GT(block.bstats.rvc_built, 0u);
}

TEST(SysimDiffTest, SmcPatchesHalfOfWideInstructionAtBlockTail) {
  // A 2-byte store rewrites only the upper parcel of a 32-bit
  // instruction sitting at the tail of a translated block: the
  // clipped-half invalidation must evict, and the re-decoded word
  // (old lower half + new upper half) must execute on every tier.
  SystemConfig sc;
  sc.accel = small_accel();

  Assembler enc(sc.dram_base);
  enc.addi(a0, zero, 77);   // target word after the patch
  enc.addi(a0, zero, 11);   // word initially at the patch site
  const auto enc_words = enc.assemble();
  // Both words share the lower parcel (same rd/funct3/opcode bits), so
  // patching just the upper half switches the immediate 11 -> 77.
  ASSERT_EQ(enc_words[0] & 0xFFFFu, enc_words[1] & 0xFFFFu);
  const std::uint32_t patch_half = enc_words[0] >> 16;

  std::uint32_t patch_addr = sc.dram_base;
  std::vector<std::uint32_t> program;
  for (int iter = 0; iter < 4; ++iter) {
    Assembler as(sc.dram_base);
    as.li(t0, patch_addr);
    as.li(t1, patch_half);
    as.li(s0, 0);
    as.li(s1, 60);
    as.li(s2, 40);
    as.label("loop");
    as.addi(s0, s0, 1);
    as.blt(s0, s2, "mid");
    as.sh(t1, t0, 2);  // clip only the upper half of the tail op
    as.label("mid");
    as.addi(a0, zero, 11);  // tail of the 'mid' block (branch terminates)
    as.blt(s0, s1, "loop");
    as.ebreak();
    const std::uint32_t found = as.address_of("mid");
    program = as.assemble();
    if (found == patch_addr) break;
    patch_addr = found;
  }

  const Capture block = diff_drive(sc, "smc patches half of wide op",
                                   [&](System& system, Tier tier) {
                                     system.load_program(program);
                                     advance(system, tier);
                                   });
  EXPECT_EQ(block.result.halt, Halt::kEbreak);
  EXPECT_EQ(block.regs[10], 77u) << "half-patched instruction must execute";
  EXPECT_GE(block.bstats.evictions, 1u)
      << "half-word store must evict the block";
}

TEST(SysimDiffTest, InstructionStraddlesWindowEdge) {
  // A compressed run at the very top of DRAM ends with a 32-bit
  // instruction whose upper parcel lies past the end of memory: block
  // building must stop at the straddle, and the eventual fetch must
  // fault identically on every tier (two-parcel fetch, lower read ok,
  // upper read faults).
  SystemConfig sc;
  sc.accel = small_accel();

  Assembler tail(sc.dram_base + sc.dram_size - 6, /*compress=*/true);
  tail.addi(a0, a0, 1);   // c.addi
  tail.addi(a0, a0, 2);   // c.addi
  tail.addi(a0, a0, 77);  // 4-byte: imm 77 does not fit a C form
  const auto tail_words = tail.assemble();
  ASSERT_EQ(tail_words.size(), 2u);  // 2 + 2 + 4 bytes
  std::uint8_t tail_bytes[8];
  std::memcpy(tail_bytes, tail_words.data(), 8);

  Assembler as(sc.dram_base);
  as.li(a0, 0);
  as.li(t0, sc.dram_base + sc.dram_size - 6);
  as.jalr(zero, t0, 0);
  const auto program = as.assemble();

  const Capture block =
      diff_drive(sc, "instruction straddles window edge",
                 [&](System& system, Tier tier) {
                   // Only the first 6 bytes fit: the straddling word's
                   // upper parcel has no backing memory.
                   system.write_dram(sc.dram_size - 6, tail_bytes, 6);
                   system.load_program(program);
                   advance(system, tier);
                 });
  EXPECT_EQ(block.result.halt, Halt::kBusFault);
  EXPECT_EQ(block.regs[10], 3u)
      << "both compressed adds must retire before the faulting fetch";
}

TEST(SysimDiffTest, FaultFlipInsideHotChain) {
  // Transient bit flip lands inside a hot lui+addi-seeded register
  // chain: invalidation must evict the block, and the rebuilt block must
  // propagate the corrupted immediate down the chain — bit-identical to
  // the decode-every-fetch oracle.
  SystemConfig sc;
  sc.accel = small_accel();
  Assembler as(sc.dram_base);
  as.li(s0, 0);    // one word (addi)
  as.li(s1, 200);  // one word (addi)
  as.label("loop");
  as.li(a0, 0x12345678);  // lui+addi
  as.addi(a1, a0, 0x10);  // a1 = const + 0x10
  as.slli(a2, a1, 1);     // chained through a1
  as.addi(s0, s0, 1);
  as.blt(s0, s1, "loop");
  as.ebreak();
  const auto program = as.assemble();
  ASSERT_EQ(as.address_of("loop"), sc.dram_base + 8);

  const Capture block =
      diff_drive(sc, "flip inside hot chain", [&](System& system, Tier tier) {
        system.load_program(program);
        advance(system, tier, 100);  // loop is hot, chain is translated
        // Flip imm[4] of the chained addi (code byte 19, bit 0):
        // 0x10 -> 0, so the rebuilt block yields a1 = const + 0.
        system.dram().flip_bit(19, 0);
        advance(system, tier, 500000);
      });
  EXPECT_EQ(block.result.halt, Halt::kEbreak);
  EXPECT_EQ(block.regs[11], 0x12345678u)
      << "rebuilt block must propagate the corrupted immediate";
  EXPECT_EQ(block.regs[12], 0x2468ACF0u)
      << "downstream op must chain through the corrupted value";
  EXPECT_GE(block.bstats.evictions, 1u) << "flip must evict the block";
}

// ------------------------------------------------------ fault flips

struct FaultScenario {
  const char* what;
  FaultSpec spec;
};

// GoogleTest would otherwise print the raw bytes of the param, pointer
// included, into the discovered CTest names, which then change from one
// build to the next.
void PrintTo(const FaultScenario& s, std::ostream* os) {
  *os << s.what << " at cycle " << s.spec.cycle;
}

class DiffFaultTest : public ::testing::TestWithParam<FaultScenario> {};

TEST_P(DiffFaultTest, InjectedRunsIdentical) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto stage = gemm_stager(wl, 341);
  const auto program = build_gemm_offload(wl, sc, OffloadPath::kMmrPolling);
  const FaultSpec& spec = GetParam().spec;
  constexpr std::uint64_t kMax = 500000;

  diff_drive(sc, GetParam().what, [&](System& system, Tier tier) {
    stage(system);
    system.load_program(program);
    advance(system, tier, std::min<std::uint64_t>(spec.cycle, kMax));
    switch (spec.target) {
      case FaultTarget::kCpuRegfile:
        if (spec.model == FaultModel::kTransientFlip)
          system.cpu().flip_reg_bit(static_cast<int>(spec.index), spec.bit);
        else
          system.cpu().set_reg_stuck_bit(static_cast<int>(spec.index),
                                         spec.bit,
                                         spec.model == FaultModel::kStuckAt1);
        break;
      case FaultTarget::kDramData:
        if (spec.model == FaultModel::kTransientFlip)
          system.dram().flip_bit(spec.index, spec.bit);
        else
          system.dram().set_stuck_bit(spec.index, spec.bit,
                                      spec.model == FaultModel::kStuckAt1);
        break;
      case FaultTarget::kAccelSpmW:
        system.pe(0).spm_w().set_stuck_bit(spec.index, spec.bit, true);
        break;
      default:
        system.pe(0).inject_phase_fault(spec.index, spec.phase_delta_rad);
        break;
    }
    advance(system, tier, kMax);
  });
}

FaultScenario scenario(const char* what, FaultTarget target, FaultModel model,
                       std::uint64_t cycle, std::uint32_t index,
                       unsigned bit) {
  FaultScenario s;
  s.what = what;
  s.spec.target = target;
  s.spec.model = model;
  s.spec.cycle = cycle;
  s.spec.index = index;
  s.spec.bit = bit;
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, DiffFaultTest,
    ::testing::Values(
        scenario("reg transient flip", FaultTarget::kCpuRegfile,
                 FaultModel::kTransientFlip, 200, 10, 3),
        scenario("reg stuck-at-1", FaultTarget::kCpuRegfile,
                 FaultModel::kStuckAt1, 150, 6, 0),
        // Data-region flip: exercises icache-range rejection.
        scenario("dram data flip", FaultTarget::kDramData,
                 FaultModel::kTransientFlip, 300, 0x20004, 5),
        // Code-region flip: the cached micro-op must be re-decoded.
        scenario("dram code flip", FaultTarget::kDramData,
                 FaultModel::kTransientFlip, 250, 24, 1),
        // Code-region stuck-at: revokes the DRAM direct span mid-run.
        scenario("dram code stuck-at-1", FaultTarget::kDramData,
                 FaultModel::kStuckAt1, 220, 16, 6),
        scenario("spm-w stuck-at-1", FaultTarget::kAccelSpmW,
                 FaultModel::kStuckAt1, 1, 3, 6),
        scenario("phase fault", FaultTarget::kAccelPhase,
                 FaultModel::kTransientFlip, 400, 5, 0)),
    [](const ::testing::TestParamInfo<FaultScenario>& info) {
      std::string name = info.param.what;
      for (auto& ch : name)
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      return name;
    });

TEST(SysimDiffTest, StuckArmThenClearMidRun) {
  // Arm a stuck-at bit on the DRAM code region mid-run (revoking the
  // direct span), then clear it again later: the fast engine must fall
  // back to masked reads and recover the fast path, matching the
  // per-cycle interpreter cycle for cycle.
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto stage = gemm_stager(wl, 371);
  const auto program = build_gemm_software(wl, sc);

  diff_drive(sc, "stuck arm + clear mid-run", [&](System& system, Tier tier) {
    stage(system);
    system.load_program(program);
    advance(system, tier, 300);
    system.dram().set_stuck_bit(16, 1, true);  // code region
    advance(system, tier, 600);
    system.dram().clear_faults();
    advance(system, tier, 500000);
  });
}

// ------------------------------------------------ DMA bulk fast path

/// DMA DRAM->DRAM copy with WFI/irq synchronization; parameterized
/// offsets/length stress the beat-alignment arithmetic of the bulk move.
std::vector<std::uint32_t> build_dma_copy(const SystemConfig& sc,
                                          std::uint32_t src_off,
                                          std::uint32_t dst_off,
                                          std::uint32_t len) {
  Assembler as(sc.dram_base);
  as.li(t0, sc.dram_base + 0x200);  // handler
  as.csrrw(zero, kCsrMtvec, t0);
  as.li(t0, 1u << 11);  // MEIE
  as.csrrw(zero, kCsrMie, t0);
  as.li(t0, 1u << 3);  // MIE
  as.csrrs(zero, kCsrMstatus, t0);
  as.li(s7, sc.dma_base);
  as.li(t1, sc.dram_base + src_off);
  as.sw(t1, s7, DmaEngine::kRegSrc);
  as.li(t1, sc.dram_base + dst_off);
  as.sw(t1, s7, DmaEngine::kRegDst);
  as.li(t1, len);
  as.sw(t1, s7, DmaEngine::kRegLen);
  as.li(t1, DmaEngine::kCtrlStart | DmaEngine::kCtrlIrqEn);
  as.sw(t1, s7, DmaEngine::kRegCtrl);
  as.wfi();
  as.label("spin");
  as.j("spin");
  while (as.current_address() < sc.dram_base + 0x200) as.nop();
  as.label("handler");
  as.li(t0, DmaEngine::kStatusDone);
  as.sw(t0, s7, DmaEngine::kRegStatus);
  as.li(a0, 0);
  as.li(a7, 93);
  as.ecall();
  return as.assemble();
}

struct DmaCase {
  const char* what;
  std::uint32_t src_off, dst_off, len;
};

void PrintTo(const DmaCase& dc, std::ostream* os) {
  *os << std::hex << "src 0x" << dc.src_off << " dst 0x" << dc.dst_off
      << std::dec << " len " << dc.len;
}

class DiffDmaTest : public ::testing::TestWithParam<DmaCase> {};

TEST_P(DiffDmaTest, BulkMoveCycleExact) {
  SystemConfig sc;
  sc.accel = small_accel();
  const DmaCase& dc = GetParam();
  const auto stage = [&](System& s) {
    std::vector<std::uint8_t> src(dc.len);
    for (std::size_t i = 0; i < src.size(); ++i)
      src[i] = static_cast<std::uint8_t>(i * 7 + 3);
    s.write_dram(dc.src_off, src.data(), src.size());
  };
  diff_program(sc, build_dma_copy(sc, dc.src_off, dc.dst_off, dc.len),
               dc.what, stage);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DiffDmaTest,
    ::testing::Values(
        DmaCase{"aligned", 0x10000, 0x11000, 0x400},
        // Congruent but unaligned: byte prologue, then word beats.
        DmaCase{"congruent_unaligned", 0x10001, 0x11001, 253},
        // Incongruent: every beat degrades to byte transfers.
        DmaCase{"incongruent", 0x10001, 0x11002, 251},
        // Odd tail: last beat shorter than the word width.
        DmaCase{"odd_tail", 0x10000, 0x11000, 0x3F5},
        // Overlapping ranges: the bulk move must refuse and the exact
        // per-cycle path take over (forward copy duplicates bytes).
        DmaCase{"overlap_forward", 0x10000, 0x10080, 0x100},
        DmaCase{"overlap_backward", 0x10080, 0x10000, 0x100}),
    [](const ::testing::TestParamInfo<DmaCase>& info) {
      return std::string(info.param.what);
    });

// ---------------------------------------------- snapshot / restore

TEST(SnapshotTest, MutateRestoreRoundTripEqualsFreshSystem) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto stage = gemm_stager(wl, 411);
  const auto program = build_gemm_offload(wl, sc, OffloadPath::kMmrPolling);

  System system(sc);
  stage(system);
  system.load_program(program);
  const System::SystemSnapshot snap = system.snapshot();

  // Beat the system up: run, arm every fault class, run some more.
  system.run_until(400);
  system.cpu().flip_reg_bit(9, 4);
  system.cpu().set_reg_stuck_bit(12, 2, true);
  system.dram().flip_bit(0x20008, 3);
  system.dram().set_stuck_bit(20, 1, true);  // code region, revokes span
  system.pe(0).spm_w().set_stuck_bit(5, 7, true);
  system.pe(0).inject_phase_fault(2, 0.9);
  system.run_until(2000);

  system.restore(snap);

  // A freshly staged identical system is the ground truth.
  System fresh(sc);
  stage(fresh);
  fresh.load_program(program);

  // Registers, counters, DRAM image.
  const Capture restored = capture_state(system);
  const Capture baseline = capture_state(fresh);
  expect_identical(baseline, restored, "restored vs fresh");

  // SPM images and the programmed photonic transfer, bit for bit.
  for (std::uint32_t off = 0; off < system.pe(0).spm_w().size(); ++off)
    ASSERT_EQ(system.pe(0).spm_w().read(off, 1), fresh.pe(0).spm_w().read(off, 1));
  const auto& t_restored = system.pe(0).gemm().engine().physical_transfer();
  const auto& t_fresh = fresh.pe(0).gemm().engine().physical_transfer();
  EXPECT_EQ(t_restored.raw(), t_fresh.raw()) << "mesh transfer differs";

  // And both runs from here must be indistinguishable to completion.
  system.run_until(500000);
  fresh.run_until(500000);
  expect_identical(capture_state(fresh), capture_state(system),
                   "post-restore execution");
}

TEST(SnapshotTest, RestoredTrialMatchesRebuiltSystemPerScenario) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto stage = gemm_stager(wl, 421);
  const auto program = build_gemm_offload(wl, sc, OffloadPath::kMmrPolling);
  constexpr std::uint64_t kMax = 500000;

  const FaultSpec specs[] = {
      {FaultTarget::kCpuRegfile, FaultModel::kTransientFlip, 200, 10, 3, 0.5},
      {FaultTarget::kCpuRegfile, FaultModel::kStuckAt0, 150, 6, 0, 0.5},
      {FaultTarget::kDramData, FaultModel::kTransientFlip, 300, 0x20004, 5,
       0.5},
      {FaultTarget::kDramData, FaultModel::kStuckAt1, 220, 16, 6, 0.5},
      {FaultTarget::kAccelSpmW, FaultModel::kStuckAt1, 1, 3, 6, 0.5},
      {FaultTarget::kAccelSpmX, FaultModel::kTransientFlip, 350, 17, 2, 0.5},
      {FaultTarget::kAccelPhase, FaultModel::kTransientFlip, 400, 5, 0, 0.9},
  };

  const auto run_spec = [&](System& system, const FaultSpec& spec) {
    system.run_until(std::min(spec.cycle, kMax));
    switch (spec.target) {
      case FaultTarget::kCpuRegfile:
        if (spec.model == FaultModel::kTransientFlip)
          system.cpu().flip_reg_bit(static_cast<int>(spec.index), spec.bit);
        else
          system.cpu().set_reg_stuck_bit(static_cast<int>(spec.index),
                                         spec.bit,
                                         spec.model == FaultModel::kStuckAt1);
        break;
      case FaultTarget::kDramData:
        if (spec.model == FaultModel::kTransientFlip)
          system.dram().flip_bit(spec.index, spec.bit);
        else
          system.dram().set_stuck_bit(spec.index, spec.bit,
                                      spec.model == FaultModel::kStuckAt1);
        break;
      case FaultTarget::kAccelSpmW:
        system.pe(0).spm_w().set_stuck_bit(spec.index, spec.bit, true);
        break;
      case FaultTarget::kAccelSpmX:
        system.pe(0).spm_x().flip_bit(spec.index, spec.bit);
        break;
      default:
        system.pe(0).inject_phase_fault(spec.index, spec.phase_delta_rad);
        break;
    }
    system.run_until(kMax);
  };

  // One long-lived system restored between trials (the campaign pattern)
  // vs a freshly constructed system per trial (the PR 3 behavior).
  System reused(sc);
  stage(reused);
  reused.load_program(program);
  const System::SystemSnapshot snap = reused.snapshot();

  for (const FaultSpec& spec : specs) {
    reused.restore(snap);
    run_spec(reused, spec);

    System rebuilt(sc);
    stage(rebuilt);
    rebuilt.load_program(program);
    run_spec(rebuilt, spec);

    expect_identical(capture_state(rebuilt), capture_state(reused),
                     (std::string("spec target ") + to_string(spec.target) +
                      " model " + to_string(spec.model))
                         .c_str());
  }
}

TEST(SnapshotTest, LineageRestoresMatchFreshSystemAfterEveryMutation) {
  // Restores compare only the bytes that the memories' lineage says may
  // differ. Walk staged -> rung a -> rung b -> staged over snapshots as
  // taken, as copies and as campaign_io round trips, mutating the system
  // through one path before every restore, and hold each restored state
  // (and the run continued from it) against a freshly built System. The
  // rungs are taken mid-run, with guest stores still pending in the
  // CPU's raw windows.
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto stage = gemm_stager(wl, 441);
  const auto program = build_gemm_offload(wl, sc, OffloadPath::kMmrPolling);
  const auto build = [&] {
    auto system = std::make_unique<System>(sc);
    stage(*system);
    system->load_program(program);
    return system;
  };
  // Rungs halfway through the two store loops: A into SPM_W (stores
  // through the CPU's data window) and Y back into DRAM (stores through
  // its fetch window). Either window publishes its stores only when it
  // moves or a snapshot or restore asks, so they are pending at the rung.
  const auto first_cycle = [&](const std::function<bool(System&)>& reached) {
    auto probe = build();
    while (!probe->cpu().halted() && !reached(*probe))
      probe->run_until(probe->now() + 1);
    EXPECT_FALSE(probe->cpu().halted());
    return probe->now();
  };
  const std::uint64_t rung_cycles[] = {
      first_cycle([](System& s) { return s.pe(0).spm_w().read(64, 2) != 0; }),
      first_cycle([&](System& s) {
        std::uint32_t y = 0;
        s.read_dram(wl.y_offset + static_cast<std::uint32_t>(wl.n * wl.m),
                    &y, 4);
        return y != 0;
      }),
  };
  ASSERT_LT(rung_cycles[0], rung_cycles[1]);

  std::vector<std::uint8_t> pattern(64);
  for (std::size_t i = 0; i < pattern.size(); ++i)
    pattern[i] = static_cast<std::uint8_t>(0x3D * i + 7);
  using Mutation = std::function<void(System&)>;
  const std::pair<const char*, Mutation> mutations[] = {
      {"bus_write",
       [&](System& s) {
         (void)s.bus().write(sc.dram_base + wl.y_offset, 0xDEADBEEFu, 4);
         (void)s.bus().write(
             sc.accel_base + PhotonicAccelerator::kSpmXBase + 6, 0xA5A5u, 2);
       }},
      {"load",
       [&](System& s) {
         s.write_dram(wl.x_offset + 8, pattern.data(), pattern.size());
         s.pe(0).spm_w().load(16, pattern.data(), 32);
       }},
      {"fill",
       [&](System& s) {
         s.dram().fill(0x5A);
         s.pe(0).spm_y().fill(0xC3);
       }},
      {"flip_bit",
       [&](System& s) {
         s.dram().flip_bit(0x40, 3);  // code
         s.dram().flip_bit(wl.a_offset + 5, 6);
         s.pe(0).spm_x().flip_bit(9, 1);
       }},
      {"stuck_set",
       [&](System& s) {
         s.dram().set_stuck_bit(0x44, 2, true);  // code, revokes the span
         s.pe(0).spm_w().set_stuck_bit(3, 0, false);
       }},
      {"dma_bulk_move",
       [&](System& s) {
         // DRAM code -> SPM_W and DRAM -> DRAM data, moved in bulk by the
         // engine's skip path through the destinations' raw spans.
         for (const auto& [src, dst] :
              {std::pair{sc.dram_base,
                         sc.accel_base + PhotonicAccelerator::kSpmWBase},
               std::pair{sc.dram_base + 0x80, sc.dram_base + wl.x_offset}}) {
           DmaEngine& dma = s.dma();
           dma.write(DmaEngine::kRegSrc, src, 4);
           dma.write(DmaEngine::kRegDst, dst, 4);
           dma.write(DmaEngine::kRegLen, 64, 4);
           dma.write(DmaEngine::kRegCtrl, DmaEngine::kCtrlStart, 4);
           ASSERT_GT(dma.bulk_cycles_remaining(), 0u);
           dma.skip_cycles(1000);
           ASSERT_FALSE(dma.busy());
         }
       }},
      {"guest_stores",
       [&](System& s) { s.run_until(s.now() + 301); }},
  };

  // Byte images and the stuck-at read transform of every memory.
  const auto spms = [](System& s) {
    return std::array<Memory*, 3>{&s.pe(0).spm_w(), &s.pe(0).spm_x(),
                                  &s.pe(0).spm_y()};
  };
  const auto expect_same = [&](System& got, System& want,
                               const std::string& what) {
    expect_identical(capture_state(want), capture_state(got), what.c_str());
    EXPECT_EQ(got.dram().direct_span().data != nullptr,
              want.dram().direct_span().data != nullptr)
        << what << ": DRAM stuck-at set differs";
    const auto g = spms(got);
    const auto w = spms(want);
    for (std::size_t i = 0; i < g.size(); ++i)
      for (std::uint32_t off = 0; off < g[i]->size(); ++off)
        ASSERT_EQ(g[i]->read(off, 1), w[i]->read(off, 1))
            << what << ": " << g[i]->name() << " byte " << off;
  };

  for (const auto& [mutation_name, mutate] : mutations) {
    for (const char* kind : {"taken", "copy", "wire"}) {
      auto system = build();
      std::vector<System::SystemSnapshot> snaps{system->snapshot()};
      for (const std::uint64_t c : rung_cycles) {
        system->run_until(c);
        snaps.push_back(system->snapshot());
      }
      if (std::string(kind) == "copy") {
        std::vector<System::SystemSnapshot> copies(snaps);
        snaps.swap(copies);  // the originals die with `copies`
      } else if (std::string(kind) == "wire") {
        for (System::SystemSnapshot& s : snaps) {
          const std::vector<std::uint8_t> b = serialize_snapshot(s);
          s = deserialize_snapshot(b.data(), b.size());
        }
      }

      for (const std::size_t k : {0u, 1u, 2u, 0u}) {
        const System::SystemSnapshot& snap = snaps[k];
        const std::string what = std::string(mutation_name) + "/" + kind +
                                 " -> snapshot " + std::to_string(k);
        mutate(*system);
        system->restore(snap);
        auto fresh = build();
        fresh->run_until(snap.cycle);
        expect_same(*system, *fresh, what + " restored");
        system->run_until(snap.cycle + 257);
        fresh->run_until(snap.cycle + 257);
        expect_same(*system, *fresh, what + " continued");
      }
      system->run_until(500000);
      auto fresh = build();
      fresh->run_until(500000);
      expect_same(*system, *fresh,
                  std::string(mutation_name) + "/" + kind +
                      " run to completion");
    }
  }
}

TEST(SnapshotTest, SerialAndParallelCampaignVerdictsIdentical) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto a = random_fixed(wl.n * wl.n, 431);
  const auto x = random_fixed(wl.n * wl.m, 432);
  const auto program = build_gemm_offload(wl, sc, OffloadPath::kMmrPolling);
  FaultCampaign campaign(
      [&]() {
        auto system = std::make_unique<System>(sc);
        stage_gemm_data(*system, wl, a, x);
        system->load_program(program);
        return system;
      },
      [&](System& s) {
        const auto y = read_gemm_result(s, wl);
        std::vector<std::uint8_t> bytes(y.size() * 2);
        memcpy(bytes.data(), y.data(), bytes.size());
        return bytes;
      },
      500000);

  aspen::lina::Rng rng(433);
  const std::pair<FaultTarget, FaultModel> points[] = {
      {FaultTarget::kCpuRegfile, FaultModel::kTransientFlip},
      {FaultTarget::kCpuRegfile, FaultModel::kStuckAt1},
      {FaultTarget::kDramData, FaultModel::kTransientFlip},
      {FaultTarget::kAccelSpmW, FaultModel::kStuckAt0},
      {FaultTarget::kAccelSpmX, FaultModel::kTransientFlip},
      {FaultTarget::kAccelPhase, FaultModel::kTransientFlip},
  };
  for (const auto& [target, model] : points) {
    const auto specs = campaign.sample_specs(target, model, 6, rng);
    const auto serial = campaign.run_trials(specs, 1);
    const auto parallel = campaign.run_trials(specs, 4);
    EXPECT_EQ(serial, parallel)
        << "verdicts diverge for " << to_string(target) << "/"
        << to_string(model);
  }
}

TEST(SysimDiffTest, CampaignVerdictsIdentical) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto a = random_fixed(wl.n * wl.n, 351);
  const auto x = random_fixed(wl.n * wl.m, 352);
  const auto program = build_gemm_offload(wl, sc, OffloadPath::kMmrPolling);
  const auto read_y = [wl](System& s) {
    const auto y = read_gemm_result(s, wl);
    std::vector<std::uint8_t> bytes(y.size() * 2);
    memcpy(bytes.data(), y.data(), bytes.size());
    return bytes;
  };

  const auto campaign_counts = [&](Tier tier) {
    const SystemConfig mode_sc = with_tier(sc, tier);
    FaultCampaign campaign(
        [&, mode_sc]() {
          auto system = std::make_unique<System>(mode_sc);
          stage_gemm_data(*system, wl, a, x);
          system->load_program(program);
          return system;
        },
        read_y, 500000);
    aspen::lina::Rng rng(353);  // same draw sequence in every tier
    CampaignResult res;
    for (const FaultTarget target :
         {FaultTarget::kCpuRegfile, FaultTarget::kDramData}) {
      const auto part = campaign.run_campaign(
          target, FaultModel::kTransientFlip, 15, rng);
      for (const auto& [o, n] : part.counts) res.counts[o] += n;
      res.total += part.total;
    }
    return res;
  };

  // FaultCampaign drives its systems through run_until() itself, so the
  // harness-driven tick leg has no campaign form.
  const CampaignResult legacy = campaign_counts(Tier::kLegacy);
  const CampaignResult block = campaign_counts(Tier::kBlock);
  EXPECT_EQ(legacy.total, block.total);
  EXPECT_EQ(legacy.counts, block.counts);
}

}  // namespace
