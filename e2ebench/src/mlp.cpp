// mlp_offload and mlp_software: one request is a batch of held-out digit
// samples pushed through a trained 64-32-10 MLP by RISC-V guest code.
//
// mlp_offload tiles every dense layer into 8x8 weight tiles (40 per
// pass), moves each tile, its input block and its output block with DMA,
// waits in WFI for every interrupt, accumulates the partial sums, then
// adds the bias and applies ReLU in guest code. mlp_software runs the
// same quantized MLP as a scalar Q3.12 integer kernel on the CPU.
//
// Each layer is scaled by a power of two so tile inputs stay in [-1, 1]
// (the modulator range) and partial sums stay inside Q3.12; ReLU and the
// argmax are unchanged by positive scaling.
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>

#include "common.hpp"
#include "core/energy_model.hpp"
#include "core/gemm_core.hpp"
#include "lina/svd.hpp"
#include "mesh/analysis.hpp"
#include "nn/dataset.hpp"
#include "nn/mlp.hpp"
#include "sysim/crc32.hpp"
#include "sysim/riscv/assembler.hpp"
#include "sysim/system.hpp"

namespace e2e {
namespace {

using namespace aspen;
using sys::DmaEngine;
using sys::PhotonicAccelerator;
using sys::System;
using sys::SystemConfig;

constexpr std::size_t kTile = 8;      // accelerator ports = tile edge
constexpr std::size_t kBatch = 16;    // samples per request
constexpr std::size_t kIn = 64, kHidden = 32, kOut = 10, kOutPad = 16;
constexpr std::size_t kMaxBatches = 8;
constexpr double kSumBound = 7.5;     // |partial sums| stay below Q3.12's 8

// DRAM layout (offsets from dram_base; the program sits at offset 0).
constexpr std::uint32_t kOffW1 = 0x10000, kOffW2 = 0x11000;
constexpr std::uint32_t kOffB1 = 0x12000, kOffB2 = 0x12800;
constexpr std::uint32_t kOffX = 0x20000, kOffH = 0x21000;
constexpr std::uint32_t kOffYt = 0x22000, kOffAcc = 0x22400;
constexpr std::uint32_t kOffOut = 0x23000;
constexpr std::uint32_t kTileW = kTile * kTile * 2;   // bytes, int16
constexpr std::uint32_t kTileX = kTile * kBatch * 2;  // bytes, int16
constexpr std::uint32_t kTileAcc = kTile * kBatch * 4;  // bytes, int32

/// The MLP in the fixed-point form the guest runs.
struct Quantized {
  std::vector<std::int16_t> w1, w2;  ///< row-major; w2 padded to kOutPad rows
  std::vector<std::int32_t> b1, b2;  ///< Q3.12; b2 padded to kOutPad
  unsigned hidden_shift = 0;         ///< ReLU output >> shift lands in [0, 1]
};

/// Smallest exponent e with bound * 2^-e <= kSumBound.
int exponent_for(double bound) {
  int e = -12;
  while (std::ldexp(bound, -e) > kSumBound) ++e;
  return e;
}

Quantized quantize(const nn::Mlp& mlp) {
  const nn::DenseLayer& l1 = mlp.layers().at(0);
  const nn::DenseLayer& l2 = mlp.layers().at(1);
  const auto fixed32 = [](double v) {
    return static_cast<std::int32_t>(
        std::llround(v * (1 << PhotonicAccelerator::kFracBits)));
  };
  Quantized q;
  double b1 = 0.0;
  for (std::size_t r = 0; r < kHidden; ++r) {
    double s = std::abs(l1.bias[r]);
    for (std::size_t k = 0; k < kIn; ++k) s += std::abs(l1.weights(r, k));
    b1 = std::max(b1, s);
  }
  const double s1 = std::ldexp(1.0, -exponent_for(b1));
  // Inputs are pixel intensities in [0, 1], so b1 * s1 bounds the hidden
  // activations; the guest shifts them right until they fit [0, 1].
  while (std::ldexp(b1 * s1, -static_cast<int>(q.hidden_shift)) > 1.0)
    ++q.hidden_shift;
  const double sh = std::ldexp(s1, -static_cast<int>(q.hidden_shift));
  double b2 = 0.0;
  for (std::size_t r = 0; r < kOut; ++r) {
    double s = std::abs(l2.bias[r]) * sh;
    for (std::size_t k = 0; k < kHidden; ++k) s += std::abs(l2.weights(r, k));
    b2 = std::max(b2, s);
  }
  const double s2 = std::ldexp(1.0, -exponent_for(b2));

  q.w1.resize(kHidden * kIn);
  q.b1.resize(kHidden);
  for (std::size_t r = 0; r < kHidden; ++r) {
    q.b1[r] = fixed32(l1.bias[r] * s1);
    for (std::size_t k = 0; k < kIn; ++k)
      q.w1[r * kIn + k] = PhotonicAccelerator::to_fixed(l1.weights(r, k) * s1);
  }
  q.w2.assign(kOutPad * kHidden, 0);
  q.b2.assign(kOutPad, 0);
  for (std::size_t r = 0; r < kOut; ++r) {
    q.b2[r] = fixed32(l2.bias[r] * s2 * sh);
    for (std::size_t k = 0; k < kHidden; ++k)
      q.w2[r * kHidden + k] =
          PhotonicAccelerator::to_fixed(l2.weights(r, k) * s2);
  }
  return q;
}

// -- Tile layouts ----------------------------------------------------------

/// Row-major (rows x cols) weights -> 8x8 row-major tiles in (rb, kb) order.
std::vector<std::int16_t> weight_tiles(const std::vector<std::int16_t>& w,
                                       std::size_t rows, std::size_t cols) {
  std::vector<std::int16_t> t(rows * cols);
  std::size_t i = 0;
  for (std::size_t rb = 0; rb < rows / kTile; ++rb)
    for (std::size_t kb = 0; kb < cols / kTile; ++kb)
      for (std::size_t r = 0; r < kTile; ++r)
        for (std::size_t k = 0; k < kTile; ++k)
          t[i++] = w[(rb * kTile + r) * cols + kb * kTile + k];
  return t;
}

/// Bias -> one int32 accumulator-initialiser tile (8 x batch,
/// column-major) per row block.
std::vector<std::int32_t> bias_tiles(const std::vector<std::int32_t>& b) {
  std::vector<std::int32_t> t;
  for (std::size_t rb = 0; rb < b.size() / kTile; ++rb)
    for (std::size_t c = 0; c < kBatch; ++c)
      for (std::size_t r = 0; r < kTile; ++r) t.push_back(b[rb * kTile + r]);
  return t;
}

/// Column-major (k x batch) activations -> per-k-block 8 x batch
/// column-major input tiles.
std::vector<std::int16_t> input_tiles(const std::vector<std::int16_t>& x,
                                      std::size_t k_dim) {
  std::vector<std::int16_t> t;
  for (std::size_t kb = 0; kb < k_dim / kTile; ++kb)
    for (std::size_t c = 0; c < kBatch; ++c)
      for (std::size_t r = 0; r < kTile; ++r)
        t.push_back(x[c * k_dim + kb * kTile + r]);
  return t;
}

// -- Guest programs ----------------------------------------------------------

struct GuestProgram {
  std::vector<std::uint32_t> words;
  std::uint64_t dma_bytes = 0;  ///< bytes the guest's descriptors move per op
  std::uint64_t mvm_cols = 0;   ///< vectors the guest's START ops push
};

void emit_exit(sys::rv::Assembler& as) {
  using namespace sys::rv;
  as.li(a7, 93);
  as.li(a0, 0);
  as.ecall();
}

GuestProgram build_offload_program(const SystemConfig& sc,
                                   unsigned hidden_shift) {
  using namespace sys::rv;
  using PA = PhotonicAccelerator;
  Assembler as(sc.dram_base);
  GuestProgram g;
  const std::uint32_t base = sc.dram_base;
  const std::uint32_t pe = sc.accel_base;
  as.li(s0, pe);
  as.li(s7, sc.dma_base);
  as.li(s4, pe + PA::kSpmWBase);
  as.li(s5, pe + PA::kSpmXBase);
  as.li(s6, pe + PA::kSpmYBase);
  as.li(t0, kBatch);
  as.sw(t0, s0, PA::kRegCols);

  // a0 weight-tile cursor, a1 input-tile cursor, a2 accumulator tile,
  // a3 row blocks left, a4 k blocks left, a5 bias-tile cursor, a6 hidden
  // output cursor. dma(t4 = src, t5 = dst, t6 = len) and await clobber t0.
  const auto layer = [&](const std::string& tag, std::uint32_t w_off,
                         std::uint32_t x_off, std::uint32_t b_off,
                         std::size_t k_dim, std::size_t rows, bool hidden) {
    as.li(a0, base + w_off);
    as.li(a5, base + b_off);
    as.li(a2, base + (hidden ? kOffAcc : kOffOut));
    if (hidden) as.li(a6, base + kOffH);
    as.li(a3, static_cast<std::uint32_t>(rows / kTile));
    as.label(tag + "_rb");
    as.mv(t1, a5);
    as.mv(t2, a2);
    as.addi(t3, a5, kTileAcc);
    as.label(tag + "_bias");
    as.lw(t0, t1, 0);
    as.sw(t0, t2, 0);
    as.addi(t1, t1, 4);
    as.addi(t2, t2, 4);
    as.bltu(t1, t3, tag + "_bias");
    as.li(a1, base + x_off);
    as.li(a4, static_cast<std::uint32_t>(k_dim / kTile));
    as.label(tag + "_kb");
    as.mv(t4, a0);
    as.mv(t5, s4);
    as.li(t6, kTileW);
    as.jal(ra, "dma");
    as.li(t0, PA::kCtrlLoadWeights | PA::kCtrlIrqEn);
    as.sw(t0, s0, PA::kRegCtrl);
    as.jal(ra, "await");
    as.mv(t4, a1);
    as.mv(t5, s5);
    as.li(t6, kTileX);
    as.jal(ra, "dma");
    as.li(t0, PA::kCtrlStart | PA::kCtrlIrqEn);
    as.sw(t0, s0, PA::kRegCtrl);
    as.jal(ra, "await");
    as.mv(t4, s6);
    as.li(t5, base + kOffYt);
    as.li(t6, kTileX);
    as.jal(ra, "dma");
    const std::size_t tile_ops = (rows / kTile) * (k_dim / kTile);
    g.dma_bytes += tile_ops * (kTileW + 2 * kTileX);
    g.mvm_cols += tile_ops * kBatch;
    // Accumulate the Q3.12 tile result into the int32 partial sums.
    as.li(t1, base + kOffYt);
    as.mv(t2, a2);
    as.addi(t3, t1, kTileX);
    as.label(tag + "_acc");
    as.lh(t0, t1, 0);
    as.lw(t5, t2, 0);
    as.add(t5, t5, t0);
    as.sw(t5, t2, 0);
    as.addi(t1, t1, 2);
    as.addi(t2, t2, 4);
    as.bltu(t1, t3, tag + "_acc");
    as.addi(a0, a0, kTileW);
    as.addi(a1, a1, kTileX);
    as.addi(a4, a4, -1);
    as.bne(a4, zero, tag + "_kb");
    if (hidden) {
      // Branchless ReLU, then the power-of-two rescale; the result is the
      // next layer's input tile for k block rb.
      as.mv(t1, a2);
      as.mv(t2, a6);
      as.addi(t3, a2, kTileAcc);
      as.label(tag + "_relu");
      as.lw(t0, t1, 0);
      as.srai(t5, t0, 31);
      as.xori(t5, t5, -1);
      as.and_(t0, t0, t5);
      if (hidden_shift > 0) as.srai(t0, t0, hidden_shift);
      as.sh(t0, t2, 0);
      as.addi(t1, t1, 4);
      as.addi(t2, t2, 2);
      as.bltu(t1, t3, tag + "_relu");
      as.addi(a6, a6, kTileX);
    } else {
      as.addi(a2, a2, kTileAcc);  // logits accumulate in place
    }
    as.addi(a5, a5, kTileAcc);
    as.addi(a3, a3, -1);
    as.bne(a3, zero, tag + "_rb");
  };
  layer("l1", kOffW1, kOffX, kOffB1, kIn, kHidden, true);
  layer("l2", kOffW2, kOffH, kOffB2, kHidden, kOutPad, false);
  emit_exit(as);

  as.label("dma");
  as.sw(t4, s7, DmaEngine::kRegSrc);
  as.sw(t5, s7, DmaEngine::kRegDst);
  as.sw(t6, s7, DmaEngine::kRegLen);
  as.li(t0, DmaEngine::kCtrlStart | DmaEngine::kCtrlIrqEn);
  as.sw(t0, s7, DmaEngine::kRegCtrl);
  as.label("dma_wait");
  as.lw(t0, s7, DmaEngine::kRegStatus);
  as.andi(t0, t0, DmaEngine::kStatusDone);
  as.bne(t0, zero, "dma_done");
  as.wfi();
  as.j("dma_wait");
  as.label("dma_done");
  as.li(t0, DmaEngine::kStatusDone);
  as.sw(t0, s7, DmaEngine::kRegStatus);
  as.ret();

  as.label("await");
  as.lw(t0, s0, PA::kRegStatus);
  as.andi(t0, t0, PA::kStatusDone);
  as.bne(t0, zero, "await_done");
  as.wfi();
  as.j("await");
  as.label("await_done");
  as.li(t0, PA::kStatusDone);
  as.sw(t0, s0, PA::kRegStatus);
  as.ret();

  g.words = as.assemble();
  return g;
}

GuestProgram build_software_program(const SystemConfig& sc,
                                    unsigned hidden_shift) {
  using namespace sys::rv;
  Assembler as(sc.dram_base);
  const std::uint32_t base = sc.dram_base;
  // s0 sample, s1 input column, s2 output cursor, a0 weight row, a4 rows
  // left, a5 bias cursor; t5 the dot-product accumulator.
  const auto layer = [&](const std::string& tag, std::uint32_t w_off,
                         std::uint32_t x_off, std::uint32_t b_off,
                         std::uint32_t out_off, std::size_t k_dim,
                         std::size_t rows, bool hidden) {
    const auto row_bytes = static_cast<std::int32_t>(k_dim * 2);
    as.li(s0, 0);
    as.li(s1, base + x_off);
    as.li(s2, base + out_off);
    as.li(s3, kBatch);
    as.label(tag + "_c");
    as.li(a0, base + w_off);
    as.li(a5, base + b_off);
    as.li(a4, static_cast<std::uint32_t>(rows));
    as.label(tag + "_r");
    as.mv(t0, a0);
    as.mv(t1, s1);
    as.addi(t4, a0, row_bytes);
    as.li(t5, 0);
    as.label(tag + "_k");
    as.lh(t2, t0, 0);
    as.lh(t3, t1, 0);
    as.mul(t2, t2, t3);
    as.add(t5, t5, t2);
    as.addi(t0, t0, 2);
    as.addi(t1, t1, 2);
    as.bltu(t0, t4, tag + "_k");
    as.srai(t5, t5, PhotonicAccelerator::kFracBits);
    as.lw(t2, a5, 0);
    as.add(t5, t5, t2);
    if (hidden) {
      as.srai(t2, t5, 31);
      as.xori(t2, t2, -1);
      as.and_(t5, t5, t2);
      if (hidden_shift > 0) as.srai(t5, t5, hidden_shift);
      as.sh(t5, s2, 0);
      as.addi(s2, s2, 2);
    } else {
      as.sw(t5, s2, 0);
      as.addi(s2, s2, 4);
    }
    as.mv(a0, t4);
    as.addi(a5, a5, 4);
    as.addi(a4, a4, -1);
    as.bne(a4, zero, tag + "_r");
    as.addi(s1, s1, row_bytes);
    as.addi(s0, s0, 1);
    as.blt(s0, s3, tag + "_c");
  };
  layer("l1", kOffW1, kOffX, kOffB1, kOffH, kIn, kHidden, true);
  layer("l2", kOffW2, kOffH, kOffB2, kOffOut, kHidden, kOut, false);
  emit_exit(as);
  return {as.assemble(), 0, 0};
}

// -- Host references ---------------------------------------------------------

using Logits = std::vector<std::int32_t>;  ///< [sample * kOutPad + row]

/// Q3.12 integer reference of the software kernel.
Logits software_reference(const Quantized& q,
                          const std::vector<std::int16_t>& x) {
  std::vector<std::int32_t> h(kBatch * kHidden);
  for (std::size_t c = 0; c < kBatch; ++c)
    for (std::size_t r = 0; r < kHidden; ++r) {
      std::int32_t acc = 0;
      for (std::size_t k = 0; k < kIn; ++k)
        acc += static_cast<std::int32_t>(q.w1[r * kIn + k]) * x[c * kIn + k];
      const std::int32_t z = (acc >> PhotonicAccelerator::kFracBits) + q.b1[r];
      h[c * kHidden + r] = std::max(z, 0) >> q.hidden_shift;
    }
  Logits out(kBatch * kOutPad, 0);
  for (std::size_t c = 0; c < kBatch; ++c)
    for (std::size_t r = 0; r < kOut; ++r) {
      std::int32_t acc = 0;
      for (std::size_t k = 0; k < kHidden; ++k)
        acc += static_cast<std::int32_t>(q.w2[r * kHidden + k]) *
               h[c * kHidden + k];
      out[c * kOutPad + r] =
          (acc >> PhotonicAccelerator::kFracBits) + q.b2[r];
    }
  return out;
}

/// One accelerator operation of a request: weight tile, then input tile.
struct TileOp {
  std::size_t weight_tile;  ///< index into OffloadTiles::w
  lina::CMat x;             ///< 8 x batch input block
};

/// The 40 weight tiles of one pass, in the order the guest loads them.
struct OffloadTiles {
  std::vector<lina::CMat> w;
  explicit OffloadTiles(const Quantized& q) {
    const auto add = [&](const std::vector<std::int16_t>& wq,
                         std::size_t rows, std::size_t cols) {
      const std::vector<std::int16_t> t = weight_tiles(wq, rows, cols);
      for (std::size_t i = 0; i < t.size(); i += kTile * kTile) {
        lina::CMat m(kTile, kTile);
        for (std::size_t e = 0; e < kTile * kTile; ++e)
          m(e / kTile, e % kTile) = {PhotonicAccelerator::from_fixed(t[i + e]),
                                     0.0};
        w.push_back(std::move(m));
      }
    };
    add(q.w1, kHidden, kIn);
    add(q.w2, kOutPad, kHidden);
  }
};

/// Host replay of the offload request through a standalone GemmCore with
/// the PE's config: the same tile sequence, multiply_noiseless, to_fixed,
/// and the guest's accumulate / bias / ReLU / shift. Also records the
/// tile-op sequence for the traced engine replay.
Logits offload_reference(core::GemmCore& gemm, const Quantized& q,
                         const OffloadTiles& tiles,
                         const std::vector<std::int16_t>& x,
                         std::vector<TileOp>& ops) {
  ops.clear();
  std::size_t next_tile = 0;
  lina::CMat y;
  const auto layer = [&](const std::vector<std::int16_t>& in,
                         std::size_t k_dim, std::size_t rows,
                         const std::vector<std::int32_t>& bias) {
    std::vector<std::int32_t> acc(rows * kBatch);  // [c * rows + r]
    for (std::size_t rb = 0; rb < rows / kTile; ++rb) {
      for (std::size_t c = 0; c < kBatch; ++c)
        for (std::size_t r = 0; r < kTile; ++r)
          acc[c * rows + rb * kTile + r] = bias[rb * kTile + r];
      for (std::size_t kb = 0; kb < k_dim / kTile; ++kb) {
        TileOp op{next_tile++, lina::CMat(kTile, kBatch)};
        for (std::size_t c = 0; c < kBatch; ++c)
          for (std::size_t r = 0; r < kTile; ++r)
            op.x(r, c) = {PhotonicAccelerator::from_fixed(
                              in[c * k_dim + kb * kTile + r]),
                          0.0};
        gemm.set_weights(tiles.w[op.weight_tile]);
        gemm.multiply_noiseless(op.x, y);
        for (std::size_t c = 0; c < kBatch; ++c)
          for (std::size_t r = 0; r < kTile; ++r)
            acc[c * rows + rb * kTile + r] +=
                PhotonicAccelerator::to_fixed(y(r, c).real());
        ops.push_back(std::move(op));
      }
    }
    return acc;
  };
  const std::vector<std::int32_t> z1 = layer(x, kIn, kHidden, q.b1);
  std::vector<std::int16_t> h(z1.size());
  for (std::size_t i = 0; i < z1.size(); ++i)
    h[i] = static_cast<std::int16_t>(std::max(z1[i], 0) >> q.hidden_shift);
  return layer(h, kHidden, kOutPad, q.b2);  // [c * kOutPad + r]
}

// -- One set-up --------------------------------------------------------------

struct MlpState {
  bool offload = false;
  SystemConfig sc;
  std::unique_ptr<nn::Mlp> mlp;
  Quantized q;
  std::vector<std::vector<std::int16_t>> xq;  ///< per batch, [c * kIn + k]
  std::vector<std::vector<int>> labels, float_pred;
  std::vector<std::vector<std::uint8_t>> staged;  ///< input bytes per batch
  GuestProgram prog;
  std::unique_ptr<System> sys;
  System::SystemSnapshot snap;
  std::size_t out_bytes = 0;
  double train_s = 0.0, construct_ms = 0.0, snapshot_us = 0.0;

  MlpState(std::uint64_t seed, bool use_offload);
};

template <class T>
std::vector<std::uint8_t> bytes_of(const std::vector<T>& v) {
  std::vector<std::uint8_t> b(v.size() * sizeof(T));
  std::memcpy(b.data(), v.data(), b.size());
  return b;
}

struct RequestResult {
  System::RunResult run;
  Logits raw;  ///< guest output words as read back
};

void request(MlpState& st, std::size_t b, Tracer* tr, std::int64_t id,
             RequestResult& out) {
  Span whole(tr, "request", id);
  {
    Span s(tr, "sysim.restore_fast", id);
    // Every request restores the same snapshot, so only what the last
    // request dirtied differs: no extra stale span.
    st.sys->restore_fast(st.snap, 0, 0);
  }
  {
    Span s(tr, "sysim.stage", id);
    st.sys->write_dram(kOffX, st.staged[b].data(), st.staged[b].size());
  }
  {
    Span s(tr, "sysim.run", id);
    out.run = st.sys->run();
  }
  {
    Span s(tr, "sysim.readback", id);
    out.raw.resize(st.out_bytes / 4);
    st.sys->read_dram(kOffOut, out.raw.data(), st.out_bytes);
  }
}

MlpState::MlpState(std::uint64_t seed, bool use_offload) : offload(use_offload) {
  lina::Rng rng(seed);
  const nn::Dataset data = nn::make_digits(48, rng, /*noise=*/0.08);
  const nn::Split split = nn::split_dataset(data, 0.75, rng);
  mlp = std::make_unique<nn::Mlp>(std::vector<std::size_t>{kIn, kHidden, kOut},
                                  rng);
  const auto t_train = Clock::now();
  mlp->train(split.train, /*epochs=*/60, /*lr=*/0.15, /*batch=*/25, rng);
  train_s = seconds_between(t_train, Clock::now());
  q = quantize(*mlp);

  const std::size_t batches =
      std::min(kMaxBatches, split.test.size() / kBatch);
  if (batches == 0) throw std::runtime_error("mlp: test split too small");
  for (std::size_t b = 0; b < batches; ++b) {
    std::vector<std::int16_t> x(kBatch * kIn);
    nn::Matrix xf(kIn, kBatch);
    std::vector<int> lab(kBatch);
    for (std::size_t c = 0; c < kBatch; ++c) {
      const std::size_t s = b * kBatch + c;
      lab[c] = split.test.labels[s];
      for (std::size_t k = 0; k < kIn; ++k) {
        xf(k, c) = split.test.inputs(k, s);
        x[c * kIn + k] = PhotonicAccelerator::to_fixed(xf(k, c));
      }
    }
    float_pred.push_back(mlp->predict(xf));
    labels.push_back(std::move(lab));
    staged.push_back(bytes_of(offload ? input_tiles(x, kIn) : x));
    xq.push_back(std::move(x));
  }

  sc.accel.gemm.mvm.ports = kTile;
  sc.accel.gemm.mvm.weights = core::WeightTechnology::kPcm;
  sc.accel.gemm.mvm.pcm = phot::pcm_config_for_two_pi(phot::make_gese());
  prog = offload ? build_offload_program(sc, q.hidden_shift)
                 : build_software_program(sc, q.hidden_shift);
  out_bytes = offload ? (kOutPad / kTile) * kTileAcc : kBatch * kOut * 4;

  const auto t_construct = Clock::now();
  sys = std::make_unique<System>(sc);
  construct_ms = seconds_between(t_construct, Clock::now()) * 1e3;
  sys->load_program(prog.words);
  const auto stage = [&](std::uint32_t off, const auto& v) {
    const std::vector<std::uint8_t> b = bytes_of(v);
    sys->write_dram(off, b.data(), b.size());
  };
  if (offload) {
    stage(kOffW1, weight_tiles(q.w1, kHidden, kIn));
    stage(kOffW2, weight_tiles(q.w2, kOutPad, kHidden));
    stage(kOffB1, bias_tiles(q.b1));
    stage(kOffB2, bias_tiles(q.b2));
  } else {
    stage(kOffW1, q.w1);
    stage(kOffW2, std::vector<std::int16_t>(q.w2.begin(),
                                            q.w2.begin() + kOut * kHidden));
    stage(kOffB1, q.b1);
    stage(kOffB2, std::vector<std::int32_t>(q.b2.begin(), q.b2.begin() + kOut));
  }
  const auto t_snap = Clock::now();
  snap = sys->snapshot();
  snapshot_us = seconds_between(t_snap, Clock::now()) * 1e6;

  RequestResult warm;
  request(*this, 0, nullptr, -1, warm);  // warm-up: fills caches and memos
}

/// Guest output words -> [sample * kOutPad + row] logits.
Logits decode(const MlpState& st, const Logits& raw) {
  Logits out(kBatch * kOutPad, 0);
  for (std::size_t c = 0; c < kBatch; ++c)
    for (std::size_t r = 0; r < kOutPad; ++r) {
      if (st.offload)
        out[c * kOutPad + r] =
            raw[(r / kTile) * (kTileAcc / 4) + c * kTile + r % kTile];
      else if (r < kOut)
        out[c * kOutPad + r] = raw[c * kOut + r];
    }
  return out;
}

int argmax(const Logits& l, std::size_t c) {
  std::size_t best = 0;
  for (std::size_t r = 1; r < kOut; ++r)
    if (l[c * kOutPad + r] > l[c * kOutPad + best]) best = r;
  return static_cast<int>(best);
}

bool clean_exit(const System::RunResult& r) {
  return !r.timed_out && r.halt == sys::rv::Halt::kEcallExit &&
         r.exit_code == 0;
}

}  // namespace

RunOutcome run_mlp(const RunConfig& cfg, bool offload, Report& rep,
                   Tracer& tracer) {
  // -- Set-up: once here for the ops, and again across the untraced phase;
  // setup_s is the median.
  std::vector<double> setup_s, train_s, construct_ms, snapshot_us;
  const auto set_up = [&] {
    const auto t = Clock::now();
    auto s = std::make_unique<MlpState>(cfg.seed, offload);
    setup_s.push_back(seconds_between(t, Clock::now()));
    train_s.push_back(s->train_s);
    construct_ms.push_back(s->construct_ms);
    snapshot_us.push_back(s->snapshot_us);
    return s;
  };
  const std::unique_ptr<MlpState> st = set_up();
  const std::size_t batches = st->staged.size();

  // -- Correctness gates: one request per batch against the host oracle.
  core::GemmCore oracle_core(st->sc.accel.gemm);
  const OffloadTiles tiles(st->q);
  std::vector<std::vector<TileOp>> tile_ops(batches);
  std::vector<std::uint32_t> crc(batches);
  std::vector<std::uint64_t> cycles(batches), instret(batches);
  const core::AcceleratorReport model =
      core::evaluate_accelerator(st->sc.accel.gemm.mvm);
  const core::MvmCounters& base = st->snap.pes[0].gemm.engine.counters;
  std::size_t hits = 0, agree = 0, samples = 0;
  bool exits_ok = true, logits_ok = true;
  double energy_nj = 0.0;
  for (std::size_t b = 0; b < batches; ++b) {
    RequestResult res;
    request(*st, b, nullptr, -1, res);
    exits_ok = exits_ok && clean_exit(res.run);
    const Logits got = decode(*st, res.raw);
    const Logits want =
        offload ? offload_reference(oracle_core, st->q, tiles, st->xq[b],
                                    tile_ops[b])
                : software_reference(st->q, st->xq[b]);
    logits_ok = logits_ok && got == want;
    crc[b] = sys::crc32(res.raw.data(), res.raw.size() * 4);
    cycles[b] = res.run.cycles - st->snap.cycle;
    instret[b] = res.run.instret - st->snap.cpu.instret;
    for (std::size_t c = 0; c < kBatch; ++c, ++samples) {
      hits += argmax(got, c) == st->labels[b][c];
      agree += argmax(got, c) == st->float_pred[b][c];
    }
    const core::MvmCounters& now = st->sys->pe(0).gemm().engine().counters();
    energy_nj += ((now.weight_write_energy_j - base.weight_write_energy_j) +
                  static_cast<double>(st->prog.mvm_cols) *
                      model.energy_per_mvm_j +
                  model.static_power_w * static_cast<double>(cycles[b]) /
                      st->sc.accel.clock_hz) *
                 1e9 / kBatch;
  }
  rep.gate("ecall_exit_0", exits_ok, "every request exits by ecall, code 0");
  rep.gate(offload ? "logits_equal_gemmcore_replay"
                   : "logits_equal_q312_reference",
           logits_ok,
           offload ? "bit-equal to GemmCore::multiply_noiseless replay"
                   : "bit-equal to host Q3.12 integer reference");

  std::uint64_t sum_cycles = 0, sum_instret = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    sum_cycles += cycles[b];
    sum_instret += instret[b];
  }
  rep.sim("sim_cycles_per_op", "cycles", Scope::kEndToEnd,
          static_cast<double>(sum_cycles) / static_cast<double>(batches));
  rep.sim("sim_instret_per_op", "instr", Scope::kEndToEnd,
          static_cast<double>(sum_instret) / static_cast<double>(batches));
  rep.sim("accuracy", "frac", Scope::kExtra,
          static_cast<double>(hits) / static_cast<double>(samples));
  rep.sim("float_agreement", "frac", Scope::kExtra,
          static_cast<double>(agree) / static_cast<double>(samples));
  if (offload)
    rep.sim("sim_energy_nj_per_sample", "nJ", Scope::kExtra,
            energy_nj / static_cast<double>(batches));
  rep.sim("batches", "count", Scope::kExtra, static_cast<double>(batches));
  rep.sim("samples_per_op", "count", Scope::kExtra, kBatch);

  // -- Timed request loop: a closed loop, one request after another.
  RunOutcome out;
  RequestResult res;
  std::int64_t next_id = 0;
  const auto timed = [&](double seconds, Tracer* tr, Phase& ph,
                         SetupSchedule* setups,
                         const std::function<void(std::int64_t,
                                                  std::size_t)>& after) {
    const auto start = Clock::now();
    for (std::size_t i = 0;; ++i) {
      if (setups != nullptr &&
          setups->due(seconds_between(start, Clock::now())))
        (void)set_up();
      const std::size_t b = i % batches;
      const std::int64_t id = next_id++;
      const auto t = Clock::now();
      request(*st, b, tr, id, res);
      ph.add(b, seconds_between(t, Clock::now()) * 1e6);
      ++out.attempted;
      const bool ok = clean_exit(res.run) &&
                      res.run.cycles - st->snap.cycle == cycles[b] &&
                      res.run.instret - st->snap.cpu.instret == instret[b] &&
                      sys::crc32(res.raw.data(), res.raw.size() * 4) == crc[b];
      if (!ok) ++out.failed;
      if (after) after(id, b);
      if (seconds_between(start, Clock::now()) >= seconds) break;
    }
  };

  const double plain_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  Phase plain(batches);
  SetupSchedule setups(cfg.setup_rounds, plain_s);
  timed(plain_s, nullptr, plain, &setups, {});
  report_phase(rep, plain);
  rep.host("setup_s", "s", Scope::kEndToEnd, setup_s);
  rep.host("nn.train_s", "s", Scope::kLayer, train_s);
  rep.host("sysim.construct_ms", "ms", Scope::kLayer, construct_ms);
  rep.host("sysim.snapshot_us", "us", Scope::kLayer, snapshot_us);
  rep.host_value("sim_mips", "MIPS", Scope::kExtra,
                 static_cast<double>(sum_instret) / batches *
                     rep.find("ops_per_s")->value / 1e6,
                 plain.ops());
  const auto repeat_gate = [&] {
    rep.gate("sim_metrics_and_output_crc_repeat", out.failed == 0,
             "cycles, instret and output CRC equal on every repeat of a "
             "batch");
  };
  if (!cfg.trace) {
    repeat_gate();
    return out;
  }

  // -- Traced run: spans around the layer calls plus counter deltas per
  // op, then (outside the op's time) the engine replay of its tile ops.
  core::GemmCore replay_core(st->sc.accel.gemm);
  const core::MvmConfig& mc = st->sc.accel.gemm.mvm;
  mesh::MeshErrorModel em_u = mc.errors, em_v = mc.errors;
  em_v.seed = em_u.seed * 0x9e3779b97f4a7c15ULL + 1;
  mesh::PhysicalMesh mesh_u(mesh::make_layout(mc.architecture, mc.ports),
                            em_u);
  mesh::PhysicalMesh mesh_v(mesh::make_layout(mc.architecture, mc.ports),
                            em_v);
  if (mc.weights == core::WeightTechnology::kPcm) {
    mesh_u.enable_pcm(mc.pcm);
    mesh_v.enable_pcm(mc.pcm);
  }
  lina::SvdResult svd;
  lina::SvdWorkspace svd_ws;
  mesh::ProgramScratch prog_scratch;
  lina::CMat y;
  // Simulated counters restart from the snapshot on every request, so
  // their value after the run is the request's delta.
  std::uint64_t sum_cycles_t = 0, sum_instret_t = 0, sum_busy = 0,
                sum_loads = 0, traced_ops = 0;
  const auto traced_after = [&](std::int64_t id, std::size_t b) {
    System& sys = *st->sys;
    const auto& pe = st->snap.pes[0];
    sum_cycles_t += sys.now() - st->snap.cycle;
    sum_instret_t += sys.cpu().instret() - st->snap.cpu.instret;
    sum_busy += sys.pe(0).total_busy_cycles() - pe.total_busy_cycles;
    sum_loads += sys.pe(0).gemm().engine().counters().program_ops -
                 pe.gemm.engine.counters.program_ops;
    ++traced_ops;
    if (!offload) return;
    for (const TileOp& op : tile_ops[b]) {
      const lina::CMat& w = tiles.w[op.weight_tile];
      {
        Span s(&tracer, "core.set_weights", id);
        replay_core.set_weights(w);
      }
      {
        Span s(&tracer, "core.multiply", id);
        replay_core.multiply_noiseless(op.x, y);
      }
      {
        Span s(&tracer, "lina.svd", id);
        lina::svd(w, svd, svd_ws);
      }
      {
        Span s(&tracer, "mesh.program", id);
        (void)mesh::program_for_target(mc.architecture, mesh_u, svd.u,
                                       mc.recalibrate, {}, prog_scratch);
        (void)mesh::program_for_target(mc.architecture, mesh_v,
                                       svd.v.adjoint(), mc.recalibrate, {},
                                       prog_scratch);
      }
    }
  };
  // Block-tier statistics are host-side and cumulative: one delta over
  // the traced phase.
  const sys::rv::BlockStats blk0 = st->sys->cpu().block_stats();
  Phase traced(batches);
  timed(cfg.seconds / 2, &tracer, traced, nullptr, traced_after);
  const sys::rv::BlockStats blk1 = st->sys->cpu().block_stats();

  const auto med = [&](const char* span) {
    return median(tracer.per_request_us(span));
  };
  rep.host("sysim.run_us", "us", Scope::kLayer,
           tracer.per_request_us("sysim.run"));
  rep.host("sysim.restore_us", "us", Scope::kLayer,
           tracer.per_request_us("sysim.restore_fast"));
  rep.host("sysim.stage_us", "us", Scope::kLayer,
           tracer.per_request_us("sysim.stage"));
  rep.host("sysim.readback_us", "us", Scope::kLayer,
           tracer.per_request_us("sysim.readback"));

  const double n = static_cast<double>(traced_ops);
  const auto per_op = [&](std::uint64_t v) {
    return static_cast<double>(v) / n;
  };
  const double ops_instret = per_op(sum_instret_t);
  rep.sim("riscv.instret", "instr", Scope::kLayer, ops_instret);
  rep.sim("riscv.cycles", "cycles", Scope::kLayer, per_op(sum_cycles_t));
  rep.sim("riscv.ipc", "instr/cycle", Scope::kLayer,
          static_cast<double>(sum_instret_t) / static_cast<double>(sum_cycles_t));
  rep.host_value("riscv.host_ns_per_inst", "ns", Scope::kLayer,
                 med("sysim.run") * 1e3 / ops_instret, traced_ops);
  const auto frac = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  const std::uint64_t lookups = (blk1.lookup_hits - blk0.lookup_hits) +
                                (blk1.lookup_misses - blk0.lookup_misses);
  rep.host_value("riscv.block_hit_frac", "frac", Scope::kLayer,
                 frac(blk1.lookup_hits - blk0.lookup_hits, lookups),
                 traced_ops);
  rep.host_value("riscv.blocks_built", "count", Scope::kLayer,
                 per_op(blk1.blocks_built - blk0.blocks_built), traced_ops);
  rep.host_value("riscv.chained_frac", "frac", Scope::kLayer,
                 frac(blk1.chained - blk0.chained,
                      blk1.dispatches - blk0.dispatches),
                 traced_ops);
  rep.host_value("riscv.fused_exec", "count", Scope::kLayer,
                 per_op(blk1.fused_exec - blk0.fused_exec), traced_ops);
  rep.host_value("riscv.fallback_steps", "count", Scope::kLayer,
                 per_op(blk1.fallback_steps - blk0.fallback_steps),
                 traced_ops);
  rep.host_value("riscv.evictions", "count", Scope::kLayer,
                 per_op(blk1.evictions - blk0.evictions), traced_ops);
  rep.host_value("riscv.folded_exec_frac", "frac", Scope::kLayer,
                 frac(blk1.folded_exec - blk0.folded_exec, sum_instret_t),
                 traced_ops);
  rep.sim("dma.bytes_per_op", "bytes", Scope::kLayer,
          static_cast<double>(st->prog.dma_bytes));
  rep.sim("accel.load_ops", "count", Scope::kLayer, per_op(sum_loads));
  rep.sim("accel.mvm_cols", "count", Scope::kLayer,
          static_cast<double>(st->prog.mvm_cols));
  rep.sim("accel.busy_cycles", "cycles", Scope::kLayer, per_op(sum_busy));
  rep.sim("accel.busy_frac", "frac", Scope::kLayer, frac(sum_busy, sum_cycles_t));
  if (offload) {
    rep.host("core.set_weights_us", "us", Scope::kLayer,
             tracer.per_request_us("core.set_weights"));
    rep.sim("core.set_weights_calls", "count", Scope::kLayer,
            static_cast<double>(tracer.count("core.set_weights")) / n);
    rep.host("core.multiply_us", "us", Scope::kLayer,
             tracer.per_request_us("core.multiply"));
    rep.sim("core.multiply_calls", "count", Scope::kLayer,
            static_cast<double>(tracer.count("core.multiply")) / n);
    rep.host_value(
        "core.engine_frac", "frac", Scope::kLayer,
        (med("core.set_weights") + med("core.multiply")) / med("sysim.run"),
        traced_ops);
    rep.host("lina.svd_us", "us", Scope::kLayer,
             tracer.per_request_us("lina.svd"));
    rep.host("mesh.program_us", "us", Scope::kLayer,
             tracer.per_request_us("mesh.program"));
  }
  rep.host_value("bench.trace_overhead_frac", "frac", Scope::kLayer,
                 traced.best_p50() / plain.best_p50() - 1.0, traced.ops());
  repeat_gate();
  return out;
}

}  // namespace e2e
