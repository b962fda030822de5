// campaign_checked: fault campaigns on the checked 8x8 GEMM offload (CRC'd
// transfers, ABFT, guest retry and software fallback, recovery-aware
// grading). One op is one FaultCampaign::run_one on a checkpoint ladder,
// transient flips spread equally over the five fault targets.
//
// Outside the timed trials, a small fault x ABFT SweepGrid also runs
// through CampaignOrchestrator with two worker processes (this binary, in
// --campaign-worker mode): its merged histograms are a correctness gate,
// and the traced run times the wire format and the orchestrator on it.
#include <cstring>
#include <memory>
#include <stdexcept>

#include "common.hpp"
#include "lina/random.hpp"
#include "sysim/campaign_io.hpp"
#include "sysim/campaign_orchestrator.hpp"
#include "sysim/fault.hpp"
#include "sysim/workloads.hpp"

namespace e2e {
namespace {

using namespace aspen;
using namespace aspen::sys;

// Trial budget: 17x the fault-free checked run and about 4x the longest
// completed trial seen (a retry plus the software fallback). A hanging
// trial simulates out the budget, so the budget sets the cost of hangs.
constexpr std::uint64_t kMaxCycles = 200000;
constexpr unsigned kLadderRungs = 16;
constexpr int kSpecsPerTarget = 4000;
constexpr std::size_t kOracleTrials = 20;  // 4 per target

struct TargetInfo {
  FaultTarget target;
  const char* name;
};
constexpr TargetInfo kTargets[] = {
    {FaultTarget::kCpuRegfile, "cpu_regfile"},
    {FaultTarget::kDramData, "dram_data"},
    {FaultTarget::kAccelSpmW, "accel_spm_w"},
    {FaultTarget::kAccelSpmX, "accel_spm_x"},
    {FaultTarget::kAccelPhase, "accel_phase"},
};

std::vector<std::uint8_t> as_bytes(const std::vector<std::int16_t>& v) {
  std::vector<std::uint8_t> b(v.size() * 2);
  std::memcpy(b.data(), v.data(), b.size());
  return b;
}

/// One 8x8x8 GEMM offload on thermo-optic weights: the checked variant
/// (ABFT + build_gemm_offload_checked) or the plain DMA + IRQ one.
struct GemmCase {
  SystemConfig sc;
  GemmWorkload wl;
  std::vector<std::int16_t> a, x;
  std::vector<std::uint32_t> program;
  bool checked = false;

  GemmCase(std::uint64_t seed, bool checked_abft) : checked(checked_abft) {
    sc.dram_size = 1u << 18;
    sc.accel.gemm.mvm.ports = 8;
    sc.accel.gemm.abft.enabled = checked;
    lina::Rng rng(seed);
    a.resize(wl.n * wl.n);
    x.resize(wl.n * wl.m);
    for (auto& v : a) v = PhotonicAccelerator::to_fixed(rng.uniform(-0.9, 0.9));
    for (auto& v : x) v = PhotonicAccelerator::to_fixed(rng.uniform(-0.9, 0.9));
    program = checked
                  ? build_gemm_offload_checked(wl, sc)
                  : build_gemm_offload(wl, sc, OffloadPath::kDmaInterrupt);
  }

  [[nodiscard]] std::unique_ptr<System> make() const {
    auto s = std::make_unique<System>(sc);
    if (checked)
      stage_gemm_data_checked(*s, wl, a, x);
    else
      stage_gemm_data(*s, wl, a, x);
    s->load_program(program);
    return s;
  }
  [[nodiscard]] FaultCampaign::OutputReader reader() const {
    return [wl = wl](System& s) { return as_bytes(read_gemm_result(s, wl)); };
  }
  [[nodiscard]] FaultCampaign::RecoveryReader recovery() const {
    return [wl = wl](System& s) { return read_gemm_recovery(s, wl); };
  }
  /// Output of the guest's software fallback (it truncates where the
  /// accelerator rounds).
  [[nodiscard]] std::vector<std::uint8_t> fallback_golden() const {
    return as_bytes(golden_gemm(wl, a, x));
  }
};

/// Worker and coordinator build their platforms from the same point; the
/// worker adopts the coordinator's staged snapshot, so the data it was
/// built with is overwritten before any trial runs.
PointFactory point_factory(std::uint64_t seed) {
  return [seed](const SweepPoint& p) -> FaultCampaign::SystemFactory {
    auto g = std::make_shared<const GemmCase>(seed, p.abft);
    return [g]() { return g->make(); };
  };
}

/// Fresh-System-per-trial oracle: build, run to the injection cycle,
/// inject, run out the budget, grade with the recovery-aware taxonomy
/// documented in fault.hpp.
Outcome oracle_verdict(const GemmCase& g, const FaultSpec& spec,
                       const std::vector<std::uint8_t>& golden) {
  auto s = g.make();
  s->run_until(std::min(spec.cycle, kMaxCycles));
  FaultCampaign::inject(*s, spec);
  s->run_until(kMaxCycles);
  if (!s->cpu().halted()) return Outcome::kDueHang;
  const rv::Halt h = s->cpu().halt_reason();
  if (h == rv::Halt::kBusFault || h == rv::Halt::kIllegal)
    return Outcome::kDueTrap;
  const GemmRecoveryRecord rec = read_gemm_recovery(*s, g.wl);
  const std::vector<std::uint8_t> out = g.reader()(*s);
  if (rec.fell_back != 0)
    return out == g.fallback_golden() ? Outcome::kDetectedRecovered
                                      : Outcome::kSdc;
  if (out != golden) return Outcome::kSdc;
  return rec.detected != 0 || rec.corrected != 0 || rec.retried != 0
             ? Outcome::kDetectedCorrected
             : Outcome::kMasked;
}

void report_fault_targets(Report& rep,
                          const std::vector<CampaignResult>& per_target) {
  for (std::size_t t = 0; t < per_target.size(); ++t) {
    if (per_target[t].total == 0) continue;
    const std::string base = std::string("fault.") + kTargets[t].name;
    rep.sim(base + ".coverage", "frac", Scope::kLayer,
            per_target[t].detection_coverage());
    rep.sim(base + ".sdc", "frac", Scope::kLayer, per_target[t].sdc_rate());
  }
}

void report_histogram(Report& rep, const CampaignResult& all) {
  rep.sim("detection_coverage", "frac", Scope::kExtra,
          all.detection_coverage());
  rep.sim("sdc_rate", "frac", Scope::kExtra, all.sdc_rate());
  for (const Outcome o :
       {Outcome::kMasked, Outcome::kSdc, Outcome::kDueTrap, Outcome::kDueHang,
        Outcome::kDetectedCorrected, Outcome::kDetectedRecovered})
    rep.sim("outcome." + to_string(o), "frac", Scope::kExtra,
            all.fraction(o));
}

// -- campaign_checked --------------------------------------------------------

struct CampaignState {
  GemmCase g;
  System* sys = nullptr;  ///< the campaign's trial system (factory-built)
  std::unique_ptr<FaultCampaign> campaign;
  std::vector<FaultSpec> specs;  ///< targets interleaved round-robin
  double construct_ms = 0.0, golden_ms = 0.0, ladder_ms = 0.0;
  std::uint64_t golden_cycles = 0, golden_instret = 0;

  explicit CampaignState(std::uint64_t seed) : g(seed, true) {
    campaign = std::make_unique<FaultCampaign>(
        [this]() {
          const auto t = Clock::now();
          auto s = g.make();
          construct_ms = seconds_between(t, Clock::now()) * 1e3;
          sys = s.get();
          return s;
        },
        g.reader(), kMaxCycles);
    campaign->set_recovery(g.recovery(), g.fallback_golden());
    auto t = Clock::now();
    (void)campaign->golden();
    golden_ms = seconds_between(t, Clock::now()) * 1e3;
    golden_cycles = campaign->golden_cycles();
    golden_instret = sys->cpu().instret();
    t = Clock::now();
    campaign->build_ladder(kLadderRungs);
    ladder_ms = seconds_between(t, Clock::now()) * 1e3;

    lina::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xFA17);
    std::vector<std::vector<FaultSpec>> per_target;
    for (const TargetInfo& ti : kTargets) {
      // DRAM flips land on the staged weight tile, SPM_X flips on the
      // bytes the 8x8 input tile occupies; other targets span the whole
      // structure.
      std::uint32_t lo = 0, hi = 0;
      if (ti.target == FaultTarget::kDramData) {
        lo = g.wl.a_offset;
        hi = static_cast<std::uint32_t>(g.wl.a_offset + g.wl.n * g.wl.n * 2 - 1);
      } else if (ti.target == FaultTarget::kAccelSpmX) {
        hi = static_cast<std::uint32_t>(g.wl.n * g.wl.m * 2 - 1);
      }
      per_target.push_back(campaign->sample_specs(
          ti.target, FaultModel::kTransientFlip, kSpecsPerTarget, rng, lo, hi));
    }
    for (int i = 0; i < kSpecsPerTarget; ++i)
      for (const auto& v : per_target) specs.push_back(v[i]);
    (void)campaign->run_one(specs.front());  // warm-up trial
  }
};

// -- Orchestrated sweep ------------------------------------------------------

constexpr int kTracedSweeps = 20;

/// A fault x ABFT SweepGrid on the checked offload, for the orchestrator
/// and the shard wire format. Datapath targets only: their trials never
/// hang, so every grid run costs about the same whatever the seed draws.
struct Sweep {
  std::unique_ptr<SweepGrid> grid;
  SweepRunConfig rc;
  OrchestratorConfig oc;
  std::size_t shards = 0;
  std::vector<SweepCell> serial;  ///< the in-process oracle
  CampaignShard sample;  ///< one planned shard, for the wire-format spans

  Sweep(std::uint64_t seed, const std::string& exe) {
    SweepAxes axes;
    axes.faults = {{FaultTarget::kAccelSpmW, FaultModel::kTransientFlip},
                   {FaultTarget::kAccelPhase, FaultModel::kTransientFlip}};
    axes.abft = {false, true};
    const GemmCase g(seed, true);
    grid = std::make_unique<SweepGrid>(axes, point_factory(seed), g.reader(),
                                       kMaxCycles);
    grid->set_recovery(g.recovery(), g.fallback_golden());
    rc.trials_per_cell = 8;
    rc.shards_per_cell = 2;
    rc.seed = seed;
    oc.max_workers = 2;
    oc.worker_argv = {exe, "--campaign-worker"};
    const std::vector<SweepPoint> points = grid->points();
    shards = points.size() * rc.shards_per_cell;
    serial = grid->run_serial(rc);

    FaultCampaign probe(point_factory(seed)(points.front()), g.reader(),
                        kMaxCycles);
    (void)probe.golden();
    lina::Rng rng(seed);
    const std::vector<FaultSpec> specs = probe.sample_specs(
        points.front().target, points.front().model, rc.trials_per_cell, rng);
    sample = plan_shards(probe, specs, rc.shards_per_cell, 0,
                         points.front())
                 .front();
  }

  /// Whether an orchestrated run merged to the serial histograms, cell by
  /// cell.
  [[nodiscard]] bool matches(const std::vector<SweepCell>& cells) const {
    if (cells.size() != serial.size()) return false;
    for (std::size_t c = 0; c < cells.size(); ++c)
      if (cells[c].hist.counts != serial[c].hist.counts ||
          cells[c].hist.total != serial[c].hist.total)
        return false;
    return true;
  }
};

}  // namespace

RunOutcome run_campaign(const RunConfig& cfg, Report& rep, Tracer& tracer) {
  // -- Set-up: once here for the trials, and again across the untraced
  // phase; setup_s is the median.
  std::vector<double> setup_s, construct_ms, golden_ms, ladder_ms;
  const auto set_up = [&] {
    const auto t = Clock::now();
    auto s = std::make_unique<CampaignState>(cfg.seed);
    setup_s.push_back(seconds_between(t, Clock::now()));
    construct_ms.push_back(s->construct_ms);
    golden_ms.push_back(s->golden_ms);
    ladder_ms.push_back(s->ladder_ms);
    return s;
  };
  const std::unique_ptr<CampaignState> st = set_up();
  rep.sim("sim_cycles_per_op", "cycles", Scope::kEndToEnd,
          static_cast<double>(st->golden_cycles));
  rep.sim("sim_instret_per_op", "instr", Scope::kEndToEnd,
          static_cast<double>(st->golden_instret));
  rep.note(
      "campaign_checked: sim_cycles_per_op and sim_instret_per_op are the "
      "fault-free run every trial replays; fault.trial_sim_cycles is the "
      "mean length of the faulted runs.");

  // -- Gates: a full pass fixes every spec's verdict and run length; the
  // first trials are re-run on a fresh System each.
  const std::size_t n = st->specs.size();
  std::vector<Outcome> verdict(n);
  std::vector<std::uint64_t> end_cycle(n), end_instret(n);
  std::vector<CampaignResult> per_target(std::size(kTargets));
  std::vector<Outcome> all;
  double trial_cycles = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    verdict[k] = st->campaign->run_one(st->specs[k]);
    end_cycle[k] = st->sys->now();
    end_instret[k] = st->sys->cpu().instret();
    trial_cycles += static_cast<double>(end_cycle[k]) / static_cast<double>(n);
    all.push_back(verdict[k]);
  }
  for (std::size_t t = 0; t < per_target.size(); ++t) {
    std::vector<Outcome> v;
    for (std::size_t k = t; k < n; k += per_target.size())
      v.push_back(verdict[k]);
    per_target[t] = histogram_of(v);
  }
  report_fault_targets(rep, per_target);
  report_histogram(rep, histogram_of(all));
  rep.sim("fault.trial_sim_cycles", "cycles", Scope::kLayer, trial_cycles);
  std::uint64_t longest = 0;
  for (std::size_t k = 0; k < n; ++k)
    if (verdict[k] != Outcome::kDueHang) longest = std::max(longest, end_cycle[k]);
  rep.sim("longest_completed_trial_cycles", "cycles", Scope::kExtra,
          static_cast<double>(longest));

  {
    auto fresh = st->g.make();
    (void)fresh->run();
    rep.gate("golden_equals_fresh_run",
             st->g.reader()(*fresh) == st->campaign->golden(),
             "campaign golden vs a fresh System's run");
  }
  std::size_t oracle_mismatch = 0;
  for (std::size_t k = 0; k < kOracleTrials && k < n; ++k)
    oracle_mismatch +=
        oracle_verdict(st->g, st->specs[k], st->campaign->golden()) !=
        verdict[k];
  rep.gate("verdicts_equal_fresh_system_oracle", oracle_mismatch == 0,
           std::to_string(std::min(kOracleTrials, n)) + " trials, " +
               std::to_string(oracle_mismatch) + " mismatched");

  // -- Timed trial loop.
  RunOutcome out;
  std::size_t next = 0;
  const auto timed = [&](double seconds, Tracer* tr, Phase& ph,
                         SetupSchedule* setups) {
    const auto start = Clock::now();
    do {
      if (setups != nullptr &&
          setups->due(seconds_between(start, Clock::now())))
        (void)set_up();
      const std::size_t k = next++ % n;
      const auto id = static_cast<std::int64_t>(out.attempted);
      Outcome v = Outcome::kMasked;
      bool threw = false;
      const auto t = Clock::now();
      try {
        Span s(tr, "fault.run_one", id);
        v = st->campaign->run_one(st->specs[k]);
      } catch (const std::exception&) {
        threw = true;
      }
      ph.add(k, seconds_between(t, Clock::now()) * 1e6);
      ++out.attempted;
      if (threw || v != verdict[k] || st->sys->now() != end_cycle[k] ||
          st->sys->cpu().instret() != end_instret[k])
        ++out.failed;
    } while (seconds_between(start, Clock::now()) < seconds);
  };

  const double plain_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  Phase plain(n);
  SetupSchedule setups(cfg.setup_rounds, plain_s);
  timed(plain_s, nullptr, plain, &setups);
  report_phase(rep, plain);
  rep.host("setup_s", "s", Scope::kEndToEnd, setup_s);
  rep.host("sysim.construct_ms", "ms", Scope::kLayer, construct_ms);
  rep.host("fault.golden_ms", "ms", Scope::kLayer, golden_ms);
  rep.host("fault.ladder_build_ms", "ms", Scope::kLayer, ladder_ms);
  if (cfg.trace) {
    Phase traced(n);
    timed(cfg.seconds / 2, &tracer, traced, nullptr);
    // Both restore variants of the staged snapshot, each on an image a
    // fault-free run has just dirtied, on a system of its own so the
    // campaign's trial system keeps its state.
    const System::SystemSnapshot& staged = st->campaign->staged_snapshot();
    auto probe = st->g.make();
    for (std::int64_t i = 0; i < 200; ++i) {
      (void)probe->run();
      const std::int64_t id = -2 - i;  // not a trial
      if (i % 2 == 0) {
        Span s(&tracer, "fault.restore", id);
        probe->restore(staged);
      } else {
        Span s(&tracer, "fault.restore_fast", id);
        probe->restore_fast(staged);
      }
    }
    rep.host("fault.restore_us", "us", Scope::kLayer,
             tracer.per_request_us("fault.restore"));
    rep.host("fault.restore_fast_us", "us", Scope::kLayer,
             tracer.per_request_us("fault.restore_fast"));
    rep.host_value("bench.trace_overhead_frac", "frac", Scope::kLayer,
                   traced.best_p50() / plain.best_p50() - 1.0,
                   traced.ops());
  }
  rep.gate("verdicts_and_run_lengths_repeat", out.failed == 0,
           "every repeat of a spec: same verdict, end cycle and instret");

  // -- Orchestrated sweep, after the timed trials: one grid run in every
  // run for the gate (it also pages in the worker binary), then the traced
  // ones. Each counts its shards into attempted and failed.
  const Sweep sweep(cfg.seed, cfg.exe);
  const int sweeps = cfg.trace ? 1 + kTracedSweeps : 1;
  int mismatched = 0;
  CampaignOrchestrator::Stats totals;
  for (int i = 0; i < sweeps; ++i) {
    Tracer* tr = i > 0 ? &tracer : nullptr;
    const std::int64_t id = -1000 - i;  // not a trial
    CampaignOrchestrator::Stats stats;
    std::vector<SweepCell> cells;
    bool threw = false;
    try {
      Span s(tr, "orchestrator.run", id);
      cells = sweep.grid->run(sweep.rc, sweep.oc, &stats);
    } catch (const std::exception&) {
      threw = true;
    }
    out.attempted += sweep.shards;
    if (threw || !sweep.matches(cells)) {
      out.failed += sweep.shards;
      ++mismatched;
    }
    if (tr == nullptr) continue;
    totals.launches += stats.launches;
    totals.retries += stats.retries;
    totals.serial_fallbacks += stats.serial_fallbacks;
    {
      Span s(tr, "sweep.serial", id);
      (void)sweep.grid->run_serial(sweep.rc);
    }
    std::vector<std::uint8_t> wire;
    {
      Span s(tr, "campaign_io.serialize", id);
      wire = serialize_shard(sweep.sample);
    }
    Span s(tr, "campaign_io.deserialize", id);
    (void)deserialize_shard(wire);
  }
  rep.gate("merged_histograms_equal_serial", mismatched == 0,
           std::to_string(sweeps) + " orchestrated grid runs, " +
               std::to_string(mismatched) + " mismatched");
  if (!cfg.trace) return out;

  const double traced_runs = kTracedSweeps;
  rep.sim("campaign_io.shard_bytes", "bytes", Scope::kLayer,
          static_cast<double>(serialize_shard(sweep.sample).size()));
  rep.host("campaign_io.serialize_us", "us", Scope::kLayer,
           tracer.per_request_us("campaign_io.serialize"));
  rep.host("campaign_io.deserialize_us", "us", Scope::kLayer,
           tracer.per_request_us("campaign_io.deserialize"));
  rep.host_value("orchestrator.launches", "count", Scope::kLayer,
                 totals.launches / traced_runs, kTracedSweeps);
  rep.host_value("orchestrator.retries", "count", Scope::kLayer,
                 totals.retries / traced_runs, kTracedSweeps);
  rep.host_value("orchestrator.serial_fallbacks", "count", Scope::kLayer,
                 totals.serial_fallbacks / traced_runs, kTracedSweeps);
  rep.host_value("orchestrator.overhead_frac", "frac", Scope::kLayer,
                 median(tracer.per_request_us("orchestrator.run")) /
                         median(tracer.per_request_us("sweep.serial")) -
                     1.0,
                 kTracedSweeps);
  return out;
}

int sweep_worker_main() {
  try {
    const GemmCase g(0, true);
    return campaign_worker_main(0, 1, point_factory(0), g.reader(),
                                /*progress_every=*/16, g.recovery());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench worker: %s\n", e.what());
    return 1;
  }
}

}  // namespace e2e
