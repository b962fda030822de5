// End-to-end benchmark entry point: parses the command line, runs one
// workload, and prints every metric by name with its unit. The last line
// of standard output is the machine-readable result:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The full report (header, every metric with reps and
// quartiles, correctness gates, notes) is written to --out as JSON, and a
// traced run also writes its spans there as Chrome trace-event JSON.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"

namespace e2e {

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(p * static_cast<double>(v.size() + 1) - 1.0,
                                0.0, static_cast<double>(v.size() - 1));
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<double> Tracer::per_request_us(const std::string& name) const {
  std::map<std::int64_t, double> sums;
  for (const Span& s : spans_)
    if (s.name == name) sums[s.request] += s.end_us - s.start_us;
  std::vector<double> out;
  out.reserve(sums.size());
  for (const auto& [req, us] : sums) out.push_back(us);
  return out;
}

std::size_t Tracer::count(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return s.name == name; }));
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Every digit of a double; JSON has no NaN/Inf, so those print as 0
/// (and the report gate below fails the run).
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"name\": \"" << json_escape(s.name)
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
       << num(s.start_us) << ", \"dur\": " << num(s.end_us - s.start_us)
       << ", \"args\": {\"request\": " << s.request
       << ", \"span\": " << i << ", \"parent\": " << s.parent << "}}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

void Report::put(Metric m) {
  for (Metric& old : m_)
    if (old.name == m.name) {
      old = std::move(m);
      return;
    }
  m_.push_back(std::move(m));
}

void Report::host(const std::string& name, const std::string& unit,
                  Scope scope, const std::vector<double>& samples) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.scope = scope;
  m.reps = samples.size();
  m.median = median(samples);
  m.q1 = quantile(samples, 0.25);
  m.q3 = quantile(samples, 0.75);
  m.value = m.median;
  put(std::move(m));
}

void Report::host_value(const std::string& name, const std::string& unit,
                        Scope scope, double value, std::size_t reps) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.scope = scope;
  m.reps = reps;
  m.value = m.median = m.q1 = m.q3 = value;
  put(std::move(m));
}

void Report::sim(const std::string& name, const std::string& unit,
                 Scope scope, double value) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.scope = scope;
  m.simulated = true;
  m.value = m.median = m.q1 = m.q3 = value;
  put(std::move(m));
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : m_)
    if (m.name == name) return &m;
  return nullptr;
}

void Report::gate(const std::string& name, bool passed,
                  const std::string& detail) {
  gates_.push_back({name, passed, detail});
  std::printf("gate %-34s %s%s%s\n", name.c_str(), passed ? "ok" : "FAILED",
              detail.empty() ? "" : "  ", detail.c_str());
}

bool Report::gates_passed() const {
  return std::all_of(gates_.begin(), gates_.end(),
                     [](const Gate& g) { return g.passed; });
}

void Reservoir::add(double v) {
  ++seen_;
  if (v_.size() < cap_) {
    v_.push_back(v);
    return;
  }
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  const std::uint64_t j = rng_ % seen_;
  if (j < cap_) v_[j] = v;
}

Phase::Phase(std::size_t keys)
    : min_us_(keys, std::numeric_limits<double>::infinity()) {}

void Phase::add(std::size_t key, double op_us) {
  min_us_[key] = std::min(min_us_[key], op_us);
  all_.add(op_us);
  ++ops_;
}

std::vector<double> Phase::key_mins() const {
  std::vector<double> out;
  for (const double v : min_us_)
    if (std::isfinite(v)) out.push_back(v);
  return out;
}

double Phase::best_rate() const {
  const std::vector<double> v = key_mins();
  double pass_us = 0.0;
  for (const double us : v) pass_us += us;
  return pass_us > 0.0 ? static_cast<double>(v.size()) / pass_us * 1e6 : 0.0;
}

void report_phase(Report& rep, const Phase& p) {
  rep.host("op_us_p50", "us", Scope::kEndToEnd, p.key_mins());
  rep.host_value("ops_per_s", "1/s", Scope::kEndToEnd, p.best_rate(),
                 p.ops());
  // Whole-run tail, host noise included, where ten ops lie beyond it.
  if (p.ops() >= 100)
    rep.host_value("op_us_p90_run", "us", Scope::kExtra, p.run_quantile(0.9),
                   p.ops());
  rep.host_value("op_us_p50_run", "us", Scope::kExtra, p.run_quantile(0.5),
                 p.ops());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

struct Declared {
  const char* name;
  const char* unit;
};

// Every workload prints every metric of both lists; a layer a workload
// does not exercise reads 0 and is marked as not measured in the report.
constexpr Declared kEndToEnd[] = {
    {"op_us_p50", "us"},          {"ops_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},        {"sim_cycles_per_op", "cycles"},
    {"sim_instret_per_op", "instr"},
};

constexpr Declared kPerLayer[] = {
    {"nn.train_s", "s"},
    {"sysim.run_us", "us"},
    {"sysim.restore_us", "us"},
    {"sysim.stage_us", "us"},
    {"sysim.readback_us", "us"},
    {"sysim.construct_ms", "ms"},
    {"sysim.snapshot_us", "us"},
    {"riscv.instret", "instr"},
    {"riscv.cycles", "cycles"},
    {"riscv.ipc", "instr/cycle"},
    {"riscv.host_ns_per_inst", "ns"},
    {"riscv.block_hit_frac", "frac"},
    {"riscv.blocks_built", "count"},
    {"riscv.chained_frac", "frac"},
    {"riscv.fused_exec", "count"},
    {"riscv.fallback_steps", "count"},
    {"riscv.evictions", "count"},
    {"riscv.folded_exec_frac", "frac"},
    {"dma.bytes_per_op", "bytes"},
    {"accel.load_ops", "count"},
    {"accel.mvm_cols", "count"},
    {"accel.busy_cycles", "cycles"},
    {"accel.busy_frac", "frac"},
    {"core.set_weights_us", "us"},
    {"core.set_weights_calls", "count"},
    {"core.multiply_us", "us"},
    {"core.multiply_calls", "count"},
    {"core.engine_frac", "frac"},
    {"lina.svd_us", "us"},
    {"mesh.program_us", "us"},
    {"fault.golden_ms", "ms"},
    {"fault.ladder_build_ms", "ms"},
    {"fault.restore_us", "us"},
    {"fault.restore_fast_us", "us"},
    {"fault.trial_sim_cycles", "cycles"},
    {"fault.cpu_regfile.coverage", "frac"},
    {"fault.cpu_regfile.sdc", "frac"},
    {"fault.dram_data.coverage", "frac"},
    {"fault.dram_data.sdc", "frac"},
    {"fault.accel_spm_w.coverage", "frac"},
    {"fault.accel_spm_w.sdc", "frac"},
    {"fault.accel_spm_x.coverage", "frac"},
    {"fault.accel_spm_x.sdc", "frac"},
    {"fault.accel_phase.coverage", "frac"},
    {"fault.accel_phase.sdc", "frac"},
    {"campaign_io.shard_bytes", "bytes"},
    {"campaign_io.serialize_us", "us"},
    {"campaign_io.deserialize_us", "us"},
    {"orchestrator.launches", "count"},
    {"orchestrator.retries", "count"},
    {"orchestrator.serial_fallbacks", "count"},
    {"orchestrator.overhead_frac", "frac"},
    {"bench.trace_overhead_frac", "frac"},
};

std::string metric_json(const Metric& m, bool measured) {
  std::ostringstream os;
  os << "{\"value\": " << num(m.value) << ", \"unit\": \""
     << json_escape(m.unit) << "\", \"source\": \""
     << (m.simulated ? "simulated" : "host") << "\", \"exact\": "
     << (m.simulated ? "true" : "false") << ", \"reps\": " << m.reps
     << ", \"median\": " << num(m.median) << ", \"q1\": " << num(m.q1)
     << ", \"q3\": " << num(m.q3)
     << ", \"measured\": " << (measured ? "true" : "false") << "}";
  return os.str();
}

bool smoke_flag() {
  const char* v = std::getenv("ASPEN_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

struct Cli {
  RunConfig cfg;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
};

Cli parse(int argc, char** argv) {
  Cli cli;
  cli.cfg.exe = argv[0];
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      cli.cfg.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      cli.cfg.seed = std::stoull(v);
    } else if (a == "--seconds") {
      cli.cfg.seconds = std::stod(v);
      if (!(cli.cfg.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    } else if (a == "--trace") {
      if (v != "0" && v != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      cli.cfg.trace = v == "1";
    } else if (a == "--out") {
      cli.out_dir = v;
    } else if (a == "--git-sha") {
      cli.git_sha = v;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (smoke_flag()) cli.cfg.setup_rounds = 0;
  return cli;
}

int run(const Cli& cli) {
  const RunConfig& cfg = cli.cfg;
  Report rep;
  Tracer tracer;
  rep.note(
      "Statistics start after one warm-up op, so the CPU block cache and "
      "the engine's programming memo are filled; the modelled platform has "
      "no caches that start cold.");
  rep.note(
      "Simulated cycles and energy come from an unvalidated model: the "
      "repository holds no hardware reference, so no error figure is "
      "given.");

  RunOutcome out;
  if (cfg.workload == "mlp_offload") {
    out = run_mlp(cfg, true, rep, tracer);
  } else if (cfg.workload == "mlp_software") {
    out = run_mlp(cfg, false, rep, tracer);
  } else if (cfg.workload == "campaign_checked") {
    out = run_campaign(cfg, rep, tracer);
  } else {
    std::fprintf(stderr, "e2ebench: unknown workload '%s'\n",
                 cfg.workload.c_str());
    return 2;
  }
  rep.host_value("peak_rss_mb", "MB", Scope::kEndToEnd, peak_rss_mb(), 1);
  if (out.attempted > 0)
    rep.sim("failed_frac", "frac", Scope::kExtra,
            static_cast<double>(out.failed) /
                static_cast<double>(out.attempted));

  bool finite = true;
  for (const Metric& m : rep.metrics())
    finite = finite && std::isfinite(m.value);
  rep.gate("metrics_finite", finite, "");

  // Declared lists: both are always complete in the report.
  std::set<std::string> measured;
  for (const Metric& m : rep.metrics()) measured.insert(m.name);
  for (const Declared& d : kPerLayer)
    if (rep.find(d.name) == nullptr)
      rep.sim(d.name, d.unit, Scope::kLayer, 0.0);
  bool complete = true;
  for (const Declared& d : kEndToEnd) {
    const Metric* m = rep.find(d.name);
    complete = complete && m != nullptr && m->unit == d.unit;
  }
  for (const Declared& d : kPerLayer)
    complete = complete && rep.find(d.name)->unit == d.unit;
  rep.gate("declared_metrics_present", complete, "");

  const bool correct = rep.gates_passed() && out.failed == 0 &&
                       out.attempted > 0;

  // Human-readable listing.
  std::printf("\n%-34s %16s %-12s %s\n", "metric", "value", "unit",
              "source/reps/[q1, q3]");
  for (const Metric& m : rep.metrics())
    std::printf("%-34s %16.6g %-12s %s reps=%zu [%.6g, %.6g]\n",
                m.name.c_str(), m.value, m.unit.c_str(),
                m.simulated ? "sim " : "host", m.reps, m.q1, m.q3);

  // Full report file.
  const std::string stem = cli.out_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + "-trace" +
                           (cfg.trace ? "1" : "0");
  {
    std::ofstream os(stem + ".json");
    os << "{\n  \"header\": {\"workload\": \"" << json_escape(cfg.workload)
       << "\", \"seed\": " << cfg.seed << ", \"seconds\": " << num(cfg.seconds)
       << ", \"trace\": " << (cfg.trace ? "true" : "false")
       << ", \"build_type\": \"" << E2EBENCH_BUILD_TYPE
       << "\", \"compiler\": \"" << json_escape(__VERSION__)
       << "\", \"git_sha\": \"" << json_escape(cli.git_sha)
       << "\", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"smoke\": " << (smoke_flag() ? "true" : "false")
       << ", \"setup_rounds\": " << cfg.setup_rounds
       << ", \"loop\": \"closed, one process, one client thread\"},\n";
    os << "  \"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted << ", \"failed\": "
       << out.failed << ",\n  \"metrics\": {\n";
    for (std::size_t i = 0; i < rep.metrics().size(); ++i) {
      const Metric& m = rep.metrics()[i];
      const char* scope = m.scope == Scope::kEndToEnd ? "end_to_end"
                          : m.scope == Scope::kLayer  ? "per_layer"
                                                      : "workload";
      os << "    \"" << json_escape(m.name) << "\": {\"scope\": \"" << scope
         << "\", \"result\": " << metric_json(m, measured.count(m.name) != 0)
         << "}" << (i + 1 < rep.metrics().size() ? ",\n" : "\n");
    }
    os << "  },\n  \"gates\": [\n";
    for (std::size_t i = 0; i < rep.gates().size(); ++i) {
      const Report::Gate& g = rep.gates()[i];
      os << "    {\"name\": \"" << json_escape(g.name) << "\", \"passed\": "
         << (g.passed ? "true" : "false") << ", \"detail\": \""
         << json_escape(g.detail) << "\"}"
         << (i + 1 < rep.gates().size() ? ",\n" : "\n");
    }
    os << "  ],\n  \"notes\": [\n";
    for (std::size_t i = 0; i < rep.notes().size(); ++i)
      os << "    \"" << json_escape(rep.notes()[i]) << "\""
         << (i + 1 < rep.notes().size() ? ",\n" : "\n");
    os << "  ]\n}\n";
  }
  if (cfg.trace) tracer.write_chrome_json(stem + "-spans.json");

  // The result line.
  const Scope want = cfg.trace ? Scope::kLayer : Scope::kEndToEnd;
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted << ", \"failed\": "
       << out.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : rep.metrics()) {
    if (m.scope != want) continue;
    line << (first ? "" : ", ") << "\"" << json_escape(m.name)
         << "\": {\"value\": " << num(m.value) << ", \"unit\": \""
         << json_escape(m.unit) << "\"}";
    first = false;
  }
  line << "}}";
  std::printf("\n%s\n", line.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--campaign-worker") == 0)
    return e2e::sweep_worker_main();
  try {
    return e2e::run(e2e::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
