#pragma once
// Shared pieces of the end-to-end benchmark: timing, order statistics,
// the in-memory span tracer, and the metric report every workload fills.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Quantile with the "exclusive" rule of Python's statistics.quantiles
/// (position p * (n + 1), linear interpolation, clamped to the sample).
double quantile(std::vector<double> v, double p);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// -- Tracing -------------------------------------------------------------

/// Spans recorded around the benchmark's own calls into each layer. They
/// stay in memory and are written out once, after the timed phase.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t request = -1;  ///< op the span belongs to
    std::int64_t parent = -1;   ///< index of the enclosing span
    double start_us = 0.0;      ///< from the tracer's epoch
    double end_us = 0.0;
  };

  std::size_t begin(const std::string& name, std::int64_t request) {
    Span s;
    s.name = name;
    s.request = request;
    s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    s.start_us = now_us();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void end(std::size_t index) {
    spans_[index].end_us = now_us();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  /// Duration of every span called `name`, summed per request, in
  /// request order (one entry per request that has such a span).
  [[nodiscard]] std::vector<double> per_request_us(
      const std::string& name) const;
  /// Number of spans called `name`.
  [[nodiscard]] std::size_t count(const std::string& name) const;

  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  void write_chrome_json(const std::string& path) const;

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null tracer records nothing (the untraced runs).
class Span {
 public:
  Span(Tracer* t, const std::string& name, std::int64_t request)
      : t_(t), index_(t != nullptr ? t->begin(name, request) : 0) {}
  ~Span() {
    if (t_ != nullptr) t_->end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  std::size_t index_;
};

// -- Report ----------------------------------------------------------------

/// Which list a metric belongs to: the end-to-end metrics (printed by the
/// untraced run), the per-layer metrics (printed by the traced run), or
/// workload-specific results that only go to the full report.
enum class Scope { kEndToEnd, kLayer, kExtra };

struct Metric {
  std::string name;
  std::string unit;
  Scope scope = Scope::kExtra;
  bool simulated = false;  ///< simulated (exact) vs host-measured (noisy)
  double value = 0.0;
  std::size_t reps = 1;
  double median = 0.0, q1 = 0.0, q3 = 0.0;
};

class Report {
 public:
  /// Host-measured metric: value is the median of `samples`.
  void host(const std::string& name, const std::string& unit, Scope scope,
            const std::vector<double>& samples);
  /// A single derived host value (ratios, rates over a whole phase).
  void host_value(const std::string& name, const std::string& unit,
                  Scope scope, double value, std::size_t reps);
  /// Simulated, deterministic metric.
  void sim(const std::string& name, const std::string& unit, Scope scope,
           double value);
  [[nodiscard]] const std::vector<Metric>& metrics() const { return m_; }
  [[nodiscard]] const Metric* find(const std::string& name) const;

  void note(const std::string& text) { notes_.push_back(text); }
  /// A named correctness check; any failed gate makes the run incorrect.
  void gate(const std::string& name, bool passed, const std::string& detail);
  [[nodiscard]] bool gates_passed() const;
  [[nodiscard]] const std::vector<std::string>& notes() const {
    return notes_;
  }
  struct Gate {
    std::string name;
    bool passed;
    std::string detail;
  };
  [[nodiscard]] const std::vector<Gate>& gates() const { return gates_; }

 private:
  void put(Metric m);
  std::vector<Metric> m_;
  std::vector<std::string> notes_;
  std::vector<Gate> gates_;
};

// -- Workload interface ----------------------------------------------------

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string exe;         ///< this binary (the sweep's worker command)
  int setup_rounds = 24;   ///< set-ups spread over the untraced phase
};

/// When to run the set-ups that setup_s is the median of, besides the
/// first (whose state the ops use): `rounds` of them, evenly over the
/// untraced timed phase. A stretch of host noise that lasts seconds then
/// moves a few of them, not their median, as it would move a block of
/// set-ups made in one go.
class SetupSchedule {
 public:
  SetupSchedule(int rounds, double phase_s)
      : rounds_(rounds), every_s_(rounds > 0 ? phase_s / rounds : 0.0) {}
  /// Whether a set-up is due `elapsed_s` into the phase.
  bool due(double elapsed_s) {
    if (done_ >= rounds_ || elapsed_s < (done_ + 0.5) * every_s_)
      return false;
    ++done_;
    return true;
  }

 private:
  int rounds_;
  double every_s_;
  int done_ = 0;
};

struct RunOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Uniform reservoir sample of at most `cap` values (exact below it), so
/// memory does not grow with the op count.
class Reservoir {
 public:
  explicit Reservoir(std::size_t cap) : cap_(cap) {}
  void add(double v);
  [[nodiscard]] const std::vector<double>& values() const { return v_; }

 private:
  std::size_t cap_;
  std::vector<double> v_;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ULL;  ///< xorshift64 state
};

/// Per-op host times of one timed phase. The phase repeats a fixed set of
/// ops (keyed 0..keys-1) pass after pass, and keeps each op's fastest
/// time. Host interference on a shared machine only ever adds time, and
/// it comes and goes within fractions of a second, so an op's fastest
/// repeat is the figure that repeats from run to run; the end-to-end
/// figures are taken over those, one per op of the set.
class Phase {
 public:
  explicit Phase(std::size_t keys);
  /// Op `key` of the set took `op_us`.
  void add(std::size_t key, double op_us);
  [[nodiscard]] std::uint64_t ops() const { return ops_; }
  /// Fastest time of each op of the set that ran.
  [[nodiscard]] std::vector<double> key_mins() const;
  /// Median over the set of each op's fastest time.
  [[nodiscard]] double best_p50() const { return median(key_mins()); }
  /// Ops per second at each op's fastest time: one pass over the set.
  [[nodiscard]] double best_rate() const;
  /// Quantile of the whole phase's op times (reservoir estimate).
  [[nodiscard]] double run_quantile(double p) const {
    return quantile(all_.values(), p);
  }

 private:
  std::vector<double> min_us_;  ///< +inf until the op has run
  Reservoir all_{4096};
  std::uint64_t ops_ = 0;
};

/// Fills the end-to-end host metrics of a timed phase.
void report_phase(Report& rep, const Phase& p);
/// Peak resident set of this process in MB (getrusage).
double peak_rss_mb();

RunOutcome run_mlp(const RunConfig& cfg, bool offload, Report& rep,
                   Tracer& tracer);
RunOutcome run_campaign(const RunConfig& cfg, Report& rep, Tracer& tracer);
/// Worker-process body of the campaign's orchestrated sweep (one shard on
/// stdin).
int sweep_worker_main();

}  // namespace e2e
