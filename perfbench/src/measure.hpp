// Measurement plumbing shared by the workloads: the wall clock, sample
// sets with exact percentiles, the in-memory span log, the metric sheet
// a run prints, and the machine/build record.
//
// Everything here lives in the benchmark, outside src/: the program under
// test is timed from outside, by wrapping calls into its public functions.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
[[nodiscard]] inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

[[nodiscard]] double Median(std::vector<double> values);

/// A bounded sample set: keeps every value until `capacity`, then a
/// uniform reservoir (deterministic replacement stream). Percentiles are
/// exact over the kept values, so they carry all their digits.
class Samples {
 public:
  explicit Samples(std::size_t capacity = 1u << 18) : capacity_(capacity) {}

  void Add(double value);
  [[nodiscard]] std::uint64_t count() const noexcept { return seen_; }
  /// q in [0, 1]; 0 when empty. Nearest-rank over the kept values.
  [[nodiscard]] double Percentile(double q) const;
  /// Mean of the kept values ranked within q ± 0.005: a percentile of
  /// clock-quantized timings that is not stuck on whole nanoseconds.
  [[nodiscard]] double SmoothedPercentile(double q) const;

 private:
  std::size_t capacity_;
  std::vector<double> kept_;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
};

/// Spans of one traced run: name, start, end, parent, and the id of the
/// workload pass they belong to. Kept in memory; written out at the end.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int run = 0;
  };

  /// Opens a span and returns its id.
  int Begin(std::string name, int parent, int run);
  void End(int id);
  /// Records an already-measured interval.
  int Add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, int run);

  /// Writes one JSON object per span (times relative to the first span).
  [[nodiscard]] bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null log makes it free.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent, int run)
      : log_(log), id_(log ? log->Begin(std::move(name), parent, run) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// The metric sheet of one run.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool Has(const std::string& name) const {
    return values_.count(name) != 0;
  }
  [[nodiscard]] std::string ToJson() const;
  /// Copies every metric of `other` whose name starts with `prefix`.
  void CopyPrefixed(const Metrics& other, const std::string& prefix);

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// What a workload hands back to main.
struct RunResult {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line each, printed before the result line.
  std::vector<std::string> notes;

  /// Counts one output check; a failing check also prints why.
  void Check(bool ok, const std::string& what);
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs for the smoke test; never used for measurements.
  bool tiny = false;
  /// Where the traced run writes its span log.
  std::string out_dir = ".bench_out";
};

/// Peak resident set of this process (VmHWM), MB.
[[nodiscard]] double PeakRssMb();
/// CPUs this process may run on (its affinity mask).
[[nodiscard]] int AllowedCpus();

/// 64-bit FNV-1a of a byte string (table digests).
[[nodiscard]] std::uint64_t Fnv1a(const std::string& bytes);

}  // namespace perfbench
