#include "measure.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Samples::Add(double value) {
  ++seen_;
  if (kept_.size() < capacity_) {
    kept_.push_back(value);
    return;
  }
  // xorshift64: replace a uniform slot with probability capacity/seen.
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  const std::uint64_t slot = rng_ % seen_;
  if (slot < capacity_) kept_[slot] = value;
}

double Samples::Percentile(double q) const {
  if (kept_.empty()) return 0.0;
  std::vector<double> sorted = kept_;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const std::size_t index = rank == 0 ? 0 : std::min(rank, sorted.size()) - 1;
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(index),
                   sorted.end());
  return sorted[index];
}

double Samples::SmoothedPercentile(double q) const {
  if (kept_.empty()) return 0.0;
  std::vector<double> sorted = kept_;
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  auto index = [&](double rank) {
    return static_cast<std::size_t>(
        std::clamp(std::floor(rank * n), 0.0, n - 1.0));
  };
  const std::size_t lo = index(q - 0.005);
  const std::size_t hi = std::max(lo, index(q + 0.005));
  double sum = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) sum += sorted[i];
  return sum / static_cast<double>(hi - lo + 1);
}

int SpanLog::Begin(std::string name, int parent, int run) {
  const std::int64_t now = NowNs();
  return Add(std::move(name), now, now, parent, run);
}

void SpanLog::End(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
}

int SpanLog::Add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                 int parent, int run) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, run});
  return static_cast<int>(spans_.size() - 1);
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out{path, std::ios::trunc};
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns - origin
        << ", \"end_ns\": " << s.end_ns - origin
        << ", \"parent\": " << s.parent << ", \"run\": " << s.run << "}\n";
  }
  return static_cast<bool>(out);
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : values_) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(entry.first) ? entry.first : 0.0);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           entry.second + "\"}";
    first = false;
  }
  return out + "}";
}

void Metrics::CopyPrefixed(const Metrics& other, const std::string& prefix) {
  for (const auto& [name, entry] : other.values_) {
    if (name.rfind(prefix, 0) == 0) values_[name] = entry;
  }
}

void RunResult::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cerr << "check failed: " << what << "\n";
  }
}

double PeakRssMb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

int AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
