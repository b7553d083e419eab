// Shared pieces of the benchmark program: a monotonic clock, exact
// percentiles over raw samples, the VmHWM probe, and the span recorder the
// traced run uses to time calls into each layer from outside.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in [0, 1]) of the sorted raw samples; the
/// caller reports the sample count next to it.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
  if (rank >= samples.size()) rank = samples.size() - 1;
  return samples[rank];
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

/// True when at least ten samples lie above the q-th percentile, the
/// condition for reporting that percentile at all.
inline bool PercentileSupported(size_t count, double q) {
  return static_cast<double>(count) * (1.0 - q) >= 10.0;
}

/// Resets the process's peak resident set (VmHWM) to its current RSS.
inline bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  return static_cast<bool>(clear);
}

/// VmHWM in MiB, or 0 when /proc is unavailable.
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

/// In-memory span recorder. A disabled tracer records nothing and reads no
/// clock, so the untraced run pays nothing for it. Spans carry a name,
/// start/end, parent span and the id of the exchange they belong to; they
/// are written out once, when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index into spans(), -1 for a root span
    uint64_t request;
    bool reported;  // duration reported by the program, not timed here
  };

  /// RAII span: opened by Tracer::Open, closed by Close or destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, int32_t index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { Close(); }
    void Close() {
      if (tracer_ != nullptr && !closed_) tracer_->CloseSpan(index_);
      closed_ = true;
    }
    int32_t index() const { return index_; }

   private:
    Tracer* tracer_;
    int32_t index_;
    bool closed_ = false;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  /// Starts a new exchange; later spans carry its id.
  void BeginRequest() { ++request_; }

  Scope Open(const char* name) {
    if (!enabled_) return Scope(nullptr, -1);
    const int32_t index = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{name, NowNs(), 0, open_, request_, false});
    open_ = index;
    return Scope(this, index);
  }

  /// Attaches a child whose duration the program measured itself (the
  /// service's per-request stage trace), laid out back to back from the
  /// parent's start.
  void AddReported(const char* name, int32_t parent, int64_t offset_ns,
                   int64_t duration_ns) {
    if (!enabled_ || parent < 0) return;
    const int64_t start = spans_[parent].start_ns + offset_ns;
    spans_.push_back(
        Span{name, start, start + duration_ns, parent, request_, true});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of a closed span, 0 for a disabled tracer.
  double DurationNs(int32_t index) const {
    if (index < 0) return 0.0;
    return static_cast<double>(spans_[index].end_ns - spans_[index].start_ns);
  }

  /// Per span name: self times (duration minus timed children) in ns.
  /// Program-reported children are attributions inside their parent, not
  /// separate time, so they do not reduce the parent's self time.
  std::map<std::string, std::vector<double>> SelfTimesNs() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0 && !s.reported) {
        child_ns[s.parent] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, std::vector<double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].reported) continue;
      out[spans_[i].name].push_back(static_cast<double>(
          spans_[i].end_ns - spans_[i].start_ns - child_ns[i]));
    }
    return out;
  }

  /// Durations (ns) of spans named `name`.
  std::vector<double> DurationsNs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
      }
    }
    return out;
  }

  /// Writes one tab-separated line per span.
  bool WriteTsv(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "index\trequest\tparent\tname\tstart_ns\tend_ns\treported\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%llu\t%d\t%s\t%lld\t%lld\t%d\n", i,
                   static_cast<unsigned long long>(s.request), s.parent,
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.reported ? 1 : 0);
    }
    return std::fclose(f) == 0;
  }

 private:
  void CloseSpan(int32_t index) {
    spans_[index].end_ns = NowNs();
    open_ = spans_[index].parent;
  }

  bool enabled_;
  std::vector<Span> spans_;
  int32_t open_ = -1;
  uint64_t request_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
