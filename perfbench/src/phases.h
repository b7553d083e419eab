// The measured work of one benchmark run and the gates that check it. Every
// workload runs the same three kinds of work on its own inputs:
//
//   setup   corpus text -> service ready to answer (repeated loads)
//   batch   a batch corpus mined to its closed set, at 1 and 2 workers
//   serve   the closed-loop protocol session on a fresh durable service,
//           then destroy and reopen
//
// A run is a sequence of short slices until its time is up; each slice does
// one setup block, the batch requests of one batch corpus and one session
// pass. Each measured unit runs back to back on its own, and repeating it in
// every slice spreads its samples evenly over the whole run, so a slow spell
// of the shared host touches a few samples of every metric and the reported
// medians pass over it. With a tracer enabled the work also records spans
// around every call into a layer; the per-layer metrics come from them.

#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/mining_result.h"
#include "inputs.h"
#include "serve/mining_service.h"

namespace perfbench {

/// Metric name -> (value, unit), printed in insertion order.
struct Metrics {
  std::vector<std::string> order;
  std::map<std::string, std::pair<double, std::string>> values;
  void Set(const std::string& name, double value, const std::string& unit) {
    if (values.find(name) == values.end()) order.push_back(name);
    values[name] = {value, unit};
  }
};

/// Operations attempted and failed, and the correctness gates that failed.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> gate_failures;
  void Gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
};

class TracedServe;

class Bench {
 public:
  Bench(const Inputs& inputs, std::string workdir, Tracer* tracer);
  ~Bench();
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Slice `k` of a run: a setup block, the requests of batch corpus
  /// k mod corpora and a pass of session k mod sessions. The slice starts
  /// on a trimmed heap with VmHWM reset, and its peak RSS is one sample.
  void Slice(size_t k);

  /// Runs the twin gate and fills the metrics.
  void Finish();

  Outcome outcome;
  Metrics e2e;    // end-to-end metrics
  Metrics layer;  // per-layer metrics (traced run only)

 private:
  struct Corpus;

  /// One block of start-up loads of the corpus of `slice`'s session, each
  /// timed alone.
  void SetupBlock(size_t slice);

  /// Batch corpus `i` mined to its closed set at 1 and 2 workers. The first
  /// call builds the services, and each corpus's first round runs its batch
  /// gates.
  void MineCorpus(size_t i);

  /// One pass of `slice`'s closed-loop session on a fresh durable service,
  /// then destroy and reopen it, with the recovery gates.
  void ServePass(size_t slice);

  void CheckCorpus(Corpus& c);

  const Inputs& in_;
  const std::string workdir_;
  Tracer& tracer_;

  std::vector<double> peak_rss_mb_;  // per slice
  // setup
  std::vector<double> load_ns_;
  // batch: per corpus, its cache-off service, reference bytes and samples
  std::vector<std::unique_ptr<Corpus>> corpora_;
  double positions_ = 0, index_bytes_ = 0, decode_ns_ = 0;
  gsgrow::MiningStats sum_;
  uint64_t supports_checked_ = 0;
  // serve
  std::unique_ptr<TracedServe> traced_;
  size_t passes_ = 0;
  std::vector<std::vector<uint64_t>> responses_;  // digests, per session
  // per pass: exact percentiles of its own raw samples, and its line rate
  std::vector<double> query_p50_ns_, query_p99_ns_, append_p50_ns_,
      append_p99_ns_, lines_per_s_;
  size_t query_samples_ = 0, append_samples_ = 0, lines_ = 0;
  std::vector<double> bulk_load_ns_, reopen_ns_;
  uint64_t cache_hits_ = 0, cache_misses_ = 0, cache_revalidated_ = 0,
           cache_evicted_ = 0;
  double wal_bytes_ = 0, wal_events_ = 0;
  uint64_t replay_records_ = 0, wal_segments_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
