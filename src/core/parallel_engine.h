// Root-sharded parallel mining (DESIGN.md §6) — the ROADMAP "Scale" item.
//
// The GrowthEngine's root loop is embarrassingly parallel: every frequent
// length-1 pattern owns an independent DFS subtree (extension state, closure
// checks, and emission for a pattern depend only on the pattern's own
// prefix-set stack, which lives on one worker's stack). MineSharded runs one
// single-threaded GrowthEngine per worker, all claiming roots from a shared
// dispenser (SharedRunState::next_root), then merges the per-worker
// MiningResults:
//
//  * patterns — each root's subtree is explored by exactly one worker, so
//    shard outputs are disjoint; concatenation plus the sink's canonical
//    order (CanonicalPatternLess for collected output, TopKSink::Better for
//    top-K) makes the merged list byte-identical at any thread count;
//  * stats — per-subtree counters are independent of the worker that ran
//    them, so the sums are thread-count invariant too (max_depth maxes,
//    elapsed_seconds is the parallel wall-clock, not the sum);
//  * truncation — a cooperative stop flag (CooperativeStop) propagates
//    max_patterns / time_budget across workers with a first-writer-wins
//    reason;
//  * top-K — workers keep private K-bounded heaps and share a monotone
//    atomic support floor; MergeTopKPatterns proves below why the merged
//    heaps contain the exact global top-K.
//
// Workers allocate their own engine scratch, closure arenas, and sinks;
// the only shared mutable state is the handful of atomics in
// SharedRunState. The index, database, and options are read-only.

#ifndef GSGROW_CORE_PARALLEL_ENGINE_H_
#define GSGROW_CORE_PARALLEL_ENGINE_H_

#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#include "core/growth_engine.h"
#include "core/miner_options.h"
#include "core/mining_result.h"
#include "util/timer.h"

namespace gsgrow {

/// Worker count for a run: `requested`, with 0 meaning one worker per
/// hardware thread (at least 1).
size_t ResolveNumThreads(size_t requested);

/// Adds one worker's counters into `total`: counts sum, max_depth maxes.
/// `truncated`, `truncated_reason`, and `elapsed_seconds` are owned by the
/// merging caller and left untouched.
void AccumulateStats(const MiningStats& worker, MiningStats* total);

/// Restores the canonical collected order over concatenated shard outputs.
/// Shards are disjoint (each root belongs to exactly one worker), so this
/// loses nothing and duplicates nothing.
std::vector<PatternRecord> MergeCollectedPatterns(
    std::vector<std::vector<PatternRecord>> shards);

/// Best-K selection over the union of per-worker top-K heaps, under
/// TopKSink::Better (support desc, pattern asc). Exact: a pattern of the
/// true global top-K has fewer than K better patterns globally, hence fewer
/// than K better within its own worker, hence it survives in that worker's
/// heap; and every kept record is a genuinely emitted pattern, so selecting
/// the best K of the union yields exactly the global top-K. Ties at the
/// k-th support resolve by the canonical pattern order — never by heap
/// insertion or worker finish order.
std::vector<PatternRecord> MergeTopKPatterns(
    std::vector<std::vector<PatternRecord>> shards, size_t k);

/// Runs `fn(w)` for every worker w in [0, n): inline on the calling thread
/// when n == 1, otherwise on n spawned threads, all joined before
/// returning. The one place under src/ that starts threads
/// (tools/check_invariants.py, rule `thread-spawn`).
template <typename WorkerFn>
void RunWorkers(size_t n, WorkerFn fn) {
  if (n == 1) {
    fn(size_t{0});
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t w = 0; w < n; ++w) threads.emplace_back([&fn, w] { fn(w); });
  for (std::thread& thread : threads) thread.join();
}

/// Runs `make_engine(state)` once per worker (options.num_threads workers,
/// resolved via ResolveNumThreads) against one SharedRunState, then merges
/// patterns with `merge_patterns(shards)` and stats as described above.
/// With one worker no thread is spawned — the engine runs inline, making
/// num_threads=1 exactly the classic single-threaded behavior.
///
/// `make_engine` must return a ready-to-Run GrowthEngine whose policies and
/// sink are freshly constructed per call (workers must not share scratch);
/// everything it captures must outlive the call.
template <typename EngineFactory, typename PatternMerger>
MiningResult MineSharded(const MinerOptions& options,
                         EngineFactory make_engine,
                         PatternMerger merge_patterns) {
  const size_t num_threads = ResolveNumThreads(options.num_threads);
  WallTimer timer;
  SharedRunState state(options);
  std::vector<MiningResult> results(num_threads);
  RunWorkers(num_threads, [&make_engine, &state, &results](size_t w) {
    results[w] = make_engine(state).Run();
  });

  MiningResult merged;
  std::vector<std::vector<PatternRecord>> shards;
  shards.reserve(results.size());
  for (MiningResult& r : results) {
    AccumulateStats(r.stats, &merged.stats);
    shards.push_back(std::move(r.patterns));
  }
  merged.patterns = merge_patterns(std::move(shards));
  if (state.stop.stopped()) {
    merged.stats.truncated = true;
    merged.stats.truncated_reason = state.stop.reason();
  }
  merged.stats.elapsed_seconds = timer.ElapsedSeconds();
  return merged;
}

}  // namespace gsgrow

#endif  // GSGROW_CORE_PARALLEL_ENGINE_H_
