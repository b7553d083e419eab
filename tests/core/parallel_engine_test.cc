// Thread-parity suite for the root-sharded parallel engine (DESIGN.md §6):
// untruncated mining output — patterns AND summed stats — must be
// byte-identical for 1, 2, 4, and 8 workers across all four miner
// configurations, truncation must propagate cooperatively with a
// first-writer-wins reason, and top-K ties at the k-th support must resolve
// canonically regardless of worker count.

#include "core/parallel_engine.h"

#include <algorithm>
#include <string>

#include "gtest/gtest.h"

#include "core/clogsgrow.h"
#include "core/gap_constrained.h"
#include "core/gsgrow.h"
#include "core/topk.h"
#include "datagen/models.h"
#include "datagen/quest_generator.h"
#include "test_util.h"

namespace gsgrow {
namespace {

SequenceDatabase QuestDatabase(uint64_t seed) {
  QuestParams params;
  params.num_sequences = 40;
  params.avg_sequence_length = 14;
  params.num_events = 9;
  params.avg_pattern_length = 4;
  params.num_potential_patterns = 10;
  params.seed = seed;
  return GenerateQuest(params);
}

// Byte-identical comparison of two mining results: identical pattern lists
// (records in the same order) and identical summed stats. elapsed_seconds is
// wall-clock and excluded by design.
void ExpectIdenticalResults(const MiningResult& a, const MiningResult& b,
                            const std::string& label) {
  EXPECT_EQ(a.patterns, b.patterns) << label;
  EXPECT_EQ(a.stats.patterns_found, b.stats.patterns_found) << label;
  EXPECT_EQ(a.stats.nodes_visited, b.stats.nodes_visited) << label;
  EXPECT_EQ(a.stats.insgrow_calls, b.stats.insgrow_calls) << label;
  EXPECT_EQ(a.stats.next_queries, b.stats.next_queries) << label;
  EXPECT_EQ(a.stats.closure_checks, b.stats.closure_checks) << label;
  EXPECT_EQ(a.stats.closure_regrow_events, b.stats.closure_regrow_events)
      << label;
  EXPECT_EQ(a.stats.max_depth, b.stats.max_depth) << label;
  EXPECT_EQ(a.stats.lb_pruned_subtrees, b.stats.lb_pruned_subtrees) << label;
  EXPECT_EQ(a.stats.nonclosed_suppressed, b.stats.nonclosed_suppressed)
      << label;
  EXPECT_EQ(a.stats.truncated, b.stats.truncated) << label;
  EXPECT_EQ(a.stats.truncated_reason, b.stats.truncated_reason) << label;
}

TEST(ParallelEngine, GSgrowParityAcrossThreadCounts) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SequenceDatabase db = QuestDatabase(seed);
    InvertedIndex index(db);
    MinerOptions options;
    options.min_support = 6;
    options.max_pattern_length = 5;
    MiningResult baseline = MineAllFrequent(index, options);
    ASSERT_FALSE(baseline.stats.truncated);
    for (size_t threads : {2u, 4u, 8u}) {
      options.num_threads = threads;
      ExpectIdenticalResults(baseline, MineAllFrequent(index, options),
                             "seed=" + std::to_string(seed) +
                                 " threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelEngine, CloGSgrowParityAcrossThreadCounts) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    SequenceDatabase db = QuestDatabase(seed);
    InvertedIndex index(db);
    MinerOptions options;
    options.min_support = 5;
    options.max_pattern_length = 6;
    MiningResult baseline = MineClosedFrequent(index, options);
    ASSERT_FALSE(baseline.stats.truncated);
    for (size_t threads : {2u, 4u, 8u}) {
      options.num_threads = threads;
      ExpectIdenticalResults(baseline, MineClosedFrequent(index, options),
                             "seed=" + std::to_string(seed) +
                                 " threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelEngine, GapConstrainedParityAcrossThreadCounts) {
  for (uint64_t seed : {21u, 22u}) {
    SequenceDatabase db = QuestDatabase(seed);
    LandmarkGapConstraint gap;
    gap.min_gap = 0;
    gap.max_gap = 2;
    MinerOptions options;
    options.min_support = 6;
    options.max_pattern_length = 4;
    MiningResult baseline = MineAllFrequentGapConstrained(db, options, gap);
    ASSERT_FALSE(baseline.stats.truncated);
    for (size_t threads : {2u, 4u, 8u}) {
      options.num_threads = threads;
      ExpectIdenticalResults(
          baseline, MineAllFrequentGapConstrained(db, options, gap),
          "seed=" + std::to_string(seed) +
              " threads=" + std::to_string(threads));
    }
  }
}

// Every worker owns its own per-node list table; sharing one would race
// and mix rows of different nodes. Sweep the inputs that stress the table
// — tcas-like loop traces, a snapshot with empty sequences (null blocks),
// an event-alphabet restriction, top-K, and gap constraints — at 1, 2 and
// 4 workers.
TEST(ParallelEngine, ListTableShapesParityAcrossThreadCounts) {
  const SequenceDatabase tcas = GenerateTcasTraces(20, 3);
  const InvertedIndex batch(tcas);
  const InvertedIndex snapshot = testing::SnapshotWithEmptySequences(tcas, 3);
  MinerOptions options;
  options.min_support = 10;
  const MiningResult closed = MineClosedFrequent(batch, options);
  MinerOptions restricted = options;
  restricted.restrict_alphabet = testing::TwoThirdsAlphabet(batch);
  const MiningResult closed_restricted = MineClosedFrequent(batch, restricted);
  LandmarkGapConstraint gap;
  gap.max_gap = 3;
  MinerOptions gapped;
  gapped.min_support = 8;
  gapped.max_pattern_length = 4;
  const MiningResult gap_all = MineAllFrequentGapConstrained(tcas, gapped, gap);
  TopKOptions topk;
  topk.k = 8;
  topk.min_length = 2;
  topk.max_pattern_length = 6;
  const std::vector<PatternRecord> top = MineTopKClosed(tcas, topk);
  ASSERT_FALSE(closed.stats.truncated);
  ASSERT_FALSE(top.empty());
  for (size_t threads : {1u, 2u, 4u}) {
    const std::string label = "threads=" + std::to_string(threads);
    options.num_threads = threads;
    restricted.num_threads = threads;
    gapped.num_threads = threads;
    topk.num_threads = threads;
    ExpectIdenticalResults(closed, MineClosedFrequent(snapshot, options),
                           "tcas closed snapshot " + label);
    if (threads == 1) continue;  // the baselines are the 1-worker runs
    ExpectIdenticalResults(closed, MineClosedFrequent(batch, options),
                           "tcas closed " + label);
    ExpectIdenticalResults(closed_restricted,
                           MineClosedFrequent(batch, restricted),
                           "tcas closed restricted " + label);
    ExpectIdenticalResults(gap_all,
                           MineAllFrequentGapConstrained(tcas, gapped, gap),
                           "tcas gap " + label);
    EXPECT_EQ(top, MineTopKClosed(tcas, topk)) << "tcas topk " << label;
  }
}

TEST(ParallelEngine, TopKParityAcrossThreadCounts) {
  for (uint64_t seed : {31u, 32u}) {
    SequenceDatabase db = QuestDatabase(seed);
    TopKOptions options;
    options.k = 7;
    options.min_length = 2;
    options.max_pattern_length = 5;
    std::vector<PatternRecord> baseline = MineTopKClosed(db, options);
    for (size_t threads : {2u, 4u, 8u}) {
      options.num_threads = threads;
      EXPECT_EQ(baseline, MineTopKClosed(db, options))
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

// Acceptance criterion of the annotation layer (DESIGN.md §7): ANNOTATED
// output — records including their Table-I annotation blocks, which
// PatternRecord equality covers — is byte-identical at 1, 2, and 8 workers.
// Annotations are a pure function of (pattern, database, selection), so the
// canonical merge needs no annotation-specific logic; this pins that.
TEST(ParallelEngine, AnnotatedParityAcrossThreadCounts) {
  for (uint64_t seed : {14u, 15u}) {
    SequenceDatabase db = QuestDatabase(seed);
    InvertedIndex index(db);
    MinerOptions options;
    options.min_support = 5;
    options.max_pattern_length = 5;
    options.semantics = SemanticsOptions::All(/*window_width=*/6,
                                              /*min_gap=*/0, /*max_gap=*/3);
    MiningResult closed_baseline = MineClosedFrequent(index, options);
    MiningResult all_baseline = MineAllFrequent(index, options);
    ASSERT_FALSE(closed_baseline.stats.truncated);
    for (const PatternRecord& r : closed_baseline.patterns) {
      ASSERT_FALSE(r.annotations.empty());
    }
    for (size_t threads : {2u, 8u}) {
      options.num_threads = threads;
      ExpectIdenticalResults(closed_baseline, MineClosedFrequent(index, options),
                             "annotated closed seed=" + std::to_string(seed) +
                                 " threads=" + std::to_string(threads));
      ExpectIdenticalResults(all_baseline, MineAllFrequent(index, options),
                             "annotated all seed=" + std::to_string(seed) +
                                 " threads=" + std::to_string(threads));
    }
  }
}

// Annotated top-K: the shared support floor and WouldKeep-gated annotation
// must not disturb the kept set, and every kept record carries its block at
// any worker count.
TEST(ParallelEngine, AnnotatedTopKParityAcrossThreadCounts) {
  SequenceDatabase db = QuestDatabase(16);
  TopKOptions options;
  options.k = 6;
  options.min_length = 2;
  options.max_pattern_length = 5;
  options.semantics.sequence_count = true;
  options.semantics.iterative = true;
  std::vector<PatternRecord> baseline = MineTopKClosed(db, options);
  ASSERT_FALSE(baseline.empty());
  for (const PatternRecord& r : baseline) {
    EXPECT_EQ(r.annotations.values.size(), 2u);
  }
  for (size_t threads : {2u, 8u}) {
    options.num_threads = threads;
    EXPECT_EQ(baseline, MineTopKClosed(db, options)) << "threads=" << threads;
  }
}

TEST(ParallelEngine, CountOnlyStatsMatchAcrossThreadCounts) {
  SequenceDatabase db = QuestDatabase(41);
  InvertedIndex index(db);
  MinerOptions options;
  options.min_support = 5;
  options.max_pattern_length = 5;
  options.collect_patterns = false;
  MiningResult baseline = MineClosedFrequent(index, options);
  EXPECT_TRUE(baseline.patterns.empty());
  options.num_threads = 8;
  ExpectIdenticalResults(baseline, MineClosedFrequent(index, options),
                         "count-only");
}

// Satellite: the canonical output order (lexicographic on events, then
// support) is pinned for the single-threaded engine, survives truncation,
// and is what the parallel merge restores.
TEST(ParallelEngine, PatternsAreInCanonicalOrder) {
  SequenceDatabase db = QuestDatabase(51);
  for (size_t threads : {1u, 8u}) {
    MinerOptions options;
    options.min_support = 5;
    options.max_pattern_length = 5;
    options.num_threads = threads;
    for (bool truncate : {false, true}) {
      if (truncate) options.max_patterns = 25;
      MiningResult all = MineAllFrequent(db, options);
      MiningResult closed = MineClosedFrequent(db, options);
      EXPECT_TRUE(std::is_sorted(all.patterns.begin(), all.patterns.end(),
                                 CanonicalPatternLess))
          << "threads=" << threads << " truncate=" << truncate;
      EXPECT_TRUE(std::is_sorted(closed.patterns.begin(),
                                 closed.patterns.end(), CanonicalPatternLess))
          << "threads=" << threads << " truncate=" << truncate;
    }
  }
}

TEST(ParallelEngine, MaxPatternsTruncationPropagatesCooperatively) {
  SequenceDatabase db = QuestDatabase(61);
  InvertedIndex index(db);
  MinerOptions options;
  options.min_support = 4;
  options.max_patterns = 10;
  for (size_t threads : {1u, 2u, 8u}) {
    options.num_threads = threads;
    MiningResult result = MineAllFrequent(index, options);
    EXPECT_TRUE(result.stats.truncated) << "threads=" << threads;
    EXPECT_EQ(result.stats.truncated_reason, "max_patterns")
        << "threads=" << threads;
    // Every worker halts at its first emission at-or-past the global cap,
    // so the overshoot is bounded by the number of workers.
    EXPECT_GE(result.stats.patterns_found, options.max_patterns)
        << "threads=" << threads;
    EXPECT_LE(result.stats.patterns_found, options.max_patterns + threads - 1)
        << "threads=" << threads;
    EXPECT_EQ(result.patterns.size(), result.stats.patterns_found)
        << "threads=" << threads;
  }
}

TEST(ParallelEngine, TimeBudgetTruncationPropagatesCooperatively) {
  // A corpus big enough that mining cannot finish within a microscopic
  // budget; every worker must observe the shared deadline and stop with the
  // first-writer's reason.
  QuestParams params;
  params.num_sequences = 120;
  params.avg_sequence_length = 30;
  params.num_events = 12;
  params.seed = 71;
  SequenceDatabase db = GenerateQuest(params);
  InvertedIndex index(db);
  MinerOptions options;
  options.min_support = 2;
  options.time_budget_seconds = 1e-4;
  for (size_t threads : {1u, 8u}) {
    options.num_threads = threads;
    MiningResult result = MineClosedFrequent(index, options);
    EXPECT_TRUE(result.stats.truncated) << "threads=" << threads;
    EXPECT_EQ(result.stats.truncated_reason, "time_budget")
        << "threads=" << threads;
  }
}

TEST(ParallelEngine, TruncationReasonIsFirstWriterWins) {
  // Both causes armed: whichever fires first is reported, and the merged
  // reason is one stable value (never a concatenation or a race).
  SequenceDatabase db = QuestDatabase(81);
  MinerOptions options;
  options.min_support = 4;
  options.max_patterns = 5;
  options.time_budget_seconds = 1e-5;
  options.num_threads = 8;
  MiningResult result = MineAllFrequent(db, options);
  EXPECT_TRUE(result.stats.truncated);
  EXPECT_TRUE(result.stats.truncated_reason == "max_patterns" ||
              result.stats.truncated_reason == "time_budget")
      << result.stats.truncated_reason;
}

// Satellite regression: many patterns tying at the k-th support. The kept
// set must be the canonically smallest patterns of the tie group — never a
// function of heap insertion order or of which worker found them first.
TEST(ParallelEngine, TopKTieBreakAtSupportFloorIsCanonical) {
  // Eight disjoint single-event "worlds", each with support exactly 3.
  SequenceDatabase db = MakeDatabaseFromStrings(
      {"AAA", "BBB", "CCC", "DDD", "EEE", "FFF", "GGG", "HHH"});
  TopKOptions options;
  options.k = 4;
  for (size_t threads : {1u, 2u, 8u}) {
    options.num_threads = threads;
    std::vector<PatternRecord> top = MineTopKClosed(db, options);
    ASSERT_EQ(top.size(), 4u) << "threads=" << threads;
    const char* expected[] = {"A", "B", "C", "D"};
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].pattern.ToCompactString(db.dictionary()), expected[i])
          << "threads=" << threads << " i=" << i;
      EXPECT_EQ(top[i].support, 3u) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelEngine, HardwareThreadCountResolution) {
  EXPECT_GE(ResolveNumThreads(0), 1u);
  EXPECT_EQ(ResolveNumThreads(3), 3u);
  // num_threads = 0 must mine correctly (resolved to hardware concurrency).
  SequenceDatabase db = QuestDatabase(91);
  MinerOptions options;
  options.min_support = 6;
  options.max_pattern_length = 4;
  MiningResult baseline = MineAllFrequent(db, options);
  options.num_threads = 0;
  ExpectIdenticalResults(baseline, MineAllFrequent(db, options),
                         "hardware threads");
}

// More workers than roots: surplus workers find the dispenser exhausted and
// exit cleanly with empty results.
TEST(ParallelEngine, MoreThreadsThanRoots) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABAB", "BABA"});
  MinerOptions options;
  options.min_support = 2;
  options.num_threads = 16;
  MiningResult parallel = MineAllFrequent(db, options);
  options.num_threads = 1;
  ExpectIdenticalResults(MineAllFrequent(db, options), parallel,
                         "tiny corpus");
}

}  // namespace
}  // namespace gsgrow
