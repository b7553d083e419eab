// The refactor's safety net: the policy-based GrowthEngine must agree with
// every way of computing the same answer — the miner facades, from-scratch
// supComp (ComputeSupportSet), and each policy combination that is supposed
// to be semantically equivalent to another.

#include "core/growth_engine.h"

#include <algorithm>
#include <map>

#include "gtest/gtest.h"

#include "core/clogsgrow.h"
#include "core/gap_constrained.h"
#include "core/gsgrow.h"
#include "core/instance_growth.h"
#include "core/topk.h"
#include "datagen/models.h"
#include "datagen/quest_generator.h"
#include "test_util.h"

namespace gsgrow {
namespace {

using testing::AsSet;
using testing::SnapshotWithEmptySequences;
using testing::TwoThirdsAlphabet;

// Small randomized corpora with heavy event reuse so patterns actually
// repeat (both across sequences and within one sequence).
SequenceDatabase QuestDatabase(uint64_t seed) {
  QuestParams params;
  params.num_sequences = 30;
  params.avg_sequence_length = 12;
  params.num_events = 8;
  params.avg_pattern_length = 4;
  params.num_potential_patterns = 10;
  params.seed = seed;
  return GenerateQuest(params);
}

// The append-extension oracle: grows every child with the allocating
// binary-search INSgrow (GrowSupportSetReference), one index lookup per
// query, never reading the engine's per-node list table.
class ReferenceExtension {
 public:
  static constexpr bool kSupportsCandidateList = true;

  explicit ReferenceExtension(const InvertedIndex& index) : index_(&index) {}

  std::vector<EventId> FrequentRoots(uint64_t min_support) const {
    std::vector<EventId> roots;
    for (EventId e : index_->present_events()) {
      if (index_->TotalCount(e) >= min_support) roots.push_back(e);
    }
    return roots;
  }

  GrownChild Root(EventId e) const {
    GrownChild child;
    child.set = RootInstances(*index_, e);
    child.support = child.set.size();
    return child;
  }

  void ExtendInto(const GrowthNode& node, EventId e, GrownChild& out) {
    out.set = GrowSupportSetReference(*index_, node.prefix_sets.back(), e);
    node.stats.insgrow_calls++;
    out.support = out.set.size();
  }

  const InvertedIndex& index() const { return *index_; }

 private:
  const InvertedIndex* index_;
};

// Closed mining through both oracles: the seed closure path
// (use_memoized_closure = false) over ReferenceExtension.
MiningResult MineClosedReference(const InvertedIndex& index,
                                 MinerOptions options) {
  options.use_memoized_closure = false;
  ReferenceExtension extension(index);
  ClosurePruning closure(index, options);
  return GrowthEngine(extension, closure, CollectSink(), options).Run();
}

// tcas-like loop traces (the shape of the benchmark's mine-traces
// workload): runs of 1-2 instances per sequence and long regrow chains.
SequenceDatabase TcasDatabase(uint32_t traces, uint64_t seed) {
  return GenerateTcasTraces(traces, seed);
}

// Runs the engine in the GSgrow configuration directly (no facade).
MiningResult RunEngineAllFrequent(const InvertedIndex& index,
                                  const MinerOptions& options) {
  UnconstrainedExtension extension(index);
  NoPruning pruning;
  return GrowthEngine(extension, pruning, CollectSink(), options).Run();
}

TEST(EngineParity, EngineEqualsGSgrowFacade) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SequenceDatabase db = QuestDatabase(seed);
    InvertedIndex index(db);
    MinerOptions options;
    options.min_support = 6;
    options.max_pattern_length = 5;
    EXPECT_EQ(AsSet(db, RunEngineAllFrequent(index, options).patterns),
              AsSet(db, MineAllFrequent(index, options).patterns))
        << "seed=" << seed;
  }
}

// "CloGSgrow with closure checks disabled" is exactly the engine with the
// closure policy swapped for NoPruning: it must emit every frequent
// pattern, i.e. the GSgrow output, and the closed output is its subset.
TEST(EngineParity, ClosureDisabledEqualsAllFrequent) {
  for (uint64_t seed : {10u, 11u, 12u, 13u}) {
    SequenceDatabase db = QuestDatabase(seed);
    InvertedIndex index(db);
    MinerOptions options;
    options.min_support = 6;
    options.max_pattern_length = 5;

    auto all = AsSet(db, RunEngineAllFrequent(index, options).patterns);

    UnconstrainedExtension extension(index);
    ClosurePruning closure(index, options);
    auto closed = AsSet(
        db,
        GrowthEngine(extension, closure, CollectSink(), options).Run().patterns);

    for (const auto& p : closed) {
      EXPECT_TRUE(all.count(p)) << "seed=" << seed << " " << p.first;
    }
    // Suppressed non-closed patterns are the only difference.
    EXPECT_LE(closed.size(), all.size());
  }
}

// Every emitted (pattern, support) pair must agree with supComp
// (Algorithm 1) run from scratch — the INSgrow-extended leftmost support
// sets the engine carries down the DFS cannot drift from the definition.
TEST(EngineParity, SupportsAgreeWithFromScratchComputeSupportSet) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    SequenceDatabase db = QuestDatabase(seed);
    InvertedIndex index(db);
    MinerOptions options;
    options.min_support = 5;
    options.max_pattern_length = 5;
    MiningResult result = RunEngineAllFrequent(index, options);
    ASSERT_FALSE(result.stats.truncated);
    for (const PatternRecord& r : result.patterns) {
      EXPECT_EQ(ComputeSupportSet(index, r.pattern).size(), r.support)
          << "seed=" << seed << " "
          << r.pattern.ToCompactString(db.dictionary());
    }
  }
}

// Completeness: breadth-first growth over supComp finds exactly the
// engine's pattern set (no DFS child is lost by the candidate-list or
// floor plumbing).
TEST(EngineParity, MatchesBreadthFirstEnumeration) {
  for (uint64_t seed : {31u, 32u}) {
    SequenceDatabase db = QuestDatabase(seed);
    InvertedIndex index(db);
    MinerOptions options;
    options.min_support = 8;
    options.max_pattern_length = 4;
    MiningResult result = RunEngineAllFrequent(index, options);

    std::vector<PatternRecord> expected;
    std::vector<Pattern> frontier = {Pattern()};
    for (size_t len = 0; len < 4; ++len) {
      std::vector<Pattern> next;
      for (const Pattern& p : frontier) {
        for (EventId e = 0; e < db.AlphabetSize(); ++e) {
          Pattern grown = p.Grow(e);
          uint64_t support = ComputeSupportSet(index, grown).size();
          if (support >= options.min_support) {
            expected.push_back({grown, support});
            next.push_back(std::move(grown));
          }
        }
      }
      frontier = std::move(next);
    }
    EXPECT_EQ(AsSet(db, result.patterns), AsSet(db, expected))
        << "seed=" << seed;
  }
}

// The TopKSink (bounded heap + rising support floor) must select exactly
// the prefix of the full closed output under the (support desc, pattern
// asc) order it claims to implement.
TEST(EngineParity, TopKSinkEqualsSortedClosedPrefix) {
  for (uint64_t seed : {41u, 42u, 43u}) {
    SequenceDatabase db = QuestDatabase(seed);
    InvertedIndex index(db);
    MinerOptions options;
    options.min_support = 4;
    options.max_pattern_length = 5;

    UnconstrainedExtension extension(index);
    ClosurePruning closure_full(index, options);
    MiningResult closed =
        GrowthEngine(extension, closure_full, CollectSink(), options).Run();
    std::sort(closed.patterns.begin(), closed.patterns.end(),
              [](const PatternRecord& a, const PatternRecord& b) {
                if (a.support != b.support) return a.support > b.support;
                return a.pattern < b.pattern;
              });

    for (size_t k : {1u, 3u, 7u}) {
      ClosurePruning closure(index, options);
      MiningResult topk =
          GrowthEngine(extension, closure, TopKSink(k, 1), options).Run();
      ASSERT_EQ(topk.patterns.size(),
                std::min(k, closed.patterns.size()));
      for (size_t i = 0; i < topk.patterns.size(); ++i) {
        EXPECT_EQ(topk.patterns[i], closed.patterns[i])
            << "seed=" << seed << " k=" << k << " i=" << i;
      }
    }
  }
}

// Decision-level agreement of the production path with both oracles:
// byte-identical output in the engine's emission order, and the same DFS
// shape and accounting. (The oracles issue their next() queries
// differently, so the work counters are pinned separately below.)
void ExpectSameDecisions(const MiningResult& memo, const MiningResult& ref,
                         const std::string& label) {
  EXPECT_EQ(memo.patterns, ref.patterns) << label;
  EXPECT_EQ(memo.stats.nodes_visited, ref.stats.nodes_visited) << label;
  EXPECT_EQ(memo.stats.lb_pruned_subtrees, ref.stats.lb_pruned_subtrees)
      << label;
  EXPECT_EQ(memo.stats.nonclosed_suppressed, ref.stats.nonclosed_suppressed)
      << label;
  EXPECT_EQ(memo.stats.closure_checks, ref.stats.closure_checks) << label;
  EXPECT_EQ(memo.stats.patterns_found, ref.stats.patterns_found) << label;
  EXPECT_EQ(memo.stats.max_depth, ref.stats.max_depth) << label;
  EXPECT_FALSE(memo.stats.truncated) << label;
}

// The memoized closure-check hot path (lazy restricted prefixes, fused
// per-sequence-count early exits, cursor-based regrowth over the per-node
// list table) must be decision-identical to the seed regrow path: byte-
// identical closed output in the engine's emission order, and the exact
// same DFS shape and accounting. The reference arm also swaps the append
// loop for GrowSupportSetReference, so neither half of it reads the list
// table.
TEST(EngineParity, MemoizedClosureMatchesSeedPath) {
  for (uint64_t seed : {61u, 62u, 63u, 64u, 65u, 66u, 67u, 68u}) {
    SequenceDatabase db = QuestDatabase(seed);
    InvertedIndex index(db);
    for (bool lb_pruning : {true, false}) {
      for (bool insert_filter : {true, false}) {
        MinerOptions memoized;
        memoized.min_support = 4 + seed % 3;
        memoized.max_pattern_length = 6;
        memoized.use_landmark_border_pruning = lb_pruning;
        memoized.use_insert_candidate_filter = insert_filter;
        memoized.use_memoized_closure = true;
        const std::string label =
            "seed=" + std::to_string(seed) +
            " lb=" + std::to_string(lb_pruning) +
            " filter=" + std::to_string(insert_filter);
        ExpectSameDecisions(MineClosedFrequent(index, memoized),
                            MineClosedReference(index, memoized), label);
      }
    }
  }
}

// The same agreement on the inputs the list table is most exposed to:
// tcas-like loop traces, a serve snapshot whose empty sequences have null
// blocks, an event-alphabet restriction (which shrinks the append and
// insert columns independently), and a dense corpus whose position lists
// are long enough for the cursors to gallop across many positions.
TEST(EngineParity, MemoizedClosureMatchesSeedPathOnListTableShapes) {
  for (uint64_t seed : {3u, 4u}) {
    SequenceDatabase db = TcasDatabase(20, seed);
    InvertedIndex batch(db);
    InvertedIndex snapshot = SnapshotWithEmptySequences(db, 3);
    MinerOptions options;
    options.min_support = 10;
    const std::string label = "tcas seed=" + std::to_string(seed);
    const MiningResult memo = MineClosedFrequent(batch, options);
    ASSERT_GT(memo.stats.closure_regrow_events, 0u) << label;
    ExpectSameDecisions(memo, MineClosedReference(batch, options), label);
    // The snapshot mines the same corpus: identical output and counters.
    const MiningResult from_snapshot = MineClosedFrequent(snapshot, options);
    ExpectSameDecisions(from_snapshot, MineClosedReference(snapshot, options),
                        label + " snapshot");
    EXPECT_EQ(from_snapshot.patterns, memo.patterns) << label;
    EXPECT_EQ(from_snapshot.stats.next_queries, memo.stats.next_queries)
        << label;

    MinerOptions restricted = options;
    restricted.restrict_alphabet = TwoThirdsAlphabet(batch);
    ExpectSameDecisions(MineClosedFrequent(batch, restricted),
                        MineClosedReference(batch, restricted),
                        label + " restricted");
  }
  for (uint64_t seed : {69u, 70u}) {
    SequenceDatabase db = QuestDatabase(seed);
    InvertedIndex snapshot = SnapshotWithEmptySequences(db, 2);
    MinerOptions options;
    options.min_support = 5;
    options.max_pattern_length = 6;
    options.restrict_alphabet = TwoThirdsAlphabet(snapshot);
    ExpectSameDecisions(MineClosedFrequent(snapshot, options),
                        MineClosedReference(snapshot, options),
                        "quest snapshot seed=" + std::to_string(seed));
  }
  {
    Rng rng(871);
    SequenceDatabase db = testing::RandomDatabase(&rng, 4, 100, 150, 6);
    InvertedIndex dense(db);
    MinerOptions options;
    options.min_support = 60;
    ExpectSameDecisions(MineClosedFrequent(dense, options),
                        MineClosedReference(dense, options), "dense");
  }
}

// The per-node list table changes where a position list comes from, not
// which next() queries are issued: on every miner configuration the work
// counters equal the values the per-step-lookup engine produced on the same
// inputs (pinned below, recorded from it). Fields: patterns_found,
// nodes_visited, insgrow_calls, next_queries, closure_checks,
// closure_regrow_events, lb_pruned_subtrees, nonclosed_suppressed,
// max_depth.
struct PinnedStats {
  const char* config;
  uint64_t values[9];
};

MiningResult RunPinnedConfig(const std::string& config) {
  MinerOptions options;
  if (config == "tcas20s3 closed") {
    options.min_support = 10;
    return MineClosedFrequent(InvertedIndex(TcasDatabase(20, 3)), options);
  }
  if (config == "tcas30s4 closed") {
    options.min_support = 11;
    return MineClosedFrequent(InvertedIndex(TcasDatabase(30, 4)), options);
  }
  if (config == "tcas30s3 closed events") {
    InvertedIndex index(TcasDatabase(30, 3));
    options.min_support = 15;
    options.restrict_alphabet = TwoThirdsAlphabet(index);
    return MineClosedFrequent(index, options);
  }
  if (config == "tcas20s4 closed snapshot") {
    options.min_support = 7;
    return MineClosedFrequent(
        SnapshotWithEmptySequences(TcasDatabase(20, 4), 3), options);
  }
  if (config == "tcas20s3 topk") {
    InvertedIndex index(TcasDatabase(20, 3));
    options.min_support = 4;
    options.max_pattern_length = 6;
    UnconstrainedExtension extension(index);
    ClosurePruning closure(index, options);
    return GrowthEngine(extension, closure, TopKSink(10, 2), options).Run();
  }
  if (config == "tcas20s4 gap") {
    options.min_support = 8;
    options.max_pattern_length = 5;
    LandmarkGapConstraint gap;
    gap.max_gap = 3;
    return MineAllFrequentGapConstrained(TcasDatabase(20, 4), options, gap);
  }
  if (config == "tcas20s4 all") {
    options.min_support = 10;
    options.max_pattern_length = 5;
    return MineAllFrequent(InvertedIndex(TcasDatabase(20, 4)), options);
  }
  if (config == "quest62 closed nolb") {
    options.min_support = 5;
    options.max_pattern_length = 6;
    options.use_landmark_border_pruning = false;
    return MineClosedFrequent(InvertedIndex(QuestDatabase(62)), options);
  }
  if (config == "quest63 closed nofilter") {
    options.min_support = 4;
    options.max_pattern_length = 6;
    options.use_insert_candidate_filter = false;
    return MineClosedFrequent(InvertedIndex(QuestDatabase(63)), options);
  }
  ADD_FAILURE() << "unknown config " << config;
  return {};
}

TEST(EngineParity, WorkCountersMatchPinnedValues) {
  const PinnedStats kPinned[] = {
      {"tcas20s3 closed",
       {136, 1436, 304228, 4456792, 1436, 292492, 1093, 207, 19}},
      {"tcas30s4 closed", {80, 783, 104834, 1183789, 783, 97983, 585, 118, 16}},
      {"tcas30s3 closed events",
       {70, 435, 29447, 560218, 435, 26468, 296, 69, 12}},
      {"tcas20s4 closed snapshot",
       {153, 1721, 369465, 3519163, 1721, 353082, 1323, 245, 21}},
      {"tcas20s3 topk", {8, 388, 26476, 284675, 388, 17780, 360, 20, 6}},
      {"tcas20s4 gap", {2098, 2098, 20370, 253463, 0, 0, 0, 0, 5}},
      {"tcas20s4 all", {17168, 17168, 49203, 654476, 0, 0, 0, 0, 5}},
      {"quest62 closed nolb",
       {1334, 1628, 38254, 256962, 1581, 32120, 0, 294, 6}},
      {"quest63 closed nofilter",
       {599, 866, 24196, 118882, 866, 20670, 222, 45, 6}},
  };
  for (const PinnedStats& pinned : kPinned) {
    const MiningResult result = RunPinnedConfig(pinned.config);
    const MiningStats& s = result.stats;
    const uint64_t got[9] = {s.patterns_found,
                             s.nodes_visited,
                             s.insgrow_calls,
                             s.next_queries,
                             s.closure_checks,
                             s.closure_regrow_events,
                             s.lb_pruned_subtrees,
                             s.nonclosed_suppressed,
                             s.max_depth};
    std::string row = std::string("{\"") + pinned.config + "\", {";
    for (size_t i = 0; i < 9; ++i) {
      row += (i > 0 ? ", " : "") + std::to_string(got[i]);
    }
    row += "}},";
    for (size_t i = 0; i < 9; ++i) {
      EXPECT_EQ(got[i], pinned.values[i])
          << pinned.config << " field " << i << "; actual row: " << row;
    }
  }
}

// The bounded-gap extension policy with an unconstrained gap must reduce to
// plain GSgrow (same patterns, same supports).
TEST(EngineParity, UnconstrainedGapPolicyEqualsGSgrow) {
  for (uint64_t seed : {51u, 52u}) {
    SequenceDatabase db = QuestDatabase(seed);
    MinerOptions options;
    options.min_support = 8;
    options.max_pattern_length = 4;
    MiningResult gapped =
        MineAllFrequentGapConstrained(db, options, LandmarkGapConstraint{});
    MiningResult plain = MineAllFrequent(db, options);
    EXPECT_EQ(AsSet(db, gapped.patterns), AsSet(db, plain.patterns))
        << "seed=" << seed;
  }
}

// Facade-level spot check: the four public miners still hang together after
// the migration (closed ⊆ all; top-K comes from the closed set).
TEST(EngineParity, FacadesAgreeOnQuestData) {
  SequenceDatabase db = QuestDatabase(99);
  MinerOptions options;
  options.min_support = 5;
  options.max_pattern_length = 5;
  auto all = AsSet(db, MineAllFrequent(db, options).patterns);
  MiningResult closed = MineClosedFrequent(db, options);
  std::map<Pattern, uint64_t> closed_by_pattern;
  for (const PatternRecord& r : closed.patterns) {
    EXPECT_TRUE(all.count({r.pattern.ToCompactString(db.dictionary()),
                           r.support}));
    closed_by_pattern[r.pattern] = r.support;
  }
  TopKOptions topk;
  topk.k = 5;
  topk.max_pattern_length = 5;
  for (const PatternRecord& r : MineTopKClosed(db, topk)) {
    auto it = closed_by_pattern.find(r.pattern);
    if (it != closed_by_pattern.end()) {
      EXPECT_EQ(it->second, r.support);
    }
  }
}

}  // namespace
}  // namespace gsgrow
