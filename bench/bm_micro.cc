// Micro-benchmarks (google-benchmark) for the core primitives of §III-D:
// inverted-index construction, next() queries (binary-search point queries
// vs the galloping PositionCursor), root instance sets, INSgrow steps
// (cursor-based scratch-buffer fast path vs the pre-cursor reference), one
// DFS node's append-extension loop (list table build + one INSgrow per
// candidate), one CloGSgrow closure check (memoized vs seed path), and
// whole supComp runs as pattern length grows.
//
// The INSgrow and closure-check pairs are the measured halves of the
// ablation acceptance: BM_INSgrow* vs BM_INSgrow*Reference is the
// INSgrow-throughput claim, BM_ClosureCheckMemoized vs BM_ClosureCheckSeed
// the per-node closure-check claim (see DESIGN.md §5). The
// BM_AppendExtension* rows time the engine's per-node append loop on a
// tcas-like node (runs of 1-2 instances) and a Quest root node (most
// candidates absent from most sequences) — the two shapes the per-node
// list table was built for.

#include <benchmark/benchmark.h>

#include "core/clogsgrow.h"
#include "core/growth_engine.h"
#include "core/instance_growth.h"
#include "core/inverted_index.h"
#include "core/miner_options.h"
#include "core/node_list_table.h"
#include "datagen/models.h"
#include "datagen/quest_generator.h"

namespace gsgrow {
namespace {

const SequenceDatabase& TestDb() {
  static SequenceDatabase* db = [] {
    QuestParams params;
    params.num_sequences = 2000;
    params.avg_sequence_length = 50;
    params.num_events = 500;
    params.avg_pattern_length = 10;
    params.seed = 5;
    return new SequenceDatabase(GenerateQuest(params));
  }();
  return *db;
}

const InvertedIndex& TestIndex() {
  static InvertedIndex* index = new InvertedIndex(TestDb());
  return *index;
}

// Dense corpus: small alphabet over long sequences, so per-(sequence,
// event) position lists are long and support sets carry many instances per
// sequence run — the regime the cursor's run-resolved galloping targets
// (and the shape of the closure-heavy ablation config).
const SequenceDatabase& DenseDb() {
  static SequenceDatabase* db = [] {
    QuestParams params;
    params.num_sequences = 1000;
    params.avg_sequence_length = 100;
    params.num_events = 25;
    params.avg_pattern_length = 8;
    params.seed = 7;
    return new SequenceDatabase(GenerateQuest(params));
  }();
  return *db;
}

const InvertedIndex& DenseIndex() {
  static InvertedIndex* index = new InvertedIndex(DenseDb());
  return *index;
}

// Long-list corpus: one multi-thousand-event sequence over a 5-event
// alphabet, so each (sequence, event) list holds ~8000 positions — the
// regime where the cursor's gallop covers long strides.
const SequenceDatabase& LongDb() {
  static SequenceDatabase* db = [] {
    std::vector<EventId> events;
    events.reserve(40000);
    uint64_t x = 88172645463325252ull;  // xorshift64 — deterministic stream
    for (int i = 0; i < 40000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      events.push_back(static_cast<EventId>(x % 5));
    }
    std::vector<Sequence> sequences;
    sequences.emplace_back(std::move(events));
    return new SequenceDatabase(std::move(sequences));
  }();
  return *db;
}

const InvertedIndex& LongIndex() {
  static InvertedIndex* index = new InvertedIndex(LongDb());
  return *index;
}

// tcas-like loop traces at the benchmark's batch shape (200 traces, closed
// mining at min_sup 75): few closed nodes, runs of 1-2 instances per
// sequence, many next() queries per node.
const SequenceDatabase& TcasDb() {
  static SequenceDatabase* db =
      new SequenceDatabase(GenerateTcasTraces(200, 3));
  return *db;
}

const InvertedIndex& TcasIndex() {
  static InvertedIndex* index = new InvertedIndex(TcasDb());
  return *index;
}

constexpr uint64_t kTcasMinSupport = 75;

// Most frequent events of a corpus, for stable pattern construction.
std::vector<EventId> TopEvents(const InvertedIndex& index, size_t k) {
  std::vector<EventId> events(index.present_events().begin(),
                              index.present_events().end());
  std::sort(events.begin(), events.end(), [&](EventId a, EventId b) {
    return index.TotalCount(a) > index.TotalCount(b);
  });
  events.resize(std::min(k, events.size()));
  return events;
}

void BM_IndexBuild(benchmark::State& state) {
  const SequenceDatabase& db = TestDb();
  for (auto _ : state) {
    InvertedIndex index(db);
    benchmark::DoNotOptimize(index.alphabet_size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(db.Stats().total_length));
}
BENCHMARK(BM_IndexBuild);

void BM_NextQuery(benchmark::State& state) {
  const InvertedIndex& index = TestIndex();
  EventId e = TopEvents(index, 1)[0];
  SeqId seq = index.Postings(e)[0].seq;
  Position p = 0;
  for (auto _ : state) {
    Position next = index.NextAtOrAfter(seq, e, p);
    p = (next == kNoPosition) ? 0 : next + 1;
    benchmark::DoNotOptimize(next);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NextQuery);

// The same rising-bound query stream answered by one PositionCursor per
// sweep: the event slot is resolved once and queries gallop forward. The
// sweep runs over the LONGEST position list of the corpus's most frequent
// event, not a degenerate short list.
void NextQueryCursor(benchmark::State& state, const InvertedIndex& index) {
  EventId e = TopEvents(index, 1)[0];
  SeqId seq = index.Postings(e)[0].seq;
  for (const auto& posting : index.Postings(e)) {
    if (index.Count(posting.seq, e) > index.Count(seq, e)) seq = posting.seq;
  }
  PositionCursor cursor = index.Cursor(seq, e);
  Position p = 0;
  for (auto _ : state) {
    Position next = cursor.NextAtOrAfter(p);
    if (next == kNoPosition) {
      cursor = index.Cursor(seq, e);
      p = 0;
      next = cursor.NextAtOrAfter(p);
    }
    p = next + 1;
    benchmark::DoNotOptimize(next);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_NextQueryCursor(benchmark::State& state) {
  NextQueryCursor(state, TestIndex());
}
BENCHMARK(BM_NextQueryCursor);

void BM_NextQueryCursorDense(benchmark::State& state) {
  NextQueryCursor(state, DenseIndex());
}
BENCHMARK(BM_NextQueryCursorDense);

void BM_NextQueryCursorLong(benchmark::State& state) {
  NextQueryCursor(state, LongIndex());
}
BENCHMARK(BM_NextQueryCursorLong);

// Rising-bound queries with a large stride: every query gallops past
// hundreds of positions.
void NextQueryCursorSkip(benchmark::State& state,
                         const InvertedIndex& index) {
  EventId e = TopEvents(index, 1)[0];
  SeqId seq = index.Postings(e)[0].seq;
  for (const auto& posting : index.Postings(e)) {
    if (index.Count(posting.seq, e) > index.Count(seq, e)) seq = posting.seq;
  }
  const Position limit = index.SequenceLength(seq);
  PositionCursor cursor = index.Cursor(seq, e);
  Position p = 0;
  for (auto _ : state) {
    Position next = cursor.NextAtOrAfter(p);
    if (next == kNoPosition) {
      cursor = index.Cursor(seq, e);
      p = 0;
      next = cursor.NextAtOrAfter(p);
    }
    p = (next + 997 < limit) ? next + 997 : limit;
    benchmark::DoNotOptimize(next);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_NextQueryCursorSkipLong(benchmark::State& state) {
  NextQueryCursorSkip(state, LongIndex());
}
BENCHMARK(BM_NextQueryCursorSkipLong);

void BM_RootInstances(benchmark::State& state) {
  const InvertedIndex& index = TestIndex();
  EventId e = TopEvents(index, 1)[0];
  for (auto _ : state) {
    SupportSet set = RootInstances(index, e);
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RootInstances);

// One INSgrow step through the production hot path: cursor-based queries
// into a reused scratch buffer (zero steady-state allocations).
void INSgrowFast(benchmark::State& state, const InvertedIndex& index) {
  std::vector<EventId> top = TopEvents(index, 2);
  SupportSet base = RootInstances(index, top[0]);
  SupportSet scratch;
  uint64_t queries = 0;
  for (auto _ : state) {
    GrowSupportSetInto(index, base, top[1], scratch, &queries);
    benchmark::DoNotOptimize(scratch.size());
  }
  // Items = instances scanned per growth.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(base.size()));
}

// The pre-cursor INSgrow: a full binary search per next() query, fresh
// allocation per growth — the seed baseline the fast path is measured
// against.
void INSgrowReference(benchmark::State& state, const InvertedIndex& index) {
  std::vector<EventId> top = TopEvents(index, 2);
  SupportSet base = RootInstances(index, top[0]);
  for (auto _ : state) {
    SupportSet grown = GrowSupportSetReference(index, base, top[1]);
    benchmark::DoNotOptimize(grown.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(base.size()));
}

void BM_INSgrow(benchmark::State& state) { INSgrowFast(state, TestIndex()); }
BENCHMARK(BM_INSgrow);

void BM_INSgrowReference(benchmark::State& state) {
  INSgrowReference(state, TestIndex());
}
BENCHMARK(BM_INSgrowReference);

void BM_INSgrowDense(benchmark::State& state) {
  INSgrowFast(state, DenseIndex());
}
BENCHMARK(BM_INSgrowDense);

void BM_INSgrowDenseReference(benchmark::State& state) {
  INSgrowReference(state, DenseIndex());
}
BENCHMARK(BM_INSgrowDenseReference);

// One DFS node, materialized the way the engine holds it: the prefix
// support sets of `pattern` and their supports.
struct BenchNode {
  std::vector<EventId> pattern;
  std::vector<SupportSet> prefix_sets;
  std::vector<uint64_t> supports;
  MiningStats stats;
  NodeListTable lists;

  BenchNode(const InvertedIndex& index, std::vector<EventId> events)
      : pattern(std::move(events)) {
    for (size_t j = 1; j <= pattern.size(); ++j) {
      SupportSet set = ComputeSupportSet(
          index, Pattern(std::vector<EventId>(pattern.begin(),
                                              pattern.begin() + j)));
      supports.push_back(set.size());
      prefix_sets.push_back(std::move(set));
    }
  }

  GrowthNode View() {
    return GrowthNode{pattern, prefix_sets, supports, stats, nullptr, &lists};
  }
};

// A closed length-4 pattern of the tcas-like corpus — the longest-running
// closure check shape there: no equal-support extension exists, so the
// scan covers every (gap, candidate) pair. Picked deterministically as the
// highest-support closed pattern of length 4.
std::vector<EventId> TcasClosedPattern() {
  MinerOptions options;
  options.min_support = kTcasMinSupport;
  options.max_pattern_length = 4;
  const MiningResult closed = MineClosedFrequent(TcasIndex(), options);
  const PatternRecord* best = nullptr;
  for (const PatternRecord& r : closed.patterns) {
    if (r.pattern.size() != 4) continue;
    if (best == nullptr || r.support > best->support) best = &r;
  }
  return best == nullptr ? std::vector<EventId>{} : best->pattern.events();
}

// One node's append-extension loop, as the engine runs it: reset the list
// table to the node's rows, resolve the candidate columns, and grow the
// node's support set by every candidate.
void AppendExtension(benchmark::State& state, const InvertedIndex& index,
                     std::vector<EventId> pattern,
                     const std::vector<EventId>& candidates) {
  if (pattern.empty() || candidates.empty()) {
    state.SkipWithError("no node to extend");
    return;
  }
  BenchNode node(index, std::move(pattern));
  UnconstrainedExtension extension(index);
  GrownChild child;
  for (auto _ : state) {
    node.lists.Reset(index, node.prefix_sets.back());
    node.lists.AddColumns(candidates);
    node.lists.Build();
    const GrowthNode view = node.View();
    for (EventId e : candidates) {
      extension.ExtendInto(view, e, child);
      benchmark::DoNotOptimize(child.support);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(candidates.size()));
  state.counters["next_queries_per_node"] =
      static_cast<double>(node.stats.next_queries) /
      static_cast<double>(state.iterations());
}

// Events frequent enough to be append candidates at `min_support`.
std::vector<EventId> FrequentEvents(const InvertedIndex& index,
                                    uint64_t min_support) {
  std::vector<EventId> events;
  for (EventId e : index.present_events()) {
    if (index.TotalCount(e) >= min_support) events.push_back(e);
  }
  return events;
}

void BM_AppendExtensionTcas(benchmark::State& state) {
  const InvertedIndex& index = TcasIndex();
  AppendExtension(state, index, TcasClosedPattern(),
                  FrequentEvents(index, kTcasMinSupport));
}
BENCHMARK(BM_AppendExtensionTcas);

// A Quest root: the most frequent event of the sparse corpus, extended by
// every event frequent at a 1% threshold.
void BM_AppendExtensionQuest(benchmark::State& state) {
  const InvertedIndex& index = TestIndex();
  AppendExtension(state, index, {TopEvents(index, 1)[0]},
                  FrequentEvents(index, TestDb().size() / 100));
}
BENCHMARK(BM_AppendExtensionQuest);

// One full CloGSgrow closure check (CCheck + LBCheck scan) on a closed node
// of the tcas-like corpus, including the per-node preparation the engine
// does before it (list table rows, candidate filter, column resolution).
void ClosureCheck(benchmark::State& state, bool memoized) {
  const InvertedIndex& index = TcasIndex();
  std::vector<EventId> pattern = TcasClosedPattern();
  if (pattern.empty()) {
    state.SkipWithError("no closed length-4 pattern in the tcas corpus");
    return;
  }
  BenchNode node(index, std::move(pattern));
  MinerOptions options;
  options.use_memoized_closure = memoized;
  ClosurePruning pruning(index, options);
  for (auto _ : state) {
    const GrowthNode view = node.View();
    node.lists.Reset(index, node.prefix_sets.back());
    pruning.PrepareNode(view, node.lists);
    node.lists.Build();
    EmitDecision decision = pruning.Decide(view, false);
    benchmark::DoNotOptimize(decision.emit);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ClosureCheckMemoized(benchmark::State& state) {
  ClosureCheck(state, true);
}
BENCHMARK(BM_ClosureCheckMemoized);

void BM_ClosureCheckSeed(benchmark::State& state) {
  ClosureCheck(state, false);
}
BENCHMARK(BM_ClosureCheckSeed);

void BM_SupComp(benchmark::State& state) {
  const InvertedIndex& index = TestIndex();
  const size_t len = static_cast<size_t>(state.range(0));
  std::vector<EventId> top = TopEvents(index, 4);
  std::vector<EventId> events;
  for (size_t i = 0; i < len; ++i) events.push_back(top[i % top.size()]);
  Pattern pattern(events);
  for (auto _ : state) {
    uint64_t sup = ComputeSupport(index, pattern);
    benchmark::DoNotOptimize(sup);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(len));
}
BENCHMARK(BM_SupComp)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_FullSupportSet(benchmark::State& state) {
  const InvertedIndex& index = TestIndex();
  std::vector<EventId> top = TopEvents(index, 3);
  Pattern pattern({top[0], top[1], top[2]});
  for (auto _ : state) {
    auto set = ComputeFullSupportSet(index, pattern);
    benchmark::DoNotOptimize(set.size());
  }
}
BENCHMARK(BM_FullSupportSet);

}  // namespace
}  // namespace gsgrow

BENCHMARK_MAIN();
