// The unified pattern-growth engine (DESIGN.md §0).
//
// GSgrow (Algorithm 3), CloGSgrow (Algorithm 4), gap-constrained mining and
// top-K mining all share one DFS skeleton: enumerate frequent root events,
// extend the current pattern's support-set state one event at a time,
// Apriori-filter the candidate events, and emit the frequent nodes. The
// GrowthEngine owns that skeleton exactly once, parameterized by three
// policies supplied at compile time:
//
//  * ExtensionPolicy — how a pattern's support-set state grows by one event
//    and what its support is. UnconstrainedExtension wraps INSgrow
//    (leftmost-is-maximum, Lemma 4); BoundedGapExtension uses the bounded-
//    gap next() queries of gap_constrained.h for its state and the exact
//    layered max-flow oracle for supports. The policy also declares whether
//    candidate-list inheritance is sound for its support measure
//    (kSupportsCandidateList; full Apriori fails under gap constraints).
//
//  * PruningPolicy — per-node emission/pruning decision. NoPruning emits
//    every frequent node (GSgrow). ClosurePruning implements CCheck
//    (Theorem 4) and LBCheck (Theorem 5): non-closed patterns are
//    suppressed but their subtrees still explored (Example 3.5), and
//    subtrees that provably contain no closed pattern are cut.
//
//  * EmissionSink — what happens to an emitted pattern. CollectSink
//    materializes PatternRecords, CountSink only lets the engine count,
//    TopKSink keeps a bounded best-K heap whose rising support floor
//    feeds back into the engine as an extra pruning threshold.
//
// Budgets (max_patterns, time, max_pattern_length) and MiningStats
// bookkeeping live in the engine so every miner reports them uniformly.

#ifndef GSGROW_CORE_GROWTH_ENGINE_H_
#define GSGROW_CORE_GROWTH_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/inverted_index.h"
#include "core/miner_options.h"
#include "core/mining_result.h"
#include "core/node_list_table.h"
#include "core/pattern.h"
#include "core/reference.h"
#include "core/sequence_database.h"
#include "core/types.h"
#include "util/timer.h"

namespace gsgrow {

// ---------------------------------------------------------------------------
// Shared run coordination (DESIGN.md §6)
// ---------------------------------------------------------------------------

/// Cooperative stop shared by every worker of one mining run. Any worker may
/// request a stop; the FIRST recorded reason wins, so a run truncated by the
/// time budget on one worker and by max_patterns on another reports one
/// deterministic-enough cause instead of whichever worker finished last.
/// Reasons must be string literals (static storage) — only the pointer is
/// stored.
class CooperativeStop {
 public:
  bool stopped() const { return stopped_.load(std::memory_order_relaxed); }

  void RequestStop(const char* reason) {
    const char* expected = nullptr;
    reason_.compare_exchange_strong(expected, reason,
                                    std::memory_order_relaxed);
    stopped_.store(true, std::memory_order_release);
  }

  /// The first recorded reason; "" while not stopped.
  const char* reason() const {
    const char* r = reason_.load(std::memory_order_acquire);
    return r == nullptr ? "" : r;
  }

 private:
  // Deliberately lock-free (no GSGROW_GUARDED_BY mutex): every worker polls
  // stopped() inside its closure-check loops, so a lock here would serialize
  // the whole run. The asserts make the lock-freedom a checked property
  // rather than a hope (DESIGN.md §11).
  static_assert(std::atomic<bool>::is_always_lock_free,
                "CooperativeStop::stopped_ must be lock-free");
  static_assert(std::atomic<const char*>::is_always_lock_free,
                "CooperativeStop::reason_ must be lock-free");
  std::atomic<bool> stopped_{false};
  std::atomic<const char*> reason_{nullptr};
};

/// Coordination state for one mining run, shared by all of its workers.
/// Single-threaded runs own a private instance; ParallelGrowthEngine
/// (parallel_engine.h) hands the same instance to every worker.
struct SharedRunState {
  explicit SharedRunState(const MinerOptions& options)
      : budget(options.time_budget_seconds) {}

  /// Root-claim cursor: each worker repeatedly claims the next unclaimed
  /// index into the frequent-root list. Every root subtree is explored by
  /// exactly one worker, so merged patterns and summed per-subtree stats
  /// are independent of the (dynamic, load-balancing) assignment.
  std::atomic<size_t> next_root{0};

  /// Emissions across all workers, for max_patterns accounting. Only
  /// touched when max_patterns is finite.
  std::atomic<uint64_t> patterns_emitted{0};

  /// Top-K: the highest support floor any worker's sink has published.
  /// Always a lower bound on the true global k-th-best support (a single
  /// worker's k-th best can only be weaker), so pruning against it is sound
  /// for every worker.
  std::atomic<uint64_t> support_floor{0};

  /// First-writer-wins truncation flag + reason.
  CooperativeStop stop;

  /// Shared wall-clock deadline: one start time for all workers. Immutable
  /// after construction (Expired() only reads the clock), so it needs no
  /// guard.
  TimeBudget budget;

  // The dispenser cursor, emission counter, and top-K support floor are the
  // only cross-thread MUTABLE state of a sharded run; all three are
  // monotone atomics mutated with fetch_add / CAS-max, never read-modify-
  // write under a lock. Keep it that way: a mutex in this struct would sit
  // on the hot path of every worker. The asserts pin the lock-freedom.
  static_assert(std::atomic<size_t>::is_always_lock_free,
                "SharedRunState::next_root must be lock-free");
  static_assert(std::atomic<uint64_t>::is_always_lock_free,
                "patterns_emitted / support_floor must be lock-free");
};

/// Per-worker polling handle over the shared run state, passed to policies
/// through GrowthNode so long policy-internal loops — the closure-check
/// (gap, candidate) scan in particular — can observe budget expiry and
/// stops requested by other workers *mid-node*, instead of overshooting the
/// budget by an unbounded single-check amount.
class RunContext {
 public:
  RunContext() = default;
  explicit RunContext(SharedRunState* state) : state_(state) {}

  /// True when the run must wind down. The shared stop flag is checked on
  /// every call (one relaxed load); the wall clock is polled every
  /// kBudgetPollStride calls, since a steady_clock read per closure-check
  /// candidate would dominate cheap checks. Budget expiry requests the stop
  /// with reason "time_budget" (first writer wins).
  bool ShouldStop() {
    if (state_ == nullptr) return false;
    if (state_->stop.stopped()) return true;
    if (!state_->budget.IsUnlimited() &&
        (++budget_polls_ % kBudgetPollStride) == 0 &&
        state_->budget.Expired()) {
      state_->stop.RequestStop("time_budget");
      return true;
    }
    return false;
  }

 private:
  static constexpr uint32_t kBudgetPollStride = 32;
  SharedRunState* state_ = nullptr;
  uint32_t budget_polls_ = 0;
};

/// Read-only view of the engine's DFS state handed to the policies.
struct GrowthNode {
  /// The current pattern e_1 .. e_m.
  const std::vector<EventId>& pattern;
  /// prefix_sets[k]: support-set state of the prefix e_1 .. e_{k+1}; the
  /// back entry belongs to the full current pattern. For the unconstrained
  /// policy this is the leftmost support set (Definition 3.2) of each
  /// prefix, the invariant ClosurePruning relies on.
  const std::vector<SupportSet>& prefix_sets;
  /// supports[k] = sup(e_1 .. e_{k+1}) as defined by the extension policy.
  const std::vector<uint64_t>& supports;
  MiningStats& stats;
  /// Cooperative-stop polling handle for long policy loops; may be null
  /// when a policy is driven outside an engine run (micro-benchmarks).
  RunContext* run = nullptr;
  /// The node's position-list table (rows = the sequences of
  /// prefix_sets.back()). Its columns hold the events the node grows with:
  /// the append candidates plus whatever the pruning policy's PrepareNode
  /// added. Every INSgrow step of the node reads its lists from here.
  const NodeListTable* lists = nullptr;
};

/// State and support of the current pattern grown by one event.
struct GrownChild {
  SupportSet set;
  uint64_t support = 0;
};

// ---------------------------------------------------------------------------
// Extension policies
// ---------------------------------------------------------------------------

/// Plain repetitive gapped subsequences: INSgrow extension of leftmost
/// support sets; sup(P) == |leftmost support set of P| (Lemma 4).
class UnconstrainedExtension {
 public:
  /// Deleting a middle event never lowers the support (full Apriori), so a
  /// parent's frequent-extension list stays sound for its children.
  static constexpr bool kSupportsCandidateList = true;

  explicit UnconstrainedExtension(const InvertedIndex& index)
      : index_(&index) {}

  /// Events with database-wide occurrence count >= min_support, ascending.
  std::vector<EventId> FrequentRoots(uint64_t min_support) const;

  /// Leftmost support set of the size-1 pattern <e>.
  GrownChild Root(EventId e) const;

  /// Leftmost support set of pattern ◦ e written into `out`'s recycled
  /// buffer (cursor-based INSgrow over node.lists, which must have `e` as a
  /// column; allocation-free once the engine's set pool is warm).
  void ExtendInto(const GrowthNode& node, EventId e, GrownChild& out);

  const InvertedIndex& index() const { return *index_; }

 private:
  const InvertedIndex* index_;
};

/// Exact gap-constrained mining (gap_constrained.h). Reported supports come
/// from the exact layered max-flow oracle (greedy bounded-gap growth is only
/// a lower bound under constraints, Lemma 4 does not apply), so the mined
/// output is exact. The support-set state kept on the engine stack is the
/// UNCONSTRAINED leftmost support set: dropping the gap constraint only adds
/// instances, so its size upper-bounds sup_gc and lets Extend skip the
/// expensive flow computation for children that are hopeless even without
/// the constraint. For such pruned children the returned support is that
/// upper bound (< min_support), not the exact value — fine for NoPruning,
/// which is the only policy this extension is specified to combine with
/// (DESIGN.md §2).
class BoundedGapExtension {
 public:
  /// Deleting a MIDDLE event can merge two small gaps into one oversized
  /// gap, so sup_gc is not monotone under middle deletion and candidate-list
  /// inheritance is unsound; only prefix-Apriori (suffix deletion) holds.
  static constexpr bool kSupportsCandidateList = false;

  /// `min_support` is the mining threshold: children whose unconstrained
  /// upper bound is already below it skip the flow oracle entirely.
  BoundedGapExtension(const SequenceDatabase& db, const InvertedIndex& index,
                      const LandmarkGapConstraint& gap, uint64_t min_support)
      : db_(&db), index_(&index), gap_(&gap), min_support_(min_support) {}

  std::vector<EventId> FrequentRoots(uint64_t min_support) const;

  /// Single events have no landmark gaps, so the unconstrained root set is
  /// exact under any constraint.
  GrownChild Root(EventId e) const;

  void ExtendInto(const GrowthNode& node, EventId e, GrownChild& out);

  const InvertedIndex& index() const { return *index_; }

 private:
  const SequenceDatabase* db_;
  const InvertedIndex* index_;
  const LandmarkGapConstraint* gap_;
  uint64_t min_support_;
  // Scratch for the candidate pattern handed to the flow oracle, round-
  // tripped through Pattern::TakeEvents so no per-call copy is allocated.
  std::vector<EventId> events_scratch_;
};

// ---------------------------------------------------------------------------
// Pruning / closure policies
// ---------------------------------------------------------------------------

/// What the pruning policy decided about the current node.
struct EmitDecision {
  /// Emit the node to the sink (false = suppress, e.g. non-closed).
  bool emit = true;
  /// Abandon the whole DFS subtree (LBCheck, Theorem 5). The node itself is
  /// neither emitted nor suppressed; the engine counts it as pruned.
  bool prune_subtree = false;
};

/// GSgrow: every frequent node is emitted, nothing is pruned.
class NoPruning {
 public:
  static constexpr bool kNeedsChildren = false;

  void PrepareNode(const GrowthNode&, NodeListTable&) {}

  EmitDecision Decide(const GrowthNode&, bool /*equal_support_append*/) {
    return EmitDecision{};
  }
};

/// CloGSgrow: CCheck closure checking + LBCheck subtree pruning.
///
/// Append extensions (Definition 3.4 case 1) are exactly the DFS children,
/// so the engine reports whether an equal-support append exists
/// (kNeedsChildren makes it compute children even at the depth cap).
/// Insert/prepend extensions at gap j reuse the leftmost support set of the
/// prefix e_1..e_j kept on the engine's stack, grow it with the candidate
/// event, then regrow e_{j+1}..e_m with Apriori early exit. Candidates are
/// pre-filtered by the sound per-sequence-count condition (DESIGN.md §1).
///
/// The check is allocation-free in steady state (DESIGN.md §5): the
/// per-node tables — the engine's list table
/// (relevant sequences with their counts n_i, resolved position lists) and
/// the candidate events PrepareNode filters through it — are built once per
/// node and shared across every (gap, candidate) pair; the sequence-restricted
/// prefix sets are built lazily (only for gaps actually reached, never for
/// the last prefix) into an arena whose buffers persist across nodes; and
/// the regrow chain runs cursor-based INSgrow through two scratch buffers
/// with the per-sequence-count early exit fused into every step — a doomed
/// candidate aborts at its first under-covered sequence run instead of
/// regrowing the rest of the pattern.
/// The pre-memoization seed check is a test oracle (SeedClosurePruning in
/// tests/core/closure_oracle.h); engine_parity_test pins identical
/// decisions.
class ClosurePruning {
 public:
  static constexpr bool kNeedsChildren = true;

  ClosurePruning(const InvertedIndex& index, const MinerOptions& options)
      : index_(&index), options_(&options) {}

  /// Runs before the node's append loop, once `lists` has its rows: filters
  /// the insert/prepend candidates through the table's per-row counts and
  /// adds them and the pattern events to its columns.
  void PrepareNode(const GrowthNode& node, NodeListTable& lists);

  EmitDecision Decide(const GrowthNode& node, bool equal_support_append);

 private:
  bool CheckInsertExtensions(const GrowthNode& node, bool* non_closed);
  static bool BorderDoesNotShiftRight(const SupportSet& extended,
                                      const SupportSet& original);

  // prefix_sets[j] filtered to the relevant sequences (the table's rows),
  // built lazily and cached for the current node in the restricted_ arena.
  const SupportSet& RestrictedPrefix(const GrowthNode& node, size_t j);
  // Cursor-based INSgrow of `in` with table column `col` into `out`, fused
  // with the per-sequence-count early exit: returns false — aborting the
  // scan with `out` left partial — as soon as some relevant sequence cannot
  // keep its n_i instances (the table's row counts). An equal-support
  // extension must preserve every per-sequence support and per-sequence
  // counts only shrink under further growth, so a doomed candidate dies
  // after one sequence run instead of finishing up to m full regrow scans.
  // When it returns true, `out` is the complete grown set and covers every
  // n_i.
  static bool GrowCoveringInto(const NodeListTable& lists,
                               const SupportSet& in, uint32_t col,
                               SupportSet& out, uint64_t* next_queries);

  const InvertedIndex* index_;
  const MinerOptions* options_;
  // --- Per-node memo tables (rebuilt by PrepareNode / Decide, then shared
  // across all gaps and candidates of the node's closure check). Buffers
  // persist across nodes, so steady-state checks allocate nothing. ---
  // Insert/prepend candidate events surviving the per-sequence-count
  // filter, ascending, and their table columns.
  std::vector<EventId> candidates_;
  std::vector<uint32_t> candidate_cols_;
  // The pattern's events, sorted and deduplicated (column scratch), and the
  // table column of each pattern position.
  std::vector<EventId> pattern_events_;
  std::vector<uint32_t> pattern_cols_;
  // restricted_[j] caches prefix_sets[j] filtered to the table's rows,
  // valid for j < restricted_built_.
  std::vector<SupportSet> restricted_;
  size_t restricted_built_ = 0;
  // Double buffers for the base-growth + regrow chain.
  SupportSet grow_front_;
  SupportSet grow_back_;
};

// ---------------------------------------------------------------------------
// Emission sinks
// ---------------------------------------------------------------------------
//
// The engine-facing protocol is Emit(events, support, support_set) /
// SupportFloor() / Take(). The support-set argument is the emitted node's
// already-materialized (unconstrained leftmost) support set; the base sinks
// ignore it, while AnnotatingSink (core/semantics_sink.h) replays Table-I
// measures from it at emission time. EmitAnnotated is the decorator-facing
// entry that attaches a computed annotation block to the produced record.

/// Materializes every emitted pattern (MiningResult::patterns).
class CollectSink {
 public:
  void Emit(const std::vector<EventId>& events, uint64_t support,
            const SupportSet& /*support_set*/) {
    patterns_.push_back(PatternRecord{Pattern(events), support});
  }
  void EmitAnnotated(const std::vector<EventId>& events, uint64_t support,
                     const SemanticsAnnotations& annotations) {
    patterns_.push_back(PatternRecord{Pattern(events), support, annotations});
  }
  uint64_t SupportFloor() const { return 0; }

  /// The collected patterns in canonical order (CanonicalPatternLess:
  /// lexicographic on events, then support). A complete single-threaded DFS
  /// already emits in this order (siblings ascend, prefixes precede
  /// extensions), so the sort is a near-no-op there; pinning it here makes
  /// truncated prefixes and parallel shard merges order-stable instead of
  /// DFS-incidental.
  std::vector<PatternRecord> Take() {
    std::sort(patterns_.begin(), patterns_.end(), CanonicalPatternLess);
    return std::move(patterns_);
  }

 private:
  std::vector<PatternRecord> patterns_;
};

/// Discards patterns; only MiningStats::patterns_found counts. Benchmarks
/// mining tens of millions of patterns use this (collect_patterns = false).
class CountSink {
 public:
  void Emit(const std::vector<EventId>&, uint64_t, const SupportSet&) {}
  void EmitAnnotated(const std::vector<EventId>&, uint64_t,
                     const SemanticsAnnotations&) {}
  uint64_t SupportFloor() const { return 0; }
  std::vector<PatternRecord> Take() { return {}; }
};

/// Bounded best-K heap ordered by (support desc, pattern asc), ignoring
/// patterns shorter than min_length. Once full, its weakest support becomes
/// a rising floor the engine uses to prune whole subtrees: extension never
/// increases support, so a child below the floor cannot reach the heap.
class TopKSink {
 public:
  /// `shared_floor`, when given, links this sink to the other workers of a
  /// parallel run: the sink publishes its local floor there and prunes
  /// against the maximum published by anyone. The shared value is a lower
  /// bound on the true global k-th-best support, so pruning stays sound; the
  /// merged per-worker heaps still contain the exact global top-K
  /// (MergeTopKPatterns in parallel_engine.h).
  TopKSink(size_t k, size_t min_length,
           std::atomic<uint64_t>* shared_floor = nullptr)
      : k_(k), min_length_(min_length), shared_floor_(shared_floor) {}

  void Emit(const std::vector<EventId>& events, uint64_t support,
            const SupportSet& /*support_set*/) {
    EmitAnnotated(events, support, {});
  }
  void EmitAnnotated(const std::vector<EventId>& events, uint64_t support,
                     const SemanticsAnnotations& annotations);

  /// Whether an emission with this (pattern, support) would enter the heap
  /// right now — the exact accept condition of EmitAnnotated, exposed so an
  /// annotating decorator can skip the annotation work for records the heap
  /// would discard anyway. (The floor only rises, so a later identical
  /// emission can flip from keep to reject, never the reverse.)
  bool WouldKeep(const std::vector<EventId>& events, uint64_t support) const {
    if (events.size() < min_length_) return false;
    if (heap_.size() < k_) return true;
    const PatternRecord& weakest = heap_.front();
    if (support != weakest.support) return support > weakest.support;
    return events < weakest.pattern.events();
  }

  /// 0 while the heap is filling; the weakest kept support once full —
  /// raised further by the shared floor in parallel runs. Ties at the floor
  /// are kept (a lexicographically smaller pattern can still displace the
  /// weakest entry).
  uint64_t SupportFloor() const {
    const uint64_t local = heap_.size() < k_ ? 0 : heap_.front().support;
    if (shared_floor_ == nullptr) return local;
    return std::max(local,
                    shared_floor_->load(std::memory_order_relaxed));
  }

  /// The kept records, best first.
  std::vector<PatternRecord> Take();

  /// The sink's strict total order: support descending, then pattern
  /// ascending. Total because patterns within one run are distinct, which
  /// is what makes the kept set — and the parallel merge — deterministic
  /// even when many patterns tie at the k-th support.
  static bool Better(const PatternRecord& a, const PatternRecord& b);

 private:
  void PublishFloor();

  size_t k_;
  size_t min_length_;
  std::atomic<uint64_t>* shared_floor_;
  // Heap on Better (front = weakest kept record).
  std::vector<PatternRecord> heap_;
};

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// One depth-first mining run over policy types. Policies are taken by
/// value; referenced structures (index, database, options, shared state)
/// must outlive Run().
///
/// When `shared` is given, this engine acts as ONE WORKER of a multi-worker
/// run: it claims roots from the shared dispenser instead of walking the
/// whole root list, honors stops requested by sibling workers, and accounts
/// max_patterns globally. With the default (no shared state) it owns a
/// private SharedRunState and behaves exactly as a whole single-threaded
/// run.
template <typename ExtensionPolicy, typename PruningPolicy,
          typename EmissionSink>
class GrowthEngine {
 public:
  GrowthEngine(ExtensionPolicy extension, PruningPolicy pruning,
               EmissionSink sink, const MinerOptions& options,
               SharedRunState* shared = nullptr)
      : extension_(std::move(extension)),
        pruning_(std::move(pruning)),
        sink_(std::move(sink)),
        options_(options),
        shared_(shared) {}

  MiningResult Run() {
    WallTimer timer;
    SharedRunState owned_state(options_);
    state_ = shared_ != nullptr ? shared_ : &owned_state;
    run_ = RunContext(state_);
    std::vector<EventId> roots = extension_.FrequentRoots(options_.min_support);
    // Event-alphabet restriction (projection semantics, miner_options.h):
    // filtering the ROOT list confines the whole DFS to the sub-alphabet —
    // append candidates are always drawn from it (directly, or via
    // candidate-list inheritance, which only ever narrows). Every worker
    // computes the same filtered list, so sharded runs stay deterministic.
    if (!options_.restrict_alphabet.empty()) {
      std::erase_if(roots,
                    [&](EventId e) { return !AlphabetAllows(options_, e); });
    }
    for (size_t i = state_->next_root.fetch_add(1, std::memory_order_relaxed);
         i < roots.size();
         i = state_->next_root.fetch_add(1, std::memory_order_relaxed)) {
      if (StopRequested()) break;
      GrownChild root = extension_.Root(roots[i]);
      if (root.support < options_.min_support) continue;
      Push(roots[i], std::move(root));
      Dfs(roots);
      Pop();
    }
    if (state_->stop.stopped()) {
      result_.stats.truncated = true;
      result_.stats.truncated_reason = state_->stop.reason();
    }
    result_.stats.elapsed_seconds = timer.ElapsedSeconds();
    result_.patterns = sink_.Take();
    state_ = nullptr;
    return std::move(result_);
  }

 private:
  // Per-depth scratch for the append-extension loop. Pooled so revisiting a
  // depth reuses both the pair/candidate vectors and (via the engine's set
  // pool) the SupportSet buffers inside them — the steady-state DFS
  // performs no allocations.
  struct DepthScratch {
    std::vector<std::pair<EventId, GrownChild>> children;
    std::vector<EventId> child_candidates;
  };

  // Pre: pattern_/prefix_sets_/supports_ describe a frequent pattern.
  void Dfs(const std::vector<EventId>& candidates) {
    MiningStats& stats = result_.stats;
    stats.nodes_visited++;
    stats.max_depth = std::max(stats.max_depth, pattern_.size());
    if (!state_->budget.IsUnlimited() && state_->budget.Expired()) {
      Stop("time_budget");
      return;
    }

    const uint64_t support = supports_.back();
    const GrowthNode node{pattern_, prefix_sets_, supports_, stats, &run_,
                          &lists_};

    // Append extensions. Children that stay frequent (and above the sink's
    // floor) are recursed into. With use_candidate_list, children inherit
    // the list of events frequent *here* — sound whenever the extension
    // policy's support measure has the full Apriori property. The closure
    // policy needs the equal-support-append bit (CCheck case 1) even when
    // the depth cap forbids recursing, hence kNeedsChildren.
    const size_t depth = pattern_.size();
    if (depth_scratch_.size() <= depth) depth_scratch_.resize(depth + 1);
    // A deque keeps `scratch` stable across the resize a deeper recursion
    // may trigger.
    DepthScratch& scratch = depth_scratch_[depth];
    for (auto& [e, child] : scratch.children) {
      // Children that were recursed into had their buffer moved onto the
      // prefix stack (and recycled at Pop); releasing their capacity-less
      // husks too would grow the pool by one dead entry per node.
      if (child.set.capacity() > 0) ReleaseSet(std::move(child.set));
    }
    scratch.children.clear();
    scratch.child_candidates.clear();
    bool equal_support_append = false;
    const bool want_children = PruningPolicy::kNeedsChildren ||
                               pattern_.size() < options_.max_pattern_length;
    if (want_children) {
      // Resolve every position list the node will query — append
      // candidates here, closure candidates and pattern events in
      // PrepareNode — in one pass over its relevant sequences.
      lists_.Reset(extension_.index(), prefix_sets_.back());
      lists_.AddColumns(candidates);
      pruning_.PrepareNode(node, lists_);
      lists_.Build();
      const uint64_t floor = EffectiveMinSupport();
      GrownChild child;
      for (EventId e : candidates) {
        child.set = AcquireSet();
        extension_.ExtendInto(node, e, child);
        if (child.support == support) equal_support_append = true;
        if (child.support >= floor) {
          scratch.child_candidates.push_back(e);
          scratch.children.emplace_back(e, std::move(child));
        } else {
          ReleaseSet(std::move(child.set));
        }
      }
    }

    const EmitDecision decision = pruning_.Decide(node, equal_support_append);
    if (decision.prune_subtree) {
      stats.lb_pruned_subtrees++;
      return;
    }
    // A stop raised during the closure check (budget expiry mid-scan, or a
    // sibling worker) leaves the decision indeterminate — wind down without
    // emitting rather than report a possibly non-closed pattern as closed.
    if (StopRequested()) return;
    if (decision.emit) {
      sink_.Emit(pattern_, support, prefix_sets_.back());
      stats.patterns_found++;
      if (options_.max_patterns != std::numeric_limits<uint64_t>::max()) {
        // Global accounting: emissions by ALL workers count toward the cap.
        const uint64_t emitted =
            state_->patterns_emitted.fetch_add(1, std::memory_order_relaxed) +
            1;
        if (emitted >= options_.max_patterns) {
          Stop("max_patterns");
          return;
        }
      }
    } else {
      stats.nonclosed_suppressed++;
    }

    if (pattern_.size() >= options_.max_pattern_length) return;
    const std::vector<EventId>& next_candidates =
        (options_.use_candidate_list && ExtensionPolicy::kSupportsCandidateList)
            ? scratch.child_candidates
            : candidates;
    for (auto& [e, child] : scratch.children) {
      if (StopRequested()) return;
      // The sink floor may have risen since the child was grown.
      if (child.support < EffectiveMinSupport()) continue;
      Push(e, std::move(child));
      Dfs(next_candidates);
      Pop();
    }
  }

  uint64_t EffectiveMinSupport() const {
    return std::max(options_.min_support, sink_.SupportFloor());
  }

  void Push(EventId e, GrownChild child) {
    pattern_.push_back(e);
    prefix_sets_.push_back(std::move(child.set));
    supports_.push_back(child.support);
  }

  void Pop() {
    pattern_.pop_back();
    ReleaseSet(std::move(prefix_sets_.back()));
    prefix_sets_.pop_back();
    supports_.pop_back();
  }

  /// Hands out a cleared SupportSet buffer from the pool (empty on a cold
  /// pool; capacity grows organically and then circulates).
  SupportSet AcquireSet() {
    if (set_pool_.empty()) return {};
    SupportSet set = std::move(set_pool_.back());
    set_pool_.pop_back();
    return set;
  }

  void ReleaseSet(SupportSet&& set) {
    set.clear();
    set_pool_.push_back(std::move(set));
  }

  void Stop(const char* reason) {
    stopped_ = true;
    state_->stop.RequestStop(reason);
  }

  /// True when this worker — or any sibling sharing the run state — has
  /// requested a stop. The local flag caches a positive answer so the hot
  /// loops pay one relaxed atomic load until then.
  bool StopRequested() {
    if (!stopped_ && state_->stop.stopped()) stopped_ = true;
    return stopped_;
  }

  ExtensionPolicy extension_;
  PruningPolicy pruning_;
  EmissionSink sink_;
  const MinerOptions& options_;
  SharedRunState* shared_;
  // Points at `shared_` or at Run()'s private state; valid during Run().
  SharedRunState* state_ = nullptr;
  RunContext run_;
  MiningResult result_;
  std::vector<EventId> pattern_;
  // prefix_sets_[k] / supports_[k]: state and support of pattern_[0..k].
  std::vector<SupportSet> prefix_sets_;
  std::vector<uint64_t> supports_;
  // The current node's position-list table; rebuilt per node, reused
  // buffers (a worker's engine owns its own).
  NodeListTable lists_;
  // Scratch pools (see DepthScratch / AcquireSet).
  std::deque<DepthScratch> depth_scratch_;
  std::vector<SupportSet> set_pool_;
  bool stopped_ = false;
};

}  // namespace gsgrow

#endif  // GSGROW_CORE_GROWTH_ENGINE_H_
