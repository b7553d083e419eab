#include "core/growth_engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/gap_constrained.h"
#include "core/instance_growth.h"
#include "util/logging.h"

namespace gsgrow {

namespace {

// Shared root enumeration: single-event patterns are frequent iff their
// database-wide occurrence count reaches min_support, under any extension
// policy (a single event has no landmark gaps to constrain).
std::vector<EventId> FrequentEventsByTotalCount(const InvertedIndex& index,
                                                uint64_t min_support) {
  std::vector<EventId> roots;
  for (EventId e : index.present_events()) {
    if (index.TotalCount(e) >= min_support) roots.push_back(e);
  }
  return roots;
}

GrownChild RootChild(const InvertedIndex& index, EventId e) {
  GrownChild child;
  child.set = RootInstances(index, e);
  child.support = child.set.size();
  return child;
}

}  // namespace

// ---------------------------------------------------------------------------
// UnconstrainedExtension
// ---------------------------------------------------------------------------

std::vector<EventId> UnconstrainedExtension::FrequentRoots(
    uint64_t min_support) const {
  return FrequentEventsByTotalCount(*index_, min_support);
}

GrownChild UnconstrainedExtension::Root(EventId e) const {
  return RootChild(*index_, e);
}

void UnconstrainedExtension::ExtendInto(const GrowthNode& node, EventId e,
                                        GrownChild& out) {
  GrowSupportSetInto(*node.lists, node.prefix_sets.back(),
                     node.lists->Column(e), out.set,
                     &node.stats.next_queries);
  node.stats.insgrow_calls++;
  out.support = out.set.size();
}

// ---------------------------------------------------------------------------
// BoundedGapExtension
// ---------------------------------------------------------------------------

std::vector<EventId> BoundedGapExtension::FrequentRoots(
    uint64_t min_support) const {
  return FrequentEventsByTotalCount(*index_, min_support);
}

GrownChild BoundedGapExtension::Root(EventId e) const {
  return RootChild(*index_, e);
}

void BoundedGapExtension::ExtendInto(const GrowthNode& node, EventId e,
                                     GrownChild& out) {
  // Unconstrained INSgrow state: |set| = sup(P ◦ e) >= sup_gc(P ◦ e), since
  // dropping the constraint only adds instances. A child that is infrequent
  // even unconstrained needs no flow computation — report the (under-
  // min_support) upper bound and let the engine prune it.
  GrowSupportSetInto(*node.lists, node.prefix_sets.back(),
                     node.lists->Column(e), out.set,
                     &node.stats.next_queries);
  node.stats.insgrow_calls++;
  const uint64_t upper_bound = out.set.size();
  if (upper_bound < min_support_) {
    out.support = upper_bound;
    return;
  }
  // Exact support via the layered max-flow oracle (greedy bounded-gap
  // growth is not maximum under constraints, so only the flow value can be
  // reported for frequent patterns). The candidate pattern round-trips
  // through the scratch vector so no copy is allocated per call.
  events_scratch_.assign(node.pattern.begin(), node.pattern.end());
  events_scratch_.push_back(e);
  Pattern candidate(std::move(events_scratch_));
  out.support = ReferenceSupport(*db_, candidate, *gap_);
  events_scratch_ = std::move(candidate).TakeEvents();
}

// ---------------------------------------------------------------------------
// ClosurePruning
// ---------------------------------------------------------------------------

EmitDecision ClosurePruning::Decide(const GrowthNode& node,
                                    bool equal_support_append) {
  bool non_closed = equal_support_append;
  // If LB pruning is off we only need closure information, so the scan can
  // stop once the pattern is known to be non-closed.
  bool prune = false;
  if (!non_closed || options_->use_landmark_border_pruning) {
    node.stats.closure_checks++;
    prune = CheckInsertExtensions(node, &non_closed);
  }
  if (prune) {
    // Theorem 5: no closed pattern has node.pattern as a prefix.
    return EmitDecision{.emit = false, .prune_subtree = true};
  }
  return EmitDecision{.emit = !non_closed, .prune_subtree = false};
}

void ClosurePruning::PrepareNode(const GrowthNode& node,
                                 NodeListTable& lists) {
  const InvertedIndex& index = *index_;
  const uint64_t support = node.prefix_sets.back().size();
  restricted_built_ = 0;
  // Candidate events, shared by every (gap, candidate) scan of this node.
  // Closure is checked against extensions WITHIN the restricted alphabet
  // (when one is set), matching the projection semantics of the root
  // filter: an out-of-alphabet equal-support extension must not declare an
  // in-alphabet pattern non-closed.
  candidates_.clear();
  if (!options_->use_insert_candidate_filter) {
    for (EventId e : index.present_events()) {
      if (index.TotalCount(e) >= support && AlphabetAllows(*options_, e)) {
        candidates_.push_back(e);
      }
    }
  } else {
    // Enumerate events of the first relevant sequence and verify the
    // per-sequence-count condition (DESIGN.md §1) against every row, one
    // merge walk per row.
    for (EventId e : lists.row_events(0)) {
      if (AlphabetAllows(*options_, e)) candidates_.push_back(e);
    }
    lists.RetainCovering(candidates_);
  }
  if (candidates_.empty()) return;
  lists.AddColumns(candidates_);
  pattern_events_.assign(node.pattern.begin(), node.pattern.end());
  std::sort(pattern_events_.begin(), pattern_events_.end());
  pattern_events_.erase(
      std::unique(pattern_events_.begin(), pattern_events_.end()),
      pattern_events_.end());
  lists.AddColumns(pattern_events_);
}

// Scans insert/prepend extensions (CCheck cases 2-3 + LBCheck). Sets
// *non_closed when an equal-support extension exists; returns true when
// LBCheck says the subtree can be pruned (only when
// use_landmark_border_pruning).
//
// All growth here is restricted to the sequences where P has instances:
// by the per-sequence Apriori property, sup_i(P) = 0 implies sup_i(P') = 0
// for every super-pattern P', so sequences outside P's support set
// contribute nothing to any extension's support or to its leftmost support
// set. Restricting the (potentially huge) low-prefix support sets to those
// sequences makes closure checking cheap for patterns concentrated in few
// sequences. That argument is a property of the *node*, not of any
// particular (gap, candidate) pair, which is what makes the restricted
// sets cacheable: every scan of the node's closure check filters by the
// same relevant-sequence list — the rows of the node's list table
// (DESIGN.md §5).
//
// Per-node tables are built once (PrepareNode, with every position list
// resolved in the engine's NodeListTable), restricted prefixes are
// materialized lazily into a persistent arena, and all growth runs
// cursor-based INSgrow through two reused buffers with the
// per-sequence-count early exit fused into every step (GrowCoveringInto).
// Steady state allocates nothing.
bool ClosurePruning::CheckInsertExtensions(const GrowthNode& node,
                                           bool* non_closed) {
  const NodeListTable& lists = *node.lists;
  MiningStats& stats = node.stats;
  const std::vector<EventId>& pattern = node.pattern;
  const SupportSet& support_set = node.prefix_sets.back();
  const uint64_t support = support_set.size();
  const size_t m = pattern.size();

  if (candidates_.empty()) return false;
  candidate_cols_.clear();
  for (EventId e : candidates_) candidate_cols_.push_back(lists.Column(e));
  pattern_cols_.clear();
  for (EventId e : pattern) pattern_cols_.push_back(lists.Column(e));

  for (size_t gap = 0; gap < m; ++gap) {
    const SupportSet* base = nullptr;
    if (gap > 0) {
      base = &RestrictedPrefix(node, gap - 1);
      // Growth never enlarges a set, so a restricted prefix already below
      // the target support dooms every candidate at this gap.
      if (base->size() < support) continue;
    }
    for (size_t c = 0; c < candidates_.size(); ++c) {
      // The (gap, candidate) scan is the engine's longest uninterruptible
      // stretch — poll here so a time budget cannot be overshot by a whole
      // closure check, and so a sibling worker's stop lands mid-node. An
      // aborted scan returns an indeterminate decision; the engine discards
      // it (the run is truncated either way).
      if (node.run != nullptr && node.run->ShouldStop()) return false;
      // Inserting an event equal to the one right after the gap yields
      // the same extension pattern as inserting it one gap to the right
      // (ultimately an append, covered by the DFS children) — skip the
      // duplicate here. Sound because the extension pattern, and hence
      // its leftmost support set, is identical.
      if (candidates_[c] == pattern[gap]) continue;
      const uint32_t col = candidate_cols_[c];
      // Base: leftmost support set of e_1..e_gap ◦ e (restricted), with the
      // per-sequence coverage condition enforced as it is built — any
      // relevant sequence that cannot keep its n_i instances dooms the
      // candidate before a single regrow step is paid for.
      SupportSet* current = &grow_front_;
      bool alive = true;
      if (gap == 0) {
        current->clear();
        for (size_t r = 0; r < lists.num_rows(); ++r) {
          const std::span<const Position> positions = lists.List(r, col);
          if (positions.size() < lists.row_count(r)) {
            alive = false;  // coverage already broken (filter disabled)
            break;
          }
          const SeqId seq = lists.row_seq(r);
          for (Position p : positions) {
            current->push_back(Instance{seq, p, p});
          }
        }
      } else {
        stats.insgrow_calls++;
        stats.closure_regrow_events++;
        alive = GrowCoveringInto(lists, *base, col, *current,
                                 &stats.next_queries);
      }
      if (!alive) continue;
      // Regrow the remaining events of the pattern (double-buffered); each
      // step aborts at the first sequence run that loses an instance.
      SupportSet* next = &grow_back_;
      for (size_t k = gap; k < m; ++k) {
        stats.insgrow_calls++;
        stats.closure_regrow_events++;
        if (!GrowCoveringInto(lists, *current, pattern_cols_[k], *next,
                              &stats.next_queries)) {
          alive = false;
          break;
        }
        std::swap(current, next);
      }
      if (!alive) continue;
      // Coverage of every n_i means |P'| >= sup(P); sup(P') <= sup(P) by
      // the Apriori property, so equality holds here.
      GSGROW_DCHECK(current->size() == support);
      *non_closed = true;
      if (!options_->use_landmark_border_pruning) return false;
      if (BorderDoesNotShiftRight(*current, support_set)) return true;
    }
  }
  return false;
}

const SupportSet& ClosurePruning::RestrictedPrefix(const GrowthNode& node,
                                                   size_t j) {
  const std::span<const SeqId> relevant = node.lists->row_seqs();
  if (restricted_.size() <= j) restricted_.resize(j + 1);
  while (restricted_built_ <= j) {
    const size_t b = restricted_built_;
    const SupportSet& full = node.prefix_sets[b];
    SupportSet& out = restricted_[b];
    out.clear();
    // Exact sizing: count the surviving instances with a merge against the
    // relevant-sequence list before copying (both sides are seq-sorted).
    // In steady state the arena buffer already has the capacity and the
    // reserve is a no-op.
    size_t kept = 0;
    {
      auto r = relevant.begin();
      for (const Instance& inst : full) {
        while (r != relevant.end() && *r < inst.seq) ++r;
        if (r == relevant.end()) break;
        if (*r == inst.seq) ++kept;
      }
    }
    if (out.capacity() < kept) out.reserve(kept);
    auto r = relevant.begin();
    for (const Instance& inst : full) {
      while (r != relevant.end() && *r < inst.seq) ++r;
      if (r == relevant.end()) break;
      if (*r == inst.seq) out.push_back(inst);
    }
    restricted_built_ = b + 1;
  }
  return restricted_[j];
}

bool ClosurePruning::GrowCoveringInto(const NodeListTable& lists,
                                      const SupportSet& in, uint32_t col,
                                      SupportSet& out,
                                      uint64_t* next_queries) {
  out.clear();
  if (out.capacity() < in.size()) out.reserve(in.size());
  uint64_t queries = 0;
  const size_t n = in.size();
  const size_t rows = lists.num_rows();
  size_t k = 0;
  // `in` only holds relevant sequences (it descends from a restricted
  // prefix set), so its runs align with the table's rows; a mismatch means
  // a relevant sequence got zero instances.
  size_t row = 0;
  bool covered = true;
  while (k < n) {
    const SeqId seq = in[k].seq;
    if (row == rows || lists.row_seq(row) != seq) {
      covered = false;
      break;
    }
    uint32_t grown = 0;
    PositionCursor cursor = lists.Cursor(row, col);
    if (!cursor.empty()) {
      Position floor = 0;
      for (; k < n && in[k].seq == seq; ++k) {
        const Instance& inst = in[k];
        const Position from = std::max(floor, inst.last + 1);
        const Position lj = cursor.NextAtOrAfter(from);
        ++queries;
        if (lj == kNoPosition) break;
        floor = lj + 1;
        out.push_back(Instance{seq, inst.first, lj});
        ++grown;
      }
    }
    if (grown < lists.row_count(row)) {
      covered = false;
      break;
    }
    while (k < n && in[k].seq == seq) ++k;  // skip the run's ungrown tail
    ++row;
  }
  if (covered && row != rows) covered = false;
  if (next_queries != nullptr) *next_queries += queries;
  return covered;
}

// Theorem 5 condition (ii): with both leftmost support sets sorted in
// right-shift order, l'^(k)_{m+1} <= l^(k)_m for every k. Condition (i)
// (equal support) is checked by the caller; equal per-sequence supports
// make the k-th instances live in the same sequence.
bool ClosurePruning::BorderDoesNotShiftRight(const SupportSet& extended,
                                             const SupportSet& original) {
  GSGROW_DCHECK(extended.size() == original.size());
  for (size_t k = 0; k < extended.size(); ++k) {
    GSGROW_DCHECK(extended[k].seq == original[k].seq);
    if (extended[k].last > original[k].last) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// TopKSink
// ---------------------------------------------------------------------------

bool TopKSink::Better(const PatternRecord& a, const PatternRecord& b) {
  if (a.support != b.support) return a.support > b.support;
  return a.pattern < b.pattern;
}

void TopKSink::EmitAnnotated(const std::vector<EventId>& events,
                             uint64_t support,
                             const SemanticsAnnotations& annotations) {
  if (events.size() < min_length_) return;
  PatternRecord record{Pattern(events), support, annotations};
  if (heap_.size() < k_) {
    heap_.push_back(std::move(record));
    std::push_heap(heap_.begin(), heap_.end(), Better);
    if (heap_.size() == k_) PublishFloor();
    return;
  }
  if (!Better(record, heap_.front())) return;
  std::pop_heap(heap_.begin(), heap_.end(), Better);
  heap_.back() = std::move(record);
  std::push_heap(heap_.begin(), heap_.end(), Better);
  PublishFloor();
}

// Raises the shared floor to this sink's local floor (monotone CAS max).
// Publishing a local k-th-best support is always sound: it can only be
// weaker than (or equal to) the global k-th best, and floors only rise.
void TopKSink::PublishFloor() {
  if (shared_floor_ == nullptr) return;
  const uint64_t local = heap_.front().support;
  uint64_t current = shared_floor_->load(std::memory_order_relaxed);
  while (current < local &&
         !shared_floor_->compare_exchange_weak(current, local,
                                               std::memory_order_relaxed)) {
  }
}

std::vector<PatternRecord> TopKSink::Take() {
  std::sort(heap_.begin(), heap_.end(), Better);
  return std::move(heap_);
}

}  // namespace gsgrow
