// Test oracles for the closed miner's hot paths: the pre-cursor INSgrow
// (GrowSupportSetReference), an append-extension policy built on it
// (ReferenceExtension), and the seed CCheck/LBCheck closure check
// (SeedClosurePruning, the pre-memoization implementation of CloGSgrow's
// closure policy).
//
// They share no decision code with the product path in
// core/growth_engine.h: every next() query is a full binary search into
// the inverted index, every growth allocates its result, restricted prefix
// sets are rebuilt eagerly per node, and the insert-candidate filter and
// the Theorem 5 border test are separate copies. The product path must
// agree with them decision for decision (engine_parity_test) and INSgrow
// step for step (instance_growth_test, node_list_table_test).

#ifndef GSGROW_TESTS_CORE_CLOSURE_ORACLE_H_
#define GSGROW_TESTS_CORE_CLOSURE_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/growth_engine.h"
#include "core/instance.h"
#include "core/instance_growth.h"
#include "core/inverted_index.h"
#include "core/miner_options.h"
#include "core/node_list_table.h"
#include "core/types.h"
#include "util/logging.h"

namespace gsgrow::testing {

/// The pre-cursor INSgrow: one full NextAtOrAfter binary search (event
/// slot + position) per next() query into a freshly allocated set.
/// Semantically identical to GrowSupportSet.
inline SupportSet GrowSupportSetReference(const InvertedIndex& index,
                                          const SupportSet& support_set,
                                          EventId e) {
  GSGROW_DCHECK(IsRightShiftSorted(support_set));
  SupportSet out;
  out.reserve(support_set.size());
  const size_t n = support_set.size();
  size_t k = 0;
  while (k < n) {
    const SeqId seq = support_set[k].seq;
    Position floor = 0;
    for (; k < n && support_set[k].seq == seq; ++k) {
      const Instance& inst = support_set[k];
      const Position from = std::max(floor, inst.last + 1);
      const Position lj = index.NextAtOrAfter(seq, e, from);
      if (lj == kNoPosition) {
        while (k < n && support_set[k].seq == seq) ++k;
        break;
      }
      floor = lj + 1;
      out.push_back(Instance{seq, inst.first, lj});
    }
  }
  return out;
}

/// The append-extension oracle: grows every child with
/// GrowSupportSetReference, one index lookup per query, never reading the
/// engine's per-node list table.
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

/// The seed closure check (CCheck, Theorem 4, + LBCheck, Theorem 5): eager
/// restricted prefix sets rebuilt per node with binary-search membership
/// tests, and an allocating GrowSupportSetReference per regrow step with
/// only the total-size Apriori test to stop a doomed chain. It reads
/// nothing from the node's list table, so PrepareNode adds no columns.
/// Counts closure_checks, insgrow_calls and closure_regrow_events the way
/// ClosurePruning does.
class SeedClosurePruning {
 public:
  static constexpr bool kNeedsChildren = true;

  SeedClosurePruning(const InvertedIndex& index, const MinerOptions& options)
      : index_(&index), options_(&options) {}

  void PrepareNode(const GrowthNode&, NodeListTable&) {}

  EmitDecision Decide(const GrowthNode& node, bool equal_support_append) {
    bool non_closed = equal_support_append;
    // Without LB pruning only closure matters, so a node already known to
    // be non-closed needs no scan.
    bool prune = false;
    if (!non_closed || options_->use_landmark_border_pruning) {
      node.stats.closure_checks++;
      prune = CheckInsertExtensions(node, &non_closed);
    }
    if (prune) return EmitDecision{.emit = false, .prune_subtree = true};
    return EmitDecision{.emit = !non_closed, .prune_subtree = false};
  }

 private:
  // Scans insert/prepend extensions at every gap. Sets *non_closed when an
  // equal-support extension exists; returns true when LBCheck says the
  // subtree can be pruned.
  bool CheckInsertExtensions(const GrowthNode& node, bool* non_closed) {
    const InvertedIndex& index = *index_;
    MiningStats& stats = node.stats;
    const std::vector<EventId>& pattern = node.pattern;
    const SupportSet& support_set = node.prefix_sets.back();
    const uint64_t support = support_set.size();
    const size_t m = pattern.size();

    const std::vector<EventId> insert_candidates = InsertCandidates(support_set);
    if (insert_candidates.empty()) return false;

    // Sequences containing instances of P (support_set is seq-sorted), and
    // the prefix support sets restricted to them.
    std::vector<SeqId> relevant;
    for (const Instance& inst : support_set) {
      if (relevant.empty() || relevant.back() != inst.seq) {
        relevant.push_back(inst.seq);
      }
    }
    auto is_relevant = [&](SeqId seq) {
      return std::binary_search(relevant.begin(), relevant.end(), seq);
    };
    std::vector<SupportSet> restricted(m);
    for (size_t j = 0; j < m; ++j) {
      for (const Instance& inst : node.prefix_sets[j]) {
        if (is_relevant(inst.seq)) restricted[j].push_back(inst);
      }
    }

    for (size_t gap = 0; gap < m; ++gap) {
      for (EventId e : insert_candidates) {
        // Same cooperative-stop poll as the product path: both must
        // truncate, not overshoot, when the budget expires mid-check.
        if (node.run != nullptr && node.run->ShouldStop()) return false;
        // Inserting the event right after the gap duplicates the insert
        // one gap to the right (ultimately an append, a DFS child).
        if (e == pattern[gap]) continue;
        // Base: leftmost support set of e_1..e_gap ◦ e (restricted).
        SupportSet current;
        if (gap == 0) {
          for (SeqId seq : relevant) {
            for (Position p : index.Positions(seq, e)) {
              current.push_back(Instance{seq, p, p});
            }
          }
        } else {
          current = GrowSupportSetReference(index, restricted[gap - 1], e);
          stats.insgrow_calls++;
          stats.closure_regrow_events++;
        }
        if (current.size() < support) continue;  // Apriori early exit.
        // Regrow the remaining events of the pattern.
        bool alive = true;
        for (size_t k = gap; k < m; ++k) {
          current = GrowSupportSetReference(index, current, pattern[k]);
          stats.insgrow_calls++;
          stats.closure_regrow_events++;
          if (current.size() < support) {
            alive = false;
            break;
          }
        }
        if (!alive) continue;
        // sup(P') <= sup(P) by the Apriori property, so equality holds.
        GSGROW_CHECK(current.size() == support);
        *non_closed = true;
        if (!options_->use_landmark_border_pruning) return false;
        if (BorderDoesNotShiftRight(current, support_set)) return true;
      }
    }
    return false;
  }

  // Theorem 5 condition (ii): with both leftmost support sets in
  // right-shift order, l'^(k)_{m+1} <= l^(k)_m for every k.
  static bool BorderDoesNotShiftRight(const SupportSet& extended,
                                      const SupportSet& original) {
    GSGROW_CHECK(extended.size() == original.size());
    for (size_t k = 0; k < extended.size(); ++k) {
      GSGROW_CHECK(extended[k].seq == original[k].seq);
      if (extended[k].last > original[k].last) return false;
    }
    return true;
  }

  // Insert/prepend candidates: with the filter on, events whose count in
  // every relevant sequence reaches that sequence's n_i (DESIGN.md §1);
  // with it off, every present event frequent enough overall. Both within
  // the restricted alphabet, when one is set.
  std::vector<EventId> InsertCandidates(const SupportSet& support_set) const {
    const InvertedIndex& index = *index_;
    const uint64_t support = support_set.size();
    std::vector<EventId> out;
    if (!options_->use_insert_candidate_filter) {
      for (EventId e : index.present_events()) {
        if (index.TotalCount(e) >= support && AlphabetAllows(*options_, e)) {
          out.push_back(e);
        }
      }
      return out;
    }
    std::vector<std::pair<SeqId, uint32_t>> seq_counts;
    for (const Instance& inst : support_set) {
      if (!seq_counts.empty() && seq_counts.back().first == inst.seq) {
        seq_counts.back().second++;
      } else {
        seq_counts.emplace_back(inst.seq, 1u);
      }
    }
    const auto& [first_seq, first_need] = seq_counts.front();
    for (EventId e : index.EventsInSequence(first_seq)) {
      if (!AlphabetAllows(*options_, e)) continue;
      bool ok = true;
      for (const auto& [seq, need] : seq_counts) {
        if (index.Count(seq, e) < need) {
          ok = false;
          break;
        }
      }
      if (ok) out.push_back(e);
    }
    return out;
  }

  const InvertedIndex* index_;
  const MinerOptions* options_;
};

}  // namespace gsgrow::testing

#endif  // GSGROW_TESTS_CORE_CLOSURE_ORACLE_H_
