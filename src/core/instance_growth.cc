#include "core/instance_growth.h"

#include <algorithm>

#include "util/logging.h"

namespace gsgrow {

SupportSet RootInstances(const InvertedIndex& index, EventId e) {
  SupportSet out;
  for (const InvertedIndex::Posting& posting : index.Postings(e)) {
    for (Position p : index.Positions(posting.seq, e)) {
      out.push_back(Instance{posting.seq, p, p});
    }
  }
  // Postings are ascending by sequence and positions ascending within one,
  // so `out` is already in right-shift order.
  return out;
}

SupportSet GrowSupportSet(const InvertedIndex& index,
                          const SupportSet& support_set, EventId e) {
  SupportSet out;
  GrowSupportSetInto(index, support_set, e, out);
  return out;
}

namespace {

// INSgrow over the per-sequence runs of `support_set`; `cursor_for(run,
// seq)` supplies the position cursor of the event for the run-th run.
template <typename CursorFor>
void GrowRunsInto(const SupportSet& support_set, SupportSet& out,
                  uint64_t* next_queries, CursorFor&& cursor_for) {
  GSGROW_DCHECK(IsRightShiftSorted(support_set));
  GSGROW_DCHECK(&out != &support_set);
  out.clear();
  const size_t n = support_set.size();
  if (out.capacity() < n) out.reserve(n);
  uint64_t queries = 0;
  size_t k = 0;
  for (size_t run = 0; k < n; ++run) {
    const SeqId seq = support_set[k].seq;
    // One list resolution for the whole run of this sequence's instances;
    // within the run the query bounds are non-decreasing (rising floor,
    // rising last landmarks), which is exactly the cursor's contract.
    PositionCursor cursor = cursor_for(run, seq);
    if (cursor.empty()) {
      while (k < n && support_set[k].seq == seq) ++k;
      continue;
    }
    // last_position of Algorithm 2 folded into a ">= floor" bound.
    Position floor = 0;
    for (; k < n && support_set[k].seq == seq; ++k) {
      const Instance& inst = support_set[k];
      const Position from = std::max(floor, inst.last + 1);
      const Position lj = cursor.NextAtOrAfter(from);
      ++queries;
      if (lj == kNoPosition) {
        // Algorithm 2 line 5: no occurrence left for this instance; later
        // instances of this sequence have even larger lower bounds, so stop
        // scanning the sequence (skip to its end).
        while (k < n && support_set[k].seq == seq) ++k;
        break;
      }
      floor = lj + 1;
      out.push_back(Instance{seq, inst.first, lj});
    }
  }
  if (next_queries != nullptr) *next_queries += queries;
}

}  // namespace

void GrowSupportSetInto(const InvertedIndex& index,
                        const SupportSet& support_set, EventId e,
                        SupportSet& out, uint64_t* next_queries) {
  GrowRunsInto(support_set, out, next_queries,
               [&](size_t /*run*/, SeqId seq) { return index.Cursor(seq, e); });
}

void GrowSupportSetInto(const NodeListTable& lists,
                        const SupportSet& support_set, uint32_t col,
                        SupportSet& out, uint64_t* next_queries) {
  GrowRunsInto(support_set, out, next_queries, [&](size_t run, SeqId seq) {
    GSGROW_DCHECK(run < lists.num_rows() && lists.row_seq(run) == seq);
    (void)seq;
    return lists.Cursor(run, col);
  });
}

SupportSet GrowSupportSetReference(const InvertedIndex& index,
                                   const SupportSet& support_set, EventId e) {
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

SupportSet ComputeSupportSet(const InvertedIndex& index,
                             const Pattern& pattern) {
  if (pattern.empty()) return {};
  SupportSet set = RootInstances(index, pattern[0]);
  for (size_t j = 1; j < pattern.size(); ++j) {
    set = GrowSupportSet(index, set, pattern[j]);
  }
  return set;
}

uint64_t ComputeSupport(const InvertedIndex& index, const Pattern& pattern) {
  return ComputeSupportSet(index, pattern).size();
}

std::vector<FullInstance> ComputeFullSupportSet(const InvertedIndex& index,
                                                const Pattern& pattern) {
  std::vector<FullInstance> set;
  if (pattern.empty()) return set;
  for (const InvertedIndex::Posting& posting : index.Postings(pattern[0])) {
    for (Position p : index.Positions(posting.seq, pattern[0])) {
      set.push_back(FullInstance{posting.seq, {p}});
    }
  }
  for (size_t j = 1; j < pattern.size(); ++j) {
    const EventId e = pattern[j];
    std::vector<FullInstance> grown;
    grown.reserve(set.size());
    size_t k = 0;
    const size_t n = set.size();
    while (k < n) {
      const SeqId seq = set[k].seq;
      Position floor = 0;
      for (; k < n && set[k].seq == seq; ++k) {
        const Position last = set[k].landmark.back();
        const Position from = std::max(floor, last + 1);
        const Position lj = index.NextAtOrAfter(seq, e, from);
        if (lj == kNoPosition) {
          while (k < n && set[k].seq == seq) ++k;
          break;
        }
        floor = lj + 1;
        FullInstance inst = std::move(set[k]);
        inst.landmark.push_back(lj);
        grown.push_back(std::move(inst));
      }
    }
    set = std::move(grown);
  }
  return set;
}

std::vector<uint32_t> PerSequenceSupport(const InvertedIndex& index,
                                         const Pattern& pattern) {
  std::vector<uint32_t> counts(index.num_sequences(), 0);
  for (const Instance& inst : ComputeSupportSet(index, pattern)) {
    counts[inst.seq]++;
  }
  return counts;
}

}  // namespace gsgrow
