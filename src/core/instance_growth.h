// Instance growth (paper Section III-A): the INSgrow operation
// (Algorithm 2) and supComp (Algorithm 1).
//
// Given a *leftmost* support set I of pattern P, INSgrow extends it to a
// leftmost support set of P ◦ e by scanning I in right-shift order and
// matching each instance to the earliest available occurrence of e
// (next(S, e, max(last_position, l_{j-1}))). Greedy-leftmost extension is
// provably maximum (Lemma 4), so |result| == sup(P ◦ e).
//
// GrowSupportSetInto writes into a caller-owned buffer (the DFS and the
// closure check double-buffer a small arena, so steady-state growth
// performs zero allocations) and answers each per-sequence run of next()
// queries through one PositionCursor (advanced by galloping search instead
// of a fresh binary search per instance; DESIGN.md §5). Its two overloads
// differ only in where a run's position list comes from: the InvertedIndex
// overload looks it up per run, for one-off growth (supComp, tests); the
// NodeListTable overload — the DFS hot path — reads the slot the table
// resolved once for the whole node. The allocating GrowSupportSet is a thin
// wrapper. The pre-cursor implementation — a full NextAtOrAfter binary
// search per query into a freshly allocated set — is a test oracle in
// tests/core/closure_oracle.h.

#ifndef GSGROW_CORE_INSTANCE_GROWTH_H_
#define GSGROW_CORE_INSTANCE_GROWTH_H_

#include <cstdint>
#include <vector>

#include "core/instance.h"
#include "core/inverted_index.h"
#include "core/node_list_table.h"
#include "core/pattern.h"
#include "core/types.h"

namespace gsgrow {

/// Leftmost support set of the size-1 pattern <e>: every occurrence of e,
/// in right-shift order (GSgrow Algorithm 3, line 3).
SupportSet RootInstances(const InvertedIndex& index, EventId e);

/// INSgrow (Algorithm 2): extends leftmost support set `support_set` of some
/// pattern P to the leftmost support set of P ◦ e. `support_set` must be
/// sorted in right-shift order (it is, if produced by this module).
SupportSet GrowSupportSet(const InvertedIndex& index,
                          const SupportSet& support_set, EventId e);

/// INSgrow into caller-owned storage: clears `out` (keeping its capacity)
/// and fills it with the leftmost support set of P ◦ e. `out` must not
/// alias `support_set`. When `next_queries` is non-null it is incremented
/// once per next() query issued against the index.
void GrowSupportSetInto(const InvertedIndex& index,
                        const SupportSet& support_set, EventId e,
                        SupportSet& out, uint64_t* next_queries = nullptr);

/// INSgrow against a per-node list table: the same growth as above with
/// `e` given as its table column. The per-sequence runs of `support_set`
/// must be exactly the table's rows, in order — true for the support set
/// the table was Reset from.
void GrowSupportSetInto(const NodeListTable& lists,
                        const SupportSet& support_set, uint32_t col,
                        SupportSet& out, uint64_t* next_queries = nullptr);

/// supComp (Algorithm 1): leftmost support set of `pattern` from scratch.
/// |result| == sup(pattern). Empty pattern yields an empty set.
SupportSet ComputeSupportSet(const InvertedIndex& index,
                             const Pattern& pattern);

/// sup(pattern) (Definition 2.5) in O(|pattern| * sup * log L).
uint64_t ComputeSupport(const InvertedIndex& index, const Pattern& pattern);

/// An instance with its full landmark <l_1 .. l_m> (0-based positions).
/// The miners store only (seq, first, last) triples (paper §III-D); this
/// expanded form is reconstructed on demand for reporting and tests.
struct FullInstance {
  SeqId seq = 0;
  std::vector<Position> landmark;

  friend bool operator==(const FullInstance& a,
                         const FullInstance& b) = default;
};

/// Leftmost support set of `pattern` with full landmarks, in right-shift
/// order. Runs the same greedy growth as ComputeSupportSet.
std::vector<FullInstance> ComputeFullSupportSet(const InvertedIndex& index,
                                                const Pattern& pattern);

/// Per-sequence instance counts of the leftmost support set: result[i] is
/// sup_i(pattern), the repetitive support restricted to sequence i.
/// (Repetitive support decomposes across sequences; see Lemma 4's proof.)
std::vector<uint32_t> PerSequenceSupport(const InvertedIndex& index,
                                         const Pattern& pattern);

}  // namespace gsgrow

#endif  // GSGROW_CORE_INSTANCE_GROWTH_H_
