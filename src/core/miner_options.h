// Options shared by GSgrow and CloGSgrow.
//
// Every field is set by product code (facades, the serve executor, the
// CLIs), except the three paper ablation switches (candidate list,
// LBCheck, insert filter): only bench/ablation_pruning flips those, to
// reproduce the paper's pruning study. They change the work done, never
// the output. The closure check itself
// has one implementation (DESIGN.md §5); its pre-memoization seed version
// is a test oracle, not an option.

#ifndef GSGROW_CORE_MINER_OPTIONS_H_
#define GSGROW_CORE_MINER_OPTIONS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/types.h"

namespace gsgrow {

/// Selection of Table-I semantics measures to compute per emitted pattern
/// (core/semantics_sink.h, DESIGN.md §7). When any measure is enabled and
/// patterns are collected, every facade wraps its emission sink in an
/// AnnotatingSink and the resulting PatternRecords carry an annotation
/// block. Annotation values are a pure function of (pattern, database,
/// selection), so annotated output stays byte-identical at any thread
/// count.
struct SemanticsOptions {
  /// Agrawal & Srikant '95: number of sequences containing the pattern.
  bool sequence_count = false;

  /// Mannila '97 definition (i): width-`window_width` windows containing
  /// the pattern, summed over the database.
  bool fixed_window = false;
  size_t window_width = 10;

  /// Mannila '97 definition (ii): minimal windows, summed over the database.
  bool minimal_window = false;

  /// Zhang '05: landmark occurrences whose consecutive gaps lie in
  /// [min_gap, max_gap], summed over the database.
  bool gap_occurrences = false;
  size_t min_gap = 0;
  size_t max_gap = std::numeric_limits<size_t>::max();

  /// El-Ramly '02: endpoint-matched substrings containing the pattern.
  bool interaction = false;

  /// Lo '07: QRE occurrences (MSC/LSC semantics).
  bool iterative = false;

  bool AnyEnabled() const {
    return sequence_count || fixed_window || minimal_window ||
           gap_occurrences || interaction || iterative;
  }

  /// All six measures with the given window width and gap requirement.
  static SemanticsOptions All(
      size_t window_width = 10, size_t min_gap = 0,
      size_t max_gap = std::numeric_limits<size_t>::max()) {
    SemanticsOptions s;
    s.sequence_count = s.fixed_window = s.minimal_window = true;
    s.gap_occurrences = s.interaction = s.iterative = true;
    s.window_width = window_width;
    s.min_gap = min_gap;
    s.max_gap = max_gap;
    return s;
  }

  friend bool operator==(const SemanticsOptions& a,
                         const SemanticsOptions& b) = default;
};

/// Mining configuration. Defaults mine everything with the paper's
/// optimizations enabled; the budget fields exist so benchmark harnesses can
/// reproduce the paper's "cannot terminate" cut-off behavior gracefully.
struct MinerOptions {
  /// Minimum repetitive support (min_sup). Must be >= 1.
  uint64_t min_support = 2;

  /// Stop growing patterns beyond this length.
  size_t max_pattern_length = std::numeric_limits<size_t>::max();

  /// Abort (with MiningStats::truncated) after emitting this many patterns.
  uint64_t max_patterns = std::numeric_limits<uint64_t>::max();

  /// Abort (with MiningStats::truncated) after this much wall-clock time.
  /// Infinity (default) means unlimited.
  double time_budget_seconds = std::numeric_limits<double>::infinity();

  /// Worker threads sharding the DFS root loop (parallel_engine.h). 1
  /// (default) runs the classic single-threaded engine inline; 0 means one
  /// worker per hardware thread. Untruncated output is byte-identical at
  /// any thread count: patterns in canonical order, per-subtree stats
  /// summed.
  size_t num_threads = 1;

  /// When false, found patterns are only counted (MiningStats::
  /// patterns_found), not materialized into MiningResult::patterns.
  /// Benchmarks mining tens of millions of patterns use this.
  bool collect_patterns = true;

  /// Table-I measures to annotate onto every emitted pattern at emission
  /// time (no post-hoc database rescans; see core/semantics_sink.h). The
  /// default selection is empty: no annotation work, no annotation block.
  /// The selection never changes WHICH patterns are mined, only what each
  /// record carries. With collect_patterns = false the values are computed
  /// and discarded (bench harnesses time the annotation layer this way).
  SemanticsOptions semantics;

  /// When non-empty: restrict mining to patterns over this event subset
  /// (sorted ascending, deduplicated). Gapped-subsequence support depends
  /// only on the positions of the pattern's own events, so the mined
  /// supports equal those of the unrestricted database; for the closed
  /// miner, insert/prepend/append closure candidates are restricted too, so
  /// "closed" means closed within the sub-alphabet — exactly the output of
  /// mining the database with all other events deleted (projection
  /// semantics; tests/serve/mining_service_test.cc pins the equivalence).
  /// Semantics annotations are still measured on the REAL sequences: window
  /// and gap measures see the unprojected positions, which is what a
  /// serving-side "only show me patterns over these events" query wants.
  std::vector<EventId> restrict_alphabet;

  /// Pass the parent's frequent-extension event list down the DFS instead of
  /// retrying the whole alphabet at every node (sound by the Apriori
  /// property; the paper's "maintain a list of possible events", §III-D).
  /// Extension policies whose support measure lacks full Apriori (bounded
  /// gaps) ignore this and always rescan the alphabet.
  bool use_candidate_list = true;

  // --- CloGSgrow-only switches (ignored by GSgrow): the paper's own
  // pruning strategies, kept for its ablation ---

  /// Landmark border checking (Theorem 5): prune entire DFS subtrees below
  /// patterns that provably generate no closed pattern. Disable only for
  /// ablation studies; the output is identical either way.
  bool use_landmark_border_pruning = true;

  /// Pre-filter insert/prepend closure-check candidates with the sound
  /// per-sequence-count condition (see DESIGN.md §1). Disable only for
  /// ablation studies; the output is identical either way.
  bool use_insert_candidate_filter = true;
};

/// True when the restriction list admits `e` (empty list allows
/// everything). The list is sorted, so membership is a binary search —
/// cheap enough for the closure-check candidate loops, and free (one
/// empty() test) when no restriction is active. This is the ONE definition
/// of restriction membership; every holder of a restrict_alphabet
/// (MinerOptions, TopKOptions) routes through it.
inline bool AlphabetAllows(const std::vector<EventId>& restrict_alphabet,
                           EventId e) {
  return restrict_alphabet.empty() ||
         std::binary_search(restrict_alphabet.begin(),
                            restrict_alphabet.end(), e);
}

inline bool AlphabetAllows(const MinerOptions& options, EventId e) {
  return AlphabetAllows(options.restrict_alphabet, e);
}

}  // namespace gsgrow

#endif  // GSGROW_CORE_MINER_OPTIONS_H_
