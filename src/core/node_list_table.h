// Per-node position-list table (DESIGN.md §5).
//
// Every next() query a DFS node issues — the append-extension loop of the
// extension policy and the insert/prepend regrow chains of the closure
// check — goes to a (sequence, event) position list whose sequence is one
// of the node's relevant sequences (those holding an instance of the
// pattern) and whose event is known before any growth starts: an append
// candidate, an insert candidate, or a pattern event. NodeListTable resolves
// all of those lists once per node, with one merge walk per relevant
// sequence of its sorted event array against the sorted column set, instead
// of one InvertedIndex::Positions binary search per (sequence run, INSgrow
// step).
//
// Rows are the node's relevant sequences in ascending order, i.e. exactly
// the per-sequence runs of the node's leftmost support set, each with its
// instance count n_i. Columns are a sorted, duplicate-free event set. A cell
// holds the event's slot index in the row's SeqBlock, plus one (0 when the
// event does not occur there), in 2 bytes — or in 4 when some row's
// sequence has 65535 or more distinct events — plus one block pointer per
// row, so a table costs rows x cols x 2 B (at most 4 B). The cell is
// deliberately not the list's std::span (16 bytes, 8x a cell) — the span is
// rebuilt from (block, slot) with two offset loads when a run asks for it,
// and the table stays small enough to remain cache-resident at a wide root.
//
// The table is a reusable buffer: Reset / AddColumns / Build rebuild it for
// the next node while keeping every vector's capacity, so a warm table
// allocates nothing. Each engine (one per worker) owns one.

#ifndef GSGROW_CORE_NODE_LIST_TABLE_H_
#define GSGROW_CORE_NODE_LIST_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/instance.h"
#include "core/inverted_index.h"
#include "core/types.h"
#include "util/logging.h"

namespace gsgrow {

class NodeListTable {
 public:
  /// Starts a new node: the rows become the distinct sequences of
  /// `support_set` (which must be in right-shift order) with their instance
  /// counts, and the column set is emptied. `index` must outlive every
  /// lookup until the next Reset.
  void Reset(const InvertedIndex& index, const SupportSet& support_set);

  /// Adds `events` (ascending, duplicate-free) to the column set.
  void AddColumns(std::span<const EventId> events);

  /// Keeps only the events of `events` (ascending) that occur at least
  /// row_count(r) times in every row r — the per-sequence-count condition
  /// of the insert-candidate filter (DESIGN.md §1). One merge walk per row,
  /// stopping early once nothing is left.
  void RetainCovering(std::vector<EventId>& events) const;

  /// Resolves every (row, column) cell. Call after the last AddColumns.
  void Build();

  size_t num_rows() const { return row_seqs_.size(); }
  std::span<const SeqId> row_seqs() const { return row_seqs_; }
  SeqId row_seq(size_t row) const { return row_seqs_[row]; }
  /// Instances of the node's pattern in the row's sequence (n_i >= 1).
  uint32_t row_count(size_t row) const { return row_counts_[row]; }
  /// Distinct events of the row's sequence, ascending.
  std::span<const EventId> row_events(size_t row) const {
    const InvertedIndex::SeqBlock* block = row_blocks_[row];
    return block == nullptr ? std::span<const EventId>() : block->events;
  }

  size_t num_columns() const { return columns_.size(); }

  /// Column index of `e`, which must be in the column set.
  uint32_t Column(EventId e) const;

  /// Positions of column `col`'s event in row `row`'s sequence.
  std::span<const Position> List(size_t row, uint32_t col) const {
    GSGROW_DCHECK(built_ && row < num_rows() && col < num_columns());
    const size_t i = col * num_rows() + row;
    const uint32_t cell = wide_ ? wide_cells_[i] : narrow_cells_[i];
    if (cell == 0) return {};
    return row_blocks_[row]->Slot(cell - 1);
  }

  /// Cursor over List(row, col) for one run of next() queries.
  PositionCursor Cursor(size_t row, uint32_t col) const {
    return PositionCursor(List(row, col));
  }

 private:
  // Rows (parallel arrays).
  std::vector<SeqId> row_seqs_;
  std::vector<uint32_t> row_counts_;
  std::vector<const InvertedIndex::SeqBlock*> row_blocks_;
  // Sorted, duplicate-free column events; merge scratch for AddColumns.
  std::vector<EventId> columns_;
  std::vector<EventId> merge_scratch_;
  // Column-major cells (slot + 1, 0 = absent) at [col * num_rows() + row].
  // A column is contiguous because INSgrow walks every row of one column
  // per step. Only one of the two vectors is in use, chosen per node by
  // Build: the wide one only when a slot + 1 does not fit in 16 bits.
  std::vector<uint16_t> narrow_cells_;
  std::vector<uint32_t> wide_cells_;
  bool wide_ = false;
  bool built_ = false;

  template <typename Cell>
  void FillCells(std::vector<Cell>& cells) const;
};

}  // namespace gsgrow

#endif  // GSGROW_CORE_NODE_LIST_TABLE_H_
