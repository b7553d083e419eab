#include "core/node_list_table.h"

#include <algorithm>
#include <iterator>
#include <limits>

namespace gsgrow {

namespace {

// First index k >= `from` with events[k] >= e (events ascending). Gallops
// from `from`, so a merge walk costs O(cols * log(step)) when the row has
// many more events than there are columns and stays linear otherwise.
size_t SeekEvent(std::span<const EventId> events, size_t from, EventId e) {
  const size_t n = events.size();
  if (from >= n || events[from] >= e) return from;
  size_t lo = from;  // events[lo] < e
  size_t step = 1;
  while (lo + step < n && events[lo + step] < e) {
    lo += step;
    step <<= 1;
  }
  const size_t hi = std::min(lo + step, n);
  return static_cast<size_t>(
      std::lower_bound(events.begin() + lo + 1, events.begin() + hi, e) -
      events.begin());
}

}  // namespace

void NodeListTable::Reset(const InvertedIndex& index,
                          const SupportSet& support_set) {
  GSGROW_DCHECK(IsRightShiftSorted(support_set));
  row_seqs_.clear();
  row_counts_.clear();
  row_blocks_.clear();
  columns_.clear();
  built_ = false;
  for (const Instance& inst : support_set) {
    if (!row_seqs_.empty() && row_seqs_.back() == inst.seq) {
      row_counts_.back()++;
    } else {
      row_seqs_.push_back(inst.seq);
      row_counts_.push_back(1);
      row_blocks_.push_back(index.seq_block(inst.seq).get());
    }
  }
}

void NodeListTable::AddColumns(std::span<const EventId> events) {
  GSGROW_DCHECK(std::adjacent_find(events.begin(), events.end(),
                                   [](EventId a, EventId b) {
                                     return a >= b;
                                   }) == events.end());
  if (events.empty()) return;
  if (columns_.empty()) {
    columns_.assign(events.begin(), events.end());
    return;
  }
  merge_scratch_.clear();
  std::set_union(columns_.begin(), columns_.end(), events.begin(),
                 events.end(), std::back_inserter(merge_scratch_));
  columns_.swap(merge_scratch_);
}

void NodeListTable::RetainCovering(std::vector<EventId>& events) const {
  for (size_t r = 0; r < num_rows() && !events.empty(); ++r) {
    const InvertedIndex::SeqBlock* block = row_blocks_[r];
    const std::span<const EventId> row = row_events(r);
    const uint32_t need = row_counts_[r];
    size_t k = 0;
    size_t kept = 0;
    for (EventId e : events) {
      k = SeekEvent(row, k, e);
      if (k == row.size()) break;
      if (row[k] == e && block->offsets[k + 1] - block->offsets[k] >= need) {
        events[kept++] = e;
      }
    }
    events.resize(kept);
  }
}

void NodeListTable::Build() {
  size_t widest_row = 0;
  for (size_t r = 0; r < num_rows(); ++r) {
    widest_row = std::max(widest_row, row_events(r).size());
  }
  wide_ = widest_row >= std::numeric_limits<uint16_t>::max();
  if (wide_) {
    FillCells(wide_cells_);
  } else {
    FillCells(narrow_cells_);
  }
  built_ = true;
}

template <typename Cell>
void NodeListTable::FillCells(std::vector<Cell>& cells) const {
  const size_t rows = num_rows();
  const size_t cols = num_columns();
  cells.resize(rows * cols);
  for (size_t r = 0; r < rows; ++r) {
    const std::span<const EventId> row = row_events(r);
    size_t k = 0;
    for (size_t c = 0; c < cols; ++c) {
      k = SeekEvent(row, k, columns_[c]);
      cells[c * rows + r] =
          k < row.size() && row[k] == columns_[c] ? static_cast<Cell>(k + 1)
                                                  : Cell{0};
    }
  }
}

uint32_t NodeListTable::Column(EventId e) const {
  const auto it = std::lower_bound(columns_.begin(), columns_.end(), e);
  GSGROW_DCHECK(it != columns_.end() && *it == e);
  return static_cast<uint32_t>(it - columns_.begin());
}

}  // namespace gsgrow
