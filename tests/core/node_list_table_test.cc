// The per-node list table must hand out exactly the position lists the
// index would, for every (relevant sequence, column event) pair, and the
// INSgrow step that reads it must equal both the per-run-lookup growth and
// the binary-search reference, query for query.

#include "core/node_list_table.h"

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "core/closure_oracle.h"
#include "core/instance_growth.h"
#include "core/inverted_index.h"
#include "datagen/models.h"
#include "test_util.h"

namespace gsgrow {
namespace {

using testing::GrowSupportSetReference;

std::vector<Position> ToVector(std::span<const Position> list) {
  return std::vector<Position>(list.begin(), list.end());
}

// Every event of the index plus ids past the alphabet: the table must
// report absent cells for events no row contains.
std::vector<EventId> AllColumns(const InvertedIndex& index) {
  std::vector<EventId> events(index.present_events());
  events.push_back(index.alphabet_size());
  events.push_back(index.alphabet_size() + 7);
  return events;
}

void ExpectCellsMatchIndex(const InvertedIndex& index,
                           const NodeListTable& lists,
                           const std::vector<EventId>& columns,
                           const std::string& label) {
  ASSERT_EQ(lists.num_columns(), columns.size()) << label;
  for (EventId e : columns) {
    const uint32_t col = lists.Column(e);
    for (size_t r = 0; r < lists.num_rows(); ++r) {
      EXPECT_EQ(ToVector(lists.List(r, col)),
                ToVector(index.Positions(lists.row_seq(r), e)))
          << label << " row=" << r << " e=" << e;
    }
  }
}

TEST(NodeListTable, RowsAreTheSupportSetRunsWithTheirCounts) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABA", "B", "AAB", "CC"});
  InvertedIndex index(db);
  const EventId a = db.dictionary().Lookup("A");
  NodeListTable lists;
  lists.Reset(index, RootInstances(index, a));
  ASSERT_EQ(lists.num_rows(), 2u);
  EXPECT_EQ(lists.row_seq(0), 0u);
  EXPECT_EQ(lists.row_count(0), 2u);
  EXPECT_EQ(lists.row_seq(1), 2u);
  EXPECT_EQ(lists.row_count(1), 2u);
  EXPECT_EQ(std::vector<SeqId>(lists.row_seqs().begin(),
                               lists.row_seqs().end()),
            (std::vector<SeqId>{0, 2}));
}

// Cells resolve to the index's lists over many columns added in several
// sorted batches, and a reused table (larger node, then a
// smaller one) never leaks cells from the previous node.
TEST(NodeListTable, CellsMatchIndexPositionsOnRandomDatabases) {
  Rng rng(9091);
  for (int round = 0; round < 30; ++round) {
    SequenceDatabase db = testing::RandomDatabase(&rng, 6, 1, 80, 5);
    InvertedIndex index(db);
    const std::vector<EventId> columns = AllColumns(index);
    NodeListTable lists;
    for (EventId root : index.present_events()) {
      const std::string label = "round=" + std::to_string(round) +
                                " root=" + std::to_string(root);
      lists.Reset(index, RootInstances(index, root));
      // Odd-indexed columns first, then the even ones, then a repeat:
      // AddColumns must merge to the sorted union.
      std::vector<EventId> odd, even;
      for (size_t i = 0; i < columns.size(); ++i) {
        (i % 2 == 1 ? odd : even).push_back(columns[i]);
      }
      lists.AddColumns(odd);
      lists.AddColumns(even);
      lists.AddColumns(odd);
      lists.Build();
      ExpectCellsMatchIndex(index, lists, columns, label);
    }
  }
}

// Loop traces are long, so many cells point at lists dozens of positions
// long.
TEST(NodeListTable, CellsMatchIndexOnLongLoopTraces) {
  SequenceDatabase db = GenerateTcasTraces(20, 3);
  InvertedIndex index(db);
  NodeListTable lists;
  const std::vector<EventId> columns = AllColumns(index);
  for (EventId root : index.present_events()) {
    lists.Reset(index, RootInstances(index, root));
    lists.AddColumns(columns);
    lists.Build();
    ExpectCellsMatchIndex(index, lists, columns,
                          "root=" + std::to_string(root));
  }
}

// Cells are 16 bits wide unless a row's sequence has 65535 or more distinct
// events; slots on both sides of that width must resolve.
TEST(NodeListTable, CellsMatchIndexAcrossTheCellWidthBoundary) {
  for (EventId distinct : {65534u, 65535u, 70000u}) {
    std::vector<EventId> wide(distinct);
    for (EventId e = 0; e < distinct; ++e) wide[e] = e;
    wide.push_back(0);
    std::vector<Sequence> sequences;
    sequences.emplace_back(std::move(wide));
    sequences.emplace_back(std::vector<EventId>{0, distinct - 1, 5, 0});
    const InvertedIndex index((SequenceDatabase(std::move(sequences))));
    const std::vector<EventId> columns = {
        0, 1, 5, 65532, 65533, distinct - 2, distinct - 1, distinct};
    NodeListTable lists;
    lists.Reset(index, RootInstances(index, 0));
    ASSERT_EQ(lists.num_rows(), 2u);
    std::vector<EventId> sorted = columns;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    lists.AddColumns(sorted);
    lists.Build();
    ExpectCellsMatchIndex(index, lists, sorted,
                          "distinct=" + std::to_string(distinct));
  }
}

// RetainCovering is the insert-candidate filter of DESIGN.md §1: keep e
// iff Count(seq_r, e) >= n_r for every row r.
TEST(NodeListTable, RetainCoveringMatchesPerRowCounts) {
  Rng rng(4242);
  for (int round = 0; round < 40; ++round) {
    SequenceDatabase db = testing::RandomDatabase(&rng, 5, 1, 40, 4);
    InvertedIndex index(db);
    NodeListTable lists;
    for (EventId root : index.present_events()) {
      for (EventId next : index.present_events()) {
        const SupportSet set =
            GrowSupportSet(index, RootInstances(index, root), next);
        if (set.empty()) continue;
        lists.Reset(index, set);
        std::vector<EventId> kept = AllColumns(index);
        lists.RetainCovering(kept);
        std::vector<EventId> expected;
        for (EventId e : AllColumns(index)) {
          bool ok = true;
          for (size_t r = 0; r < lists.num_rows(); ++r) {
            if (e >= index.alphabet_size() ||
                index.Count(lists.row_seq(r), e) < lists.row_count(r)) {
              ok = false;
            }
          }
          if (ok) expected.push_back(e);
        }
        EXPECT_EQ(kept, expected) << "round=" << round << " root=" << root
                                  << " next=" << next;
      }
    }
  }
}

// The table-backed INSgrow step equals the per-run-lookup step (same set,
// same next() query count) and the binary-search reference, along chains
// of growth — the shape of the engine's append loop.
TEST(NodeListTable, TableGrowthMatchesIndexGrowthAndReference) {
  Rng rng(777);
  for (int round = 0; round < 30; ++round) {
    SequenceDatabase db = testing::RandomDatabase(&rng, 5, 2, 60, 4);
    InvertedIndex index(db);
    const std::vector<EventId> columns(index.present_events());
    NodeListTable lists;
    SupportSet via_table;
    SupportSet via_index;
    for (EventId root : columns) {
      SupportSet node = RootInstances(index, root);
      for (int depth = 0; depth < 4 && !node.empty(); ++depth) {
        lists.Reset(index, node);
        lists.AddColumns(columns);
        lists.Build();
        for (EventId e : columns) {
          uint64_t table_queries = 0;
          uint64_t index_queries = 0;
          GrowSupportSetInto(lists, node, lists.Column(e), via_table,
                             &table_queries);
          GrowSupportSetInto(index, node, e, via_index, &index_queries);
          const std::string label = "round=" + std::to_string(round) +
                                    " depth=" + std::to_string(depth) +
                                    " e=" + std::to_string(e);
          EXPECT_EQ(via_table, via_index) << label;
          EXPECT_EQ(table_queries, index_queries) << label;
          EXPECT_EQ(via_table, GrowSupportSetReference(index, node, e))
              << label;
        }
        node = GrowSupportSet(index, node, columns[depth % columns.size()]);
      }
    }
  }
}

// A serve snapshot leaves empty sequences without a block. They never hold
// an instance, so they never become rows, and the rows' cells still match.
TEST(NodeListTable, SnapshotWithEmptySequencesSkipsThem) {
  SequenceDatabase db = GenerateTcasTraces(10, 4);
  InvertedIndex snapshot = testing::SnapshotWithEmptySequences(db, 2);
  ASSERT_GT(snapshot.num_sequences(), db.size());
  NodeListTable lists;
  const std::vector<EventId> columns = AllColumns(snapshot);
  for (EventId root : snapshot.present_events()) {
    lists.Reset(snapshot, RootInstances(snapshot, root));
    for (SeqId seq : lists.row_seqs()) {
      EXPECT_NE(snapshot.seq_block(seq), nullptr) << "seq=" << seq;
    }
    lists.AddColumns(columns);
    lists.Build();
    ExpectCellsMatchIndex(snapshot, lists, columns,
                          "root=" + std::to_string(root));
  }
}

}  // namespace
}  // namespace gsgrow
