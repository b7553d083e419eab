#include "core/inverted_index.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "gtest/gtest.h"

#include "core/clogsgrow.h"
#include "core/gsgrow.h"
#include "core/sequence_database.h"
#include "core/topk.h"
#include "test_util.h"
#include "util/arena.h"

namespace gsgrow {
namespace {

class InvertedIndexTest : public ::testing::Test {
 protected:
  // S1 = ABCACBDDB, S2 = ACDBACADD (Table III of the paper).
  SequenceDatabase db_ = MakeDatabaseFromStrings({"ABCACBDDB", "ACDBACADD"});
  InvertedIndex index_{db_};
  EventId A_ = db_.dictionary().Lookup("A");
  EventId B_ = db_.dictionary().Lookup("B");
  EventId C_ = db_.dictionary().Lookup("C");
  EventId D_ = db_.dictionary().Lookup("D");
};

TEST_F(InvertedIndexTest, PositionsAreSortedPerSequence) {
  auto pos = index_.Positions(0, A_);
  ASSERT_EQ(pos.size(), 2u);
  EXPECT_EQ(pos[0], 0u);
  EXPECT_EQ(pos[1], 3u);
  auto pos2 = index_.Positions(1, A_);
  ASSERT_EQ(pos2.size(), 3u);
  EXPECT_EQ(pos2[0], 0u);
  EXPECT_EQ(pos2[1], 4u);
  EXPECT_EQ(pos2[2], 6u);
}

TEST_F(InvertedIndexTest, PositionsOfAbsentEventEmpty) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AB", "CD"});
  InvertedIndex idx(db);
  EventId c = db.dictionary().Lookup("C");
  EXPECT_TRUE(idx.Positions(0, c).empty());
}

TEST_F(InvertedIndexTest, NextAtOrAfterFindsFirst) {
  EXPECT_EQ(index_.NextAtOrAfter(0, A_, 0), 0u);
  EXPECT_EQ(index_.NextAtOrAfter(0, A_, 1), 3u);
  EXPECT_EQ(index_.NextAtOrAfter(0, A_, 3), 3u);
  EXPECT_EQ(index_.NextAtOrAfter(0, A_, 4), kNoPosition);
}

TEST_F(InvertedIndexTest, NextAtOrAfterMatchesPaperNextSemantics) {
  // Paper Example 3.3: next(S1, B, max{6,5}) = 9 in 1-based positions.
  // 0-based: next position of B at or after 6 is 8.
  EXPECT_EQ(index_.NextAtOrAfter(0, B_, 6), 8u);
}

TEST_F(InvertedIndexTest, CountPerSequence) {
  EXPECT_EQ(index_.Count(0, B_), 3u);
  EXPECT_EQ(index_.Count(1, B_), 1u);
  EXPECT_EQ(index_.Count(0, D_), 2u);
  EXPECT_EQ(index_.Count(1, D_), 3u);
}

TEST_F(InvertedIndexTest, TotalCount) {
  EXPECT_EQ(index_.TotalCount(A_), 5u);
  EXPECT_EQ(index_.TotalCount(B_), 4u);
  EXPECT_EQ(index_.TotalCount(C_), 4u);
  EXPECT_EQ(index_.TotalCount(D_), 5u);
  EXPECT_EQ(index_.TotalCount(999), 0u);
}

TEST_F(InvertedIndexTest, PostingsAscendingBySequence) {
  auto postings = index_.Postings(A_);
  ASSERT_EQ(postings.size(), 2u);
  EXPECT_EQ(postings[0].seq, 0u);
  EXPECT_EQ(postings[0].count, 2u);
  EXPECT_EQ(postings[1].seq, 1u);
  EXPECT_EQ(postings[1].count, 3u);
}

TEST_F(InvertedIndexTest, PostingsOfUnknownEventEmpty) {
  EXPECT_TRUE(index_.Postings(1234).empty());
}

TEST_F(InvertedIndexTest, EventsInSequenceSorted) {
  auto events = index_.EventsInSequence(0);
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1], events[i]);
  }
}

TEST_F(InvertedIndexTest, PresentEventsCoversAlphabet) {
  EXPECT_EQ(index_.present_events().size(), 4u);
  EXPECT_EQ(index_.alphabet_size(), 4u);
  EXPECT_EQ(index_.num_sequences(), 2u);
}

TEST(InvertedIndexEdge, EmptyDatabase) {
  SequenceDatabase db;
  InvertedIndex idx(db);
  EXPECT_EQ(idx.alphabet_size(), 0u);
  EXPECT_EQ(idx.num_sequences(), 0u);
  EXPECT_TRUE(idx.present_events().empty());
}

TEST(InvertedIndexEdge, SequenceWithOneEvent) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AAAA"});
  InvertedIndex idx(db);
  EXPECT_EQ(idx.TotalCount(0), 4u);
  EXPECT_EQ(idx.NextAtOrAfter(0, 0, 2), 2u);
  EXPECT_EQ(idx.NextAtOrAfter(0, 0, 4), kNoPosition);
}

TEST(InvertedIndexEdge, SparseAlphabetIds) {
  SequenceDatabaseBuilder b;
  b.AddSequenceIds({0, 100, 0});
  SequenceDatabase db = b.Build();
  InvertedIndex idx(db);
  EXPECT_EQ(idx.alphabet_size(), 101u);
  EXPECT_EQ(idx.TotalCount(100), 1u);
  EXPECT_EQ(idx.TotalCount(50), 0u);
  EXPECT_EQ(idx.present_events().size(), 2u);
}

TEST_F(InvertedIndexTest, CursorAnswersLikePointQueries) {
  // S1 = ABCACBDDB: B at 1, 5, 8. Rising-bound queries through one cursor
  // must match fresh binary searches.
  PositionCursor cursor = index_.Cursor(0, B_);
  EXPECT_FALSE(cursor.empty());
  EXPECT_EQ(cursor.NextAtOrAfter(0), 1u);
  EXPECT_EQ(cursor.NextAtOrAfter(1), 1u);  // same bound: not yet consumed
  EXPECT_EQ(cursor.NextAtOrAfter(2), 5u);
  EXPECT_EQ(cursor.NextAtOrAfter(6), 8u);
  EXPECT_EQ(cursor.NextAtOrAfter(9), kNoPosition);
  // Exhausted cursors stay exhausted.
  EXPECT_EQ(cursor.NextAtOrAfter(9), kNoPosition);
}

TEST_F(InvertedIndexTest, CursorOverAbsentEventIsEmpty) {
  PositionCursor cursor = index_.Cursor(0, 999);
  EXPECT_TRUE(cursor.empty());
  EXPECT_EQ(cursor.NextAtOrAfter(0), kNoPosition);
}

TEST_F(InvertedIndexTest, DefaultCursorIsEmpty) {
  PositionCursor cursor;
  EXPECT_TRUE(cursor.empty());
  EXPECT_EQ(cursor.NextAtOrAfter(0), kNoPosition);
}

// The galloping advance must agree with fresh binary searches for every
// non-decreasing query stream, including large jumps that exercise the
// doubling phase and repeated equal bounds. Sequences up to several hundred
// positions over a small alphabet give lists long enough to gallop far.
TEST(InvertedIndexProperty, CursorMatchesNextAtOrAfterOnRandomStreams) {
  Rng rng(202);
  for (int round = 0; round < 50; ++round) {
    const size_t max_len = round % 3 == 2 ? 400 : 60;
    SequenceDatabase db = testing::RandomDatabase(&rng, 2, 10, max_len, 3);
    InvertedIndex idx(db);
    for (SeqId i = 0; i < db.size(); ++i) {
      for (EventId e = 0; e < db.AlphabetSize(); ++e) {
        PositionCursor cursor = idx.Cursor(i, e);
        Position from = 0;
        while (from <= db[i].length()) {
          EXPECT_EQ(cursor.NextAtOrAfter(from), idx.NextAtOrAfter(i, e, from))
              << "round=" << round << " seq=" << i << " e=" << e
              << " from=" << from;
          // Mix of small steps (consume adjacent positions) and jumps
          // (force galloping over several positions at once).
          from += 1 + static_cast<Position>(rng.UniformInt(
                         round % 2 == 0 ? 3 : db[i].length() / 2 + 1));
        }
      }
    }
  }
}

// Differential check of NextAtOrAfter against a linear scan on random data.
TEST(InvertedIndexProperty, NextMatchesLinearScan) {
  Rng rng(101);
  for (int round = 0; round < 30; ++round) {
    SequenceDatabase db = testing::RandomDatabase(&rng, 3, 1, 20, 4);
    InvertedIndex idx(db);
    for (SeqId i = 0; i < db.size(); ++i) {
      const Sequence& s = db[i];
      for (EventId e = 0; e < db.AlphabetSize(); ++e) {
        for (Position from = 0; from <= s.length(); ++from) {
          Position expected = kNoPosition;
          for (Position p = from; p < s.length(); ++p) {
            if (s[p] == e) {
              expected = p;
              break;
            }
          }
          EXPECT_EQ(idx.NextAtOrAfter(i, e, from), expected);
        }
      }
    }
  }
}

// The plain CSR layout reaches the miner in two assemblies: the batch
// constructor (every block in one shared arena) and the snapshot-assembly
// constructor adopting blocks frozen one arena each, as a serve snapshot
// does. This builds the second straight from the database by a per-event
// scan, independently of the batch path.
InvertedIndex AssembleFromPerSequenceBlocks(const SequenceDatabase& db) {
  const EventId alphabet = db.AlphabetSize();
  std::vector<std::shared_ptr<const InvertedIndex::SeqBlock>> blocks(
      db.size());
  std::vector<std::vector<InvertedIndex::Posting>> postings(alphabet);
  std::vector<uint64_t> totals(alphabet, 0);
  for (SeqId i = 0; i < db.size(); ++i) {
    const Sequence& s = db[i];
    std::vector<EventId> events;
    std::vector<uint32_t> offsets;
    std::vector<Position> positions;
    for (EventId e = 0; e < alphabet; ++e) {
      const uint32_t begin = static_cast<uint32_t>(positions.size());
      for (Position p = 0; p < s.length(); ++p) {
        if (s[p] == e) positions.push_back(p);
      }
      const uint32_t count = static_cast<uint32_t>(positions.size()) - begin;
      if (count == 0) continue;
      events.push_back(e);
      offsets.push_back(begin);
      postings[e].push_back(InvertedIndex::Posting{i, count});
      totals[e] += count;
    }
    if (events.empty()) continue;
    offsets.push_back(static_cast<uint32_t>(positions.size()));
    blocks[i] = InvertedIndex::BuildSeqBlock(events, offsets, positions,
                                             std::make_shared<Arena>());
  }
  std::vector<std::shared_ptr<const InvertedIndex::EventPostings>> frozen(
      alphabet);
  std::vector<EventId> present;
  for (EventId e = 0; e < alphabet; ++e) {
    if (totals[e] == 0) continue;
    frozen[e] = InvertedIndex::BuildEventPostings(postings[e], totals[e],
                                                  std::make_shared<Arena>());
    present.push_back(e);
  }
  return InvertedIndex(std::move(blocks), std::move(frozen),
                       std::move(present), alphabet);
}

// The two assemblies must present the identical query surface: position
// lists, counts, point queries, postings and the present-event list.
TEST(InvertedIndexProperty, EncodingsAgreeOnFullQuerySurface) {
  Rng rng(613);
  for (int round = 0; round < 12; ++round) {
    // Long sequences over a small alphabet give lists hundreds long;
    // occasional large alphabets give short and absent lists.
    const size_t alphabet = round % 4 == 3 ? 20 : 3;
    SequenceDatabase db = testing::RandomDatabase(&rng, 3, 50, 500, alphabet);
    InvertedIndex batch(db);
    InvertedIndex assembled = AssembleFromPerSequenceBlocks(db);
    ASSERT_EQ(batch.num_sequences(), assembled.num_sequences());
    ASSERT_EQ(batch.alphabet_size(), assembled.alphabet_size());
    ASSERT_EQ(batch.present_events(), assembled.present_events());
    for (SeqId i = 0; i < db.size(); ++i) {
      ASSERT_EQ(batch.SequenceLength(i), assembled.SequenceLength(i));
      const auto eb = batch.EventsInSequence(i);
      const auto ea = assembled.EventsInSequence(i);
      ASSERT_TRUE(std::equal(eb.begin(), eb.end(), ea.begin(), ea.end()));
      for (EventId e = 0; e < db.AlphabetSize(); ++e) {
        const auto pb = batch.Positions(i, e);
        const auto pa = assembled.Positions(i, e);
        ASSERT_TRUE(std::equal(pb.begin(), pb.end(), pa.begin(), pa.end()))
            << "seq " << i << " e " << e;
        for (Position from = 0; from <= db[i].length() + 1; ++from) {
          ASSERT_EQ(batch.NextAtOrAfter(i, e, from),
                    assembled.NextAtOrAfter(i, e, from))
              << "seq " << i << " e " << e << " from " << from;
        }
        ASSERT_EQ(batch.Count(i, e), assembled.Count(i, e));
      }
    }
    for (EventId e = 0; e < db.AlphabetSize(); ++e) {
      ASSERT_EQ(batch.TotalCount(e), assembled.TotalCount(e));
      const auto qb = batch.Postings(e);
      const auto qa = assembled.Postings(e);
      ASSERT_TRUE(std::equal(qb.begin(), qb.end(), qa.begin(), qa.end()))
          << "postings of e " << e;
    }
  }
}

// Acceptance gate: mined output must be byte-identical across the two
// assemblies — closed (with full Table-I annotations), all-frequent, and
// top-K.
TEST(InvertedIndexProperty, MiningIsIdenticalAcrossEncodings) {
  Rng rng(871);
  for (int round = 0; round < 6; ++round) {
    // Small alphabets + modest lengths keep the closed-pattern space sane
    // (repetitive support counts OCCURRENCES, so long low-alphabet
    // sequences explode combinatorially); one long-sequence round still
    // exercises long position lists.
    SequenceDatabase db =
        round == 5 ? testing::RandomDatabase(&rng, 4, 100, 150, 6)
                   : testing::RandomDatabase(&rng, 6, 10, 35, 5);
    InvertedIndex batch(db);
    InvertedIndex assembled = AssembleFromPerSequenceBlocks(db);

    MinerOptions options;
    options.min_support = round == 5 ? 60 : 6;
    options.semantics = SemanticsOptions::All(/*window_width=*/6,
                                              /*min_gap=*/0, /*max_gap=*/4);
    ASSERT_EQ(MineClosedFrequent(batch, options).patterns,
              MineClosedFrequent(assembled, options).patterns)
        << "closed mining diverged, round " << round;

    options.semantics = SemanticsOptions{};
    options.max_pattern_length = 4;
    ASSERT_EQ(MineAllFrequent(batch, options).patterns,
              MineAllFrequent(assembled, options).patterns)
        << "all-frequent mining diverged, round " << round;

    TopKOptions topk;
    topk.k = 10;
    topk.min_length = 2;
    ASSERT_EQ(MineTopKClosed(batch, topk).patterns,
              MineTopKClosed(assembled, topk).patterns)
        << "top-K mining diverged, round " << round;
  }
}

#ifndef NDEBUG
// Satellite regression for the cursor contract hole: a DECREASING bound
// must trip the debug assertion instead of silently skipping positions.
TEST(InvertedIndexDeath, CursorRejectsDecreasingBounds) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABABABAB"});
  InvertedIndex idx(db);
  EXPECT_DEATH(
      {
        PositionCursor cursor = idx.Cursor(0, 0);
        cursor.NextAtOrAfter(5);
        cursor.NextAtOrAfter(2);  // decreasing: contract violation
      },
      "non-decreasing");
}
#endif

}  // namespace
}  // namespace gsgrow
