#include "core/instance_growth.h"

#include "gtest/gtest.h"

#include "core/closure_oracle.h"
#include "core/inverted_index.h"
#include "core/reference.h"
#include "core/sequence_database.h"
#include "test_util.h"

namespace gsgrow {
namespace {

using testing::GrowSupportSetReference;
using testing::MakePattern;

TEST(RootInstances, AllOccurrencesInRightShiftOrder) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABA", "BAA"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  SupportSet set = RootInstances(idx, a);
  ASSERT_EQ(set.size(), 4u);
  EXPECT_TRUE(IsRightShiftSorted(set));
  EXPECT_EQ(set[0], (Instance{0, 0, 0}));
  EXPECT_EQ(set[1], (Instance{0, 2, 2}));
  EXPECT_EQ(set[2], (Instance{1, 1, 1}));
  EXPECT_EQ(set[3], (Instance{1, 2, 2}));
}

TEST(RootInstances, AbsentEventGivesEmptySet) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABA"});
  InvertedIndex idx(db);
  EXPECT_TRUE(RootInstances(idx, 99).empty());
}

TEST(GrowSupportSet, SimpleGrowth) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AABB"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  EventId b = db.dictionary().Lookup("B");
  SupportSet set = RootInstances(idx, a);
  SupportSet grown = GrowSupportSet(idx, set, b);
  ASSERT_EQ(grown.size(), 2u);
  EXPECT_EQ(grown[0], (Instance{0, 0, 2}));
  EXPECT_EQ(grown[1], (Instance{0, 1, 3}));
}

TEST(GrowSupportSet, BreaksOutOfSequenceWhenExhausted) {
  // Only one B: the first A gets it; the second A cannot extend; the growth
  // must also not wrap around into the next sequence's events.
  SequenceDatabase db = MakeDatabaseFromStrings({"AAB", "B"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  EventId b = db.dictionary().Lookup("B");
  SupportSet grown = GrowSupportSet(idx, RootInstances(idx, a), b);
  ASSERT_EQ(grown.size(), 1u);
  EXPECT_EQ(grown[0], (Instance{0, 0, 2}));
}

TEST(GrowSupportSet, NonOverlapWithinSequence) {
  // ABAB: two non-overlapping ABs.
  SequenceDatabase db = MakeDatabaseFromStrings({"ABAB"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  EventId b = db.dictionary().Lookup("B");
  SupportSet grown = GrowSupportSet(idx, RootInstances(idx, a), b);
  ASSERT_EQ(grown.size(), 2u);
  EXPECT_EQ(grown[0], (Instance{0, 0, 1}));
  EXPECT_EQ(grown[1], (Instance{0, 2, 3}));
}

TEST(GrowSupportSet, LastPositionConstraintSkipsConsumedEvents) {
  // AAB B: first A takes first B (pos 2), second A must take pos 3.
  SequenceDatabase db = MakeDatabaseFromStrings({"AABB"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  EventId b = db.dictionary().Lookup("B");
  SupportSet grown = GrowSupportSet(idx, RootInstances(idx, a), b);
  EXPECT_EQ(grown[1].last, 3u);
}

TEST(GrowSupportSet, EmptyInputYieldsEmptyOutput) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AB"});
  InvertedIndex idx(db);
  SupportSet empty;
  EXPECT_TRUE(GrowSupportSet(idx, empty, 0).empty());
}

// --- Cursor fast-path (GrowSupportSetInto) boundary cases. Each scenario
// is also cross-checked against the pre-cursor reference implementation,
// which must stay semantically identical. ---

TEST(GrowSupportSetInto, RunsOfOneInstancePerSequence) {
  // Every sequence contributes exactly one instance: each per-sequence run
  // opens a fresh cursor, issues a single query, and must not leak state
  // into the next run.
  SequenceDatabase db = MakeDatabaseFromStrings({"AB", "AB", "AB"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  EventId b = db.dictionary().Lookup("B");
  SupportSet base = RootInstances(idx, a);
  ASSERT_EQ(base.size(), 3u);
  SupportSet out;
  GrowSupportSetInto(idx, base, b, out);
  ASSERT_EQ(out.size(), 3u);
  for (SeqId i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i], (Instance{i, 0, 1}));
  }
  EXPECT_EQ(out, GrowSupportSetReference(idx, base, b));
}

TEST(GrowSupportSetInto, EventAbsentInMiddleSequence) {
  // B is absent from the middle sequence: its cursor is empty, the run is
  // skipped wholesale, and the later sequence still grows (cross-sequence
  // reset of cursor and floor).
  SequenceDatabase db = MakeDatabaseFromStrings({"AAB", "AAA", "BAB"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  EventId b = db.dictionary().Lookup("B");
  SupportSet base = RootInstances(idx, a);
  ASSERT_EQ(base.size(), 6u);
  SupportSet out;
  GrowSupportSetInto(idx, base, b, out);
  // Seq 0: first A takes B at 2, second A has none. Seq 1: none.
  // Seq 2: A at 1 takes B at 2 — the floor from seq 0 must not carry over.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (Instance{0, 0, 2}));
  EXPECT_EQ(out[1], (Instance{2, 1, 2}));
  EXPECT_EQ(out, GrowSupportSetReference(idx, base, b));
}

TEST(GrowSupportSetInto, EventExhaustedMidRunSkipsRestOfRun) {
  // Four As but only two Bs: the cursor exhausts mid-run; the remaining
  // instances of the run must be skipped without touching the next
  // sequence, whose own positions start before the previous cursor's end.
  SequenceDatabase db = MakeDatabaseFromStrings({"AAAABB", "BA"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  EventId b = db.dictionary().Lookup("B");
  SupportSet base = RootInstances(idx, a);
  SupportSet out;
  GrowSupportSetInto(idx, base, b, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (Instance{0, 0, 4}));
  EXPECT_EQ(out[1], (Instance{0, 1, 5}));
  EXPECT_EQ(out, GrowSupportSetReference(idx, base, b));
}

TEST(GrowSupportSetInto, ScratchBufferIsClearedAndReused) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABAB"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  EventId b = db.dictionary().Lookup("B");
  SupportSet base = RootInstances(idx, a);
  // Pre-poison the scratch: stale contents must not survive.
  SupportSet scratch = {Instance{7, 7, 7}, Instance{8, 8, 8},
                        Instance{9, 9, 9}};
  GrowSupportSetInto(idx, base, b, scratch);
  ASSERT_EQ(scratch.size(), 2u);
  EXPECT_EQ(scratch[0], (Instance{0, 0, 1}));
  EXPECT_EQ(scratch[1], (Instance{0, 2, 3}));
  // Second growth through the same buffer: capacity is recycled, contents
  // replaced.
  GrowSupportSetInto(idx, base, a, scratch);
  EXPECT_EQ(scratch, GrowSupportSetReference(idx, base, a));
}

TEST(GrowSupportSetInto, CountsNextQueries) {
  // AABB: two As, each issuing exactly one successful query.
  SequenceDatabase db = MakeDatabaseFromStrings({"AABB", "AAA"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  EventId b = db.dictionary().Lookup("B");
  SupportSet base = RootInstances(idx, a);
  ASSERT_EQ(base.size(), 5u);
  SupportSet out;
  uint64_t queries = 0;
  GrowSupportSetInto(idx, base, b, out, &queries);
  // Seq 0: 2 queries (both hit). Seq 1: B absent -> empty cursor, zero
  // queries (the run is skipped without searching).
  EXPECT_EQ(queries, 2u);
  // The counter accumulates across calls.
  GrowSupportSetInto(idx, base, b, out, &queries);
  EXPECT_EQ(queries, 4u);
}

TEST(GrowSupportSetInto, MatchesReferenceOnRandomDatabases) {
  Rng rng(555);
  for (int round = 0; round < 40; ++round) {
    SequenceDatabase db = testing::RandomDatabase(&rng, 4, 2, 30, 3);
    InvertedIndex idx(db);
    SupportSet scratch;  // reused across all growths of the round
    for (EventId root = 0; root < db.AlphabetSize(); ++root) {
      SupportSet set = RootInstances(idx, root);
      for (EventId e = 0; e < db.AlphabetSize(); ++e) {
        GrowSupportSetInto(idx, set, e, scratch);
        SupportSet expected = GrowSupportSetReference(idx, set, e);
        EXPECT_EQ(scratch, expected)
            << "round=" << round << " root=" << root << " e=" << e;
        EXPECT_TRUE(IsRightShiftSorted(scratch));
      }
      // Chain a growth to exercise multi-event paths.
      SupportSet grown = GrowSupportSet(idx, set, root);
      EXPECT_EQ(grown, GrowSupportSetReference(idx, set, root));
    }
  }
}

TEST(ComputeSupportSet, EmptyPattern) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AB"});
  InvertedIndex idx(db);
  EXPECT_TRUE(ComputeSupportSet(idx, Pattern()).empty());
  EXPECT_EQ(ComputeSupport(idx, Pattern()), 0u);
}

TEST(ComputeSupportSet, PatternLongerThanAnySequence) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AB"});
  InvertedIndex idx(db);
  EXPECT_EQ(ComputeSupport(idx, MakePattern(db, "ABAB")), 0u);
}

TEST(ComputeSupportSet, PatternWithAbsentEvent) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AB", "CD"});
  InvertedIndex idx(db);
  EXPECT_EQ(ComputeSupport(idx, MakePattern(db, "AD")), 0u);
}

TEST(ComputeSupportSet, SingleEventSupportIsTotalCount) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AABA", "BA"});
  InvertedIndex idx(db);
  EXPECT_EQ(ComputeSupport(idx, MakePattern(db, "A")), 4u);
  EXPECT_EQ(ComputeSupport(idx, MakePattern(db, "B")), 2u);
}

TEST(ComputeSupportSet, RepeatedEventPattern) {
  // AAAA: overlap is per pattern index (Definition 2.3), so instances of AA
  // may chain: (0,1), (1,2), (2,3) are pairwise non-overlapping -> sup 3.
  SequenceDatabase db = MakeDatabaseFromStrings({"AAAA"});
  InvertedIndex idx(db);
  EXPECT_EQ(ComputeSupport(idx, MakePattern(db, "AA")), 3u);
  EXPECT_EQ(ComputeSupport(idx, MakePattern(db, "AAA")), 2u);
  EXPECT_EQ(ComputeSupport(idx, MakePattern(db, "AAAA")), 1u);
  EXPECT_EQ(ComputeSupport(idx, MakePattern(db, "AAAAA")), 0u);
}

TEST(ComputeSupportSet, OverCountingExampleFromPaperSection2) {
  // SeqDB = {AABBCC}: the naive all-instances count of AB would be 4;
  // repetitive support is 2.
  SequenceDatabase db = MakeDatabaseFromStrings({"AABBCC"});
  InvertedIndex idx(db);
  EXPECT_EQ(EnumerateLandmarks(db[0], MakePattern(db, "AB")).size(), 4u);
  EXPECT_EQ(ComputeSupport(idx, MakePattern(db, "AB")), 2u);
  EXPECT_EQ(ComputeSupport(idx, MakePattern(db, "ABC")), 2u);
}

TEST(ComputeFullSupportSet, MatchesCompressedTriples) {
  SequenceDatabase db =
      MakeDatabaseFromStrings({"ABCACBDDB", "ACDBACADD"});
  InvertedIndex idx(db);
  for (const char* pat : {"A", "AB", "ACB", "ACA", "AAD", "ABD", "ACAD"}) {
    Pattern p = MakePattern(db, pat);
    SupportSet triples = ComputeSupportSet(idx, p);
    std::vector<FullInstance> full = ComputeFullSupportSet(idx, p);
    ASSERT_EQ(triples.size(), full.size()) << pat;
    for (size_t k = 0; k < full.size(); ++k) {
      EXPECT_EQ(triples[k].seq, full[k].seq) << pat;
      EXPECT_EQ(triples[k].first, full[k].landmark.front()) << pat;
      EXPECT_EQ(triples[k].last, full[k].landmark.back()) << pat;
      EXPECT_EQ(full[k].landmark.size(), p.size()) << pat;
    }
  }
}

TEST(ComputeFullSupportSet, LandmarksStrictlyIncrease) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABABABAB"});
  InvertedIndex idx(db);
  for (const FullInstance& inst :
       ComputeFullSupportSet(idx, MakePattern(db, "ABA"))) {
    for (size_t j = 1; j < inst.landmark.size(); ++j) {
      EXPECT_LT(inst.landmark[j - 1], inst.landmark[j]);
    }
  }
}

TEST(PerSequenceSupport, DecomposesTotalSupport) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABAB", "AB", "BA"});
  InvertedIndex idx(db);
  Pattern ab = MakePattern(db, "AB");
  std::vector<uint32_t> per_seq = PerSequenceSupport(idx, ab);
  ASSERT_EQ(per_seq.size(), 3u);
  EXPECT_EQ(per_seq[0], 2u);
  EXPECT_EQ(per_seq[1], 1u);
  EXPECT_EQ(per_seq[2], 0u);
  uint64_t total = 0;
  for (uint32_t c : per_seq) total += c;
  EXPECT_EQ(total, ComputeSupport(idx, ab));
}

}  // namespace
}  // namespace gsgrow
