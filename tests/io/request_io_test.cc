// Parsing and formatting of the serve protocol (io/request_io.h).

#include <limits>
#include <string>

#include "gtest/gtest.h"

#include "core/sequence_database.h"
#include "io/request_io.h"
#include "serve/result_cache.h"

namespace gsgrow {
namespace {

ServeCommand MustParse(const std::string& line) {
  Result<ServeCommand> parsed = ParseServeCommand(line);
  EXPECT_TRUE(parsed.ok()) << line << ": " << parsed.status().ToString();
  return parsed.ok() ? *parsed : ServeCommand{};
}

TEST(RequestIo, ParsesAppendAndExtend) {
  ServeCommand append = MustParse("append login view checkout");
  EXPECT_EQ(append.verb, ServeCommand::Verb::kAppend);
  EXPECT_EQ(append.events,
            (std::vector<std::string>{"login", "view", "checkout"}));

  ServeCommand extend = MustParse("extend 12 retry login");
  EXPECT_EQ(extend.verb, ServeCommand::Verb::kExtend);
  EXPECT_EQ(extend.seq, 12u);
  EXPECT_EQ(extend.events, (std::vector<std::string>{"retry", "login"}));

  EXPECT_FALSE(ParseServeCommand("extend").ok());
  EXPECT_FALSE(ParseServeCommand("extend notanumber A").ok());
}

TEST(RequestIo, ParsesMineArguments) {
  ServeCommand mine = MustParse(
      "mine algo=all min_sup=7 max_len=3 threads=2 events=a,b,c limit=5 "
      "budget=1.5");
  EXPECT_EQ(mine.verb, ServeCommand::Verb::kMine);
  EXPECT_EQ(mine.request.miner, MineRequest::Miner::kAll);
  EXPECT_EQ(mine.request.options.min_support, 7u);
  EXPECT_EQ(mine.request.options.max_pattern_length, 3u);
  EXPECT_EQ(mine.request.options.num_threads, 2u);
  EXPECT_EQ(mine.request.event_filter,
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(mine.limit, 5u);
  EXPECT_DOUBLE_EQ(mine.request.options.time_budget_seconds, 1.5);
  // budget=inf is the explicit form of the unlimited default.
  EXPECT_EQ(MustParse("mine budget=inf").request.options.time_budget_seconds,
            std::numeric_limits<double>::infinity());

  // Defaults: closed mining, unlimited print.
  ServeCommand bare = MustParse("mine");
  EXPECT_EQ(bare.request.miner, MineRequest::Miner::kClosed);
  EXPECT_EQ(bare.limit, static_cast<size_t>(-1));
}

TEST(RequestIo, ParsesGapAndSemantics) {
  ServeCommand gap = MustParse("mine algo=gap min_gap=1 max_gap=4 min_sup=2");
  EXPECT_EQ(gap.request.miner, MineRequest::Miner::kGapConstrained);
  EXPECT_EQ(gap.request.gap.min_gap, 1u);
  EXPECT_EQ(gap.request.gap.max_gap, 4u);

  // Semantics specs carry their own '=' (window:w=10) — must survive the
  // key=value split.
  ServeCommand annotated =
      MustParse("mine semantics=seqcount,window:w=10 min_sup=2");
  EXPECT_TRUE(annotated.request.options.semantics.sequence_count);
  EXPECT_TRUE(annotated.request.options.semantics.fixed_window);
  EXPECT_EQ(annotated.request.options.semantics.window_width, 10u);
}

TEST(RequestIo, ParsesTopK) {
  ServeCommand topk = MustParse("topk k=5 min_len=2 max_len=6");
  EXPECT_EQ(topk.verb, ServeCommand::Verb::kTopK);
  EXPECT_EQ(topk.request.miner, MineRequest::Miner::kTopK);
  EXPECT_EQ(topk.request.k, 5u);
  EXPECT_EQ(topk.request.min_length, 2u);
  EXPECT_EQ(topk.request.options.max_pattern_length, 6u);

  // min_sup is a mine-only key.
  EXPECT_FALSE(ParseServeCommand("topk min_sup=3").ok());
}

TEST(RequestIo, RejectsUnknownKeysAndVerbs) {
  EXPECT_FALSE(ParseServeCommand("mine frobnicate=1").ok());
  EXPECT_FALSE(ParseServeCommand("mine algo=bogus").ok());
  EXPECT_FALSE(ParseServeCommand("mine min_sup=minus").ok());
  EXPECT_FALSE(ParseServeCommand("mine algo=closed min_sup=2 budget=nan").ok());
  EXPECT_FALSE(ParseServeCommand("unknownverb").ok());
  EXPECT_FALSE(ParseServeCommand("run speed=11").ok());
  EXPECT_TRUE(ParseServeCommand("run threads=3").ok());
}

// A worker is an OS thread: an unbounded threads=N let one line ask for
// 200000 of them and abort the server. The ceiling is enforced while
// parsing, so a rejected line never reaches an executor.
TEST(RequestIo, RejectsThreadCountsAboveTheCeiling) {
  for (const char* line :
       {"mine threads=200000", "topk threads=200000", "run threads=200000",
        "mine threads=18446744073709551615"}) {
    Result<ServeCommand> parsed = ParseServeCommand(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(parsed.status().message().find("threads=N, N <= 256"),
              std::string::npos)
        << parsed.status().message();
  }
  const std::string at_ceiling =
      "threads=" + std::to_string(kMaxRequestThreads);
  EXPECT_EQ(MustParse("mine " + at_ceiling).request.options.num_threads,
            kMaxRequestThreads);
  EXPECT_EQ(MustParse("run " + at_ceiling).run_threads, kMaxRequestThreads);
  EXPECT_FALSE(ParseServeCommand(
                   "run threads=" + std::to_string(kMaxRequestThreads + 1))
                   .ok());
  // threads=0 (one worker per hardware thread) is not affected.
  EXPECT_EQ(MustParse("mine threads=0").request.options.num_threads, 0u);
}

// min_gap > max_gap admits no landmark gap at all; the miner used to accept
// it and return only single events.
TEST(RequestIo, RejectsInvertedGapBounds) {
  Result<ServeCommand> parsed =
      ParseServeCommand("mine algo=gap min_gap=5 max_gap=1");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(parsed.status().message(), "mine: min_gap=5 exceeds max_gap=1");
  // Key order does not matter; equal bounds are a valid exact gap.
  EXPECT_FALSE(ParseServeCommand("mine max_gap=0 algo=gap min_gap=1").ok());
  ServeCommand exact = MustParse("mine algo=gap min_gap=2 max_gap=2");
  EXPECT_EQ(exact.request.gap.min_gap, 2u);
  EXPECT_EQ(exact.request.gap.max_gap, 2u);
  // A lone min_gap keeps the unbounded default max_gap.
  EXPECT_TRUE(ParseServeCommand("mine algo=gap min_gap=5").ok());
}

TEST(RequestIo, FormatsResponses) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABC"});
  MineResponse response;
  response.epoch = 4;
  response.patterns.push_back(
      PatternRecord{Pattern({0u, 1u}), 3});
  response.patterns.push_back(PatternRecord{Pattern({2u}), 2});
  EXPECT_EQ(FormatMineResponse(response, db.dictionary(),
                               static_cast<size_t>(-1)),
            "result patterns=2 epoch=4\n3\tA B\n2\tC\n");
  EXPECT_EQ(FormatMineResponse(response, db.dictionary(), 1),
            "result patterns=2 epoch=4\n3\tA B\n");

  response.stats.truncated = true;
  response.stats.truncated_reason = "time_budget";
  EXPECT_EQ(FormatMineResponse(response, db.dictionary(), 0),
            "result patterns=2 epoch=4 truncated=time_budget\n");

  MineResponse failed;
  failed.status = Status::InvalidArgument("k must be >= 1");
  EXPECT_EQ(FormatMineResponse(failed, db.dictionary(), 9),
            "error InvalidArgument: k must be >= 1\n");
}

TEST(RequestIo, FormatsStats) {
  ServiceStats stats;
  stats.num_sequences = 3;
  stats.alphabet_size = 9;
  stats.total_events = 41;
  stats.epoch = 2;
  stats.appends = 5;
  stats.queries = 7;
  stats.cache_hits = 4;
  stats.cache_misses = 3;
  stats.cache_revalidated = 2;
  stats.cache_evicted = 1;
  stats.wal_segments = 2;
  stats.wal_live_bytes = 4096;
  stats.checkpoints = 1;
  stats.wal_replay_records = 6;
  // recover_seconds is wall-clock and must NOT appear in the line
  // (golden-transcript determinism; service_types.h).
  stats.recover_seconds = 1.5;
  EXPECT_EQ(FormatServiceStats(stats),
            "stats sequences=3 alphabet=9 events=41 epoch=2 appends=5 "
            "queries=7 cache_hits=4 cache_misses=3 cache_revalidated=2 "
            "cache_evicted=1 wal_segments=2 wal_bytes=4096 checkpoints=1 "
            "replay_records=6");
}

// ---------------------------------------------------------------------------
// Request canonicalization (CanonicalizeMineRequest / CanonicalRequestKey):
// every member of an equivalence class of requests — permuted filters,
// explicit defaults, execution-knob differences — must collapse to ONE
// cache key, and requests with different answers must not.

std::string KeyOf(const MineRequest& request) {
  return CanonicalRequestKey(request).text();
}

std::string KeyOf(const std::string& line) {
  return KeyOf(MustParse(line).request);
}

TEST(RequestCanonicalization, EquivalenceClassCollapsesToOneKey) {
  const std::string base = KeyOf("mine algo=closed min_sup=2 events=a,b");
  // Permuted + duplicated filter names.
  EXPECT_EQ(base, KeyOf("mine algo=closed min_sup=2 events=b,a,a,b"));
  // Extra whitespace between protocol tokens.
  EXPECT_EQ(base, KeyOf("mine   algo=closed    min_sup=2  events=a,b"));
  // Thread count is answer-invariant (parallel parity), not identity.
  EXPECT_EQ(base, KeyOf("mine algo=closed min_sup=2 events=a,b threads=8"));
  // Key order on the wire.
  EXPECT_EQ(base, KeyOf("mine events=a,b min_sup=2 algo=closed"));
}

TEST(RequestCanonicalization, ExplicitDefaultsEqualElidedOnes) {
  const std::string base = KeyOf("mine algo=closed min_sup=2");
  // A programmatic request carrying stale fields of INACTIVE miners and
  // non-default execution knobs: same canonical identity.
  MineRequest programmatic;
  programmatic.miner = MineRequest::Miner::kClosed;
  programmatic.options.min_support = 2;
  programmatic.options.num_threads = 16;
  programmatic.options.use_landmark_border_pruning = false;
  programmatic.k = 99;               // top-K only; closed ignores it
  programmatic.min_length = 7;       // top-K only
  programmatic.gap.min_gap = 1;      // gap miner only
  programmatic.gap.max_gap = 3;
  programmatic.topk_support_floor_hint = 42;  // internal, never identity
  EXPECT_EQ(base, KeyOf(programmatic));

  // Spelling out a default field is the same as eliding it.
  MineRequest explicit_default = programmatic;
  explicit_default.options.max_pattern_length =
      std::numeric_limits<size_t>::max();
  explicit_default.options.time_budget_seconds =
      std::numeric_limits<double>::infinity();
  EXPECT_EQ(base, KeyOf(explicit_default));
}

TEST(RequestCanonicalization, SemanticsSpecsNormalize) {
  // Measure order in the spec string is presentation, not identity.
  EXPECT_EQ(KeyOf("mine min_sup=2 semantics=seqcount,window:w=10"),
            KeyOf("mine min_sup=2 semantics=window:w=10,seqcount"));
  // Parameters of DISABLED measures are dead state: a stale window width
  // with fixed_window off must not split the key space.
  MineRequest plain;
  plain.options.min_support = 2;
  plain.options.semantics.sequence_count = true;
  MineRequest stale = plain;
  stale.options.semantics.window_width = 99;  // fixed_window is off
  EXPECT_EQ(KeyOf(plain), KeyOf(stale));
  // With NO measure enabled the whole block resets.
  MineRequest none;
  none.options.min_support = 2;
  MineRequest stale_none = none;
  stale_none.options.semantics.window_width = 99;
  EXPECT_EQ(KeyOf(none), KeyOf(stale_none));
}

TEST(RequestCanonicalization, CanonicalizationIsIdempotent) {
  MineRequest request =
      MustParse("mine algo=gap min_gap=1 max_gap=4 min_sup=3 events=c,a,b")
          .request;
  MineRequest once = request;
  CanonicalizeMineRequest(&once);
  MineRequest twice = once;
  CanonicalizeMineRequest(&twice);
  EXPECT_EQ(KeyOf(once), KeyOf(twice));
  EXPECT_EQ(KeyOf(request), KeyOf(once));
  EXPECT_EQ(once.event_filter, twice.event_filter);
  EXPECT_EQ(once.options.min_support, twice.options.min_support);
}

TEST(RequestCanonicalization, DistinctRequestsKeepDistinctKeys) {
  const std::string closed2 = KeyOf("mine algo=closed min_sup=2");
  EXPECT_NE(closed2, KeyOf("mine algo=all min_sup=2"));
  EXPECT_NE(closed2, KeyOf("mine algo=closed min_sup=3"));
  EXPECT_NE(closed2, KeyOf("mine algo=closed min_sup=2 events=a"));
  EXPECT_NE(closed2, KeyOf("mine algo=closed min_sup=2 max_len=3"));
  EXPECT_NE(closed2, KeyOf("mine algo=closed min_sup=2 semantics=seqcount"));
  EXPECT_NE(closed2, KeyOf("topk k=10"));
  EXPECT_NE(KeyOf("topk k=10"), KeyOf("topk k=11"));
  EXPECT_NE(KeyOf("topk k=10 min_len=1"), KeyOf("topk k=10 min_len=2"));
  EXPECT_NE(KeyOf("mine algo=gap min_sup=2 max_gap=1"),
            KeyOf("mine algo=gap min_sup=2 max_gap=2"));
  EXPECT_NE(KeyOf("mine algo=closed min_sup=2 events=a,b"),
            KeyOf("mine algo=closed min_sup=2 events=a,c"));
  // A finite budget stays identity-bearing (such requests are uncacheable,
  // but the key must still not conflate them with unlimited runs).
  EXPECT_NE(closed2, KeyOf("mine algo=closed min_sup=2 budget=1.5"));
}

TEST(RequestCanonicalization, NameFilterReplacesIdRestriction) {
  // The execution path ignores restrict_alphabet when event_filter is
  // non-empty; the key must agree with that precedence.
  MineRequest filtered;
  filtered.options.min_support = 2;
  filtered.event_filter = {"a", "b"};
  MineRequest filtered_with_ids = filtered;
  filtered_with_ids.options.restrict_alphabet = {7, 9};
  EXPECT_EQ(KeyOf(filtered), KeyOf(filtered_with_ids));

  // Without a name filter, the id restriction IS identity (sorted,
  // deduplicated).
  MineRequest ids_only;
  ids_only.options.min_support = 2;
  ids_only.options.restrict_alphabet = {9, 7, 7};
  MineRequest ids_sorted;
  ids_sorted.options.min_support = 2;
  ids_sorted.options.restrict_alphabet = {7, 9};
  EXPECT_EQ(KeyOf(ids_only), KeyOf(ids_sorted));
  EXPECT_NE(KeyOf(ids_only), KeyOf(filtered));
}

}  // namespace
}  // namespace gsgrow
