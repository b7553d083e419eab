// Golden-transcript test for the serve protocol loop. The same
// RunServeSession function backs examples/serve_cli.cpp and the CI
// serve-smoke step; this suite pins its observable behavior — response
// shapes, epochs, batch semantics, error recovery — down to the byte.

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>

#include "gtest/gtest.h"

#include "io/request_io.h"
#include "io/spmf_format.h"
#include "obs/metrics.h"
#include "serve/mining_service.h"
#include "serve/serve_session.h"

namespace gsgrow {
namespace {

struct SessionResult {
  std::string output;
  int errors = 0;
};

SessionResult RunScript(const std::string& script) {
  MiningService service;
  std::istringstream in(script);
  std::ostringstream out;
  SessionResult result;
  result.errors = RunServeSession(service, in, out);
  result.output = out.str();
  return result;
}

TEST(ServeSession, AppendMineStatsTranscript) {
  const SessionResult result = RunScript(
      "# comment lines and blanks are skipped\n"
      "\n"
      "append A A B C A B\n"
      "append A B C D\n"
      "mine algo=closed min_sup=2\n"
      "extend 1 A B\n"
      "mine algo=closed min_sup=2 limit=2\n"
      "stats\n"
      "quit\n");
  EXPECT_EQ(result.errors, 0);
  EXPECT_EQ(result.output,
            "ok seq=0 len=6\n"
            "ok seq=1 len=4\n"
            "result patterns=4 epoch=1\n"
            "4\tA\n"
            "2\tA A B\n"
            "3\tA B\n"
            "2\tA B C\n"
            "ok seq=1 appended=2\n"
            "result patterns=4 epoch=2\n"
            "5\tA\n"
            "3\tA A B\n"
            "stats sequences=2 alphabet=4 events=12 epoch=2 appends=3 "
            "queries=2 cache_hits=0 cache_misses=2 cache_revalidated=0 "
            "cache_evicted=0 wal_segments=0 wal_bytes=0 checkpoints=0 "
            "replay_records=0\n"
            "bye\n");
}

TEST(ServeSession, BatchSharesOneEpoch) {
  const SessionResult result = RunScript(
      "append A B A B A B\n"
      "append B A B A\n"
      "batch\n"
      "mine algo=all min_sup=4 max_len=2\n"
      "topk k=2 min_len=2\n"
      "run threads=2\n"
      "quit\n");
  EXPECT_EQ(result.errors, 0);
  EXPECT_EQ(result.output,
            "ok seq=0 len=6\n"
            "ok seq=1 len=4\n"
            "batch start\n"
            "queued 0\n"
            "queued 1\n"
            "batch results=2\n"
            "request 0\n"
            "result patterns=4 epoch=1\n"
            "5\tA\n"
            "4\tA B\n"
            "5\tB\n"
            "4\tB A\n"
            "request 1\n"
            "result patterns=2 epoch=1\n"
            "4\tA B\n"
            "4\tB A\n"
            "bye\n");
}

TEST(ServeSession, SemanticsAndEventFilters) {
  const SessionResult result = RunScript(
      "append A A B C A B\n"
      "mine min_sup=2 events=A,B semantics=seqcount,window:w=4\n"
      "quit\n");
  EXPECT_EQ(result.errors, 0);
  // Under the {A,B} filter, "A B" (support 2) is suppressed as non-closed:
  // prepending A gives "A A B" with the same support.
  EXPECT_EQ(result.output,
            "ok seq=0 len=6\n"
            "result patterns=2 epoch=1\n"
            "3\tA\t|\tsequence_count=1 fixed_window=3\n"
            "2\tA A B\t|\tsequence_count=1 fixed_window=1\n"
            "bye\n");
}

TEST(ServeSession, ErrorsDoNotKillTheSession) {
  const SessionResult result = RunScript(
      "bogus\n"
      "extend 7 A\n"
      "mine min_sup=zero\n"
      "mine frobnicate=1\n"
      "run\n"
      "append A A\n"
      "mine min_sup=2\n"
      "quit\n");
  EXPECT_EQ(result.errors, 5);
  // The session recovered: the final query answered normally.
  EXPECT_NE(result.output.find("result patterns=1 epoch=1\n2\tA\n"),
            std::string::npos);
  EXPECT_NE(result.output.find("bye\n"), std::string::npos);
}

TEST(ServeSession, BatchRejectsAppends) {
  const SessionResult result = RunScript(
      "append A A\n"
      "batch\n"
      "append B B\n"
      "mine min_sup=2\n"
      "run\n"
      "quit\n");
  EXPECT_EQ(result.errors, 1);
  EXPECT_NE(result.output.find("error InvalidArgument: only mine/topk/run"),
            std::string::npos);
  EXPECT_NE(result.output.find("batch results=1\n"), std::string::npos);
}

TEST(ServeSession, EndsAtEofWithoutQuit) {
  const SessionResult result = RunScript("append A B\nstats\n");
  EXPECT_EQ(result.errors, 0);
  EXPECT_NE(result.output.find("stats sequences=1"), std::string::npos);
}

// One alphabet: an SPMF corpus names no events, and its id 5 prints as
// "e5" — so appending "e5" must extend that same event, not mint a second
// "e5" with a new id (which would split the support across two patterns).
TEST(ServeSession, AppendsByNameJoinAnSpmfCorpusAlphabet) {
  Result<SequenceDatabase> db =
      ParseSpmfDatabase("5 -1 7 -1 5 -1 7 -1 -2\n5 -1 7 -1 -2\n");
  ASSERT_TRUE(db.ok());
  MiningService service;
  ASSERT_TRUE(service.Ingest(*db).ok());
  std::istringstream in(
      "append e5 e7\n"
      "append e5 e7\n"
      "mine algo=closed min_sup=2\n"
      "quit\n");
  std::ostringstream out;
  EXPECT_EQ(RunServeSession(service, in, out), 0);
  EXPECT_EQ(out.str(),
            "ok seq=2 len=2\n"
            "ok seq=3 len=2\n"
            "result patterns=1 epoch=1\n"
            "5\te5 e7\n"
            "bye\n");
}

TEST(ServeSession, ExtendUnknownSequenceIsNotFound) {
  const SessionResult result = RunScript("extend 3 A\nquit\n");
  EXPECT_EQ(result.errors, 1);
  EXPECT_NE(result.output.find("error NotFound"), std::string::npos);
  EXPECT_NE(result.output.find("bye\n"), std::string::npos);
}

TEST(ServeSession, DurabilityVerbsFailOnInMemoryService) {
  // checkpoint / recover parse, reach the service, and come back as
  // InvalidArgument — the session survives both.
  const SessionResult result = RunScript(
      "append A B\n"
      "checkpoint\n"
      "recover\n"
      "stats\n"
      "quit\n");
  EXPECT_EQ(result.errors, 2);
  EXPECT_NE(result.output.find("error InvalidArgument"), std::string::npos);
  EXPECT_NE(result.output.find("stats sequences=1"), std::string::npos);
}

TEST(ServeSession, MetricsVerbEmitsExposition) {
  const SessionResult result = RunScript(
      "append A B A B\n"
      "mine min_sup=2\n"
      "metrics\n"
      "quit\n");
  EXPECT_EQ(result.errors, 0);
  // Values are wall-clock-dependent; the test pins that the exposition
  // block appears on the protocol stream with the core families present.
  EXPECT_NE(result.output.find("# TYPE gsgrow_requests_total counter"),
            std::string::npos);
  EXPECT_NE(result.output.find("# TYPE gsgrow_request_stage_us histogram"),
            std::string::npos);
  EXPECT_NE(
      result.output.find("gsgrow_request_stage_us_bucket{stage=\"mine\","),
      std::string::npos);
  EXPECT_NE(result.output.find("# TYPE gsgrow_cache_bytes gauge"),
            std::string::npos);
}

TEST(ServeSession, TraceVerbPrintsRecentTracesNewestFirst) {
  const SessionResult result = RunScript(
      "append A B A B\n"
      "mine min_sup=2\n"
      "topk k=1\n"
      "trace last 2\n"
      "trace last\n"
      "quit\n");
  EXPECT_EQ(result.errors, 0);
  EXPECT_NE(result.output.find("traces count=2\n"), std::string::npos);
  EXPECT_NE(result.output.find("traces count=3\n"), std::string::npos);
  // Newest first: the topk query precedes the mine, which precedes append.
  const size_t topk_at = result.output.find("verb=topk");
  const size_t mine_at = result.output.find("verb=mine:closed");
  const size_t append_at = result.output.find("verb=append");
  ASSERT_NE(topk_at, std::string::npos);
  ASSERT_NE(mine_at, std::string::npos);
  ASSERT_NE(append_at, std::string::npos);
  EXPECT_LT(topk_at, mine_at);
  EXPECT_LT(mine_at, append_at);
  // Traces carry the DFS counters (slow-query attribution needs them).
  EXPECT_NE(result.output.find("dfs_nodes="), std::string::npos);
}

TEST(ServeSession, TraceVerbArgumentsAreValidated) {
  const SessionResult result = RunScript(
      "trace\n"
      "trace last zero\n"
      "trace last 0\n"
      "quit\n");
  EXPECT_EQ(result.errors, 3);
}

TEST(ServeSession, RejectedRequestsAreCountedByKind) {
  // The registry is process-global, so the test asserts DELTAS around the
  // scripted failures rather than absolute counts.
  const auto series_value = [](const std::string& exposition,
                               const std::string& series) -> uint64_t {
    const size_t at = exposition.find(series + " ");
    if (at == std::string::npos) return 0;
    return std::stoull(exposition.substr(at + series.size() + 1));
  };
  const std::string before = obs::MetricRegistry::Global().ExpositionText();
  const SessionResult result = RunScript(
      "bogus\n"
      "mine min_sup=zero\n"
      "extend 7 A\n"
      "quit\n");
  EXPECT_EQ(result.errors, 3);
  const std::string after = obs::MetricRegistry::Global().ExpositionText();
  const std::string unknown =
      "gsgrow_requests_rejected_total{kind=\"unknown_verb\"}";
  const std::string bad_arg =
      "gsgrow_requests_rejected_total{kind=\"bad_argument\"}";
  const std::string not_found =
      "gsgrow_requests_rejected_total{kind=\"not_found\"}";
  EXPECT_EQ(series_value(after, unknown), series_value(before, unknown) + 1);
  EXPECT_EQ(series_value(after, bad_arg), series_value(before, bad_arg) + 1);
  EXPECT_EQ(series_value(after, not_found),
            series_value(before, not_found) + 1);
}

// threads=200000 used to reach MineSharded, which spawned one std::thread
// per requested worker and aborted the process. The line is now rejected
// while parsing — no executor runs, so the test starts no threads — and is
// counted as a bad argument; the session carries on.
TEST(ServeSession, OversizedThreadCountIsRejectedBeforeExecution) {
  const auto series_value = [](const std::string& exposition,
                               const std::string& series) -> uint64_t {
    const size_t at = exposition.find(series + " ");
    if (at == std::string::npos) return 0;
    return std::stoull(exposition.substr(at + series.size() + 1));
  };
  const std::string bad_arg =
      "gsgrow_requests_rejected_total{kind=\"bad_argument\"}";
  const uint64_t before = series_value(
      obs::MetricRegistry::Global().ExpositionText(), bad_arg);
  const SessionResult result = RunScript(
      "append A B A\n"
      "mine threads=200000\n"
      "topk threads=200000\n"
      "batch\n"
      "mine min_sup=1\n"
      "run threads=200000\n"
      "mine algo=gap min_gap=5 max_gap=1\n"
      "quit\n");
  EXPECT_EQ(result.errors, 4);
  EXPECT_NE(result.output.find("error InvalidArgument: mine: bad argument "
                               "'threads=200000' (threads=N, N <= 256)\n"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("error InvalidArgument: run: bad argument "
                               "'threads=200000'"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find(
                "error InvalidArgument: mine: min_gap=5 exceeds max_gap=1\n"),
            std::string::npos)
      << result.output;
  EXPECT_EQ(series_value(obs::MetricRegistry::Global().ExpositionText(),
                         bad_arg),
            before + 4);
  EXPECT_NE(result.output.find("bye\n"), std::string::npos);
}

TEST(ServeSession, DurabilityVerbsOnDurableService) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "gsgrow_session_durable")
          .string();
  std::filesystem::remove_all(dir);
  DurabilityOptions options;
  options.dir = dir;
  Result<std::unique_ptr<MiningService>> service =
      MiningService::OpenDurable(options);
  ASSERT_TRUE(service.ok());
  std::istringstream in(
      "append A B A\n"
      "recover\n"
      "checkpoint\n"
      "quit\n");
  std::ostringstream out;
  EXPECT_EQ(RunServeSession(**service, in, out), 0);
  EXPECT_EQ(out.str(),
            "ok seq=0 len=3\n"
            "recovered epoch=0 sequences=0 checkpoint=0 checkpoint_epoch=0 "
            "wal_records=0 torn_tail=0\n"
            "ok checkpoint epoch=1\n"
            "bye\n");
  // Durability observability (DESIGN.md §13): the checkpoint rotated the
  // WAL, so exactly the fresh active segment is live and empty.
  const ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.checkpoints, 1u);
  EXPECT_EQ(stats.wal_segments, 1u);
  EXPECT_EQ(stats.wal_live_bytes, 0u);
  EXPECT_EQ(stats.wal_replay_records, 0u);

  // Reopen: recovery loads the checkpoint (no WAL tail), and the last
  // recovery's cost surfaces in ServiceStats — replayed record count
  // deterministic, recover_seconds wall-clock (and excluded from the
  // formatted line, pinned by RequestIo.FormatsStats).
  service->reset();
  Result<std::unique_ptr<MiningService>> reopened =
      MiningService::OpenDurable(options);
  ASSERT_TRUE(reopened.ok());
  const ServiceStats recovered = (*reopened)->Stats();
  EXPECT_EQ(recovered.wal_replay_records, 0u);
  EXPECT_EQ(recovered.checkpoints, 0u);  // taken by THIS incarnation: none
  EXPECT_GE(recovered.recover_seconds, 0.0);
  reopened->reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gsgrow
