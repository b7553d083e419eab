// MiningService: request execution must match the direct miner facades on
// an equivalent frozen database; event filters follow projection
// semantics; batches are deterministic at any worker count and share one
// epoch snapshot; snapshots isolate queries from later appends.

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "core/clogsgrow.h"
#include "core/gap_constrained.h"
#include "core/gsgrow.h"
#include "core/topk.h"
#include "serve/mining_service.h"
#include "test_util.h"

namespace gsgrow {
namespace {

using ::gsgrow::testing::AsSet;

// The Fig. 1 corpus plus one more row, as append calls.
void LoadExample(MiningService* service) {
  ASSERT_TRUE(service->Append({"A", "A", "B", "C", "D", "A", "B", "B"}).ok());
  ASSERT_TRUE(service->Append({"A", "B", "C", "D"}).ok());
  ASSERT_TRUE(service->Append({"B", "A", "B", "A"}).ok());
}

SequenceDatabase ExampleDatabase() {
  return MakeDatabaseFromStrings({"AABCDABB", "ABCD", "BABA"});
}

TEST(MiningService, ClosedMatchesFacade) {
  MiningService service;
  LoadExample(&service);
  MineRequest request;
  request.miner = MineRequest::Miner::kClosed;
  request.options.min_support = 2;
  const MineResponse response = service.Execute(request);
  ASSERT_TRUE(response.status.ok());

  MinerOptions options;
  options.min_support = 2;
  EXPECT_EQ(response.patterns,
            MineClosedFrequent(ExampleDatabase(), options).patterns);
  EXPECT_EQ(response.epoch, 1u);
}

TEST(MiningService, AllMatchesFacadeAfterExtend) {
  MiningService service;
  LoadExample(&service);
  ASSERT_TRUE(service.AppendTo(1, {"A", "B"}).ok());
  MineRequest request;
  request.miner = MineRequest::Miner::kAll;
  request.options.min_support = 3;
  const MineResponse response = service.Execute(request);
  ASSERT_TRUE(response.status.ok());

  MinerOptions options;
  options.min_support = 3;
  SequenceDatabase db =
      MakeDatabaseFromStrings({"AABCDABB", "ABCDAB", "BABA"});
  EXPECT_EQ(response.patterns, MineAllFrequent(db, options).patterns);
}

TEST(MiningService, TopKMatchesFacade) {
  MiningService service;
  LoadExample(&service);
  MineRequest request;
  request.miner = MineRequest::Miner::kTopK;
  request.k = 4;
  request.min_length = 2;
  const MineResponse response = service.Execute(request);
  ASSERT_TRUE(response.status.ok());

  TopKOptions topk;
  topk.k = 4;
  topk.min_length = 2;
  EXPECT_EQ(response.patterns, MineTopKClosed(ExampleDatabase(), topk));
}

TEST(MiningService, GapConstrainedMatchesFacade) {
  MiningService service;
  LoadExample(&service);
  MineRequest request;
  request.miner = MineRequest::Miner::kGapConstrained;
  request.options.min_support = 2;
  request.gap.max_gap = 1;
  const MineResponse response = service.Execute(request);
  ASSERT_TRUE(response.status.ok());

  MinerOptions options;
  options.min_support = 2;
  LandmarkGapConstraint gap;
  gap.max_gap = 1;
  EXPECT_EQ(response.patterns,
            MineAllFrequentGapConstrained(ExampleDatabase(), options, gap)
                .patterns);
}

// Event filters implement projection semantics: mining with the filter
// {A, B} equals mining the database with every other event deleted
// (supports of gapped subsequences ignore the dropped events entirely;
// closure candidates are restricted the same way).
TEST(MiningService, EventFilterEqualsProjectedDatabase) {
  MiningService service;
  LoadExample(&service);
  MineRequest request;
  request.miner = MineRequest::Miner::kClosed;
  request.options.min_support = 2;
  request.event_filter = {"A", "B"};
  const MineResponse response = service.Execute(request);
  ASSERT_TRUE(response.status.ok());

  SequenceDatabase projected =
      MakeDatabaseFromStrings({"AABABB", "AB", "BABA"});
  MinerOptions options;
  options.min_support = 2;
  const MiningResult direct = MineClosedFrequent(projected, options);
  // Ids differ between the two databases; compare as (names, support).
  const auto snapshot = service.Snapshot();
  EXPECT_EQ(AsSet(*snapshot->db, response.patterns),
            AsSet(projected, direct.patterns));
}

TEST(MiningService, UnknownEventFilterAnswersEmpty) {
  MiningService service;
  LoadExample(&service);
  MineRequest request;
  request.miner = MineRequest::Miner::kClosed;
  request.options.min_support = 1;
  request.event_filter = {"NOPE"};
  const MineResponse response = service.Execute(request);
  EXPECT_TRUE(response.status.ok());
  EXPECT_TRUE(response.patterns.empty());
}

TEST(MiningService, InvalidRequestsReportStatus) {
  MiningService service;
  LoadExample(&service);
  MineRequest bad_sup;
  bad_sup.options.min_support = 0;
  EXPECT_FALSE(service.Execute(bad_sup).status.ok());

  MineRequest bad_k;
  bad_k.miner = MineRequest::Miner::kTopK;
  bad_k.k = 0;
  EXPECT_FALSE(service.Execute(bad_k).status.ok());

  // No landmark gap satisfies min_gap > max_gap; a programmatic request
  // that bypasses the protocol parser is refused the same way.
  MineRequest bad_gap;
  bad_gap.miner = MineRequest::Miner::kGapConstrained;
  bad_gap.gap.min_gap = 5;
  bad_gap.gap.max_gap = 1;
  const MineResponse gap_response = service.Execute(bad_gap);
  EXPECT_EQ(gap_response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(gap_response.patterns.empty());

  // The protocol parser's thread ceiling holds for programmatic requests
  // too, on the cached path and on a direct ExecuteOn.
  MineRequest bad_threads;
  bad_threads.options.min_support = 2;
  bad_threads.options.num_threads = kMaxRequestThreads + 1;
  EXPECT_EQ(service.Execute(bad_threads).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MiningService::ExecuteOn(*service.Snapshot(), bad_threads)
                .status.code(),
            StatusCode::kInvalidArgument);

  EXPECT_FALSE(service.AppendTo(99, {"A"}).ok());
}

// The cache key strips num_threads (answer-invariant), so admission must
// run before the probe: an over-limit request identical to a cached one
// is refused, not answered from the cache.
TEST(MiningService, ThreadLimitHoldsOnCacheHit) {
  MiningService service;
  LoadExample(&service);
  MineRequest request;
  request.miner = MineRequest::Miner::kClosed;
  request.options.min_support = 2;
  const MineResponse cold = service.Execute(request);
  ASSERT_TRUE(cold.status.ok());
  ASSERT_FALSE(cold.patterns.empty());
  const MineResponse hit = service.Execute(request);
  ASSERT_TRUE(hit.status.ok());
  EXPECT_EQ(hit.patterns, cold.patterns);

  request.options.num_threads = kMaxRequestThreads + 1;
  const MineResponse refused = service.Execute(request);
  EXPECT_EQ(refused.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(refused.patterns.empty());
  // At the ceiling the request is admitted and served from the cache.
  const uint64_t hits = service.Stats().cache_hits;
  request.options.num_threads = kMaxRequestThreads;
  const MineResponse at_ceiling = service.Execute(request);
  ASSERT_TRUE(at_ceiling.status.ok());
  EXPECT_EQ(at_ceiling.patterns, cold.patterns);
  EXPECT_EQ(service.Stats().cache_hits, hits + 1);
}

TEST(MiningService, SnapshotIsolatesFromLaterAppends) {
  MiningService service;
  LoadExample(&service);
  const auto snapshot = service.Snapshot();

  // Appends land after the snapshot; queries on it must not see them.
  ASSERT_TRUE(service.Append({"A", "B", "A", "B", "A", "B"}).ok());
  ASSERT_TRUE(service.AppendTo(0, {"A", "B"}).ok());

  MineRequest request;
  request.miner = MineRequest::Miner::kClosed;
  request.options.min_support = 2;
  const MineResponse old_view = MiningService::ExecuteOn(*snapshot, request);
  MinerOptions options;
  options.min_support = 2;
  EXPECT_EQ(old_view.patterns,
            MineClosedFrequent(ExampleDatabase(), options).patterns);

  // A fresh snapshot sees the appends.
  const MineResponse new_view = service.Execute(request);
  SequenceDatabase grown = MakeDatabaseFromStrings(
      {"AABCDABBAB", "ABCD", "BABA", "ABABAB"});
  EXPECT_EQ(new_view.patterns, MineClosedFrequent(grown, options).patterns);
  EXPECT_GT(new_view.epoch, old_view.epoch);
}

TEST(MiningService, BatchSharesOneSnapshotAndIsThreadCountInvariant) {
  MiningService service;
  LoadExample(&service);
  std::vector<MineRequest> requests(4);
  requests[0].miner = MineRequest::Miner::kClosed;
  requests[0].options.min_support = 2;
  requests[1].miner = MineRequest::Miner::kAll;
  requests[1].options.min_support = 3;
  requests[2].miner = MineRequest::Miner::kTopK;
  requests[2].k = 3;
  requests[2].min_length = 2;
  requests[3].miner = MineRequest::Miner::kClosed;
  requests[3].options.min_support = 2;
  requests[3].event_filter = {"A", "B"};

  const std::vector<MineResponse> sequential =
      service.ExecuteBatch(requests, 1);
  const std::vector<MineResponse> parallel =
      service.ExecuteBatch(requests, 4);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_TRUE(sequential[i].status.ok());
    EXPECT_EQ(sequential[i].patterns, parallel[i].patterns) << "request " << i;
    // Every response of one batch carries the same snapshot epoch.
    EXPECT_EQ(sequential[i].epoch, sequential[0].epoch);
    EXPECT_EQ(parallel[i].epoch, parallel[0].epoch);
  }
}

TEST(MiningService, StatsTrackTheCorpus) {
  MiningService service;
  EXPECT_EQ(service.Stats().num_sequences, 0u);
  LoadExample(&service);
  ASSERT_TRUE(service.AppendTo(2, {"D"}).ok());
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.num_sequences, 3u);
  EXPECT_EQ(stats.alphabet_size, 4u);
  EXPECT_EQ(stats.total_events, 8u + 4u + 4u + 1u);
  EXPECT_EQ(stats.appends, 4u);
}

TEST(MiningService, IngestSharesTheBulkLoadPath) {
  MiningService service;
  ASSERT_TRUE(service.Ingest(ExampleDatabase()).ok());
  EXPECT_FALSE(service.Ingest(ExampleDatabase()).ok());  // must be empty

  MineRequest request;
  request.miner = MineRequest::Miner::kClosed;
  request.options.min_support = 2;
  MinerOptions options;
  options.min_support = 2;
  EXPECT_EQ(service.Execute(request).patterns,
            MineClosedFrequent(ExampleDatabase(), options).patterns);

  // Ingested corpora keep growing incrementally.
  ASSERT_TRUE(service.AppendTo(1, {"A", "B"}).ok());
  SequenceDatabase grown =
      MakeDatabaseFromStrings({"AABCDABB", "ABCDAB", "BABA"});
  EXPECT_EQ(service.Execute(request).patterns,
            MineClosedFrequent(grown, options).patterns);
}

}  // namespace
}  // namespace gsgrow
