// Epoch-aware result cache (serve/result_cache.h, DESIGN.md §12).
//
// The contract under test: with the cache enabled, every response a
// MiningService returns is BYTE-IDENTICAL to what a cache-disabled service
// answers for the same request at the same epoch — hits, clean re-stamps
// across epoch advances, dirty re-mines with the top-K warm start, all of
// it. The suites below pin the classifier's individual rules (alphabet
// intersection, host-shape conservatism, filter re-resolution), the LRU /
// byte-budget bookkeeping, and then hammer the whole thing with a seeded
// randomized append/query interleaving against a cold reference service.

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "io/request_io.h"
#include "serve/mining_service.h"
#include "serve/result_cache.h"
#include "util/rng.h"

namespace gsgrow {
namespace {

// The Fig. 1 corpus, as append calls.
void LoadExample(MiningService* service) {
  ASSERT_TRUE(service->Append({"A", "A", "B", "C", "D", "A", "B", "B"}).ok());
  ASSERT_TRUE(service->Append({"A", "B", "C", "D"}).ok());
  ASSERT_TRUE(service->Append({"B", "A", "B", "A"}).ok());
}

MiningService MakeCacheless() {
  ResultCacheOptions off;
  off.max_bytes = 0;
  return MiningService(off);
}

std::string Bytes(const MiningService& service, const MineResponse& response) {
  // Protocol bytes: patterns, epoch stamp, truncation flag — what a client
  // actually receives. const_cast-free: Snapshot() on an unchanged service
  // does not advance the epoch.
  auto snapshot = const_cast<MiningService&>(service).Snapshot();
  return FormatMineResponse(response, snapshot->db->dictionary(),
                            static_cast<size_t>(-1));
}

TEST(ResultCache, RepeatedQueryHitsAndMatchesColdService) {
  MiningService warm;
  MiningService cold = MakeCacheless();
  LoadExample(&warm);
  LoadExample(&cold);

  MineRequest request;
  request.miner = MineRequest::Miner::kClosed;
  request.options.min_support = 2;

  const MineResponse first = warm.Execute(request);
  const MineResponse again = warm.Execute(request);
  const MineResponse reference = cold.Execute(request);
  EXPECT_EQ(Bytes(warm, first), Bytes(cold, reference));
  EXPECT_EQ(Bytes(warm, again), Bytes(cold, reference));
  EXPECT_EQ(again.patterns, reference.patterns);

  const ServiceStats stats = warm.Stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(cold.Stats().cache_hits, 0u);  // disabled cache counts nothing
  EXPECT_EQ(cold.Stats().cache_misses, 0u);
}

TEST(ResultCache, EquivalentRequestsShareOneEntry) {
  MiningService service;
  LoadExample(&service);

  MineRequest spelled;
  spelled.miner = MineRequest::Miner::kClosed;
  spelled.options.min_support = 2;
  spelled.event_filter = {"B", "A", "A"};
  spelled.options.num_threads = 4;
  ASSERT_TRUE(service.Execute(spelled).status.ok());

  MineRequest canonical;
  canonical.miner = MineRequest::Miner::kClosed;
  canonical.options.min_support = 2;
  canonical.event_filter = {"A", "B"};
  ASSERT_TRUE(service.Execute(canonical).status.ok());

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(ResultCache, CleanRevalidationReStampsAcrossEpochAdvance) {
  MiningService warm;
  MiningService cold = MakeCacheless();
  LoadExample(&warm);
  LoadExample(&cold);

  MineRequest request;
  request.miner = MineRequest::Miner::kClosed;
  request.options.min_support = 2;
  request.event_filter = {"A", "B"};

  const MineResponse first = warm.Execute(request);
  ASSERT_TRUE(cold.Execute(request).status.ok());
  EXPECT_EQ(first.epoch, 1u);

  // The appended events are disjoint from the restriction alphabet: the
  // entry is provably clean and must be re-stamped, not re-mined.
  ASSERT_TRUE(warm.Append({"C", "D", "C", "D"}).ok());
  ASSERT_TRUE(cold.Append({"C", "D", "C", "D"}).ok());
  const MineResponse second = warm.Execute(request);
  const MineResponse reference = cold.Execute(request);
  EXPECT_EQ(second.epoch, 2u);
  EXPECT_EQ(Bytes(warm, second), Bytes(cold, reference));

  const ServiceStats stats = warm.Stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_revalidated, 1u);
}

TEST(ResultCache, DirtyWhenDeltaIntersectsRestrictionAlphabet) {
  MiningService warm;
  MiningService cold = MakeCacheless();
  LoadExample(&warm);
  LoadExample(&cold);

  MineRequest request;
  request.miner = MineRequest::Miner::kClosed;
  request.options.min_support = 2;
  request.event_filter = {"A", "B"};
  ASSERT_TRUE(warm.Execute(request).status.ok());
  ASSERT_TRUE(cold.Execute(request).status.ok());

  // "A" gains occurrences: the cached answer is stale and must re-mine.
  ASSERT_TRUE(warm.Append({"A", "B", "A", "B"}).ok());
  ASSERT_TRUE(cold.Append({"A", "B", "A", "B"}).ok());
  const MineResponse second = warm.Execute(request);
  const MineResponse reference = cold.Execute(request);
  EXPECT_EQ(Bytes(warm, second), Bytes(cold, reference));
  EXPECT_EQ(second.patterns, reference.patterns);

  const ServiceStats stats = warm.Stats();
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.cache_revalidated, 0u);
}

TEST(ResultCache, UnrestrictedQueriesNeverRevalidate) {
  MiningService service;
  LoadExample(&service);
  MineRequest request;
  request.miner = MineRequest::Miner::kClosed;
  request.options.min_support = 2;
  ASSERT_TRUE(service.Execute(request).status.ok());

  // ANY append can touch an unrestricted answer; no clean path exists.
  ASSERT_TRUE(service.Append({"E", "E"}).ok());
  ASSERT_TRUE(service.Execute(request).status.ok());
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.cache_revalidated, 0u);
}

// The host-shape rule, both directions. Extending a host sequence with
// events DISJOINT from the restriction alphabet:
//  * plain mining: occurrence counts depend only on the alphabet's own
//    positions, which did not move — provably clean, served from cache;
//  * window-annotated mining: the extension adds windows over the host,
//    so annotation values can change — the entry must re-mine even though
//    rule (b) passes. Correctness is pinned against the cold service.
TEST(ResultCache, HostShapeCheckOnlyBindsAnnotatedQueries) {
  MiningService warm;
  MiningService cold = MakeCacheless();
  LoadExample(&warm);
  LoadExample(&cold);

  MineRequest plain;
  plain.miner = MineRequest::Miner::kClosed;
  plain.options.min_support = 2;
  plain.event_filter = {"A", "B"};

  MineRequest annotated = plain;
  annotated.options.semantics.fixed_window = true;
  annotated.options.semantics.window_width = 3;

  ASSERT_TRUE(warm.Execute(plain).status.ok());
  ASSERT_TRUE(warm.Execute(annotated).status.ok());
  ASSERT_TRUE(cold.Execute(plain).status.ok());
  ASSERT_TRUE(cold.Execute(annotated).status.ok());

  // Sequence 0 hosts A and B; the appended C/D are outside the alphabet.
  ASSERT_TRUE(warm.AppendTo(0, {"C", "D"}).ok());
  ASSERT_TRUE(cold.AppendTo(0, {"C", "D"}).ok());

  const MineResponse plain_warm = warm.Execute(plain);
  const MineResponse plain_cold = cold.Execute(plain);
  const MineResponse annotated_warm = warm.Execute(annotated);
  const MineResponse annotated_cold = cold.Execute(annotated);
  EXPECT_EQ(Bytes(warm, plain_warm), Bytes(cold, plain_cold));
  EXPECT_EQ(plain_warm.patterns, plain_cold.patterns);
  // operator== on PatternRecord covers the annotation block, so a stale
  // window count served from cache would fail here.
  EXPECT_EQ(annotated_warm.patterns, annotated_cold.patterns);

  const ServiceStats stats = warm.Stats();
  EXPECT_EQ(stats.cache_revalidated, 1u);  // the plain entry re-stamped
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 3u);  // two first-time + annotated re-mine
}

TEST(ResultCache, FilterInterningFlipsCachedEmptyAnswer) {
  MiningService warm;
  MiningService cold = MakeCacheless();
  LoadExample(&warm);
  LoadExample(&cold);

  MineRequest request;
  request.miner = MineRequest::Miner::kClosed;
  request.options.min_support = 1;
  request.event_filter = {"Z"};

  const MineResponse empty = warm.Execute(request);
  ASSERT_TRUE(cold.Execute(request).status.ok());
  EXPECT_TRUE(empty.status.ok());
  EXPECT_TRUE(empty.patterns.empty());

  // Still no "Z" anywhere: the cached empty answer revalidates clean.
  ASSERT_TRUE(warm.Append({"C", "C"}).ok());
  ASSERT_TRUE(cold.Append({"C", "C"}).ok());
  EXPECT_TRUE(warm.Execute(request).patterns.empty());
  ASSERT_TRUE(cold.Execute(request).status.ok());
  EXPECT_EQ(warm.Stats().cache_revalidated, 1u);

  // "Z" gets interned: the filter now resolves, the entry is dirty, and
  // the re-mined answer must match the cold service.
  ASSERT_TRUE(warm.Append({"Z", "A", "Z"}).ok());
  ASSERT_TRUE(cold.Append({"Z", "A", "Z"}).ok());
  const MineResponse flipped = warm.Execute(request);
  const MineResponse reference = cold.Execute(request);
  EXPECT_FALSE(flipped.patterns.empty());
  EXPECT_EQ(Bytes(warm, flipped), Bytes(cold, reference));
  EXPECT_EQ(warm.Stats().cache_misses, 2u);
}

TEST(ResultCache, TopKWarmStartIsAnswerInvariant) {
  MiningService warm;
  MiningService cold = MakeCacheless();
  LoadExample(&warm);
  LoadExample(&cold);

  MineRequest request;
  request.miner = MineRequest::Miner::kTopK;
  request.k = 3;
  request.min_length = 2;
  ASSERT_TRUE(warm.Execute(request).status.ok());
  ASSERT_TRUE(cold.Execute(request).status.ok());

  // Dirty re-mine: the descent starts from the cached k-th support and
  // must still land on the identical top-K set.
  ASSERT_TRUE(warm.Append({"A", "B", "A", "B"}).ok());
  ASSERT_TRUE(cold.Append({"A", "B", "A", "B"}).ok());
  const MineResponse warmed = warm.Execute(request);
  const MineResponse reference = cold.Execute(request);
  EXPECT_EQ(Bytes(warm, warmed), Bytes(cold, reference));
  EXPECT_EQ(warmed.patterns, reference.patterns);
  EXPECT_EQ(warm.Stats().cache_misses, 2u);
}

TEST(ResultCache, LruEvictionByEntryCap) {
  ResultCacheOptions options;
  options.max_entries = 1;
  MiningService service(options);
  LoadExample(&service);

  MineRequest a;
  a.options.min_support = 2;
  MineRequest b;
  b.options.min_support = 3;

  ASSERT_TRUE(service.Execute(a).status.ok());  // miss, insert A
  ASSERT_TRUE(service.Execute(b).status.ok());  // miss, insert B (evict A)
  ASSERT_TRUE(service.Execute(a).status.ok());  // miss again (evict B)
  ASSERT_TRUE(service.Execute(a).status.ok());  // hit
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_evicted, 2u);
}

TEST(ResultCache, ByteBudgetBoundsOccupancy) {
  MiningService service;
  LoadExample(&service);
  const auto snapshot = service.Snapshot();

  ResultCacheOptions options;
  options.max_bytes = 1200;
  ResultCache cache(options);
  for (uint64_t min_sup = 1; min_sup <= 5; ++min_sup) {
    MineRequest request;
    request.options.min_support = min_sup;
    CanonicalizeMineRequest(&request);
    const ResultCacheKey key = CanonicalRequestKey(request);
    const MineResponse response =
        MiningService::ExecuteOn(*snapshot, request);
    ASSERT_TRUE(response.status.ok());
    cache.Insert(key, request, response, *snapshot);
  }
  const ResultCacheCounters counters = cache.Counters();
  EXPECT_LE(counters.bytes, options.max_bytes);
  EXPECT_GE(counters.entries, 1u);
  EXPECT_GT(counters.evicted, 0u);
  EXPECT_EQ(counters.entries + counters.evicted, 5u);
}

TEST(ResultCache, OversizedEntryIsRefusedOutright) {
  MiningService service;
  LoadExample(&service);
  const auto snapshot = service.Snapshot();

  ResultCacheOptions options;
  options.max_bytes = 100;  // below the fixed per-entry overhead
  ResultCache cache(options);
  MineRequest request;
  request.options.min_support = 2;
  CanonicalizeMineRequest(&request);
  const ResultCacheKey key = CanonicalRequestKey(request);
  cache.Insert(key, request, MiningService::ExecuteOn(*snapshot, request),
               *snapshot);
  const ResultCacheCounters counters = cache.Counters();
  EXPECT_EQ(counters.entries, 0u);
  EXPECT_EQ(counters.bytes, 0u);
  EXPECT_FALSE(cache.Lookup(key, request, *snapshot).hit);
}

TEST(ResultCache, UncacheableRequestsBypassTheCache) {
  MiningService service;
  LoadExample(&service);

  MineRequest budgeted;
  budgeted.options.min_support = 2;
  budgeted.options.time_budget_seconds = 30.0;
  ASSERT_TRUE(service.Execute(budgeted).status.ok());
  ASSERT_TRUE(service.Execute(budgeted).status.ok());

  MineRequest count_only;
  count_only.options.min_support = 2;
  count_only.options.collect_patterns = false;
  ASSERT_TRUE(service.Execute(count_only).status.ok());

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
}

// Admission (ValidateMineRequest) runs before the cache probe, so an
// invalid request never reaches the cache: no miss and no hit.
TEST(ResultCache, ErrorResponsesAreNotCached) {
  MiningService service;
  LoadExample(&service);
  MineRequest bad;
  bad.options.min_support = 0;
  EXPECT_FALSE(service.Execute(bad).status.ok());
  EXPECT_FALSE(service.Execute(bad).status.ok());
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

// The acceptance differential: a seeded random interleaving of appends,
// extends, and a mixed query pool, every response compared byte-for-byte
// against a cache-disabled twin receiving the identical stream.
TEST(ResultCacheDifferential, RandomizedAppendQueryInterleaving) {
  Rng rng(20260808);
  MiningService warm;
  MiningService cold = MakeCacheless();
  for (const auto& row : {std::vector<std::string>{"A", "B", "A", "C"},
                          std::vector<std::string>{"E", "F", "E"},
                          std::vector<std::string>{"B", "D", "A", "B"},
                          std::vector<std::string>{"C", "C", "D"}}) {
    ASSERT_TRUE(warm.Append(row).ok());
    ASSERT_TRUE(cold.Append(row).ok());
  }

  std::vector<MineRequest> pool;
  {
    MineRequest closed;
    closed.options.min_support = 2;
    pool.push_back(closed);

    MineRequest filtered;  // over the rare tail: exercises revalidation
    filtered.options.min_support = 1;
    filtered.event_filter = {"E", "F"};
    pool.push_back(filtered);

    MineRequest all_short;
    all_short.miner = MineRequest::Miner::kAll;
    all_short.options.min_support = 2;
    all_short.options.max_pattern_length = 2;
    pool.push_back(all_short);

    MineRequest topk;
    topk.miner = MineRequest::Miner::kTopK;
    topk.k = 4;
    topk.min_length = 2;
    pool.push_back(topk);

    MineRequest annotated;
    annotated.options.min_support = 2;
    annotated.options.semantics.sequence_count = true;
    annotated.options.semantics.fixed_window = true;
    annotated.options.semantics.window_width = 4;
    pool.push_back(annotated);

    MineRequest gap;
    gap.miner = MineRequest::Miner::kGapConstrained;
    gap.options.min_support = 2;
    gap.gap.max_gap = 2;
    pool.push_back(gap);

    MineRequest unknown;  // never interned: cached-empty revalidation
    unknown.options.min_support = 1;
    unknown.event_filter = {"Z"};
    pool.push_back(unknown);
  }

  const std::vector<std::string> alphabet = {"A", "B", "C", "D", "E", "F"};
  for (int step = 0; step < 160; ++step) {
    const uint64_t roll = rng.UniformInt(100);
    if (roll < 22) {
      // New sequence, biased toward the common prefix of the alphabet so
      // the {E,F}-filtered entry often stays provably clean.
      std::vector<std::string> events;
      const size_t len = 1 + rng.UniformInt(6);
      const uint64_t span = rng.Bernoulli(0.85) ? 4 : alphabet.size();
      for (size_t j = 0; j < len; ++j) {
        events.push_back(alphabet[rng.UniformInt(span)]);
      }
      ASSERT_TRUE(warm.Append(events).ok());
      ASSERT_TRUE(cold.Append(events).ok());
    } else if (roll < 30) {
      const SeqId target =
          static_cast<SeqId>(rng.UniformInt(warm.Stats().num_sequences));
      std::vector<std::string> events = {
          alphabet[rng.UniformInt(rng.Bernoulli(0.85) ? 4 : 6)]};
      ASSERT_TRUE(warm.AppendTo(target, events).ok());
      ASSERT_TRUE(cold.AppendTo(target, events).ok());
    } else {
      const MineRequest& request = pool[rng.UniformInt(pool.size())];
      const MineResponse w = warm.Execute(request);
      const MineResponse c = cold.Execute(request);
      ASSERT_EQ(w.status.ok(), c.status.ok()) << "step " << step;
      ASSERT_EQ(Bytes(warm, w), Bytes(cold, c)) << "step " << step;
      ASSERT_EQ(w.patterns, c.patterns) << "step " << step;
    }
  }

  // The interleaving must actually have exercised the cache paths.
  const ServiceStats stats = warm.Stats();
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_revalidated, 0u);
}

// Racing batch workers on duplicate keys: insert-if-absent must converge on
// one entry, every response identical to the cold reference, and a second
// identical batch must be served entirely from cache. Runs under TSan via
// the tsan preset's ResultCache filter.
TEST(ResultCacheConcurrency, BatchWorkersConvergeOnOneEntry) {
  MiningService warm;
  MiningService cold = MakeCacheless();
  LoadExample(&warm);
  LoadExample(&cold);

  MineRequest closed;
  closed.options.min_support = 2;
  MineRequest topk;
  topk.miner = MineRequest::Miner::kTopK;
  topk.k = 3;
  topk.min_length = 2;
  std::vector<MineRequest> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(closed);
    requests.push_back(topk);
  }

  const MineResponse closed_ref = cold.Execute(closed);
  const MineResponse topk_ref = cold.Execute(topk);
  for (int batch = 0; batch < 2; ++batch) {
    const std::vector<MineResponse> responses =
        warm.ExecuteBatch(requests, 4);
    ASSERT_EQ(responses.size(), requests.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      const MineResponse& reference = i % 2 == 0 ? closed_ref : topk_ref;
      EXPECT_EQ(responses[i].patterns, reference.patterns) << "request " << i;
      EXPECT_EQ(Bytes(warm, responses[i]), Bytes(cold, reference));
    }
  }
  // The second batch ran against an unchanged epoch: all 16 were hits.
  EXPECT_GE(warm.Stats().cache_hits, 16u);
}

}  // namespace
}  // namespace gsgrow
