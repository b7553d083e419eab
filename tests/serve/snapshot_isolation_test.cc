// Append-while-mining under ThreadSanitizer: the serving contract is that
// readers mine immutable epoch snapshots while a writer keeps appending —
// no locks held during mining, no torn reads, and every snapshot equal to
// a batch index over the corpus state it captured.
//
// This suite runs under the `tsan` preset (ServeSnapshot* is in the ctest
// filter): a writer thread streams appends/extensions through the service
// while reader threads snapshot and mine concurrently. Each reader
// validates its snapshot self-consistently — the database view captured in
// the same ServiceSnapshot must, when batch-indexed from scratch, mine
// exactly what the incremental snapshot mines. Any torn or
// non-epoch-consistent view would break that equality (or trip TSan).

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "core/clogsgrow.h"
#include "core/inverted_index.h"
#include "serve/mining_service.h"
#include "util/rng.h"

namespace gsgrow {
namespace {

// Events enter the service by name; a five-name alphabet.
constexpr std::array<const char*, 5> kNames = {"a", "b", "c", "d", "e"};

TEST(ServeSnapshotIsolation, AppendWhileMining) {
  MiningService service;
  // Seed corpus so early snapshots have something to mine.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(service.Append({"a", "b", "c", "a", "b"}).ok());
  }

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(7);
    // Keep writing until every reader has finished its quota: readers must
    // observe snapshots taken genuinely mid-stream. The corpus is capped so
    // late reader iterations stay cheap even under TSan; past the cap the
    // writer keeps issuing (bounded) extensions, so appends still interleave
    // with every reader snapshot.
    uint64_t appended = 0;
    constexpr uint64_t kMaxNewSequences = 400;
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<std::string> events;
      const size_t len = 1 + static_cast<size_t>(rng.UniformInt(6));
      for (size_t i = 0; i < len; ++i) {
        events.push_back(kNames[rng.UniformInt(kNames.size())]);
      }
      if (appended >= kMaxNewSequences) {
        // Corpus is big enough; idle (but stay alive) so late reader
        // iterations don't chase an ever-growing database.
        std::this_thread::yield();
        continue;
      }
      if (rng.Bernoulli(0.3)) {
        const SeqId target = static_cast<SeqId>(
            rng.UniformInt(service.Stats().num_sequences));
        ASSERT_TRUE(service.AppendTo(target, events).ok());
      } else {
        ASSERT_TRUE(service.Append(events).ok());
      }
      ++appended;
    }
    EXPECT_GT(appended, 0u);
  });

  constexpr int kReaders = 3;
  constexpr int kSnapshotsPerReader = 6;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&service] {
      for (int s = 0; s < kSnapshotsPerReader; ++s) {
        const auto snapshot = service.Snapshot();
        // The snapshot's db view captures the same epoch as its index; a
        // batch index over it is the ground truth for that epoch.
        InvertedIndex batch(*snapshot->db);
        MinerOptions options;
        // Scale the floor with the corpus so per-iteration mining cost
        // stays flat while the writer grows the database (the point here
        // is the concurrency surface, not DFS depth — TSan multiplies
        // every instruction).
        options.min_support =
            std::max<uint64_t>(3, snapshot->db->Stats().total_length / 10);
        options.max_pattern_length = 5;
        const MiningResult incremental =
            MineClosedFrequent(snapshot->index, options);
        const MiningResult reference = MineClosedFrequent(batch, options);
        ASSERT_EQ(incremental.patterns, reference.patterns)
            << "snapshot epoch " << snapshot->epoch;
        // Mining the same snapshot twice is deterministic even while the
        // writer keeps appending.
        const MiningResult again =
            MineClosedFrequent(snapshot->index, options);
        ASSERT_EQ(incremental.patterns, again.patterns);
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  // Final consistency: quiescent snapshot equals batch ground truth.
  const auto final_snapshot = service.Snapshot();
  InvertedIndex batch(*final_snapshot->db);
  MinerOptions options;
  options.min_support =
      std::max<uint64_t>(3, final_snapshot->db->Stats().total_length / 20);
  options.max_pattern_length = 5;
  EXPECT_EQ(MineClosedFrequent(final_snapshot->index, options).patterns,
            MineClosedFrequent(batch, options).patterns);
}

TEST(ServeSnapshotIsolation, ConcurrentBatchesShareSnapshotsSafely) {
  MiningService service;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(service.Append({"a", "b", "a", "c", "b"}).ok());
  }
  std::vector<MineRequest> requests(6);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].miner =
        i % 2 == 0 ? MineRequest::Miner::kClosed : MineRequest::Miner::kAll;
    requests[i].options.min_support = 2 + i / 2;
  }

  // Two concurrent multi-threaded batches against a service that a writer
  // is feeding: exercises snapshot handoff + the request dispenser under
  // TSan.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(service.Append({"c", "a", "b"}).ok());
    }
  });
  std::vector<MineResponse> a, b;
  std::thread batch_a([&] { a = service.ExecuteBatch(requests, 2); });
  std::thread batch_b([&] { b = service.ExecuteBatch(requests, 3); });
  batch_a.join();
  batch_b.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  ASSERT_EQ(a.size(), requests.size());
  ASSERT_EQ(b.size(), requests.size());
  // Within one batch, every response shares the batch's epoch.
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(a[i].status.ok());
    EXPECT_TRUE(b[i].status.ok());
    EXPECT_EQ(a[i].epoch, a[0].epoch);
    EXPECT_EQ(b[i].epoch, b[0].epoch);
  }
}

}  // namespace
}  // namespace gsgrow
