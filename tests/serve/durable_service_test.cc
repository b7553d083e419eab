// Durable MiningService tests (DESIGN.md §10): open/append/reopen cycles,
// checkpoint + log-truncation, epoch restoration, torn-tail repair, and the
// Status-returning append-path validation (bad client input yields an error
// line, never a process death).

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "io/text_format.h"
#include "persist/file_io.h"
#include "serve/durability.h"
#include "serve/mining_service.h"

namespace gsgrow {
namespace {

namespace fs = std::filesystem;

class DurableServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("gsgrow_durable_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::unique_ptr<MiningService> Open(
      DurabilityOptions::SyncMode sync =
          DurabilityOptions::SyncMode::kGroupCommit) {
    DurabilityOptions options;
    options.dir = dir_;
    options.sync = sync;
    Result<std::unique_ptr<MiningService>> service =
        MiningService::OpenDurable(options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    return service.ok() ? std::move(*service) : nullptr;
  }

  // Lays down segment 0 holding exactly one CRC-valid record, as if a
  // service had logged it and then died.
  void WriteOneRecordWal(serve::LogRecordType type,
                         const std::string& payload) {
    ASSERT_TRUE(persist::CreateDirIfMissing(dir_).ok());
    Result<persist::WalWriter> wal =
        persist::WalWriter::Open(serve::WalSegmentPath(dir_, 0));
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(static_cast<uint8_t>(type), payload).ok());
    ASSERT_TRUE(wal->Close().ok());
  }

  std::string dir_;
};

TEST_F(DurableServiceTest, FreshDirectoryStartsEmpty) {
  std::unique_ptr<MiningService> service = Open();
  ASSERT_NE(service, nullptr);
  EXPECT_TRUE(service->durable());
  EXPECT_EQ(service->Stats().num_sequences, 0u);
  const RecoveryInfo& info = service->recovery_info();
  EXPECT_FALSE(info.recovered_checkpoint);
  EXPECT_EQ(info.wal_replay_records, 0u);
  EXPECT_TRUE(persist::PathExists(serve::WalSegmentPath(dir_, 0)));
}

TEST_F(DurableServiceTest, AppendsSurviveReopen) {
  {
    std::unique_ptr<MiningService> service = Open();
    ASSERT_TRUE(service->Append({"a", "b", "a"}).ok());
    ASSERT_TRUE(service->Append({"b", "c"}).ok());
    ASSERT_TRUE(service->AppendTo(0, {"c", "a"}).ok());
  }
  std::unique_ptr<MiningService> reopened = Open();
  ASSERT_NE(reopened, nullptr);
  const ServiceStats stats = reopened->Stats();
  EXPECT_EQ(stats.num_sequences, 2u);
  EXPECT_EQ(stats.total_events, 7u);
  EXPECT_EQ(stats.alphabet_size, 3u);
  // Composite records: 2 adds + 1 extend (fresh names ride inside them).
  EXPECT_EQ(reopened->recovery_info().wal_replay_records, 3u);
  // Names recovered, not just ids: mine by name filter.
  std::shared_ptr<const ServiceSnapshot> snapshot = reopened->Snapshot();
  EXPECT_EQ(snapshot->db->dictionary().Lookup("c"), 2u);
}

TEST_F(DurableServiceTest, EpochTrajectorySurvivesReopen) {
  uint64_t epoch_before = 0;
  {
    std::unique_ptr<MiningService> service = Open();
    ASSERT_TRUE(service->Append({"a", "b"}).ok());
    service->Snapshot();  // epoch 1
    ASSERT_TRUE(service->Append({"b", "c"}).ok());
    service->Snapshot();  // epoch 2
    service->Snapshot();  // no change: still 2
    epoch_before = service->Stats().epoch;
    EXPECT_EQ(epoch_before, 2u);
  }
  std::unique_ptr<MiningService> reopened = Open();
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->Stats().epoch, epoch_before);
  // A snapshot with nothing new must NOT advance past the replayed epoch.
  EXPECT_EQ(reopened->Snapshot()->epoch, epoch_before);
}

TEST_F(DurableServiceTest, CheckpointTruncatesLogAndRecovers) {
  {
    std::unique_ptr<MiningService> service = Open();
    ASSERT_TRUE(service->Append({"a", "b", "a", "b"}).ok());
    ASSERT_TRUE(service->Append({"b", "c", "b"}).ok());
    ASSERT_TRUE(service->Checkpoint().ok());
    // Covered prefix deleted, fresh segment live.
    EXPECT_FALSE(persist::PathExists(serve::WalSegmentPath(dir_, 0)));
    EXPECT_TRUE(persist::PathExists(serve::WalSegmentPath(dir_, 1)));
    EXPECT_TRUE(persist::PathExists(serve::CheckpointPath(dir_)));
    ASSERT_TRUE(service->Append({"c", "a"}).ok());
  }
  std::unique_ptr<MiningService> reopened = Open();
  ASSERT_NE(reopened, nullptr);
  const RecoveryInfo& info = reopened->recovery_info();
  EXPECT_TRUE(info.recovered_checkpoint);
  EXPECT_EQ(info.checkpoint_sequences, 2u);
  EXPECT_EQ(info.wal_replay_records, 1u);  // the post-checkpoint append
  EXPECT_EQ(reopened->Stats().num_sequences, 3u);
  EXPECT_EQ(reopened->Stats().total_events, 9u);
}

TEST_F(DurableServiceTest, RepeatedCheckpointsRotateSegments) {
  std::unique_ptr<MiningService> service = Open();
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(service->Append({"a", "b"}).ok());
    ASSERT_TRUE(service->Checkpoint().ok());
  }
  Result<std::vector<uint64_t>> segments = serve::ListWalSegments(dir_);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  EXPECT_EQ((*segments)[0], 3u);
  service.reset();
  std::unique_ptr<MiningService> reopened = Open();
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->Stats().num_sequences, 3u);
  EXPECT_EQ(reopened->recovery_info().wal_replay_records, 0u);
}

TEST_F(DurableServiceTest, TornTailIsDroppedAndRepaired) {
  {
    std::unique_ptr<MiningService> service =
        Open(DurabilityOptions::SyncMode::kEveryAppend);
    ASSERT_TRUE(service->Append({"a", "b"}).ok());
    ASSERT_TRUE(service->Append({"b", "c"}).ok());
  }
  // Cut the final record in half: the crash shape.
  const std::string wal = serve::WalSegmentPath(dir_, 0);
  Result<uint64_t> size = persist::FileSize(wal);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(persist::TruncateFile(wal, *size - 3).ok());
  {
    std::unique_ptr<MiningService> reopened = Open();
    ASSERT_NE(reopened, nullptr);
    EXPECT_TRUE(reopened->recovery_info().torn_tail_dropped);
    EXPECT_EQ(reopened->Stats().num_sequences, 1u);
    // The repaired log accepts new appends after the cut point.
    ASSERT_TRUE(reopened->Append({"c", "c"}).ok());
  }
  std::unique_ptr<MiningService> again = Open();
  ASSERT_NE(again, nullptr);
  EXPECT_FALSE(again->recovery_info().torn_tail_dropped);
  EXPECT_EQ(again->Stats().num_sequences, 2u);
}

TEST_F(DurableServiceTest, MidLogCorruptionIsStatusNotCrash) {
  {
    std::unique_ptr<MiningService> service =
        Open(DurabilityOptions::SyncMode::kEveryAppend);
    ASSERT_TRUE(service->Append({"alpha", "beta"}).ok());
    ASSERT_TRUE(service->Append({"beta", "gamma"}).ok());
  }
  const std::string wal = serve::WalSegmentPath(dir_, 0);
  Result<std::string> data = persist::ReadFileToString(wal);
  ASSERT_TRUE(data.ok());
  std::string damaged = *data;
  damaged[12] = static_cast<char>(damaged[12] ^ 0x40);  // first record body
  ASSERT_TRUE(persist::WriteFileAtomic(wal, damaged).ok());
  DurabilityOptions options;
  options.dir = dir_;
  Result<std::unique_ptr<MiningService>> reopened =
      MiningService::OpenDurable(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST_F(DurableServiceTest, MissingSegmentIsCorruption) {
  {
    std::unique_ptr<MiningService> service = Open();
    ASSERT_TRUE(service->Append({"a"}).ok());
    ASSERT_TRUE(service->Checkpoint().ok());  // now on segment 1
    ASSERT_TRUE(service->Append({"b"}).ok());
  }
  // Fake a gap: move the live segment two numbers up.
  fs::rename(serve::WalSegmentPath(dir_, 1), serve::WalSegmentPath(dir_, 3));
  DurabilityOptions options;
  options.dir = dir_;
  Result<std::unique_ptr<MiningService>> reopened =
      MiningService::OpenDurable(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST_F(DurableServiceTest, StaleSegmentsBelowCheckpointAreIgnored) {
  {
    std::unique_ptr<MiningService> service = Open();
    ASSERT_TRUE(service->Append({"a", "b"}).ok());
    ASSERT_TRUE(service->Checkpoint().ok());
  }
  // Resurrect a pre-checkpoint segment full of garbage, as if its deletion
  // had been lost in a crash. Recovery must delete, not replay, it.
  ASSERT_TRUE(
      persist::WriteFileAtomic(serve::WalSegmentPath(dir_, 0), "garbage")
          .ok());
  std::unique_ptr<MiningService> reopened = Open();
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->Stats().num_sequences, 1u);
  EXPECT_FALSE(persist::PathExists(serve::WalSegmentPath(dir_, 0)));
}

TEST_F(DurableServiceTest, IngestIsLoggedAsOneCommit) {
  {
    Result<SequenceDatabase> db = ParseTextDatabase("x y\ny\n");
    ASSERT_TRUE(db.ok());
    std::unique_ptr<MiningService> service = Open();
    ASSERT_TRUE(service->Ingest(*db).ok());
    EXPECT_EQ(service->Stats().num_sequences, 2u);
  }
  std::unique_ptr<MiningService> reopened = Open();
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->Stats().num_sequences, 2u);
  EXPECT_EQ(reopened->Stats().alphabet_size, 2u);
  EXPECT_EQ(reopened->Snapshot()->db->dictionary().Lookup("y"), 1u);
}

// --- Result cache across checkpoint and recovery (DESIGN.md §12). ---

TEST_F(DurableServiceTest, CheckpointKeepsCacheCoherent) {
  std::unique_ptr<MiningService> service = Open();
  ASSERT_NE(service, nullptr);
  ASSERT_TRUE(service->Append({"a", "b", "a", "b"}).ok());
  ASSERT_TRUE(service->Append({"b", "a", "b"}).ok());

  MineRequest request;
  request.options.min_support = 2;
  const MineResponse before = service->Execute(request);
  ASSERT_TRUE(before.status.ok());

  // Checkpoint() snapshots internally; that epoch advance must flow through
  // the cache's delta hook, so the cached answer stays servable (the delta
  // is empty — nothing was appended since the entry was mined).
  ASSERT_TRUE(service->Checkpoint().ok());
  const MineResponse after = service->Execute(request);
  EXPECT_EQ(after.patterns, before.patterns);
  EXPECT_EQ(service->Stats().cache_hits, 1u);

  // Post-checkpoint appends dirty the unrestricted entry as usual, and the
  // re-mined answer matches a cache-free run on the same snapshot.
  ASSERT_TRUE(service->Append({"a", "a"}).ok());
  const MineResponse remined = service->Execute(request);
  const MineResponse reference =
      MiningService::ExecuteOn(*service->Snapshot(), request);
  EXPECT_EQ(remined.patterns, reference.patterns);
  EXPECT_EQ(service->Stats().cache_misses, 2u);
}

TEST_F(DurableServiceTest, RecoveryStartsWithAnInvalidatedCache) {
  MineRequest request;
  request.options.min_support = 2;
  {
    std::unique_ptr<MiningService> service =
        Open(DurabilityOptions::SyncMode::kEveryAppend);
    ASSERT_NE(service, nullptr);
    ASSERT_TRUE(service->Append({"a", "b", "a", "b"}).ok());
    ASSERT_TRUE(service->Execute(request).status.ok());
    ASSERT_TRUE(service->Execute(request).status.ok());
    EXPECT_EQ(service->Stats().cache_hits, 1u);
    // This append is about to be torn off the log: the corpus the cache
    // saw and the corpus recovery replays will disagree, while the epoch
    // counter restarts from a comparable value — exactly the stale-hit
    // shape OpenDurable's cache invalidation exists to prevent.
    ASSERT_TRUE(service->Append({"a", "b"}).ok());
  }
  const std::string wal = serve::WalSegmentPath(dir_, 0);
  Result<uint64_t> size = persist::FileSize(wal);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(persist::TruncateFile(wal, *size - 3).ok());

  std::unique_ptr<MiningService> reopened = Open();
  ASSERT_NE(reopened, nullptr);
  EXPECT_TRUE(reopened->recovery_info().torn_tail_dropped);
  EXPECT_EQ(reopened->Stats().num_sequences, 1u);

  // The first post-recovery query must be a cold miss answered from the
  // replayed corpus, byte-for-byte what a cache-free execution computes.
  const MineResponse recovered = reopened->Execute(request);
  const MineResponse reference =
      MiningService::ExecuteOn(*reopened->Snapshot(), request);
  ASSERT_TRUE(recovered.status.ok());
  EXPECT_EQ(recovered.patterns, reference.patterns);
  const ServiceStats stats = reopened->Stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 1u);
}

// --- Append-path validation (the Status satellite): bad client input is an
// error value, not a GSGROW_CHECK death. ---

TEST_F(DurableServiceTest, AppendToUnknownSequenceIsNotFound) {
  std::unique_ptr<MiningService> service = Open();
  const Status status = service->AppendTo(99, {"a"});
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  // Nothing was logged: reopening sees an empty corpus.
  service.reset();
  EXPECT_EQ(Open()->Stats().num_sequences, 0u);
}

// Names are the only way in for live appends, so the reserved event id can
// only arrive through a log: a CRC-valid record carrying kNoEvent is
// corruption, reported as a Status — never an InvalidArgument, never a
// crash.
TEST_F(DurableServiceTest, ReplayedReservedEventIdIsCorruption) {
  const std::string name = "a";
  const std::pair<EventId, const std::string*> fresh[] = {{0, &name}};
  const EventId events[] = {0, kNoEvent, 0};
  std::string payload;
  serve::EncodeSequenceRecord(0, fresh, events, &payload);
  WriteOneRecordWal(serve::LogRecordType::kAddSequence, payload);
  DurabilityOptions options;
  options.dir = dir_;
  Result<std::unique_ptr<MiningService>> reopened =
      MiningService::OpenDurable(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

// A crash mid-Ingest can leave a log of intern records and no sequence.
// The recovered service is not empty, so a second Ingest is refused with a
// Status instead of tripping a store invariant.
TEST_F(DurableServiceTest, IngestAfterTornBulkLoadIsInvalidArgument) {
  std::string payload;
  serve::EncodeInternRecord(0, "x", &payload);
  WriteOneRecordWal(serve::LogRecordType::kIntern, payload);
  std::unique_ptr<MiningService> service = Open();
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->Stats().num_sequences, 0u);
  Result<SequenceDatabase> db = ParseTextDatabase("x y\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(service->Ingest(*db).code(), StatusCode::kInvalidArgument);
}

TEST(MiningServiceValidation, CheckpointOnInMemoryServiceIsInvalidArgument) {
  MiningService service;
  EXPECT_FALSE(service.durable());
  EXPECT_EQ(service.Checkpoint().code(), StatusCode::kInvalidArgument);
}

TEST(MiningServiceValidation, OpenDurableRejectsBadOptions) {
  DurabilityOptions options;  // dir unset
  EXPECT_EQ(MiningService::OpenDurable(options).status().code(),
            StatusCode::kInvalidArgument);
  options.dir = (fs::temp_directory_path() / "gsgrow_badopts").string();
  options.group_commit_appends = 0;
  EXPECT_EQ(MiningService::OpenDurable(options).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gsgrow
