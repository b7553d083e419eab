// Randomized crash-replay differential for the durable MiningService
// (DESIGN.md §10) — the proof obligation of the durability layer.
//
// A crash is modeled as truncating the WAL at an arbitrary byte offset
// (including mid-record: torn writes). For every kill point the recovered
// service must be byte-identical — index surface AND mined answers — to an
// uninterrupted in-memory run fed exactly the mutations whose records
// survived in the log prefix. The reference run applies records by NAME,
// so the differential also proves that replayed id assignment reproduces
// the live run's first-use intern order.
//
// Three phases:
//   A. WAL-only recovery: >= 60 random kill points into a fresh directory.
//   B. Checkpoint + log tail: >= 50 random kill points truncating the
//      post-checkpoint segment.
//   C. Random bit flips anywhere in the directory: recovery returns a
//      Status (ok or kCorruption) — never a crash, never a wrong answer
//      passed off as ok on a complete-but-damaged record.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "io/request_io.h"
#include "persist/file_io.h"
#include "persist/wal.h"
#include "serve/durability.h"
#include "serve/mining_service.h"
#include "util/rng.h"
#include "util/status.h"

namespace gsgrow {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("gsgrow_crash_" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Deterministic workload.

struct Op {
  enum class Kind { kAppend, kAppendTo, kSnapshot } kind = Kind::kAppend;
  SeqId seq = 0;                    // kAppendTo
  std::vector<std::string> names;   // kAppend / kAppendTo
};

// Mix of repeated alphabet names (so patterns actually repeat and mining
// has something to say) and occasional brand-new names (so composite
// records carry fresh interns at unpredictable points).
std::vector<Op> MakeWorkload(Rng& rng, size_t num_ops) {
  const std::vector<std::string> base = {"a", "b", "c", "d", "e", "f"};
  size_t next_fresh = 0;
  std::vector<Op> ops;
  size_t live_sequences = 0;
  for (size_t i = 0; i < num_ops; ++i) {
    Op op;
    const uint64_t roll = rng.UniformInt(10);
    if (roll < 6 || live_sequences == 0) {
      op.kind = Op::Kind::kAppend;
      ++live_sequences;
    } else if (roll < 9) {
      op.kind = Op::Kind::kAppendTo;
      op.seq = static_cast<SeqId>(rng.UniformInt(live_sequences));
    } else {
      op.kind = Op::Kind::kSnapshot;
      ops.push_back(std::move(op));
      continue;
    }
    const size_t len = 2 + rng.UniformInt(4);
    for (size_t k = 0; k < len; ++k) {
      if (rng.Bernoulli(0.1)) {
        op.names.emplace_back("n");
        op.names.back() += std::to_string(next_fresh++);
      } else {
        op.names.push_back(base[rng.UniformInt(base.size())]);
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

void ApplyOp(MiningService& service, const Op& op) {
  switch (op.kind) {
    case Op::Kind::kAppend:
      ASSERT_TRUE(service.Append(op.names).ok());
      break;
    case Op::Kind::kAppendTo:
      ASSERT_TRUE(service.AppendTo(op.seq, op.names).ok());
      break;
    case Op::Kind::kSnapshot:
      service.Snapshot();
      break;
  }
}

// ---------------------------------------------------------------------------
// Reference model: apply decoded WAL records by NAME to an in-memory
// service, tracking the dense id->name map the records themselves define.

void ApplyRecordByName(MiningService& reference,
                       const serve::LogRecord& record,
                       std::vector<std::string>* names) {
  switch (record.type) {
    case serve::LogRecordType::kAddSequence:
    case serve::LogRecordType::kAppendTo: {
      for (const auto& [id, name] : record.fresh) {
        ASSERT_EQ(id, names->size()) << "fresh ids must be dense";
        names->push_back(name);
      }
      std::vector<std::string> event_names;
      event_names.reserve(record.events.size());
      for (const EventId e : record.events) {
        ASSERT_LT(e, names->size());
        event_names.push_back((*names)[e]);
      }
      if (record.type == serve::LogRecordType::kAddSequence) {
        ASSERT_TRUE(reference.Append(event_names).ok());
      } else {
        ASSERT_TRUE(reference.AppendTo(record.seq, event_names).ok());
      }
      break;
    }
    case serve::LogRecordType::kEpochAdvance:
      reference.Snapshot();
      break;
    case serve::LogRecordType::kIntern:
      FAIL() << "live appends never emit kIntern records";
  }
}

// ---------------------------------------------------------------------------
// Surface serialization: everything a query can observe, in one string.

std::string SerializeSurface(MiningService& service) {
  const std::shared_ptr<const ServiceSnapshot> snapshot = service.Snapshot();
  std::string out;
  out += "epoch " + std::to_string(snapshot->epoch) + "\n";

  const EventDictionary& dict = snapshot->db->dictionary();
  out += "dict " + std::to_string(dict.size()) + "\n";
  for (EventId e = 0; e < dict.size(); ++e) {
    out += "  " + std::string(dict.Name(e)) + "\n";
  }

  const InvertedIndex& index = snapshot->index;
  out += "sequences " + std::to_string(index.num_sequences()) + " alphabet " +
         std::to_string(index.alphabet_size()) + "\n";
  for (SeqId i = 0; i < index.num_sequences(); ++i) {
    out += "seq " + std::to_string(i) + " len " +
           std::to_string(index.SequenceLength(i)) + " raw";
    for (const EventId e : snapshot->db->sequences()[i].events()) {
      out += ' ';
      out += std::to_string(e);
    }
    out += "\n";
    for (const EventId e : index.EventsInSequence(i)) {
      out += "  e" + std::to_string(e) + ":";
      for (const Position p : index.Positions(i, e)) {
        out += ' ';
        out += std::to_string(p);
      }
      out += "\n";
    }
  }
  for (const EventId e : index.present_events()) {
    out += "post e" + std::to_string(e) + " total " +
           std::to_string(index.TotalCount(e));
    for (const InvertedIndex::Posting& p : index.Postings(e)) {
      out += " (" + std::to_string(p.seq) + "," + std::to_string(p.count) +
             ")";
    }
    out += "\n";
  }
  return out;
}

std::string MineClosed(MiningService& service) {
  MineRequest request;
  request.miner = MineRequest::Miner::kClosed;
  request.options.min_support = 2;
  std::shared_ptr<const ServiceSnapshot> snapshot;
  const MineResponse response = service.Execute(request, &snapshot);
  return FormatMineResponse(response, snapshot->db->dictionary(), 1000);
}

// Runs the recovered-vs-reference comparison for one WAL byte prefix laid
// down in `trial_dir` (checkpoint, if any, already in place).
void CheckTrial(const std::string& trial_dir, MiningService& reference,
                const std::string& label) {
  DurabilityOptions options;
  options.dir = trial_dir;
  options.sync = DurabilityOptions::SyncMode::kNone;
  Result<std::unique_ptr<MiningService>> recovered =
      MiningService::OpenDurable(options);
  ASSERT_TRUE(recovered.ok()) << label << ": " << recovered.status().message();

  ASSERT_EQ(SerializeSurface(**recovered), SerializeSurface(reference))
      << label;
  ASSERT_EQ(MineClosed(**recovered), MineClosed(reference)) << label;
}

// ---------------------------------------------------------------------------
// Phase A: WAL-only recovery at random kill points.

TEST(CrashReplay, RandomKillPointsMatchReferenceRun) {
  const std::string dir = TempDir("phase_a");
  Rng rng(0x1CDE2009);
  const std::vector<Op> ops = MakeWorkload(rng, 48);
  {
    DurabilityOptions options;
    options.dir = dir;
    options.sync = DurabilityOptions::SyncMode::kNone;
    Result<std::unique_ptr<MiningService>> service =
        MiningService::OpenDurable(options);
    ASSERT_TRUE(service.ok());
    for (const Op& op : ops) ApplyOp(**service, op);
  }
  Result<std::string> wal =
      persist::ReadFileToString(serve::WalSegmentPath(dir, 0));
  ASSERT_TRUE(wal.ok());
  ASSERT_GT(wal->size(), 100u);

  const std::string trial_dir = TempDir("phase_a_trial");
  for (int trial = 0; trial < 60; ++trial) {
    // Kill point: everything past `cut` never reached the disk.
    const size_t cut = trial == 0 ? 0 : rng.UniformInt(wal->size() + 1);
    const std::string label = "phase A trial " + std::to_string(trial) +
                              " cut at " + std::to_string(cut);
    std::filesystem::remove_all(trial_dir);
    ASSERT_TRUE(persist::CreateDirIfMissing(trial_dir).ok());
    ASSERT_TRUE(persist::WriteFileAtomic(serve::WalSegmentPath(trial_dir, 0),
                                         wal->substr(0, cut))
                    .ok());

    // Reference: an uninterrupted in-memory run of exactly the mutations
    // whose records survived in the prefix.
    Result<persist::WalReadResult> surviving = persist::DecodeWalBytes(
        wal->substr(0, cut), /*tolerate_torn_tail=*/true, label);
    ASSERT_TRUE(surviving.ok()) << label;
    MiningService reference;
    std::vector<std::string> names;
    for (const persist::WalRecord& raw : surviving->records) {
      Result<serve::LogRecord> record = serve::DecodeLogRecord(raw);
      ASSERT_TRUE(record.ok()) << label;
      ApplyRecordByName(reference, *record, &names);
      if (HasFatalFailure()) return;
    }
    CheckTrial(trial_dir, reference, label);
    if (HasFatalFailure()) return;
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(trial_dir);
}

// ---------------------------------------------------------------------------
// Phase B: checkpoint + torn log tail.

TEST(CrashReplay, KillPointsAfterCheckpointMatchReferenceRun) {
  const std::string dir = TempDir("phase_b");
  Rng rng(0xD1FF2009);
  const std::vector<Op> pre = MakeWorkload(rng, 24);
  const std::vector<Op> post = MakeWorkload(rng, 24);
  {
    DurabilityOptions options;
    options.dir = dir;
    options.sync = DurabilityOptions::SyncMode::kNone;
    Result<std::unique_ptr<MiningService>> service =
        MiningService::OpenDurable(options);
    ASSERT_TRUE(service.ok());
    for (const Op& op : pre) ApplyOp(**service, op);
    ASSERT_TRUE((*service)->Checkpoint().ok());
    for (const Op& op : post) ApplyOp(**service, op);
  }
  Result<std::string> checkpoint =
      persist::ReadFileToString(serve::CheckpointPath(dir));
  ASSERT_TRUE(checkpoint.ok());
  Result<std::string> tail =
      persist::ReadFileToString(serve::WalSegmentPath(dir, 1));
  ASSERT_TRUE(tail.ok());
  ASSERT_GT(tail->size(), 100u);

  // The pre-checkpoint reference prefix is shared by every trial: the ops
  // before the checkpoint plus the snapshot Checkpoint() itself takes.
  const auto build_reference = [&](std::unique_ptr<MiningService>* out,
                                   std::vector<std::string>* names) {
    *out = std::make_unique<MiningService>();
    for (const Op& op : pre) {
      ApplyOp(**out, op);
      if (HasFatalFailure()) return;
    }
    (*out)->Snapshot();  // mirrors the snapshot inside Checkpoint()
    const std::shared_ptr<const ServiceSnapshot> snap = (*out)->Snapshot();
    const EventDictionary& dict = snap->db->dictionary();
    for (EventId e = 0; e < dict.size(); ++e) {
      names->emplace_back(dict.Name(e));
    }
  };

  const std::string trial_dir = TempDir("phase_b_trial");
  for (int trial = 0; trial < 50; ++trial) {
    const size_t cut = trial == 0 ? 0 : rng.UniformInt(tail->size() + 1);
    const std::string label = "phase B trial " + std::to_string(trial) +
                              " cut at " + std::to_string(cut);
    std::filesystem::remove_all(trial_dir);
    ASSERT_TRUE(persist::CreateDirIfMissing(trial_dir).ok());
    ASSERT_TRUE(persist::WriteFileAtomic(serve::CheckpointPath(trial_dir),
                                         *checkpoint)
                    .ok());
    ASSERT_TRUE(persist::WriteFileAtomic(serve::WalSegmentPath(trial_dir, 1),
                                         tail->substr(0, cut))
                    .ok());

    std::unique_ptr<MiningService> reference;
    std::vector<std::string> names;
    build_reference(&reference, &names);
    if (HasFatalFailure()) return;
    Result<persist::WalReadResult> surviving = persist::DecodeWalBytes(
        tail->substr(0, cut), /*tolerate_torn_tail=*/true, label);
    ASSERT_TRUE(surviving.ok()) << label;
    for (const persist::WalRecord& raw : surviving->records) {
      Result<serve::LogRecord> record = serve::DecodeLogRecord(raw);
      ASSERT_TRUE(record.ok()) << label;
      ApplyRecordByName(*reference, *record, &names);
      if (HasFatalFailure()) return;
    }
    CheckTrial(trial_dir, *reference, label);
    if (HasFatalFailure()) return;
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(trial_dir);
}

// ---------------------------------------------------------------------------
// Phase C: random bit flips — recovery is a Status, never a crash. A flip
// that lands in a complete record is kCorruption; a flip in a length field
// can only convert the tail into a (legitimately dropped) torn record.

TEST(CrashReplay, RandomBitFlipsNeverCrash) {
  const std::string dir = TempDir("phase_c");
  Rng rng(0xB17F11B5);
  const std::vector<Op> pre = MakeWorkload(rng, 16);
  const std::vector<Op> post = MakeWorkload(rng, 16);
  {
    DurabilityOptions options;
    options.dir = dir;
    options.sync = DurabilityOptions::SyncMode::kNone;
    Result<std::unique_ptr<MiningService>> service =
        MiningService::OpenDurable(options);
    ASSERT_TRUE(service.ok());
    for (const Op& op : pre) ApplyOp(**service, op);
    ASSERT_TRUE((*service)->Checkpoint().ok());
    for (const Op& op : post) ApplyOp(**service, op);
  }
  Result<std::string> checkpoint =
      persist::ReadFileToString(serve::CheckpointPath(dir));
  ASSERT_TRUE(checkpoint.ok());
  Result<std::string> tail =
      persist::ReadFileToString(serve::WalSegmentPath(dir, 1));
  ASSERT_TRUE(tail.ok());

  const std::string trial_dir = TempDir("phase_c_trial");
  for (int trial = 0; trial < 40; ++trial) {
    std::string damaged_checkpoint = *checkpoint;
    std::string damaged_tail = *tail;
    const bool hit_checkpoint = rng.Bernoulli(0.5);
    std::string* target = hit_checkpoint ? &damaged_checkpoint : &damaged_tail;
    const size_t at = rng.UniformInt(target->size());
    const uint8_t bit = 1u << rng.UniformInt(8);
    (*target)[at] = static_cast<char>((*target)[at] ^ bit);
    const std::string label =
        "phase C trial " + std::to_string(trial) + " flip bit " +
        std::to_string(bit) + " at " + std::to_string(at) + " of " +
        (hit_checkpoint ? "checkpoint" : "wal tail");

    std::filesystem::remove_all(trial_dir);
    ASSERT_TRUE(persist::CreateDirIfMissing(trial_dir).ok());
    ASSERT_TRUE(persist::WriteFileAtomic(serve::CheckpointPath(trial_dir),
                                         damaged_checkpoint)
                    .ok());
    ASSERT_TRUE(persist::WriteFileAtomic(serve::WalSegmentPath(trial_dir, 1),
                                         damaged_tail)
                    .ok());

    DurabilityOptions options;
    options.dir = trial_dir;
    Result<std::unique_ptr<MiningService>> recovered =
        MiningService::OpenDurable(options);
    if (hit_checkpoint) {
      // Every checkpoint byte is covered by a page or footer checksum.
      ASSERT_FALSE(recovered.ok()) << label;
      EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption) << label;
    } else if (!recovered.ok()) {
      EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption) << label;
    }
    // A tail flip may legitimately recover (e.g. a length-field flip turns
    // the record into a dropped torn tail) — the contract is only that the
    // open NEVER crashes and a complete damaged record is never applied.
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(trial_dir);
}

}  // namespace
}  // namespace gsgrow
