#include "serve/appendable_database.h"

#include <utility>

#include "util/logging.h"

namespace gsgrow {

namespace {

SeqId AddOrCheckSequenceCapacity(size_t current) {
  // invariant: MiningService bounds the id space with a Status(kOutOfRange)
  // before any store mutation; this re-check cannot fire on client input.
  GSGROW_CHECK_MSG(current < static_cast<size_t>(kNoPosition),
                   "sequence id space exhausted");
  return static_cast<SeqId>(current);
}

}  // namespace

SeqId AppendableDatabase::AddSequence(std::span<const EventId> events) {
  writer_lock_.AssertHeld();
  const SeqId seq = AddOrCheckSequenceCapacity(sequences_.size());
  sequences_.emplace_back(events.begin(), events.end());
  total_events_ += events.size();
  cached_.reset();
  return seq;
}

void AppendableDatabase::AppendToSequence(SeqId seq,
                                          std::span<const EventId> events) {
  writer_lock_.AssertHeld();
  // invariant: unknown ids and position-space overflow are rejected with a
  // Status at the MiningService layer before this store is touched.
  GSGROW_CHECK_MSG(seq < sequences_.size(), "append to unknown sequence");
  std::vector<EventId>& target = sequences_[seq];
  // invariant: pre-validated by MiningService::ApplyLocked.
  GSGROW_CHECK_MSG(target.size() + events.size() <=
                       static_cast<size_t>(kNoPosition),
                   "sequence position space exhausted");
  target.insert(target.end(), events.begin(), events.end());
  total_events_ += events.size();
  cached_.reset();
}

Position AppendableDatabase::SequenceLength(SeqId seq) const {
  writer_lock_.AssertHeld();
  // invariant: callers resolve ids against this store under the same lock.
  GSGROW_CHECK_MSG(seq < sequences_.size(), "unknown sequence");
  return static_cast<Position>(sequences_[seq].size());
}

std::span<const EventId> AppendableDatabase::SequenceEvents(SeqId seq) const {
  writer_lock_.AssertHeld();
  // invariant: callers resolve ids against this store under the same lock.
  GSGROW_CHECK_MSG(seq < sequences_.size(), "unknown sequence");
  return sequences_[seq];
}

std::shared_ptr<const SequenceDatabase> AppendableDatabase::SnapshotDatabase() {
  writer_lock_.AssertHeld();
  if (cached_ != nullptr) return cached_;
  std::vector<Sequence> copies;
  copies.reserve(sequences_.size());
  for (const std::vector<EventId>& events : sequences_) {
    copies.emplace_back(events);
  }
  cached_ = std::make_shared<const SequenceDatabase>(std::move(copies),
                                                     dictionary_);
  return cached_;
}

}  // namespace gsgrow
