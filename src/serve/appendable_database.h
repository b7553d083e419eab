// Appendable sequence store for the serving subsystem (DESIGN.md §8).
//
// SequenceDatabase is immutable after construction; a long-lived mining
// service needs to accept new sequences — and appends to existing ones —
// from a live event stream. AppendableDatabase is the writer-side store:
// growable per-sequence event buffers plus the shared EventDictionary, with
// a copy-on-write snapshot that materializes an immutable SequenceDatabase
// on demand and caches it until the next mutation. Consumers that only need
// index queries never touch it (IncrementalInvertedIndex snapshots answer
// those); the database snapshot exists for the paths that read raw
// sequences — the gap-constrained flow oracle and response formatting
// (event names).
//
// Threading contract: single writer, externally synchronized. All mutating
// calls and SnapshotDatabase() must be serialized by the caller
// (MiningService holds the mutex); the returned snapshot is immutable and
// may be read concurrently with later appends.

#ifndef GSGROW_SERVE_APPENDABLE_DATABASE_H_
#define GSGROW_SERVE_APPENDABLE_DATABASE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/event_dictionary.h"
#include "core/sequence_database.h"
#include "core/types.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace gsgrow {

class AppendableDatabase {
 public:
  AppendableDatabase() = default;

  /// Appends a new sequence of raw event ids; returns its SeqId. Name
  /// resolution lives one layer up: MiningService::ApplyLocked interns
  /// names into dictionary() and feeds the same id vector to this store AND
  /// the incremental index — the one mutation path, bulk Ingest included,
  /// so the dictionary is the only source of event ids.
  SeqId AddSequence(std::span<const EventId> events);

  /// Appends events to the END of an existing sequence. `seq` must be a
  /// valid id returned by an earlier AddSequence.
  void AppendToSequence(SeqId seq, std::span<const EventId> events);

  /// Writer-side dictionary: the one authority over event ids.
  EventDictionary& dictionary() {
    writer_lock_.AssertHeld();
    return dictionary_;
  }
  const EventDictionary& dictionary() const {
    writer_lock_.AssertHeld();
    return dictionary_;
  }

  size_t size() const {
    writer_lock_.AssertHeld();
    return sequences_.size();
  }
  size_t total_events() const {
    writer_lock_.AssertHeld();
    return total_events_;
  }

  /// Current length of sequence `seq`.
  Position SequenceLength(SeqId seq) const;

  /// Events of sequence `seq` (valid until the next mutation of that
  /// sequence). The checkpoint writer spills the store through this view
  /// without materializing a database snapshot.
  std::span<const EventId> SequenceEvents(SeqId seq) const;

  /// Immutable database reflecting every append so far. Copy-on-write at
  /// store granularity: returns the cached snapshot when nothing changed
  /// since the last call, otherwise materializes a fresh SequenceDatabase
  /// (O(total events) copy — see the DESIGN.md §8 cost model; only the
  /// gap-constrained oracle and name resolution need it, index-only mining
  /// rides the O(delta) IncrementalInvertedIndex snapshots instead).
  std::shared_ptr<const SequenceDatabase> SnapshotDatabase();

 private:
  // Single-writer, externally-synchronized contract (file comment), made
  // machine-checkable exactly as in IncrementalInvertedIndex: methods that
  // touch the fields below open with writer_lock_.AssertHeld().
  ExternalSerialization writer_lock_;

  std::vector<std::vector<EventId>> sequences_ GSGROW_GUARDED_BY(writer_lock_);
  EventDictionary dictionary_ GSGROW_GUARDED_BY(writer_lock_);
  size_t total_events_ GSGROW_GUARDED_BY(writer_lock_) = 0;
  // Cached immutable snapshot; invalidated (reset) by every mutation.
  std::shared_ptr<const SequenceDatabase> cached_
      GSGROW_GUARDED_BY(writer_lock_);
};

}  // namespace gsgrow

#endif  // GSGROW_SERVE_APPENDABLE_DATABASE_H_
