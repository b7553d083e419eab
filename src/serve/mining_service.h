// Query-driven mining service (DESIGN.md §8) — the session layer between a
// live, appendable corpus and the batch miners of src/core.
//
// A MiningService owns one AppendableDatabase + IncrementalInvertedIndex
// pair kept in lockstep by one mutation primitive (ApplyLocked) that every
// write path — appends, Ingest, WAL replay, checkpoint load — goes
// through, and whose dictionary is the one authority over event ids. It
// executes typed MineRequests against epoch snapshots: every query — or
// every batch of queries — runs on one immutable, consistent view while
// appends keep landing on the writer side.
// The request struct covers all four miner facades (all / closed / top-K /
// gap-constrained), the Table-I semantics selection, and an event-alphabet
// filter, so the CLI front-end (serve_session.h), mine_cli, the tests, and
// bench/serving_queries all drive the identical code path.
//
// Concurrency: appends, snapshot creation, and stats are serialized by an
// internal mutex; query EXECUTION happens outside the lock, against the
// immutable snapshot — a long mining run never blocks appends, and appends
// never perturb a running query. ExecuteBatch shares one snapshot across
// the whole request vector and dispenses requests to a worker pool with the
// same atomic-cursor idiom as the PR-3 root dispenser.
//
// Durability (DESIGN.md §10): a service opened with OpenDurable writes every
// mutation to a write-ahead log BEFORE touching in-memory state, spills
// epoch-aligned checkpoints on demand, and recovers from
// checkpoint + log-tail replay on reopen. A default-constructed service is
// purely in-memory, with zero durability overhead on any path.

#ifndef GSGROW_SERVE_MINING_SERVICE_H_
#define GSGROW_SERVE_MINING_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/inverted_index.h"
#include "core/miner_options.h"
#include "core/mining_result.h"
#include "core/reference.h"
#include "core/sequence_database.h"
#include "obs/trace.h"
#include "persist/wal.h"
#include "serve/appendable_database.h"
#include "serve/durability.h"
#include "serve/incremental_index.h"
#include "serve/result_cache.h"
#include "serve/service_types.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace gsgrow {

/// How a durable service is opened (DESIGN.md §10).
struct DurabilityOptions {
  /// Directory holding the CHECKPOINT file and wal-<seq>.log segments.
  /// Created if missing. Must be set.
  std::string dir;

  /// When appended WAL records are forced to stable storage. Records are
  /// always WRITTEN (fsync-able) before the in-memory mutation; this policy
  /// governs only the fdatasync cadence.
  enum class SyncMode {
    kNone,         // no fsync except checkpoints / bulk-load boundaries
    kGroupCommit,  // fsync every `group_commit_appends` mutations
    kEveryAppend,  // fsync after every mutation
  };
  SyncMode sync = SyncMode::kGroupCommit;

  /// Group-commit batch size (kGroupCommit only).
  size_t group_commit_appends = 32;
};

/// What OpenDurable found on disk, for operators and the `recover` verb.
struct RecoveryInfo {
  bool recovered_checkpoint = false;
  uint64_t checkpoint_epoch = 0;
  uint64_t checkpoint_sequences = 0;
  uint64_t wal_replay_records = 0;
  bool torn_tail_dropped = false;
  uint64_t recovered_sequences = 0;
  uint64_t recovered_epoch = 0;
  double recover_seconds = 0.0;
};

/// The service's admission check, run on every request before the cache
/// probe and again by ExecuteOn: min_support >= 1 (except top-K), k >= 1
/// (top-K), min_gap <= max_gap (gap-constrained) and num_threads <=
/// kMaxRequestThreads. InvalidArgument names the first failed condition.
Status ValidateMineRequest(const MineRequest& request);

class MiningService {
 public:
  MiningService() : MiningService(ResultCacheOptions{}) {}

  /// The result cache (serve/result_cache.h) is ON by default;
  /// cache_options.max_bytes == 0 disables it (every query mines cold) —
  /// the bench cold arms and the cache-on/off differential use that.
  explicit MiningService(const ResultCacheOptions& cache_options)
      : cache_(cache_options.max_bytes == 0
                   ? nullptr
                   : std::make_unique<ResultCache>(cache_options)) {}

  /// Same as above. IndexBuildOptions is empty (the index has one layout);
  /// the benchmark driver (perfbench/src/phases.cc) still builds the
  /// service this way.
  explicit MiningService(const IndexBuildOptions& /*index_options*/,
                         const ResultCacheOptions& cache_options = {})
      : MiningService(cache_options) {}

  MiningService(const MiningService&) = delete;
  MiningService& operator=(const MiningService&) = delete;
  ~MiningService();

  /// Opens (or creates) a durable service backed by `options.dir`: applies
  /// the checkpoint if one exists, replays the WAL tail, truncates a torn
  /// final record, and resumes logging at the end of the last segment.
  /// Status(kCorruption) — never a crash — on mid-log checksum mismatches,
  /// missing segments, checkpoint damage, or a record or checkpoint
  /// sequence that fails the append checks (e.g. a reserved event id). The
  /// result cache starts EMPTY after recovery regardless of pre-crash state
  /// (the cache is in-memory only, and the recover path clears it
  /// explicitly as a contract — DESIGN.md §12), so a stale pre-crash answer
  /// can never be served.
  static Result<std::unique_ptr<MiningService>> OpenDurable(
      const DurabilityOptions& options,
      const ResultCacheOptions& cache_options = {});

  // The mutation API is Append, AppendTo and Ingest. Events enter by NAME:
  // the service dictionary is the one authority over event ids (DESIGN.md
  // §8), so one event can never hold two ids nor two events one id.

  /// Appends a new sequence of event names; returns its id. Bad input
  /// (position-space exhaustion) and WAL failures come back as a Status —
  /// client data never fires an invariant check. A non-null `trace`
  /// receives the mutation's WAL log+sync span (obs::Stage::kWalSync).
  Result<SeqId> Append(const std::vector<std::string>& names,
                       obs::RequestTrace* trace = nullptr)
      GSGROW_EXCLUDES(mutex_);

  /// Appends events to the end of existing sequence `seq`. NotFound for an
  /// unknown id, OutOfRange when the sequence's position space would
  /// overflow — validated BEFORE anything is logged or mutated.
  Status AppendTo(SeqId seq, const std::vector<std::string>& names,
                  obs::RequestTrace* trace = nullptr)
      GSGROW_EXCLUDES(mutex_);

  /// Bulk ingestion of a parsed database into an EMPTY service — the one
  /// load path shared by mine_cli and serve_cli (--input preloading).
  /// Sequence and event ids are preserved. Every id the corpus uses gets a
  /// dictionary name: its own, or the "e<id>" it prints as (SPMF and
  /// generator corpora name no events), so a later append of "e5" is id 5.
  /// InvalidArgument when the service is not empty or a synthesized name
  /// is already another id's name; a sequence the append checks reject
  /// returns their Status, and the sequences before it stay loaded.
  Status Ingest(const SequenceDatabase& db) GSGROW_EXCLUDES(mutex_);

  /// Takes a consistent snapshot of the current corpus: O(delta) index
  /// freeze + view assembly after appends, and a cached-handle copy (O(1))
  /// when nothing changed since the last call — a query storm on a quiet
  /// corpus shares one assembled snapshot instead of re-copying the
  /// per-sequence/per-event pointer tables per query.
  std::shared_ptr<const ServiceSnapshot> Snapshot() GSGROW_EXCLUDES(mutex_);

  /// Executes one request against a fresh snapshot, consulting the result
  /// cache first (hit / clean re-stamp / dirty warm-started re-mine —
  /// serve/result_cache.h). Responses are identical to a cache-off service:
  /// pinned by the randomized differential in
  /// tests/serve/result_cache_test.cc. The two-argument form hands the
  /// snapshot back (formatting layers need its dictionary, and taking
  /// another would advance the epoch).
  /// A non-null `trace` receives the request's stage spans and DFS
  /// counters; the CALLER then owns finishing it (total_us) and handing it
  /// to RecordRequestTrace — the serve session does that after timing the
  /// serialize stage. With trace == nullptr the service traces the request
  /// itself and records it, so direct API callers (benches, tests,
  /// ExecuteBatch workers) land in the trace ring too.
  MineResponse Execute(const MineRequest& request);
  MineResponse Execute(const MineRequest& request,
                       std::shared_ptr<const ServiceSnapshot>* snapshot_out,
                       obs::RequestTrace* trace = nullptr);

  /// Executes one request against a caller-held snapshot (shared across
  /// queries). Pure: touches no service state — and therefore no cache —
  /// so any number may run concurrently on one snapshot.
  static MineResponse ExecuteOn(const ServiceSnapshot& snapshot,
                                const MineRequest& request);

  /// Executes every request against ONE shared snapshot. `num_threads` > 1
  /// dispenses requests across that many workers (each request then runs
  /// its miner single-threaded to avoid oversubscription); 0 means one
  /// worker per hardware thread. Responses are returned in request order
  /// and are identical at any worker count — each is a pure function of
  /// (snapshot, request).
  std::vector<MineResponse> ExecuteBatch(
      std::span<const MineRequest> requests, size_t num_threads = 1,
      std::shared_ptr<const ServiceSnapshot>* snapshot_out = nullptr);

  ServiceStats Stats() GSGROW_EXCLUDES(mutex_);

  /// Spills the current corpus as an epoch-aligned checkpoint, rotates to a
  /// fresh WAL segment, and deletes the covered log prefix. kInvalidArgument
  /// on a non-durable service. Crash-safe at every step: until the atomic
  /// checkpoint rename lands, recovery uses the previous checkpoint plus
  /// the full (still contiguous) segment run.
  Status Checkpoint() GSGROW_EXCLUDES(mutex_);

  bool durable() const { return durable_; }

  /// What OpenDurable found (zeroed for in-memory services).
  const RecoveryInfo& recovery_info() const { return recovery_; }

  /// The ring of recent request traces + slow-query log (obs/trace.h).
  /// serve_cli arms the slow-query threshold here (--slow_query_ms).
  obs::TraceRecorder& traces() { return traces_; }

  /// Finishes one request trace: records the process-wide request-latency
  /// metrics from trace.total_us (which the caller must have stamped) and
  /// appends the trace to the ring, applying the slow-query gate.
  void RecordRequestTrace(obs::RequestTrace trace);

 private:
  // The cached-execution path shared by Execute and the ExecuteBatch
  // workers: canonicalize → Lookup → on miss, mine outside every lock with
  // the warm-start hint → Insert-if-absent. Uncacheable requests (finite
  // time budget, collect_patterns off) bypass the cache entirely.
  MineResponse ExecuteCached(const ServiceSnapshot& snapshot,
                             const MineRequest& request,
                             obs::RequestTrace* trace)
      GSGROW_EXCLUDES(mutex_);

  // ExecuteOn wrapped in the kMine stage span (trace may be null).
  static MineResponse ExecuteMineStage(const ServiceSnapshot& snapshot,
                                       const MineRequest& request,
                                       obs::RequestTrace* trace);

  // Mutation plumbing (all called with mutex_ held — enforced by the
  // thread-safety analysis under the `thread-safety` preset).
  //
  // The one mutation primitive: kAddSequence adds sequence `seq`, which
  // must be the next id; kAppendTo extends existing sequence `seq`. It
  // checks the sequence id, the id and position spaces, the reserved event
  // id and that `fresh` holds the next dense ids under new names — a failed
  // check returns a Status and changes nothing. A non-null `log_us` logs
  // the mutation as one WAL record (durable services) and adds the log
  // time to it; replay and the checkpoint load pass null. Then it interns
  // `fresh` and feeds the store and the index the same ids.
  Status ApplyLocked(
      serve::LogRecordType type, SeqId seq, std::span<const EventId> ids,
      std::span<const std::pair<EventId, const std::string*>> fresh,
      uint64_t* log_us) GSGROW_REQUIRES(mutex_);
  // Append and AppendTo: resolve names → ApplyLocked → sync per policy,
  // recording the kWalSync span once.
  Status AppendLocked(serve::LogRecordType type, SeqId seq,
                      const std::vector<std::string>& names,
                      obs::RequestTrace* trace) GSGROW_REQUIRES(mutex_);
  Status LogWalRecordLocked(serve::LogRecordType type,
                            const std::string& payload)
      GSGROW_REQUIRES(mutex_);
  Status SyncWalLocked() GSGROW_REQUIRES(mutex_);
  Status MaybeSyncWalLocked(bool force) GSGROW_REQUIRES(mutex_);
  // Resolves names to ids without interning; new names get the ids they
  // WILL receive (first-use order) so they can be logged before the
  // dictionary mutates.
  void ResolveIdsLocked(
      const std::vector<std::string>& names, std::vector<EventId>* ids,
      std::vector<std::pair<EventId, const std::string*>>* fresh) const
      GSGROW_REQUIRES(mutex_);
  std::shared_ptr<const ServiceSnapshot> SnapshotLocked()
      GSGROW_REQUIRES(mutex_);
  // Applies one replayed WAL record; kCorruption when it contradicts the
  // state built so far, including every check ApplyLocked makes
  // (single-threaded, called only from OpenDurable, which holds the lock
  // over the whole recovery body).
  Status ReplayRecord(const serve::LogRecord& record) GSGROW_REQUIRES(mutex_);

  Mutex mutex_;  // serializes appends, snapshots, stats
  AppendableDatabase db_ GSGROW_GUARDED_BY(mutex_);
  IncrementalInvertedIndex index_ GSGROW_GUARDED_BY(mutex_);
  // Last assembled snapshot; reset by every mutation, so a Snapshot() call
  // with no intervening append is one shared_ptr copy.
  std::shared_ptr<const ServiceSnapshot> snapshot_cache_
      GSGROW_GUARDED_BY(mutex_);
  uint64_t appends_ GSGROW_GUARDED_BY(mutex_) = 0;
  std::atomic<uint64_t> queries_{0};  // lock-free; relaxed counter

  // Result cache (null = disabled). Internally synchronized by its own
  // annotated Mutex; lock order is mutex_ → cache mutex (OnEpochAdvance
  // runs under mutex_), and the cache never calls back into the service,
  // so the reverse edge cannot form. The pointer itself is set only at
  // construction and never reseated — lock-free to dereference.
  const std::unique_ptr<ResultCache> cache_;

  // Durability state. `durable_`, `dopts_`, and `recovery_` are written
  // only inside OpenDurable (before the service is shared) and immutable
  // afterwards, so their accessors read them lock-free; everything the
  // running service mutates is guarded.
  bool durable_ = false;
  DurabilityOptions dopts_;
  persist::WalWriter wal_ GSGROW_GUARDED_BY(mutex_);
  uint64_t wal_segment_ GSGROW_GUARDED_BY(mutex_) = 0;
  // Durability observability (ServiceStats): the first still-live segment,
  // bytes across live segments BEFORE the active one (the active segment's
  // size is wal_.offset()), and checkpoints taken by this incarnation.
  uint64_t wal_first_live_segment_ GSGROW_GUARDED_BY(mutex_) = 0;
  uint64_t wal_bytes_before_active_ GSGROW_GUARDED_BY(mutex_) = 0;
  uint64_t checkpoints_ GSGROW_GUARDED_BY(mutex_) = 0;
  size_t unsynced_appends_ GSGROW_GUARDED_BY(mutex_) = 0;
  // Sticky: once a WAL write or sync fails, every later mutation fails fast
  // with the original error instead of diverging memory from the log.
  Status wal_status_ GSGROW_GUARDED_BY(mutex_);
  RecoveryInfo recovery_;
  // Reused record-encoding buffer.
  std::string scratch_payload_ GSGROW_GUARDED_BY(mutex_);

  // Recent-request ring + slow-query log; internally synchronized.
  obs::TraceRecorder traces_;
};

}  // namespace gsgrow

#endif  // GSGROW_SERVE_MINING_SERVICE_H_
