#include "phases.h"

#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <sstream>
#include <utility>

#include "core/clogsgrow.h"
#include "core/inverted_index.h"
#include "core/reference.h"
#include "core/semantics_sink.h"
#include "io/request_io.h"
#include "io/text_format.h"
#include "serve/result_cache.h"
#include "serve/serve_session.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using gsgrow::MineRequest;
using gsgrow::MineResponse;
using gsgrow::MiningService;
using gsgrow::ServeCommand;
using gsgrow::ServiceSnapshot;

// A load takes a few milliseconds; setup_s is the median over every timed
// load of the run, and recover_s the median over every reopen.
constexpr int kLoadsPerBlock = 12;
constexpr int kReopens = 8;
constexpr size_t kReferenceSamples = 60;

gsgrow::DurabilityOptions Durability(const std::string& dir) {
  gsgrow::DurabilityOptions options;
  options.dir = dir;
  options.sync = gsgrow::DurabilityOptions::SyncMode::kGroupCommit;
  options.group_commit_appends = 32;  // the product default, stated
  return options;
}

double Ns(int64_t a, int64_t b) { return static_cast<double>(b - a); }

// Responses are kept as 64-bit digests, so the bytes the gates compare do
// not sit in memory and count toward peak RSS.
uint64_t Digest(const std::string& bytes) {
  return std::hash<std::string>{}(bytes) | 1;  // never 0, the "unset" mark
}

size_t CountLines(const std::string& text) {
  return static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
}

std::string RunLines(MiningService& service, const std::string& text,
                     int* errors) {
  std::istringstream in(text);
  std::ostringstream out;
  *errors = gsgrow::RunServeSession(service, in, out);
  return out.str();
}

// Value of `key=` in a stats line ("" when absent).
std::string Field(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  return line.substr(begin, line.find(' ', begin) - begin);
}

bool SameCounters(const gsgrow::MiningStats& a, const gsgrow::MiningStats& b) {
  return a.patterns_found == b.patterns_found &&
         a.nodes_visited == b.nodes_visited &&
         a.insgrow_calls == b.insgrow_calls &&
         a.next_queries == b.next_queries &&
         a.closure_checks == b.closure_checks &&
         a.closure_regrow_events == b.closure_regrow_events &&
         a.lb_pruned_subtrees == b.lb_pruned_subtrees &&
         a.nonclosed_suppressed == b.nonclosed_suppressed &&
         a.max_depth == b.max_depth && !a.truncated && !b.truncated;
}

// Attaches the service's own per-request stage durations as program-reported
// children of `parent`.
void AttachStages(Tracer& tracer, int32_t parent,
                  const gsgrow::obs::RequestTrace& trace) {
  static const char* const kNames[gsgrow::obs::kNumStages] = {
      "program.parse",    "program.canonicalize", "program.cache_probe",
      "program.snapshot", "program.mine",         "program.annotate",
      "program.serialize", "program.wal_sync"};
  int64_t offset = 0;
  for (size_t s = 0; s < gsgrow::obs::kNumStages; ++s) {
    if (trace.stage_us[s] == 0) continue;
    const int64_t ns = static_cast<int64_t>(trace.stage_us[s]) * 1000;
    tracer.AddReported(kNames[s], parent, offset, ns);
    offset += ns;
  }
}

double MedianNs(const std::map<std::string, std::vector<double>>& self,
                const std::string& name) {
  const auto it = self.find(name);
  return it == self.end() ? 0.0 : Median(it->second);
}

}  // namespace

// One exchange through the layers' public functions, with a span around
// each call. Produces the same bytes RunServeSession does for the verbs the
// script uses (the twin replay checks that).
class TracedServe {
 public:
  TracedServe(MiningService* service, Tracer* tracer)
      : service(service), tracer(tracer) {}

  MiningService* service;
  Tracer* tracer;
  // Samples by outcome, for the per-layer metrics.
  std::vector<double> hit_ns, miss_ns, cold_ns, canonicalize_ns;
  std::vector<double> response_bytes;
  double annotate_ns = 0, annotated_patterns = 0;
  uint64_t annotate_checksum = 0;

  std::string Query(const ServeCommand& command, bool semantics,
                    int* errors) {
    gsgrow::obs::RequestTrace trace;
    std::shared_ptr<const ServiceSnapshot> snapshot;
    MineResponse response;
    double execute_ns = 0;
    {
      Tracer::Scope span = tracer->Open("serve.execute");
      response = service->Execute(command.request, &snapshot, &trace);
      span.Close();
      execute_ns = tracer->DurationNs(span.index());
      AttachStages(*tracer, span.index(), trace);
    }
    std::string text;
    {
      Tracer::Scope span = tracer->Open("io.format");
      text = gsgrow::FormatMineResponse(response, snapshot->db->dictionary(),
                                        command.limit);
    }
    {
      Tracer::Scope span = tracer->Open("obs.record_trace");
      trace.total_us = static_cast<uint64_t>(execute_ns / 1000);
      const bool hit = trace.cache_hit;
      service->RecordRequestTrace(std::move(trace));
      (hit ? hit_ns : miss_ns).push_back(execute_ns);
      if (!hit) pending_cold_.push_back({command.request, snapshot});
      if (!hit && semantics) {
        pending_annotate_.push_back(
            {snapshot, command.request.options.semantics, response.patterns});
      }
    }
    response_bytes.push_back(static_cast<double>(text.size()));
    pending_keys_.push_back(command.request);
    if (!response.status.ok()) ++*errors;
    return text;
  }

  // Runs one exchange (one or more lines) inside a request span.
  std::string Exchange(const std::string& lines, bool semantics,
                       int* errors) {
    tracer->BeginRequest();
    Tracer::Scope request = tracer->Open("exchange");
    std::string out;
    std::istringstream in(lines);
    std::string line;
    bool batching = false;
    std::vector<MineRequest> batch;
    std::vector<size_t> limits;
    while (std::getline(in, line)) {
      gsgrow::Result<ServeCommand> parsed = [&] {
        Tracer::Scope span = tracer->Open("io.parse_line");
        return gsgrow::ParseServeCommand(line);
      }();
      if (!parsed.ok()) {
        out += "error " + parsed.status().ToString() + "\n";
        ++*errors;
        continue;
      }
      ServeCommand& command = *parsed;
      switch (command.verb) {
        case ServeCommand::Verb::kAppend: {
          gsgrow::Result<gsgrow::SeqId> seq = [&] {
            Tracer::Scope span = tracer->Open("serve.append");
            return service->Append(command.events);
          }();
          Tracer::Scope span = tracer->Open("io.format");
          if (!seq.ok()) {
            out += "error " + seq.status().ToString() + "\n";
            ++*errors;
          } else {
            out += "ok seq=" + std::to_string(*seq) +
                   " len=" + std::to_string(command.events.size()) + "\n";
          }
          break;
        }
        case ServeCommand::Verb::kExtend: {
          gsgrow::Status st = [&] {
            Tracer::Scope span = tracer->Open("serve.append");
            return service->AppendTo(command.seq, command.events);
          }();
          Tracer::Scope span = tracer->Open("io.format");
          if (!st.ok()) {
            out += "error " + st.ToString() + "\n";
            ++*errors;
          } else {
            out += "ok seq=" + std::to_string(command.seq) +
                   " appended=" + std::to_string(command.events.size()) +
                   "\n";
          }
          break;
        }
        case ServeCommand::Verb::kMine:
        case ServeCommand::Verb::kTopK:
          if (!batching) {
            out += Query(command, semantics, errors);
          } else {
            out += "queued " + std::to_string(batch.size()) + "\n";
            batch.push_back(std::move(command.request));
            limits.push_back(command.limit);
          }
          break;
        case ServeCommand::Verb::kBatch:
          batching = true;
          out += "batch start\n";
          break;
        case ServeCommand::Verb::kRun: {
          std::shared_ptr<const ServiceSnapshot> snapshot;
          std::vector<MineResponse> responses;
          {
            Tracer::Scope span = tracer->Open("serve.batch");
            responses = service->ExecuteBatch(batch, command.run_threads,
                                              &snapshot);
          }
          Tracer::Scope span = tracer->Open("io.format");
          out += "batch results=" + std::to_string(responses.size()) + "\n";
          for (size_t i = 0; i < responses.size(); ++i) {
            out += "request " + std::to_string(i) + "\n" +
                   gsgrow::FormatMineResponse(
                       responses[i], snapshot->db->dictionary(), limits[i]);
            if (!responses[i].status.ok()) ++*errors;
          }
          batching = false;
          break;
        }
        case ServeCommand::Verb::kCheckpoint: {
          gsgrow::Status st = [&] {
            Tracer::Scope span = tracer->Open("serve.checkpoint");
            return service->Checkpoint();
          }();
          Tracer::Scope span = tracer->Open("io.format");
          if (!st.ok()) {
            out += "error " + st.ToString() + "\n";
            ++*errors;
          } else {
            out += "ok checkpoint epoch=" +
                   std::to_string(service->Stats().epoch) + "\n";
          }
          break;
        }
        default:
          out += "error unexpected verb in benchmark script\n";
          ++*errors;
      }
    }
    return out;
  }

  // Work timed outside the request spans, after the exchange: the cold
  // re-mine of each miss on the same snapshot, the annotation layer on
  // fresh semantics results, and request canonicalization.
  void AfterExchange() {
    for (const auto& [request, snapshot] : pending_cold_) {
      Tracer::Scope span = tracer->Open("core.mine_cold");
      const MineResponse cold = MiningService::ExecuteOn(*snapshot, request);
      span.Close();
      cold_ns.push_back(tracer->DurationNs(span.index()));
    }
    for (const Annotation& a : pending_annotate_) {
      gsgrow::TableIAnnotator annotator(a.snapshot->index, a.semantics);
      Tracer::Scope span = tracer->Open("core.annotate");
      for (const gsgrow::PatternRecord& p : a.patterns) {
        annotate_checksum += annotator.AnnotatePattern(p.pattern).values.size();
      }
      span.Close();
      annotate_ns += tracer->DurationNs(span.index());
      annotated_patterns += static_cast<double>(a.patterns.size());
    }
    for (const MineRequest& request : pending_keys_) {
      Tracer::Scope span = tracer->Open("io.canonicalize");
      const gsgrow::ResultCacheKey key = gsgrow::CanonicalRequestKey(request);
      span.Close();
      canonicalize_ns.push_back(tracer->DurationNs(span.index()));
    }
    pending_cold_.clear();
    pending_annotate_.clear();
    pending_keys_.clear();
  }

 private:
  std::vector<std::pair<MineRequest, std::shared_ptr<const ServiceSnapshot>>>
      pending_cold_;
  struct Annotation {
    std::shared_ptr<const ServiceSnapshot> snapshot;
    gsgrow::SemanticsOptions semantics;
    std::vector<gsgrow::PatternRecord> patterns;
  };
  std::vector<Annotation> pending_annotate_;
  std::vector<MineRequest> pending_keys_;
};

// One batch corpus: its cache-off service, the digest of its first answer,
// and the timings of every round.
struct Bench::Corpus {
  gsgrow::SequenceDatabase db;
  std::unique_ptr<MiningService> service;
  std::unique_ptr<gsgrow::InvertedIndex> index;  // fresh, traced run only
  uint64_t digest = 0;  // of the first 1-worker response
  gsgrow::MiningStats stats;
  std::vector<double> t1_ns, t2_ns, overhead_ns, format_ns, direct1_ns,
      direct2_ns;
};

Bench::Bench(const Inputs& inputs, std::string workdir, Tracer* tracer)
    : in_(inputs),
      workdir_(std::move(workdir)),
      tracer_(*tracer),
      traced_(std::make_unique<TracedServe>(nullptr, tracer)),
      responses_(inputs.sessions.size()) {}

Bench::~Bench() = default;

void Bench::Slice(size_t k) {
  // Memory the allocator kept from earlier slices goes back first, so the
  // slice's peak counts what its own work holds, not the fragmentation of
  // the run so far.
  malloc_trim(0);
  if (!ResetPeakRss() && k == 0) {
    std::printf("warning: could not reset VmHWM\n");
  }
  SetupBlock(k);
  MineCorpus(k % in_.batch_corpora.size());
  ServePass(k);
  peak_rss_mb_.push_back(PeakRssMb());
}

void Bench::SetupBlock(size_t slice) {
  const std::string& base = in_.sessions[slice % in_.sessions.size()].base;
  // The first load of a block is untimed: it refills the allocator after
  // the batch and session work that ran before it.
  for (int l = 0; l <= kLoadsPerBlock; ++l) {
    ++outcome.attempted;
    tracer_.BeginRequest();
    Tracer::Scope load = tracer_.Open("setup.load");
    const int64_t t0 = NowNs();
    gsgrow::Result<gsgrow::SequenceDatabase> db = [&] {
      Tracer::Scope span = tracer_.Open("io.parse_corpus");
      return gsgrow::ParseTextDatabase(base);
    }();
    MiningService service;
    const bool ok = db.ok() && [&] {
      Tracer::Scope span = tracer_.Open("serve.ingest");
      return service.Ingest(*db).ok();
    }();
    {
      Tracer::Scope span = tracer_.Open("serve.snapshot_first");
      service.Snapshot();
    }
    if (l > 0) load_ns_.push_back(Ns(t0, NowNs()));
    if (!ok) {
      ++outcome.failed;
      outcome.Gate(false, "setup: corpus load failed");
    }
  }
}

void Bench::MineCorpus(size_t i) {
  if (corpora_.empty()) {
    for (const std::string& text : in_.batch_corpora) {
      auto c = std::make_unique<Corpus>();
      gsgrow::Result<gsgrow::SequenceDatabase> db =
          gsgrow::ParseTextDatabase(text);
      // Cache off: every request mines.
      c->service = std::make_unique<MiningService>(
          gsgrow::IndexBuildOptions{},
          gsgrow::ResultCacheOptions{.max_bytes = 0});
      if (!db.ok() || !c->service->Ingest(*db).ok()) {
        outcome.Gate(false, "batch: corpus load failed");
        return;
      }
      c->db = std::move(*db);
      c->service->Snapshot();
      corpora_.push_back(std::move(c));
    }
  }
  if (i >= corpora_.size()) return;
  Corpus& c = *corpora_[i];
  const bool first = c.digest == 0;
  MineRequest request;
  request.miner = MineRequest::Miner::kClosed;
  request.options.min_support = in_.batch_min_sup;
  for (int w = 0; w < 2; ++w) {
    request.options.num_threads = w == 0 ? 1 : 2;
    ++outcome.attempted;
    tracer_.BeginRequest();
    Tracer::Scope root = tracer_.Open(w == 0 ? "batch.mine" : "batch.mine_2t");
    const int64_t t0 = NowNs();
    gsgrow::obs::RequestTrace trace;
    std::shared_ptr<const ServiceSnapshot> snapshot;
    Tracer::Scope exec = tracer_.Open("serve.execute_batch");
    const MineResponse response = c.service->Execute(
        request, &snapshot, tracer_.enabled() ? &trace : nullptr);
    exec.Close();
    Tracer::Scope fmt = tracer_.Open("io.format_result");
    const std::string text = gsgrow::FormatMineResponse(
        response, snapshot->db->dictionary(), static_cast<size_t>(-1));
    fmt.Close();
    (w == 0 ? c.t1_ns : c.t2_ns).push_back(Ns(t0, NowNs()));
    root.Close();
    if (tracer_.enabled()) {
      if (w == 0) {
        // The service wrapper: Execute minus the engine run it reports.
        const uint64_t mine_us =
            trace.stage_us[static_cast<size_t>(gsgrow::obs::Stage::kMine)];
        c.overhead_ns.push_back(tracer_.DurationNs(exec.index()) -
                                static_cast<double>(mine_us) * 1e3);
        c.format_ns.push_back(tracer_.DurationNs(fmt.index()));
      }
      AttachStages(tracer_, exec.index(), trace);
      c.service->RecordRequestTrace(std::move(trace));
    }
    if (!response.status.ok()) {
      ++outcome.failed;
      outcome.Gate(false,
                   "batch: request failed: " + response.status.ToString());
      return;
    }
    if (c.digest == 0) {
      c.digest = Digest(text);
      c.stats = response.stats;
    }
    outcome.Gate(Digest(text) == c.digest,
                 "batch: responses differ between workers or rounds");
    outcome.Gate(SameCounters(response.stats, c.stats),
                 "batch: counters differ between workers or rounds");
  }
  if (first) CheckCorpus(c);
  if (!tracer_.enabled()) return;
  gsgrow::MinerOptions options;
  options.min_support = in_.batch_min_sup;
  for (int w = 0; w < 2; ++w) {
    options.num_threads = w == 0 ? 1 : 2;
    const int64_t m0 = NowNs();
    const gsgrow::MiningResult direct = [&] {
      Tracer::Scope span = tracer_.Open(w == 0 ? "core.mine" : "core.mine_2t");
      return gsgrow::MineClosedFrequent(*c.index, options);
    }();
    (w == 0 ? c.direct1_ns : c.direct2_ns).push_back(Ns(m0, NowNs()));
    outcome.Gate(SameCounters(direct.stats, c.stats),
                 "batch: direct counters differ between workers");
  }
}

// Untimed batch gates, once per corpus: the direct engine on a freshly
// built index gives the same bytes and counters as Execute, and sampled
// supports equal ReferenceSupport. The traced run also times the index
// build and a walk of every posting list, and keeps the index for the
// direct timings of later rounds.
void Bench::CheckCorpus(Corpus& c) {
  Tracer::Scope build_span = tracer_.Open("core.index_build");
  auto index = std::make_unique<gsgrow::InvertedIndex>(c.db);
  build_span.Close();
  gsgrow::MinerOptions options;
  options.min_support = in_.batch_min_sup;
  options.num_threads = 2;  // bytes are identical at any worker count
  gsgrow::MiningResult direct = gsgrow::MineClosedFrequent(*index, options);
  MineResponse as_response;
  as_response.patterns = std::move(direct.patterns);
  as_response.stats = direct.stats;
  as_response.epoch = c.service->Stats().epoch;
  outcome.Gate(Digest(gsgrow::FormatMineResponse(
                   as_response, c.db.dictionary(), static_cast<size_t>(-1))) ==
                   c.digest,
               "batch: Execute bytes differ from direct MineClosedFrequent");
  outcome.Gate(SameCounters(direct.stats, c.stats),
               "batch: counters differ between Execute and direct");

  const size_t k = corpora_.size();
  gsgrow::Rng rng(in_.seed * 7919 + supports_checked_);
  const size_t want = (kReferenceSamples + k - 1) / k;
  for (size_t i = 0; i < want && !as_response.patterns.empty(); ++i) {
    const gsgrow::PatternRecord& p =
        as_response.patterns[rng.UniformInt(as_response.patterns.size())];
    ++supports_checked_;
    outcome.Gate(gsgrow::ReferenceSupport(c.db, p.pattern) == p.support,
                 "batch: support differs from ReferenceSupport");
  }

  const gsgrow::MiningStats& st = c.stats;
  sum_.patterns_found += st.patterns_found;
  sum_.nodes_visited += st.nodes_visited;
  sum_.insgrow_calls += st.insgrow_calls;
  sum_.next_queries += st.next_queries;
  sum_.closure_checks += st.closure_checks;
  sum_.closure_regrow_events += st.closure_regrow_events;
  sum_.lb_pruned_subtrees += st.lb_pruned_subtrees;
  sum_.nonclosed_suppressed += st.nonclosed_suppressed;
  sum_.max_depth = std::max(sum_.max_depth, st.max_depth);

  if (!tracer_.enabled()) return;
  // Posting decode: every position list walked through PositionCursor.
  Tracer::Scope span = tracer_.Open("core.decode");
  const int64_t d0 = NowNs();
  uint64_t walked = 0, checksum = 0;
  for (gsgrow::SeqId s = 0; s < index->num_sequences(); ++s) {
    for (const gsgrow::EventId e : index->EventsInSequence(s)) {
      gsgrow::PositionCursor cursor = index->Cursor(s, e);
      for (gsgrow::Position p = cursor.NextAtOrAfter(0);
           p != gsgrow::kNoPosition; p = cursor.NextAtOrAfter(p + 1)) {
        checksum += p;
        ++walked;
      }
    }
  }
  decode_ns_ += Ns(d0, NowNs());
  span.Close();
  uint64_t length = 0;
  for (gsgrow::SeqId s = 0; s < index->num_sequences(); ++s) {
    length += index->SequenceLength(s);
  }
  outcome.Gate(walked == length && checksum > 0,
               "batch: decode walk missed positions");
  positions_ += static_cast<double>(walked);
  index_bytes_ += static_cast<double>(index->MemoryUsage());
  c.index = std::move(index);
}

void Bench::ServePass(size_t slice) {
  const size_t sid = slice % in_.sessions.size();
  const Session& session = in_.sessions[sid];
  std::vector<uint64_t>& first_responses = responses_[sid];
  const bool first = first_responses.empty();
  const std::string dir = workdir_ + "/pass" + std::to_string(slice);
  std::filesystem::remove_all(dir);
  ++outcome.attempted;
  tracer_.BeginRequest();
  Tracer::Scope bulk = tracer_.Open("persist.bulk_load");
  const int64_t t0 = NowNs();
  gsgrow::Result<gsgrow::SequenceDatabase> db =
      gsgrow::ParseTextDatabase(session.base);
  gsgrow::Result<std::unique_ptr<MiningService>> opened =
      MiningService::OpenDurable(Durability(dir));
  if (!db.ok() || !opened.ok() || !(*opened)->Ingest(*db).ok()) {
    ++outcome.failed;
    outcome.Gate(false, "serve: durable bulk load failed");
    return;
  }
  std::unique_ptr<MiningService> service = std::move(*opened);
  service->Snapshot();
  bulk_load_ns_.push_back(Ns(t0, NowNs()));
  bulk.Close();
  traced_->service = service.get();

  const gsgrow::ServiceStats before = service->Stats();
  gsgrow::ServiceStats burst_start = before;
  bool in_burst = false;
  size_t mismatches = 0;
  std::vector<double> query_ns, append_ns;
  double session_ns = 0;
  size_t lines = 0;
  for (size_t i = 0; i < session.script.size(); ++i) {
    const Exchange& ex = session.script[i];
    if (tracer_.enabled()) {
      // Burst boundaries: WAL bytes per appended event, and the first
      // snapshot after a burst timed on its own.
      const bool append = ex.kind == Exchange::Kind::kAppend;
      if (append && !in_burst) burst_start = service->Stats();
      if (!append && in_burst) {
        const gsgrow::ServiceStats now = service->Stats();
        wal_bytes_ += static_cast<double>(now.wal_live_bytes -
                                          burst_start.wal_live_bytes);
        wal_events_ += static_cast<double>(now.total_events -
                                           burst_start.total_events);
        Tracer::Scope span = tracer_.Open("serve.snapshot");
        service->Snapshot();
      }
      in_burst = append;
    }
    int errors = 0;
    const int64_t e0 = NowNs();
    std::string out = tracer_.enabled()
                          ? traced_->Exchange(ex.text, ex.semantics, &errors)
                          : RunLines(*service, ex.text, &errors);
    const double ns = Ns(e0, NowNs());
    if (tracer_.enabled()) traced_->AfterExchange();
    session_ns += ns;
    const size_t n = CountLines(ex.text);
    lines += n;
    outcome.attempted += n;
    outcome.failed += static_cast<uint64_t>(errors);
    if (ex.kind == Exchange::Kind::kQuery) query_ns.push_back(ns);
    if (ex.kind == Exchange::Kind::kAppend) append_ns.push_back(ns);
    if (first) {
      first_responses.push_back(Digest(out));
    } else if (Digest(out) != first_responses[i] && mismatches++ < 3) {
      std::printf("pass %zu differs at exchange %zu: %s", slice, i,
                  ex.text.c_str());
    }
  }
  outcome.Gate(mismatches == 0,
               "serve: a repeated session answered differently");
  outcome.Gate(PercentileSupported(query_ns.size(), 0.99) &&
                   PercentileSupported(append_ns.size(), 0.99),
               "serve: a pass has fewer than 10 samples beyond p99");
  query_p50_ns_.push_back(Percentile(query_ns, 0.5));
  query_p99_ns_.push_back(Percentile(query_ns, 0.99));
  append_p50_ns_.push_back(Percentile(append_ns, 0.5));
  append_p99_ns_.push_back(Percentile(append_ns, 0.99));
  lines_per_s_.push_back(static_cast<double>(lines) / (session_ns / 1e9));
  query_samples_ += query_ns.size();
  append_samples_ += append_ns.size();
  lines_ += lines;
  const gsgrow::ServiceStats after = service->Stats();
  cache_hits_ += after.cache_hits - before.cache_hits;
  cache_misses_ += after.cache_misses - before.cache_misses;
  cache_revalidated_ += after.cache_revalidated - before.cache_revalidated;
  cache_evicted_ += after.cache_evicted - before.cache_evicted;

  // Destroy and reopen, several times; the reopened service must hold the
  // same corpus and answer a dashboard query with the same bytes.
  const std::string stats_before = gsgrow::FormatServiceStats(after);
  int errors = 0;
  const std::string probe_before =
      RunLines(*service, session.probe_query, &errors);
  outcome.attempted += 1;
  outcome.failed += static_cast<uint64_t>(errors);
  for (int r = 0; r < kReopens; ++r) {
    service.reset();
    outcome.attempted += 1;
    tracer_.BeginRequest();
    Tracer::Scope span = tracer_.Open("persist.recover");
    const int64_t r0 = NowNs();
    gsgrow::Result<std::unique_ptr<MiningService>> reopened =
        MiningService::OpenDurable(Durability(dir));
    reopen_ns_.push_back(Ns(r0, NowNs()));
    span.Close();
    if (!reopened.ok()) {
      ++outcome.failed;
      outcome.Gate(false,
                   "serve: reopen failed: " + reopened.status().ToString());
      return;
    }
    service = std::move(*reopened);
  }
  const gsgrow::ServiceStats recovered = service->Stats();
  const std::string stats_after = gsgrow::FormatServiceStats(recovered);
  for (const char* key : {"sequences", "alphabet", "events", "epoch"}) {
    outcome.Gate(Field(stats_before, key) == Field(stats_after, key),
                 std::string("serve: stats ") + key + " differs after reopen");
  }
  const std::string probe_after =
      RunLines(*service, session.probe_query, &errors);
  outcome.attempted += 1;
  outcome.failed += static_cast<uint64_t>(errors);
  outcome.Gate(probe_before == probe_after,
               "serve: probe query differs after reopen");
  replay_records_ = service->recovery_info().wal_replay_records;
  wal_segments_ = recovered.wal_segments;
  traced_->service = nullptr;
  service.reset();
  std::filesystem::remove_all(dir);
  ++passes_;
}

void Bench::Finish() {
  double mine1 = 0, mine2 = 0;
  for (const std::unique_ptr<Corpus>& c : corpora_) {
    mine1 += Median(c->t1_ns) / static_cast<double>(corpora_.size());
    mine2 += Median(c->t2_ns) / static_cast<double>(corpora_.size());
  }
  e2e.Set("setup_s", Median(load_ns_) / 1e9, "s");
  e2e.Set("mine_s", mine1 / 1e9, "s");
  e2e.Set("mine_2t_s", mine2 / 1e9, "s");
  e2e.Set("peak_rss_mb", Median(peak_rss_mb_), "MB");
  e2e.Set("query_p50_ms", Median(query_p50_ns_) / 1e6, "ms");
  e2e.Set("query_p99_ms", Median(query_p99_ns_) / 1e6, "ms");
  e2e.Set("append_p50_us", Median(append_p50_ns_) / 1e3, "us");
  e2e.Set("requests_per_s", Median(lines_per_s_), "lines/s");
  e2e.Set("recover_s", Median(reopen_ns_) / 1e9, "s");
  std::printf(
      "samples: loads=%zu corpora=%zu mine_rounds=%zu passes=%zu query=%zu "
      "append=%zu reopen=%zu lines=%zu supports_checked=%llu\n",
      load_ns_.size(), corpora_.size(),
      corpora_.empty() ? size_t{0} : corpora_[0]->t1_ns.size(), passes_,
      query_samples_, append_samples_, reopen_ns_.size(), lines_,
      static_cast<unsigned long long>(supports_checked_));
  outcome.Gate(supports_checked_ >= 50,
               "batch: fewer than 50 supports checked");

  // Untimed verification: replay each session's lines into an in-memory,
  // cache-off twin; every response must match byte for byte. The twin is
  // pure between mutations, so one cold answer per (corpus state, line) is
  // all the comparison needs.
  for (size_t sid = 0; sid < in_.sessions.size(); ++sid) {
    const Session& session = in_.sessions[sid];
    const std::vector<uint64_t>& responses = responses_[sid];
    if (sid < passes_) {
      outcome.Gate(responses.size() == session.script.size(),
                   "serve: session did not run every exchange");
    }
    if (responses.empty()) continue;
    MiningService twin(gsgrow::IndexBuildOptions{},
                       gsgrow::ResultCacheOptions{.max_bytes = 0});
    gsgrow::Result<gsgrow::SequenceDatabase> db =
        gsgrow::ParseTextDatabase(session.base);
    outcome.Gate(db.ok() && twin.Ingest(*db).ok(), "twin: load failed");
    twin.Snapshot();
    std::map<std::pair<size_t, std::string>, uint64_t> cold;
    size_t mutations = 0, mismatches = 0;
    for (size_t i = 0; i < responses.size(); ++i) {
      const Exchange& ex = session.script[i];
      if (ex.kind == Exchange::Kind::kCheckpoint) continue;
      if (ex.kind == Exchange::Kind::kAppend) ++mutations;
      auto [it, fresh] = cold.try_emplace({mutations, ex.text});
      int twin_errors = 0;
      if (fresh) it->second = Digest(RunLines(twin, ex.text, &twin_errors));
      if (it->second != responses[i] && mismatches++ < 3) {
        std::printf("twin mismatch in session %zu at exchange %zu: %s", sid,
                    i, ex.text.c_str());
      }
    }
    outcome.Gate(mismatches == 0,
                 "twin: responses differ from the cache-off in-memory replay");
  }

  if (!tracer_.enabled()) return;
  const auto self = tracer_.SelfTimesNs();
  const double n = static_cast<double>(corpora_.size());
  double direct1 = 0, direct2 = 0, overhead = 0, format = 0;
  for (const std::unique_ptr<Corpus>& c : corpora_) {
    direct1 += Median(c->direct1_ns) / n;
    direct2 += Median(c->direct2_ns) / n;
    overhead += Median(c->overhead_ns) / n;
    format += Median(c->format_ns) / n;
  }
  Metrics& m = layer;
  m.Set("io.parse_corpus_s", MedianNs(self, "io.parse_corpus") / 1e9, "s");
  m.Set("serve.ingest_s", MedianNs(self, "serve.ingest") / 1e9, "s");
  m.Set("persist.bulk_load_s", Median(bulk_load_ns_) / 1e9, "s");
  m.Set("core.index_build_s", MedianNs(self, "core.index_build") / 1e9, "s");
  m.Set("core.index_bytes", index_bytes_ / n, "bytes");
  m.Set("core.index_bytes_per_position", index_bytes_ / positions_, "bytes");
  m.Set("core.decode_ns_per_position", decode_ns_ / positions_, "ns");
  m.Set("core.mine_s", direct1 / 1e9, "s");
  m.Set("core.mine_2t_s", direct2 / 1e9, "s");
  m.Set("core.speedup_2t", direct1 / direct2, "ratio");
  m.Set("core.patterns", sum_.patterns_found / n, "count");
  m.Set("core.nodes_visited", sum_.nodes_visited / n, "count");
  m.Set("core.closed_share",
        static_cast<double>(sum_.patterns_found) / sum_.nodes_visited,
        "ratio");
  m.Set("core.insgrow_calls", sum_.insgrow_calls / n, "count");
  m.Set("core.next_queries", sum_.next_queries / n, "count");
  m.Set("core.next_queries_per_node",
        static_cast<double>(sum_.next_queries) / sum_.nodes_visited, "count");
  m.Set("core.ns_per_next_query",
        direct1 * n / static_cast<double>(sum_.next_queries), "ns");
  m.Set("core.closure_checks", sum_.closure_checks / n, "count");
  m.Set("core.closure_regrow_events", sum_.closure_regrow_events / n,
        "count");
  m.Set("core.lb_pruned_subtrees", sum_.lb_pruned_subtrees / n, "count");
  m.Set("core.nonclosed_suppressed", sum_.nonclosed_suppressed / n, "count");
  m.Set("core.max_depth", static_cast<double>(sum_.max_depth), "count");
  m.Set("io.format_s", format / 1e9, "s");
  m.Set("serve.execute_overhead_s", overhead / 1e9, "s");

  m.Set("io.parse_line_us", MedianNs(self, "io.parse_line") / 1e3, "us");
  const TracedServe& ts = *traced_;
  m.Set("io.canonicalize_us", Median(ts.canonicalize_ns) / 1e3, "us");
  m.Set("io.format_us", MedianNs(self, "io.format") / 1e3, "us");
  m.Set("io.response_bytes", Mean(ts.response_bytes), "bytes");
  m.Set("serve.execute_hit_us", Median(ts.hit_ns) / 1e3, "us");
  m.Set("serve.execute_miss_ms", Median(ts.miss_ns) / 1e6, "ms");
  m.Set("serve.cache_hit_share",
        static_cast<double>(cache_hits_) /
            static_cast<double>(cache_hits_ + cache_misses_),
        "ratio");
  m.Set("serve.cache_revalidated", static_cast<double>(cache_revalidated_),
        "count");
  m.Set("serve.cache_evicted", static_cast<double>(cache_evicted_), "count");
  m.Set("core.mine_cold_ms", Median(ts.cold_ns) / 1e6, "ms");
  m.Set("core.annotate_us_per_pattern",
        ts.annotated_patterns > 0
            ? ts.annotate_ns / ts.annotated_patterns / 1e3
            : 0.0,
        "us");
  m.Set("serve.snapshot_us", MedianNs(self, "serve.snapshot") / 1e3, "us");
  m.Set("serve.batch_ms", MedianNs(self, "serve.batch") / 1e6, "ms");
  m.Set("serve.append_us", MedianNs(self, "serve.append") / 1e3, "us");
  // The group-commit fsync. On a shared disk its latency drifts several-fold
  // within minutes, so it is a layer figure here, not a bounded one.
  m.Set("persist.append_p99_us", Median(append_p99_ns_) / 1e3, "us");
  m.Set("persist.wal_bytes_per_event",
        wal_events_ > 0 ? wal_bytes_ / wal_events_ : 0.0, "bytes");
  m.Set("serve.checkpoint_ms", MedianNs(self, "serve.checkpoint") / 1e6,
        "ms");
  m.Set("persist.replay_records", static_cast<double>(replay_records_),
        "count");
  m.Set("persist.wal_segments", static_cast<double>(wal_segments_), "count");
  // Share of exchange time not covered by a timed child span.
  double total = 0, unattributed = 0;
  for (const double d : tracer_.DurationsNs("exchange")) total += d;
  for (const double d : self.at("exchange")) unattributed += d;
  m.Set("trace.exchange_unattributed_share", unattributed / total, "ratio");
}

}  // namespace perfbench
