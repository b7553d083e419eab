// Serving front-end: a long-lived mining service over stdin/stdout.
//
//   serve_cli [--input=db.txt] [--format=text|spmf]
//             [--durable_dir=DIR] [--sync=none|batch|always]
//             [--group_commit=N] [--cache_mb=N] [--cache=on|off]
//             [--slow_query_ms=N]
//
// Speaks the line-delimited protocol of io/request_io.h (append / extend /
// mine / topk / batch / run / stats / checkpoint / recover / quit);
// --input preloads a database through the same MiningService::Ingest path
// mine_cli uses, after which the corpus keeps growing via append/extend
// without ever re-indexing from scratch. Pipe a script in to replay a
// session (the CI serve-smoke step diffs exactly that against a golden
// transcript), or wrap a socket around it later — the protocol is plain
// lines in both directions.
//
// --cache_mb sizes the epoch-aware result cache (serve/result_cache.h;
// default 64 MB); --cache=off (or --cache_mb=0) disables it, so a session
// can be replayed with and without caching to compare transcripts — they
// must match byte-for-byte apart from the stats counters.
//
// --slow_query_ms=N enables the slow-query log (DESIGN.md §13): any request
// whose total latency reaches N milliseconds prints one trace line — stage
// breakdown plus DFS counters — to stderr, never the protocol stream, so
// golden transcripts stay byte-identical. N=0 logs every request, which is
// how the CI metrics-smoke step exercises the path deterministically.
//
// --durable_dir opens the service durably (DESIGN.md §10): mutations are
// write-ahead logged to DIR, `checkpoint` spills an epoch-aligned snapshot,
// and reopening the same DIR recovers the corpus (checkpoint + log-tail
// replay) before the session starts. --input on a non-empty store is
// rejected (Ingest requires an empty service).
//
// Exit status: 0 for a clean session, 1 when any command answered with an
// error; startup failures exit with ExitCodeForStatus — 2 invalid
// arguments, 3 missing file, 4 I/O error, 5 corrupt store.

#include <cstdio>
#include <iostream>
#include <string>

#include "io/spmf_format.h"
#include "io/text_format.h"
#include "serve/mining_service.h"
#include "serve/serve_session.h"
#include "util/flags.h"

using namespace gsgrow;

namespace {

int StartupFailure(const char* what, const std::string& detail,
                   const Status& status) {
  std::fprintf(stderr, "serve_cli: %s %s: %s\n", what, detail.c_str(),
               status.ToString().c_str());
  return ExitCodeForStatus(status.code());
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  // Numeric flags are read up front so an unparsable value fails the start
  // instead of silently running with the default.
  const int64_t cache_mb = flags.GetInt("cache_mb", 64);
  const int64_t group = flags.GetInt("group_commit", 32);
  const int64_t slow_query_ms = flags.GetInt("slow_query_ms", -1);
  if (Status parsed = flags.CheckParsed(); !parsed.ok()) {
    std::fprintf(stderr, "serve_cli: %s\n", parsed.ToString().c_str());
    return ExitCodeForStatus(parsed.code());
  }

  const std::string cache = flags.GetString("cache", "on");
  if (cache != "on" && cache != "off") {
    return StartupFailure("bad flag", "--cache=" + cache,
                          Status::InvalidArgument("expected on|off"));
  }
  if (cache_mb < 0) {
    return StartupFailure("bad flag", "--cache_mb=" + std::to_string(cache_mb),
                          Status::InvalidArgument("expected N >= 0"));
  }
  ResultCacheOptions cache_options;
  cache_options.max_bytes =
      cache == "off" ? 0 : static_cast<size_t>(cache_mb) << 20;

  std::unique_ptr<MiningService> durable_service;
  MiningService memory_service{cache_options};
  MiningService* service = &memory_service;

  const std::string durable_dir = flags.GetString("durable_dir", "");
  if (!durable_dir.empty()) {
    DurabilityOptions options;
    options.dir = durable_dir;
    const std::string sync = flags.GetString("sync", "batch");
    if (sync == "none") {
      options.sync = DurabilityOptions::SyncMode::kNone;
    } else if (sync == "batch") {
      options.sync = DurabilityOptions::SyncMode::kGroupCommit;
    } else if (sync == "always") {
      options.sync = DurabilityOptions::SyncMode::kEveryAppend;
    } else {
      return StartupFailure(
          "bad flag", "--sync=" + sync,
          Status::InvalidArgument("expected none|batch|always"));
    }
    if (group < 1) {
      return StartupFailure("bad flag",
                            "--group_commit=" + std::to_string(group),
                            Status::InvalidArgument("expected N >= 1"));
    }
    options.group_commit_appends = static_cast<size_t>(group);
    Result<std::unique_ptr<MiningService>> opened =
        MiningService::OpenDurable(options, cache_options);
    if (!opened.ok()) {
      return StartupFailure("cannot open durable store", durable_dir,
                            opened.status());
    }
    durable_service = std::move(*opened);
    service = durable_service.get();
    const RecoveryInfo& info = service->recovery_info();
    std::fprintf(stderr,
                 "serve_cli: recovered %llu sequences at epoch %llu "
                 "(%llu wal records, checkpoint=%d, torn_tail=%d) in %.3f s\n",
                 static_cast<unsigned long long>(info.recovered_sequences),
                 static_cast<unsigned long long>(info.recovered_epoch),
                 static_cast<unsigned long long>(info.wal_replay_records),
                 info.recovered_checkpoint ? 1 : 0,
                 info.torn_tail_dropped ? 1 : 0, info.recover_seconds);
  }

  const std::string input = flags.GetString("input", "");
  if (!input.empty()) {
    const std::string format = flags.GetString("format", "text");
    Result<SequenceDatabase> loaded = format == "spmf"
                                          ? ReadSpmfDatabaseFile(input)
                                          : ReadTextDatabaseFile(input);
    if (!loaded.ok()) {
      return StartupFailure("cannot read", input, loaded.status());
    }
    Status st = service->Ingest(*loaded);
    if (!st.ok()) {
      return StartupFailure("cannot ingest", input, st);
    }
    const ServiceStats stats = service->Stats();
    std::fprintf(stderr, "serve_cli: preloaded %zu sequences (%llu events)\n",
                 stats.num_sequences,
                 static_cast<unsigned long long>(stats.total_events));
  }

  if (slow_query_ms < -1) {
    return StartupFailure("bad flag",
                          "--slow_query_ms=" + std::to_string(slow_query_ms),
                          Status::InvalidArgument("expected N >= 0"));
  }
  if (slow_query_ms >= 0) {
    service->traces().EnableSlowQueryLog(static_cast<uint64_t>(slow_query_ms) *
                                         1000);
  }

  const int errors = RunServeSession(*service, std::cin, std::cout);
  return errors == 0 ? 0 : 1;
}
