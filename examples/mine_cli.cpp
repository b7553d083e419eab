// Command-line miner: end-to-end file-in / file-out usage of the library.
//
//   mine_cli --input=db.txt [--format=text|spmf] [--algorithm=closed|all]
//            [--min_sup=10] [--max_len=0] [--budget=0] [--threads=1]
//            [--top=20] [--output=patterns.tsv] [--density=0] [--maximal]
//            [--semantics=window:w=10,iterative,...]
//            [--semantics_floor=measure:N] [--trace]
//
// Reads a sequence database (text: one sequence of whitespace-separated
// event names per line; spmf: "item -1 ... -2" lines), mines repetitive
// gapped subsequences, optionally post-processes, prints the top patterns,
// and optionally writes the full result as a TSV pattern file.
//
// --semantics selects Table-I measures to annotate onto every mined
// pattern in the same pass (core/semantics_sink.h); annotations appear as
// an extra column in the printed table and as the "|"-separated block in
// the output file. --semantics_floor=measure:N then keeps only patterns
// whose annotated value of `measure` is >= N (annotation-routed filtering;
// postprocess/filters.h).
//
// Exit codes follow ExitCodeForStatus: 2 for a bad flag (an unparsable
// number, --algorithm other than closed|all, a negative or NaN --budget),
// 3 for a missing input, 4 for an I/O error.
//
// --trace prints the request's stage breakdown (obs/trace.h) after the
// mining summary: snapshot/mine/annotate microseconds plus the DFS shape
// counters, the same line shape the serve protocol's `trace last` prints.

#include <cstdio>
#include <string>

#include "core/parallel_engine.h"
#include "core/semantics_sink.h"
#include "io/dataset_stats.h"
#include "io/pattern_io.h"
#include "io/spmf_format.h"
#include "io/text_format.h"
#include "obs/trace.h"
#include "postprocess/filters.h"
#include "serve/mining_service.h"
#include "util/flags.h"
#include "util/timer.h"
#include "util/string_util.h"
#include "util/table.h"

using namespace gsgrow;

namespace {

// Bad command-line input: a message and exit 2 (ExitCodeForStatus of
// InvalidArgument), the same code as every other argument error.
int BadFlag(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const std::string input = flags.GetString("input", "");
  if (input.empty()) {
    std::fprintf(stderr,
                 "usage: mine_cli --input=db.txt [--format=text|spmf] "
                 "[--algorithm=closed|all] [--min_sup=N] [--max_len=N] "
                 "[--budget=SECONDS] [--threads=N] [--top=N] "
                 "[--output=patterns.tsv] [--density=D] [--maximal] "
                 "[--semantics=window:w=10,iterative,...] "
                 "[--semantics_floor=measure:N] [--trace]\n");
    return 2;
  }

  // --- Flags. ---
  // Every option is read and checked before any work, so a bad value exits
  // 2 instead of silently mining with a default.
  MineRequest request;
  MinerOptions& options = request.options;
  options.min_support = static_cast<uint64_t>(flags.GetInt("min_sup", 10));
  const int64_t max_len = flags.GetInt("max_len", 0);
  if (max_len > 0) options.max_pattern_length = static_cast<size_t>(max_len);
  // Seconds of mining time; 0 (the default) means unlimited.
  const double budget = flags.GetDouble("budget", 0.0);
  if (!(budget >= 0)) return BadFlag("--budget must be >= 0 (0 = unlimited)");
  if (budget > 0) options.time_budget_seconds = budget;
  // 0 = one worker per hardware thread; output is identical either way.
  const int64_t threads = flags.GetInt("threads", 1);
  if (threads < 0) return BadFlag("--threads must be >= 0");
  options.num_threads = static_cast<size_t>(threads);

  const std::string semantics_spec = flags.GetString("semantics", "");
  if (!semantics_spec.empty()) {
    Result<SemanticsOptions> parsed = ParseSemanticsSpec(semantics_spec);
    if (!parsed.ok()) return BadFlag(parsed.status().ToString());
    options.semantics = *parsed;
  }

  const std::string algorithm = flags.GetString("algorithm", "closed");
  if (algorithm != "closed" && algorithm != "all") {
    return BadFlag("--algorithm must be closed|all, got '" + algorithm + "'");
  }
  request.miner = algorithm == "all" ? MineRequest::Miner::kAll
                                     : MineRequest::Miner::kClosed;
  const bool trace_enabled = flags.GetBool("trace", false);
  const double density = flags.GetDouble("density", 0.0);
  const bool maximal = flags.GetBool("maximal", false);
  const int top = static_cast<int>(flags.GetInt("top", 20));
  if (Status parsed = flags.CheckParsed(); !parsed.ok()) {
    return BadFlag(parsed.ToString());
  }

  // --- Load. ---
  const std::string format = flags.GetString("format", "text");
  Result<SequenceDatabase> loaded =
      format == "spmf" ? ReadSpmfDatabaseFile(input)
                       : ReadTextDatabaseFile(input);
  if (!loaded.ok()) {
    // Exit codes follow ExitCodeForStatus across the CLIs: a missing input
    // (3) is distinguishable from malformed content or I/O failure.
    std::fprintf(stderr, "error reading %s: %s\n", input.c_str(),
                 loaded.status().ToString().c_str());
    return ExitCodeForStatus(loaded.status().code());
  }
  SequenceDatabase db = std::move(loaded).value();
  std::printf("%s\n", FormatStatsReport(input, db).c_str());

  // --- Mine, through the serving session layer. ---
  // The CLI and serve_cli share one load + query path (MiningService):
  // the database is ingested once into the service's incremental index,
  // and the query runs as a typed MineRequest — exactly what a `mine` line
  // of the serve protocol executes. Repeated queries (a future --repl, or
  // serve_cli itself) hit the same index instead of re-parsing and
  // re-indexing per invocation.
  MiningService service;
  Status ingest_status = service.Ingest(db);
  if (!ingest_status.ok()) {
    std::fprintf(stderr, "error: %s\n", ingest_status.ToString().c_str());
    return ExitCodeForStatus(ingest_status.code());
  }

  obs::RequestTrace trace;
  MineResponse response;
  if (trace_enabled) {
    const WallTimer request_timer;
    std::shared_ptr<const ServiceSnapshot> snapshot;
    response = service.Execute(request, &snapshot, &trace);
    trace.total_us = request_timer.ElapsedMicros();
    service.RecordRequestTrace(trace);
  } else {
    response = service.Execute(request);
  }
  if (!response.status.ok()) {
    std::fprintf(stderr, "error: %s\n", response.status.ToString().c_str());
    return ExitCodeForStatus(response.status.code());
  }
  std::printf("%s mining (%zu threads): %llu patterns in %.2f s%s\n",
              algorithm.c_str(), ResolveNumThreads(options.num_threads),
              static_cast<unsigned long long>(response.stats.patterns_found),
              response.stats.elapsed_seconds,
              response.stats.truncated
                  ? (" [truncated: " + response.stats.truncated_reason + "]")
                        .c_str()
                  : "");
  if (trace_enabled) {
    std::printf("%s\n", obs::FormatRequestTrace(trace).c_str());
  }

  // --- Post-process. ---
  std::vector<PatternRecord> patterns = std::move(response.patterns);
  if (density > 0) patterns = FilterByDensity(patterns, density);
  if (maximal) patterns = FilterMaximal(patterns);
  const std::string floor_spec = flags.GetString("semantics_floor", "");
  if (!floor_spec.empty()) {
    // measure:N — the measure must be part of --semantics; the filter reads
    // the sink-computed annotation block, never the database.
    const std::vector<std::string> parts = Split(floor_spec, ":");
    SemanticsMeasure measure;
    uint64_t floor_value = 0;
    if (parts.size() != 2 || !SemanticsMeasureFromName(parts[0], &measure) ||
        !ParseUint64(parts[1], &floor_value)) {
      std::fprintf(stderr,
                   "error: bad --semantics_floor '%s' (expected "
                   "measure:N with a measure name from --semantics)\n",
                   floor_spec.c_str());
      return 2;
    }
    if (!SelectionEnables(options.semantics, measure)) {
      std::fprintf(stderr,
                   "error: --semantics_floor measure '%s' is not enabled "
                   "in --semantics='%s'; no mined record would carry it\n",
                   parts[0].c_str(), semantics_spec.c_str());
      return 2;
    }
    const size_t before = patterns.size();
    patterns = FilterByAnnotationFloor(patterns, measure, floor_value);
    std::printf("semantics floor %s >= %llu: kept %zu of %zu patterns\n",
                parts[0].c_str(),
                static_cast<unsigned long long>(floor_value),
                patterns.size(), before);
  }
  patterns = RankByLength(std::move(patterns));

  // --- Report. ---
  const bool annotated = options.semantics.AnyEnabled();
  std::vector<std::string> header = {"pattern", "len", "sup"};
  if (annotated) header.push_back("semantics");
  TextTable table(header);
  for (int k = 0; k < top && k < static_cast<int>(patterns.size()); ++k) {
    std::vector<std::string> row = {
        patterns[k].pattern.ToString(db.dictionary()),
        std::to_string(patterns[k].pattern.size()),
        std::to_string(patterns[k].support)};
    if (annotated) row.push_back(AnnotationsToString(patterns[k].annotations));
    table.AddRow(row);
  }
  std::printf("\n%s", table.ToString().c_str());
  if (static_cast<int>(patterns.size()) > top) {
    std::printf("... and %zu more\n", patterns.size() - top);
  }

  const std::string output = flags.GetString("output", "");
  if (!output.empty()) {
    Status st = WritePatternsFile(patterns, db.dictionary(), output);
    if (!st.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", output.c_str(),
                   st.ToString().c_str());
      return ExitCodeForStatus(st.code());
    }
    std::printf("\nwrote %zu patterns to %s\n", patterns.size(),
                output.c_str());
  }
  return 0;
}
