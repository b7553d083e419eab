// Ablation of CloGSgrow's pruning machinery (DESIGN.md §4, "design
// ablations"): the paper's own switches — landmark border checking
// (Theorem 5), the insert-candidate per-sequence-count filter, and the
// inherited candidate event list — plus the root loop sharded over 2 and 4
// workers.
//
// All variants mine the identical closed-pattern set (pinned by
// clogsgrow_test and EngineParity); this harness quantifies their effect
// on runtime and DFS size, mirroring the paper's claim that "our
// closed-pattern mining algorithm is sped up significantly with these two
// checking strategies". Its gate: on each dataset, every row that finished
// within the budget must report the same pattern count as the finished
// `full` row, or the harness exits non-zero.
//
// Every row records index_bytes (InvertedIndex::MemoryUsage). Rows land in
// BENCH_ablation_pruning.json (and, when GSGROW_BENCH_JSON is set, are
// appended there too) so the ablation is tracked across PRs, not inferred
// from stdout.

#include <cstdio>
#include <string>
#include <vector>

#include "core/clogsgrow.h"
#include "datagen/models.h"
#include "datagen/quest_generator.h"
#include "harness.h"
#include "io/dataset_stats.h"
#include "util/string_util.h"
#include "util/table.h"

using namespace gsgrow;

namespace {

struct Variant {
  const char* name;
  bool lb_pruning;
  bool insert_filter;
  bool candidate_list;
};

MinerOptions VariantOptions(const Variant& v, uint64_t min_sup,
                            double budget) {
  MinerOptions options;
  options.min_support = min_sup;
  options.time_budget_seconds = budget;
  options.collect_patterns = false;
  options.use_landmark_border_pruning = v.lb_pruning;
  options.use_insert_candidate_filter = v.insert_filter;
  options.use_candidate_list = v.candidate_list;
  return options;
}

}  // namespace

int main() {
  const double scale = bench::Scale();
  const double budget = bench::BudgetSeconds();
  bench::PrintPreamble(
      "Ablation: CloGSgrow pruning strategies",
      "LBCheck prunes whole subtrees; disabling it must not change the "
      "output but grows the search (cf. Example 3.5/3.6). Every "
      "finished row must count as many closed patterns as the finished "
      "full row.");

  std::vector<std::pair<std::string, SequenceDatabase>> datasets;
  datasets.emplace_back("jboss-like(28)", GenerateJBossTraces());
  datasets.emplace_back(
      "tcas-like", GenerateTcasTraces(static_cast<uint32_t>(
                                          std::max(50.0, 1578 * scale)),
                                      13));
  {
    QuestParams params;
    params.num_sequences =
        static_cast<uint32_t>(std::max(1.0, 2000 * scale));
    params.num_events = 200;
    params.avg_sequence_length = 20;
    params.avg_pattern_length = 8;
    datasets.emplace_back(params.Name(), GenerateQuest(params));
  }
  {
    // Closure-heavy configuration: a small alphabet over long sequences
    // yields large supports, many insert candidates surviving the filter,
    // and deep DFS paths — the per-node closure check dominates the run.
    QuestParams params;
    params.num_sequences =
        static_cast<uint32_t>(std::max(20.0, 400 * scale));
    params.num_events = 30;
    params.avg_sequence_length = 40;
    params.avg_pattern_length = 10;
    params.num_potential_patterns = 20;
    datasets.emplace_back("closure-heavy " + params.Name(),
                          GenerateQuest(params));
  }
  {
    // Storage-dense configuration: very long sequences over a tiny
    // alphabet, so per-(sequence,event) position lists run to hundreds of
    // entries. The support floor sits near the top event counts —
    // occurrence-based support explodes combinatorially on this shape, and
    // a near-saturation threshold keeps the run finishing inside the budget
    // so the pattern-count gate is verified on completed output.
    QuestParams params;
    params.num_sequences =
        static_cast<uint32_t>(std::max(10.0, 100 * scale));
    params.num_events = 8;
    params.avg_sequence_length = 600;
    params.avg_pattern_length = 8;
    datasets.emplace_back("storage-dense " + params.Name(),
                          GenerateQuest(params));
  }

  const Variant variants[] = {
      {"full", true, true, true},
      {"no LBCheck", false, true, true},
      {"no insert filter", true, false, true},
      {"no candidate list", true, true, false},
  };

  std::vector<std::string> json_rows;
  bool gates_ok = true;
  for (const auto& [name, db] : datasets) {
    std::printf("%s\n", FormatStatsReport(name, db).c_str());
    InvertedIndex index(db);
    uint64_t min_sup = bench::ScaledMinSup(20, scale);
    if (name.rfind("jboss", 0) == 0) min_sup = 18;
    // The closure-heavy corpus has far larger supports (small alphabet,
    // long sequences); a matching threshold keeps the run closure-bound
    // yet finishing within the budget.
    if (name.rfind("closure-heavy", 0) == 0) {
      min_sup = bench::ScaledMinSup(160, scale);
    }
    if (name.rfind("storage-dense", 0) == 0) {
      min_sup = bench::ScaledMinSup(9200, scale);
    }
    TextTable table({"variant", "threads", "time", "closed patterns",
                     "nodes visited", "lb-pruned subtrees", "insgrow calls",
                     "next queries", "regrow events"});
    // Rows that finished, checked against the finished full row below.
    std::vector<std::pair<std::string, bench::Cell>> finished;
    bench::Cell full_cell;
    for (const Variant& v : variants) {
      MiningResult result =
          MineClosedFrequent(index, VariantOptions(v, min_sup, budget));
      bench::Cell cell = bench::ToCell(result);
      cell.index_bytes = index.MemoryUsage();
      if (std::string(v.name) == "full") full_cell = cell;
      if (!cell.truncated()) finished.emplace_back(v.name, cell);
      table.AddRow({v.name, "1", bench::CellTime(cell),
                    bench::CellCount(cell),
                    WithThousandsSeparators(result.stats.nodes_visited),
                    WithThousandsSeparators(result.stats.lb_pruned_subtrees),
                    WithThousandsSeparators(result.stats.insgrow_calls),
                    WithThousandsSeparators(result.stats.next_queries),
                    WithThousandsSeparators(
                        result.stats.closure_regrow_events)});
      std::string json =
          bench::CellJson("ablation_pruning", name, v.name, cell);
      json_rows.push_back(json);
      bench::AppendBenchJson(json);
    }
    // Thread-scaling rows (ROADMAP "Scale"): the full variant with the root
    // loop sharded across workers. Output and DFS accounting are
    // thread-count invariant (pinned by parallel_engine_test); these rows
    // record the wall-clock curve in BENCH_ablation_pruning.json. Note the
    // measured speedup is bounded by the physical cores of the machine the
    // bench runs on.
    for (size_t threads : {2u, 4u}) {
      MinerOptions options = VariantOptions(variants[0], min_sup, budget);
      options.num_threads = threads;
      MiningResult result = MineClosedFrequent(index, options);
      bench::Cell cell = bench::ToCell(result, threads);
      cell.index_bytes = index.MemoryUsage();
      table.AddRow({"full", std::to_string(threads),
                    bench::CellTime(cell), bench::CellCount(cell),
                    WithThousandsSeparators(result.stats.nodes_visited),
                    WithThousandsSeparators(result.stats.lb_pruned_subtrees),
                    WithThousandsSeparators(result.stats.insgrow_calls),
                    WithThousandsSeparators(result.stats.next_queries),
                    WithThousandsSeparators(
                        result.stats.closure_regrow_events)});
      const std::string config =
          "full x" + std::to_string(threads) + " threads";
      std::string json =
          bench::CellJson("ablation_pruning", name, config, cell);
      json_rows.push_back(json);
      bench::AppendBenchJson(json);
      if (!cell.truncated()) finished.emplace_back(config, cell);
      if (threads == 4 && !cell.truncated() && !full_cell.truncated() &&
          cell.seconds() > 0) {
        std::printf("4-thread speedup over 1 thread: %.2fx\n",
                    full_cell.seconds() / cell.seconds());
      }
    }
    std::printf("(min_sup=%llu)\n%s",
                static_cast<unsigned long long>(min_sup),
                table.ToString().c_str());
    std::printf("index bytes: %s\n",
                WithThousandsSeparators(index.MemoryUsage()).c_str());
    // Pattern-count gate: the switches and the thread count change the
    // work, never the output. A row cut off by the budget proves nothing
    // either way; with the full row cut off there is no reference count.
    if (full_cell.truncated()) {
      std::printf("pattern counts: not verified (full row truncated)\n");
    } else {
      bool same = true;
      for (const auto& [config, cell] : finished) {
        if (cell.patterns() == full_cell.patterns()) continue;
        same = false;
        std::printf("pattern count MISMATCH: %s %llu vs full %llu\n",
                    config.c_str(),
                    static_cast<unsigned long long>(cell.patterns()),
                    static_cast<unsigned long long>(full_cell.patterns()));
      }
      if (!same) gates_ok = false;
      std::printf("pattern counts: %zu finished rows %s the full row\n",
                  finished.size(), same ? "match" : "do NOT match");
    }
    std::printf("\n");
  }
  bench::WriteJsonArray("BENCH_ablation_pruning.json", json_rows);
  std::printf("wrote BENCH_ablation_pruning.json (%zu rows)\n",
              json_rows.size());
  if (!gates_ok) {
    std::printf("PATTERN-COUNT GATE FAILED (see above)\n");
    return 1;
  }
  return 0;
}
