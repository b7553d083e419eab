#include "io/dataset_stats.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "util/string_util.h"
#include "util/table.h"

namespace gsgrow {

std::string FormatStatsLine(const SequenceDatabase& db) {
  DatabaseStats st = db.Stats();
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s sequences, %s events, avg length %.1f, max %zu",
                WithThousandsSeparators(st.num_sequences).c_str(),
                WithThousandsSeparators(st.num_distinct_events).c_str(),
                st.avg_length, st.max_length);
  return buf;
}

std::string FormatStatsReport(const std::string& name,
                              const SequenceDatabase& db) {
  std::string out = "dataset " + name + ": " + FormatStatsLine(db) + "\n";
  // Log-scaled length histogram: [1,2), [2,4), [4,8), ...
  std::vector<size_t> buckets;
  for (const Sequence& s : db.sequences()) {
    size_t len = s.length();
    size_t b = 0;
    while ((1u << (b + 1)) <= len) ++b;
    if (buckets.size() <= b) buckets.resize(b + 1, 0);
    ++buckets[b];
  }
  TextTable table({"length", "sequences"});
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    // Appended piece by piece: `"[" + std::to_string(...)` trips a false
    // gcc 12 -O3 -Wrestrict report.
    std::string range = "[";
    range += std::to_string(1u << b);
    range += ',';
    range += std::to_string(1u << (b + 1));
    range += ')';
    table.AddRow({range, WithThousandsSeparators(buckets[b])});
  }
  out += table.ToString();
  return out;
}

}  // namespace gsgrow
