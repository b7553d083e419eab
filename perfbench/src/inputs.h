// Workload inputs. Everything the program under test receives is generated
// here from the workload name and seed: corpus texts and protocol lines.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One closed-loop exchange: the protocol lines sent together and what
/// kind of traffic they are.
struct Exchange {
  enum class Kind { kQuery, kAppend, kBatch, kCheckpoint };
  Kind kind;
  std::string text;  // newline-terminated protocol line(s)
  bool semantics = false;  // the Table-I annotated dashboard query
};

/// One closed-loop session: the corpus loaded at start-up (80% of a
/// generated corpus) and the script that delivers the held-back 20% among
/// queries.
struct Session {
  std::string base;
  std::vector<Exchange> script;
  /// A dashboard query re-sent after the reopen to check recovery.
  std::string probe_query;
};

struct Inputs {
  std::string workload;
  uint64_t seed = 0;
  std::string params;  // human-readable generator parameters for the header

  /// Batch path: independently seeded corpora, each mined to its closed set
  /// at `batch_min_sup`.
  std::vector<std::string> batch_corpora;
  uint64_t batch_min_sup = 0;

  /// Serve path: sessions the slices of a run cycle through, each on its
  /// own corpus (session k on the corpus of batch corpus k where that
  /// exists).
  std::vector<Session> sessions;
};

/// Generates the inputs of `workload` for `seed`. Returns false for an
/// unknown workload.
bool MakeInputs(const std::string& workload, uint64_t seed, Inputs* out);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
