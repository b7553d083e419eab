#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "datagen/models.h"
#include "datagen/quest_generator.h"
#include "io/text_format.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using Tokens = std::vector<std::string>;

// Each round sends 15 query lines, and bursts (every other round) carry
// about this many append/extend lines per round, capped by the held-back
// events. Every session pass has >= 70 rounds, so >= 1050 query lines and
// about as many append lines: each pass's p99s have ten samples beyond them
// (a gate checks it).
constexpr size_t kAppendLinesPerRound = 15;
constexpr size_t kCheckpointEvery = 16;
// Dashboard and ad-hoc results print at most this many pattern lines, so a
// cache hit costs the same whatever the result size. Closed session
// queries stop at this pattern length: on loop traces the cost of
// an unbounded closed run jumps between neighbouring floors and corpora
// (p99 ranged 7-24 ms over 10 seeds), while bounded runs vary by 5-7% in
// next-query counts. Top-K runs on the drill-down alphabet: over the whole
// alphabet its threshold descent on loop traces cost 0.6-2.1 s per session
// from seed to seed, and a length cap made the descent deeper still.
constexpr const char* kLimit = " limit=50";
constexpr const char* kMaxLen = " max_len=4";

// Per-workload shape. The dashboard support floors (hi, mid, lo) are the
// medians over sizing seeds of the counts of the 4th, 8th and 12th most
// frequent events. Taking them from each seed's own ranks instead moved the
// cost of a miss by +-28% from seed to seed on the trace corpus.
struct Shape {
  const char* name;
  size_t corpora;   // batch corpora
  size_t sessions;  // session corpora; the slices of a run cycle through them
  uint64_t batch_min_sup;
  uint64_t floors[3];
  size_t serve_rounds;  // per session pass
};

constexpr Shape kShapes[] = {
    {"mine-sparse", 2, 5, 10, {500, 280, 200}, 70},
    {"mine-traces", 6, 4, 75, {250, 180, 160}, 70},
};

uint64_t SubSeed(uint64_t seed, uint64_t k) {
  // SplitMix64 finalizer over (seed, k): neighbouring seeds give unrelated
  // corpora.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (k + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<Tokens> Lines(const std::string& text) {
  std::vector<Tokens> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream words(line);
    Tokens tokens;
    std::string w;
    while (words >> w) tokens.push_back(w);
    if (!tokens.empty()) out.push_back(std::move(tokens));
  }
  return out;
}

std::string Join(const Tokens& tokens, size_t begin, size_t end,
                 const char* sep) {
  std::string out;
  for (size_t i = begin; i < end; ++i) {
    if (i > begin) out += sep;
    out += tokens[i];
  }
  return out;
}

std::string Text(const std::vector<Tokens>& lines) {
  std::string out;
  for (const Tokens& t : lines) {
    out += Join(t, 0, t.size(), " ");
    out += '\n';
  }
  return out;
}

// Quest-style corpus (paper Experiments 1-3 shape).
std::string QuestCorpus(uint32_t sequences, uint32_t events, uint64_t seed) {
  gsgrow::QuestParams p;
  p.num_sequences = sequences;
  p.avg_sequence_length = 20;
  p.num_events = events;
  p.avg_pattern_length = 8;
  p.seed = seed;
  return gsgrow::WriteTextDatabase(gsgrow::GenerateQuest(p));
}

// tcas-like traces (paper Fig. 4 shape). Closed-mining work on loop traces
// is steep in how many traces loop long, so a corpus is a length-stratified
// sample: every 4th trace of an 800-trace pool in length order, kept in pool
// order. Each corpus then has the pool's length profile, and the work per
// corpus stays comparable across seeds.
std::string TcasCorpus(size_t traces, uint64_t seed) {
  const std::vector<Tokens> pool = Lines(gsgrow::WriteTextDatabase(
      gsgrow::GenerateTcasTraces(static_cast<uint32_t>(traces * 4), seed)));
  std::vector<size_t> order(pool.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return pool[a].size() < pool[b].size();
  });
  std::vector<size_t> picked;
  for (size_t i = 2; i < order.size(); i += 4) picked.push_back(order[i]);
  std::sort(picked.begin(), picked.end());
  std::vector<Tokens> kept;
  for (const size_t i : picked) kept.push_back(pool[i]);
  return Text(kept);
}

// The durable closed-loop session over `corpus`: the first 80% of its
// sequences are the start-up load; the rest arrive as append/extend lines
// between repeated dashboard queries, ad-hoc queries and batches.
void MakeServeScript(const std::string& corpus, uint64_t seed,
                     const Shape& shape, Session* out) {
  const size_t rounds = shape.serve_rounds;
  const std::vector<Tokens> lines = Lines(corpus);
  const size_t held = lines.size() / 5;
  const size_t base_n = lines.size() - held;
  out->base =
      Text(std::vector<Tokens>(lines.begin(), lines.begin() + base_n));

  std::map<std::string, std::pair<uint64_t, uint64_t>> counts;  // base, held
  for (size_t i = 0; i < lines.size(); ++i) {
    for (const std::string& e : lines[i]) {
      (i < base_n ? counts[e].first : counts[e].second)++;
    }
  }
  std::vector<std::pair<uint64_t, std::string>> by_count;
  for (const auto& [name, c] : counts) {
    if (c.first > 0) by_count.emplace_back(c.first, name);
  }
  std::sort(by_count.begin(), by_count.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  const uint64_t hi = shape.floors[0], mid = shape.floors[1],
                 lo = shape.floors[2];

  // Drill-down alphabet: the 8 events the held-back stream touches least
  // (most frequent first among ties), so appends usually leave the cached
  // drill-down queries clean and they are re-stamped rather than re-mined.
  std::vector<std::pair<std::pair<uint64_t, uint64_t>, std::string>> by_touch;
  for (const auto& [name, c] : counts) {
    if (c.first > 0) by_touch.push_back({{c.second, ~c.first}, name});
  }
  std::sort(by_touch.begin(), by_touch.end());
  Tokens drill_names;
  for (size_t i = 0; i < by_touch.size() && i < 8; ++i) {
    drill_names.push_back(by_touch[i].second);
  }
  std::sort(drill_names.begin(), drill_names.end());
  const std::string drill = Join(drill_names, 0, drill_names.size(), ",");

  const std::string s_hi = std::to_string(hi), s_mid = std::to_string(mid),
                    s_lo = std::to_string(lo);
  const std::string limit = std::string(kLimit) + "\n";
  const std::string bounded = std::string(kMaxLen) + limit;
  const std::vector<std::string> dashboard = {
      "mine algo=closed min_sup=" + s_hi + bounded,
      "mine algo=closed min_sup=" + s_mid + bounded,
      "mine algo=closed min_sup=" + s_lo + bounded,
      "mine algo=all min_sup=" + s_mid + " max_len=2" + limit,
      "topk k=10 min_len=2 events=" + drill + limit,
      "mine algo=closed min_sup=2 events=" + drill + bounded,
      "mine algo=closed min_sup=" + s_hi +
          " semantics=seqcount,window:w=10" + bounded,
  };
  const size_t semantics_index = dashboard.size() - 1;
  out->probe_query = dashboard[1];
  const std::string batch = "batch\n" + dashboard[0] + dashboard[3] +
                            dashboard[4] + "run threads=2\n";

  // Append stream: each held-back sequence arrives as one append and then
  // extends of its remaining pieces, interleaved at random across open
  // sequences.
  gsgrow::Rng rng(seed);
  // Each held-back sequence is cut into `pieces` lines (fewer when it is
  // shorter), with `pieces` the smallest count that reaches the target.
  const size_t append_lines = kAppendLinesPerRound * rounds;
  size_t pieces = std::max<size_t>(1, (append_lines + held - 1) / held);
  for (;; ++pieces) {
    size_t total = 0, longest = 0;
    for (size_t j = 0; j < held; ++j) {
      total += std::min(pieces, lines[base_n + j].size());
      longest = std::max(longest, lines[base_n + j].size());
    }
    if (total >= append_lines || pieces >= longest) break;
  }
  std::vector<std::vector<std::string>> queue;  // per held sequence: lines
  for (size_t j = 0; j < held; ++j) {
    const Tokens& t = lines[base_n + j];
    const size_t n = std::min(pieces, t.size());
    std::vector<std::string> seq_lines;
    for (size_t p = 0; p < n; ++p) {
      const size_t b = t.size() * p / n, e = t.size() * (p + 1) / n;
      const std::string events = Join(t, b, e, " ");
      seq_lines.push_back(p == 0 ? "append " + events + "\n"
                                 : "extend " + std::to_string(base_n + j) +
                                       " " + events + "\n");
    }
    queue.push_back(std::move(seq_lines));
  }
  std::vector<std::string> stream;
  std::vector<std::pair<size_t, size_t>> open;  // (held index, next piece)
  size_t next_new = 0;
  while (next_new < held || !open.empty()) {
    if (next_new < held && (open.empty() || rng.Bernoulli(0.5))) {
      stream.push_back(queue[next_new][0]);
      if (queue[next_new].size() > 1) open.push_back({next_new, 1});
      ++next_new;
      continue;
    }
    const size_t k = rng.UniformInt(open.size());
    auto& [j, p] = open[k];
    stream.push_back(queue[j][p]);
    if (++p == queue[j].size()) {
      open[k] = open.back();
      open.pop_back();
    }
  }

  const size_t bursts = rounds / 2;
  size_t emitted = 0;
  Tokens top(40);
  for (size_t i = 0; i < top.size(); ++i) {
    top[i] = by_count[std::min(i, by_count.size() - 1)].second;
  }
  for (size_t r = 0; r < rounds; ++r) {
    if (r % 2 == 0) {
      const size_t burst = r / 2;
      const size_t until = stream.size() * (burst + 1) / bursts;
      for (; emitted < until; ++emitted) {
        out->script.push_back({Exchange::Kind::kAppend, stream[emitted]});
      }
    }
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t q = 0; q < dashboard.size(); ++q) {
        out->script.push_back(
            {Exchange::Kind::kQuery, dashboard[q], q == semantics_index});
      }
    }
    // Ad-hoc query: a fresh three-event filter every round.
    Tokens pick = top;
    rng.Shuffle(&pick);
    pick.resize(3);
    std::sort(pick.begin(), pick.end());
    out->script.push_back({Exchange::Kind::kQuery,
                           "mine algo=closed min_sup=" + s_lo + kMaxLen +
                               " events=" + Join(pick, 0, 3, ",") + limit});
    out->script.push_back({Exchange::Kind::kBatch, batch});
    if (r % kCheckpointEvery == kCheckpointEvery - 1 && r + 1 < rounds) {
      out->script.push_back({Exchange::Kind::kCheckpoint, "checkpoint\n"});
    }
  }
}

}  // namespace

bool MakeInputs(const std::string& workload, uint64_t seed, Inputs* out) {
  const Shape* shape = nullptr;
  for (const Shape& candidate : kShapes) {
    if (workload == candidate.name) shape = &candidate;
  }
  if (shape == nullptr) return false;
  out->workload = workload;
  out->seed = seed;
  out->batch_min_sup = shape->batch_min_sup;
  // Corpus k serves as batch corpus k and as the corpus of session k.
  const size_t corpora = std::max(shape->corpora, shape->sessions);
  const char* corpus = "";
  std::vector<std::string> texts;
  for (size_t k = 0; k < corpora; ++k) {
    const uint64_t sub = SubSeed(seed, k);
    if (workload == "mine-sparse") {
      // Quest D1C20N0.2S8: 200 events, short sequences and position lists.
      corpus = "quest D=1000 C=20 N=200 S=8";
      texts.push_back(QuestCorpus(1000, 200, sub));
    } else {
      // tcas-like traces: loops give long per-sequence position lists.
      corpus = "tcas-like 200 traces, length-stratified";
      texts.push_back(TcasCorpus(200, sub));
    }
  }
  size_t exchanges = 0;
  for (size_t k = 0; k < shape->sessions; ++k) {
    out->sessions.emplace_back();
    MakeServeScript(texts[k], SubSeed(seed, 1000 + k), *shape,
                    &out->sessions.back());
    exchanges += out->sessions.back().script.size();
  }
  texts.resize(shape->corpora);
  out->batch_corpora = std::move(texts);
  char params[320];
  std::snprintf(params, sizeof(params),
                "%s batch_corpora=%zu min_sup=%llu sessions=%zu "
                "floors=%llu/%llu/%llu rounds_per_session=%zu "
                "exchanges_per_session=%zu group_commit=32",
                corpus, shape->corpora,
                static_cast<unsigned long long>(shape->batch_min_sup),
                shape->sessions,
                static_cast<unsigned long long>(shape->floors[0]),
                static_cast<unsigned long long>(shape->floors[1]),
                static_cast<unsigned long long>(shape->floors[2]),
                shape->serve_rounds, exchanges / shape->sessions);
  out->params = params;
  return true;
}

}  // namespace perfbench
