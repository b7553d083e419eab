#include "datagen/quest_generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace gsgrow {

std::string QuestParams::Name() const {
  auto thousands = [](double v) {
    double k = v / 1000.0;
    char buf[32];
    if (k == std::floor(k)) {
      std::snprintf(buf, sizeof(buf), "%.0f", k);
    } else {
      std::snprintf(buf, sizeof(buf), "%.1f", k);
    }
    return std::string(buf);
  };
  // Appended piece by piece: `"C" + std::to_string(...)` trips a false gcc
  // 12 -O3 -Wrestrict report.
  std::string name = "D";
  name += thousands(num_sequences);
  name += 'C';
  name += std::to_string(static_cast<int>(avg_sequence_length));
  name += 'N';
  name += thousands(num_events);
  name += 'S';
  name += std::to_string(static_cast<int>(avg_pattern_length));
  return name;
}

SequenceDatabase GenerateQuest(const QuestParams& params) {
  GSGROW_CHECK(params.num_events > 0);
  GSGROW_CHECK(params.num_potential_patterns > 0);
  Rng rng(params.seed);
  ZipfDistribution event_zipf(params.num_events, params.event_skew);

  // --- Potential pattern pool. ---
  // Lengths are Poisson around S (at least 1); a `correlation` fraction of
  // each pattern is copied from the previous one so related patterns share
  // sub-patterns, as in Quest.
  std::vector<std::vector<EventId>> pool(params.num_potential_patterns);
  std::vector<double> cumulative_weight(params.num_potential_patterns);
  std::vector<double> keep_probability(params.num_potential_patterns);
  double total_weight = 0.0;
  for (uint32_t k = 0; k < params.num_potential_patterns; ++k) {
    size_t len = std::max<uint64_t>(1, rng.Poisson(params.avg_pattern_length));
    std::vector<EventId>& pattern = pool[k];
    pattern.reserve(len);
    if (k > 0) {
      const std::vector<EventId>& prev = pool[k - 1];
      size_t reuse = std::min<size_t>(
          prev.size(),
          static_cast<size_t>(std::llround(params.correlation *
                                           static_cast<double>(len))));
      // Copy a random contiguous run from the predecessor.
      if (reuse > 0) {
        size_t start = static_cast<size_t>(
            rng.UniformInt(prev.size() - reuse + 1));
        pattern.insert(pattern.end(), prev.begin() + start,
                       prev.begin() + start + reuse);
      }
    }
    while (pattern.size() < len) {
      pattern.push_back(static_cast<EventId>(event_zipf.Sample(&rng)));
    }
    // Exponentially distributed pattern weights (Quest), normalized below.
    total_weight += rng.Exponential(1.0);
    cumulative_weight[k] = total_weight;
    // Per-pattern corruption level around corruption_keep.
    double keep = rng.Normal(params.corruption_keep, 0.1);
    keep_probability[k] = std::clamp(keep, 0.2, 1.0);
  }
  for (double& w : cumulative_weight) w /= total_weight;
  cumulative_weight.back() = 1.0;

  auto sample_pattern = [&]() -> size_t {
    double u = rng.UniformDouble();
    return static_cast<size_t>(
        std::lower_bound(cumulative_weight.begin(), cumulative_weight.end(),
                         u) -
        cumulative_weight.begin());
  };

  // --- Sequences. ---
  SequenceDatabase db;
  std::vector<Sequence> sequences;
  sequences.reserve(params.num_sequences);
  for (uint32_t i = 0; i < params.num_sequences; ++i) {
    const size_t target =
        std::max<uint64_t>(1, rng.Poisson(params.avg_sequence_length));
    std::vector<EventId> events;
    events.reserve(target + 8);
    while (events.size() < target) {
      const size_t k = sample_pattern();
      for (EventId e : pool[k]) {
        if (!rng.Bernoulli(keep_probability[k])) continue;  // corruption
        if (rng.Bernoulli(params.noise_probability)) {
          events.push_back(
              static_cast<EventId>(rng.UniformInt(params.num_events)));
        }
        events.push_back(e);
        if (events.size() >= target + 8) break;
      }
    }
    if (events.size() > target) events.resize(target);
    sequences.emplace_back(std::move(events));
  }
  return SequenceDatabase(std::move(sequences));
}

}  // namespace gsgrow
