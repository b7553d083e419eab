// gsgrow-fixture: path=src/core/growth_engine.cc expect=
// Clean: product code may CALL the reference oracles of
// src/core/reference.h (the gap-constrained extension reports the exact
// max-flow support), and names that merely contain Seed/Reference/Plain
// without ending in them are not twins. Mentions in comments, such as
// GrowSupportSetReference(), are stripped before matching.
#include "core/growth_engine.h"
#include "core/reference.h"

namespace gsgrow {

uint64_t ExactSupport(const SequenceDatabase& db, const Pattern& p,
                      const LandmarkGapConstraint& gap) {
  const uint64_t exact = ReferenceSupport(db, p, gap);
  return exact;
}

uint64_t SeedCount(uint64_t seed) { return seed + 1; }

bool Both(bool a, bool b) { return a && CheckSeed(b); }

uint64_t Wrapped(const SequenceDatabase& db, const Pattern& p) {
  return std::max(uint64_t{1}, ComputeReference(db, p));
}

}  // namespace gsgrow
