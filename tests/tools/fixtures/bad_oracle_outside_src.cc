// gsgrow-fixture: path=src/core/growth_engine.cc expect=oracle-outside-src,oracle-outside-src,oracle-outside-src
// Seeded violation: a second, slower implementation of a product path kept
// next to it in src/ — a seed closure check, a reference INSgrow and a
// plain-layout twin. Oracles belong in src/core/reference.{h,cc} or
// tests/; ablation twins go once the measurement that justified them is
// done.
#include "core/growth_engine.h"

namespace gsgrow {

bool ClosurePruning::CheckInsertExtensionsSeed(const GrowthNode& node,
                                               bool* non_closed) {
  return CheckInsertExtensions(node, non_closed);
}

SupportSet GrowSupportSetReference(const InvertedIndex& index,
                                   const SupportSet& support_set, EventId e);

static size_t
MemoryUsagePlain(const InvertedIndex& index) {
  return index.MemoryUsage();
}

}  // namespace gsgrow
