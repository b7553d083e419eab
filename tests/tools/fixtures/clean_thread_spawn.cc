// gsgrow-fixture: path=src/serve/mining_service.cc expect=
// Clean: workers start through RunWorkers; asking for the hardware thread
// count, yielding, and a std::thread mentioned in a comment or a string
// start nothing.
#include "core/parallel_engine.h"

namespace gsgrow {

size_t Workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  std::this_thread::yield();
  const char* note = "std::thread";
  (void)note;
  return hw == 0 ? 1 : hw;
}

void RunBatch(size_t workers) {
  RunWorkers(workers, [](size_t /*worker*/) {});
}

}  // namespace gsgrow
