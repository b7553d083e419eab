// gsgrow-fixture: path=src/serve/mining_service.cc expect=thread-spawn,thread-spawn,thread-spawn
// Seeded violation: a hand-rolled worker pool next to the one in
// core/parallel_engine.h — a vector of threads, a lone std::thread and a
// std::jthread, each with its own spawn and join.
#include <thread>
#include <vector>

namespace gsgrow {

void RunBatch(size_t workers) {
  std::vector<std::thread> pool;
  for (size_t w = 0; w < workers; ++w) pool.emplace_back([] {});
  for (auto& worker : pool) worker.join();
  std::thread flusher([] {});
  flusher.join();
  std::jthread watcher([] {});
}

}  // namespace gsgrow
