#include "exec/parallel_for.h"

#include <algorithm>
#include <thread>
#include <vector>

namespace cbl::exec {

unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void parallel_for_chunks(
    std::size_t n, unsigned chunks,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (chunks <= 1 || n < 2 * static_cast<std::size_t>(chunks)) {
    fn(0, n);
    return;
  }
  const std::size_t chunk = (n + chunks - 1) / chunks;
  std::vector<std::thread> threads;
  threads.reserve(chunks);
  for (unsigned t = 0; t < chunks; ++t) {
    const std::size_t begin = static_cast<std::size_t>(t) * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    threads.emplace_back([&fn, begin, end] { fn(begin, end); });
  }
  for (auto& th : threads) th.join();
}

}  // namespace cbl::exec
