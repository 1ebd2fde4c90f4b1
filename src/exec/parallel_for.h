// Execution primitive for the OPRF rebuild path: a deterministic chunked
// parallel-for over short-lived threads. cbl_exec sits beside cbl_obs
// near the bottom of the dependency order, so any layer above can use it.
#pragma once

#include <cstddef>
#include <functional>

namespace cbl::exec {

/// std::thread::hardware_concurrency(), floored at 1.
unsigned hardware_threads();

/// Runs fn(begin, end) over contiguous slices of [0, n), one short-lived
/// thread per slice, and returns once every slice is done. The slice
/// boundaries depend only on (n, chunks) — never on scheduling — so any
/// output addressed by index is bit-identical for every thread count;
/// this is what makes OprfServer::rebuild deterministic under its thread
/// sweep. Degenerate cases (chunks <= 1, or n < 2 * chunks) run a single
/// fn(0, n) on the caller.
void parallel_for_chunks(
    std::size_t n, unsigned chunks,
    const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace cbl::exec
