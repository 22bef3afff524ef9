/**
 * @file
 * Process-wide count of heap allocations (operator new calls), kept
 * by the replacement allocation functions in alloc_count.cc.
 */

#ifndef PERFBENCH_ALLOC_COUNT_HH
#define PERFBENCH_ALLOC_COUNT_HH

#include <atomic>
#include <cstdint>

namespace perfbench {

extern std::atomic<std::uint64_t> g_heapAllocs;

} // namespace perfbench

#endif // PERFBENCH_ALLOC_COUNT_HH
