/**
 * @file
 * The allocation counter of alloc_hook.cc, whose global operator
 * new replacements count every successful heap allocation. Only a
 * binary that links the hook's object (CMake target
 * tc_bench_alloc_hook) can call it.
 */

#ifndef TC_BENCH_ALLOC_HOOK_HH
#define TC_BENCH_ALLOC_HOOK_HH

#include <cstdint>

namespace tc {
namespace bench {

/** Heap allocations since process start. Snapshot it around a
 * region to count the region's allocations: a warmed tree-clock
 * join/copy must not touch the heap. */
std::uint64_t heapAllocCount() noexcept;

} // namespace bench
} // namespace tc

#endif // TC_BENCH_ALLOC_HOOK_HH
