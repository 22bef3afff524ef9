/**
 * @file
 * Global allocation-counting hook.
 *
 * Replaces the global operator new/delete family with versions that
 * count every successful heap allocation. alloc_hook.hh declares
 * heapAllocCount(); callers snapshot it around a region to assert
 * allocation-free steady states (the tree-clock join/copy hot paths
 * must not touch the heap once warmed).
 *
 * Linked only into bench_micro_clock and the test_engine_allocs
 * suite — the library, the other harnesses and the other suites
 * keep the stock allocator.
 */

#include "alloc_hook.hh"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_heap_allocs{0};

void *
countedAlloc(std::size_t size)
{
    // malloc(0) may return nullptr legitimately; operator new must
    // return a unique pointer instead.
    void *p = std::malloc(size ? size : 1);
    if (!p)
        throw std::bad_alloc();
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    return p;
}

} // namespace

namespace tc {
namespace bench {

/** Heap allocations since process start (see alloc_hook.hh). */
std::uint64_t
heapAllocCount() noexcept
{
    return g_heap_allocs.load(std::memory_order_relaxed);
}

} // namespace bench
} // namespace tc

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    void *p = std::malloc(size ? size : 1);
    if (p)
        g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    return p;
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return operator new(size, std::nothrow);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
