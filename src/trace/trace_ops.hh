/**
 * @file
 * Trace transformation utilities: slicing an execution down to the
 * events relevant for a focused analysis, projecting onto thread
 * subsets and compacting identifier spaces.
 *
 * The variable slice supports the lightweight-analysis use case the
 * paper highlights in §6 ("checking for data races on a specific
 * variable as opposed to all variables"): synchronization events are
 * kept so the partial order is unchanged, while unrelated accesses
 * are dropped.
 */

#ifndef TC_TRACE_TRACE_OPS_HH
#define TC_TRACE_TRACE_OPS_HH

#include <vector>

#include "trace/trace.hh"

namespace tc {

/**
 * Keep all synchronization events (acq/rel/fork/join) but only the
 * accesses touching a variable in @p vars. The happens-before
 * structure of the result is identical to the input's, so races on
 * the kept variables are preserved exactly.
 */
Trace sliceByVars(const Trace &trace,
                  const std::vector<VarId> &vars);

/**
 * Keep only the events of the threads in @p tids. Fork/join events
 * whose target is outside the set are dropped (the child's events
 * are gone, so the edge is meaningless); acquire/release pairs of
 * dropped threads vanish together, so the result stays well-formed.
 */
Trace projectThreads(const Trace &trace,
                     const std::vector<Tid> &tids);

/** First @p n events. Any prefix of a well-formed trace is
 * well-formed (locks may simply remain held at the end). */
Trace prefix(const Trace &trace, std::size_t n);

/** Identifier remapping produced by renumberDense(). */
struct IdRemap
{
    /** oldThread[new] = old id, and so on. */
    std::vector<Tid> threads;
    std::vector<LockId> locks;
    std::vector<VarId> vars;
};

/**
 * Compact the id spaces to exactly the ids that occur (preserving
 * relative order), e.g. after slicing. Returns the remapping so
 * callers can translate reports back.
 */
Trace renumberDense(const Trace &trace, IdRemap *remap = nullptr);

} // namespace tc

#endif // TC_TRACE_TRACE_OPS_HH
