/**
 * @file
 * General-purpose well-formed random trace synthesis. This is the
 * substitute for the paper's logged benchmark traces
 * (docs/ARCHITECTURE.md, Corpus): the knobs below span the same
 * axes the paper's Table 3 corpus spans — thread/lock/variable
 * counts, synchronization density, access skew and thread-activity
 * skew.
 */

#ifndef TC_GEN_RANDOM_TRACE_HH
#define TC_GEN_RANDOM_TRACE_HH

#include <cstdint>

#include "trace/trace.hh"

namespace tc {

/** Knobs for generateRandomTrace(). */
struct RandomTraceParams
{
    Tid threads = 8;
    LockId locks = 8;
    VarId vars = 1024;
    /** Target event count (the result lands within a few events). */
    std::uint64_t events = 100000;
    /** Fraction of events that are lock operations (acq+rel).
     * The paper's corpus averages ~9.5% (Table 1). */
    double syncRatio = 0.1;
    /** Fraction of access events that are reads. */
    double readFraction = 0.7;
    /** Probability an access hits the hot variable set. */
    double hotFraction = 0.5;
    /** Size of the hot variable set (clamped to vars). */
    VarId hotVars = 16;
    /** 0 = uniform thread activity; 1 = first 20% of threads are 5×
     * more active (the paper's skew). */
    double threadSkew = 0.0;
    /**
     * Probability that a lock operation targets a lock from the
     * thread's own neighbourhood window (adjacent windows overlap,
     * ring-style) instead of a uniformly random lock. Real programs
     * synchronize through per-structure locks shared by few
     * threads — this is what gives real traces the large
     * VCWork/VTWork ratios of the paper's Figure 8. 0 = fully
     * uniform gossip (tree clocks' worst case).
     */
    double lockLocality = 0.0;
    /**
     * Same for the non-hot share of variable accesses: probability
     * of accessing the thread's own variable partition rather than
     * a uniformly random variable.
     */
    double varLocality = 0.0;
    /**
     * Thread-lock affinity: probability that a sync operation
     * reuses the thread's previous lock instead of picking a new
     * one. Real programs guard each object with its own lock and
     * re-acquire it in loops, which makes most joins vacuous — the
     * main source of the paper's 10-100x VCWork/VTWork ratios
     * (Figure 8). 0 = a fresh lock every time.
     */
    double lockBurst = 0.0;
    /**
     * Temporal access locality: probability that an access reuses
     * the thread's previous variable (load-modify-store sequences,
     * loop bodies). Keeps the per-operation progressed sets small,
     * as in real traces. 0 = a fresh variable every time.
     */
    double varBurst = 0.0;
    /** Emit fork events (thread 0 spawns all) and final joins. */
    bool forkJoin = false;
    std::uint64_t seed = 1;
};

/**
 * Generate a well-formed trace (Trace::validate() holds by
 * construction): locks are acquired only when free and released by
 * their holder in LIFO order; forked threads act only after their
 * fork; joins close the trace.
 */
Trace generateRandomTrace(const RandomTraceParams &params);

} // namespace tc

#endif // TC_GEN_RANDOM_TRACE_HH
