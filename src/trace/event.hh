/**
 * @file
 * Event model for concurrent execution traces (paper §2.1).
 *
 * An event is <tid, op> where op is one of r(x), w(x), acq(l), rel(l)
 * plus the fork/join extension the paper's footnote 2 declares
 * straightforward. The unique event identifier of the paper is the
 * event's index in its trace; (tid, local time) also identifies an
 * event uniquely and is what race reports use.
 */

#ifndef TC_TRACE_EVENT_HH
#define TC_TRACE_EVENT_HH

#include <cstdint>
#include <string>

#include "support/types.hh"

namespace tc {

/** Operation performed by an event. */
enum class OpType : std::uint8_t
{
    Read,    ///< r(x): read of shared variable x
    Write,   ///< w(x): write of shared variable x
    Acquire, ///< acq(l): lock acquire
    Release, ///< rel(l): lock release
    Fork,    ///< fork(u): spawn thread u (extension)
    Join,    ///< join(u): wait for thread u to finish (extension)
    /** @name Thread lifecycle (trace format v2)
     *
     * Dynamic membership for pool/task workloads: a *logical*
     * thread is created by a parent (which publishes its clock to
     * the child, like fork), later lifecycle-joined (the joiner
     * pulls the child's final clock back), and finally retired —
     * after which its id is dead and clocks may reclaim its
     * storage. Unlike fork/join, these ops form a mandatory
     * create → join → retire protocol per managed thread, which is
     * what makes reclamation sound. Format-v1 readers reject these
     * op codes as corrupt input.
     * @{ */
    ThreadCreate, ///< tcreate(u): create logical thread u
    ThreadJoin,   ///< tjoin(u): await u's completion
    ThreadRetire, ///< tretire(u): u's id becomes reclaimable
    /** @} */
};

/** Highest op code of the v1 trace formats (no lifecycle). */
inline constexpr std::uint8_t kMaxOpV1 =
    static_cast<std::uint8_t>(OpType::Join);
/** Highest op code of the v2 trace formats. */
inline constexpr std::uint8_t kMaxOpV2 =
    static_cast<std::uint8_t>(OpType::ThreadRetire);

/** Largest id an event may name (2^31 − 2), so that every id
 * space — its largest id + 1 — fits the signed 32-bit id types.
 * The trace readers reject larger ids as corrupt input. */
inline constexpr std::uint32_t kMaxEventId = 0x7FFFFFFE;
/** Largest id-space width a trace header may declare (2^31 − 1);
 * the readers reject wider headers as corrupt input. */
inline constexpr std::uint32_t kMaxIdWidth = 0x7FFFFFFF;

/** Short mnemonic used by the text trace format ("r", "acq", ...). */
const char *opName(OpType op);

/**
 * One trace event. @c target is a VarId for Read/Write, a LockId for
 * Acquire/Release, and a Tid for Fork/Join.
 */
struct Event
{
    Tid tid = kNoTid;
    std::uint32_t target = 0;
    OpType op = OpType::Read;

    Event() = default;
    Event(Tid t, OpType o, std::uint32_t tgt)
        : tid(t), target(tgt), op(o)
    {}

    bool isRead() const { return op == OpType::Read; }
    bool isWrite() const { return op == OpType::Write; }
    bool isAccess() const { return isRead() || isWrite(); }
    bool isAcquire() const { return op == OpType::Acquire; }
    bool isRelease() const { return op == OpType::Release; }
    bool isFork() const { return op == OpType::Fork; }
    bool isJoin() const { return op == OpType::Join; }
    bool
    isThreadCreate() const
    {
        return op == OpType::ThreadCreate;
    }
    bool isThreadJoin() const { return op == OpType::ThreadJoin; }
    bool
    isThreadRetire() const
    {
        return op == OpType::ThreadRetire;
    }
    /** tcreate/tjoin/tretire (dynamic membership, format v2). */
    bool isLifecycle() const { return op >= OpType::ThreadCreate; }
    /** Synchronization events in the paper's sense (acq/rel), plus
     * the fork/join and lifecycle extensions. */
    bool isSync() const { return !isAccess(); }

    VarId var() const { return static_cast<VarId>(target); }
    LockId lock() const { return static_cast<LockId>(target); }
    Tid targetTid() const { return static_cast<Tid>(target); }

    bool
    operator==(const Event &other) const
    {
        return tid == other.tid && target == other.target &&
               op == other.op;
    }

    /** Human-readable form, e.g. "t3:acq(l1)". */
    std::string toString() const;
};

/**
 * Conflict predicate (paper §2.1): same variable, different threads,
 * at least one write.
 */
inline bool
conflicting(const Event &a, const Event &b)
{
    return a.isAccess() && b.isAccess() && a.var() == b.var() &&
           a.tid != b.tid && (a.isWrite() || b.isWrite());
}

} // namespace tc

#endif // TC_TRACE_EVENT_HH
