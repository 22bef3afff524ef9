/**
 * @file
 * Trace container: a sequence of events over dense thread/lock/var id
 * spaces, with builder helpers, well-formedness validation and local
 * time computation (paper §2.1).
 */

#ifndef TC_TRACE_TRACE_HH
#define TC_TRACE_TRACE_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/event.hh"

namespace tc {

/** Outcome of Trace::validate(). */
struct ValidationResult
{
    bool ok = true;
    /** Index of the first offending event (size() if none). */
    std::size_t eventIndex = 0;
    std::string message;

    static ValidationResult
    failure(std::size_t index, std::string msg)
    {
        return {false, index, std::move(msg)};
    }
};

/**
 * A validity violation found while streaming, where no whole-trace
 * validate() pass runs first: the offending event's index and the
 * message validate() gives for it, so streamed and materialized
 * runs report the same failure.
 */
class TraceInputError : public std::runtime_error
{
  public:
    TraceInputError(std::size_t index, const std::string &message)
        : std::runtime_error(message), eventIndex(index)
    {}

    std::size_t eventIndex;
};

/** Thread-protocol rules that both validate() and a streamed run
 * check; an event breaking one gets the same message from both
 * (throwThreadRule below). */
enum class ThreadRule : std::uint8_t
{
    ActsAfterJoin,     ///< the acting thread was joined already
    SelfTarget,        ///< fork/join/tcreate/tjoin of itself
    TargetStarted,     ///< fork/tcreate of a thread with events
    ForkedTwice,       ///< second fork of the target
    ForkOfManaged,     ///< fork of a tcreate-managed thread
    CreatedTwice,      ///< tcreate of a forked/joined/created target
    JoinWithoutCreate, ///< tjoin of a target never tcreated
    JoinedTwice,       ///< second join/tjoin of the target
    RetireWithoutJoin, ///< tretire of a target never tjoined
    RetiredTwice,      ///< second tretire of the target
};

/** @name Streamed discipline violations at event @p index
 * Throw TraceInputError with validate()'s message. Out of line, so
 * a per-event loop carries only the call.
 * @{ */
[[noreturn]] void throwLockHeld(std::size_t index, LockId lock,
                                Tid holder);
[[noreturn]] void throwLockNotHeld(std::size_t index, LockId lock,
                                   Tid releaser, Tid holder);
[[noreturn]] void throwThreadRule(std::size_t index, ThreadRule rule,
                                  const Event &e);
/** @} */

/**
 * A concrete execution trace. Events are appended in trace order;
 * thread, lock and variable ids must be dense (the builder grows the
 * id spaces automatically, explicit constructors pre-declare them).
 */
class Trace
{
  public:
    Trace() = default;
    Trace(Tid num_threads, LockId num_locks, VarId num_vars);

    /** @name Builder interface
     * Append one event; id spaces grow as needed. @{ */
    void read(Tid t, VarId x) { push(Event(t, OpType::Read, x)); }
    void write(Tid t, VarId x) { push(Event(t, OpType::Write, x)); }
    void acquire(Tid t, LockId l)
    {
        push(Event(t, OpType::Acquire, l));
    }
    void release(Tid t, LockId l)
    {
        push(Event(t, OpType::Release, l));
    }
    void fork(Tid t, Tid child)
    {
        push(Event(t, OpType::Fork, child));
    }
    void join(Tid t, Tid child)
    {
        push(Event(t, OpType::Join, child));
    }
    void tcreate(Tid t, Tid child)
    {
        push(Event(t, OpType::ThreadCreate, child));
    }
    void tjoin(Tid t, Tid child)
    {
        push(Event(t, OpType::ThreadJoin, child));
    }
    void tretire(Tid t, Tid child)
    {
        push(Event(t, OpType::ThreadRetire, child));
    }
    /** sync(l) of the paper's examples: acq(l) directly followed by
     * rel(l). */
    void sync(Tid t, LockId l) { acquire(t, l); release(t, l); }
    void push(const Event &e);
    /** Append @p n already-decoded events in one insert — the bulk
     * twin of push() for streaming loaders, folding the id-space
     * maxima without a per-event push_back. */
    void append(const Event *events, std::size_t n);
    /** @} */

    const Event &operator[](std::size_t i) const { return events_[i]; }
    std::size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }
    const std::vector<Event> &events() const { return events_; }

    auto begin() const { return events_.begin(); }
    auto end() const { return events_.end(); }

    Tid numThreads() const { return numThreads_; }
    LockId numLocks() const { return numLocks_; }
    VarId numVars() const { return numVars_; }
    /** At least one lifecycle (tcreate/tjoin/tretire) event was
     * appended — the trace is dynamic-membership and needs the v2
     * on-disk formats. */
    bool hasLifecycle() const { return hasLifecycle_; }

    /** Reserve storage for n events. */
    void reserve(std::size_t n) { events_.reserve(n); }

    /**
     * Check well-formedness: ids dense and in range; lock semantics
     * (acquire only free locks, release only held locks, by the
     * holder); fork targets have no earlier events and are forked at
     * most once; join targets have no later events.
     */
    ValidationResult validate() const;

    /**
     * Local time of every event: lTime(e) = number of events of
     * tid(e) up to and including e (paper §2.1, so the first event of
     * a thread has local time 1).
     */
    std::vector<Clk> localTimes() const;

  private:
    std::vector<Event> events_;
    Tid numThreads_ = 0;
    LockId numLocks_ = 0;
    VarId numVars_ = 0;
    bool hasLifecycle_ = false;
};

} // namespace tc

#endif // TC_TRACE_TRACE_HH
