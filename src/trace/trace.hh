/**
 * @file
 * Trace container: a sequence of events over dense thread/lock/var id
 * spaces, with builder helpers, local time computation, and the one
 * checker of well-formedness (paper §2.1) that every consumer runs.
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
 * A broken lock or thread rule (TraceValidator): the offending
 * event's index and the rule's message. Trace::validate() returns
 * the same pair as a ValidationResult, so every run mode reports
 * the same failure.
 */
class TraceInputError : public std::runtime_error
{
  public:
    TraceInputError(std::size_t index, const std::string &message)
        : std::runtime_error(message), eventIndex(index)
    {}

    std::size_t eventIndex;
};

/**
 * The lock and thread rules of a well-formed trace (paper §2.1),
 * checked one event at a time: a lock is acquired only while free
 * and released only by its holder; a fork or tcreate target has no
 * events yet, a thread is forked and joined at most once, and does
 * nothing after its join; a tcreated thread runs tcreate → tjoin →
 * tretire, apart from fork targets. Trace::validate() and
 * AnalysisDriver::feed() both check through this one object, so a
 * materialized, streamed or parallel run rejects the same event
 * with the same message.
 *
 * The state grows from the ids the events name, never from a
 * header's declared widths.
 */
class TraceValidator
{
  public:
    /**
     * Check event @p e, number @p index of its trace, and record
     * its effect. A broken rule throws TraceInputError with
     * @p index and the rule's message; the validator is then spent
     * until clear().
     */
    void
    check(std::size_t index, const Event &e)
    {
        std::uint8_t &self = thread(e.tid);
        if (self & kJoined)
            failThread(index, Rule::ActsAfterJoin, e);
        self |= kStarted;
        if (!e.isAccess())
            checkSync(index, e);
    }

    /** Forget every event checked so far. */
    void
    clear()
    {
        threads_.clear();
        holders_.clear();
    }

    /** @name Checkpoint form
     * AnalysisDriver's snapshots store one byte per thread: 0 none,
     * 1 created, 2 created and joined, 3 retired, else 4 for forked
     * plus 8 for joined. Whether a thread has events is not stored;
     * the driver restores it from its local times.
     * @{ */
    std::uint8_t savedThread(Tid t) const;
    /** Holder of lock @p l, kNoTid when free. */
    Tid
    holder(LockId l) const
    {
        return static_cast<std::size_t>(l) < holders_.size()
                   ? holders_[static_cast<std::size_t>(l)]
                   : kNoTid;
    }
    /** False when @p saved is no savedThread() value. */
    bool restoreThread(Tid t, std::uint8_t saved, bool started);
    void restoreHolder(LockId l, Tid holder) { lock(l) = holder; }
    /** @} */

  private:
    enum class Rule : std::uint8_t
    {
        ActsAfterJoin,     ///< the acting thread was joined already
        SelfTarget,        ///< fork/join/tcreate/tjoin of itself
        TargetStarted,     ///< fork/tcreate of a thread with events
        ForkedTwice,       ///< second fork of the target
        ForkOfManaged,     ///< fork of a tcreated thread
        CreatedTwice,      ///< tcreate of a forked/joined/created target
        JoinWithoutCreate, ///< tjoin of a target never tcreated
        JoinedTwice,       ///< second join/tjoin of the target
        RetireWithoutJoin, ///< tretire of a target never tjoined
        RetiredTwice,      ///< second tretire of the target
    };

    /** Per-thread flags; kJoined covers join and tjoin alike. */
    static constexpr std::uint8_t kStarted = 1;
    static constexpr std::uint8_t kForked = 2;
    static constexpr std::uint8_t kJoined = 4;
    static constexpr std::uint8_t kCreated = 8;
    static constexpr std::uint8_t kRetired = 16;

    std::uint8_t &
    thread(Tid t)
    {
        if (static_cast<std::size_t>(t) >= threads_.size())
            growThreads(t);
        return threads_[static_cast<std::size_t>(t)];
    }

    Tid &
    lock(LockId l)
    {
        if (static_cast<std::size_t>(l) >= holders_.size())
            growLocks(l);
        return holders_[static_cast<std::size_t>(l)];
    }

    void
    checkSync(std::size_t index, const Event &e)
    {
        switch (e.op) {
          case OpType::Read:
          case OpType::Write:
            return;
          case OpType::Acquire: {
            Tid &h = lock(e.lock());
            if (h != kNoTid)
                failLockHeld(index, e.lock(), h);
            h = e.tid;
            return;
          }
          case OpType::Release: {
            Tid &h = lock(e.lock());
            if (h != e.tid)
                failLockNotHeld(index, e.lock(), e.tid, h);
            h = kNoTid;
            return;
          }
          case OpType::Fork: {
            std::uint8_t &u = target(index, e);
            if (u & kStarted)
                failThread(index, Rule::TargetStarted, e);
            if (u & kForked)
                failThread(index, Rule::ForkedTwice, e);
            if (u & kCreated)
                failThread(index, Rule::ForkOfManaged, e);
            u |= kForked;
            return;
          }
          case OpType::Join: {
            std::uint8_t &u = target(index, e);
            if (u & kJoined)
                failThread(index, Rule::JoinedTwice, e);
            u |= kJoined;
            return;
          }
          case OpType::ThreadCreate: {
            std::uint8_t &u = target(index, e);
            if (u & kStarted)
                failThread(index, Rule::TargetStarted, e);
            if (u & (kForked | kJoined | kCreated))
                failThread(index, Rule::CreatedTwice, e);
            u |= kCreated;
            return;
          }
          case OpType::ThreadJoin: {
            std::uint8_t &u = target(index, e);
            if (!(u & kCreated))
                failThread(index, Rule::JoinWithoutCreate, e);
            if (u & kJoined)
                failThread(index, Rule::JoinedTwice, e);
            u |= kJoined;
            return;
          }
          case OpType::ThreadRetire: {
            // A thread may name itself here: then it acts after
            // its join, or it was never joined.
            std::uint8_t &u = thread(e.targetTid());
            if ((u & (kCreated | kJoined)) != (kCreated | kJoined))
                failThread(index, Rule::RetireWithoutJoin, e);
            if (u & kRetired)
                failThread(index, Rule::RetiredTwice, e);
            u |= kRetired;
            return;
          }
        }
    }

    /** The state of the thread a fork, join, tcreate or tjoin
     * names, which must not be the actor. */
    std::uint8_t &
    target(std::size_t index, const Event &e)
    {
        if (e.targetTid() == e.tid)
            failThread(index, Rule::SelfTarget, e);
        return thread(e.targetTid());
    }

    void growThreads(Tid t);
    void growLocks(LockId l);
    [[noreturn]] static void failThread(std::size_t index, Rule rule,
                                        const Event &e);
    [[noreturn]] static void failLockHeld(std::size_t index,
                                          LockId lock, Tid holder);
    [[noreturn]] static void failLockNotHeld(std::size_t index,
                                             LockId lock,
                                             Tid releaser,
                                             Tid holder);

    /** Flags by thread id. */
    std::vector<std::uint8_t> threads_;
    /** Holder by lock id; kNoTid when free. */
    std::vector<Tid> holders_;
};

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
    /** append(&e, 1). */
    void push(const Event &e);
    /** Append @p n already-decoded events in one insert — the bulk
     * form of push() for streaming loaders, folding the id-space
     * maxima without a per-event push_back. Every id an event names
     * must lie in 0 .. kMaxEventId (2^31 − 2), the range the readers
     * accept; TC_CHECK enforces it. */
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
     * Check well-formedness: every id lies within the declared
     * widths, and every event passes TraceValidator's lock and
     * thread rules. Reports the first offending event, with the
     * message an analysis run throws for it.
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
