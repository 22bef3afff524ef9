#include "trace/trace.hh"

#include <algorithm>

#include "support/assert.hh"
#include "support/strings.hh"

namespace tc {

namespace {

std::string
lockHeldMessage(LockId lock, Tid holder)
{
    return strFormat("lock %d acquired while held by thread %d", lock,
                     holder);
}

std::string
lockNotHeldMessage(LockId lock, Tid releaser, Tid holder)
{
    return strFormat("lock %d released by thread %d but held by %d",
                     lock, releaser, holder);
}

/** The message for event @p e breaking @p rule. */
std::string
threadRuleMessage(ThreadRule rule, const Event &e)
{
    const Tid child = e.targetTid();
    switch (rule) {
      case ThreadRule::ActsAfterJoin:
        return strFormat("thread %d acts after being joined", e.tid);
      case ThreadRule::SelfTarget:
        return strFormat("thread %ss itself", opName(e.op));
      case ThreadRule::TargetStarted:
        return strFormat("%s target %d already has events",
                         opName(e.op), child);
      case ThreadRule::ForkedTwice:
        return strFormat("thread %d forked twice", child);
      case ThreadRule::ForkOfManaged:
        return strFormat("fork target %d is lifecycle-managed", child);
      case ThreadRule::CreatedTwice:
        return strFormat("thread %d created twice", child);
      case ThreadRule::JoinWithoutCreate:
        return strFormat("tjoin of thread %d without tcreate", child);
      case ThreadRule::JoinedTwice:
        return strFormat("thread %d joined twice", child);
      case ThreadRule::RetireWithoutJoin:
        return strFormat("tretire of thread %d without tjoin", child);
      case ThreadRule::RetiredTwice:
        return strFormat("thread %d retired twice", child);
    }
    return "?";
}

} // namespace

void
throwLockHeld(std::size_t index, LockId lock, Tid holder)
{
    throw TraceInputError(index, lockHeldMessage(lock, holder));
}

void
throwLockNotHeld(std::size_t index, LockId lock, Tid releaser,
                 Tid holder)
{
    throw TraceInputError(index,
                          lockNotHeldMessage(lock, releaser, holder));
}

void
throwThreadRule(std::size_t index, ThreadRule rule, const Event &e)
{
    throw TraceInputError(index, threadRuleMessage(rule, e));
}

const char *
opName(OpType op)
{
    switch (op) {
      case OpType::Read: return "r";
      case OpType::Write: return "w";
      case OpType::Acquire: return "acq";
      case OpType::Release: return "rel";
      case OpType::Fork: return "fork";
      case OpType::Join: return "join";
      case OpType::ThreadCreate: return "tcreate";
      case OpType::ThreadJoin: return "tjoin";
      case OpType::ThreadRetire: return "tretire";
    }
    return "?";
}

std::string
Event::toString() const
{
    const char prefix =
        isAccess() ? 'x' : (isAcquire() || isRelease()) ? 'l' : 't';
    return strFormat("t%d:%s(%c%u)", tid, opName(op), prefix, target);
}

Trace::Trace(Tid num_threads, LockId num_locks, VarId num_vars)
    : numThreads_(num_threads), numLocks_(num_locks),
      numVars_(num_vars)
{
    TC_CHECK(num_threads >= 0 && num_locks >= 0 && num_vars >= 0,
             "id space sizes must be non-negative");
}

void
Trace::push(const Event &e)
{
    TC_CHECK(e.tid >= 0, "event thread id must be non-negative");
    numThreads_ = std::max(numThreads_, e.tid + 1);
    switch (e.op) {
      case OpType::Read:
      case OpType::Write:
        numVars_ = std::max(numVars_, e.var() + 1);
        break;
      case OpType::Acquire:
      case OpType::Release:
        numLocks_ = std::max(numLocks_, e.lock() + 1);
        break;
      case OpType::Fork:
      case OpType::Join:
      case OpType::ThreadCreate:
      case OpType::ThreadJoin:
      case OpType::ThreadRetire:
        numThreads_ = std::max(numThreads_, e.targetTid() + 1);
        break;
    }
    hasLifecycle_ = hasLifecycle_ || e.isLifecycle();
    events_.push_back(e);
}

void
Trace::append(const Event *events, std::size_t n)
{
    for (std::size_t i = 0; i < n; i++) {
        const Event &e = events[i];
        TC_CHECK(e.tid >= 0,
                 "event thread id must be non-negative");
        numThreads_ = std::max(numThreads_, e.tid + 1);
        switch (e.op) {
          case OpType::Read:
          case OpType::Write:
            numVars_ = std::max(numVars_, e.var() + 1);
            break;
          case OpType::Acquire:
          case OpType::Release:
            numLocks_ = std::max(numLocks_, e.lock() + 1);
            break;
          case OpType::Fork:
          case OpType::Join:
          case OpType::ThreadCreate:
          case OpType::ThreadJoin:
          case OpType::ThreadRetire:
            numThreads_ = std::max(numThreads_, e.targetTid() + 1);
            break;
        }
        hasLifecycle_ = hasLifecycle_ || e.isLifecycle();
    }
    events_.insert(events_.end(), events, events + n);
}

ValidationResult
Trace::validate() const
{
    // Holder of each lock; kNoTid when free.
    std::vector<Tid> holder(static_cast<std::size_t>(numLocks_),
                            kNoTid);
    // Threads that have performed at least one event so far.
    std::vector<bool> started(static_cast<std::size_t>(numThreads_),
                              false);
    // Threads that were the target of a fork / a join.
    std::vector<bool> forked(static_cast<std::size_t>(numThreads_),
                             false);
    std::vector<bool> joined(static_cast<std::size_t>(numThreads_),
                             false);
    // Lifecycle protocol state: tcreate → tjoin → tretire. A
    // lifecycle-managed thread is disjoint from fork targets, and
    // tjoin reuses `joined` so "acts after being joined" covers it.
    std::vector<bool> created(static_cast<std::size_t>(numThreads_),
                              false);
    std::vector<bool> retired(static_cast<std::size_t>(numThreads_),
                              false);

    for (std::size_t i = 0; i < events_.size(); i++) {
        const Event &e = events_[i];
        if (e.tid < 0 || e.tid >= numThreads_) {
            return ValidationResult::failure(
                i, strFormat("thread id %d out of range", e.tid));
        }
        // A thread-protocol failure at this event, worded as a
        // streamed run words it (threadRuleMessage).
        const auto broken = [&](ThreadRule rule) {
            return ValidationResult::failure(i,
                                             threadRuleMessage(rule, e));
        };
        if (joined[static_cast<std::size_t>(e.tid)])
            return broken(ThreadRule::ActsAfterJoin);
        started[static_cast<std::size_t>(e.tid)] = true;

        switch (e.op) {
          case OpType::Read:
          case OpType::Write:
            if (e.var() < 0 || e.var() >= numVars_) {
                return ValidationResult::failure(
                    i, strFormat("variable id %d out of range",
                                 e.var()));
            }
            break;
          case OpType::Acquire: {
            if (e.lock() < 0 || e.lock() >= numLocks_) {
                return ValidationResult::failure(
                    i, strFormat("lock id %d out of range", e.lock()));
            }
            Tid &h = holder[static_cast<std::size_t>(e.lock())];
            if (h != kNoTid) {
                return ValidationResult::failure(
                    i, lockHeldMessage(e.lock(), h));
            }
            h = e.tid;
            break;
          }
          case OpType::Release: {
            if (e.lock() < 0 || e.lock() >= numLocks_) {
                return ValidationResult::failure(
                    i, strFormat("lock id %d out of range", e.lock()));
            }
            Tid &h = holder[static_cast<std::size_t>(e.lock())];
            if (h != e.tid) {
                return ValidationResult::failure(
                    i, lockNotHeldMessage(e.lock(), e.tid, h));
            }
            h = kNoTid;
            break;
          }
          case OpType::Fork: {
            const Tid child = e.targetTid();
            if (child < 0 || child >= numThreads_) {
                return ValidationResult::failure(
                    i, strFormat("fork target %d out of range",
                                 child));
            }
            if (child == e.tid)
                return broken(ThreadRule::SelfTarget);
            if (started[static_cast<std::size_t>(child)])
                return broken(ThreadRule::TargetStarted);
            if (forked[static_cast<std::size_t>(child)])
                return broken(ThreadRule::ForkedTwice);
            if (created[static_cast<std::size_t>(child)])
                return broken(ThreadRule::ForkOfManaged);
            forked[static_cast<std::size_t>(child)] = true;
            break;
          }
          case OpType::Join: {
            const Tid child = e.targetTid();
            if (child < 0 || child >= numThreads_) {
                return ValidationResult::failure(
                    i, strFormat("join target %d out of range",
                                 child));
            }
            if (child == e.tid)
                return broken(ThreadRule::SelfTarget);
            if (joined[static_cast<std::size_t>(child)])
                return broken(ThreadRule::JoinedTwice);
            joined[static_cast<std::size_t>(child)] = true;
            break;
          }
          case OpType::ThreadCreate: {
            const Tid child = e.targetTid();
            if (child < 0 || child >= numThreads_) {
                return ValidationResult::failure(
                    i, strFormat("tcreate target %d out of range",
                                 child));
            }
            if (child == e.tid)
                return broken(ThreadRule::SelfTarget);
            if (started[static_cast<std::size_t>(child)])
                return broken(ThreadRule::TargetStarted);
            if (forked[static_cast<std::size_t>(child)] ||
                joined[static_cast<std::size_t>(child)] ||
                created[static_cast<std::size_t>(child)])
                return broken(ThreadRule::CreatedTwice);
            created[static_cast<std::size_t>(child)] = true;
            break;
          }
          case OpType::ThreadJoin: {
            const Tid child = e.targetTid();
            if (child < 0 || child >= numThreads_) {
                return ValidationResult::failure(
                    i, strFormat("tjoin target %d out of range",
                                 child));
            }
            if (child == e.tid)
                return broken(ThreadRule::SelfTarget);
            if (!created[static_cast<std::size_t>(child)])
                return broken(ThreadRule::JoinWithoutCreate);
            if (joined[static_cast<std::size_t>(child)])
                return broken(ThreadRule::JoinedTwice);
            joined[static_cast<std::size_t>(child)] = true;
            break;
          }
          case OpType::ThreadRetire: {
            const Tid child = e.targetTid();
            if (child < 0 || child >= numThreads_) {
                return ValidationResult::failure(
                    i, strFormat("tretire target %d out of range",
                                 child));
            }
            if (!created[static_cast<std::size_t>(child)] ||
                !joined[static_cast<std::size_t>(child)])
                return broken(ThreadRule::RetireWithoutJoin);
            if (retired[static_cast<std::size_t>(child)])
                return broken(ThreadRule::RetiredTwice);
            retired[static_cast<std::size_t>(child)] = true;
            break;
          }
        }
    }
    return {};
}

std::vector<Clk>
Trace::localTimes() const
{
    std::vector<Clk> times(events_.size());
    std::vector<Clk> counters(static_cast<std::size_t>(numThreads_),
                              0);
    for (std::size_t i = 0; i < events_.size(); i++)
        times[i] = ++counters[static_cast<std::size_t>(events_[i].tid)];
    return times;
}

} // namespace tc
